//! §IV-B — Grain-I/II contention between different-priority traffic
//! (Fig. 4, Key Findings 1–3).
//!
//! Two flows share one RNIC pair, each on its own ETS traffic class with
//! equal (50/50) weights, exactly as the paper configures with
//! `mlnx_qos`. We measure each flow solo and then together, sweeping
//! opcode, message size, QP count and direction — the paper's ">6000
//! parameter combinations" benchmark.

use crate::measure::{AddressPattern, FlowStats, SaturatingFlow};
use crate::testbed::Testbed;
use rdma_verbs::{
    AccessFlags, ConnectOptions, DeviceProfile, FaultPlan, FlowId, Opcode, TrafficClass,
};
use sim_core::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Who posts the flow's work requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowDirection {
    /// The client is the requester (the common case).
    FromClient,
    /// The server is the requester targeting client memory — used for
    /// the "reverse RDMA Read" flows of Fig. 4's yellow box, whose data
    /// leaves the client through the low-priority Rx arbiter.
    ReverseFromServer,
}

/// One competing flow of the Fig.-4 study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowSpec {
    /// Operation the flow issues.
    pub opcode: Opcode,
    /// Message size in bytes (ignored for atomics).
    pub msg_len: u64,
    /// Number of QPs the flow spreads across.
    pub qp_count: usize,
    /// Requester placement.
    pub direction: FlowDirection,
}

impl FlowSpec {
    /// A client-side flow.
    pub fn client(opcode: Opcode, msg_len: u64, qp_count: usize) -> Self {
        FlowSpec {
            opcode,
            msg_len,
            qp_count,
            direction: FlowDirection::FromClient,
        }
    }

    /// A reverse flow: the server reads from (or writes to) the client.
    pub fn reverse(opcode: Opcode, msg_len: u64, qp_count: usize) -> Self {
        FlowSpec {
            opcode,
            msg_len,
            qp_count,
            direction: FlowDirection::ReverseFromServer,
        }
    }
}

/// Measurement parameters.
#[derive(Debug, Clone)]
pub struct PairConfig {
    /// Settling time before the measurement window.
    pub warmup: SimDuration,
    /// Measurement window length.
    pub window: SimDuration,
    /// Experiment seed.
    pub seed: u64,
    /// Per-QP send-queue depth of the generators.
    pub depth: usize,
    /// Optional fault plan installed on the fabric (robustness runs).
    pub fault_plan: Option<FaultPlan>,
}

impl Default for PairConfig {
    fn default() -> Self {
        PairConfig {
            warmup: SimDuration::from_micros(100),
            window: SimDuration::from_micros(250),
            seed: 0xF1604,
            depth: 32,
            fault_plan: None,
        }
    }
}

/// Solo and contended goodputs of a flow pair.
#[derive(Debug, Clone, Copy)]
pub struct PairOutcome {
    /// Flow A alone, bits/s.
    pub solo_a_bps: f64,
    /// Flow B alone, bits/s.
    pub solo_b_bps: f64,
    /// Flow A under contention, bits/s.
    pub duo_a_bps: f64,
    /// Flow B under contention, bits/s.
    pub duo_b_bps: f64,
}

impl PairOutcome {
    /// Fractional bandwidth loss of flow A under contention (negative =
    /// gained bandwidth, the Key-Finding-2 anomaly).
    pub fn reduction_a(&self) -> f64 {
        1.0 - self.duo_a_bps / self.solo_a_bps
    }

    /// Fractional bandwidth loss of flow B under contention.
    pub fn reduction_b(&self) -> f64 {
        1.0 - self.duo_b_bps / self.solo_b_bps
    }

    /// Combined contended throughput relative to the larger solo flow
    /// (> 2.0 demonstrates the abnormal increment of Key Finding 2).
    pub fn total_ratio(&self) -> f64 {
        (self.duo_a_bps + self.duo_b_bps) / self.solo_a_bps.max(self.solo_b_bps)
    }
}

/// Runs the given flows concurrently and returns each flow's goodput in
/// the measurement window, in bits per second.
pub fn run_flows(profile: &DeviceProfile, specs: &[FlowSpec], cfg: &PairConfig) -> Vec<f64> {
    let mut tb = Testbed::new(profile.clone(), 1, cfg.seed);
    if let Some(plan) = &cfg.fault_plan {
        tb.sim.install_fault_plan(plan);
    }
    let mut stats_all = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let tc = TrafficClass::new(i as u8);
        let flow_id = FlowId(i as u32 + 1);
        let opts = ConnectOptions {
            tc,
            flow: flow_id,
            max_send_queue: cfg.depth,
        };
        // Each flow gets its own target MR, striding across it so TPU
        // banks and rows are exercised uniformly (this is a Grain-I/II
        // experiment; the Grain-IV offset structure must average out).
        // The stride is 4096+64 so consecutive accesses walk the banks:
        // a multiple of 4096 would alias every access onto bank 0 and
        // serialize the whole flow behind one bank.
        let (qps, mr) = match spec.direction {
            FlowDirection::FromClient => {
                let mr = tb.server_mr(4 << 20, AccessFlags::remote_all());
                let qps: Vec<_> = (0..spec.qp_count)
                    .map(|_| tb.connect_client(0, opts))
                    .collect();
                (qps, mr)
            }
            FlowDirection::ReverseFromServer => {
                let mr = tb.client_mr(0, 4 << 20, AccessFlags::remote_all());
                let qps: Vec<_> = (0..spec.qp_count)
                    .map(|_| tb.connect_server_to_client(0, opts))
                    .collect();
                (qps, mr)
            }
        };
        let pattern = AddressPattern::Stride {
            key: mr.key,
            base: mr.base_va,
            stride: 4160,
            count: ((mr.len - spec.msg_len.max(4160)) / 4160).max(1),
        };
        let stats = FlowStats::new(true);
        let paused = Rc::new(RefCell::new(false));
        let app = tb.sim.add_app(Box::new(SaturatingFlow::new(
            qps.clone(),
            spec.opcode,
            spec.msg_len,
            pattern,
            0x8000,
            Rc::clone(&stats),
            paused,
        )));
        for qp in qps {
            tb.sim.own_qp(app, qp);
        }
        stats_all.push(stats);
    }
    let start = SimTime::ZERO + cfg.warmup;
    let end = start + cfg.window;
    tb.sim.run_until(end);
    stats_all
        .iter()
        .map(|s| {
            let st = s.borrow();
            let series = st.completions.as_ref().expect("recording enabled");
            crate::measure::goodput_bps(series, start, end)
        })
        .collect()
}

/// Measures a flow pair: both solo baselines plus the contended run.
pub fn measure_pair(
    profile: &DeviceProfile,
    a: FlowSpec,
    b: FlowSpec,
    cfg: &PairConfig,
) -> PairOutcome {
    let solo_a = run_flows(profile, &[a], cfg)[0];
    let solo_b = run_flows(profile, &[b], cfg)[0];
    let duo = run_flows(profile, &[a, b], cfg);
    PairOutcome {
        solo_a_bps: solo_a,
        solo_b_bps: solo_b,
        duo_a_bps: duo[0],
        duo_b_bps: duo[1],
    }
}

/// One cell of the Fig.-4 grid.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// The induced ("Ind.") flow — the one whose degradation is plotted.
    pub a: FlowSpec,
    /// The inducing ("Inr.") flow.
    pub b: FlowSpec,
    /// Measurement.
    pub outcome: PairOutcome,
}

/// Sweep configuration for [`contention_grid`].
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Message sizes each flow sweeps.
    pub sizes: Vec<u64>,
    /// QP counts each flow sweeps.
    pub qp_counts: Vec<usize>,
    /// Flow shapes to pair (opcode + direction).
    pub shapes: Vec<(Opcode, FlowDirection)>,
    /// Per-pair measurement parameters.
    pub pair: PairConfig,
    /// Worker threads.
    pub threads: usize,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            sizes: vec![64, 256, 512, 1024, 4096],
            qp_counts: vec![1, 2, 4, 8],
            shapes: vec![
                (Opcode::Read, FlowDirection::FromClient),
                (Opcode::Write, FlowDirection::FromClient),
                (Opcode::AtomicFetchAdd, FlowDirection::FromClient),
                (Opcode::Read, FlowDirection::ReverseFromServer),
            ],
            pair: PairConfig::default(),
            threads: 8,
        }
    }
}

/// Runs the full contention grid (the paper's ">6000 combinations" scan —
/// the default config enumerates every (shape, size, qp) pair in both
/// roles). Combos run in parallel; results come back in deterministic
/// order.
pub fn contention_grid(profile: &DeviceProfile, cfg: &GridConfig) -> Vec<GridCell> {
    let mut combos = Vec::new();
    for &(op_a, dir_a) in &cfg.shapes {
        for &(op_b, dir_b) in &cfg.shapes {
            for &size_a in &cfg.sizes {
                for &size_b in &cfg.sizes {
                    for &qp_a in &cfg.qp_counts {
                        for &qp_b in &cfg.qp_counts {
                            let a = FlowSpec {
                                opcode: op_a,
                                msg_len: size_a,
                                qp_count: qp_a,
                                direction: dir_a,
                            };
                            let b = FlowSpec {
                                opcode: op_b,
                                msg_len: size_b,
                                qp_count: qp_b,
                                direction: dir_b,
                            };
                            combos.push((a, b));
                        }
                    }
                }
            }
        }
    }
    grid_over(profile, &combos, cfg)
}

/// Runs an explicit list of flow pairs in parallel.
pub fn grid_over(
    profile: &DeviceProfile,
    combos: &[(FlowSpec, FlowSpec)],
    cfg: &GridConfig,
) -> Vec<GridCell> {
    let threads = cfg.threads.max(1);
    let results: Vec<RefCell<Option<GridCell>>> =
        combos.iter().map(|_| RefCell::new(None)).collect();
    // RefCell is not Sync; use a simple index-striped split instead.
    let mut out: Vec<Option<GridCell>> = vec![None; combos.len()];
    std::thread::scope(|scope| {
        let chunks: Vec<(usize, &mut [Option<GridCell>])> = {
            let mut v = Vec::new();
            let mut rest: &mut [Option<GridCell>] = &mut out;
            let per = combos.len().div_ceil(threads);
            let mut start = 0;
            while !rest.is_empty() {
                let take = per.min(rest.len());
                let (head, tail) = rest.split_at_mut(take);
                v.push((start, head));
                start += take;
                rest = tail;
            }
            v
        };
        for (start, chunk) in chunks {
            let pair_cfg = cfg.pair.clone();
            scope.spawn(move || {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    let (a, b) = combos[start + i];
                    let mut c = pair_cfg.clone();
                    c.seed = pair_cfg.seed.wrapping_add((start + i) as u64);
                    let outcome = measure_pair(profile, a, b, &c);
                    *slot = Some(GridCell { a, b, outcome });
                }
            });
        }
    });
    drop(results);
    out.into_iter().map(|c| c.expect("cell computed")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> PairConfig {
        PairConfig {
            warmup: SimDuration::from_micros(60),
            window: SimDuration::from_micros(150),
            seed: 42,
            depth: 32,
            fault_plan: None,
        }
    }

    #[test]
    fn small_writes_lose_half_against_reads() {
        // Fig. 4 blue box, first half: small competing writes lose > 50 %.
        let out = measure_pair(
            &DeviceProfile::connectx4(),
            FlowSpec::client(Opcode::Write, 64, 1),
            FlowSpec::client(Opcode::Read, 512, 1),
            &quick(),
        );
        assert!(
            out.reduction_a() > 0.35,
            "small write should lose heavily: reduction {}",
            out.reduction_a()
        );
        assert!(
            out.reduction_b() < 0.25,
            "the read flow should be largely unaffected: {}",
            out.reduction_b()
        );
    }

    #[test]
    fn big_writes_crush_reads() {
        // Fig. 4 blue box, second half: once writes reach ~512 B they win
        // and reads drop 30–80 %.
        let out = measure_pair(
            &DeviceProfile::connectx4(),
            FlowSpec::client(Opcode::Read, 512, 1),
            FlowSpec::client(Opcode::Write, 2048, 1),
            &quick(),
        );
        assert!(
            out.reduction_a() > 0.3,
            "reads should drop at least 30 %: {}",
            out.reduction_a()
        );
        assert!(
            out.reduction_b() < 0.3,
            "big writes should mostly keep their bandwidth: {}",
            out.reduction_b()
        );
    }

    #[test]
    fn write_contention_crossover_is_non_monotonic() {
        // Key Finding 1: the winner flips with the write size.
        let small = measure_pair(
            &DeviceProfile::connectx4(),
            FlowSpec::client(Opcode::Read, 512, 1),
            FlowSpec::client(Opcode::Write, 64, 1),
            &quick(),
        );
        let big = measure_pair(
            &DeviceProfile::connectx4(),
            FlowSpec::client(Opcode::Read, 512, 1),
            FlowSpec::client(Opcode::Write, 2048, 1),
            &quick(),
        );
        assert!(
            big.reduction_a() > small.reduction_a() + 0.15,
            "read loss must grow sharply past the write-size crossover: small {} big {}",
            small.reduction_a(),
            big.reduction_a()
        );
    }

    #[test]
    fn small_write_pairs_show_abnormal_increment() {
        // Key Finding 2: two small-write flows activate the NoC lane and
        // their combined throughput exceeds 200 % of a solo flow.
        let out = measure_pair(
            &DeviceProfile::connectx4(),
            FlowSpec::client(Opcode::Write, 64, 1),
            FlowSpec::client(Opcode::Write, 64, 1),
            &quick(),
        );
        assert!(
            out.total_ratio() > 2.0,
            "combined small-write throughput should exceed 200 %: {}",
            out.total_ratio()
        );
    }

    #[test]
    fn tx_arbiter_beats_rx_arbiter() {
        // Key Finding 3 / Fig. 4 yellow box: a write flow and a reverse
        // read flow with identical parameters behave differently against
        // the same competing write traffic, because reverse-read data
        // leaves the client via the lower-priority Rx arbiter.
        let cfg = quick();
        let against_write = FlowSpec::client(Opcode::Write, 2048, 2);
        let write_victim = measure_pair(
            &DeviceProfile::connectx4(),
            FlowSpec::client(Opcode::Write, 2048, 2),
            against_write,
            &cfg,
        );
        let reverse_victim = measure_pair(
            &DeviceProfile::connectx4(),
            FlowSpec::reverse(Opcode::Read, 2048, 2),
            against_write,
            &cfg,
        );
        assert!(
            reverse_victim.reduction_a() > write_victim.reduction_a() + 0.1,
            "reverse reads must suffer more than symmetric writes: {} vs {}",
            reverse_victim.reduction_a(),
            write_victim.reduction_a()
        );
    }

    #[test]
    fn atomics_follow_the_write_trend() {
        // Fig. 4 orange box: atomics show a similar competition pattern.
        let out = measure_pair(
            &DeviceProfile::connectx4(),
            FlowSpec::client(Opcode::AtomicFetchAdd, 8, 1),
            FlowSpec::client(Opcode::Write, 2048, 1),
            &quick(),
        );
        assert!(
            out.reduction_a() > 0.2,
            "atomics should lose against bulk writes: {}",
            out.reduction_a()
        );
    }

    #[test]
    fn grid_runs_in_parallel_and_is_deterministic() {
        let profile = DeviceProfile::connectx4();
        let combos = vec![
            (
                FlowSpec::client(Opcode::Read, 512, 1),
                FlowSpec::client(Opcode::Write, 64, 1),
            ),
            (
                FlowSpec::client(Opcode::Write, 64, 1),
                FlowSpec::client(Opcode::Write, 64, 1),
            ),
        ];
        let cfg = GridConfig {
            pair: quick(),
            threads: 2,
            ..GridConfig::default()
        };
        let run1 = grid_over(&profile, &combos, &cfg);
        let run2 = grid_over(&profile, &combos, &cfg);
        assert_eq!(run1.len(), 2);
        for (a, b) in run1.iter().zip(&run2) {
            assert_eq!(a.outcome.duo_a_bps.to_bits(), b.outcome.duo_a_bps.to_bits());
        }
    }
}
