//! §V — covert-channel Ragnar attacks.
//!
//! Three channels at increasing granularity (Table V):
//!
//! * [`priority`] — Grain-I/II: the sender modulates its flow's message
//!   size; the receiver watches its own bandwidth (Fig. 9). ~1 bps, 0 %
//!   error.
//! * [`inter_mr`] — Grain-III: the sender encodes bits by accessing the
//!   same vs. different MRs; the receiver measures ULI (Fig. 10/11).
//!   Tens of Kbps.
//! * [`intra_mr`] — Grain-IV: the sender switches address *offsets*
//!   inside one MR; maximal stealthiness since nothing but the offset
//!   changes.
//!
//! The shared machinery lives here: bit schedules, the modulating sender,
//! window decoding, error rates and the effective-bandwidth formula.

pub mod capacity;
pub mod inter_mr;
pub mod intra_mr;
pub mod priority;
mod runner;
pub mod sync;

pub use runner::{UliChannelConfig, UliRun};

use crate::measure::AddressPattern;
use rdma_verbs::{App, Cqe, Ctx, DeviceKind, HostId, Opcode, QpHandle, VerbsError, WorkRequest};
use sim_core::{SimDuration, SimTime};

/// Binary entropy `H₂(p)` in bits.
///
/// # Examples
///
/// ```
/// let h = ragnar_core::covert::binary_entropy(0.5);
/// assert!((h - 1.0).abs() < 1e-12);
/// assert_eq!(ragnar_core::covert::binary_entropy(0.0), 0.0);
/// ```
pub fn binary_entropy(p: f64) -> f64 {
    if p <= 0.0 || p >= 1.0 {
        return 0.0;
    }
    -(p * p.log2() + (1.0 - p) * (1.0 - p).log2())
}

/// Deterministic pseudo-random payload bits for channel evaluation.
pub fn random_bits(n: usize, seed: u64) -> Vec<bool> {
    let mut rng = sim_core::SimRng::derive(seed, "covert-bits");
    (0..n).map(|_| rng.chance(0.5)).collect()
}

/// The 16-bit pattern transmitted in Fig. 9.
pub const FIG9_BITS: &str = "1101111101010010";

/// Parses a bit string like `"1101"`.
///
/// # Panics
///
/// Panics on characters other than `0`/`1`.
pub fn parse_bits(s: &str) -> Vec<bool> {
    s.chars()
        .map(|c| match c {
            '0' => false,
            '1' => true,
            other => panic!("invalid bit character {other:?}"),
        })
        .collect()
}

/// Evaluation of one covert-channel run (one column of Table V).
#[derive(Debug, Clone)]
pub struct ChannelReport {
    /// Device the channel ran on.
    pub device: DeviceKind,
    /// Bits transmitted (excluding preamble).
    pub bits_sent: usize,
    /// Bits decoded incorrectly.
    pub bit_errors: usize,
    /// Raw channel bandwidth in bits per second (1 / bit period).
    pub raw_bandwidth_bps: f64,
    /// Per-bit receiver levels (the observable Y; for plotting).
    pub levels: Vec<f64>,
    /// Decoded bits.
    pub decoded: Vec<bool>,
}

impl ChannelReport {
    /// Bit error rate.
    pub fn error_rate(&self) -> f64 {
        if self.bits_sent == 0 {
            0.0
        } else {
            self.bit_errors as f64 / self.bits_sent as f64
        }
    }

    /// Effective bandwidth: raw bandwidth times the binary-symmetric
    /// channel capacity `1 − H₂(p)` — this reproduces Table V's
    /// "Effective Bandwidth" row (e.g. CX-4 inter-MR: 31.8 Kbps at
    /// 5.92 % error → 21.5 Kbps).
    pub fn effective_bandwidth_bps(&self) -> f64 {
        self.raw_bandwidth_bps * (1.0 - binary_entropy(self.error_rate()))
    }
}

/// Threshold-decodes per-bit levels: level above threshold ⇒ `high_is_one`
/// decides the bit. The threshold is the midpoint of the 20th/80th level
/// percentiles, which tolerates skewed bit mixes.
pub fn threshold_decode(levels: &[f64], high_is_one: bool) -> Vec<bool> {
    assert!(!levels.is_empty(), "no levels to decode");
    let mut sorted = levels.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN level"));
    let lo = sim_core::percentile_sorted(&sorted, 0.2);
    let hi = sim_core::percentile_sorted(&sorted, 0.8);
    let threshold = (lo + hi) / 2.0;
    levels
        .iter()
        .map(|&v| (v > threshold) == high_is_one)
        .collect()
}

/// Counts decode errors against the sent bits.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn count_errors(sent: &[bool], decoded: &[bool]) -> usize {
    assert_eq!(sent.len(), decoded.len(), "bit count mismatch");
    sent.iter().zip(decoded).filter(|(a, b)| a != b).count()
}

/// Folds `(time, value)` samples over a repeating period into `buckets`
/// phase bins — the presentation of Fig. 10/11, where the X axis is one
/// folded period of two covert bits.
///
/// # Panics
///
/// Panics if `buckets` is zero or `period` is zero.
pub fn fold_by_phase(
    samples: &[(SimTime, f64)],
    start: SimTime,
    period: SimDuration,
    buckets: usize,
) -> Vec<f64> {
    assert!(buckets > 0 && !period.is_zero(), "degenerate folding");
    let mut sums = vec![0.0; buckets];
    let mut counts = vec![0usize; buckets];
    for &(t, v) in samples {
        if t < start {
            continue;
        }
        let phase = (t - start).as_picos() % period.as_picos();
        let b = (phase as u128 * buckets as u128 / period.as_picos() as u128) as usize;
        let b = b.min(buckets - 1);
        sums[b] += v;
        counts[b] += 1;
    }
    sums.iter()
        .zip(&counts)
        .map(|(&s, &c)| if c == 0 { f64::NAN } else { s / c as f64 })
        .collect()
}

/// How the sender expresses one covert bit.
#[derive(Debug, Clone)]
pub struct BitModes {
    /// Pattern + message length used for a `0` bit.
    pub zero: (AddressPattern, u64),
    /// Pattern + message length used for a `1` bit.
    pub one: (AddressPattern, u64),
}

/// The covert transmitter: a closed-loop flow whose address pattern and
/// message size switch at every bit boundary of the schedule.
pub struct ModulatingSender {
    qps: Vec<QpHandle>,
    opcode: Opcode,
    modes: BitModes,
    bits: Vec<bool>,
    bit_period: SimDuration,
    start: SimTime,
    current: usize,
    seq: u64,
    local_addr: u64,
    done: bool,
}

impl ModulatingSender {
    /// Creates the sender; transmission begins at `start` (it idles
    /// before that).
    ///
    /// # Panics
    ///
    /// Panics if `qps` or `bits` is empty, or the opcode is not
    /// Read/Write.
    pub fn new(
        qps: Vec<QpHandle>,
        opcode: Opcode,
        modes: BitModes,
        bits: Vec<bool>,
        bit_period: SimDuration,
        start: SimTime,
    ) -> Self {
        assert!(
            !qps.is_empty() && !bits.is_empty(),
            "sender needs QPs and bits"
        );
        assert!(
            matches!(opcode, Opcode::Read | Opcode::Write),
            "covert sender uses reads or writes"
        );
        ModulatingSender {
            qps,
            opcode,
            modes,
            bits,
            bit_period,
            start,
            current: 0,
            seq: 0,
            local_addr: 0x4000,
            done: false,
        }
    }

    fn mode(&self) -> (AddressPattern, u64) {
        let idx = self.current.min(self.bits.len() - 1);
        if self.bits[idx] {
            self.modes.one.clone()
        } else {
            self.modes.zero.clone()
        }
    }

    fn fill(&mut self, ctx: &mut Ctx<'_>) {
        if self.done || ctx.now() < self.start {
            return;
        }
        let qps = self.qps.clone();
        for qp in qps {
            loop {
                let (pattern, len) = self.mode();
                let t = pattern.target(self.seq);
                self.seq += 1;
                let wr = match self.opcode {
                    Opcode::Read => {
                        WorkRequest::read(self.seq, self.local_addr, t.addr, t.key, len)
                    }
                    _ => WorkRequest::write(self.seq, self.local_addr, t.addr, t.key, len),
                };
                match ctx.post_send(qp, wr) {
                    Ok(()) => {}
                    Err(VerbsError::SendQueueFull) | Err(VerbsError::QpInError) => {
                        self.seq -= 1;
                        break;
                    }
                    Err(e) => panic!("unexpected post error: {e}"),
                }
            }
        }
    }
}

impl App for ModulatingSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Wake at the schedule start and at every bit boundary.
        let now = ctx.now();
        let delay = self.start.saturating_since(now);
        ctx.set_timer(delay, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.current = token as usize;
        if self.current >= self.bits.len() {
            self.done = true;
            return;
        }
        self.fill(ctx);
        ctx.set_timer(self.bit_period, token + 1);
    }

    fn on_cqe(&mut self, ctx: &mut Ctx<'_>, _host: HostId, _cqe: Cqe) {
        self.fill(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_properties() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert!((binary_entropy(0.5) - 1.0).abs() < 1e-12);
        // Table V check: CX-4 inter-MR, 31.8 Kbps at 5.92 % → 21.5 Kbps.
        let eff = 31.8e3 * (1.0 - binary_entropy(0.0592));
        assert!((eff - 21.5e3).abs() < 0.4e3, "effective BW formula: {eff}");
    }

    #[test]
    fn bit_parsing_round_trip() {
        let bits = parse_bits(FIG9_BITS);
        assert_eq!(bits.len(), 16);
        assert!(bits[0] && bits[1] && !bits[2]);
    }

    #[test]
    fn threshold_decoding() {
        let levels = vec![1.0, 9.0, 1.2, 8.8, 0.9, 9.1];
        let decoded = threshold_decode(&levels, true);
        assert_eq!(decoded, vec![false, true, false, true, false, true]);
        let inverted = threshold_decode(&levels, false);
        assert_eq!(inverted, vec![true, false, true, false, true, false]);
    }

    #[test]
    fn error_counting() {
        let sent = vec![true, false, true];
        let decoded = vec![true, true, true];
        assert_eq!(count_errors(&sent, &decoded), 1);
    }

    #[test]
    fn folding_reconstructs_square_wave() {
        // Samples alternate low/high every 100 ns with period 200 ns.
        let mut samples = Vec::new();
        for i in 0..400u64 {
            let t = SimTime::from_nanos(i * 10);
            let phase = (i * 10) % 200;
            let v = if phase < 100 { 1.0 } else { 5.0 };
            samples.push((t, v));
        }
        let folded = fold_by_phase(&samples, SimTime::ZERO, SimDuration::from_nanos(200), 10);
        assert!(folded[..5].iter().all(|&v| (v - 1.0).abs() < 1e-9));
        assert!(folded[5..].iter().all(|&v| (v - 5.0).abs() < 1e-9));
    }

    #[test]
    fn random_bits_deterministic() {
        assert_eq!(random_bits(64, 1), random_bits(64, 1));
        assert_ne!(random_bits(64, 1), random_bits(64, 2));
    }
}
