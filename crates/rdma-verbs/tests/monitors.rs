//! Online invariant monitors: a clean run under monitors is
//! bit-identical to an unmonitored run (and never raises), while a
//! planted ledger/state bug is caught and handled per the configured
//! violation policy.

use rdma_verbs::{
    AccessFlags, App, ConnectOptions, Ctx, DeviceProfile, HostId, MrHandle, QpHandle, QpNum,
    Simulation, WorkRequest,
};
use sim_core::{MonitorConfig, SimDuration, SimTime, ViolationPolicy};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Ambient monitor config is process-global and read at `Simulation`
/// construction; tests serialize on this lock and restore `None` on
/// drop.
static AMBIENT: Mutex<()> = Mutex::new(());

struct AmbientGuard<'a>(#[allow(dead_code)] MutexGuard<'a, ()>);

impl<'a> AmbientGuard<'a> {
    fn install(cfg: Option<MonitorConfig>) -> AmbientGuard<'a> {
        let g = AMBIENT.lock().unwrap_or_else(PoisonError::into_inner);
        sim_core::set_ambient_monitors(cfg);
        AmbientGuard(g)
    }
}

impl Drop for AmbientGuard<'_> {
    fn drop(&mut self) {
        sim_core::set_ambient_monitors(None);
    }
}

fn cfg(policy: ViolationPolicy, every_events: u64) -> MonitorConfig {
    MonitorConfig {
        policy,
        every_events,
    }
}

/// Small two-host writer: a handful of timed write bursts.
struct Writer {
    qp: QpHandle,
    mr: MrHandle,
    rounds: u32,
}

impl App for Writer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_nanos(100), 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let wr_id = u64::from(self.rounds);
        let _ = ctx.post_send(
            self.qp,
            WorkRequest::write(wr_id, 0x10_0000, self.mr.addr(0), self.mr.key, 256),
        );
        if self.rounds > 0 {
            self.rounds -= 1;
            ctx.set_timer(SimDuration::from_nanos(800), 0);
        }
    }
}

fn build(seed: u64) -> (Simulation, HostId, QpNum) {
    let mut sim = Simulation::new(seed);
    let a = sim.add_host(DeviceProfile::connectx5());
    let b = sim.add_host(DeviceProfile::connectx5());
    let pd_a = sim.alloc_pd(a);
    let pd_b = sim.alloc_pd(b);
    let mr_b = sim.register_mr(b, pd_b, 1024 * 1024, AccessFlags::remote_all());
    let (qa, _qb) = sim.connect(a, pd_a, b, pd_b, ConnectOptions::default());
    let app = sim.add_app(Box::new(Writer {
        qp: qa,
        mr: mr_b,
        rounds: 12,
    }));
    sim.own_qp(app, qa);
    (sim, a, qa.qp)
}

/// A clean workload under the strictest policy: no violation fires at
/// any cadence, and the monitored digests match the unmonitored run
/// exactly (monitors observe, never perturb).
#[test]
fn clean_run_under_monitors_is_silent_and_bit_identical() {
    let horizon = SimTime::from_micros(200);
    let baseline = {
        let _guard = AmbientGuard::install(None);
        let (mut sim, _, _) = build(5);
        sim.run_until(horizon);
        (sim.events_processed(), sim.order_digest())
    };
    for every in [1u64, 7, 1024] {
        let _guard = AmbientGuard::install(Some(cfg(ViolationPolicy::AbortRun, every)));
        let (mut sim, _, _) = build(5);
        sim.run_until(horizon);
        assert_eq!(
            (sim.events_processed(), sim.order_digest()),
            baseline,
            "monitors perturbed the run at cadence {every}"
        );
        assert_eq!(sim.monitor_violations(), Some(0));
    }
}

/// Under the `Log` policy a planted arena-ledger skew is counted (once
/// per cadence check) and the run completes.
#[test]
fn planted_arena_skew_is_logged() {
    let _guard = AmbientGuard::install(Some(cfg(ViolationPolicy::Log, 8)));
    let (mut sim, _, _) = build(11);
    sim.debug_skew_arena_ledger();
    sim.run_until(SimTime::from_micros(200));
    assert!(
        sim.monitor_violations().unwrap() > 0,
        "ledger skew went unnoticed"
    );
}

/// Under `FailCell` the same skew panics with the `[monitor]` prefix
/// the harness maps to a per-cell failure.
#[test]
fn planted_arena_skew_fails_the_cell() {
    let _guard = AmbientGuard::install(Some(cfg(ViolationPolicy::FailCell, 8)));
    let (mut sim, _, _) = build(13);
    sim.debug_skew_arena_ledger();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.run_until(SimTime::from_micros(200));
    }))
    .expect_err("monitor should have tripped");
    let msg = sim_core::panic_payload_message(err.as_ref());
    assert!(msg.starts_with("[monitor] "), "got: {msg}");
    assert!(msg.contains("arena ledger skew"), "got: {msg}");
}

/// Under `AbortRun` a phantom fabric delivery panics with the
/// `[monitor-abort]` prefix the harness maps to a whole-sweep abort.
#[test]
fn planted_fabric_skew_aborts_the_run() {
    let _guard = AmbientGuard::install(Some(cfg(ViolationPolicy::AbortRun, 4)));
    let (mut sim, _, _) = build(17);
    sim.debug_skew_fabric_ledger();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.run_until(SimTime::from_micros(200));
    }))
    .expect_err("monitor should have tripped");
    let msg = sim_core::panic_payload_message(err.as_ref());
    assert!(msg.starts_with("[monitor-abort] "), "got: {msg}");
    assert!(msg.contains("packet conservation"), "got: {msg}");
}

/// An illegal QP state (outstanding past its bound) is caught by the
/// QP-legality monitor.
#[test]
fn planted_illegal_qp_state_is_caught() {
    let _guard = AmbientGuard::install(Some(cfg(ViolationPolicy::Log, 4)));
    let (mut sim, host, qp) = build(19);
    sim.run_until(SimTime::from_micros(5));
    sim.debug_skew_qp(host, qp);
    sim.run_until(SimTime::from_micros(200));
    assert!(
        sim.monitor_violations().unwrap() > 0,
        "illegal QP state went unnoticed"
    );
}

/// Without ambient monitors there is no monitor state at all.
#[test]
fn no_monitors_without_ambient_config() {
    let _guard = AmbientGuard::install(None);
    let (mut sim, _, _) = build(23);
    sim.run_until(SimTime::from_micros(50));
    assert_eq!(sim.monitor_violations(), None);
}
