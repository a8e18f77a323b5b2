//! The parallel sweep executor.
//!
//! Configs are distributed round-robin over per-worker deques; workers
//! drain their own queue first and then steal from siblings (crossbeam
//! deque topology), so a straggler config never idles the rest of the
//! pool. The deques are seeded once and never refilled, so a worker
//! that finds every deque empty is done and exits. Determinism is
//! preserved at any thread count because each config's seed is derived
//! from the config's *content* ([`sim_core::derive_seed`] over its
//! canonical encoding), never from scheduling order.
//!
//! The executor is also the harness's supervision layer:
//!
//! * A panicking config is caught, recorded as a failure, and the sweep
//!   continues — one bad combination in a 6000-cell grid costs one
//!   cell, not the run. Panic-hook suppression is scoped to the cell
//!   threads via [`sim_core::supervised_section`]; panics on threads
//!   nobody supervises stay loud.
//! * With [`ExecOptions::cell_timeout`] set, each attempt runs on its
//!   own watchdog-monitored thread; an attempt that overruns its budget
//!   is declared hung and the worker moves on (the hung thread is
//!   joined at sweep end, so process exit waits for it, but scheduling
//!   does not).
//! * With [`ExecOptions::retries`] > 0, a failed or hung attempt is
//!   retried with the *same* seed after a seed-deterministic
//!   exponential backoff ([`retry_backoff`]); a cell that fails every
//!   attempt is quarantined as a repeat offender and its record carries
//!   a ready-to-paste minimal-repro command.
//! * A panic message starting with `[monitor-abort]` (the
//!   [`sim_core::ViolationPolicy::AbortRun`] spelling) trips a
//!   sweep-wide abort: cells not yet started are recorded as
//!   [`Outcome::Skipped`], already-running cells finish, and everything
//!   completed so far is salvaged — per-cell results are persisted as
//!   they finish, so the store and manifest stay crash-consistent.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Mutex, OnceLock};
use std::thread::{Scope, Thread};
use std::time::{Duration, Instant};

use crossbeam::deque::{Steal, Stealer, Worker};
use ragnar_telemetry::{
    ActorId, ArgValue, Event, EventKind, Session, SessionReport, Target, TargetSet,
};

use crate::cache::ResultStore;
use crate::experiment::{Artifact, Config, Experiment, Outcome, RunRecord};
use crate::hash;

/// Events buffered per traced cell before the ring starts evicting the
/// oldest (evictions are counted and reported, never silent).
pub const TRACE_RING_CAPACITY: usize = 1 << 20;

/// How long a sweep must run before the progress reporter speaks up —
/// quick sweeps finish silently.
const PROGRESS_AFTER: Duration = Duration::from_secs(2);

/// Cadence of the progress line once the reporter is engaged.
const PROGRESS_PERIOD: Duration = Duration::from_millis(500);

/// What the executor should observe about each cell. Telemetry never
/// enters configs or cache keys — it is an observer, not an input.
#[derive(Debug, Clone)]
pub struct TelemetrySpec {
    /// Buffer structured trace events per cell.
    pub trace: bool,
    /// Which layers' events to accept when tracing.
    pub filter: TargetSet,
    /// Collect a per-cell metrics report.
    pub metrics: bool,
}

impl Default for TelemetrySpec {
    fn default() -> Self {
        TelemetrySpec {
            trace: false,
            filter: TargetSet::ALL,
            metrics: false,
        }
    }
}

impl TelemetrySpec {
    /// Whether any observation is requested.
    pub fn enabled(&self) -> bool {
        self.trace || self.metrics
    }

    fn session(&self) -> Session {
        if self.trace {
            Session::ring(self.filter, TRACE_RING_CAPACITY, self.metrics)
        } else {
            Session::metrics_only()
        }
    }
}

/// Executor tuning knobs.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker thread count (1 = run inline on the caller).
    pub threads: usize,
    /// Recompute every config even when a cache entry matches.
    pub force: bool,
    /// Per-cell observation. When enabled, cache reads are bypassed so
    /// every cell actually executes under its session (telemetry can
    /// only observe work that happens); cache writes still refresh the
    /// store, and keys are unchanged — artifacts are telemetry-invariant.
    pub telemetry: TelemetrySpec,
    /// Wall-clock watchdog per attempt. `None` (default) trusts cells
    /// to terminate; `Some(budget)` runs each attempt on its own thread
    /// and declares it hung past the budget.
    pub cell_timeout: Option<Duration>,
    /// Extra attempts after a failed or hung first attempt (default 0).
    /// Retries reuse the cell's seed — a deterministic failure fails
    /// every rung of the ladder and ends quarantined.
    pub retries: u32,
    /// Skip cache reads (writes still happen). Set by `--monitors`, whose
    /// whole point is that the cell actually executes; keys are
    /// unchanged, so the refreshed entries stay interchangeable with
    /// unmonitored ones.
    pub bypass_cache_reads: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            threads: default_threads(),
            force: false,
            telemetry: TelemetrySpec::default(),
            cell_timeout: None,
            retries: 0,
            bypass_cache_reads: false,
        }
    }
}

/// The machine's available parallelism (≥ 1).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Derives the seed for one config of one experiment.
///
/// Depends only on `(master_seed, experiment name, config content)`, so
/// every schedule — any thread count, any steal pattern, a resumed
/// partial sweep — hands the config the same seed.
pub fn config_seed(master_seed: u64, experiment: &str, config: &Config) -> u64 {
    sim_core::derive_seed(master_seed, &format!("{experiment}/{}", config.canonical()))
}

/// The delay before retry `attempt` (1-based: the sleep after the
/// first failed attempt is `retry_backoff(seed, 1)`).
///
/// Exponential base (25 ms, doubling, capped at 1.6 s) plus a jitter in
/// `[0, base)` derived from the cell seed — a pure function of
/// `(cell_seed, attempt)`, so reschedules are reproducible run over run
/// while distinct cells still decorrelate.
pub fn retry_backoff(cell_seed: u64, attempt: u32) -> Duration {
    let base_ms = 25u64 << attempt.saturating_sub(1).min(6);
    let jitter_ms = sim_core::derive_seed(cell_seed, &format!("retry-jitter/{attempt}")) % base_ms;
    Duration::from_millis(base_ms + jitter_ms)
}

/// Sweep-wide abort latch: set by the first `[monitor-abort]` panic,
/// read by workers before starting each cell.
struct AbortState(Mutex<Option<String>>);

impl AbortState {
    fn reason(&self) -> Option<String> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    fn trip(&self, reason: &str) {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get_or_insert_with(|| reason.to_string());
    }
}

/// Everything a worker needs to run cells; borrowed for the sweep.
struct SweepCtx<'env> {
    exp: &'env dyn Experiment,
    configs: &'env [Config],
    master_seed: u64,
    store: Option<&'env ResultStore>,
    opts: &'env ExecOptions,
    slots: &'env [Mutex<Option<RunRecord>>],
    completed: &'env AtomicUsize,
    /// Telemetry events accepted across finished cells, for the
    /// progress reporter's events/s figure.
    events: &'env AtomicU64,
    abort: &'env AbortState,
    /// The progress reporter, woken by the cell that completes the sweep
    /// so the sweep never waits out a reporter period.
    reporter: OnceLock<Thread>,
}

/// How one attempt of one cell ended.
enum AttemptEnd {
    /// The attempt ran to completion (success, error or caught panic).
    Finished(
        Result<Result<Artifact, String>, Box<dyn std::any::Any + Send>>,
        Option<SessionReport>,
    ),
    /// The attempt overran the watchdog budget; its thread is still
    /// running and will be joined at sweep end. Carries whatever the
    /// cell's session had observed by the time the watchdog fired — the
    /// salvage path: partial metrics beat no metrics when diagnosing
    /// why a cell hung.
    Hung(Option<SessionReport>),
    /// The attempt thread vanished without reporting (its channel
    /// disconnected) — something outside `catch_unwind`'s reach died.
    Died(Option<SessionReport>),
}

/// Runs one attempt, inline or under the watchdog.
///
/// The telemetry session is owned by the *coordinator* side and only
/// its handles cross into the attempt thread: when the watchdog fires,
/// the coordinator can still harvest everything the cell recorded up to
/// that point (the ring and registry are shared behind locks, so a
/// still-running hung thread cannot corrupt the snapshot).
fn run_attempt<'scope, 'env: 'scope>(
    exp: &'env dyn Experiment,
    config: &'env Config,
    seed: u64,
    opts: &'env ExecOptions,
    scope: &'scope Scope<'scope, 'env>,
) -> AttemptEnd {
    let session = opts.telemetry.enabled().then(|| opts.telemetry.session());
    let handles = session.as_ref().map(|s| (s.tracer(), s.metrics()));
    let body = move || {
        // Mark the thread supervised so the gate hook stays quiet: the
        // executor reports caught panics itself, with cell context.
        let _supervised = sim_core::supervised_section();
        let _guard = handles.map(|(tracer, metrics)| ragnar_telemetry::install(tracer, metrics));
        panic::catch_unwind(AssertUnwindSafe(|| exp.run(config, seed)))
    };
    match opts.cell_timeout {
        None => AttemptEnd::Finished(body(), session.map(Session::finish)),
        Some(budget) => {
            let (tx, rx) = mpsc::channel();
            scope.spawn(move || {
                // The receiver may be long gone (watchdog fired); a dead
                // channel just means the result is discarded.
                let _ = tx.send(body());
            });
            match rx.recv_timeout(budget) {
                Ok(result) => AttemptEnd::Finished(result, session.map(Session::finish)),
                Err(RecvTimeoutError::Timeout) => AttemptEnd::Hung(session.map(Session::finish)),
                Err(RecvTimeoutError::Disconnected) => {
                    AttemptEnd::Died(session.map(Session::finish))
                }
            }
        }
    }
}

/// Appends the executor's supervision verdicts to a cell's trace as
/// synthesized `Target::Harness` instants — one `retry` per extra
/// attempt, a `watchdog_timeout` when every attempt overran the budget,
/// and a `quarantine` marker for repeat offenders. All fields are
/// derived from deterministic per-cell state (attempt counts and
/// outcomes), never from wall-clock, so traces stay byte-identical at
/// any thread count.
fn append_supervisor_events(
    telemetry: &mut SessionReport,
    outcome: &Outcome,
    attempts: u32,
    quarantined: bool,
) {
    let mut push = |name: &'static str, args: Vec<(&'static str, ArgValue)>| {
        telemetry.events.push(Event {
            target: Target::Harness,
            name,
            actor: ActorId::GLOBAL,
            ts_ps: 0,
            kind: EventKind::Instant,
            args,
        });
        telemetry.total_events += 1;
    };
    for attempt in 2..=attempts {
        push(
            "retry",
            vec![("attempt", ArgValue::U64(u64::from(attempt)))],
        );
    }
    if let Outcome::TimedOut { timeout_ms } = outcome {
        push(
            "watchdog_timeout",
            vec![
                ("timeout_ms", ArgValue::U64(*timeout_ms)),
                ("attempts", ArgValue::U64(u64::from(attempts))),
            ],
        );
    }
    if quarantined {
        push(
            "quarantine",
            vec![("attempts", ArgValue::U64(u64::from(attempts)))],
        );
    }
}

/// Runs one cell end to end: cache probe, attempt ladder, record.
fn run_cell<'scope, 'env: 'scope>(
    ctx: &SweepCtx<'env>,
    index: usize,
    scope: &'scope Scope<'scope, 'env>,
) {
    let config = &ctx.configs[index];
    let exp = ctx.exp;
    let opts = ctx.opts;
    let seed = config_seed(ctx.master_seed, exp.name(), config);
    let key = hash::cache_key(
        exp.name(),
        &config.canonical(),
        seed,
        exp.version(),
        sim_core::ENGINE_VERSION,
        crate::cache::FORMAT_VERSION,
    );
    let t0 = Instant::now();

    let finish = |record: RunRecord| {
        *ctx.slots[index].lock().expect("slot poisoned") = Some(record);
        if ctx.completed.fetch_add(1, Ordering::Relaxed) + 1 == ctx.configs.len() {
            if let Some(reporter) = ctx.reporter.get() {
                reporter.unpark();
            }
        }
    };
    let record =
        |outcome: Outcome, from_cache: bool, telemetry: Option<SessionReport>, attempts: u32| {
            let failed = outcome.is_failure();
            RunRecord {
                index,
                config: config.clone(),
                seed,
                cache_key: key.clone(),
                outcome,
                from_cache,
                elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
                telemetry,
                attempts,
                quarantined: failed && attempts >= 2,
                repro: (failed && attempts > 0).then(|| {
                    format!(
                        "{} --seed {} --force --only \"{}\"",
                        exp.name(),
                        ctx.master_seed,
                        config.label()
                    )
                }),
            }
        };

    // A tripped abort skips everything not yet started; cells already
    // in flight on other workers run to completion and are kept.
    if let Some(reason) = ctx.abort.reason() {
        finish(record(Outcome::Skipped { reason }, false, None, 0));
        return;
    }

    if !opts.force && !opts.telemetry.enabled() && !opts.bypass_cache_reads {
        if let Some(hit) = ctx.store.and_then(|s| s.load(&key)) {
            finish(record(Outcome::Done(hit.artifact), true, None, 0));
            return;
        }
    }

    let max_attempts = opts.retries.saturating_add(1);
    let mut attempt = 0u32;
    let (outcome, telemetry) = loop {
        attempt += 1;
        match run_attempt(exp, config, seed, opts, scope) {
            AttemptEnd::Finished(Ok(Ok(artifact)), telemetry) => {
                if let Some(s) = ctx.store {
                    // A failed persist degrades caching, not correctness.
                    let _ = s.store(
                        &key,
                        config,
                        seed,
                        exp.version(),
                        &artifact,
                        t0.elapsed().as_secs_f64() * 1e3,
                    );
                }
                break (Outcome::Done(artifact), telemetry);
            }
            AttemptEnd::Finished(Ok(Err(message)), telemetry) => {
                if attempt >= max_attempts {
                    break (
                        Outcome::Failed {
                            message,
                            panicked: false,
                        },
                        telemetry,
                    );
                }
            }
            AttemptEnd::Finished(Err(payload), telemetry) => {
                let message = sim_core::panic_payload_message(payload.as_ref());
                let abort = message.starts_with("[monitor-abort]");
                if abort {
                    ctx.abort.trip(&message);
                }
                // An abort verdict is a judgement about the sweep, not a
                // flaky cell: never retried.
                if abort || attempt >= max_attempts {
                    break (
                        Outcome::Failed {
                            message,
                            panicked: true,
                        },
                        telemetry,
                    );
                }
            }
            AttemptEnd::Hung(telemetry) => {
                if attempt >= max_attempts {
                    let timeout_ms = opts.cell_timeout.map(|d| d.as_millis() as u64).unwrap_or(0);
                    // Salvage whatever the hung attempt observed: its
                    // partial session report rides on the record (and
                    // into a sidecar tagged incomplete) instead of
                    // vanishing with the stuck thread.
                    break (Outcome::TimedOut { timeout_ms }, telemetry);
                }
            }
            AttemptEnd::Died(telemetry) => {
                break (
                    Outcome::Failed {
                        message: "attempt thread died before reporting a result".to_string(),
                        panicked: true,
                    },
                    telemetry,
                );
            }
        }
        std::thread::sleep(retry_backoff(seed, attempt));
    };
    let mut telemetry = telemetry;
    if opts.telemetry.trace {
        let quarantined = outcome.is_failure() && attempt >= 2;
        if let Some(t) = telemetry.as_mut() {
            append_supervisor_events(t, &outcome, attempt, quarantined);
        }
    }
    if let Some(t) = &telemetry {
        ctx.events.fetch_add(t.total_events, Ordering::Relaxed);
    }
    finish(record(outcome, false, telemetry, attempt));
}

/// The next cell for `worker`: its own deque first, then the siblings'
/// in index order. `None` once every deque is empty — nothing is ever
/// pushed after seeding, so an empty scan means this worker is done.
fn next_task(worker: &Worker<usize>, stealers: &[Stealer<usize>]) -> Option<usize> {
    loop {
        if let Some(index) = worker.pop() {
            return Some(index);
        }
        let mut retry = false;
        for stealer in stealers {
            match stealer.steal() {
                Steal::Success(index) => return Some(index),
                Steal::Retry => retry = true,
                Steal::Empty => {}
            }
        }
        if !retry {
            return None;
        }
    }
}

/// Runs every config of `exp`, in parallel, through the cache.
///
/// Records are returned in `configs` order regardless of scheduling.
/// When `store` is `Some`, finished cells are persisted and matching
/// cells are served from disk (unless `opts.force`).
pub fn execute(
    exp: &dyn Experiment,
    configs: &[Config],
    master_seed: u64,
    store: Option<&ResultStore>,
    opts: &ExecOptions,
) -> Vec<RunRecord> {
    let slots: Vec<Mutex<Option<RunRecord>>> = configs.iter().map(|_| Mutex::new(None)).collect();
    let threads = opts.threads.clamp(1, configs.len().max(1));

    // Per-worker deques seeded round-robin, plus every sibling's stealer.
    let workers: Vec<Worker<usize>> = (0..threads).map(|_| Worker::new_fifo()).collect();
    let stealers: Vec<Stealer<usize>> = workers.iter().map(Worker::stealer).collect();
    for (i, _) in configs.iter().enumerate() {
        workers[i % threads].push(i);
    }

    // Panics inside `run` are part of normal sweep operation; the gate
    // hook silences them on exactly the supervised cell threads (see
    // `sim_core::supervise`) — unsupervised threads keep the loud
    // default, unlike the old globally-swallowing hook swap.
    sim_core::install_panic_gate();
    let completed = AtomicUsize::new(0);
    let events = AtomicU64::new(0);
    let abort = AbortState(Mutex::new(None));
    let ctx = SweepCtx {
        exp,
        configs,
        master_seed,
        store,
        opts,
        slots: &slots,
        completed: &completed,
        events: &events,
        abort: &abort,
        reporter: OnceLock::new(),
    };

    std::thread::scope(|scope| {
        // Progress reporter: silent for quick sweeps, then a periodic
        // stderr line (cells done, events/s, ETA) for long ones. It only
        // reads counters — progress is wall-clock and must never become
        // trace or artifact material. It parks between lines; the cell
        // that completes the sweep unparks it, so the scope's join never
        // waits out a reporter period.
        {
            let ctx = &ctx;
            let total = configs.len();
            let reporter = scope.spawn(move || {
                let started = Instant::now();
                loop {
                    let done = ctx.completed.load(Ordering::Relaxed);
                    if done >= total {
                        break;
                    }
                    let elapsed = started.elapsed();
                    if elapsed >= PROGRESS_AFTER && done > 0 {
                        let secs = elapsed.as_secs_f64();
                        let rate = done as f64 / secs;
                        let eta_s = (total - done) as f64 / rate;
                        // Trace-event throughput only exists with
                        // telemetry on; otherwise the line is cells+ETA.
                        let events = ctx.events.load(Ordering::Relaxed);
                        let rate_part = if events > 0 {
                            format!("{:.0} ev/s, ", events as f64 / secs)
                        } else {
                            String::new()
                        };
                        ragnar_telemetry::progress(format!(
                            "{}/{} cells ({rate_part}ETA {:.0}s)",
                            done, total, eta_s
                        ));
                    }
                    // Parks may wake spuriously; sleep out the period
                    // unless the sweep completes first.
                    let next = Instant::now() + PROGRESS_PERIOD;
                    while ctx.completed.load(Ordering::Relaxed) < total {
                        let now = Instant::now();
                        if now >= next {
                            break;
                        }
                        std::thread::park_timeout(next - now);
                    }
                }
            });
            // Set before any worker starts, so no completion can miss it.
            let _ = ctx.reporter.set(reporter.thread().clone());
        }
        for worker in &workers {
            let ctx = &ctx;
            let stealers = &stealers;
            scope.spawn(move || {
                while let Some(index) = next_task(worker, stealers) {
                    run_cell(ctx, index, scope);
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("every config produces a record")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::Cli;
    use crate::experiment::Artifact;
    use std::collections::HashMap;

    struct Parity;

    impl Experiment for Parity {
        fn name(&self) -> &'static str {
            "parity-unit"
        }
        fn params(&self, _cli: &Cli) -> Vec<Config> {
            (0..64u64).map(|i| Config::new().with("i", i)).collect()
        }
        fn run(&self, config: &Config, seed: u64) -> Result<Artifact, String> {
            let i = config.u64("i").expect("i");
            if i == 13 {
                panic!("unlucky combination");
            }
            if i == 21 {
                return Err("known-bad cell".to_string());
            }
            Ok(Artifact::text(format!("cell {i}\n")).with_metric("seed", seed))
        }
    }

    fn configs() -> Vec<Config> {
        Parity.params(&Cli::default())
    }

    #[test]
    fn records_in_order_with_isolated_failures() {
        let cfgs = configs();
        let records = execute(
            &Parity,
            &cfgs,
            1,
            None,
            &ExecOptions {
                threads: 8,
                ..Default::default()
            },
        );
        assert_eq!(records.len(), 64);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.config.u64("i"), Some(i as u64));
        }
        match &records[13].outcome {
            Outcome::Failed { message, panicked } => {
                assert!(panicked);
                assert!(message.contains("unlucky"));
            }
            other => panic!("expected panic failure, got {other:?}"),
        }
        assert!(records[13]
            .repro
            .as_deref()
            .is_some_and(|r| r.contains("--only") && r.contains("i=13")));
        assert!(!records[13].quarantined, "no retries -> no quarantine");
        match &records[21].outcome {
            Outcome::Failed { message, panicked } => {
                assert!(!panicked);
                assert_eq!(message, "known-bad cell");
            }
            other => panic!("expected error failure, got {other:?}"),
        }
        assert_eq!(
            records
                .iter()
                .filter(|r| matches!(r.outcome, Outcome::Done(_)))
                .count(),
            62
        );
        assert!(records
            .iter()
            .all(|r| r.attempts == 1 && r.repro.is_some() == r.outcome.is_failure()));
    }

    #[test]
    fn seeds_depend_on_content_not_schedule() {
        let cfgs = configs();
        let serial = execute(
            &Parity,
            &cfgs,
            7,
            None,
            &ExecOptions {
                threads: 1,
                ..Default::default()
            },
        );
        let parallel = execute(
            &Parity,
            &cfgs,
            7,
            None,
            &ExecOptions {
                threads: 8,
                ..Default::default()
            },
        );
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(
                a.outcome.artifact().map(|x| x.to_value().encode()),
                b.outcome.artifact().map(|x| x.to_value().encode()),
            );
        }
        // Distinct master seeds shift every cell's seed.
        let other = execute(
            &Parity,
            &cfgs,
            8,
            None,
            &ExecOptions {
                threads: 1,
                ..Default::default()
            },
        );
        assert!(serial.iter().zip(&other).all(|(a, b)| a.seed != b.seed));
    }

    #[test]
    fn backoff_is_seeded_exponential_and_deterministic() {
        for attempt in 1..=8u32 {
            assert_eq!(
                retry_backoff(42, attempt),
                retry_backoff(42, attempt),
                "backoff must be a pure function"
            );
        }
        // Exponential envelope: base doubles per rung (cap at rung 7),
        // jitter stays below one base.
        for attempt in 1..=6u32 {
            let base = 25u64 << (attempt - 1);
            let d = retry_backoff(7, attempt).as_millis() as u64;
            assert!((base..2 * base).contains(&d), "attempt {attempt}: {d} ms");
        }
        assert_eq!(retry_backoff(7, 7), retry_backoff(7, 7));
        assert!(retry_backoff(7, 60) < Duration::from_millis(2 * 25 * 64 + 1));
        // Different cells decorrelate their jitter.
        assert!((1..=8u32).any(|a| retry_backoff(1, a) != retry_backoff(2, a)));
    }

    /// A transiently-failing cell heals on retry with the same seed; a
    /// deterministic failure climbs the whole ladder and is quarantined.
    struct Flaky {
        attempts_seen: Mutex<HashMap<u64, u32>>,
    }

    impl Experiment for Flaky {
        fn name(&self) -> &'static str {
            "flaky-unit"
        }
        fn params(&self, _cli: &Cli) -> Vec<Config> {
            (0..6u64).map(|i| Config::new().with("i", i)).collect()
        }
        fn run(&self, config: &Config, seed: u64) -> Result<Artifact, String> {
            let i = config.u64("i").expect("i");
            // Count the attempt and release the lock before any panic,
            // so a wobble never poisons the counter for other cells.
            let n = {
                let mut seen = self
                    .attempts_seen
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                let n = seen.entry(i).or_insert(0);
                *n += 1;
                *n
            };
            if i == 3 && n == 1 {
                panic!("transient wobble");
            }
            if i == 5 {
                return Err("deterministically bad".to_string());
            }
            Ok(Artifact::text(format!("cell {i} seed {seed}\n")))
        }
    }

    #[test]
    fn flaky_cell_heals_and_repeat_offender_is_quarantined() {
        let exp = Flaky {
            attempts_seen: Mutex::new(HashMap::new()),
        };
        let cfgs = exp.params(&Cli::default());
        let records = execute(
            &exp,
            &cfgs,
            3,
            None,
            &ExecOptions {
                threads: 2,
                retries: 1,
                ..Default::default()
            },
        );
        // The wobbly cell healed on its second attempt.
        assert!(matches!(records[3].outcome, Outcome::Done(_)));
        assert_eq!(records[3].attempts, 2);
        assert!(!records[3].quarantined);
        assert!(records[3].repro.is_none());
        // The deterministic failure burned every attempt and is
        // quarantined with a paste-ready repro.
        assert!(matches!(records[5].outcome, Outcome::Failed { .. }));
        assert_eq!(records[5].attempts, 2);
        assert!(records[5].quarantined);
        let repro = records[5].repro.as_deref().expect("repro command");
        assert!(
            repro.contains("flaky-unit") && repro.contains("--only \"i=5\""),
            "got: {repro}"
        );
        assert!(repro.contains("--seed 3") && repro.contains("--force"));
        // Healthy cells ran exactly once.
        assert!(records[..3].iter().all(|r| r.attempts == 1));
    }

    /// A cell that sleeps past the watchdog budget is recorded as
    /// `TimedOut` while the rest of the sweep completes normally.
    struct Sleeper;

    impl Experiment for Sleeper {
        fn name(&self) -> &'static str {
            "sleeper-unit"
        }
        fn params(&self, _cli: &Cli) -> Vec<Config> {
            (0..4u64).map(|i| Config::new().with("i", i)).collect()
        }
        fn run(&self, config: &Config, _seed: u64) -> Result<Artifact, String> {
            ragnar_telemetry::metrics().counter_add("sleeper.started", 1);
            if config.u64("i") == Some(2) {
                std::thread::sleep(Duration::from_millis(400));
            }
            Ok(Artifact::text("ok\n"))
        }
    }

    #[test]
    fn hung_cell_times_out_with_repro_and_sweep_continues() {
        let records = execute(
            &Sleeper,
            &Sleeper.params(&Cli::default()),
            0,
            None,
            &ExecOptions {
                threads: 2,
                cell_timeout: Some(Duration::from_millis(40)),
                retries: 1,
                ..Default::default()
            },
        );
        match &records[2].outcome {
            Outcome::TimedOut { timeout_ms } => assert_eq!(*timeout_ms, 40),
            other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(records[2].attempts, 2, "a hung attempt is retried");
        assert!(records[2].quarantined);
        assert!(records[2]
            .repro
            .as_deref()
            .is_some_and(|r| r.contains("--only \"i=2\"")));
        for (i, r) in records.iter().enumerate() {
            if i != 2 {
                assert!(matches!(r.outcome, Outcome::Done(_)), "cell {i} collateral");
            }
        }
    }

    /// The salvage path: a hung cell's session is harvested by the
    /// coordinator when the watchdog fires, so whatever the cell
    /// recorded before getting stuck survives — with the executor's
    /// supervision verdicts appended as synthesized trace events.
    #[test]
    fn hung_cell_salvages_partial_telemetry() {
        let records = execute(
            &Sleeper,
            &Sleeper.params(&Cli::default()),
            0,
            None,
            &ExecOptions {
                threads: 2,
                cell_timeout: Some(Duration::from_millis(40)),
                telemetry: TelemetrySpec {
                    trace: true,
                    filter: TargetSet::ALL,
                    metrics: true,
                },
                ..Default::default()
            },
        );
        assert!(matches!(records[2].outcome, Outcome::TimedOut { .. }));
        let t = records[2].telemetry.as_ref().expect("salvaged telemetry");
        let m = t.metrics.as_ref().expect("salvaged metrics");
        assert!(
            m.counters
                .iter()
                .any(|(k, v)| k == "sleeper.started" && *v >= 1),
            "pre-hang counter lost: {:?}",
            m.counters
        );
        let names: Vec<&str> = t.events.iter().map(|e| e.name).collect();
        assert!(names.contains(&"watchdog_timeout"), "got {names:?}");
        // Healthy cells carry no supervision verdicts.
        for i in [0usize, 1, 3] {
            let t = records[i].telemetry.as_ref().expect("telemetry");
            assert!(t
                .events
                .iter()
                .all(|e| !matches!(e.name, "watchdog_timeout" | "retry" | "quarantine")));
        }
    }

    /// Retry and quarantine verdicts appear as synthesized trace
    /// events; a healed cell shows its retry but no quarantine.
    #[test]
    fn supervisor_events_mark_retries_and_quarantine() {
        let exp = Flaky {
            attempts_seen: Mutex::new(HashMap::new()),
        };
        let records = execute(
            &exp,
            &exp.params(&Cli::default()),
            3,
            None,
            &ExecOptions {
                threads: 2,
                retries: 1,
                telemetry: TelemetrySpec {
                    trace: true,
                    filter: TargetSet::ALL,
                    metrics: false,
                },
                ..Default::default()
            },
        );
        let names = |i: usize| -> Vec<&str> {
            records[i]
                .telemetry
                .as_ref()
                .expect("telemetry")
                .events
                .iter()
                .map(|e| e.name)
                .collect()
        };
        // Cell 3 healed on attempt 2: one retry, no quarantine.
        let healed = names(3);
        assert_eq!(healed.iter().filter(|n| **n == "retry").count(), 1);
        assert!(!healed.contains(&"quarantine"), "got {healed:?}");
        // Cell 5 burned the ladder: retry + quarantine.
        let bad = names(5);
        assert!(
            bad.contains(&"retry") && bad.contains(&"quarantine"),
            "got {bad:?}"
        );
    }

    /// The synthesized supervisor track is deterministic: the same
    /// flaky sweep renders byte-identical trace JSON at any thread
    /// count, because the events are derived from per-cell attempt
    /// state (never wall-clock) and pinned at ts 0.
    #[test]
    fn supervisor_track_is_thread_count_invariant() {
        let trace = |threads: usize| {
            let exp = Flaky {
                attempts_seen: Mutex::new(HashMap::new()),
            };
            let records = execute(
                &exp,
                &exp.params(&Cli::default()),
                3,
                None,
                &ExecOptions {
                    threads,
                    retries: 1,
                    telemetry: TelemetrySpec {
                        trace: true,
                        filter: TargetSet::ALL,
                        metrics: false,
                    },
                    ..Default::default()
                },
            );
            let cells: Vec<ragnar_telemetry::TraceCell<'_>> = records
                .iter()
                .filter_map(|r| {
                    r.telemetry.as_ref().map(|t| ragnar_telemetry::TraceCell {
                        label: r.config.label(),
                        index: r.index,
                        events: &t.events,
                    })
                })
                .collect();
            ragnar_telemetry::chrome_trace_json(&cells)
        };
        let serial = trace(1);
        assert!(
            serial.contains("\"retry\"") && serial.contains("\"quarantine\""),
            "supervisor events missing from trace"
        );
        assert_eq!(
            serial,
            trace(4),
            "supervisor track differs between --threads 1 and --threads 4"
        );
    }

    /// One short cell: the sweep must end when the cell does, not when
    /// the progress reporter next wakes up.
    struct Nap;

    impl Experiment for Nap {
        fn name(&self) -> &'static str {
            "nap-unit"
        }
        fn params(&self, _cli: &Cli) -> Vec<Config> {
            vec![Config::new().with("i", 0u64)]
        }
        fn run(&self, _config: &Config, _seed: u64) -> Result<Artifact, String> {
            std::thread::sleep(Duration::from_millis(20));
            Ok(Artifact::text("ok\n"))
        }
    }

    #[test]
    fn sweep_returns_when_its_last_cell_does() {
        let t0 = Instant::now();
        let records = execute(
            &Nap,
            &Nap.params(&Cli::default()),
            0,
            None,
            &ExecOptions {
                threads: 2,
                ..Default::default()
            },
        );
        let elapsed = t0.elapsed();
        assert!(matches!(records[0].outcome, Outcome::Done(_)));
        assert!(
            elapsed < Duration::from_millis(300),
            "a 20 ms sweep took {elapsed:?}"
        );
    }

    /// A `[monitor-abort]` panic stops the sweep: the offending cell is
    /// failed without retry, and cells not yet started are skipped.
    struct Aborter;

    impl Experiment for Aborter {
        fn name(&self) -> &'static str {
            "aborter-unit"
        }
        fn params(&self, _cli: &Cli) -> Vec<Config> {
            (0..6u64).map(|i| Config::new().with("i", i)).collect()
        }
        fn run(&self, config: &Config, _seed: u64) -> Result<Artifact, String> {
            if config.u64("i") == Some(1) {
                panic!("[monitor-abort] packet conservation broken in cell 1");
            }
            Ok(Artifact::text("ok\n"))
        }
    }

    #[test]
    fn monitor_abort_fails_fast_and_skips_the_rest() {
        // threads=1 makes the schedule sequential, so exactly cells 2..6
        // are still unstarted when the abort lands.
        let records = execute(
            &Aborter,
            &Aborter.params(&Cli::default()),
            0,
            None,
            &ExecOptions {
                threads: 1,
                retries: 3,
                ..Default::default()
            },
        );
        assert!(matches!(records[0].outcome, Outcome::Done(_)));
        match &records[1].outcome {
            Outcome::Failed { message, panicked } => {
                assert!(*panicked && message.starts_with("[monitor-abort]"));
            }
            other => panic!("expected abort failure, got {other:?}"),
        }
        assert_eq!(records[1].attempts, 1, "abort verdicts are never retried");
        for r in &records[2..] {
            match &r.outcome {
                Outcome::Skipped { reason } => {
                    assert!(reason.starts_with("[monitor-abort]"), "got: {reason}");
                }
                other => panic!("cell {} should be skipped, got {other:?}", r.index),
            }
            assert_eq!(r.attempts, 0);
        }
    }
}
