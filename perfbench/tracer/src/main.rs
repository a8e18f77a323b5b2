//! In-process traced pass of the paper-regeneration benchmark.
//!
//! ```text
//! perfbench-tracer --workload <name> --out <dir> < sweeps
//! ```
//!
//! Reads one sweep per stdin line, `<experiment>\t<arg>\t<arg>...` with
//! the arguments its release binary would take, and runs each sweep
//! through the harness's public functions with the engine profiler
//! and the simulator's metrics counters armed: `Experiment::params`,
//! `executor::execute` on a wrapper that timestamps every
//! `Experiment::run`, a replay of `ResultStore::load` and
//! `ResultStore::store` on every cell key, and `summarize` plus the
//! manifest and report writes. Metrics collection bypasses cache reads,
//! so every cell executes.
//!
//! Spans (workload → sweep → params/execute/cell/cache/report) are kept
//! in memory and written to `<out>/spans.json` at the end. The per-layer
//! metrics are printed as the last stdout line, one JSON object:
//! `{"wall_s": .., "metrics": {..}, "sweeps": [{"digest", "cells",
//! "failed", "wall_s"}, ..]}`.

use std::collections::BTreeMap;
use std::io::{self, BufRead};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;

use ragnar_bench::experiments::registry;
use ragnar_harness::executor::{self, ExecOptions, TelemetrySpec};
use ragnar_harness::{
    Artifact, Cli, Config, Experiment, Manifest, Outcome, ResultStore, RunReport, Value,
};
use ragnar_telemetry::profile::{self, Phase};

/// One timed interval, in seconds since the tracer started.
struct Span {
    name: String,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let start = self.now();
        self.push(name, parent, start, start)
    }

    /// Closes span `id` and returns its duration.
    fn close(&mut self, id: usize) -> f64 {
        let end = self.now();
        let span = &mut self.spans[id];
        span.end = end;
        end - span.start
    }

    fn push(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start: f64,
        end: f64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    fn to_value(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    let mut v = Value::object();
                    v.set("id", id);
                    v.set("parent", s.parent.map_or(Value::Null, Value::from));
                    v.set("name", s.name.as_str());
                    v.set("start_s", s.start);
                    v.set("end_s", s.end);
                    v
                })
                .collect(),
        )
    }
}

/// Delegates to an experiment and timestamps every `run`, so cell spans
/// come from the benchmark's side of the call.
struct Timed<'a> {
    inner: &'a dyn Experiment,
    epoch: Instant,
    runs: Mutex<Vec<(String, f64, f64)>>,
}

impl Experiment for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn description(&self) -> &'static str {
        self.inner.description()
    }

    fn version(&self) -> u32 {
        self.inner.version()
    }

    fn params(&self, cli: &Cli) -> Vec<Config> {
        self.inner.params(cli)
    }

    fn run(&self, config: &Config, seed: u64) -> Result<Artifact, String> {
        let start = self.epoch.elapsed().as_secs_f64();
        let out = self.inner.run(config, seed);
        let end = self.epoch.elapsed().as_secs_f64();
        self.runs
            .lock()
            .expect("a cell panicked while logging its run")
            .push((config.label(), start, end));
        out
    }

    fn summarize(&self, records: &[ragnar_harness::RunRecord], out: &mut String) {
        self.inner.summarize(records, out);
    }
}

/// Named sums; every metric the tracer reports starts at zero.
#[derive(Default)]
struct Totals(BTreeMap<String, f64>);

impl Totals {
    fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += v;
    }

    fn max(&mut self, name: &str, v: f64) {
        let slot = self.0.entry(name.to_string()).or_insert(0.0);
        *slot = slot.max(v);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Simulator counters from the metrics registry, under their report names.
const COUNTERS: [(&str, &str); 10] = [
    ("sim.events_processed", "sim.events"),
    ("cqe.success", "cqe.success"),
    ("nic.tx_packets", "nic.tx_packets"),
    ("nic.rx_packets", "nic.rx_packets"),
    ("nic.tpu_lookups", "nic.tpu_lookups"),
    ("nic.pcie_bytes", "nic.pcie_bytes"),
    ("nic.retransmits", "nic.retransmits"),
    ("fabric.pfc_pauses", "fabric.pfc_pauses"),
    ("fabric.link_dropped", "fabric.link_dropped"),
    ("wire.dropped_packets", "wire.dropped_packets"),
];

/// Profiler phases, under their report names (`<name>_s`, `<name>_calls`).
const PHASES: [(Phase, &str); 5] = [
    (Phase::QueueSchedule, "queue.schedule"),
    (Phase::QueuePop, "queue.pop"),
    (Phase::Execute, "verbs.execute"),
    (Phase::ArenaAlloc, "arena.alloc"),
    (Phase::ArenaFree, "arena.free"),
];

struct Tracer {
    spans: Spans,
    totals: Totals,
    replay_root: PathBuf,
    root: usize,
}

/// What `run.py` checks of one traced sweep.
struct SweepOut {
    digest: String,
    cells: usize,
    failed: usize,
    wall_s: f64,
}

impl Tracer {
    fn sweep(&mut self, line: &str) -> Result<SweepOut, String> {
        let mut fields = line.split('\t');
        let name = fields.next().unwrap_or_default();
        let cli = Cli::parse(fields.map(str::to_string)).map_err(|e| e.0)?;
        let exp = registry()
            .into_iter()
            .find(|e| e.name() == name)
            .ok_or_else(|| format!("unknown experiment '{name}'"))?;
        let sweep = self.spans.open(format!("sweep:{name}"), Some(self.root));
        self.totals.add("harness.sweeps", 1.0);

        let id = self.spans.open("params", Some(sweep));
        let configs = exp.params(&cli);
        let params_s = self.spans.close(id);
        self.totals.add("harness.params_s", params_s);

        let store = ResultStore::open(&cli.results_dir, exp.name())
            .map_err(|e| format!("cannot open result store: {e}"))?;
        let timed = Timed {
            inner: exp,
            epoch: self.spans.epoch,
            runs: Mutex::new(Vec::new()),
        };
        let opts = ExecOptions {
            threads: cli.threads,
            telemetry: TelemetrySpec {
                metrics: true,
                ..TelemetrySpec::default()
            },
            ..ExecOptions::default()
        };
        let execute = self.spans.open("execute", Some(sweep));
        let records = executor::execute(&timed, &configs, cli.seed, Some(&store), &opts);
        let execute_s = self.spans.close(execute);
        let execute_start = self.spans.spans[execute].start;
        let execute_end = self.spans.spans[execute].end;

        let mut last_end = execute_start;
        let (mut run_s, mut max_s) = (0.0f64, 0.0f64);
        for (label, start, end) in timed.runs.into_inner().expect("run log poisoned") {
            self.spans
                .push(format!("cell:{label}"), Some(execute), start, end);
            run_s += end - start;
            max_s = max_s.max(end - start);
            last_end = last_end.max(end);
        }
        let cell_elapsed_s: f64 = records.iter().map(|r| r.elapsed_ms / 1e3).sum();
        let threads = cli.threads.clamp(1, configs.len().max(1));
        let failed = records.iter().filter(|r| r.outcome.is_failure()).count();
        let t = &mut self.totals;
        t.add("harness.sweep_s", execute_s);
        t.add("harness.tail_s", (execute_end - last_end).max(0.0));
        t.add(
            "harness.idle_s",
            threads as f64 * execute_s - cell_elapsed_s,
        );
        t.add("cell.count", records.len() as f64);
        t.add("cell.failed", failed as f64);
        t.add("cell.run_s", run_s);
        t.max("cell.max_s", max_s);
        t.add(&format!("{name}.sweep_s"), execute_s);
        t.add(&format!("{name}.cell_s"), run_s);
        t.max(&format!("{name}.max_cell_s"), max_s);

        let cache_s = self.replay_cache(&store, exp, &records, sweep)?;

        let report = self.spans.open("report", Some(sweep));
        {
            let _flush = profile::enter(Phase::Flush);
            for r in &records {
                if let Some(m) = r.telemetry.as_ref().and_then(|t| t.metrics.as_ref()) {
                    store
                        .store_metrics(&r.cache_key, &m.to_json_tagged(r.outcome.is_failure()))
                        .map_err(|e| format!("cannot write metrics sidecar: {e}"))?;
                }
            }
        }
        let mut text = String::new();
        exp.summarize(&records, &mut text);
        let sweep_start = self.spans.spans[sweep].start;
        let manifest = Manifest::from_records(
            exp.name(),
            cli.seed,
            cli.threads,
            &records,
            vec![
                ("params".into(), params_s * 1e3),
                ("execute".into(), execute_s * 1e3),
            ],
            (self.spans.now() - sweep_start - cache_s) * 1e3,
        );
        let run_report = RunReport::build(&manifest, &records, None);
        {
            let _flush = profile::enter(Phase::Flush);
            manifest
                .write(&cli.results_dir)
                .map_err(|e| format!("cannot write manifest: {e}"))?;
            run_report
                .write(&cli.results_dir)
                .map_err(|e| format!("cannot write run report: {e}"))?;
        }
        let report_s = self.spans.close(report);
        self.totals.add("harness.report_s", report_s);
        for (counter, metric) in COUNTERS {
            if let Some((_, v)) = run_report.counters.iter().find(|(k, _)| k == counter) {
                self.totals.add(metric, *v as f64);
            }
        }
        let sweep_s = self.spans.close(sweep);
        Ok(SweepOut {
            digest: manifest.artifact_digest,
            cells: records.len(),
            failed,
            wall_s: sweep_s - cache_s,
        })
    }

    /// Replays a load and a store of every cell key; returns the time spent.
    fn replay_cache(
        &mut self,
        store: &ResultStore,
        exp: &dyn Experiment,
        records: &[ragnar_harness::RunRecord],
        sweep: usize,
    ) -> Result<f64, String> {
        let replay = ResultStore::open(&self.replay_root, exp.name())
            .map_err(|e| format!("cannot open replay store: {e}"))?;
        let cache = self.spans.open("cache", Some(sweep));
        for r in records {
            let start = self.spans.now();
            let loaded = store.load(&r.cache_key);
            let end = self.spans.now();
            self.spans.push("cache.load", Some(cache), start, end);
            self.totals.add("cache.loads", 1.0);
            self.totals.add("cache.load_s", end - start);
            if loaded.is_some() {
                self.totals.add("cache.hits", 1.0);
            }
            if let Outcome::Done(artifact) = &r.outcome {
                // A zero elapsed time keeps the entry's size, and so
                // `cache.bytes`, the same from run to run.
                let start = self.spans.now();
                replay
                    .store(
                        &r.cache_key,
                        &r.config,
                        r.seed,
                        exp.version(),
                        artifact,
                        0.0,
                    )
                    .map_err(|e| format!("cannot replay a cache store: {e}"))?;
                let end = self.spans.now();
                self.spans.push("cache.store", Some(cache), start, end);
                self.totals.add("cache.stores", 1.0);
                self.totals.add("cache.store_s", end - start);
                let path = replay.dir().join(format!("{}.json", r.cache_key));
                let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
                self.totals.add("cache.bytes", bytes as f64);
            }
        }
        Ok(self.spans.close(cache))
    }

    /// The per-layer metrics, with profiler phases and derived ratios.
    fn metrics(&mut self) -> Value {
        let snapshot = profile::snapshot();
        let t = &mut self.totals;
        for (phase, total) in &snapshot.phases {
            if let Some((_, name)) = PHASES.iter().find(|(p, _)| p == phase) {
                t.add(&format!("{name}_s"), total.ns as f64 / 1e9);
                t.add(&format!("{name}_calls"), total.calls as f64);
            }
            if *phase == Phase::Flush {
                t.add("telemetry.flush_s", total.ns as f64 / 1e9);
            }
        }
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let ns_per_event = ratio(t.get("cell.run_s") * 1e9, t.get("sim.events"));
        let retransmit_frac = ratio(t.get("nic.retransmits"), t.get("nic.tx_packets"));
        t.add("cache.hits", 0.0);
        let hit_frac = ratio(t.get("cache.hits"), t.get("cache.loads"));
        t.add("sim.ns_per_event", ns_per_event);
        t.add("nic.retransmit_frac", retransmit_frac);
        t.add("cache.hit_frac", hit_frac);
        for (_, name) in COUNTERS {
            t.add(name, 0.0);
        }
        let mut v = Value::object();
        for (name, value) in &t.0 {
            v.set(name, *value);
        }
        v
    }
}

struct Args {
    workload: String,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        out: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => args.workload = it.next().ok_or("--workload needs a value")?,
            "--out" => args.out = it.next().ok_or("--out needs a value")?.into(),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workload.is_empty() || args.out.as_os_str().is_empty() {
        return Err("usage: perfbench-tracer --workload <name> --out <dir>".into());
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let lines: Vec<String> = io::stdin()
        .lock()
        .lines()
        .collect::<Result<_, _>>()
        .map_err(|e| format!("cannot read sweeps: {e}"))?;
    let mut spans = Spans {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let root = spans.open(format!("workload:{}", args.workload), None);
    let mut tracer = Tracer {
        spans,
        totals: Totals::default(),
        replay_root: args.out.join("store-replay"),
        root,
    };
    profile::reset();
    profile::set_enabled(true);
    let mut sweeps = Vec::new();
    for line in lines.iter().filter(|l| !l.is_empty()) {
        sweeps.push(tracer.sweep(line)?);
    }
    profile::set_enabled(false);
    tracer.spans.close(root);
    let metrics = tracer.metrics();

    std::fs::write(
        args.out.join("spans.json"),
        tracer.spans.to_value().encode(),
    )
    .map_err(|e| format!("cannot write spans: {e}"))?;
    let mut out = Value::object();
    out.set("wall_s", sweeps.iter().map(|s| s.wall_s).sum::<f64>());
    out.set("metrics", metrics);
    out.set(
        "sweeps",
        Value::Array(
            sweeps
                .into_iter()
                .map(|s| {
                    let mut v = Value::object();
                    v.set("digest", s.digest);
                    v.set("cells", s.cells);
                    v.set("failed", s.failed);
                    v.set("wall_s", s.wall_s);
                    v
                })
                .collect(),
        ),
    );
    println!("{}", out.encode());
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            ExitCode::FAILURE
        }
    }
}
