//! Determinism tests for the cluster-scale scenarios across the axis
//! that must never matter: the harness worker-thread count
//! (`--threads`). The seed-0 quick-mode digests are pinned, so these
//! constants must survive any engine change at any thread count.

use ragnar_bench::experiments::cluster;
use ragnar_harness::executor::{self, ExecOptions};
use ragnar_harness::hash::content_hash;
use ragnar_harness::{Cli, Experiment, Outcome};

/// Pinned digest of the noisy-neighbor quick sweep (seed 0, 32-host
/// pod). Every thread count must reproduce it bit-for-bit.
const GOLDEN_NOISY_QUICK_SEED0: &str = "6f9a85cd9e3e5ee020c3e9f0e3cca250";

/// Pinned digest of the bankrupt-covert quick sweep (seed 0, 24 bits).
const GOLDEN_BANKRUPT_QUICK_SEED0: &str = "c7273d3641d381ec92eae1cb83f7e5e0";

/// Runs the experiment's quick-mode sweep (no cache, forced) at master
/// seed 0 under the given thread count, and digests all artifacts in
/// config order.
fn artifact_digest(exp: &dyn Experiment, threads: usize, extras: &[&str]) -> String {
    let mut args = vec!["--quick".to_string(), "--seed".to_string(), "0".to_string()];
    args.extend(extras.iter().map(|s| s.to_string()));
    let cli = Cli::parse(args).expect("cli parses");
    let configs = exp.params(&cli);
    let records = executor::execute(
        exp,
        &configs,
        cli.seed,
        None,
        &ExecOptions {
            threads,
            force: true,
            ..Default::default()
        },
    );
    let mut material = String::new();
    for r in &records {
        match &r.outcome {
            Outcome::Done(a) => {
                material.push_str(&a.to_value().encode());
                material.push('\n');
            }
            Outcome::Failed { message, .. } => {
                panic!("config [{}] failed: {message}", r.config.label())
            }
            other => panic!("config [{}] did not finish: {other:?}", r.config.label()),
        }
    }
    content_hash(material.as_bytes())
}

/// A pod small enough for the debug-build test budget; the CI smoke
/// run exercises the default 256-host fabric through the binary.
const NOISY_EXTRAS: [&str; 2] = ["--topology", "leaf-spine:hosts=32,leaves=4,spines=2"];
const BANKRUPT_EXTRAS: [&str; 2] = ["--bits", "24"];

#[test]
fn noisy_neighbor_digest_matches_golden_at_every_thread_count() {
    for threads in [1, 4] {
        let digest = artifact_digest(&cluster::NoisyNeighbor, threads, &NOISY_EXTRAS);
        assert_eq!(
            digest, GOLDEN_NOISY_QUICK_SEED0,
            "noisy_neighbor digest drifted at --threads {threads}"
        );
    }
}

#[test]
fn bankrupt_covert_digest_matches_golden_at_every_thread_count() {
    for threads in [1, 4] {
        let digest = artifact_digest(&cluster::BankruptCovert, threads, &BANKRUPT_EXTRAS);
        assert_eq!(
            digest, GOLDEN_BANKRUPT_QUICK_SEED0,
            "bankrupt_covert digest drifted at --threads {threads}"
        );
    }
}

/// Thread invariance must also hold when a chaos plan perturbs the
/// fabric: fault verdicts draw from each cell's own plan stream, so the
/// same faults fire in the same order at any thread count.
#[test]
fn noisy_neighbor_chaos_digest_is_thread_invariant() {
    let extras = [
        "--topology",
        "leaf-spine:hosts=32,leaves=4,spines=2",
        "--chaos-seed",
        "7",
    ];
    let serial = artifact_digest(&cluster::NoisyNeighbor, 1, &extras);
    let parallel = artifact_digest(&cluster::NoisyNeighbor, 4, &extras);
    assert_eq!(
        serial, parallel,
        "noisy_neighbor chaos digest differs between --threads 1 and 4"
    );
}
