#!/usr/bin/env python3
"""Self-tests for the benchmark's own code: python3 perfbench/test_run.py

The RSS test builds the small std-only spawner (a few seconds); the
others need no build.
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

FIXTURE = os.path.join(run.HERE, "fixtures", "fig11_inter_mr.manifest.json")


def fixture_pass(manifest=None, wall_s=0.5, rss_kib=4096):
    if manifest is None:
        with open(FIXTURE) as f:
            manifest = json.load(f)
    return [
        {
            "key": "fig11_inter_mr --quick",
            "master": manifest["seed"],
            "code": 0,
            "wall_s": wall_s,
            "rss_kib": rss_kib,
            "manifest": manifest,
        }
    ]


def fixture_pins(digest=None):
    with open(FIXTURE) as f:
        m = json.load(f)
    return {
        "sweeps": {
            "fig11_inter_mr --quick": {
                str(m["seed"]): {"digest": digest or m["artifact_digest"], "cells": m["configs_total"]}
            }
        }
    }


class DigestGate(unittest.TestCase):
    def test_matching_pin_counts_every_cell_ok(self):
        metrics, attempted, ok, problems = run.end_to_end([fixture_pass()], 0.1, fixture_pins())
        self.assertEqual((attempted, ok, problems), (3, 3, []))
        self.assertEqual(metrics["ok_frac"], 1.0)

    def test_tampered_pin_drops_ok_frac(self):
        pins = fixture_pins(digest="0" * 32)
        metrics, attempted, ok, problems = run.end_to_end([fixture_pass()], 0.1, pins)
        self.assertEqual((attempted, ok), (3, 0))
        self.assertEqual(metrics["ok_frac"], 0.0)
        self.assertIn("digest", problems[0])

    def test_failed_cells_and_exit_codes_count_against_ok_frac(self):
        results = fixture_pass()
        results[0]["manifest"]["configs_failed"] = 1
        _, attempted, ok, problems = run.end_to_end([results], 0.1, fixture_pins())
        self.assertEqual((attempted, ok), (3, 2))
        self.assertTrue(problems)
        results = fixture_pass()
        results[0]["code"] = 1
        _, _, ok, _ = run.end_to_end([results], 0.1, fixture_pins())
        self.assertEqual(ok, 0)

    def test_tampered_smoke_pin_fails_the_run(self):
        smoke = fixture_pass()
        smoke[0]["master"] += 1
        pins = fixture_pins()
        pins["sweeps"]["fig11_inter_mr --quick"][str(smoke[0]["master"])] = {"digest": "0" * 32, "cells": 3}
        metrics, attempted, ok, problems = run.end_to_end([fixture_pass()], 0.1, pins, smoke)
        self.assertEqual((attempted, ok), (6, 3))
        self.assertEqual(metrics["ok_frac"], 0.5)
        self.assertIn("digest", problems[0])

    def test_unpinned_sweep_is_a_failure(self):
        _, _, ok, problems = run.end_to_end([fixture_pass()], 0.1, {"sweeps": {}})
        self.assertEqual(ok, 0)
        self.assertIn("no pin", problems[0])


class Parsing(unittest.TestCase):
    def test_manifest_fixture_parses_into_named_metrics_with_units(self):
        with open(FIXTURE) as f:
            manifest = json.load(f)
        metrics, _, _, _ = run.end_to_end([fixture_pass(wall_s=0.51)], 0.25, fixture_pins())
        result = run.with_units(metrics, run.END_TO_END)
        self.assertEqual(list(result), ["wall_s", "cell_s", "setup_s", "peak_rss_mb", "ok_frac"])
        self.assertEqual(
            {k: v["unit"] for k, v in result.items()},
            {"wall_s": "s", "cell_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"},
        )
        cell_s = sum(c["elapsed_ms"] for c in manifest["cells"]) / 1e3
        self.assertAlmostEqual(result["cell_s"]["value"], cell_s)
        self.assertEqual(result["wall_s"]["value"], 0.51)
        self.assertEqual(result["setup_s"]["value"], 0.25)
        self.assertEqual(result["peak_rss_mb"]["value"], 4.0)

    def test_each_sweep_reports_its_median_across_passes(self):
        passes = [fixture_pass(wall_s=w) for w in (0.5, 1.0, 0.6)]
        self.assertEqual(run.per_sweep_median(passes, lambda r: r["wall_s"]), 0.6)

    def test_an_even_pass_count_drops_the_slowest_pass(self):
        passes = [fixture_pass(wall_s=w) for w in (0.5, 1.0)]
        self.assertEqual(run.per_sweep_median(passes, lambda r: r["wall_s"]), 0.5)
        passes = [fixture_pass(wall_s=w) for w in (0.5, 1.0, 0.6, 0.7)]
        self.assertEqual(run.per_sweep_median(passes, lambda r: r["wall_s"]), 0.6)

    def test_tracer_output_parses_into_every_per_layer_metric(self):
        reported = [n for n, _ in run.PER_LAYER if n not in ("harness.proc_s", "trace.overhead_s")]
        tracer_out = {"wall_s": 2.0, "metrics": {n: 1.0 for n in reported}, "sweeps": []}
        untraced = fixture_pass(wall_s=0.75)
        metrics = run.traced_metrics(untraced, tracer_out)
        self.assertEqual(list(metrics), [n for n, _ in run.PER_LAYER])
        self.assertAlmostEqual(metrics["trace.overhead_s"], 1.25)
        wall_ms = untraced[0]["manifest"]["wall_ms"]
        self.assertAlmostEqual(metrics["harness.proc_s"], 0.75 - wall_ms / 1e3)
        del tracer_out["metrics"]["sim.events"]
        with self.assertRaises(run.BenchError):
            run.traced_metrics(untraced, tracer_out)

    def test_benchmark_json_matches_the_metric_tables(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual(bench["paths"], ["perfbench"])
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]], run.PER_LAYER)


class Inputs(unittest.TestCase):
    def test_seed_fixes_the_inputs_and_every_input_is_pinned(self):
        pins = run.load_pins()
        for seed in range(40):
            masters = run.masters_for(seed)
            self.assertEqual(masters, run.masters_for(seed))
            self.assertEqual(sorted(masters), list(range(run.SEED_POOL)))
        self.assertGreater(len({tuple(run.masters_for(s)[:3]) for s in range(40)}), 30)
        pinned = run.all_pinned_sweeps()
        self.assertEqual(len(pinned), len({run.sweep_key(n, a) for n, a in pinned}))
        for w in run.WORKLOADS.values():
            self.assertIn(w.smoke, pinned)
        for name, args in pinned:
            for master in range(run.SEED_POOL):
                self.assertGreater(pins["sweeps"][run.sweep_key(name, args)][str(master)]["cells"], 0)

    def test_pass_count_follows_seconds_not_speed(self):
        self.assertEqual(run.pass_count("paper_cold", 10), 3)
        self.assertEqual(run.pass_count("cluster", 10), 1)
        self.assertEqual(run.pass_count("cluster", 60), 4)

    def test_each_pass_takes_the_next_master_seeds(self):
        masters = run.masters_for(5)
        cold = [run.pass_sweeps("paper_cold", masters, k) for k in range(3)]
        self.assertEqual([{m for _, _, m in p} for p in cold], [{masters[0]}, {masters[1]}, {masters[2]}])
        self.assertEqual(len(cold[0]), len(run.PAPER_BINS))
        cluster = run.pass_sweeps("cluster", masters, 1)
        n = run.WORKLOADS["cluster"].masters_per_pass
        self.assertEqual([m for _, _, m in cluster][::2], masters[n : 2 * n])


class PeakRss(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.cargo_build(["--manifest-path", os.path.join(run.HERE, "spawn", "Cargo.toml")])

    def test_peak_rss_does_not_carry_over_between_workloads(self):
        logs = os.path.join(run.target_dir(), "perfbench-selftest")
        big = [sys.executable, "-c", "x = b'a' * (96 << 20)"]
        small = [sys.executable, "-c", "pass"]
        heavy = [[dict(r, rss_kib=rss) for r, (_, _, rss) in zip(fixture_pass(), run.spawn_batch([big], logs))]]
        light = [[dict(r, rss_kib=rss) for r, (_, _, rss) in zip(fixture_pass(), run.spawn_batch([small], logs))]]
        self.assertGreater(run.peak_rss_mb(heavy), 96)
        self.assertLess(run.peak_rss_mb(light), 48)

    def test_each_job_reports_its_own_exit_code_and_peak(self):
        logs = os.path.join(run.target_dir(), "perfbench-selftest")
        jobs = [
            [sys.executable, "-c", "x = b'a' * (96 << 20)"],
            [sys.executable, "-c", "raise SystemExit(3)"],
        ]
        (code0, wall0, rss0), (code1, _, rss1) = run.spawn_batch(jobs, logs)
        self.assertEqual((code0, code1), (0, 3))
        self.assertGreater(wall0, 0.0)
        self.assertGreater(rss0, 96 << 10)
        self.assertLess(rss1, 48 << 10)


if __name__ == "__main__":
    unittest.main()
