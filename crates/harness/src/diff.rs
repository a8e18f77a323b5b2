//! `bench-diff`: thresholded comparison of two JSON documents — two run
//! reports, two manifests, or a report against a pinned `BENCH_*.json`.
//!
//! Both documents are flattened to dotted-path numeric leaves
//! (`counters.wire\.dropped_packets`, `histograms.h_ns.p99_ps`, …) and
//! compared pairwise. A leaf whose relative delta exceeds the threshold
//! is a regression; a leaf present on one side only is reported as
//! missing. Wall-clock material is skipped by default (see
//! [`DEFAULT_SKIP`]) so the deterministic sections — event counts,
//! allocation counters, merged histogram counts — are what gate CI:
//! on identical builds they must match exactly, and any drift is a real
//! behaviour change, not scheduling noise.

use ragnar_telemetry::json::Value;

/// Path substrings skipped by default: wall-clock and cache-state
/// material that legitimately differs between identical runs.
pub const DEFAULT_SKIP: &[&str] = &[
    "timing",
    "wall_ms",
    "elapsed_ms",
    "stage_ms",
    "started_unix",
    "cache_hit_rate",
    "cached",
    "executed",
    "from_cache",
];

/// One compared leaf that exceeded the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Dotted path of the leaf.
    pub path: String,
    /// Value in the baseline document.
    pub before: f64,
    /// Value in the candidate document.
    pub after: f64,
    /// Relative delta in percent (infinite when the baseline is 0).
    pub delta_pct: f64,
}

/// The outcome of one comparison.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Numeric leaves compared on both sides.
    pub compared: usize,
    /// Leaves whose relative delta exceeded the threshold.
    pub regressions: Vec<DiffEntry>,
    /// Leaves present in exactly one document.
    pub missing: Vec<String>,
}

impl DiffReport {
    /// Whether the candidate passes: everything compared is within the
    /// threshold and no leaf vanished or appeared.
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }
}

/// Compares `before` and `after`, flagging numeric leaves whose
/// relative delta exceeds `threshold_pct` percent. Paths containing any
/// of `skip` (substring match) are ignored entirely.
pub fn diff_values(before: &Value, after: &Value, threshold_pct: f64, skip: &[&str]) -> DiffReport {
    let mut a = Vec::new();
    flatten(before, String::new(), skip, &mut a);
    let mut b = Vec::new();
    flatten(after, String::new(), skip, &mut b);

    let mut report = DiffReport::default();
    let (mut i, mut j) = (0, 0);
    // Both sides are sorted by path; walk them like a merge.
    a.sort_by(|x, y| x.0.cmp(&y.0));
    b.sort_by(|x, y| x.0.cmp(&y.0));
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some((pa, va)), Some((pb, vb))) if pa == pb => {
                report.compared += 1;
                let delta_pct = relative_delta_pct(*va, *vb);
                if delta_pct > threshold_pct {
                    report.regressions.push(DiffEntry {
                        path: pa.clone(),
                        before: *va,
                        after: *vb,
                        delta_pct,
                    });
                }
                i += 1;
                j += 1;
            }
            (Some((pa, _)), Some((pb, _))) if pa < pb => {
                report.missing.push(format!("{pa} (baseline only)"));
                i += 1;
            }
            (Some(_), Some((pb, _))) => {
                report.missing.push(format!("{pb} (candidate only)"));
                j += 1;
            }
            (Some((pa, _)), None) => {
                report.missing.push(format!("{pa} (baseline only)"));
                i += 1;
            }
            (None, Some((pb, _))) => {
                report.missing.push(format!("{pb} (candidate only)"));
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    report
}

/// The relative delta between two leaves, in percent. Equal values
/// (including two zeros) are 0; a zero baseline against a non-zero
/// candidate is an infinite delta — it always trips the threshold.
fn relative_delta_pct(before: f64, after: f64) -> f64 {
    if before == after {
        0.0
    } else if before == 0.0 {
        f64::INFINITY
    } else {
        ((after - before) / before).abs() * 100.0
    }
}

/// Depth-first flatten of numeric leaves into dotted paths. Booleans
/// count as 0/1 leaves (an `aborted` flip is a regression); strings and
/// nulls are ignored (digests are compared by the caller if desired).
fn flatten(v: &Value, path: String, skip: &[&str], out: &mut Vec<(String, f64)>) {
    if !path.is_empty() && skip.iter().any(|s| path.contains(s)) {
        return;
    }
    match v {
        Value::Int(i) => out.push((path, *i as f64)),
        Value::Float(f) => out.push((path, *f)),
        Value::Bool(b) => out.push((path, f64::from(u8::from(*b)))),
        Value::Object(entries) => {
            for (k, child) in entries {
                let child_path = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                flatten(child, child_path, skip, out);
            }
        }
        Value::Array(items) => {
            for (idx, child) in items.iter().enumerate() {
                flatten(child, format!("{path}[{idx}]"), skip, out);
            }
        }
        Value::Null | Value::Str(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Value {
        Value::parse(text).expect("test JSON parses")
    }

    #[test]
    fn identical_documents_are_clean() {
        let v = parse(r#"{"counters":{"a":3,"b":0},"histograms":{"h":{"count":7,"p99_ps":1200}}}"#);
        let report = diff_values(&v, &v, 0.0, DEFAULT_SKIP);
        assert!(report.is_clean());
        assert_eq!(report.compared, 4);
    }

    #[test]
    fn over_threshold_delta_is_a_regression() {
        let a = parse(r#"{"counters":{"events":1000}}"#);
        let b = parse(r#"{"counters":{"events":1100}}"#);
        let ok = diff_values(&a, &b, 15.0, DEFAULT_SKIP);
        assert!(ok.is_clean(), "10% delta within 15% threshold");
        let bad = diff_values(&a, &b, 5.0, DEFAULT_SKIP);
        assert_eq!(bad.regressions.len(), 1);
        let e = &bad.regressions[0];
        assert_eq!(e.path, "counters.events");
        assert_eq!((e.before, e.after), (1000.0, 1100.0));
        assert!((e.delta_pct - 10.0).abs() < 1e-9);
        // Direction does not matter: a 10% drop trips the same gate.
        let drop = diff_values(&b, &a, 5.0, DEFAULT_SKIP);
        assert_eq!(drop.regressions.len(), 1);
    }

    #[test]
    fn zero_baseline_against_nonzero_always_trips() {
        let a = parse(r#"{"dropped":0}"#);
        let b = parse(r#"{"dropped":3}"#);
        let report = diff_values(&a, &b, 1000.0, DEFAULT_SKIP);
        assert_eq!(report.regressions.len(), 1);
        assert!(report.regressions[0].delta_pct.is_infinite());
    }

    #[test]
    fn missing_leaves_are_reported_on_both_sides() {
        let a = parse(r#"{"x":1,"only_a":2}"#);
        let b = parse(r#"{"x":1,"only_b":3}"#);
        let report = diff_values(&a, &b, 5.0, DEFAULT_SKIP);
        assert!(!report.is_clean());
        assert_eq!(report.compared, 1);
        assert_eq!(
            report.missing,
            vec![
                "only_a (baseline only)".to_string(),
                "only_b (candidate only)".to_string()
            ]
        );
    }

    #[test]
    fn wall_clock_sections_are_skipped_by_default() {
        let a = parse(r#"{"counters":{"a":1},"timing":{"wall_ms":100.0},"cells":{"cached":5}}"#);
        let b = parse(r#"{"counters":{"a":1},"timing":{"wall_ms":900.0},"cells":{"cached":0}}"#);
        let report = diff_values(&a, &b, 0.0, DEFAULT_SKIP);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.compared, 1);
        // With no skip list, the same documents disagree.
        assert!(!diff_values(&a, &b, 0.0, &[]).is_clean());
    }

    #[test]
    fn arrays_and_bools_are_leaves() {
        let a = parse(r#"{"slo":[{"value_ns":10.0}],"aborted":false}"#);
        let b = parse(r#"{"slo":[{"value_ns":10.0}],"aborted":true}"#);
        let report = diff_values(&a, &b, 5.0, DEFAULT_SKIP);
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].path, "aborted");
    }
}
