//! Channel-capacity sweeps: the bit-period/error trade-off behind the
//! paper's "best parameter combinations" (footnotes 10–11).
//!
//! Shortening the bit period raises the raw bandwidth but starves the
//! receiver of samples per bit, raising the error rate; the *effective*
//! bandwidth `BW·(1−H₂(p))` peaks at an interior optimum. This module
//! sweeps the period and reports the curve and its optimum — exactly the
//! calibration the paper's authors performed per NIC.

use crate::covert::runner::UliChannelConfig;
use crate::covert::{inter_mr, intra_mr, random_bits};
use rdma_verbs::DeviceKind;
use sim_core::SimDuration;

/// One operating point of the capacity sweep.
#[derive(Debug, Clone, Copy)]
pub struct CapacityPoint {
    /// Bit period.
    pub bit_period_ns: u64,
    /// Raw bandwidth (1 / period), bits per second.
    pub raw_bps: f64,
    /// Measured bit error rate.
    pub error_rate: f64,
    /// Effective bandwidth `raw · (1 − H₂(p))`.
    pub effective_bps: f64,
}

/// Which ULI channel to sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UliChannel {
    /// The Grain-III inter-MR channel.
    InterMr,
    /// The Grain-IV intra-MR channel.
    IntraMr,
}

/// Sweeps the bit period of a ULI channel on `kind` and returns the
/// capacity curve.
pub fn capacity_sweep(
    kind: DeviceKind,
    channel: UliChannel,
    periods_ns: &[u64],
    bits_per_point: usize,
) -> Vec<CapacityPoint> {
    let payload = random_bits(bits_per_point, 0xCAFE);
    periods_ns
        .iter()
        .map(|&p| {
            let base = match channel {
                UliChannel::InterMr => inter_mr::default_config(kind),
                UliChannel::IntraMr => intra_mr::default_config(kind),
            };
            let cfg = UliChannelConfig {
                bit_period: SimDuration::from_nanos(p),
                ..base
            };
            let run = match channel {
                UliChannel::InterMr => inter_mr::run(kind, &payload, &cfg),
                UliChannel::IntraMr => intra_mr::run(kind, &payload, &cfg),
            };
            CapacityPoint {
                bit_period_ns: p,
                raw_bps: run.report.raw_bandwidth_bps,
                error_rate: run.report.error_rate(),
                effective_bps: run.report.effective_bandwidth_bps(),
            }
        })
        .collect()
}

/// The sweep point with the highest effective bandwidth.
///
/// # Panics
///
/// Panics if `points` is empty.
pub fn best_operating_point(points: &[CapacityPoint]) -> CapacityPoint {
    *points
        .iter()
        .max_by(|a, b| {
            a.effective_bps
                .partial_cmp(&b.effective_bps)
                .expect("finite bandwidths")
        })
        .expect("non-empty sweep")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shorter_periods_raise_raw_bandwidth_and_errors() {
        let points = capacity_sweep(
            DeviceKind::ConnectX4,
            UliChannel::InterMr,
            &[8_000, 31_400, 120_000],
            64,
        );
        assert!(points[0].raw_bps > points[1].raw_bps);
        assert!(points[1].raw_bps > points[2].raw_bps);
        // The over-clocked point must be noticeably worse in error rate
        // than the generous one.
        assert!(
            points[0].error_rate >= points[2].error_rate,
            "faster clocking cannot reduce errors: {points:?}"
        );
        // The calibrated Table-V period must be usable.
        assert!(points[1].error_rate < 0.1);
    }

    #[test]
    fn best_point_maximizes_effective_bandwidth() {
        let points = vec![
            CapacityPoint {
                bit_period_ns: 10_000,
                raw_bps: 100_000.0,
                error_rate: 0.4,
                effective_bps: 2_900.0,
            },
            CapacityPoint {
                bit_period_ns: 30_000,
                raw_bps: 33_000.0,
                error_rate: 0.02,
                effective_bps: 28_300.0,
            },
        ];
        assert_eq!(best_operating_point(&points).bit_period_ns, 30_000);
    }
}
