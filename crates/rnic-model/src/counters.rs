//! `ethtool`-style NIC counters.
//!
//! These are the observables of the paper's granularity taxonomy (§II-D):
//!
//! * **Grain-I** — per-port bytes/packets (native bps/pps counters);
//! * **Grain-II** — per-traffic-class and per-opcode counts (what
//!   HARMONIC monitors);
//! * **Grain-III** — RDMA-resource utilization (TPU accesses, PCIe bytes,
//!   per-flow activity).
//!
//! Grain-IV (addresses) is deliberately *not* counted by any production
//! NIC — which is exactly why the paper's Grain-IV attacks are stealthy.

use crate::types::{FlowId, Opcode, TrafficClass};
use sim_core::FxHashMap;

/// Monotonic counters for one NIC.
#[derive(Debug, Clone, Default)]
pub struct NicCounters {
    /// Transmitted wire bytes (Grain-I).
    pub tx_bytes: u64,
    /// Transmitted packets (Grain-I).
    pub tx_packets: u64,
    /// Received wire bytes (Grain-I).
    pub rx_bytes: u64,
    /// Received packets (Grain-I).
    pub rx_packets: u64,
    /// Per-traffic-class transmitted bytes (Grain-II).
    pub tx_bytes_per_tc: [u64; TrafficClass::COUNT],
    /// Per-traffic-class received bytes (Grain-II).
    pub rx_bytes_per_tc: [u64; TrafficClass::COUNT],
    /// Requests issued per opcode (Grain-II; HARMONIC's opcode counters).
    pub requests_per_opcode: [u64; Opcode::COUNT],
    /// Inbound requests served per opcode (Grain-II).
    pub responder_ops_per_opcode: [u64; Opcode::COUNT],
    /// Translation-unit lookups (Grain-III resource counter).
    pub tpu_lookups: u64,
    /// DMA bytes moved over PCIe, both directions (Grain-III).
    pub pcie_bytes: u64,
    /// WQEs fetched (doorbells served).
    pub wqes_fetched: u64,
    /// Completions delivered.
    pub cqes_delivered: u64,
    /// NAKs generated (protection violations observed).
    pub naks_sent: u64,
    /// Messages retransmitted after a timeout (loss recovery).
    pub retransmits: u64,
    /// Outbound packets lost on the wire after leaving this NIC
    /// (per-direction attribution of fabric drops).
    pub wire_tx_dropped: u64,
    /// Inbound packets lost on the wire before reaching this NIC.
    pub wire_rx_dropped: u64,
    /// Inbound packets discarded by the ICRC check (payload corruption).
    pub icrc_rx_dropped: u64,
    /// Inbound data segments discarded for arriving out of order
    /// (go-back-N: the requester must retransmit the whole message).
    pub rx_out_of_order_dropped: u64,
    /// Inbound packets discarded as duplicates (replayed requests or
    /// responses to already-completed messages).
    pub rx_duplicate_dropped: u64,
    /// Receiver-not-ready NAKs absorbed by the retry budget.
    pub rnr_naks: u64,
    /// WQEs flushed with [`crate::CqeStatus::Flushed`] when a QP entered
    /// the Error state.
    pub wqes_flushed: u64,
    /// QPs that transitioned into the Error state.
    pub qp_fatal_errors: u64,
    /// Per-flow transmitted payload bytes (Grain-III bookkeeping for
    /// experiments and the HARMONIC detector).
    pub tx_payload_per_flow: FxHashMap<FlowId, u64>,
}

impl NicCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot for windowed rate computation and the per-cell metrics
    /// report.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            tx_bytes: self.tx_bytes,
            tx_packets: self.tx_packets,
            rx_bytes: self.rx_bytes,
            rx_packets: self.rx_packets,
            tx_bytes_per_tc: self.tx_bytes_per_tc,
            rx_bytes_per_tc: self.rx_bytes_per_tc,
            requests_per_opcode: self.requests_per_opcode,
            tpu_lookups: self.tpu_lookups,
            pcie_bytes: self.pcie_bytes,
            naks_sent: self.naks_sent,
            retransmits: self.retransmits,
            rnr_naks: self.rnr_naks,
            wire_tx_dropped: self.wire_tx_dropped,
            wire_rx_dropped: self.wire_rx_dropped,
            icrc_rx_dropped: self.icrc_rx_dropped,
            rx_out_of_order_dropped: self.rx_out_of_order_dropped,
            rx_duplicate_dropped: self.rx_duplicate_dropped,
            wqes_flushed: self.wqes_flushed,
            qp_fatal_errors: self.qp_fatal_errors,
            cqes_delivered: self.cqes_delivered,
        }
    }

    /// Per-flow payload bytes transmitted (zero if unseen).
    pub fn flow_tx_payload(&self, flow: FlowId) -> u64 {
        self.tx_payload_per_flow.get(&flow).copied().unwrap_or(0)
    }

    pub(crate) fn note_flow_payload(&mut self, flow: FlowId, bytes: u64) {
        *self.tx_payload_per_flow.entry(flow).or_insert(0) += bytes;
    }
}

/// A point-in-time copy of the rate-relevant counters, including the
/// per-direction dropped-packet attribution and retry/NAK budget
/// observables of the error-state machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Transmitted wire bytes.
    pub tx_bytes: u64,
    /// Transmitted packets.
    pub tx_packets: u64,
    /// Received wire bytes.
    pub rx_bytes: u64,
    /// Received packets.
    pub rx_packets: u64,
    /// Per-TC transmitted bytes.
    pub tx_bytes_per_tc: [u64; TrafficClass::COUNT],
    /// Per-TC received bytes.
    pub rx_bytes_per_tc: [u64; TrafficClass::COUNT],
    /// Requests per opcode.
    pub requests_per_opcode: [u64; Opcode::COUNT],
    /// TPU lookups.
    pub tpu_lookups: u64,
    /// PCIe DMA bytes.
    pub pcie_bytes: u64,
    /// NAKs generated.
    pub naks_sent: u64,
    /// Timeout retransmissions.
    pub retransmits: u64,
    /// Receiver-not-ready NAKs absorbed.
    pub rnr_naks: u64,
    /// Outbound packets lost on the wire after leaving this NIC.
    pub wire_tx_dropped: u64,
    /// Inbound packets lost on the wire before reaching this NIC.
    pub wire_rx_dropped: u64,
    /// Inbound packets discarded by the ICRC check.
    pub icrc_rx_dropped: u64,
    /// Inbound segments discarded for arriving out of order.
    pub rx_out_of_order_dropped: u64,
    /// Inbound packets discarded as duplicates.
    pub rx_duplicate_dropped: u64,
    /// WQEs flushed when a QP entered the Error state.
    pub wqes_flushed: u64,
    /// QPs that transitioned into the Error state.
    pub qp_fatal_errors: u64,
    /// Completions delivered.
    pub cqes_delivered: u64,
}

impl CounterSnapshot {
    /// Component-wise difference `self - earlier` (saturating), giving the
    /// activity within a sampling window.
    pub fn delta(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let mut out = *self;
        out.tx_bytes = self.tx_bytes.saturating_sub(earlier.tx_bytes);
        out.tx_packets = self.tx_packets.saturating_sub(earlier.tx_packets);
        out.rx_bytes = self.rx_bytes.saturating_sub(earlier.rx_bytes);
        out.rx_packets = self.rx_packets.saturating_sub(earlier.rx_packets);
        for i in 0..TrafficClass::COUNT {
            out.tx_bytes_per_tc[i] =
                self.tx_bytes_per_tc[i].saturating_sub(earlier.tx_bytes_per_tc[i]);
            out.rx_bytes_per_tc[i] =
                self.rx_bytes_per_tc[i].saturating_sub(earlier.rx_bytes_per_tc[i]);
        }
        for i in 0..Opcode::COUNT {
            out.requests_per_opcode[i] =
                self.requests_per_opcode[i].saturating_sub(earlier.requests_per_opcode[i]);
        }
        out.tpu_lookups = self.tpu_lookups.saturating_sub(earlier.tpu_lookups);
        out.pcie_bytes = self.pcie_bytes.saturating_sub(earlier.pcie_bytes);
        out.naks_sent = self.naks_sent.saturating_sub(earlier.naks_sent);
        out.retransmits = self.retransmits.saturating_sub(earlier.retransmits);
        out.rnr_naks = self.rnr_naks.saturating_sub(earlier.rnr_naks);
        out.wire_tx_dropped = self.wire_tx_dropped.saturating_sub(earlier.wire_tx_dropped);
        out.wire_rx_dropped = self.wire_rx_dropped.saturating_sub(earlier.wire_rx_dropped);
        out.icrc_rx_dropped = self.icrc_rx_dropped.saturating_sub(earlier.icrc_rx_dropped);
        out.rx_out_of_order_dropped = self
            .rx_out_of_order_dropped
            .saturating_sub(earlier.rx_out_of_order_dropped);
        out.rx_duplicate_dropped = self
            .rx_duplicate_dropped
            .saturating_sub(earlier.rx_duplicate_dropped);
        out.wqes_flushed = self.wqes_flushed.saturating_sub(earlier.wqes_flushed);
        out.qp_fatal_errors = self.qp_fatal_errors.saturating_sub(earlier.qp_fatal_errors);
        out.cqes_delivered = self.cqes_delivered.saturating_sub(earlier.cqes_delivered);
        out
    }

    /// The scalar counters as stable `(name, value)` pairs — the shape
    /// the telemetry metrics registry folds into the per-cell report.
    /// Per-TC and per-opcode arrays are deliberately aggregate-only
    /// here; the full breakdown stays on [`NicCounters`].
    pub fn metric_entries(&self) -> [(&'static str, u64); 15] {
        [
            ("tx_bytes", self.tx_bytes),
            ("tx_packets", self.tx_packets),
            ("rx_bytes", self.rx_bytes),
            ("rx_packets", self.rx_packets),
            ("tpu_lookups", self.tpu_lookups),
            ("pcie_bytes", self.pcie_bytes),
            ("naks_sent", self.naks_sent),
            ("retransmits", self.retransmits),
            ("rnr_naks", self.rnr_naks),
            ("wire_tx_dropped", self.wire_tx_dropped),
            ("wire_rx_dropped", self.wire_rx_dropped),
            ("icrc_rx_dropped", self.icrc_rx_dropped),
            ("rx_out_of_order_dropped", self.rx_out_of_order_dropped),
            ("rx_duplicate_dropped", self.rx_duplicate_dropped),
            ("qp_fatal_errors", self.qp_fatal_errors),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta() {
        let mut c = NicCounters::new();
        c.tx_bytes = 100;
        c.tx_packets = 2;
        let early = c.snapshot();
        c.tx_bytes = 350;
        c.tx_packets = 7;
        c.tx_bytes_per_tc[3] = 50;
        let late = c.snapshot();
        let d = late.delta(&early);
        assert_eq!(d.tx_bytes, 250);
        assert_eq!(d.tx_packets, 5);
        assert_eq!(d.tx_bytes_per_tc[3], 50);
    }

    #[test]
    fn snapshot_carries_error_and_drop_attribution() {
        let mut c = NicCounters::new();
        c.naks_sent = 3;
        c.retransmits = 2;
        c.wire_tx_dropped = 5;
        c.wire_rx_dropped = 4;
        c.icrc_rx_dropped = 1;
        c.qp_fatal_errors = 1;
        let early = c.snapshot();
        c.naks_sent = 7;
        c.wire_tx_dropped = 9;
        let d = c.snapshot().delta(&early);
        assert_eq!(d.naks_sent, 4);
        assert_eq!(d.wire_tx_dropped, 4);
        assert_eq!(d.retransmits, 0);
        let entries = early.metric_entries();
        let get = |name: &str| {
            entries
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| *v)
                .expect("entry")
        };
        assert_eq!(get("naks_sent"), 3);
        assert_eq!(get("wire_tx_dropped"), 5);
        assert_eq!(get("wire_rx_dropped"), 4);
        assert_eq!(get("icrc_rx_dropped"), 1);
        assert_eq!(get("qp_fatal_errors"), 1);
    }

    #[test]
    fn flow_payload_accumulates() {
        let mut c = NicCounters::new();
        c.note_flow_payload(FlowId(1), 64);
        c.note_flow_payload(FlowId(1), 64);
        c.note_flow_payload(FlowId(2), 10);
        assert_eq!(c.flow_tx_payload(FlowId(1)), 128);
        assert_eq!(c.flow_tx_payload(FlowId(2)), 10);
        assert_eq!(c.flow_tx_payload(FlowId(3)), 0);
    }
}
