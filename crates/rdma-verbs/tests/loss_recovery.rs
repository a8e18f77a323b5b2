//! Failure injection: packet loss on the fabric, recovered by the NICs'
//! retransmission machinery.

use ragnar_chaos::{FaultEvent, FaultKind, FaultPlan, LinkSelector};
use rdma_verbs::{
    AccessFlags, ConnectOptions, CqeStatus, DeviceProfile, NakReason, RecvWqe, Simulation,
    VerbsError, WorkRequest,
};
use sim_core::SimTime;

/// Drops every packet on every link with probability `rate`, for the
/// whole run.
fn lose(sim: &mut Simulation, seed: u64, rate: f64) {
    let mut plan = FaultPlan::empty(seed);
    plan.events.push(FaultEvent {
        link: LinkSelector::Any,
        from: SimTime::ZERO,
        until: SimTime::MAX,
        kind: FaultKind::LossBurst { rate },
    });
    sim.install_fault_plan(&plan);
}

fn lossy_pair(seed: u64, loss: f64) -> (Simulation, rdma_verbs::QpHandle, rdma_verbs::MrHandle) {
    let mut sim = Simulation::new(seed);
    let a = sim.add_host(DeviceProfile::connectx5());
    let b = sim.add_host(DeviceProfile::connectx5());
    let pd_a = sim.alloc_pd(a);
    let pd_b = sim.alloc_pd(b);
    let mr = sim.register_mr(b, pd_b, 1 << 21, AccessFlags::remote_all());
    let (qp, _) = sim.connect(
        a,
        pd_a,
        b,
        pd_b,
        ConnectOptions {
            max_send_queue: 64,
            ..ConnectOptions::default()
        },
    );
    lose(&mut sim, seed, loss);
    (sim, qp, mr)
}

#[test]
fn reads_survive_heavy_loss() {
    let (mut sim, qp, mr) = lossy_pair(17, 0.15);
    sim.write_memory(mr.host, mr.addr(0), b"lossy but alive");
    let n = 40u64;
    for i in 0..n {
        sim.post_send(
            qp,
            WorkRequest::read(i, 0x1000 + i * 64, mr.addr(0), mr.key, 15),
        )
        .expect("post");
    }
    sim.run_until(SimTime::from_secs(2));
    let done = sim.take_completions();
    assert_eq!(done.len() as u64, n, "every read eventually completes");
    assert!(done.iter().all(|(_, c)| c.status == CqeStatus::Success));
    // Loss actually happened, and recovery actually ran.
    assert!(sim.dropped_packets() > 0, "fabric dropped packets");
    assert!(
        sim.nic(qp.host).counters().retransmits > 0,
        "requester retransmitted"
    );
    // Data still correct.
    for i in 0..n {
        assert_eq!(
            sim.read_memory(qp.host, 0x1000 + i * 64, 15),
            b"lossy but alive"
        );
    }
}

#[test]
fn writes_survive_loss_and_place_data_once() {
    let (mut sim, qp, mr) = lossy_pair(23, 0.2);
    let payload: Vec<u8> = (0..9000u32).map(|i| (i % 253) as u8).collect();
    sim.write_memory(qp.host, 0x40_0000, &payload);
    sim.post_send(
        qp,
        WorkRequest::write(1, 0x40_0000, mr.addr(0), mr.key, payload.len() as u64),
    )
    .expect("post");
    sim.run_until(SimTime::from_secs(2));
    let done = sim.take_completions();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].1.status, CqeStatus::Success);
    assert_eq!(
        sim.read_memory(mr.host, mr.addr(0), payload.len() as u64),
        payload
    );
}

#[test]
fn atomics_execute_exactly_once_under_loss() {
    // The responder's replay cache must make retransmitted atomics
    // idempotent: N fetch-adds of 1 leave the counter at exactly N.
    let (mut sim, qp, mr) = lossy_pair(31, 0.25);
    sim.memory_mut(mr.host).write_u64(mr.addr(0), 0);
    let n = 30u64;
    for i in 0..n {
        sim.post_send(qp, WorkRequest::fetch_add(i, 0x1000, mr.addr(0), mr.key, 1))
            .expect("post");
    }
    sim.run_until(SimTime::from_secs(3));
    let done = sim.take_completions();
    assert_eq!(done.len() as u64, n);
    assert!(done.iter().all(|(_, c)| c.status == CqeStatus::Success));
    assert!(
        sim.nic(qp.host).counters().retransmits > 0,
        "loss exercised"
    );
    assert_eq!(
        sim.nic(mr.host).memory().read_u64(mr.addr(0)),
        n,
        "exactly-once atomic execution"
    );
    // Old values form a permutation of 0..n (each increment observed a
    // distinct predecessor state).
    let mut olds: Vec<u64> = done.iter().map(|(_, c)| c.atomic_old_value).collect();
    olds.sort_unstable();
    assert_eq!(olds, (0..n).collect::<Vec<_>>());
}

#[test]
fn total_loss_exhausts_retries() {
    // A fully dead fabric (loss rate 1.0) exhausts the retry
    // budget with exponential backoff, errors the QP, and the verbs
    // recovery ladder brings it back.
    let (mut sim, qp, mr) = lossy_pair(5, 1.0);
    sim.post_send(qp, WorkRequest::read(1, 0x1000, mr.addr(0), mr.key, 64))
        .expect("post");
    sim.run_until(SimTime::from_secs(5));
    let done = sim.take_completions();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].1.status, CqeStatus::RetryExceeded);
    // The fatal error put the QP into the Error state: posts bounce.
    assert!(sim.qp_in_error(qp));
    let err = sim
        .post_send(qp, WorkRequest::read(2, 0x1000, mr.addr(0), mr.key, 64))
        .expect_err("error-state QP rejects posts");
    assert_eq!(err, VerbsError::QpInError);
    // Recover and verify the QP works again on a healthy fabric.
    sim.clear_fault_plan();
    sim.recover_qp(qp).expect("recover after drain");
    assert!(!sim.qp_in_error(qp));
    sim.post_send(qp, WorkRequest::read(2, 0x1000, mr.addr(0), mr.key, 64))
        .expect("slot released after retry exhaustion");
    sim.run_until(SimTime::from_secs(6));
    let redone = sim.take_completions();
    assert_eq!(redone.len(), 1);
    assert_eq!(redone[0].1.status, CqeStatus::Success);
}

#[test]
fn out_of_bounds_nak_under_loss_keeps_qp_usable() {
    // Protection NAKs (the paper's snooping probe mechanism) must keep
    // flowing — and must not error the QP — even while the fabric drops
    // packets and the NAKs themselves need retransmitted requests.
    let (mut sim, qp, mr) = lossy_pair(41, 0.2);
    sim.write_memory(mr.host, mr.addr(0), b"good");
    let n = 12u64;
    for i in 0..n {
        // Even wr_ids probe past the MR's end; odd ones are valid.
        let remote = if i % 2 == 0 {
            mr.addr(mr.len - 8)
        } else {
            mr.addr(0)
        };
        sim.post_send(
            qp,
            WorkRequest::read(i, 0x1000 + i * 64, remote, mr.key, 64),
        )
        .expect("post");
    }
    sim.run_until(SimTime::from_secs(2));
    let done = sim.take_completions();
    assert_eq!(done.len() as u64, n, "every probe completes, NAK or not");
    for (_, cqe) in &done {
        let want = if cqe.wr_id % 2 == 0 {
            CqeStatus::RemoteError(NakReason::OutOfBounds)
        } else {
            CqeStatus::Success
        };
        assert_eq!(cqe.status, want, "wr {}", cqe.wr_id);
    }
    // Access violations are not transport failures: the QP stays Ready.
    assert!(!sim.qp_in_error(qp));
    assert!(sim.dropped_packets() > 0, "loss ran concurrently");
}

#[test]
fn send_without_recv_exhausts_rnr_budget_then_recovers() {
    // A Send into an empty receive queue draws RNR NAKs; once the
    // rnr_retry budget is spent the QP takes a fatal ReceiveNotPosted
    // and lands in Error — recoverable through the same verbs ladder as
    // retry exhaustion. Concurrent loss must not double-count budget.
    let mut sim = Simulation::new(47);
    let a = sim.add_host(DeviceProfile::connectx5());
    let b = sim.add_host(DeviceProfile::connectx5());
    let pd_a = sim.alloc_pd(a);
    let pd_b = sim.alloc_pd(b);
    let _mr = sim.register_mr(b, pd_b, 1 << 21, AccessFlags::remote_all());
    let (qp, peer) = sim.connect(a, pd_a, b, pd_b, ConnectOptions::default());
    lose(&mut sim, 47, 0.1);
    sim.write_memory(a, 0x1000, b"nobody listening");
    sim.post_send(qp, WorkRequest::send(1, 0x1000, 16))
        .expect("post");
    sim.run_until(SimTime::from_secs(5));
    let done = sim.take_completions();
    assert_eq!(done.len(), 1);
    assert_eq!(
        done[0].1.status,
        CqeStatus::RemoteError(NakReason::ReceiveNotPosted)
    );
    assert!(sim.qp_in_error(qp), "RNR exhaustion is fatal");
    assert!(
        sim.nic(qp.host).counters().rnr_naks > 0,
        "budget was consumed"
    );

    // Recover, post the missing receive, and the same Send goes through.
    sim.clear_fault_plan();
    sim.recover_qp(qp).expect("recover after drain");
    sim.post_recv(
        peer,
        RecvWqe {
            wr_id: 50,
            local_addr: 0x9000,
            len: 64,
        },
    )
    .expect("post recv");
    sim.post_send(qp, WorkRequest::send(2, 0x1000, 16))
        .expect("post");
    sim.run_until(SimTime::from_secs(6));
    let redone = sim.take_completions();
    let send_cqe = redone.iter().find(|(_, c)| !c.is_recv).expect("send CQE");
    assert_eq!(send_cqe.1.status, CqeStatus::Success);
    let recv_cqe = redone.iter().find(|(_, c)| c.is_recv).expect("recv CQE");
    assert_eq!(recv_cqe.1.wr_id, 50);
    assert_eq!(sim.read_memory(b, 0x9000, 16), b"nobody listening");
}

#[test]
fn late_receive_rescues_send_within_rnr_budget() {
    // The RNR budget exists to buy the peer time: a receive posted after
    // the first NAK but before the budget runs out lets the redriven
    // Send complete with no application-visible error.
    let mut sim = Simulation::new(53);
    let a = sim.add_host(DeviceProfile::connectx5());
    let b = sim.add_host(DeviceProfile::connectx5());
    let pd_a = sim.alloc_pd(a);
    let pd_b = sim.alloc_pd(b);
    let _mr = sim.register_mr(b, pd_b, 1 << 21, AccessFlags::remote_all());
    let (qp, peer) = sim.connect(a, pd_a, b, pd_b, ConnectOptions::default());
    sim.write_memory(a, 0x1000, b"patience");
    sim.post_send(qp, WorkRequest::send(1, 0x1000, 8))
        .expect("post");
    // One RNR NAK lands well inside 100 µs (the retransmit timeout);
    // the receive shows up before the first redrive.
    sim.run_until(SimTime::from_micros(50));
    assert!(sim.take_completions().is_empty(), "send still pending");
    sim.post_recv(
        peer,
        RecvWqe {
            wr_id: 60,
            local_addr: 0xA000,
            len: 64,
        },
    )
    .expect("post recv");
    sim.run_until(SimTime::from_secs(1));
    let done = sim.take_completions();
    let send_cqe = done.iter().find(|(_, c)| !c.is_recv).expect("send CQE");
    assert_eq!(send_cqe.1.status, CqeStatus::Success);
    assert!(!sim.qp_in_error(qp));
    assert!(
        sim.nic(qp.host).counters().rnr_naks >= 1,
        "the rescue really went through the RNR path"
    );
    assert_eq!(sim.read_memory(b, 0xA000, 8), b"patience");
}

#[test]
fn lossless_fabric_never_retransmits() {
    let (mut sim, qp, mr) = lossy_pair(7, 0.0);
    for i in 0..50 {
        sim.post_send(qp, WorkRequest::read(i, 0x1000, mr.addr(0), mr.key, 256))
            .expect("post");
    }
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(sim.take_completions().len(), 50);
    assert_eq!(sim.dropped_packets(), 0);
    assert_eq!(sim.nic(qp.host).counters().retransmits, 0);
}
