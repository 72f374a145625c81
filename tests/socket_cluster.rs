//! Socket-transport gate: the real multi-process cluster must answer
//! **bit-identically** to the modeled in-process transport — on plain
//! fan-outs, across epoch barriers, and through worker crashes with
//! supervised restarts. Measured wire bytes must equal the shared frame
//! formula the modeled transport counts with.

use exact_ppr::cluster::{Cluster, SocketCluster, SocketConfig};
use exact_ppr::prelude::*;
use exact_ppr::serve::DynamicPprServer;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn worker_command() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_ppr-worker").to_string()]
}

fn sample(nodes: usize, seed: u64) -> CsrGraph {
    hierarchical_sbm(
        &HsbmConfig {
            nodes,
            depth: 3,
            locality: 0.9,
            ..Default::default()
        },
        seed,
    )
}

fn build_index(g: &CsrGraph, machines: usize) -> HgpaIndex {
    let cfg = PprConfig {
        epsilon: 1e-7,
        ..Default::default()
    };
    HgpaIndex::build(
        g,
        &cfg,
        &HgpaBuildOptions {
            machines,
            ..Default::default()
        },
    )
}

fn scratch_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ppr-socket-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(format!("{name}-{}.pprx", std::process::id()))
}

fn launch(name: &str, index: &HgpaIndex, g: &CsrGraph, chaos: Vec<String>) -> Arc<SocketCluster> {
    let mut config = SocketConfig::new(index.machines(), worker_command(), scratch_path(name));
    config.chaos = chaos;
    Arc::new(SocketCluster::launch(config, index, g, 0).expect("launch socket cluster"))
}

fn bits_equal(a: &SparseVector, b: &SparseVector) -> bool {
    a.nnz() == b.nnz()
        && a.iter()
            .zip(b.iter())
            .all(|((ia, va), (ib, vb))| ia == ib && va.to_bits() == vb.to_bits())
}

/// `kill -0` probes liveness without signalling; failure (ESRCH) means
/// the process is gone.
fn process_alive(pid: u32) -> bool {
    std::process::Command::new("kill")
        .args(["-0", &pid.to_string()])
        .status()
        .expect("spawn kill")
        .success()
}

/// Plain fan-outs: batch, preference, and resilient rounds all answer
/// bit-identically over the wire, and every machine's *measured* frame
/// size equals the *modeled* byte count — one formula, two transports.
#[test]
fn socket_rounds_are_bit_identical_to_modeled_and_bytes_match() {
    let g = sample(220, 11);
    let idx = build_index(&g, 4);
    let modeled = Cluster::with_default_network();
    let mut socketed = Cluster::with_default_network();
    let sock = launch("plain", &idx, &g, Vec::new());
    socketed.attach_socket(sock.clone());

    let sources = [0u32, 17, 119, 219];
    let a = modeled.query_many(&idx, &sources);
    let b = socketed.query_many(&idx, &sources);
    assert_eq!(a.results.len(), b.results.len());
    for (va, vb) in a.results.iter().zip(&b.results) {
        assert!(bits_equal(va, vb), "batch answers diverged");
    }
    // Satellite gate: modeled bytes (shared frame formula) == measured
    // bytes (what actually crossed the socket), machine by machine.
    for (ma, mb) in a.machines.iter().zip(&b.machines) {
        assert_eq!(ma.bytes_sent, mb.bytes_sent, "modeled != measured bytes");
        assert_eq!(ma.entries, mb.entries);
    }

    let pref = [(3u32, 0.7), (140u32, 0.3)];
    let pa = modeled.query_preference(&idx, &pref);
    let pb = socketed.query_preference(&idx, &pref);
    assert!(bits_equal(&pa.result, &pb.result), "preference diverged");
    assert_eq!(pa.total_bytes(), pb.total_bytes());

    // The resilient path reports a complete round with per-machine
    // attempt counts of 1 on a healthy cluster and sheds nothing.
    let ra = modeled.try_query_many(&idx, &sources);
    let rb = socketed.try_query_many(&idx, &sources);
    assert!(rb.complete());
    for (va, vb) in ra.results.iter().zip(&rb.results) {
        assert!(bits_equal(va, vb), "resilient answers diverged");
    }
    for o in &rb.outcome.machines {
        assert!(o.answered);
        assert_eq!(o.attempts, 1);
    }
    assert_eq!(rb.modeled_fault_seconds, 0.0);

    // Measured wire traffic is visible and frame-accounted.
    let metrics = sock.metrics();
    assert!(metrics.bytes_received > 0);
    assert!(metrics.frames_received >= 12, "3 rounds x 4 machines");
    assert_eq!(sock.supervisor_stats().restarts, 0);
}

/// `kill -9` a worker between rounds: the supervisor detects the corpse,
/// cold-starts a replacement from the persisted snapshot, and the next
/// round is bit-identical to a cluster that never crashed.
#[test]
fn sigkill_between_rounds_recovers_bit_identically() {
    let g = sample(180, 23);
    let idx = build_index(&g, 3);
    let modeled = Cluster::with_default_network();
    let mut socketed = Cluster::with_default_network();
    let sock = launch("sigkill", &idx, &g, Vec::new());
    socketed.attach_socket(sock.clone());

    let sources = [5u32, 42, 160];
    let before = socketed.query_many(&idx, &sources);

    // Real SIGKILL, delivered from outside the process tree's control.
    let victim = sock.worker_pids()[1].expect("machine 1 is live");
    let status = std::process::Command::new("kill")
        .args(["-9", &victim.to_string()])
        .status()
        .expect("spawn kill");
    assert!(status.success());

    // The next rounds must come back exact — the round path itself
    // detects the dead connection, restarts, and resends.
    let after = socketed.query_many(&idx, &sources);
    let reference = modeled.query_many(&idx, &sources);
    for ((vb, va), vr) in before
        .results
        .iter()
        .zip(&after.results)
        .zip(&reference.results)
    {
        assert!(bits_equal(vb, va), "crash changed the answer");
        assert!(bits_equal(va, vr), "post-recovery != modeled");
    }
    assert!(sock.supervisor_stats().restarts >= 1, "no restart recorded");
    assert!(sock.worker_pids().iter().all(Option::is_some));
}

/// `kill -9` a worker, then publish an epoch before the supervisor has
/// noticed. The broadcast reaches the survivors; the dead worker fails
/// its send or its ack and is written off, so `machines − 1` acks come
/// back. The next round restarts it from the post-delta snapshot and
/// answers bit-identically to the modeled path over the maintained index.
#[test]
fn sigkill_before_an_epoch_publish_acks_the_survivors_and_recovers() {
    let g = sample(180, 29);
    let idx = build_index(&g, 3);
    let sock = launch("publish", &idx, &g, Vec::new());
    let mut server = DynamicPprServer::from_index(g, idx, ServeConfig::default());

    let victim = sock.worker_pids()[2].expect("machine 2 is live");
    assert!(std::process::Command::new("kill")
        .args(["-9", &victim.to_string()])
        .status()
        .expect("spawn kill")
        .success());

    // Node churn always has a net effect, so this is a real barrier.
    let delta = GraphDelta {
        nodes: vec![NodeUpdate::Add],
        edges: vec![EdgeUpdate::Insert(180, 5), EdgeUpdate::Insert(7, 180)],
    };
    let epoch = server.apply_delta(&delta).expect("valid churn batch").epoch;
    assert_eq!(epoch, 1);
    let acks = sock
        .publish_epoch(server.index(), server.graph(), &delta, epoch)
        .expect("snapshot written");
    assert_eq!(acks, sock.machines() - 1, "every survivor acks");
    assert_eq!(sock.worker_pids()[2], None, "dead worker written off");
    assert_eq!(sock.epoch(), epoch);

    let modeled = Cluster::with_default_network();
    let mut socketed = Cluster::with_default_network();
    socketed.attach_socket(sock.clone());
    let sources = [5u32, 7, 90, 180];
    let got = socketed.query_many(server.index(), &sources);
    let want = modeled.query_many(server.index(), &sources);
    for (vg, vw) in got.results.iter().zip(&want.results) {
        assert!(bits_equal(vg, vw), "post-publish round != modeled");
    }
    assert_eq!(sock.supervisor_stats().restarts, 1, "one restart");
    assert!(sock.worker_pids().iter().all(Option::is_some));
}

/// A worker armed to abort on receiving its Nth request dies *mid-batch*
/// (after the coordinator committed the round, before replying). The
/// supervisor must restart it from the snapshot and resend within the
/// same round — the caller never sees anything but exact answers.
#[test]
fn crash_mid_batch_is_restarted_and_resent_within_the_round() {
    let g = sample(160, 31);
    let idx = build_index(&g, 3);
    let modeled = Cluster::with_default_network();
    let mut socketed = Cluster::with_default_network();
    // Machine 2 dies on its second request (mid-batch of round 2).
    let chaos = vec![
        String::new(),
        String::new(),
        "kill-after-requests:2".to_string(),
    ];
    let sock = launch("midbatch", &idx, &g, chaos);
    socketed.attach_socket(sock.clone());

    let sources = [1u32, 77, 150];
    for round in 0..3 {
        let got = socketed.query_many(&idx, &sources);
        let want = modeled.query_many(&idx, &sources);
        for (vg, vw) in got.results.iter().zip(&want.results) {
            assert!(bits_equal(vg, vw), "round {round} diverged");
        }
    }
    let stats = sock.supervisor_stats();
    assert!(stats.restarts >= 1, "mid-batch crash never restarted");
}

/// A worker that answers with a corrupt frame is treated exactly like a
/// crashed one: the bad frame is an error (not a panic), the worker is
/// recycled, and the resent request yields the exact answer.
#[test]
fn corrupt_reply_frame_is_recycled_not_trusted() {
    let g = sample(150, 41);
    let idx = build_index(&g, 3);
    let modeled = Cluster::with_default_network();
    let mut socketed = Cluster::with_default_network();
    let chaos = vec![String::new(), "garbage-reply:2".to_string(), String::new()];
    let sock = launch("garbage", &idx, &g, chaos);
    socketed.attach_socket(sock.clone());

    let sources = [9u32, 80];
    for round in 0..3 {
        let got = socketed.query_many(&idx, &sources);
        let want = modeled.query_many(&idx, &sources);
        for (vg, vw) in got.results.iter().zip(&want.results) {
            assert!(bits_equal(vg, vw), "round {round} diverged");
        }
    }
    assert!(sock.supervisor_stats().restarts >= 1);
}

/// A machine that *exhausts* its socket attempts — killed, and unable
/// to cold-start again because the snapshot is gone — is the one place
/// the round's two failure policies differ. The exact entry points
/// compute the missing share locally (same bits, bytes through the
/// shared frame formula); the resilient ones report it missing, and the
/// serving layer degrades with a bound and parks the sources.
#[test]
fn exhausted_machine_is_computed_locally_or_reported_missing() {
    let g = sample(160, 71);
    let idx = build_index(&g, 3);
    let mut config = SocketConfig::new(idx.machines(), worker_command(), scratch_path("exhaust"));
    config.handshake_deadline = std::time::Duration::from_millis(500);
    let index_path = config.index_path.clone();
    let sock = Arc::new(SocketCluster::launch(config, &idx, &g, 0).expect("launch socket cluster"));
    let modeled = Cluster::with_default_network();
    let mut socketed = Cluster::with_default_network();
    socketed.attach_socket(sock.clone());
    let mut server = DynamicPprServer::from_index(g.clone(), idx.clone(), ServeConfig::default());
    server.attach_socket(sock.clone());

    // No snapshot, no restart: every respawn of the victim now fails.
    std::fs::remove_file(&index_path).expect("remove snapshot");
    let victim = 1usize;
    let pid = sock.worker_pids()[victim].expect("victim is live");
    assert!(std::process::Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("spawn kill")
        .success());

    // Exact path: the coordinator computes the victim's share itself.
    let sources = [2u32, 64, 159];
    let got = socketed.query_many(&idx, &sources);
    let want = modeled.query_many(&idx, &sources);
    assert!(got.complete());
    for (vg, vw) in got.results.iter().zip(&want.results) {
        assert!(bits_equal(vg, vw), "local fallback changed the answer");
    }
    for (mg, mw) in got.machines.iter().zip(&want.machines) {
        assert_eq!(
            mg.bytes_sent, mw.bytes_sent,
            "fallback bytes != frame formula"
        );
        assert_eq!(mg.entries, mw.entries);
    }

    // Resilient path: the victim is reported, never computed around.
    let partial = socketed.try_query_many(&idx, &sources);
    assert!(!partial.complete());
    assert_eq!(partial.outcome.missing(), vec![victim]);

    // Serving layer: bounded approximate answers, sources parked.
    let out = server.run_batch_resilient(&[Request::Ppv(2), Request::Ppv(64)]);
    assert!(!out.round_complete);
    assert_eq!(out.degraded_sources, 2);
    for a in &out.answers {
        assert!(a.is_approximate());
        assert_eq!(a.precision_bound(), Some(server.degraded_bound()));
    }
    assert_eq!(server.backlog_len(), 2);
    assert_eq!(server.cache_len(), 0, "nothing approximate is cached");

    assert!(sock.supervisor_stats().spawn_failures > 0);
    let survivors: Vec<u32> = sock.worker_pids().into_iter().flatten().collect();
    assert_eq!(survivors.len(), 2, "only the victim is down");
    sock.shutdown();
    for pid in survivors.into_iter().chain([pid]) {
        assert!(!process_alive(pid), "worker {pid} outlived the cluster");
    }
}

/// Shutting the cluster down leaves no orphan worker processes.
#[test]
fn shutdown_reaps_every_worker() {
    let g = sample(120, 53);
    let idx = build_index(&g, 2);
    let sock = launch("reap", &idx, &g, Vec::new());
    let pids: Vec<u32> = sock.worker_pids().into_iter().flatten().collect();
    assert_eq!(pids.len(), 2);
    sock.shutdown();
    for pid in pids {
        assert!(!process_alive(pid), "worker {pid} outlived the cluster");
    }
}

/// The serving stack end to end: two `DynamicPprServer`s fed the same
/// mixed read/write stream — one on the modeled transport, one on real
/// worker processes — must emit bit-identical responses at every step,
/// with epoch barriers published over the wire. A mid-stream SIGKILL
/// plus supervised restart must not change a single bit.
#[test]
fn dynamic_serving_over_sockets_matches_modeled_across_epochs_and_a_crash() {
    let g = sample(170, 67);
    let idx = build_index(&g, 3);
    let mut modeled =
        DynamicPprServer::from_index(g.clone(), idx.clone(), ServeConfig::default());
    let mut socketed = DynamicPprServer::from_index(g.clone(), idx, ServeConfig::default());
    let sock = launch("dynamic", socketed.index(), socketed.graph(), Vec::new());
    socketed.attach_socket(sock.clone());

    let steps: Vec<(Vec<Request>, Vec<EdgeUpdate>)> = vec![
        (vec![Request::Ppv(4), Request::TopK { source: 9, k: 5 }], vec![]),
        (
            vec![Request::Preference(vec![(3, 0.5), (90, 0.5)])],
            vec![EdgeUpdate::Insert(4, 90), EdgeUpdate::Insert(90, 4)],
        ),
        (vec![Request::Ppv(4), Request::Ppv(90)], vec![]),
        (
            vec![Request::Ppv(12)],
            vec![EdgeUpdate::Remove(4, 90), EdgeUpdate::Insert(12, 30)],
        ),
        (vec![Request::Ppv(4), Request::Ppv(12), Request::Ppv(30)], vec![]),
    ];

    for (i, (requests, updates)) in steps.iter().enumerate() {
        if i == 3 {
            // Crash a worker right before an epoch barrier + queries.
            let victim = sock.worker_pids()[0].expect("machine 0 live");
            assert!(std::process::Command::new("kill")
                .args(["-9", &victim.to_string()])
                .status()
                .expect("spawn kill")
                .success());
        }
        if !updates.is_empty() {
            let a = modeled.apply_updates(updates).expect("modeled update");
            let b = socketed.apply_updates(updates).expect("socketed update");
            assert_eq!(a.epoch, b.epoch, "step {i} epochs diverged");
            assert!(
                socketed.socket().is_some(),
                "step {i}: transport must survive the barrier"
            );
        }
        let ra = modeled.run_batch(requests).responses;
        let rb = socketed.run_batch(requests).responses;
        assert_eq!(ra.len(), rb.len());
        for (qa, qb) in ra.iter().zip(&rb) {
            assert!(responses_bits_equal(qa, qb), "step {i} diverged");
        }
    }
    assert_eq!(sock.epoch(), socketed.epoch());
    assert!(sock.supervisor_stats().restarts >= 1);
}

fn responses_bits_equal(a: &Response, b: &Response) -> bool {
    match (a, b) {
        (Response::Ppv(x), Response::Ppv(y)) => bits_equal(x, y),
        (Response::TopK(x), Response::TopK(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((ia, va), (ib, vb))| ia == ib && va.to_bits() == vb.to_bits())
        }
        _ => false,
    }
}

// Property gate: on random graphs and random mixed read/write streams —
// including a mid-stream SIGKILL with supervised restart — the socket
// transport reproduces the modeled transport bit for bit: every query
// answer, every epoch. This is the acceptance pin for the transport
// abstraction: `Modeled` and `Socket` are the same cluster. The default
// case count is small (each case boots a real worker fleet); CI's deep
// lane raises it through `PROPTEST_CASES`.
proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(4),
    })]
    #[test]
    fn random_mixed_streams_are_bit_identical_across_transports(
        nodes in 70usize..130,
        script in proptest::collection::vec((0u64..1_000_000, 0u8..5), 3..8),
        seed in 0u64..1_000_000,
    ) {
        run_random_stream(nodes, &script, seed);
    }
}

fn run_random_stream(nodes: usize, script: &[(u64, u8)], seed: u64) {
    let g = sample(nodes, seed);
    let idx = build_index(&g, 3);
    let mut modeled =
        DynamicPprServer::from_index(g.clone(), idx.clone(), ServeConfig::default());
    let mut socketed = DynamicPprServer::from_index(g.clone(), idx, ServeConfig::default());
    let sock = launch("prop", socketed.index(), socketed.graph(), Vec::new());
    socketed.attach_socket(sock.clone());

    for (i, &(r, kind)) in script.iter().enumerate() {
        let n = socketed.graph().node_count() as u32;
        let a = (r % n as u64) as u32;
        let b = ((r / 7) % n as u64) as u32;
        match kind {
            // Reads: single PPV, preference pair, top-k.
            0 => {
                let reqs = [Request::Ppv(a), Request::Ppv(b)];
                let ra = modeled.run_batch(&reqs).responses;
                let rb = socketed.run_batch(&reqs).responses;
                for (qa, qb) in ra.iter().zip(&rb) {
                    assert!(responses_bits_equal(qa, qb), "step {i} read diverged");
                }
            }
            1 => {
                let reqs = [Request::Preference(vec![(a, 0.4), (b, 0.6)])];
                let ra = modeled.run_batch(&reqs).responses;
                let rb = socketed.run_batch(&reqs).responses;
                assert!(
                    responses_bits_equal(&ra[0], &rb[0]),
                    "step {i} preference diverged"
                );
            }
            // Chaos: SIGKILL a random worker mid-stream. The supervisor
            // must restart it from the snapshot; nothing downstream may
            // notice (every later step still asserts bit-identity).
            2 => {
                let machine = (r % sock.machines() as u64) as usize;
                if let Some(pid) = sock.worker_pids()[machine] {
                    let killed = std::process::Command::new("kill")
                        .args(["-9", &pid.to_string()])
                        .status()
                        .expect("spawn kill")
                        .success();
                    assert!(killed, "step {i}: kill -9 failed");
                }
            }
            // Writes: insert or remove an edge (no-ops allowed; both
            // replicas must agree they are no-ops).
            3 => {
                let upd = [EdgeUpdate::Insert(a, b)];
                let ea = modeled.apply_updates(&upd);
                let eb = socketed.apply_updates(&upd);
                assert_eq!(ea.is_ok(), eb.is_ok(), "step {i} insert verdicts");
                assert_eq!(modeled.epoch(), socketed.epoch(), "step {i} epochs");
            }
            _ => {
                let upd = [EdgeUpdate::Remove(a, b)];
                let ea = modeled.apply_updates(&upd);
                let eb = socketed.apply_updates(&upd);
                assert_eq!(ea.is_ok(), eb.is_ok(), "step {i} remove verdicts");
                assert_eq!(modeled.epoch(), socketed.epoch(), "step {i} epochs");
            }
        }
    }
    // Close with a read sweep so every epoch's state is re-verified.
    let reqs = [Request::Ppv(0), Request::Ppv(1), Request::Ppv(2)];
    let ra = modeled.run_batch(&reqs).responses;
    let rb = socketed.run_batch(&reqs).responses;
    for (qa, qb) in ra.iter().zip(&rb) {
        assert!(responses_bits_equal(qa, qb), "final sweep diverged");
    }
}
