//! Resilience acceptance suite: overload and failure must never produce
//! a silent drop or an unlabelled wrong answer.
//!
//! The contract, pinned here end to end:
//!
//! * **Empty plan ⇒ bit-identical.** With no faults injected,
//!   [`DynamicPprServer::run_batch_resilient`] is byte-for-byte the
//!   pre-resilience exact path — same responses, same cache residency —
//!   proptest-pinned over random graphs and mixed request shapes.
//! * **Degraded ⇒ bounded.** Under an outage every answer is
//!   [`Answer::Approximate`] whose per-coordinate Hoeffding bound holds
//!   against the exact PPV, proptest-pinned.
//! * **Recovery ⇒ exact again.** Backfill drains the parked backlog and
//!   subsequent answers are bit-identical to a never-faulted twin.
//! * **No silent drops.** In the open loop every driven event resolves:
//!   `queries + shed + update_batches + rejected_batches == events`, and
//!   the whole report replays bit-identically.
//! * **Admission control is explicit.** [`PprServer::serve_bounded`]
//!   answers the admitted prefix exactly and marks the rest
//!   [`Answer::Shed`] — never truncating the reply vector.

use exact_ppr::cluster::{Cluster, FaultPlan};
use exact_ppr::core::hgpa::{HgpaBuildOptions, HgpaIndex};
use exact_ppr::core::PprConfig;
use exact_ppr::graph::generators::{hierarchical_sbm, HsbmConfig};
use exact_ppr::graph::{CsrGraph, NodeId};
use exact_ppr::partition::HierarchyConfig;
use exact_ppr::serve::{
    run_open_loop, Answer, ArrivalPattern, DynamicPprServer, OpenLoopConfig, PprServer, Request,
    Response, ServeConfig, ServeEvent, ServiceModel,
};
use exact_ppr::workload::{MixedEvent, MixedStream, MixedStreamConfig};
use proptest::prelude::*;

fn sample(n: usize, seed: u64) -> CsrGraph {
    hierarchical_sbm(
        &HsbmConfig {
            nodes: n,
            depth: 3,
            locality: 0.9,
            ..Default::default()
        },
        seed,
    )
}

fn opts(machines: usize) -> HgpaBuildOptions {
    HgpaBuildOptions {
        machines,
        hierarchy: HierarchyConfig {
            max_leaf_size: 12,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn make_server(n: usize, seed: u64) -> DynamicPprServer {
    DynamicPprServer::build(
        sample(n, seed),
        &PprConfig::default(),
        &opts(3),
        ServeConfig {
            max_batch: 4,
            ..Default::default()
        },
    )
}

/// A deterministic mixed-shape request list derived from `seed`.
fn request_mix(n: usize, seed: u64, count: usize) -> Vec<Request> {
    (0..count)
        .map(|i| {
            let u = ((seed as usize).wrapping_mul(7) + i * 13) % n;
            let u = u as NodeId;
            match i % 3 {
                0 => Request::Ppv(u),
                1 => Request::TopK { source: u, k: 8 },
                _ => Request::Preference(vec![(u, 0.7), (((u as usize + 1) % n) as NodeId, 0.3)]),
            }
        })
        .collect()
}

proptest! {
    // Default-config cases so the CI deep-test job can scale this suite
    // via PROPTEST_CASES.
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn empty_plan_is_bit_identical_to_the_exact_path(seed in 0u64..10_000) {
        let n = 60;
        let mut exact_server = make_server(n, seed);
        let mut resilient = make_server(n, seed);
        resilient.set_fault_plan(FaultPlan::empty());
        let requests = request_mix(n, seed, 12);
        for chunk in requests.chunks(4) {
            let expected = exact_server.run_batch(chunk).responses;
            let out = resilient.run_batch_resilient(chunk);
            prop_assert!(out.round_complete);
            prop_assert_eq!(out.answers.len(), expected.len());
            for (answer, resp) in out.answers.iter().zip(&expected) {
                prop_assert_eq!(answer, &Answer::Exact(resp.clone()));
            }
        }
        // Cache residency (and therefore every future answer) agrees too.
        prop_assert_eq!(exact_server.cache_len(), resilient.cache_len());
        let probe = ((seed as usize) * 11 % n) as NodeId;
        prop_assert_eq!(exact_server.query(probe), resilient.query(probe));
        prop_assert_eq!(resilient.resilience_stats().degraded_answers, 0);
        prop_assert_eq!(resilient.backlog_len(), 0);
    }

    #[test]
    fn degraded_bounds_hold_and_recovery_is_exact(seed in 0u64..10_000) {
        let n = 48;
        let mut server = make_server(n, seed);
        // Total outage of machine 0: every fan-out round is incomplete.
        server.set_fault_plan(FaultPlan::empty().fail(0, 0, u64::MAX));
        let u = ((seed as usize) % n) as NodeId;
        let out = server.run_batch_resilient(&[Request::Ppv(u)]);
        prop_assert!(!out.round_complete);
        let answer = &out.answers[0];
        prop_assert!(answer.is_approximate());
        let bound = answer.precision_bound().expect("approximate carries a bound");
        prop_assert_eq!(bound, server.degraded_bound());

        // The Hoeffding bound holds coordinate-wise against the exact PPV.
        let exact = Cluster::with_default_network().query(server.index(), u).result;
        let approx = match answer.response() {
            Some(Response::Ppv(v)) => v,
            other => panic!("Ppv request must yield a Ppv response, got {other:?}"),
        };
        for v in 0..n as NodeId {
            let err = (approx.get(v) - exact.get(v)).abs();
            prop_assert!(err <= bound + 1e-12, "v {}: err {} > bound {}", v, err, bound);
        }
        // The missing source was parked, not forgotten.
        prop_assert_eq!(server.backlog_len(), 1);

        // Recovery: the plan clears, backfill recomputes the parked
        // source exactly, and serving is bit-identical to the exact path.
        server.set_fault_plan(FaultPlan::empty());
        let bf = server.backfill(usize::MAX);
        prop_assert!(bf.round_complete);
        prop_assert_eq!(bf.recovered, 1);
        prop_assert_eq!(server.backlog_len(), 0);
        let after = server.run_batch_resilient(&[Request::Ppv(u)]);
        prop_assert_eq!(&after.answers[0], &Answer::Exact(Response::Ppv(exact)));
    }
}

#[test]
fn open_loop_resolves_every_event_under_overload_and_faults() {
    let make = || {
        let g0 = sample(90, 23);
        let mut server = DynamicPprServer::build(
            g0.clone(),
            &PprConfig::default(),
            &opts(3),
            ServeConfig {
                max_batch: 4,
                ..Default::default()
            },
        );
        // A straggler plus a crash window: rounds go slow AND incomplete.
        server.set_fault_plan(FaultPlan::empty().slow(1, 8.0).fail(2, 1, 6));
        let events: Vec<ServeEvent> = MixedStream::new(
            &g0,
            MixedStreamConfig {
                update_rate: 0.1,
                ..Default::default()
            },
            7,
        )
        .take(64)
        .into_iter()
        .map(|e| match e {
            MixedEvent::Query(u) => ServeEvent::Query(Request::Ppv(u)),
            MixedEvent::Update(batch) => ServeEvent::Update(batch),
            MixedEvent::Churn(delta) => ServeEvent::Churn(delta),
        })
        .collect();
        (server, events)
    };
    let cfg = OpenLoopConfig {
        arrival_rate: 1_200.0, // past saturation: shedding must engage
        seed: 3,
        service: ServiceModel::modeled_default(),
        pattern: ArrivalPattern::Bursty {
            period_events: 16,
            on_events: 8,
            peak: 6.0,
        },
        queue_cap: Some(6),
        slo_ms: Some(2.0),
        ..Default::default()
    };
    let (mut s1, ev1) = make();
    let r1 = run_open_loop(&mut s1, &ev1, &cfg);

    // No silent drops: every driven event resolved exactly one way.
    assert_eq!(
        r1.queries + r1.shed + r1.update_batches + r1.rejected_batches,
        ev1.len()
    );
    assert!(r1.shed > 0, "cap 6 under 6x bursts must shed");
    assert!(r1.degraded_answers > 0, "SLO 2ms under faults must degrade");
    assert!(r1.degraded_answers <= r1.queries);
    assert_eq!(r1.p99_shed_ms, 0.0, "fail-fast admission rejects at arrival");
    assert!(r1.max_queue_depth <= 6 + 1, "cap bounds the queue (plus one write)");
    // Per-class percentiles stay ordered within the overall spread.
    assert!(r1.p99_exact_ms <= r1.max_sojourn_ms + 1e-9);
    assert!(r1.p99_approx_ms <= r1.max_sojourn_ms + 1e-9);

    // The whole faulted, shedding, degrading run replays bit-identically.
    let (mut s2, ev2) = make();
    assert_eq!(r1, run_open_loop(&mut s2, &ev2, &cfg));
    assert_eq!(
        s1.resilience_stats().degraded_answers,
        s2.resilience_stats().degraded_answers
    );
}

#[test]
fn serve_bounded_sheds_the_tail_explicitly() {
    let g = sample(80, 11);
    let idx = HgpaIndex::build(&g, &PprConfig::default(), &opts(3));
    let requests = request_mix(80, 11, 10);

    let mut reference = PprServer::new(&idx, ServeConfig::default());
    let expected = reference.serve(&requests[..4]);

    let mut server = PprServer::new(&idx, ServeConfig::default());
    let answers = server.serve_bounded(&requests, 4);
    assert_eq!(answers.len(), requests.len(), "one answer per request");
    for (answer, resp) in answers[..4].iter().zip(&expected) {
        assert_eq!(answer, &Answer::Exact(resp.clone()), "admitted prefix is exact");
    }
    assert!(answers[4..].iter().all(Answer::is_shed), "the tail is shed, not dropped");

    // A cap beyond the batch sheds nothing.
    let mut server = PprServer::new(&idx, ServeConfig::default());
    let all = server.serve_bounded(&requests[..4], 100);
    assert!(all.iter().all(Answer::is_exact));
}
