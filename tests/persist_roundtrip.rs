//! Storage-tier exactness: save → load must be **bit-identical** for
//! HGPA and for GPA (the one-level HGPA) — every persisted artifact (base
//! vectors, skeleton columns, hierarchy structure, machine placement,
//! build stats) survives the round-trip unchanged on any graph — and a server
//! **cold-started** from a persisted artifact must answer any request
//! stream bit-identically to one serving the freshly built in-memory
//! index. This is the storage twin of `tests/parallel_build.rs`: the
//! paper's precompute-once / serve-forever split only holds if the
//! "once" and the "forever" see exactly the same numbers.

use exact_ppr::core::gpa::{self, GpaBuildOptions};
use exact_ppr::core::hgpa::{HgpaBuildOptions, HgpaIndex};
use exact_ppr::core::persist::{load_index, save_hgpa};
use exact_ppr::core::sparse::SparseVector;
use exact_ppr::core::PprConfig;
use exact_ppr::graph::csr::from_edges;
use exact_ppr::graph::generators::{hierarchical_sbm, HsbmConfig};
use exact_ppr::graph::CsrGraph;
use exact_ppr::partition::HierarchyConfig;
use exact_ppr::serve::{ColdStart, PprServer, Request, Response, ServeConfig};
use proptest::prelude::*;

/// Strategy: a random directed graph with 12..=80 nodes.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (12usize..=80).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 1..(n * 4));
        edges.prop_map(move |es| {
            let filtered: Vec<(u32, u32)> = es.into_iter().filter(|(u, v)| u != v).collect();
            from_edges(n, &filtered)
        })
    })
}

fn tight() -> PprConfig {
    PprConfig {
        epsilon: 1e-9,
        ..Default::default()
    }
}

/// Vectors equal down to the f64 bit pattern (stricter than `==`, which
/// would accept `-0.0 == 0.0`).
fn bits_equal(a: &SparseVector, b: &SparseVector) -> bool {
    a.nnz() == b.nnz()
        && a.iter()
            .zip(b.iter())
            .all(|((i, x), (j, y))| i == j && x.to_bits() == y.to_bits())
}

fn all_bits_equal(a: &[SparseVector], b: &[SparseVector]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits_equal(x, y))
}

/// Responses equal down to the bit pattern of every score.
fn responses_bits_equal(a: &Response, b: &Response) -> bool {
    match (a, b) {
        (Response::Ppv(x), Response::Ppv(y)) => bits_equal(x, y),
        (Response::TopK(x), Response::TopK(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((i, s), (j, t))| i == j && s.to_bits() == t.to_bits())
        }
        _ => false,
    }
}

/// Turn raw proptest triples into the serving request mix.
fn requests_from(n: usize, raw: &[(u32, u32, u8)]) -> Vec<Request> {
    raw.iter()
        .map(|&(a, b, shape)| {
            let a = a % n as u32;
            let b = b % n as u32;
            match shape % 5 {
                0 => Request::TopK { source: a, k: 10 },
                1 => Request::Preference(if a == b {
                    vec![(a, 1.0)]
                } else {
                    vec![(a, 0.7), (b, 0.3)]
                }),
                _ => Request::Ppv(a),
            }
        })
        .collect()
}

fn gpa_roundtrip(g: &CsrGraph, machines: usize) -> Result<(), String> {
    let opts = GpaBuildOptions {
        machines,
        ..Default::default()
    };
    roundtrip(&gpa::build(g, &tight(), &opts).0)
}

fn hgpa_roundtrip(g: &CsrGraph, machines: usize) -> Result<(), String> {
    let built = HgpaIndex::build(
        g,
        &tight(),
        &HgpaBuildOptions {
            machines,
            hierarchy: HierarchyConfig {
                max_leaf_size: 16,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    roundtrip(&built)
}

fn roundtrip(built: &HgpaIndex) -> Result<(), String> {
    let mut buf = Vec::new();
    save_hgpa(built, &mut buf).map_err(|e| format!("save: {e}"))?;
    let loaded = load_index(buf.as_slice()).map_err(|e| format!("load: {e}"))?;

    if loaded.hierarchy() != built.hierarchy() {
        return Err("hierarchy diverged".into());
    }
    if loaded.hub_ids() != built.hub_ids() {
        return Err("hub ids diverged".into());
    }
    if !all_bits_equal(loaded.base_vectors(), built.base_vectors()) {
        return Err("base vectors not bit-identical".into());
    }
    if !all_bits_equal(loaded.skeleton_columns(), built.skeleton_columns()) {
        return Err("skeleton columns not bit-identical".into());
    }
    if loaded.machine_of_hub() != built.machine_of_hub()
        || loaded.machine_of_base() != built.machine_of_base()
    {
        return Err("machine placement diverged".into());
    }
    if loaded.stats() != built.stats() {
        return Err(format!(
            "build stats diverged: {:?} vs {:?}",
            loaded.stats(),
            built.stats()
        ));
    }
    if loaded.config() != built.config() || loaded.machines() != built.machines() {
        return Err("config diverged".into());
    }
    Ok(())
}

/// Cold-started serving must be bit-identical to in-memory serving over
/// the same request stream, for a persisted GPA or HGPA index.
fn cold_start_matches(
    persisted: HgpaIndex,
    requests: &[Request],
    in_memory: Vec<Response>,
) -> Result<(), String> {
    let cold = ColdStart::from_index(persisted, ServeConfig::default());
    let mut server = cold.server();
    let out = server.run_batch(requests);
    if out.responses.len() != in_memory.len() {
        return Err("response counts diverged".into());
    }
    for (i, (a, b)) in out.responses.iter().zip(&in_memory).enumerate() {
        if !responses_bits_equal(a, b) {
            return Err(format!("response {i} diverged: {a:?} vs {b:?}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gpa_save_load_is_bit_identical(g in arb_graph(), machines in 2usize..6) {
        if let Err(e) = gpa_roundtrip(&g, machines) {
            prop_assert!(false, "{e}");
        }
    }

    #[test]
    fn hgpa_save_load_is_bit_identical(g in arb_graph(), machines in 2usize..6) {
        if let Err(e) = hgpa_roundtrip(&g, machines) {
            prop_assert!(false, "{e}");
        }
    }

    #[test]
    fn cold_start_gpa_serving_is_bit_identical(
        g in arb_graph(),
        raw in proptest::collection::vec((0u32..1000, 0u32..1000, 0u8..10), 1..40),
    ) {
        let built = gpa::build(&g, &tight(), &GpaBuildOptions::default()).0;
        let requests = requests_from(g.node_count(), &raw);
        let mut mem_server = PprServer::new(&built, ServeConfig::default());
        let in_memory = mem_server.run_batch(&requests).responses;

        let mut buf = Vec::new();
        save_hgpa(&built, &mut buf).expect("save");
        let persisted = load_index(buf.as_slice()).expect("load");
        prop_assert_eq!(persisted.hierarchy().depth, 1);
        if let Err(e) = cold_start_matches(persisted, &requests, in_memory) {
            prop_assert!(false, "{e}");
        }
    }

    #[test]
    fn cold_start_hgpa_serving_is_bit_identical(
        g in arb_graph(),
        raw in proptest::collection::vec((0u32..1000, 0u32..1000, 0u8..10), 1..40),
    ) {
        let built = HgpaIndex::build(&g, &tight(), &HgpaBuildOptions::default());
        let requests = requests_from(g.node_count(), &raw);
        let mut mem_server = PprServer::new(&built, ServeConfig::default());
        let in_memory = mem_server.run_batch(&requests).responses;

        let mut buf = Vec::new();
        save_hgpa(&built, &mut buf).expect("save");
        let persisted = load_index(buf.as_slice()).expect("load");
        if let Err(e) = cold_start_matches(persisted, &requests, in_memory) {
            prop_assert!(false, "{e}");
        }
    }
}

/// The community-structured generator exercises deeper hierarchies than
/// the uniform random graphs above; pin the full loop once on it, via
/// actual files.
#[test]
fn file_cold_start_on_community_graph() {
    let g = hierarchical_sbm(
        &HsbmConfig {
            nodes: 240,
            ..Default::default()
        },
        7,
    );
    let cfg = PprConfig::default();
    let dir = std::env::temp_dir().join("ppr-roundtrip-test");
    std::fs::create_dir_all(&dir).unwrap();

    let hgpa = HgpaIndex::build(&g, &cfg, &HgpaBuildOptions::default());
    let gpa = gpa::build(&g, &cfg, &GpaBuildOptions::default()).0;
    exact_ppr::core::persist::save_hgpa_file(&hgpa, dir.join("h.pprx")).unwrap();
    exact_ppr::core::persist::save_hgpa_file(&gpa, dir.join("g.pprx")).unwrap();

    // Served answers go through the cluster fan-out (per-machine partial
    // sums), so the in-memory reference must be the same server type, not
    // a raw `query()` — summation order is part of the bit pattern.
    let mem_hgpa = PprServer::new(&hgpa, ServeConfig::default())
        .run_batch(&[Request::Ppv(11)])
        .responses;
    let mem_gpa = PprServer::new(&gpa, ServeConfig::default())
        .run_batch(&[Request::Ppv(11)])
        .responses;

    for (file, built_ppv, in_memory) in [
        ("h.pprx", hgpa.query(11), mem_hgpa),
        ("g.pprx", gpa.query(11), mem_gpa),
    ] {
        let cold = ColdStart::from_path(dir.join(file), ServeConfig::default()).unwrap();
        assert!(bits_equal(&cold.index().query(11), &built_ppv), "{file}");
        let mut server = cold.server();
        let out = server.run_batch(&[Request::Ppv(11)]);
        assert!(
            responses_bits_equal(&out.responses[0], &in_memory[0]),
            "{file} served"
        );
    }
}

/// A dynamic (updatable) server cold-starts from an HGPA or GPA artifact and
/// continues serving + updating from there.
#[test]
fn dynamic_server_cold_starts_from_hgpa_artifact() {
    use exact_ppr::serve::DynamicPprServer;

    let g = hierarchical_sbm(
        &HsbmConfig {
            nodes: 150,
            ..Default::default()
        },
        13,
    );
    let cfg = PprConfig::default();
    let dir = std::env::temp_dir().join("ppr-roundtrip-dynamic");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("h.pprx");

    let hgpa = HgpaIndex::build(&g, &cfg, &HgpaBuildOptions::default());
    exact_ppr::core::persist::save_hgpa_file(&hgpa, &path).unwrap();

    // In-memory reference through the same (cluster fan-out) server type.
    let mut mem_server = DynamicPprServer::from_index(g.clone(), hgpa, ServeConfig::default());
    let in_memory = mem_server.run_batch(&[Request::Ppv(5)]).responses;

    let mut server =
        DynamicPprServer::from_persisted(&path, g.clone(), ServeConfig::default()).unwrap();
    let out = server.run_batch(&[Request::Ppv(5)]);
    assert!(responses_bits_equal(&out.responses[0], &in_memory[0]));

    // A GPA artifact is a one-level HGPA artifact: it cold-starts an
    // updatable server just the same.
    let gpa = gpa::build(&g, &cfg, &GpaBuildOptions::default()).0;
    let gpa_path = dir.join("g.pprx");
    exact_ppr::core::persist::save_hgpa_file(&gpa, &gpa_path).unwrap();
    let mut mem_server = DynamicPprServer::from_index(g.clone(), gpa, ServeConfig::default());
    let in_memory = mem_server.run_batch(&[Request::Ppv(5)]).responses;
    let mut server =
        DynamicPprServer::from_persisted(&gpa_path, g.clone(), ServeConfig::default()).unwrap();
    let out = server.run_batch(&[Request::Ppv(5)]);
    assert!(responses_bits_equal(&out.responses[0], &in_memory[0]));

    // An artifact built for another graph is an Err, not a panic.
    let other = hierarchical_sbm(
        &HsbmConfig {
            nodes: 120,
            ..Default::default()
        },
        13,
    );
    assert!(DynamicPprServer::from_persisted(&gpa_path, other, ServeConfig::default()).is_err());
}
