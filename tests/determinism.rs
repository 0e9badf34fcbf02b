//! Workspace-wide determinism: every stochastic pipeline is bit-for-bit
//! reproducible from its seed.

use nonsearch::core::{
    hub_to_newest, search_cell, GraphModel, MergedMoriModel, ModelSource, PowerLawGiantModel,
};
use nonsearch::engine::Tracer;
use nonsearch::generators::{
    rng_from_seed, BarabasiAlbert, CooperFrieze, CooperFriezeConfig, KleinbergGrid, MergedMori,
    SeedSequence, UniformAttachment,
};
use nonsearch::graph::{NodeId, UndirectedCsr};
use nonsearch::search::{
    percolation_search, run_weak, run_weak_in, PercolationConfig, SearchTask, SearcherKind,
};

#[test]
fn generators_reproduce_from_seeds() {
    let a = MergedMori::sample(300, 2, 0.5, &mut rng_from_seed(1)).unwrap();
    let b = MergedMori::sample(300, 2, 0.5, &mut rng_from_seed(1)).unwrap();
    assert_eq!(a.tree_trace(), b.tree_trace());
    assert_eq!(a.undirected(), b.undirected());

    let cfg = CooperFriezeConfig::balanced(0.5).unwrap();
    let a = CooperFrieze::sample(300, &cfg, &mut rng_from_seed(2)).unwrap();
    let b = CooperFrieze::sample(300, &cfg, &mut rng_from_seed(2)).unwrap();
    assert_eq!(a.trace(), b.trace());
    assert_eq!(a.undirected(), b.undirected());

    let a = KleinbergGrid::sample(12, 2.0, 1, &mut rng_from_seed(3)).unwrap();
    let b = KleinbergGrid::sample(12, 2.0, 1, &mut rng_from_seed(3)).unwrap();
    assert_eq!(a.graph(), b.graph());
}

#[test]
fn searches_reproduce_from_seeds() {
    let mori = MergedMori::sample(500, 1, 0.5, &mut rng_from_seed(4)).unwrap();
    let graph = mori.undirected();
    let task = SearchTask::new(NodeId::from_label(1), NodeId::from_label(500)).with_budget(50_000);
    for kind in SearcherKind::all() {
        let mut s1 = kind.build();
        let o1 = run_weak(&graph, &task, &mut *s1, &mut rng_from_seed(9)).unwrap();
        let mut s2 = kind.build();
        let o2 = run_weak(&graph, &task, &mut *s2, &mut rng_from_seed(9)).unwrap();
        assert_eq!(o1, o2, "{kind} is nondeterministic");
    }
}

#[test]
fn percolation_reproduces_from_seeds() {
    let mori = MergedMori::sample(400, 2, 0.5, &mut rng_from_seed(5)).unwrap();
    let graph = mori.undirected();
    let config = PercolationConfig {
        replication_walk: 30,
        query_walk: 30,
        edge_probability: 0.3,
    };
    let a = percolation_search(
        &graph,
        NodeId::from_label(7),
        NodeId::from_label(390),
        &config,
        &mut rng_from_seed(6),
    )
    .unwrap();
    let b = percolation_search(
        &graph,
        NodeId::from_label(7),
        NodeId::from_label(390),
        &config,
        &mut rng_from_seed(6),
    )
    .unwrap();
    assert_eq!(a, b);
}

#[test]
fn certification_is_schedule_independent() {
    // search_cell parallelizes across threads; seeds are per-trial, so
    // the sweep must not depend on interleaving. Run twice and compare.
    let model = MergedMoriModel { p: 0.5, m: 1 };
    let sweep = || -> Vec<_> {
        let seeds = SeedSequence::new(21);
        [128, 256]
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                search_cell(
                    &ModelSource::new(&model),
                    n,
                    8,
                    0,
                    &seeds.subsequence(i as u64),
                    &[SearcherKind::HighDegree, SearcherKind::RandomWalk],
                    SearcherKind::build,
                    run_weak_in,
                    |graph, _| hub_to_newest(graph, 50),
                    &Tracer::disabled(),
                )
            })
            .collect()
    };
    let (a, b) = (sweep(), sweep());
    assert_eq!(a.len(), b.len());
    for ((x, _), (y, _)) in a.iter().zip(&b) {
        assert_eq!(x.len(), y.len());
        for (lx, ly) in x.iter().zip(y) {
            assert_eq!(lx.mean(), ly.mean());
            assert_eq!(lx.success_rate(), ly.success_rate());
        }
    }
}

#[test]
fn graph_serialization_roundtrips_across_crates() {
    let mori = MergedMori::sample(200, 3, 0.7, &mut rng_from_seed(8)).unwrap();
    let mut graph = mori.undirected();
    graph.shuffle_slots(&mut rng_from_seed(9));
    // The CSR buffers are what a `.nsg` corpus file stores.
    let (offsets, slots, edge_list) = graph.raw_parts();
    let back = UndirectedCsr::from_raw_parts(offsets.to_vec(), slots.to_vec(), edge_list.to_vec())
        .unwrap();
    assert_eq!(graph, back);
    // And the rebuilt graph supports searching identically.
    let task = SearchTask::new(NodeId::from_label(1), NodeId::from_label(200)).with_budget(50_000);
    let mut s1 = SearcherKind::BfsFlood.build();
    let mut s2 = SearcherKind::BfsFlood.build();
    let o1 = run_weak(&graph, &task, &mut *s1, &mut rng_from_seed(10)).unwrap();
    let o2 = run_weak(&back, &task, &mut *s2, &mut rng_from_seed(10)).unwrap();
    assert_eq!(o1, o2);
}

/// FNV-1a over a graph's CSR buffers in the `.nsg` payload shape:
/// `u64` offsets, then `(u32, u32)` slots and edges, all little-endian.
fn csr_digest(graph: &UndirectedCsr) -> u64 {
    let (offsets, slots, edge_list) = graph.raw_parts();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &o in offsets {
        feed(&(o as u64).to_le_bytes());
    }
    for &(v, e) in slots {
        feed(&(v.index() as u32).to_le_bytes());
        feed(&(e.index() as u32).to_le_bytes());
    }
    for &(u, v) in edge_list {
        feed(&(u.index() as u32).to_le_bytes());
        feed(&(v.index() as u32).to_le_bytes());
    }
    hash
}

/// Golden digests of every generator's CSR, slot order included. They
/// pin the exact graphs (and so every experiment's cells) across
/// rewrites of the generators and of the CSR builder.
#[test]
fn generated_graphs_match_their_golden_digests() {
    let cf = CooperFriezeConfig::balanced(0.7).unwrap();
    let giant = PowerLawGiantModel {
        exponent: 2.5,
        d_min: 1,
    };
    let graphs: [(&str, UndirectedCsr); 8] = [
        (
            "mori(p=0.3,m=1)",
            MergedMori::sample(600, 1, 0.3, &mut rng_from_seed(31))
                .unwrap()
                .undirected(),
        ),
        (
            "mori(p=0.6,m=3)",
            MergedMori::sample(600, 3, 0.6, &mut rng_from_seed(32))
                .unwrap()
                .undirected(),
        ),
        (
            "mori(p=1,m=3)",
            MergedMori::sample(600, 3, 1.0, &mut rng_from_seed(33))
                .unwrap()
                .undirected(),
        ),
        (
            "ba(m=2)",
            BarabasiAlbert::sample(1500, 2, &mut rng_from_seed(34))
                .unwrap()
                .undirected(),
        ),
        (
            "ua(m=2)",
            UniformAttachment::sample(1500, 2, &mut rng_from_seed(35))
                .unwrap()
                .undirected(),
        ),
        (
            "cf(0.7)",
            CooperFrieze::sample(1500, &cf, &mut rng_from_seed(36))
                .unwrap()
                .undirected(),
        ),
        (
            "kleinberg(32,2,1)",
            KleinbergGrid::sample(32, 2.0, 1, &mut rng_from_seed(37))
                .unwrap()
                .graph()
                .clone(),
        ),
        (
            "power-law-giant(2.5,1)",
            giant.sample_graph(1500, &mut rng_from_seed(38)),
        ),
    ];
    let golden: [u64; 8] = [
        0x96ff_e62c_c215_b910,
        0x7a4b_2320_da23_66dd,
        0xd80c_e29d_6309_7954,
        0x62ec_b020_a23f_5c1f,
        0x20f3_86be_598a_e2f1,
        0xc8e8_6f1c_4275_41c4,
        0xc9bf_18e0_b76f_e7f6,
        0xa9e0_a3dc_80b9_ed31,
    ];
    for ((name, graph), expect) in graphs.iter().zip(golden) {
        assert_eq!(csr_digest(graph), expect, "{name} changed");
    }
}
