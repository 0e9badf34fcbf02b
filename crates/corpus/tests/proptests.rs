//! Property-based tests for the corpus persistence layer: the load
//! pipeline (mapped or aligned-heap region, borrowed zero-copy) must be
//! observationally identical to the owned reference decode for
//! arbitrary graphs, and any single-bit corruption of a stored file
//! must be detected by both.

use nonsearch_corpus::{build, nsg, BuildSpec, Corpus, LoadMode, MappedFile};
use nonsearch_engine::{corrupt_file, StorageFault};
use nonsearch_graph::{AlignedBytes, CsrBytes, UndirectedCsr};
use proptest::prelude::*;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;

/// Strategy: a small random multigraph as (n, edge list, shuffle seed).
/// The slot shuffle matters: it is exactly the per-vertex permutation a
/// stored corpus graph must preserve bit for bit.
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize)>, u64)> {
    (1usize..40).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..120);
        (Just(n), edges, 0u64..u64::MAX)
    })
}

fn build_graph(n: usize, edges: Vec<(usize, usize)>, shuffle_seed: u64) -> UndirectedCsr {
    let mut g = UndirectedCsr::from_edges(n, edges).unwrap();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(shuffle_seed);
    g.shuffle_slots(&mut rng);
    g
}

fn temp_nsg(tag: u64) -> PathBuf {
    std::env::temp_dir().join(format!("corpus_prop_{}_{tag:016x}.nsg", std::process::id()))
}

proptest! {
    // Fixed case count: keeps CI time bounded and independent of the
    // proptest default.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: a mapped load, an aligned-heap region
    /// load and the owned reference decode ([`nsg::decode_graph`]) of
    /// the same `.nsg` file are structurally identical — equality, every
    /// incidence slot in order, and every edge endpoint.
    #[test]
    fn mapped_and_heap_loads_agree((n, edges, seed) in arb_graph()) {
        let g = build_graph(n, edges, seed);
        let path = temp_nsg(seed);
        nsg::write_graph_file(&path, &g).unwrap();

        let heap = nsg::decode_graph(&std::fs::read(&path).unwrap()).unwrap();
        let mapped = nsg::map_graph_file(&path).unwrap();
        let aligned = MappedFile::open_with(&path, LoadMode::Heap).unwrap();
        let aligned = nsg::graph_from_region(Arc::new(aligned)).unwrap();
        std::fs::remove_file(&path).ok();

        prop_assert_eq!(&heap, &g);
        prop_assert_eq!(&mapped, &g);
        prop_assert_eq!(&mapped, &heap);
        prop_assert_eq!(&aligned, &heap);
        prop_assert!(!heap.is_borrowed());
        if nonsearch_graph::zero_copy_support().is_ok() {
            prop_assert!(mapped.is_borrowed());
            prop_assert!(aligned.is_borrowed());
        }
        // Observational identity, accessor by accessor.
        prop_assert_eq!(mapped.node_count(), heap.node_count());
        prop_assert_eq!(mapped.edge_count(), heap.edge_count());
        for v in heap.nodes() {
            prop_assert_eq!(mapped.degree(v), heap.degree(v));
            prop_assert_eq!(mapped.incident(v), heap.incident(v));
        }
        for (e, uv) in heap.edges() {
            prop_assert_eq!(mapped.edge_endpoints(e).unwrap(), uv);
        }
        prop_assert_eq!(mapped.max_degree(), heap.max_degree());
        prop_assert_eq!(
            nonsearch_graph::degree_sequence(&mapped),
            nonsearch_graph::degree_sequence(&heap)
        );
    }

    /// A heap-held image served through the zero-copy region path is
    /// also identical, and mutating the borrowed view never writes
    /// through to the shared image.
    #[test]
    fn region_views_are_identical_and_copy_on_write((n, edges, seed) in arb_graph()) {
        let g = build_graph(n, edges, seed);
        let bytes = nsg::encode_graph(&g).unwrap();
        let region: Arc<dyn CsrBytes> = Arc::new(AlignedBytes::from_bytes(&bytes));
        let view = nsg::graph_from_region(Arc::clone(&region)).unwrap();
        prop_assert_eq!(&view, &g);

        let mut detached = view.clone();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xDEAD);
        detached.shuffle_slots(&mut rng);
        prop_assert!(!detached.is_borrowed());
        // A fresh view of the same region still matches the original.
        let fresh = nsg::graph_from_region(region).unwrap();
        prop_assert_eq!(&fresh, &g);
    }

    /// Flipping any single bit of a stored file is detected by both the
    /// load pipeline and the reference decode (header checks, payload checksum, or — for the length
    /// fields — the size-vs-header consistency check).
    #[test]
    fn any_single_bit_flip_is_detected(
        (n, edges, seed) in arb_graph(),
        flip_pos in 0usize..1 << 20,
        flip_bit in 0u8..8,
    ) {
        let g = build_graph(n, edges, seed);
        let mut bytes = nsg::encode_graph(&g).unwrap();
        let at = flip_pos % bytes.len();
        bytes[at] ^= 1 << flip_bit;

        let path = temp_nsg(seed ^ 0xF11F);
        std::fs::write(&path, &bytes).unwrap();
        let heap = nsg::decode_graph(&bytes);
        let mapped = nsg::map_graph_file(&path);
        std::fs::remove_file(&path).ok();

        prop_assert!(heap.is_err(), "heap decode accepted a corrupt file");
        prop_assert!(mapped.is_err(), "mapped load accepted a corrupt file");
    }
}

proptest! {
    // Each case builds (and heals) a whole corpus; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A single injected bit flip anywhere in any stored `.nsg` file is
    /// detected by a plain verify, and a healing verify quarantines the
    /// corrupt blob and regenerates it **byte-identical** to the
    /// original — after which the untouched manifest checksums pass
    /// again.
    #[test]
    fn injected_bit_flip_is_detected_and_healed_byte_identical(
        seed in 0u64..1 << 32,
        file_pick in 0usize..64,
        bit_pick in 0u64..1 << 16,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "corpus_prop_heal_{}_{seed:08x}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let spec = BuildSpec {
            model_spec: "mori:p=0.6,m=1".to_string(),
            seed,
            sizes: vec![12, 20],
            trials: 1,
            variants: 1,
            swaps_per_edge: 2,
            threads: 1,
        };
        build(&dir, &spec).unwrap();

        let manifest = Corpus::open(&dir).unwrap().manifest().clone();
        let files: Vec<String> = manifest
            .graphs
            .iter()
            .flat_map(|g| {
                std::iter::once(g.file.clone())
                    .chain(g.variants.iter().map(|v| v.file.clone()))
            })
            .collect();
        let victim = &files[file_pick % files.len()];
        let path = dir.join(victim);
        let original = std::fs::read(&path).unwrap();
        let bit = bit_pick % (original.len() as u64 * 8);
        corrupt_file(&path, StorageFault::BitFlip { bit }).unwrap();

        // Detected: the flip is visible to a plain verify wherever it
        // landed (the manifest checksum covers every stored byte).
        prop_assert!(
            Corpus::open(&dir).unwrap().verify().is_err(),
            "bit {bit} of {victim} went undetected"
        );

        // Healed: quarantined and regenerated byte-identical.
        let report = Corpus::open_healing(&dir, LoadMode::Heap, true)
            .unwrap()
            .verify()
            .unwrap();
        prop_assert_eq!(report.healed, 1);
        prop_assert_eq!(report.quarantined, 1);
        prop_assert_eq!(std::fs::read(&path).unwrap(), original);
        prop_assert!(Corpus::open(&dir).unwrap().verify().is_ok());

        std::fs::remove_dir_all(&dir).ok();
    }
}
