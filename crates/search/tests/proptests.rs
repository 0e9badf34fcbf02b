//! Property-based tests: oracle accounting, the weak oracle's O(1)
//! validity check against the incident-list scan it replaced, searcher
//! invariants, both oracles' observational equivalence against a
//! hash-map reference model with explicit per-edge resolution state,
//! the best-vertex searchers' request-sequence identity against scan
//! reference models, scratch-reuse bit-identity, and `NodeSet` against
//! an ordered-set reference model.

use nonsearch_generators::{rng_from_seed, MergedMori, MoriTree};
use nonsearch_graph::{EdgeId, NodeId, UndirectedCsr};
use nonsearch_search::{
    run_strong_in, run_weak, run_weak_in, DiscoveredView, FrontierCursors, GreedyIdProximity,
    HighDegreeGreedy, LookaheadWalk, NodeSet, OldestFirst, SearchError, SearchOutcome,
    SearchScratch, SearchTask, SearcherKind, SimulatedStrong, StrongBfs, StrongGreedyId,
    StrongHighDegree, StrongSearchState, StrongSearcher, SuccessCriterion, WeakSearchState,
    WeakSearcher,
};
use proptest::prelude::*;
use rand::RngCore;
use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};

/// A connected multigraph via the merged Móri generator.
fn connected_graph(n: usize, m: usize, p: f64, seed: u64) -> UndirectedCsr {
    MergedMori::sample(n, m, p, &mut rng_from_seed(seed))
        .unwrap()
        .undirected()
}

/// The weak oracle's answer under its original validity check, kept as
/// the reference the O(1) endpoint check must agree with: `e` is a
/// known incidence of `u` iff a linear scan finds it in the incident
/// list the view recorded when `u` was discovered.
fn reference_request(
    graph: &UndirectedCsr,
    view: &DiscoveredView,
    u: NodeId,
    e: EdgeId,
) -> Result<NodeId, SearchError> {
    let Some(info) = view.vertex(u) else {
        return Err(SearchError::UndiscoveredVertex { vertex: u });
    };
    if !info.edges().any(|x| x == e) {
        return Err(SearchError::UnknownIncidence { vertex: u, edge: e });
    }
    let (a, b) = graph.edge_endpoints(e).unwrap();
    Ok(if a == u { b } else { a })
}

/// The request `(u, e)` a frontier cursor just handed out, or one a step
/// off it, by `pick`: `e` from its other endpoint, another edge of `u`,
/// a self-loop (of `u` if it has one), an edge parallel to `e`, or `e`
/// from another discovered vertex. The oracle's cursor memo must answer
/// the first and fall through on every other.
fn cursor_probe(
    graph: &UndirectedCsr,
    view: &DiscoveredView,
    u: NodeId,
    e: EdgeId,
    pick: usize,
) -> (NodeId, EdgeId) {
    let (a, b) = graph.edge_endpoints(e).unwrap();
    let far = if a == u { b } else { a };
    let incident: Vec<EdgeId> = view.vertex(u).unwrap().edges().collect();
    let loops: Vec<(EdgeId, NodeId)> = graph
        .edges()
        .filter(|&(_, (x, y))| x == y)
        .map(|(l, (x, _))| (l, x))
        .collect();
    let self_loop = loops
        .iter()
        .find(|&&(_, x)| x == u)
        .or(loops.first())
        .map(|&(l, _)| l);
    let parallel = graph
        .edges()
        .find(|&(x, ends)| x != e && (ends == (a, b) || ends == (b, a)))
        .map(|(x, _)| x);
    let discovered = view.discovered();
    match pick % 6 {
        0 => (u, e),
        1 => (far, e),
        2 => (u, incident[pick % incident.len()]),
        3 => (u, self_loop.unwrap_or(e)),
        4 => (u, parallel.unwrap_or(e)),
        _ => (discovered[pick % discovered.len()], e),
    }
}

/// The `HashMap`-based view with explicit per-edge resolution state,
/// kept as the reference model. The test mirrors every accepted request
/// into it exactly as the oracles did before exploredness was derived
/// from discovery: a weak request resolves its edge and then discovers
/// the far end; a strong request does so for every slot of the
/// expanded vertex. The dense view must agree with it on every
/// observable query, and on the number of resolved edges.
#[derive(Default)]
struct ReferenceView {
    order: Vec<NodeId>,
    vertices: HashMap<NodeId, Vec<EdgeId>>,
    edges: HashMap<EdgeId, (NodeId, Option<NodeId>)>,
    /// Edges that became resolved, cumulative across resets.
    resolutions: u64,
}

impl ReferenceView {
    /// Forgets everything but the resolution count.
    fn reset(&mut self) {
        *self = ReferenceView {
            resolutions: self.resolutions,
            ..ReferenceView::default()
        };
    }

    fn insert_vertex(&mut self, v: NodeId, incident: &[EdgeId]) {
        if self.vertices.contains_key(&v) {
            return;
        }
        for &e in incident {
            match self.edges.get_mut(&e) {
                None => {
                    self.edges.insert(e, (v, None));
                }
                // The second sighting resolves the edge; a self-loop
                // lists the same handle twice in one incident list.
                Some((_, other @ None)) => {
                    *other = Some(v);
                    self.resolutions += 1;
                }
                Some(_) => {}
            }
        }
        self.order.push(v);
        self.vertices.insert(v, incident.to_vec());
    }

    fn resolve_edge(&mut self, u: NodeId, e: EdgeId, other: NodeId) {
        match self.edges.get_mut(&e) {
            Some((_, Some(_))) => return,
            Some(entry) => *entry = (u, Some(other)),
            None => {
                self.edges.insert(e, (u, Some(other)));
            }
        }
        self.resolutions += 1;
    }

    /// Discovers `v` with its incident list in `graph`.
    fn discover(&mut self, graph: &UndirectedCsr, v: NodeId) {
        let incident: Vec<EdgeId> = graph.incident(v).iter().map(|&(_, e)| e).collect();
        self.insert_vertex(v, &incident);
    }

    /// The weak request `(u, e)` as the oracle used to serve it.
    fn weak_request(
        &mut self,
        graph: &UndirectedCsr,
        u: NodeId,
        e: EdgeId,
    ) -> Result<NodeId, SearchError> {
        let Some(incident) = self.vertices.get(&u) else {
            return Err(SearchError::UndiscoveredVertex { vertex: u });
        };
        if !incident.contains(&e) {
            return Err(SearchError::UnknownIncidence { vertex: u, edge: e });
        }
        let (a, b) = graph.edge_endpoints(e).unwrap();
        let other = if a == u { b } else { a };
        self.resolve_edge(u, e, other);
        self.discover(graph, other);
        Ok(other)
    }

    /// The strong request on `u` as the oracle used to serve it.
    fn strong_request(
        &mut self,
        graph: &UndirectedCsr,
        u: NodeId,
    ) -> Result<Vec<NodeId>, SearchError> {
        if !self.contains(u) {
            return Err(SearchError::UndiscoveredVertex { vertex: u });
        }
        let mut revealed = Vec::new();
        for &(v, e) in graph.incident(u) {
            self.resolve_edge(u, e, v);
            if !self.contains(v) {
                self.discover(graph, v);
            }
            revealed.push(v);
        }
        Ok(revealed)
    }

    fn contains(&self, v: NodeId) -> bool {
        self.vertices.contains_key(&v)
    }

    fn degree_of(&self, v: NodeId) -> Option<usize> {
        self.vertices.get(&v).map(Vec::len)
    }

    fn is_resolved(&self, e: EdgeId) -> bool {
        self.edges.get(&e).is_some_and(|(_, other)| other.is_some())
    }

    fn unexplored(&self, v: NodeId) -> Vec<EdgeId> {
        self.vertices.get(&v).map_or(Vec::new(), |incident| {
            incident
                .iter()
                .copied()
                .filter(|&e| !self.is_resolved(e))
                .collect()
        })
    }
}

/// The weak greedy searchers' choice rules as plain scans over every
/// discovered vertex: the reference model for [`HighDegreeGreedy`],
/// [`GreedyIdProximity`] and [`OldestFirst`].
enum ScanRule {
    HighDegree,
    GreedyId,
    OldestFirst,
}

impl WeakSearcher for ScanRule {
    fn name(&self) -> &'static str {
        "reference-scan"
    }

    fn next_request(
        &mut self,
        task: &SearchTask,
        view: &DiscoveredView,
        _rng: &mut dyn RngCore,
    ) -> Option<(NodeId, EdgeId)> {
        let live = view
            .discovered()
            .iter()
            .copied()
            .filter(|&v| view.has_unexplored(v));
        let v = match self {
            ScanRule::HighDegree => live.max_by_key(|&v| (view.degree_of(v).unwrap(), Reverse(v))),
            ScanRule::GreedyId => {
                live.min_by_key(|&v| (v.label().abs_diff(task.target.label()), v))
            }
            ScanRule::OldestFirst => live.min(),
        }?;
        view.unexplored_edges_of(v).next().map(|e| (v, e))
    }
}

/// The scan implementation of [`LookaheadWalk`] that the shared
/// best-vertex index replaced: its dead-end fallback rescans every
/// discovered vertex.
#[derive(Default)]
struct ReferenceLookahead {
    current: Option<NodeId>,
    edges: FrontierCursors,
    basket: Vec<NodeId>,
}

impl WeakSearcher for ReferenceLookahead {
    fn name(&self) -> &'static str {
        "reference-lookahead"
    }

    fn next_request(
        &mut self,
        task: &SearchTask,
        view: &DiscoveredView,
        _rng: &mut dyn RngCore,
    ) -> Option<(NodeId, EdgeId)> {
        let current = *self.current.get_or_insert(task.start);
        if let Some(e) = self.edges.next_unexplored(view, current) {
            return Some((current, e));
        }
        let gap = |v: NodeId| v.label().abs_diff(task.target.label());
        let next = self
            .basket
            .drain(..)
            .filter(|v| view.has_unexplored(*v))
            .min_by_key(|&v| (gap(v), v));
        match next {
            Some(v) => {
                self.current = Some(v);
                self.edges.next_unexplored(view, v).map(|e| (v, e))
            }
            None => {
                let fallback = view
                    .discovered()
                    .iter()
                    .copied()
                    .filter(|v| view.has_unexplored(*v))
                    .min_by_key(|&v| (gap(v), v))?;
                self.current = Some(fallback);
                self.edges
                    .next_unexplored(view, fallback)
                    .map(|e| (fallback, e))
            }
        }
    }

    fn observe(&mut self, _request: (NodeId, EdgeId), revealed: NodeId) {
        self.basket.push(revealed);
    }

    fn reset(&mut self) {
        *self = Self::default();
    }
}

/// The scan implementations of [`StrongHighDegree`] and
/// [`StrongGreedyId`] that the shared best-vertex index replaced.
#[derive(Default)]
struct ReferenceStrong {
    by_degree: bool,
    expanded: NodeSet,
}

impl StrongSearcher for ReferenceStrong {
    fn name(&self) -> &'static str {
        "reference-strong"
    }

    fn next_request(
        &mut self,
        task: &SearchTask,
        view: &DiscoveredView,
        _rng: &mut dyn RngCore,
    ) -> Option<NodeId> {
        let unexpanded = view
            .discovered()
            .iter()
            .copied()
            .filter(|&v| !self.expanded.contains(v));
        if self.by_degree {
            unexpanded.max_by_key(|&v| (view.degree_of(v).unwrap(), Reverse(v)))
        } else {
            unexpanded.min_by_key(|&v| (v.label().abs_diff(task.target.label()), v))
        }
    }

    fn observe(&mut self, expanded: NodeId, _neighbors: &[NodeId]) {
        self.expanded.insert(expanded);
    }

    fn reset(&mut self) {
        self.expanded.clear();
    }
}

/// Forwards to `inner` and logs every request it issues: `(u, Some(e))`
/// in the weak model, `(u, None)` in the strong one.
struct Recorded<S> {
    inner: S,
    log: Vec<(NodeId, Option<EdgeId>)>,
}

impl<S> Recorded<S> {
    fn new(inner: S) -> Self {
        Recorded {
            inner,
            log: Vec::new(),
        }
    }
}

impl<S: WeakSearcher> WeakSearcher for Recorded<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_request(
        &mut self,
        task: &SearchTask,
        view: &DiscoveredView,
        rng: &mut dyn RngCore,
    ) -> Option<(NodeId, EdgeId)> {
        let request = self.inner.next_request(task, view, rng)?;
        self.log.push((request.0, Some(request.1)));
        Some(request)
    }

    fn observe(&mut self, request: (NodeId, EdgeId), revealed: NodeId) {
        self.inner.observe(request, revealed);
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.log.clear();
    }

    fn reserve(&mut self, nodes: usize, edges: usize) {
        self.inner.reserve(nodes, edges);
    }
}

impl<S: StrongSearcher> StrongSearcher for Recorded<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_request(
        &mut self,
        task: &SearchTask,
        view: &DiscoveredView,
        rng: &mut dyn RngCore,
    ) -> Option<NodeId> {
        let u = self.inner.next_request(task, view, rng)?;
        self.log.push((u, None));
        Some(u)
    }

    fn observe(&mut self, expanded: NodeId, neighbors: &[NodeId]) {
        self.inner.observe(expanded, neighbors);
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.log.clear();
    }

    fn reserve(&mut self, nodes: usize, edges: usize) {
        self.inner.reserve(nodes, edges);
    }
}

/// A searcher's outcome and full request log on one task.
type Trace = (SearchOutcome, Vec<(NodeId, Option<EdgeId>)>);

fn weak_trace(
    graph: &UndirectedCsr,
    task: &SearchTask,
    s: &mut Recorded<impl WeakSearcher>,
) -> Trace {
    let outcome = run_weak(graph, task, s, &mut rng_from_seed(0)).unwrap();
    (outcome, s.log.clone())
}

fn strong_trace(
    graph: &UndirectedCsr,
    task: &SearchTask,
    s: &mut Recorded<impl StrongSearcher>,
) -> Trace {
    let outcome = run_strong_in(
        &mut SearchScratch::new(),
        graph,
        task,
        s,
        &mut rng_from_seed(0),
    )
    .unwrap();
    (outcome, s.log.clone())
}

/// `strong` under the strong-to-weak simulation, with both the weak
/// requests it issues and the strong requests they expand recorded.
fn simulated<S: StrongSearcher>(strong: S) -> Recorded<SimulatedStrong<Recorded<S>>> {
    Recorded::new(SimulatedStrong::new(Recorded::new(strong)))
}

/// The weak and strong traces of a [`simulated`] searcher.
fn simulated_trace(
    graph: &UndirectedCsr,
    task: &SearchTask,
    s: &mut Recorded<SimulatedStrong<Recorded<impl StrongSearcher>>>,
) -> (Trace, Vec<(NodeId, Option<EdgeId>)>) {
    let weak = weak_trace(graph, task, s);
    (weak, s.inner.inner().log.clone())
}

/// Vertex ids of the [`NodeSet`] scripts: three full bitset words and a
/// partial fourth.
const SET_IDS: usize = 3 * 64 + 40;

/// One round of a [`NodeSet`] script: an optional `reserve`, a burst of
/// inserts, then a `clear`.
type SetRound = (Option<usize>, Vec<usize>);

/// A round of `inserts` ids below [`SET_IDS`], with a reserve or not.
fn set_round(inserts: std::ops::Range<usize>) -> impl Strategy<Value = SetRound> {
    (
        0u8..2,
        0..=SET_IDS,
        proptest::collection::vec(0..SET_IDS, inserts),
    )
        .prop_map(|(reserve, nodes, inserts)| ((reserve == 1).then_some(nodes), inserts))
}

/// One search on a shared scratch: strong (1) or weak (0), its start, and its
/// request probes `(kind, a, b)`.
type Segment = (u8, usize, Vec<(u8, usize, usize)>);

/// Asserts that `view` and `reference` agree on every observable query
/// over vertices `0..ids`, and on the resolution count.
fn assert_views_agree(
    view: &DiscoveredView,
    reference: &ReferenceView,
    ids: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(view.len(), reference.order.len());
    prop_assert_eq!(view.discovered(), &reference.order[..]);
    prop_assert_eq!(view.edge_resolutions(), reference.resolutions);
    for v in (0..ids).map(NodeId::new) {
        prop_assert_eq!(view.contains(v), reference.contains(v));
        prop_assert_eq!(view.degree_of(v), reference.degree_of(v));
        let unexplored = reference.unexplored(v);
        prop_assert_eq!(
            view.unexplored_edges_of(v).collect::<Vec<_>>(),
            unexplored.clone()
        );
        prop_assert_eq!(view.has_unexplored(v), !unexplored.is_empty());
        if let Some(info) = view.vertex(v) {
            prop_assert_eq!(
                info.edges().collect::<Vec<_>>(),
                reference.vertices[&v].clone()
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn oracles_match_the_per_edge_reference_model(
        n in 1usize..12,
        raw_edges in proptest::collection::vec((0usize..1000, 0usize..1000), 0..30),
        segments in proptest::collection::vec(
            (
                0u8..2,
                0usize..1000,
                proptest::collection::vec((0u8..4, 0usize..1000, 0usize..1000), 0..24),
            ),
            1..5,
        ),
    ) {
        // Raw multigraphs: self-loops, parallel edges and isolated
        // vertices. Requests are legal, redundant and rejected; each
        // segment begins a new search on the same scratch (a reset).
        let graph =
            UndirectedCsr::from_edges(n, raw_edges.iter().map(|&(a, b)| (a % n, b % n))).unwrap();
        let edges = graph.edge_count();
        let ids = n + 2;
        let mut scratch = SearchScratch::new();
        let mut reference = ReferenceView::default();
        let segments: Vec<Segment> = segments;
        for (strong, start, probes) in &segments {
            let start = NodeId::new(start % n);
            reference.reset();
            reference.discover(&graph, start);
            if *strong == 1 {
                let mut state = StrongSearchState::new_in(&mut scratch, &graph, start).unwrap();
                assert_views_agree(state.view(), &reference, ids)?;
                for &(kind, a, _) in probes {
                    let discovered = state.view().discovered();
                    let u = if kind == 0 {
                        NodeId::new(a % ids)
                    } else {
                        discovered[a % discovered.len()]
                    };
                    let want = reference.strong_request(&graph, u);
                    let got = state.request(u).map(<[NodeId]>::to_vec);
                    prop_assert_eq!(got, want, "strong request {:?}", u);
                    assert_views_agree(state.view(), &reference, ids)?;
                }
            } else {
                let mut state = WeakSearchState::new_in(&mut scratch, &graph, start).unwrap();
                assert_views_agree(state.view(), &reference, ids)?;
                for &(kind, a, b) in probes {
                    let discovered = state.view().discovered();
                    let any_edge = EdgeId::new(b % (edges + 3));
                    let (u, e) = match kind {
                        0 => (NodeId::new(a % ids), any_edge),
                        1 => (discovered[a % discovered.len()], any_edge),
                        _ => {
                            let u = discovered[a % discovered.len()];
                            let info = state.view().vertex(u).unwrap();
                            let e = info.edges().nth(b % info.degree().max(1));
                            (u, e.unwrap_or(any_edge))
                        }
                    };
                    let want = reference.weak_request(&graph, u, e);
                    let got = state.request(u, e);
                    prop_assert_eq!(got, want, "weak request ({:?}, {:?})", u, e);
                    assert_views_agree(state.view(), &reference, ids)?;
                }
            }
        }
    }

    #[test]
    fn node_set_matches_a_btree_set_and_its_insertion_order(
        many in set_round(16..120),
        few in set_round(0..2),
        rounds in proptest::collection::vec(
            (0u8..2).prop_flat_map(|long| set_round(if long == 1 { 8..120 } else { 0..4 })),
            0..8,
        ),
    ) {
        // The set starts unreserved, so the first round's inserts all
        // grow it. `many` leaves more members than bitset words, so its
        // clear zeroes the whole bitset; `few` leaves fewer, so its
        // clear zeroes each member's word.
        let mut set = NodeSet::new();
        let mut model = BTreeSet::new();
        let mut order = Vec::new();
        // The bitset's word count, which `clear` compares the members with.
        let mut words = 0;
        let mut whole_clears = 0;
        let mut member_clears = 0;
        for (reserve, inserts) in [many, few].iter().chain(&rounds) {
            if let Some(nodes) = *reserve {
                set.reserve(nodes);
                words = words.max(nodes.div_ceil(64));
            }
            let ops = inserts.iter().map(|&i| Some(NodeId::new(i))).chain([None]);
            for op in ops {
                match op {
                    Some(v) => {
                        let fresh = model.insert(v);
                        prop_assert_eq!(set.insert(v), fresh);
                        if fresh {
                            order.push(v);
                        }
                        words = words.max(v.index() / 64 + 1);
                    }
                    None => {
                        if order.len() < words {
                            member_clears += 1;
                        } else {
                            whole_clears += 1;
                        }
                        set.clear();
                        model.clear();
                        order.clear();
                    }
                }
                prop_assert_eq!(set.len(), model.len());
                prop_assert_eq!(set.is_empty(), model.is_empty());
                prop_assert_eq!(set.members(), &order[..]);
                for v in (0..SET_IDS + 64).map(NodeId::new) {
                    prop_assert_eq!(set.contains(v), model.contains(&v), "{:?}", v);
                }
            }
        }
        prop_assert!(whole_clears > 0 && member_clears > 0);
    }

    #[test]
    fn best_vertex_searchers_issue_the_scan_reference_request_sequence(
        n in 2usize..120,
        m in 1usize..4,
        p in 0.0f64..=1.0,
        tree in 0u8..2,
        seed in 0u64..1000,
        start_sel in 0usize..1000,
        target_sel in 0usize..1000,
    ) {
        // Móri m=1 trees dead-end often, which is where the look-ahead
        // walk's fallback fires; the merged graphs have cycles and ties.
        let graph = if tree == 1 {
            MoriTree::sample(n, p, &mut rng_from_seed(seed)).unwrap().undirected()
        } else {
            connected_graph(n, m, p, seed)
        };
        let start = NodeId::new(start_sel % n);
        // Each instance serves two tasks in a row, so a stale index
        // after `reset` would show as a diverging second trace.
        let tasks = [target_sel % n, n - 1]
            .map(|t| SearchTask::new(start, NodeId::new(t)).with_budget(20 * n * m));

        let mut high_degree = Recorded::new(HighDegreeGreedy::new());
        let mut greedy_id = Recorded::new(GreedyIdProximity::new());
        let mut oldest = Recorded::new(OldestFirst::new());
        let mut lookahead = Recorded::new(LookaheadWalk::new());
        let mut sim_degree = simulated(StrongHighDegree::new());
        let mut sim_id = simulated(StrongGreedyId::new());
        let mut strong_degree = Recorded::new(StrongHighDegree::new());
        let mut strong_id = Recorded::new(StrongGreedyId::new());
        let reference = |by_degree| ReferenceStrong { by_degree, ..Default::default() };
        let g = &graph;
        for task in &tasks {
            prop_assert_eq!(
                weak_trace(g, task, &mut high_degree),
                weak_trace(g, task, &mut Recorded::new(ScanRule::HighDegree)),
                "high-degree"
            );
            prop_assert_eq!(
                weak_trace(g, task, &mut greedy_id),
                weak_trace(g, task, &mut Recorded::new(ScanRule::GreedyId)),
                "greedy-id"
            );
            prop_assert_eq!(
                weak_trace(g, task, &mut oldest),
                weak_trace(g, task, &mut Recorded::new(ScanRule::OldestFirst)),
                "oldest-first"
            );
            prop_assert_eq!(
                weak_trace(g, task, &mut lookahead),
                weak_trace(g, task, &mut Recorded::new(ReferenceLookahead::default())),
                "lookahead-walk"
            );
            prop_assert_eq!(
                simulated_trace(g, task, &mut sim_degree),
                simulated_trace(g, task, &mut simulated(reference(true))),
                "sim-strong-high-degree"
            );
            prop_assert_eq!(
                simulated_trace(g, task, &mut sim_id),
                simulated_trace(g, task, &mut simulated(reference(false))),
                "sim-strong-greedy-id"
            );
            prop_assert_eq!(
                strong_trace(g, task, &mut strong_degree),
                strong_trace(g, task, &mut Recorded::new(reference(true))),
                "strong-high-degree"
            );
            prop_assert_eq!(
                strong_trace(g, task, &mut strong_id),
                strong_trace(g, task, &mut Recorded::new(reference(false))),
                "strong-greedy-id"
            );
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_state(
        n in 4usize..50,
        p in 0.0f64..=1.0,
        seed in 0u64..300,
    ) {
        let graph = connected_graph(n, 1, p, seed);
        // One scratch and one searcher instance serve consecutive trials
        // with different tasks; every outcome must equal a fresh-state
        // run with the same seed.
        let mut scratch = SearchScratch::new();
        for kind in [
            SearcherKind::BfsFlood,
            SearcherKind::HighDegree,
            SearcherKind::RandomWalk,
            SearcherKind::SimStrongHighDegree,
        ] {
            let mut pooled = kind.build();
            for target in [n - 1, n / 2, 0] {
                let task = SearchTask::new(NodeId::from_label(1), NodeId::new(target))
                    .with_budget(200 * n);
                let reused = run_weak_in(
                    &mut scratch, &graph, &task, &mut *pooled, &mut rng_from_seed(seed ^ 0x5C),
                ).unwrap();
                let fresh = run_weak(
                    &graph, &task, &mut *kind.build(), &mut rng_from_seed(seed ^ 0x5C),
                ).unwrap();
                prop_assert_eq!(reused, fresh, "{} target {}", kind, target);
            }
        }
        // Same property for the strong oracle.
        let mut strong = StrongBfs::new();
        for target in [n - 1, 0] {
            let task = SearchTask::new(NodeId::from_label(1), NodeId::new(target))
                .with_budget(200 * n);
            let reused = run_strong_in(
                &mut scratch, &graph, &task, &mut strong, &mut rng_from_seed(seed),
            ).unwrap();
            let fresh = run_strong_in(&mut SearchScratch::new(), &graph, &task, &mut StrongBfs::new(), &mut rng_from_seed(seed),
            ).unwrap();
            prop_assert_eq!(reused, fresh, "strong target {}", target);
        }
    }

    #[test]
    fn every_searcher_finds_every_target_on_connected_graphs(
        n in 2usize..80,
        m in 1usize..3,
        p in 0.0f64..=1.0,
        seed in 0u64..500,
        target_sel in 0usize..1000,
    ) {
        let graph = connected_graph(n, m, p, seed);
        let target = NodeId::new(target_sel % n);
        let task = SearchTask::new(NodeId::from_label(1), target)
            .with_budget(200 * n * m);
        let mut rng = rng_from_seed(seed ^ 0xABCD);
        for kind in SearcherKind::all() {
            let mut searcher = kind.build();
            let outcome = run_weak(&graph, &task, &mut *searcher, &mut rng).unwrap();
            prop_assert!(
                outcome.found,
                "{kind} missed {target:?} on n={n}, m={m}, p={p}"
            );
        }
    }

    #[test]
    fn request_counts_are_monotone_in_discovery(
        n in 2usize..60,
        p in 0.0f64..=1.0,
        seed in 0u64..500,
    ) {
        // Discovered vertices ≤ requests + 1 always (each request reveals
        // at most one new vertex).
        let graph = connected_graph(n, 1, p, seed);
        let task = SearchTask::new(NodeId::from_label(1), NodeId::from_label(n))
            .with_budget(100 * n);
        let mut rng = rng_from_seed(seed ^ 0xBEEF);
        for kind in SearcherKind::all() {
            let mut searcher = kind.build();
            let o = run_weak(&graph, &task, &mut *searcher, &mut rng).unwrap();
            prop_assert!(o.discovered <= o.requests + 1, "{kind}");
        }
    }

    #[test]
    fn neighbor_criterion_never_costs_more(
        n in 3usize..60,
        p in 0.0f64..=1.0,
        seed in 0u64..500,
    ) {
        let graph = connected_graph(n, 1, p, seed);
        // Deterministic searcher ⇒ comparable runs.
        let strict_task = SearchTask::new(NodeId::from_label(1), NodeId::from_label(n))
            .with_budget(100 * n);
        let relaxed_task = strict_task.with_criterion(SuccessCriterion::ReachNeighbor);
        for kind in [SearcherKind::BfsFlood, SearcherKind::HighDegree, SearcherKind::Dfs] {
            let mut a = kind.build();
            let strict =
                run_weak(&graph, &strict_task, &mut *a, &mut rng_from_seed(1)).unwrap();
            let mut b = kind.build();
            let relaxed =
                run_weak(&graph, &relaxed_task, &mut *b, &mut rng_from_seed(1)).unwrap();
            prop_assert!(relaxed.requests <= strict.requests, "{kind}");
        }
    }

    #[test]
    fn weak_oracle_counts_every_request(
        n in 2usize..40,
        p in 0.0f64..=1.0,
        seed in 0u64..500,
        steps in 1usize..50,
    ) {
        let graph = connected_graph(n, 1, p, seed);
        let mut scratch = SearchScratch::new();
        let mut state =
            WeakSearchState::new_in(&mut scratch, &graph, NodeId::from_label(1)).unwrap();
        let mut issued = 0usize;
        let mut rng = rng_from_seed(seed);
        use rand::Rng;
        for _ in 0..steps {
            // Pick any discovered vertex with positive degree.
            let order = state.view().discovered().to_vec();
            let v = order[rng.gen_range(0..order.len())];
            let info = state.view().vertex(v).unwrap();
            if info.degree() == 0 {
                continue;
            }
            let e = info.edge(rng.gen_range(0..info.degree()));
            state.request(v, e).unwrap();
            issued += 1;
            prop_assert_eq!(state.requests(), issued);
        }
    }

    #[test]
    fn weak_oracle_accepts_exactly_what_the_incident_scan_accepts(
        n in 2usize..24,
        m in 1usize..4,
        p in 0.0f64..=1.0,
        mori in 0u8..2,
        seed in 0u64..1000,
        grow in 0usize..30,
        raw_edges in proptest::collection::vec((0usize..1000, 0usize..1000), 0..40),
        probes in proptest::collection::vec((0u8..4, 0usize..1000, 0usize..1000), 1..60),
    ) {
        // Merged Móri graphs with m ≥ 2 carry self-loops and parallel
        // edges; the raw multigraphs add arbitrary ones, and isolated
        // vertices.
        let graph = if mori == 1 {
            connected_graph(n, m, p, seed)
        } else {
            UndirectedCsr::from_edges(n, raw_edges.iter().map(|&(a, b)| (a % n, b % n))).unwrap()
        };
        let (nodes, edges) = (graph.node_count(), graph.edge_count());
        let mut scratch = SearchScratch::new();
        let start = NodeId::new(seed as usize % nodes);
        let mut state = WeakSearchState::new_in(&mut scratch, &graph, start).unwrap();
        let mut rng = rng_from_seed(seed);
        use rand::Rng;
        for _ in 0..grow {
            let v = state.view().discovered()[rng.gen_range(0..state.view().len())];
            let info = state.view().vertex(v).unwrap();
            if info.degree() == 0 {
                continue;
            }
            let e = info.edge(rng.gen_range(0..info.degree()));
            let expected = reference_request(&graph, state.view(), v, e);
            prop_assert!(expected.is_ok());
            prop_assert_eq!(state.request(v, e), expected, "legal request ({:?}, {:?})", v, e);
        }
        // Kind 3 probes the edge a frontier cursor just handed out, which
        // the oracle answers from its memo, or a near miss of it.
        let mut cursors = FrontierCursors::new();
        let mut handed_out = None;
        for &(kind, a, b) in &probes {
            // Most probes start from a discovered vertex, so the
            // accepting side (and its `b == u` half) is exercised too.
            let discovered = state.view().discovered();
            let (u, e) = match kind {
                0 => (NodeId::new(a % (nodes + 2)), EdgeId::new(b % (edges + 3))),
                1 => (discovered[a % discovered.len()], EdgeId::new(b % (edges + 3))),
                2 => {
                    let u = discovered[a % discovered.len()];
                    let info = state.view().vertex(u).unwrap();
                    let e = info.edges().nth(b % info.degree().max(1));
                    (u, e.unwrap_or(EdgeId::new(b % (edges + 3))))
                }
                _ => {
                    let u = discovered[a % discovered.len()];
                    match cursors.next_unexplored(state.view(), u) {
                        Some(e) => {
                            handed_out = Some((u, e));
                            cursor_probe(&graph, state.view(), u, e, b)
                        }
                        None => (u, EdgeId::new(b % (edges + 3))),
                    }
                }
            };
            let expected = reference_request(&graph, state.view(), u, e);
            let (requests, len) = (state.requests(), state.view().len());
            let got = state.request(u, e);
            prop_assert_eq!(&got, &expected, "request ({:?}, {:?})", u, e);
            if got.is_ok() {
                prop_assert_eq!(state.requests(), requests + 1);
            } else {
                prop_assert_eq!(state.requests(), requests);
                prop_assert_eq!(state.view().len(), len);
            }
        }
        // The last handed-out edge, requested again after the scratch was
        // reset onto another graph (the same one relabelled by one) that
        // starts at its vertex: the memo must not outlive its view.
        if let Some((u, e)) = handed_out {
            let other = UndirectedCsr::from_edges(
                nodes,
                graph.edges().map(|(_, (a, b))| ((a.index() + 1) % nodes, (b.index() + 1) % nodes)),
            )
            .unwrap();
            let mut state = WeakSearchState::new_in(&mut scratch, &other, u).unwrap();
            let expected = reference_request(&other, state.view(), u, e);
            prop_assert_eq!(state.request(u, e), expected, "after reset ({:?}, {:?})", u, e);
        }
    }

    #[test]
    fn strong_oracle_reveals_whole_neighborhoods(
        n in 2usize..40,
        m in 1usize..3,
        p in 0.0f64..=1.0,
        seed in 0u64..500,
    ) {
        let graph = connected_graph(n, m, p, seed);
        let mut scratch = SearchScratch::new();
        let mut state =
            StrongSearchState::new_in(&mut scratch, &graph, NodeId::from_label(1)).unwrap();
        let revealed = state.request(NodeId::from_label(1)).unwrap().to_vec();
        prop_assert_eq!(revealed.len(), graph.degree(NodeId::from_label(1)));
        for v in revealed {
            prop_assert!(state.view().contains(v));
            prop_assert_eq!(state.view().degree_of(v), Some(graph.degree(v)));
        }
    }

    #[test]
    fn strong_and_weak_bfs_agree_on_reachability(
        n in 2usize..60,
        p in 0.0f64..=1.0,
        seed in 0u64..500,
        target_sel in 0usize..1000,
    ) {
        let graph = connected_graph(n, 1, p, seed);
        let target = NodeId::new(target_sel % n);
        let task = SearchTask::new(NodeId::from_label(1), target)
            .with_budget(100 * n);
        let weak = run_weak(
            &graph,
            &task,
            &mut *SearcherKind::BfsFlood.build(),
            &mut rng_from_seed(0),
        )
        .unwrap();
        let strong =
            run_strong_in(&mut SearchScratch::new(), &graph, &task, &mut StrongBfs::new(), &mut rng_from_seed(0))
                .unwrap();
        prop_assert_eq!(weak.found, strong.found);
        // The strong oracle is at least as informative per request.
        prop_assert!(strong.requests <= weak.requests.max(1));
    }
}
