//! BFS: breadth-first search (Rodinia).
//!
//! Mixed access pattern: dense sweeps over the frontier masks plus
//! data-dependent gathers into the node/edge arrays — the gathers are the
//! irregular half that stresses remote cacheline access and TLB reach.

use gh_profiler::Phase;
use gh_sim::{Machine, MemMode, RunReport};

use crate::common::{scaled, IdSet, UBuf};

/// Input parameters.
#[derive(Debug, Clone)]
pub struct BfsParams {
    /// Node count (paper: 16M; scaled default 1M).
    pub nodes: usize,
    /// Average out-degree.
    pub degree: usize,
    /// RNG seed for graph construction.
    pub seed: u64,
}

impl Default for BfsParams {
    fn default() -> Self {
        Self {
            nodes: 1_000_000,
            degree: 6,
            seed: 31,
        }
    }
}

/// A CSR graph.
#[derive(Debug)]
pub struct Graph {
    /// Per-node `(first_edge, edge_count)`.
    pub nodes: Vec<(u32, u32)>,
    /// Flattened adjacency.
    pub edges: Vec<u32>,
}

fn rng_next(state: &mut u64) -> u64 {
    // SplitMix64: deterministic, seedable, no dependency on rand's API.
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the random graph the Rodinia input generator would produce:
/// every node gets `degree ± 2` random neighbours, plus a chain edge
/// (`i → i+1`) so the graph is connected and BFS reaches everything.
pub fn build_graph(p: &BfsParams) -> Graph {
    let n = p.nodes;
    let mut state = p.seed | 1;
    let mut nodes = Vec::with_capacity(n);
    // `degree + 3` bounds every node's edge count, so the adjacency is
    // built in place, never reallocated.
    let mut edges = Vec::with_capacity(n * (p.degree + 3));
    for i in 0..n {
        let start = edges.len() as u32;
        let extra = (rng_next(&mut state) % 5) as i64 - 2;
        let deg = (p.degree as i64 + extra).max(1) as usize;
        if i + 1 < n {
            edges.push((i + 1) as u32);
        }
        for _ in 0..deg {
            edges.push((rng_next(&mut state) % n as u64) as u32);
        }
        nodes.push((start, edges.len() as u32 - start));
    }
    Graph { nodes, edges }
}

/// Sequential reference BFS: level per node (-1 if unreachable).
pub fn reference(g: &Graph) -> Vec<i32> {
    let mut cost = vec![-1i32; g.nodes.len()];
    cost[0] = 0;
    let mut frontier = vec![0u32];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            let (s, c) = g.nodes[u as usize];
            for &v in &g.edges[s as usize..(s + c) as usize] {
                if cost[v as usize] < 0 {
                    cost[v as usize] = cost[u as usize] + 1;
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    cost
}

fn checksum_of(cost: &[i32]) -> f64 {
    cost.iter()
        .map(|&c| if c >= 0 { c as f64 + 1.0 } else { 0.0 })
        .sum()
}

/// Meters a buffer's coalesced spans in one sparse call: big merged runs
/// are dense streaming accesses, small fragments are irregular
/// (line-granular) ones.
fn meter(
    k: &mut gh_sim::Kernel<'_>,
    buf: &gh_sim::Buffer,
    spans: impl IntoIterator<Item = (u64, u64)>,
    write: bool,
) {
    k.sparse(
        buf,
        write,
        spans.into_iter().map(|(off, len)| (off, len, len < 2048)),
    );
}

/// The adjacency spans of the frontier, from its runs of consecutive
/// node ids. CSR offsets grow with node id, so a run owns one contiguous
/// edge span; spans left touching by empty adjacency lists in between
/// are merged, which makes the result equal to `coalesce` over the
/// per-node segments without sorting them.
fn edge_spans(g: &Graph, frontier: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(frontier.len());
    for &run in frontier {
        let edges = edge_range(g, run);
        let (start, end) = (edges.start as u64 * 4, edges.end as u64 * 4);
        if end == start {
            continue;
        }
        match out.last_mut() {
            Some((o, l)) if *o + *l == start => *l = end - *o,
            _ => out.push((start, end - start)),
        }
    }
    out
}

/// The `edges` index range owned by a run of consecutive node ids: from
/// its first node's first edge to its last node's last.
fn edge_range(g: &Graph, (first, count): (u64, u64)) -> std::ops::Range<usize> {
    let (s, c) = g.nodes[(first + count - 1) as usize];
    g.nodes[first as usize].0 as usize..(s + c) as usize
}

/// One BFS level's touch sets, ascending: runs of consecutive node ids
/// `(first, count)`, and the edge spans in bytes. Each is built from a
/// set, so none depends on the order the level was walked in.
#[derive(Debug)]
struct Level {
    /// The frontier: the nodes whose descriptors and adjacency are read.
    frontier: Vec<(u64, u64)>,
    /// The frontier's adjacency spans in `edges`, in bytes.
    edge_spans: Vec<(u64, u64)>,
    /// Every neighbour whose visited flag is checked.
    neighbours: Vec<(u64, u64)>,
    /// The nodes this level reaches first: their `cost` and `updating`
    /// entries are written, and they are the next frontier.
    found: Vec<(u64, u64)>,
}

/// Level-synchronous BFS from node 0 that walks each frontier in
/// ascending node order: the frontier is kept as its runs of consecutive
/// ids, and each run's adjacency is one contiguous stretch of `edges`
/// read as a stream into the neighbour set. The neighbours still
/// unreached are the level's finds. Levels do not depend on the visit
/// order, and the touch sets are bitmaps, so every level equals the
/// discovery-order walk's.
#[derive(Debug)]
struct Walk<'g> {
    g: &'g Graph,
    /// Level per node, -1 until reached.
    cost: Vec<i32>,
    depth: i32,
    /// The neighbours the last level checked.
    neighbours: IdSet,
    /// The nodes the last level reached first (node 0 before the first).
    found: IdSet,
}

impl<'g> Walk<'g> {
    fn new(g: &'g Graph) -> Self {
        let n = g.nodes.len();
        let mut cost = vec![-1i32; n];
        cost[0] = 0;
        let mut found = IdSet::new(n);
        found.insert(0);
        Walk {
            g,
            cost,
            depth: 0,
            neighbours: IdSet::new(n),
            found,
        }
    }
}

impl Iterator for Walk<'_> {
    type Item = Level;

    /// Expands the last level's finds by one level.
    fn next(&mut self) -> Option<Level> {
        let frontier = self.found.runs();
        if frontier.is_empty() {
            return None;
        }
        let g = self.g;
        self.depth += 1;
        self.neighbours.clear();
        self.found.clear();
        for &run in &frontier {
            for &v in &g.edges[edge_range(g, run)] {
                self.neighbours.insert(v);
            }
        }
        // Checked in ascending order, the neighbours' costs are read
        // as a forward sweep rather than one random access per edge.
        let neighbours = self.neighbours.runs();
        for &(first, count) in &neighbours {
            for v in first..first + count {
                let c = &mut self.cost[v as usize];
                if *c < 0 {
                    *c = self.depth;
                    self.found.insert(v as u32);
                }
            }
        }
        Some(Level {
            edge_spans: edge_spans(g, &frontier),
            neighbours,
            found: self.found.runs(),
            frontier,
        })
    }
}

/// Runs BFS under `mode` (checksum = Σ (level+1) over reached nodes).
pub fn run(mut m: Machine, mode: MemMode, p: &BfsParams) -> RunReport {
    let g = build_graph(p);
    let n = p.nodes;
    let nodes_bytes = (n * 8) as u64;
    let edges_bytes = (g.edges.len() * 4) as u64;
    let cost_bytes = (n * 4) as u64;
    let mask_bytes = n as u64;

    // ---- GPU context initialization + argument parsing (phase 1) ----
    m.phase(Phase::CtxInit);
    m.rt.cuda_init();

    // ---- allocation ----
    m.phase(Phase::Alloc);
    let nodes_buf = UBuf::alloc(&mut m, mode, nodes_bytes, "bfs.nodes");
    let edges_buf = UBuf::alloc(&mut m, mode, edges_bytes, "bfs.edges");
    let cost_buf = UBuf::alloc(&mut m, mode, cost_bytes, "bfs.cost");
    let mask_buf = UBuf::alloc(&mut m, mode, mask_bytes, "bfs.mask");
    let upd_buf = UBuf::alloc(&mut m, mode, mask_bytes, "bfs.updating");
    let vis_buf = UBuf::alloc(&mut m, mode, mask_bytes, "bfs.visited");

    // ---- CPU-side initialization ----
    m.phase(Phase::CpuInit);
    nodes_buf.cpu_init(&mut m, 0, nodes_bytes);
    edges_buf.cpu_init(&mut m, 0, edges_bytes);
    cost_buf.cpu_init(&mut m, 0, cost_bytes);
    mask_buf.cpu_init(&mut m, 0, mask_bytes);
    upd_buf.cpu_init(&mut m, 0, mask_bytes);
    vis_buf.cpu_init(&mut m, 0, mask_bytes);

    // ---- compute ----
    m.phase(Phase::Compute);
    for b in [
        &nodes_buf, &edges_buf, &cost_buf, &mask_buf, &upd_buf, &vis_buf,
    ] {
        b.upload(&mut m);
    }

    // Real BFS with metered per-level kernels. Each level is expanded
    // on the host before its kernels open, as the other apps run their
    // real compute outside the kernel model.
    let mut walk = Walk::new(&g);
    for level in walk.by_ref() {
        // Kernel 1: expand the frontier.
        {
            let mut k = m.rt.launch("bfs_kernel1");
            // Dense sweep over the mask to find frontier threads.
            k.read(mask_buf.gpu(), 0, mask_bytes);
            // Gather the frontier's node descriptors and adjacency
            // segments, check the neighbours' visited flags, then scatter
            // new costs and the updating mask for the newly reached nodes.
            meter(&mut k, nodes_buf.gpu(), scaled(&level.frontier, 8), false);
            meter(&mut k, edges_buf.gpu(), level.edge_spans, false);
            meter(&mut k, vis_buf.gpu(), level.neighbours, false);
            meter(&mut k, cost_buf.gpu(), scaled(&level.found, 4), true);
            meter(&mut k, upd_buf.gpu(), scaled(&level.found, 1), true);
            k.compute((n + g.edges.len()) as u64);
            k.finish();
        }
        // Kernel 2: fold the updating mask into mask/visited.
        {
            let mut k = m.rt.launch("bfs_kernel2");
            k.read(upd_buf.gpu(), 0, mask_bytes);
            // Per-span calls keep the mask/visited interleaving the GPU
            // issues; each buffer's settled memo survives between them.
            for &span in &level.found {
                meter(&mut k, mask_buf.gpu(), [span], true);
                meter(&mut k, vis_buf.gpu(), [span], true);
            }
            k.compute(n as u64);
            k.finish();
        }
    }
    let cost = walk.cost;
    cost_buf.download(&mut m, 0, cost_bytes);
    m.set_checksum(checksum_of(&cost));

    // ---- de-allocation ----
    m.phase(Phase::Dealloc);
    for b in [nodes_buf, edges_buf, cost_buf, mask_buf, upd_buf, vis_buf] {
        b.free(&mut m);
    }
    m.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::coalesce;

    fn small() -> BfsParams {
        BfsParams {
            nodes: 2000,
            degree: 4,
            seed: 13,
        }
    }

    #[test]
    fn graph_is_connected_via_chain() {
        let g = build_graph(&small());
        let cost = reference(&g);
        assert!(cost.iter().all(|&c| c >= 0), "chain edge connects all");
    }

    #[test]
    fn all_modes_agree_with_reference() {
        let p = small();
        let expected = checksum_of(&reference(&build_graph(&p)));
        for mode in MemMode::ALL {
            let r = run(gh_sim::platform::gh200().machine(), mode, &p);
            assert_eq!(r.checksum, expected, "{mode}");
        }
    }

    #[test]
    fn bfs_levels_are_sane() {
        let g = build_graph(&small());
        let cost = reference(&g);
        assert_eq!(cost[0], 0);
        // A neighbour of node 0 must be at level 1.
        let (s, c) = g.nodes[0];
        for &v in &g.edges[s as usize..(s + c) as usize] {
            assert!(cost[v as usize] <= 1);
        }
    }

    fn id_runs(ids: &[u32], universe: usize) -> Vec<(u64, u64)> {
        let mut set = IdSet::new(universe);
        for &id in ids {
            set.insert(id);
        }
        set.runs()
    }

    #[test]
    fn edge_spans_match_coalesced_segments() {
        let g = build_graph(&small());
        let n = g.nodes.len();
        let frontiers: [Vec<u32>; 4] = [
            vec![0],
            (0..n as u32).collect(),
            (0..n as u32).filter(|i| i % 3 != 1).collect(),
            vec![1999, 5, 7, 6, 1000, 1001, 4],
        ];
        for frontier in frontiers {
            let segments = frontier
                .iter()
                .map(|&u| {
                    let (s, c) = g.nodes[u as usize];
                    (u64::from(s) * 4, u64::from(c) * 4)
                })
                .collect();
            let runs = id_runs(&frontier, n);
            assert_eq!(edge_spans(&g, &runs), coalesce(segments));
        }
        // Empty adjacency lists between two runs leave their edge spans
        // touching: they merge, as `coalesce` merges them.
        let g = Graph {
            nodes: vec![(0, 2), (2, 0), (2, 3), (5, 0), (5, 1)],
            edges: vec![0; 6],
        };
        assert_eq!(edge_spans(&g, &id_runs(&[0, 2, 4], 5)), vec![(0, 24)]);
        assert!(edge_spans(&g, &id_runs(&[1, 3], 5)).is_empty());
    }

    /// A level's metered byte spans, in kernel 1's order: `nodes`,
    /// `edges`, `visited`, `cost`, `updating` (kernel 2 reuses the last).
    type Metered = [Vec<(u64, u64)>; 5];

    fn metered(l: &Level) -> Metered {
        [
            scaled(&l.frontier, 8).collect(),
            l.edge_spans.clone(),
            l.neighbours.clone(),
            scaled(&l.found, 4).collect(),
            scaled(&l.found, 1).collect(),
        ]
    }

    /// The discovery-order walk the ordered one replaced, as the oracle:
    /// it visits each frontier in the order its nodes were reached, keeps
    /// the touches as id lists and coalesces them by sort and merge.
    fn discovery_order_levels(g: &Graph) -> (Vec<Metered>, Vec<i32>) {
        let units = |ids: &[u32], unit: u64| {
            coalesce(ids.iter().map(|&id| (u64::from(id) * unit, unit)).collect())
        };
        let mut cost = vec![-1i32; g.nodes.len()];
        cost[0] = 0;
        let mut frontier = vec![0u32];
        let mut levels = Vec::new();
        while !frontier.is_empty() {
            let (mut segments, mut neighbours, mut next) = (Vec::new(), Vec::new(), Vec::new());
            for &u in &frontier {
                let (s, c) = g.nodes[u as usize];
                segments.push((u64::from(s) * 4, u64::from(c) * 4));
                for &v in &g.edges[s as usize..(s + c) as usize] {
                    neighbours.push(v);
                    if cost[v as usize] < 0 {
                        cost[v as usize] = cost[u as usize] + 1;
                        next.push(v);
                    }
                }
            }
            levels.push([
                units(&frontier, 8),
                coalesce(segments),
                units(&neighbours, 1),
                units(&next, 4),
                units(&next, 1),
            ]);
            frontier = next;
        }
        (levels, cost)
    }

    fn assert_walks_agree(g: &Graph, what: &str) {
        let (expected, expected_cost) = discovery_order_levels(g);
        let mut walk = Walk::new(g);
        let levels: Vec<Metered> = walk.by_ref().map(|l| metered(&l)).collect();
        assert_eq!(levels, expected, "{what}");
        assert_eq!(walk.cost, expected_cost, "{what}");
    }

    /// A CSR graph with `0..=max_degree` random neighbours per node and
    /// no chain, so adjacency lists may be empty and nodes unreachable.
    fn sparse_graph(n: usize, max_degree: u64, seed: u64) -> Graph {
        let mut state = seed | 1;
        let (mut nodes, mut edges) = (Vec::with_capacity(n), Vec::new());
        for _ in 0..n {
            let start = edges.len() as u32;
            for _ in 0..rng_next(&mut state) % (max_degree + 1) {
                edges.push((rng_next(&mut state) % n as u64) as u32);
            }
            nodes.push((start, edges.len() as u32 - start));
        }
        Graph { nodes, edges }
    }

    #[test]
    fn ordered_walk_matches_discovery_order_walk() {
        for (i, &n) in [1usize, 2, 63, 64, 65, 200, 1000].iter().enumerate() {
            for degree in [1usize, 3, 6] {
                let seed = 17 + i as u64 * 7 + degree as u64;
                let p = BfsParams {
                    nodes: n,
                    degree,
                    seed,
                };
                assert_walks_agree(&build_graph(&p), &format!("{p:?}"));
                for max_degree in [1u64, 2, 4] {
                    let g = sparse_graph(n, max_degree, seed);
                    assert_walks_agree(&g, &format!("sparse n={n} d={max_degree} seed={seed}"));
                }
            }
        }
        // Empty adjacency lists inside and at the end of frontier runs,
        // a level that reaches nothing, and an unreachable node.
        let g = Graph {
            nodes: vec![(0, 2), (2, 0), (2, 3), (5, 0), (5, 1), (6, 0)],
            edges: vec![1, 2, 3, 4, 0, 1],
        };
        assert_walks_agree(&g, "hand-built");
        let mut walk = Walk::new(&g);
        let levels: Vec<Level> = walk.by_ref().collect();
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[2].frontier, vec![(3, 2)]);
        assert!(levels[2].found.is_empty());
        assert_eq!(walk.cost, vec![0, 1, 1, 2, 2, -1]);
    }

    #[test]
    fn csr_offsets_are_consistent() {
        let g = build_graph(&small());
        let mut expected_start = 0u32;
        for &(s, c) in &g.nodes {
            assert_eq!(s, expected_start);
            expected_start = s + c;
        }
        assert_eq!(expected_start as usize, g.edges.len());
    }

    #[test]
    fn deterministic_across_runs() {
        let p = small();
        let a = run(gh_sim::platform::gh200().machine(), MemMode::System, &p);
        let b = run(gh_sim::platform::gh200().machine(), MemMode::System, &p);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(
            a.phases.compute, b.phases.compute,
            "virtual time deterministic"
        );
    }
}
