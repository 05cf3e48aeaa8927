//! Interval routing on trees with heavy-light decomposition (Fact 5.1,
//! \[TZ01\]) and the Γ-block extension (Claim 5.6).
//!
//! Every vertex `v` gets a **table**: its DFS interval, the port to its
//! parent, and the interval + port of its (unique) heavy child. Every vertex
//! gets a **label**: its DFS interval plus one entry per *light* edge on the
//! root→v path (there are at most `⌈log₂ n⌉`), each carrying the source
//! vertex's DFS number and the port to take. A vertex `u` on the root→t path
//! computes the next hop from its table and `t`'s label in O(1).
//!
//! The Γ extension: each tree edge `e = (u, v)` (with `v` the child) is
//! assigned a block `Γ_T(e)` of `f+1 .. 2f+1` children of `u` (consecutive
//! siblings of `v`) that store `e`'s connectivity labels; tables and labels
//! additionally carry the ports from `u` to the Γ members so a router at `u`
//! can fetch a discovered faulty edge's label from a surviving neighbor
//! (Claim 5.6). For `deg(u, T) <= f+1` the block is just `{u, v}`.

use ftl_gf2::BitVec;
use ftl_graph::{EdgeId, Graph, SpanningTree, VertexId};

/// Routing decision at a vertex.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum NextHop {
    /// The current vertex is the destination.
    Arrived,
    /// Forward through this port.
    Port(u32),
}

/// A light-edge entry on the root→v path: "at the vertex with DFS number
/// `src_pre`, take `port`"; `gamma_ports` are the ports from that vertex to
/// the Γ-block members of the edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LightEntry {
    /// DFS number of the edge's source (parent-side) vertex.
    pub src_pre: u32,
    /// Port from the source vertex along the edge.
    pub port: u32,
    /// Ports from the source vertex to the Γ-block members of this edge.
    pub gamma_ports: Vec<u32>,
}

/// The tree-routing label `L_T(v)` (Fact 5.1 / Claim 5.6): `O(f·log² n)`
/// bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeLabel {
    /// DFS entry time of `v`.
    pub pre: u32,
    /// DFS exit time of `v`.
    pub post: u32,
    /// Light edges on the root→v path, root side first.
    pub lights: Vec<LightEntry>,
}

/// The tree-routing table `R_T(v)`: `O(f·log n)` bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeTable {
    /// DFS entry time of `v`.
    pub pre: u32,
    /// DFS exit time of `v`.
    pub post: u32,
    /// Port to the parent (`None` at the root).
    pub parent_port: Option<u32>,
    /// Heavy child interval, port, and Γ ports (`None` at leaves).
    pub heavy: Option<HeavyEntry>,
}

/// Table entry for the unique heavy child edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeavyEntry {
    /// DFS entry time of the heavy child.
    pub pre: u32,
    /// DFS exit time of the heavy child.
    pub post: u32,
    /// Port to the heavy child.
    pub port: u32,
    /// Ports to the Γ-block members of the heavy edge.
    pub gamma_ports: Vec<u32>,
}

/// The tree-routing scheme of one rooted spanning tree.
#[derive(Debug, Clone)]
pub struct TreeRouting {
    labels: Vec<TreeLabel>,
    tables: Vec<TreeTable>,
    /// For every tree edge (by graph edge id): the Γ-block members.
    gamma: Vec<Vec<VertexId>>,
    f: usize,
    max_lights: usize,
}

impl TreeRouting {
    /// Builds labels and tables for `tree` inside `graph`, with Γ blocks
    /// sized for `f` faults.
    ///
    /// # Panics
    ///
    /// Panics if the tree does not span the graph.
    pub fn new(graph: &Graph, tree: &SpanningTree, f: usize) -> Self {
        let n = graph.num_vertices();
        assert_eq!(tree.num_tree_vertices(), n, "tree must span the graph");
        // Subtree sizes for heavy-child selection.
        let mut size = vec![1usize; n];
        for &v in tree.preorder().iter().rev() {
            if let Some((p, _)) = tree.parent(v) {
                size[p.index()] += size[v.index()];
            }
        }
        let heavy_child: Vec<Option<VertexId>> = (0..n)
            .map(|i| {
                tree.children(VertexId::new(i))
                    .iter()
                    .copied()
                    .max_by_key(|c| (size[c.index()], std::cmp::Reverse(c.index())))
            })
            .collect();
        // Γ blocks: children of u in consecutive blocks of f+1 (last block
        // absorbs the remainder, size <= 2f+1). For deg(u,T) <= f+1 the
        // block is {u, v} itself (both endpoints store the label).
        let mut gamma: Vec<Vec<VertexId>> = vec![Vec::new(); graph.num_edges()];
        for u in graph.vertices() {
            if !tree.contains(u) {
                continue;
            }
            let children = tree.children(u);
            let block_size = f + 1;
            let small = children.len() <= block_size;
            let num_full_blocks = if small {
                0
            } else {
                children.len() / block_size
            };
            for (ci, &c) in children.iter().enumerate() {
                let (_, e) = tree.parent(c).expect("child has parent edge");
                if small {
                    gamma[e.index()] = vec![u, c];
                } else {
                    let mut b = ci / block_size;
                    if b >= num_full_blocks {
                        b = num_full_blocks - 1; // last block absorbs remainder
                    }
                    let start = b * block_size;
                    let end = if b == num_full_blocks - 1 {
                        children.len()
                    } else {
                        start + block_size
                    };
                    gamma[e.index()] = children[start..end].to_vec();
                    // The child itself always stores its parent edge's label.
                    if !gamma[e.index()].contains(&c) {
                        gamma[e.index()].push(c);
                    }
                }
            }
        }
        // Port of the tree edge from parent u to child c.
        let port_to_child = |u: VertexId, c: VertexId| -> u32 {
            let (_, e) = tree.parent(c).expect("child");
            graph.port_of_edge(u, e).expect("edge at parent") as u32
        };
        let gamma_ports_of = |u: VertexId, c: VertexId| -> Vec<u32> {
            let (_, e) = tree.parent(c).expect("child");
            gamma[e.index()]
                .iter()
                .filter(|&&w| w != u)
                .map(|&w| {
                    let (_, ew) = tree.parent(w).expect("gamma member is a child of u");
                    graph.port_of_edge(u, ew).expect("edge at parent") as u32
                })
                .collect()
        };
        // Tables — independent per vertex, built in parallel (`parallel`
        // feature; see `ftl-par`).
        let tables: Vec<TreeTable> = ftl_par::par_map_indexed_with_min(n, 512, |i| {
            let v = VertexId::new(i);
            let parent_port = tree
                .parent(v)
                .map(|(_, e)| graph.port_of_edge(v, e).expect("edge at child") as u32);
            let heavy = heavy_child[i].map(|h| HeavyEntry {
                pre: tree.pre(h),
                post: tree.post(h),
                port: port_to_child(v, h),
                gamma_ports: gamma_ports_of(v, h),
            });
            TreeTable {
                pre: tree.pre(v),
                post: tree.post(v),
                parent_port,
                heavy,
            }
        });
        // Labels: walk from root down, carrying the light entries.
        let mut labels: Vec<Option<TreeLabel>> = vec![None; n];
        let root = tree.root();
        labels[root.index()] = Some(TreeLabel {
            pre: tree.pre(root),
            post: tree.post(root),
            lights: Vec::new(),
        });
        for &v in tree.preorder() {
            let me = labels[v.index()]
                .clone()
                .expect("preorder fills parents first");
            for &c in tree.children(v) {
                let mut lights = me.lights.clone();
                if heavy_child[v.index()] != Some(c) {
                    lights.push(LightEntry {
                        src_pre: tree.pre(v),
                        port: port_to_child(v, c),
                        gamma_ports: gamma_ports_of(v, c),
                    });
                }
                labels[c.index()] = Some(TreeLabel {
                    pre: tree.pre(c),
                    post: tree.post(c),
                    lights,
                });
            }
        }
        let labels: Vec<TreeLabel> = labels
            .into_iter()
            .map(|l| l.expect("tree spans the graph"))
            .collect();
        let max_lights = labels.iter().map(|l| l.lights.len()).max().unwrap_or(0);
        TreeRouting {
            labels,
            tables,
            gamma,
            f,
            max_lights,
        }
    }

    /// The label `L_T(v)`.
    pub fn label(&self, v: VertexId) -> &TreeLabel {
        &self.labels[v.index()]
    }

    /// The table `R_T(v)`.
    pub fn table(&self, v: VertexId) -> &TreeTable {
        &self.tables[v.index()]
    }

    /// Γ-block members of a tree edge.
    pub fn gamma_members(&self, e: EdgeId) -> &[VertexId] {
        &self.gamma[e.index()]
    }

    /// All tree edges whose Γ block contains `v` (whose labels `v` must
    /// store).
    pub fn edges_stored_by(&self, v: VertexId) -> Vec<EdgeId> {
        self.gamma
            .iter()
            .enumerate()
            .filter(|(_, g)| g.contains(&v))
            .map(|(i, _)| EdgeId::new(i))
            .collect()
    }

    /// Fault budget the Γ blocks were sized for.
    pub fn f(&self) -> usize {
        self.f
    }

    /// The next hop from the vertex owning `table` toward the vertex owning
    /// `target` (Fact 5.1: O(1) given the light entries).
    ///
    /// Returns `None` if the label and table are inconsistent (never happens
    /// for labels/tables of the same tree).
    pub fn next_hop(table: &TreeTable, target: &TreeLabel) -> Option<NextHop> {
        Self::next_hop_with_gamma(table, target).map(|(h, _)| h)
    }

    /// Like [`TreeRouting::next_hop`], additionally returning the Γ ports of
    /// the chosen downward edge (Claim 5.6); the Γ list is empty for upward
    /// (parent) hops, where the mover itself stores the edge label.
    pub fn next_hop_with_gamma(
        table: &TreeTable,
        target: &TreeLabel,
    ) -> Option<(NextHop, Vec<u32>)> {
        if table.pre == target.pre {
            return Some((NextHop::Arrived, Vec::new()));
        }
        let in_my_subtree = table.pre <= target.pre && target.post <= table.post;
        if !in_my_subtree {
            return table.parent_port.map(|p| (NextHop::Port(p), Vec::new()));
        }
        if let Some(h) = &table.heavy {
            if h.pre <= target.pre && target.post <= h.post {
                return Some((NextHop::Port(h.port), h.gamma_ports.clone()));
            }
        }
        // Otherwise the next edge is light and appears in the target label.
        target
            .lights
            .iter()
            .find(|l| l.src_pre == table.pre)
            .map(|l| (NextHop::Port(l.port), l.gamma_ports.clone()))
    }

    /// Maximum number of light entries on any label (`<= ⌈log₂ n⌉`).
    pub fn max_lights(&self) -> usize {
        self.max_lights
    }

    /// A codec able to (de)serialize every label of this tree into a
    /// fixed-width bit string (for embedding into sketch cells).
    pub fn codec(&self) -> LabelCodec {
        LabelCodec {
            max_lights: self.max_lights,
            gamma_cap: 2 * self.f + 1,
        }
    }

    /// Bits of the largest label under this tree's codec.
    pub fn label_bits(&self) -> usize {
        self.codec().bits()
    }

    /// Bits of a table: interval + parent port + heavy entry with Γ ports.
    pub fn table_bits(&self) -> usize {
        64 + 33 + 1 + 96 + (2 * self.f + 1) * 32
    }
}

/// Fixed-width serialization of [`TreeLabel`]s, so they can ride inside
/// XOR-composable sketch cells (Eq. (5) puts `L_T(u)`, `L_T(v)` in the
/// extended edge identifiers).
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub struct LabelCodec {
    /// Maximum number of light entries across the tree.
    pub max_lights: usize,
    /// Maximum Γ-block size (`2f + 1`).
    pub gamma_cap: usize,
}

impl LabelCodec {
    /// Serialized width in bits.
    pub fn bits(&self) -> usize {
        // pre + post + light count + entries (src_pre, port, gamma count,
        // gamma ports).
        64 + 16 + self.max_lights * (64 + 16 + self.gamma_cap * 32)
    }

    /// Serializes a label.
    ///
    /// # Panics
    ///
    /// Panics if the label exceeds the codec's capacity.
    pub fn encode(&self, label: &TreeLabel) -> BitVec {
        assert!(label.lights.len() <= self.max_lights, "too many lights");
        let mut v = BitVec::zeros(self.bits());
        let mut pos = 0usize;
        let put = |v: &mut BitVec, pos: &mut usize, word: u64, bits: usize| {
            for i in 0..bits {
                if (word >> i) & 1 == 1 {
                    v.set(*pos + i, true);
                }
            }
            *pos += bits;
        };
        put(&mut v, &mut pos, label.pre as u64, 32);
        put(&mut v, &mut pos, label.post as u64, 32);
        put(&mut v, &mut pos, label.lights.len() as u64, 16);
        for l in &label.lights {
            assert!(l.gamma_ports.len() <= self.gamma_cap, "gamma overflow");
            put(&mut v, &mut pos, l.src_pre as u64, 32);
            put(&mut v, &mut pos, l.port as u64, 32);
            put(&mut v, &mut pos, l.gamma_ports.len() as u64, 16);
            for &g in &l.gamma_ports {
                put(&mut v, &mut pos, g as u64, 32);
            }
            pos += (self.gamma_cap - l.gamma_ports.len()) * 32;
        }
        v
    }

    /// Deserializes a label.
    ///
    /// # Panics
    ///
    /// Panics if the bit string has the wrong width.
    pub fn decode(&self, bits: &BitVec) -> TreeLabel {
        assert_eq!(bits.len(), self.bits(), "codec width mismatch");
        let mut pos = 0usize;
        let get = |pos: &mut usize, n: usize| -> u64 {
            let mut w = 0u64;
            for i in 0..n {
                if bits.get(*pos + i) {
                    w |= 1 << i;
                }
            }
            *pos += n;
            w
        };
        let pre = get(&mut pos, 32) as u32;
        let post = get(&mut pos, 32) as u32;
        let count = get(&mut pos, 16) as usize;
        let mut lights = Vec::with_capacity(count);
        for _ in 0..count.min(self.max_lights) {
            let src_pre = get(&mut pos, 32) as u32;
            let port = get(&mut pos, 32) as u32;
            let gcount = get(&mut pos, 16) as usize;
            let mut gamma_ports = Vec::with_capacity(gcount);
            for _ in 0..gcount.min(self.gamma_cap) {
                gamma_ports.push(get(&mut pos, 32) as u32);
            }
            pos += (self.gamma_cap - gamma_ports.len()) * 32;
            lights.push(LightEntry {
                src_pre,
                port,
                gamma_ports,
            });
        }
        TreeLabel { pre, post, lights }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Routes hop-by-hop from s to t using only tables and the target label;
    /// asserts arrival and returns the traversed edges.
    fn simulate(g: &Graph, tr: &TreeRouting, s: VertexId, t: VertexId) -> Vec<EdgeId> {
        let target = tr.label(t).clone();
        let mut cur = s;
        let mut edges = Vec::new();
        for _ in 0..2 * g.num_vertices() + 2 {
            match TreeRouting::next_hop(tr.table(cur), &target).expect("consistent") {
                NextHop::Arrived => return edges,
                NextHop::Port(p) => {
                    let nb = g.port(cur, p as usize).expect("valid port");
                    edges.push(nb.edge);
                    cur = nb.vertex;
                }
            }
        }
        panic!("routing loop between {s:?} and {t:?}");
    }

    fn check_all_pairs(g: &Graph, f: usize) {
        let tree = SpanningTree::bfs_tree(g, VertexId::new(0)).unwrap();
        let tr = TreeRouting::new(g, &tree, f);
        for a in 0..g.num_vertices() {
            for b in 0..g.num_vertices() {
                let (s, t) = (VertexId::new(a), VertexId::new(b));
                let edges = simulate(g, &tr, s, t);
                // The route must be exactly the tree path (optimal in T).
                assert_eq!(edges, tree.tree_path(s, t), "pair ({a},{b})");
            }
        }
    }

    #[test]
    fn path_tree_routing() {
        check_all_pairs(&generators::path(8), 1);
    }

    #[test]
    fn star_tree_routing() {
        check_all_pairs(&generators::star(9), 2);
    }

    #[test]
    fn grid_bfs_tree_routing() {
        check_all_pairs(&generators::grid(4, 4), 1);
    }

    #[test]
    fn random_trees_routing() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let g = generators::random_tree(40, &mut rng);
            check_all_pairs(&g, 2);
        }
    }

    #[test]
    fn caterpillar_with_high_degree() {
        check_all_pairs(&generators::caterpillar(5, 6), 2);
    }

    #[test]
    fn labels_have_logarithmically_many_lights() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::random_tree(256, &mut rng);
        let tree = SpanningTree::bfs_tree(&g, VertexId::new(0)).unwrap();
        let tr = TreeRouting::new(&g, &tree, 1);
        // Heavy-light: at most log2(256) = 8 light edges on any root path.
        assert!(tr.max_lights() <= 8, "max lights {}", tr.max_lights());
    }

    #[test]
    fn gamma_blocks_cover_every_tree_edge() {
        let g = generators::star(20); // root with 19 children
        let tree = SpanningTree::bfs_tree(&g, VertexId::new(0)).unwrap();
        let f = 3;
        let tr = TreeRouting::new(&g, &tree, f);
        for (id, _) in g.edge_ids() {
            let members = tr.gamma_members(id);
            // Child endpoint always stores its parent edge.
            let child = g.edge(id).other(VertexId::new(0));
            assert!(members.contains(&child), "{id:?}");
            // Block size in [f+1, 2f+2] (child appended to its block).
            assert!(members.len() > f, "{id:?}: {}", members.len());
            assert!(members.len() <= 2 * f + 2, "{id:?}: {}", members.len());
        }
    }

    #[test]
    fn gamma_small_degree_is_both_endpoints() {
        let g = generators::path(5);
        let tree = SpanningTree::bfs_tree(&g, VertexId::new(0)).unwrap();
        let tr = TreeRouting::new(&g, &tree, 2);
        for (id, e) in g.edge_ids() {
            let m = tr.gamma_members(id);
            assert!(m.contains(&e.u()) && m.contains(&e.v()));
        }
    }

    #[test]
    fn gamma_ports_reach_gamma_members() {
        let g = generators::star(16);
        let tree = SpanningTree::bfs_tree(&g, VertexId::new(0)).unwrap();
        let tr = TreeRouting::new(&g, &tree, 2);
        let root = VertexId::new(0);
        for leaf in 1..16 {
            let t = VertexId::new(leaf);
            let (hop, gports) =
                TreeRouting::next_hop_with_gamma(tr.table(root), tr.label(t)).unwrap();
            let NextHop::Port(p) = hop else {
                panic!("must forward")
            };
            let edge = g.port(root, p as usize).unwrap().edge;
            let members = tr.gamma_members(edge);
            // Every advertised gamma port leads to a member.
            for gp in gports {
                let w = g.port(root, gp as usize).unwrap().vertex;
                assert!(members.contains(&w), "port {gp} -> {w:?}");
            }
        }
    }

    #[test]
    fn edges_stored_by_is_inverse_of_gamma() {
        let g = generators::caterpillar(4, 5);
        let tree = SpanningTree::bfs_tree(&g, VertexId::new(0)).unwrap();
        let tr = TreeRouting::new(&g, &tree, 1);
        for v in g.vertices() {
            for e in tr.edges_stored_by(v) {
                assert!(tr.gamma_members(e).contains(&v));
            }
        }
    }

    #[test]
    fn codec_roundtrip() {
        let mut rng = StdRng::seed_from_u64(17);
        let g = generators::random_tree(64, &mut rng);
        let tree = SpanningTree::bfs_tree(&g, VertexId::new(0)).unwrap();
        let tr = TreeRouting::new(&g, &tree, 2);
        let codec = tr.codec();
        for v in g.vertices() {
            let l = tr.label(v);
            let bits = codec.encode(l);
            assert_eq!(bits.len(), codec.bits());
            assert_eq!(&codec.decode(&bits), l);
        }
    }

    #[test]
    fn codec_width_uniform() {
        let g = generators::grid(3, 5);
        let tree = SpanningTree::bfs_tree(&g, VertexId::new(0)).unwrap();
        let tr = TreeRouting::new(&g, &tree, 1);
        let codec = tr.codec();
        let widths: ftl_seeded::DetHashSet<usize> = g
            .vertices()
            .map(|v| codec.encode(tr.label(v)).len())
            .collect();
        assert_eq!(widths.len(), 1);
    }

    #[test]
    fn single_vertex_tree() {
        let g = ftl_graph::GraphBuilder::new(1).build();
        let tree = SpanningTree::bfs_tree(&g, VertexId::new(0)).unwrap();
        let tr = TreeRouting::new(&g, &tree, 1);
        let hop = TreeRouting::next_hop(tr.table(VertexId::new(0)), tr.label(VertexId::new(0)));
        assert_eq!(hop, Some(NextHop::Arrived));
    }
}
