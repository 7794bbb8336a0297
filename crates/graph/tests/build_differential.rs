//! Differential test of the graph kernels against a triplet-sort oracle.
//!
//! `GraphBuilder::build` makes the binary symmetric adjacency in one bucket
//! pass, `add_self_loops` merges the diagonal into sorted rows, and the
//! normalizations scale in place. The oracle below is the composition they
//! replace: `CsrMatrix::from_triplets` for every step (build, binarize, add
//! `I`, scale). Every result must equal it bit for bit, on seeded random
//! graphs with repeat edges, isolated nodes, each `GraphSpec`, an extra
//! attribute family, and self-loops on and off.

use pup_graph::normalize::{add_self_loops, row_normalized, sym_normalized};
use pup_graph::{GraphBuilder, GraphSpec, Layout, NodeRef};
use pup_tensor::CsrMatrix;

/// splitmix64: a tiny seeded generator, so the inputs need no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

// --- oracle: today's from_triplets composition ------------------------------

fn oracle_build(n: usize, edges: &[(usize, usize)]) -> CsrMatrix {
    let mut triplets = Vec::new();
    for &(a, b) in edges {
        triplets.push((a, b, 1.0));
        triplets.push((b, a, 1.0));
    }
    let summed = CsrMatrix::from_triplets(n, n, &triplets);
    let mut binary = Vec::new();
    for r in 0..n {
        for (c, v) in summed.row_entries(r) {
            if v != 0.0 {
                binary.push((r, c, 1.0));
            }
        }
    }
    CsrMatrix::from_triplets(n, n, &binary)
}

fn oracle_self_loops(adj: &CsrMatrix) -> CsrMatrix {
    let n = adj.rows();
    let mut triplets = Vec::new();
    for r in 0..n {
        for (c, v) in adj.row_entries(r) {
            triplets.push((r, c, v));
        }
        triplets.push((r, r, 1.0));
    }
    CsrMatrix::from_triplets(n, n, &triplets)
}

fn oracle_factors(m: &CsrMatrix, f: impl Fn(f64) -> f64) -> Vec<f64> {
    let sums = m.row_sums();
    (0..m.rows())
        .map(|r| {
            let d = sums.get(r, 0);
            if d > 0.0 {
                f(d)
            } else {
                0.0
            }
        })
        .collect()
}

/// Scales entry `(r, c)` by `rows[r]`, then by `cols[c]` when given, through
/// a fresh triplet build (each coordinate appears once, so nothing is summed).
fn oracle_scale(m: &CsrMatrix, rows: &[f64], cols: Option<&[f64]>) -> CsrMatrix {
    let mut triplets = Vec::new();
    for (r, &f) in rows.iter().enumerate() {
        for (c, v) in m.row_entries(r) {
            let scaled = v * f;
            triplets.push((r, c, cols.map_or(scaled, |cols| scaled * cols[c])));
        }
    }
    CsrMatrix::from_triplets(m.rows(), m.cols(), &triplets)
}

fn oracle_row_normalized(adj: &CsrMatrix, self_loops: bool) -> CsrMatrix {
    let m = if self_loops { oracle_self_loops(adj) } else { adj.clone() };
    let f = oracle_factors(&m, |d| 1.0 / d);
    oracle_scale(&m, &f, None)
}

fn oracle_sym_normalized(adj: &CsrMatrix, self_loops: bool) -> CsrMatrix {
    let m = if self_loops { oracle_self_loops(adj) } else { adj.clone() };
    let f = oracle_factors(&m, |d| 1.0 / d.sqrt());
    oracle_scale(&m, &f, Some(&f))
}

// --- inputs -----------------------------------------------------------------

/// A seeded random graph: the builder under test plus the node-index edge
/// list the oracle builds from.
fn random_graph(
    seed: u64,
    spec: GraphSpec,
    extra: bool,
) -> (GraphBuilder, Layout, Vec<(usize, usize)>) {
    let mut rng = Rng(seed);
    let (n_users, n_items) = (3 + rng.below(20), 2 + rng.below(25));
    let (n_prices, n_categories) = (1 + rng.below(5), 1 + rng.below(4));
    let mut b = GraphBuilder::new(n_users, n_items, n_prices, n_categories, spec);
    let mut layout = Layout::new(
        n_users,
        n_items,
        if spec.include_price { n_prices } else { 0 },
        if spec.include_category { n_categories } else { 0 },
    );
    let mut edges = Vec::new();
    // Leave the last item without attributes and the last user without
    // interactions, so isolated rows occur even without extras.
    for item in 0..n_items - 1 {
        let (p, c) = (rng.below(n_prices), rng.below(n_categories));
        b.add_item_attributes(item, p, c);
        let i = layout.index(NodeRef::Item(item));
        if spec.include_price {
            edges.push((i, layout.index(NodeRef::Price(p))));
        }
        if spec.include_category {
            edges.push((i, layout.index(NodeRef::Category(c))));
        }
    }
    // Few distinct pairs drawn many times: repeat edges are common.
    for _ in 0..rng.below(4 * n_users) {
        let (u, i) = (rng.below(n_users - 1), rng.below(n_items));
        b.add_interaction(u, i);
        edges.push((layout.index(NodeRef::User(u)), layout.index(NodeRef::Item(i))));
    }
    if extra {
        let n_values = 2 + rng.below(4);
        let family = b.add_extra_family("brand", n_values + 1);
        assert_eq!(layout.add_extra_family("brand", n_values + 1), family);
        for item in 0..n_items {
            let v = rng.below(n_values);
            b.add_extra_edge(NodeRef::Item(item), family, v);
            edges.push((
                layout.index(NodeRef::Item(item)),
                layout.index(NodeRef::Extra { family, index: v }),
            ));
        }
        // A self-edge puts a stored diagonal in the adjacency, which
        // `add_self_loops` must sum with I; value n_values stays isolated
        // otherwise.
        let node = NodeRef::Extra { family, index: 0 };
        b.add_extra_edge(node, family, 0);
        let a = layout.index(node);
        edges.push((a, a));
    }
    (b, layout, edges)
}

fn assert_bits_eq(got: &CsrMatrix, want: &CsrMatrix, what: &str) {
    assert_eq!(
        (got.rows(), got.cols(), got.nnz()),
        (want.rows(), want.cols(), want.nnz()),
        "{what}"
    );
    for r in 0..want.rows() {
        let g: Vec<(usize, u64)> = got.row_entries(r).map(|(c, v)| (c, v.to_bits())).collect();
        let w: Vec<(usize, u64)> = want.row_entries(r).map(|(c, v)| (c, v.to_bits())).collect();
        assert_eq!(g, w, "{what}: row {r}");
    }
}

#[test]
fn graph_kernels_equal_the_triplet_oracle_bit_for_bit() {
    let specs =
        [GraphSpec::FULL, GraphSpec::PRICE_ONLY, GraphSpec::CATEGORY_ONLY, GraphSpec::BIPARTITE];
    let mut isolated_rows = 0;
    let mut stored_diagonals = 0;
    let mut repeat_edges = 0;
    for seed in 0..40u64 {
        for (k, &spec) in specs.iter().enumerate() {
            for extra in [false, true] {
                let what = format!("seed {seed}, spec {k}, extra {extra}");
                let (builder, layout, edges) = random_graph(seed * 8 + k as u64, spec, extra);
                let g = builder.build();
                assert_eq!(g.layout(), &layout, "{what}");
                assert_eq!(g.n_edges(), edges.len(), "{what}");
                let mut distinct: Vec<(usize, usize)> =
                    edges.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
                distinct.sort_unstable();
                distinct.dedup();
                repeat_edges += edges.len() - distinct.len();
                let adj = g.adjacency();
                assert_bits_eq(
                    adj,
                    &oracle_build(layout.total(), &edges),
                    &format!("{what}: build"),
                );
                isolated_rows +=
                    (0..adj.rows()).filter(|&r| adj.row_entries(r).count() == 0).count();
                stored_diagonals += (0..adj.rows()).filter(|&r| adj.get(r, r) != 0.0).count();
                assert_bits_eq(
                    &add_self_loops(adj),
                    &oracle_self_loops(adj),
                    &format!("{what}: +I"),
                );
                for self_loops in [true, false] {
                    let what = format!("{what}, self_loops {self_loops}");
                    assert_bits_eq(
                        &row_normalized(adj, self_loops),
                        &oracle_row_normalized(adj, self_loops),
                        &format!("{what}: row_normalized"),
                    );
                    assert_bits_eq(
                        &sym_normalized(adj, self_loops),
                        &oracle_sym_normalized(adj, self_loops),
                        &format!("{what}: sym_normalized"),
                    );
                }
            }
        }
    }
    assert!(repeat_edges > 0, "the inputs must include repeat edges");
    assert!(isolated_rows > 0, "the inputs must include isolated nodes");
    assert!(stored_diagonals > 0, "the inputs must include a stored diagonal");
}
