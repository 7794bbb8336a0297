//! Construction of the unified heterogeneous graph (paper §III-A).
//!
//! The graph `G = (V, E)` has user, item, price and category nodes; edges are
//! the observed interactions `(u, i)`, the attribute links `(i, p_i)` and
//! `(i, c_i)`, all undirected (stored symmetrically). [`GraphSpec`] selects
//! which attribute families participate — the PUP ablations (Table III,
//! Fig 6's PUP-) remove price and/or category nodes.

use pup_tensor::CsrMatrix;

use crate::layout::{Layout, NodeRef};

/// Which attribute node families to include when building a PUP graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphSpec {
    /// Include price-level nodes and `(item, price)` edges.
    pub include_price: bool,
    /// Include category nodes and `(item, category)` edges.
    pub include_category: bool,
}

impl GraphSpec {
    /// The full PUP graph: users, items, prices and categories.
    pub const FULL: Self = Self { include_price: true, include_category: true };
    /// Price nodes only (the paper's `PUP w/ p`, a.k.a. `PUP-`).
    pub const PRICE_ONLY: Self = Self { include_price: true, include_category: false };
    /// Category nodes only (the paper's `PUP w/ c`).
    pub const CATEGORY_ONLY: Self = Self { include_price: false, include_category: true };
    /// Bipartite user–item graph (the paper's `PUP w/o c,p`; also GC-MC/NGCF).
    pub const BIPARTITE: Self = Self { include_price: false, include_category: false };
}

/// An immutable heterogeneous graph: a [`Layout`] plus a symmetric adjacency.
#[derive(Clone, Debug)]
pub struct HeteroGraph {
    layout: Layout,
    /// Symmetric 0/1 adjacency over `layout.total()` nodes (no self-loops;
    /// normalization adds them, see [`crate::normalize`]).
    adjacency: CsrMatrix,
    /// Edge count before symmetrization.
    n_edges: usize,
}

impl HeteroGraph {
    /// The node layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The symmetric adjacency matrix (without self-loops).
    pub fn adjacency(&self) -> &CsrMatrix {
        &self.adjacency
    }

    /// Number of undirected edges.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Degree of a node (without self-loop).
    pub fn degree(&self, node: NodeRef) -> usize {
        let idx = self.layout.index(node);
        self.adjacency.row_entries(idx).count()
    }
}

/// Incremental builder for [`HeteroGraph`].
///
/// ```
/// use pup_graph::{GraphBuilder, GraphSpec, NodeRef};
///
/// // 2 users, 3 items, 2 price levels, 1 category.
/// let mut b = GraphBuilder::new(2, 3, 2, 1, GraphSpec::FULL);
/// b.add_interaction(0, 1);
/// b.add_item_attributes(1, 0, 0);
/// let g = b.build();
/// assert_eq!(g.degree(NodeRef::Item(1)), 3); // user 0, price 0, category 0
/// ```
pub struct GraphBuilder {
    layout: Layout,
    spec: GraphSpec,
    edges: Vec<(usize, usize)>,
}

impl GraphBuilder {
    /// Starts a builder. When the spec excludes a family its count in the
    /// layout is forced to zero so no dead embedding rows are allocated.
    pub fn new(
        n_users: usize,
        n_items: usize,
        n_prices: usize,
        n_categories: usize,
        spec: GraphSpec,
    ) -> Self {
        let n_prices = if spec.include_price { n_prices } else { 0 };
        let n_categories = if spec.include_category { n_categories } else { 0 };
        Self {
            layout: Layout::new(n_users, n_items, n_prices, n_categories),
            spec,
            edges: Vec::new(),
        }
    }

    /// Adds an observed interaction edge `(u, i)` (R_ui = 1).
    pub fn add_interaction(&mut self, user: usize, item: usize) {
        let u = self.layout.index(NodeRef::User(user));
        let i = self.layout.index(NodeRef::Item(item));
        self.edges.push((u, i));
    }

    /// Adds the attribute edges of an item: `(i, p_i)` and `(i, c_i)`.
    /// Families excluded by the spec are ignored.
    pub fn add_item_attributes(&mut self, item: usize, price_level: usize, category: usize) {
        let i = self.layout.index(NodeRef::Item(item));
        if self.spec.include_price {
            let p = self.layout.index(NodeRef::Price(price_level));
            self.edges.push((i, p));
        }
        if self.spec.include_category {
            let c = self.layout.index(NodeRef::Category(category));
            self.edges.push((i, c));
        }
    }

    /// Registers an extra attribute family (paper §VII) and returns its id.
    pub fn add_extra_family(&mut self, name: impl Into<String>, count: usize) -> usize {
        self.layout.add_extra_family(name, count)
    }

    /// Links any node to an extra-family attribute node.
    pub fn add_extra_edge(&mut self, node: NodeRef, family: usize, attribute: usize) {
        let a = self.layout.index(NodeRef::Extra { family, index: attribute });
        let n = self.layout.index(node);
        self.edges.push((n, a));
    }

    /// Finalizes the symmetric adjacency in one bucket pass: both
    /// directions of every edge go to their row's bucket, then each row is
    /// sorted and its duplicates dropped. Repeat edges (repeat purchases)
    /// stay 0/1: the paper's R is a binary interaction matrix.
    pub fn build(self) -> HeteroGraph {
        let n = self.layout.total();
        let mut indptr = vec![0usize; n + 1];
        for &(a, b) in &self.edges {
            indptr[a + 1] += 1;
            indptr[b + 1] += 1;
        }
        for r in 0..n {
            indptr[r + 1] += indptr[r];
        }
        let mut cursor = indptr.clone();
        let mut indices = vec![0usize; 2 * self.edges.len()];
        for &(a, b) in &self.edges {
            indices[cursor[a]] = b;
            cursor[a] += 1;
            indices[cursor[b]] = a;
            cursor[b] += 1;
        }
        // Sort and dedup each bucket, compacting the rows leftwards.
        let (mut start, mut nnz) = (0, 0);
        for r in 0..n {
            let end = indptr[r + 1];
            indices[start..end].sort_unstable();
            let row_start = nnz;
            for k in start..end {
                let c = indices[k];
                if nnz == row_start || indices[nnz - 1] != c {
                    indices[nnz] = c;
                    nnz += 1;
                }
            }
            indptr[r + 1] = nnz;
            start = end;
        }
        indices.truncate(nnz);
        let adjacency = CsrMatrix::from_csr_parts(n, n, indptr, indices, vec![1.0; nnz]);
        HeteroGraph { layout: self.layout, adjacency, n_edges: self.edges.len() }
    }
}

/// Convenience constructor for the standard PUP graph from dataset arrays.
///
/// `price_levels[i]` and `categories[i]` are the attributes of item `i`;
/// `interactions` are the observed `(user, item)` pairs of the training set.
#[allow(clippy::too_many_arguments)]
pub fn build_pup_graph(
    n_users: usize,
    n_items: usize,
    n_price_levels: usize,
    n_categories: usize,
    price_levels: &[usize],
    categories: &[usize],
    interactions: &[(usize, usize)],
    spec: GraphSpec,
) -> HeteroGraph {
    assert_eq!(price_levels.len(), n_items, "one price level per item required");
    assert_eq!(categories.len(), n_items, "one category per item required");
    let mut b = GraphBuilder::new(n_users, n_items, n_price_levels, n_categories, spec);
    for item in 0..n_items {
        b.add_item_attributes(item, price_levels[item], categories[item]);
    }
    for &(u, i) in interactions {
        b.add_interaction(u, i);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_graph(spec: GraphSpec) -> HeteroGraph {
        // 2 users, 3 items, 2 prices, 2 categories.
        build_pup_graph(2, 3, 2, 2, &[0, 1, 1], &[0, 0, 1], &[(0, 0), (0, 1), (1, 2), (1, 1)], spec)
    }

    #[test]
    fn full_graph_degrees_match_paper_updating_rule() {
        let g = toy_graph(GraphSpec::FULL);
        // User 0 interacted with items 0 and 1.
        assert_eq!(g.degree(NodeRef::User(0)), 2);
        // Item 1: users 0 and 1, plus price 1 and category 0.
        assert_eq!(g.degree(NodeRef::Item(1)), 4);
        // Price 1 links to items 1 and 2.
        assert_eq!(g.degree(NodeRef::Price(1)), 2);
        // Category 0 links to items 0 and 1.
        assert_eq!(g.degree(NodeRef::Category(0)), 2);
    }

    #[test]
    fn adjacency_is_symmetric_and_binary() {
        let g = toy_graph(GraphSpec::FULL);
        let a = g.adjacency();
        for r in 0..a.rows() {
            for (c, v) in a.row_entries(r) {
                assert_eq!(v, 1.0, "entries must be binary");
                assert_eq!(a.get(c, r), v, "adjacency must be symmetric");
            }
        }
    }

    #[test]
    fn duplicate_interactions_stay_binary() {
        let mut b = GraphBuilder::new(1, 1, 1, 1, GraphSpec::FULL);
        b.add_interaction(0, 0);
        b.add_interaction(0, 0);
        let g = b.build();
        assert_eq!(g.adjacency().get(0, 1), 1.0);
        assert_eq!(g.degree(NodeRef::User(0)), 1);
    }

    #[test]
    fn bipartite_spec_drops_attribute_nodes() {
        let g = toy_graph(GraphSpec::BIPARTITE);
        assert_eq!(g.layout().total(), 5); // 2 users + 3 items
        assert_eq!(g.layout().n_prices(), 0);
        assert_eq!(g.layout().n_categories(), 0);
        assert_eq!(g.degree(NodeRef::Item(1)), 2); // only the two users
    }

    #[test]
    fn price_only_spec_matches_pup_minus() {
        let g = toy_graph(GraphSpec::PRICE_ONLY);
        assert_eq!(g.layout().n_prices(), 2);
        assert_eq!(g.layout().n_categories(), 0);
        assert_eq!(g.degree(NodeRef::Item(0)), 2); // user 0 + price 0
    }

    #[test]
    fn extra_family_nodes_connect() {
        let mut b = GraphBuilder::new(2, 2, 1, 1, GraphSpec::FULL);
        let brand = b.add_extra_family("brand", 3);
        b.add_extra_edge(NodeRef::Item(0), brand, 2);
        b.add_extra_edge(NodeRef::User(1), brand, 2); // user profile attribute
        let g = b.build();
        assert_eq!(g.degree(NodeRef::Extra { family: brand, index: 2 }), 2);
        assert_eq!(g.layout().total(), 2 + 2 + 1 + 1 + 3);
    }

    #[test]
    fn edge_count_reported() {
        let g = toy_graph(GraphSpec::FULL);
        // 3 items x 2 attribute edges + 4 interactions.
        assert_eq!(g.n_edges(), 10);
    }
}
