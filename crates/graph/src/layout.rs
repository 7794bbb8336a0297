//! Node-index layout for the unified heterogeneous graph.
//!
//! The paper's graph (§III-A) has four node families — users, items, price
//! levels and categories — that all live in one adjacency matrix. [`Layout`]
//! owns the mapping between typed node references and flat row indices, so
//! the rest of the code never does offset arithmetic by hand.
//!
//! The paper's §VII notes that *"other features can be easily integrated ...
//! as separate nodes"*; [`Layout`] supports that via extra named families
//! appended after the core four.

/// A typed reference to a node in the heterogeneous graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeRef {
    /// A user node (index within users).
    User(usize),
    /// An item node (index within items).
    Item(usize),
    /// A price-level node (index within price levels).
    Price(usize),
    /// A category node (index within categories).
    Category(usize),
    /// A node of the `family`-th extra attribute family.
    Extra {
        /// Which extra attribute family the node belongs to.
        family: usize,
        /// Index within that family.
        index: usize,
    },
}

/// Flat index layout: `[users | items | prices | categories | extras...]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Layout {
    n_users: usize,
    n_items: usize,
    n_prices: usize,
    n_categories: usize,
    /// `(name, count)` per extra attribute family (paper §VII generality).
    extras: Vec<(String, usize)>,
}

impl Layout {
    /// Creates the four-family layout of the paper.
    pub fn new(n_users: usize, n_items: usize, n_prices: usize, n_categories: usize) -> Self {
        Self { n_users, n_items, n_prices, n_categories, extras: Vec::new() }
    }

    /// Appends an extra attribute family, returning its family id.
    pub fn add_extra_family(&mut self, name: impl Into<String>, count: usize) -> usize {
        self.extras.push((name.into(), count));
        self.extras.len() - 1
    }

    /// Number of user nodes.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Number of item nodes.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of price-level nodes.
    pub fn n_prices(&self) -> usize {
        self.n_prices
    }

    /// Number of category nodes.
    pub fn n_categories(&self) -> usize {
        self.n_categories
    }

    /// Name and size of extra family `family`.
    pub fn extra_family(&self, family: usize) -> (&str, usize) {
        let (name, count) = &self.extras[family];
        (name, *count)
    }

    /// Total number of nodes across all families.
    pub fn total(&self) -> usize {
        self.n_users
            + self.n_items
            + self.n_prices
            + self.n_categories
            + self.extras.iter().map(|(_, c)| c).sum::<usize>()
    }

    /// Flat index of a typed node reference.
    ///
    /// # Panics
    /// Panics when the reference is out of range for this layout.
    pub fn index(&self, node: NodeRef) -> usize {
        match node {
            NodeRef::User(u) => {
                // pup-audit: allow(hotpath-panic): fail-fast bounds precondition; dataset load registers every node id
                assert!(u < self.n_users, "user {u} out of {} users", self.n_users);
                u
            }
            NodeRef::Item(i) => {
                // pup-audit: allow(hotpath-panic): fail-fast bounds precondition; dataset load registers every node id
                assert!(i < self.n_items, "item {i} out of {} items", self.n_items);
                self.n_users + i
            }
            NodeRef::Price(p) => {
                // pup-audit: allow(hotpath-panic): fail-fast bounds precondition; dataset load registers every node id
                assert!(p < self.n_prices, "price {p} out of {} price levels", self.n_prices);
                self.n_users + self.n_items + p
            }
            NodeRef::Category(c) => {
                // pup-audit: allow(hotpath-panic): fail-fast bounds precondition; dataset load registers every node id
                assert!(c < self.n_categories, "category {c} out of {}", self.n_categories);
                self.n_users + self.n_items + self.n_prices + c
            }
            NodeRef::Extra { family, index } => {
                // pup-audit: allow(hotpath-panic): fail-fast bounds precondition; extra families are registered at build
                assert!(family < self.extras.len(), "extra family {family} not registered");
                // pup-audit: allow(hotpath-panic): family bounds asserted above
                let offset: usize = self.extras[..family].iter().map(|(_, c)| c).sum();
                // pup-audit: allow(hotpath-panic): family bounds asserted above
                let count = self.extras[family].1;
                // pup-audit: allow(hotpath-panic): fail-fast bounds precondition; extra ids are registered at build
                assert!(index < count, "extra node {index} out of {count}");
                self.n_users + self.n_items + self.n_prices + self.n_categories + offset + index
            }
        }
    }

    /// Inverse of [`Layout::index`].
    pub fn node_at(&self, mut idx: usize) -> NodeRef {
        assert!(idx < self.total(), "index {idx} out of {} nodes", self.total());
        if idx < self.n_users {
            return NodeRef::User(idx);
        }
        idx -= self.n_users;
        if idx < self.n_items {
            return NodeRef::Item(idx);
        }
        idx -= self.n_items;
        if idx < self.n_prices {
            return NodeRef::Price(idx);
        }
        idx -= self.n_prices;
        if idx < self.n_categories {
            return NodeRef::Category(idx);
        }
        idx -= self.n_categories;
        for (family, (_, count)) in self.extras.iter().enumerate() {
            if idx < *count {
                return NodeRef::Extra { family, index: idx };
            }
            idx -= count;
        }
        unreachable!("index arithmetic covered all families")
    }

    /// Flat index range `[start, end)` of the user block.
    pub fn user_range(&self) -> std::ops::Range<usize> {
        0..self.n_users
    }

    /// Flat index range of the item block.
    pub fn item_range(&self) -> std::ops::Range<usize> {
        self.n_users..self.n_users + self.n_items
    }

    /// Flat index range of the price block.
    pub fn price_range(&self) -> std::ops::Range<usize> {
        let s = self.n_users + self.n_items;
        s..s + self.n_prices
    }

    /// Flat index range of the category block.
    pub fn category_range(&self) -> std::ops::Range<usize> {
        let s = self.n_users + self.n_items + self.n_prices;
        s..s + self.n_categories
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_contiguous_blocks() {
        let l = Layout::new(3, 4, 2, 5);
        assert_eq!(l.index(NodeRef::User(0)), 0);
        assert_eq!(l.index(NodeRef::User(2)), 2);
        assert_eq!(l.index(NodeRef::Item(0)), 3);
        assert_eq!(l.index(NodeRef::Price(0)), 7);
        assert_eq!(l.index(NodeRef::Category(0)), 9);
        assert_eq!(l.index(NodeRef::Category(4)), 13);
        assert_eq!(l.total(), 14);
    }

    #[test]
    fn node_at_is_inverse_of_index() {
        let mut l = Layout::new(2, 3, 4, 5);
        l.add_extra_family("brand", 6);
        l.add_extra_family("seller", 7);
        for idx in 0..l.total() {
            assert_eq!(l.index(l.node_at(idx)), idx, "roundtrip failed at {idx}");
        }
    }

    #[test]
    fn ranges_cover_everything_in_order() {
        let l = Layout::new(2, 3, 4, 5);
        let collected: Vec<usize> = l
            .user_range()
            .chain(l.item_range())
            .chain(l.price_range())
            .chain(l.category_range())
            .collect();
        assert_eq!(collected, (0..14).collect::<Vec<_>>());
    }

    #[test]
    fn extra_families_extend_total() {
        let mut l = Layout::new(1, 1, 1, 1);
        let brand = l.add_extra_family("brand", 10);
        assert_eq!(l.total(), 14);
        assert_eq!(l.extra_family(brand), ("brand", 10));
        assert_eq!(l.index(NodeRef::Extra { family: brand, index: 0 }), 4);
        assert_eq!(l.index(NodeRef::Extra { family: brand, index: 9 }), 13);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_panics() {
        let l = Layout::new(1, 1, 1, 1);
        l.index(NodeRef::User(1));
    }

    #[test]
    fn zero_sized_families_are_allowed() {
        // The PUP ablations remove price and/or category nodes entirely.
        let l = Layout::new(2, 3, 0, 0);
        assert_eq!(l.total(), 5);
        assert_eq!(l.price_range().len(), 0);
        assert_eq!(l.category_range().len(), 0);
        assert_eq!(l.node_at(4), NodeRef::Item(2));
    }
}
