//! Bit-packed symmetric adjacency matrix — the GA chromosome type.
//!
//! The paper (§4) stores each candidate topology as an `n × n` adjacency
//! matrix. Since PoP-level graphs are simple and undirected we store only
//! the strict upper triangle, one bit per node pair, packed into `u64`
//! words. For the paper's typical `n = 30` a whole chromosome is 7 words,
//! so populations of hundreds of candidates clone and mutate cheaply.

use crate::graph::Graph;
use crate::{GraphError, Result};

/// A simple undirected graph stored as a bit-packed upper-triangular
/// adjacency matrix.
///
/// Pairs `(i, j)` with `i < j` map to a flat bit index; the pair ordering is
/// row-major over the upper triangle: `(0,1), (0,2), …, (0,n-1), (1,2), …`.
///
/// This is the canonical topology representation throughout the workspace:
/// the GA's chromosomes, the heuristics' outputs, and the baselines'
/// samples are all `AdjacencyMatrix` values.
#[derive(PartialEq, Eq, Hash)]
pub struct AdjacencyMatrix {
    n: usize,
    bits: Vec<u64>,
}

impl Clone for AdjacencyMatrix {
    fn clone(&self) -> Self {
        Self { n: self.n, bits: self.bits.clone() }
    }

    /// Copies `source` into this matrix's buffer, reusing its allocation.
    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.bits.clone_from(&source.bits);
    }
}

impl AdjacencyMatrix {
    /// Creates an empty graph (no edges) on `n` nodes.
    pub fn empty(n: usize) -> Self {
        let pairs = n * n.saturating_sub(1) / 2;
        Self { n, bits: vec![0u64; pairs.div_ceil(64)] }
    }

    /// Creates the complete graph on `n` nodes.
    pub fn complete(n: usize) -> Self {
        let mut m = Self::empty(n);
        let pairs = m.pair_count();
        for p in 0..pairs {
            m.bits[p / 64] |= 1u64 << (p % 64);
        }
        m
    }

    /// Builds a graph from an edge list. Duplicate edges are idempotent.
    ///
    /// # Errors
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`]
    /// for invalid endpoints.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self> {
        let mut m = Self::empty(n);
        for &(u, v) in edges {
            m.try_set_edge(u, v, true)?;
        }
        Ok(m)
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of unordered node pairs, i.e. the number of potential edges.
    #[inline]
    pub fn pair_count(&self) -> usize {
        self.n * self.n.saturating_sub(1) / 2
    }

    /// Flat bit index of the unordered pair `{u, v}`.
    ///
    /// # Panics
    /// Panics if `u == v` or either index is out of range.
    #[inline]
    pub fn pair_index(&self, u: usize, v: usize) -> usize {
        assert!(u != v, "self-loop pair ({u},{u})");
        assert!(u < self.n && v < self.n, "pair ({u},{v}) out of range");
        let (i, j) = if u < v { (u, v) } else { (v, u) };
        // Offset of row i within the packed upper triangle.
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Inverse of [`pair_index`](Self::pair_index): the pair for a flat index.
    ///
    /// # Panics
    /// Panics if `p >= pair_count()`.
    pub fn index_pair(&self, p: usize) -> (usize, usize) {
        assert!(p < self.pair_count(), "pair index {p} out of range");
        // Scan rows; n is small so O(n) is fine and branch-predictable.
        let mut row_start = 0usize;
        for i in 0..self.n {
            let row_len = self.n - i - 1;
            if p < row_start + row_len {
                return (i, i + 1 + (p - row_start));
            }
            row_start += row_len;
        }
        unreachable!("pair index within bounds must map to a row")
    }

    /// Whether the edge `{u, v}` exists.
    ///
    /// # Panics
    /// Panics on a self-loop query or out-of-range index.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        let p = self.pair_index(u, v);
        self.bits[p / 64] >> (p % 64) & 1 == 1
    }

    /// Sets edge `{u, v}` to `present`.
    ///
    /// # Panics
    /// Panics on a self-loop or out-of-range index.
    #[inline]
    pub fn set_edge(&mut self, u: usize, v: usize, present: bool) {
        let p = self.pair_index(u, v);
        if present {
            self.bits[p / 64] |= 1u64 << (p % 64);
        } else {
            self.bits[p / 64] &= !(1u64 << (p % 64));
        }
    }

    /// Fallible variant of [`set_edge`](Self::set_edge).
    pub fn try_set_edge(&mut self, u: usize, v: usize, present: bool) -> Result<()> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        for &x in &[u, v] {
            if x >= self.n {
                return Err(GraphError::NodeOutOfRange { index: x, n: self.n });
            }
        }
        self.set_edge(u, v, present);
        Ok(())
    }

    /// Toggles edge `{u, v}`, returning the new state.
    pub fn toggle_edge(&mut self, u: usize, v: usize) -> bool {
        let p = self.pair_index(u, v);
        self.bits[p / 64] ^= 1u64 << (p % 64);
        self.bits[p / 64] >> (p % 64) & 1 == 1
    }

    /// Reads the bit at a flat pair index.
    #[inline]
    pub fn bit(&self, p: usize) -> bool {
        debug_assert!(p < self.pair_count());
        self.bits[p / 64] >> (p % 64) & 1 == 1
    }

    /// Writes the bit at a flat pair index.
    #[inline]
    pub fn set_bit(&mut self, p: usize, present: bool) {
        debug_assert!(p < self.pair_count());
        if present {
            self.bits[p / 64] |= 1u64 << (p % 64);
        } else {
            self.bits[p / 64] &= !(1u64 << (p % 64));
        }
    }

    /// The packed pair bits: pair `p` is bit `p % 64` of word `p / 64`;
    /// bits past [`pair_count`](Self::pair_count) are always zero.
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// A matrix from words laid out as [`words`](Self::words); `None` on a
    /// wrong word count or a set padding bit.
    pub fn from_words(n: usize, words: Vec<u64>) -> Option<Self> {
        let pairs = n.checked_mul(n.saturating_sub(1))? / 2;
        let tail = pairs % 64;
        let padding_clear = tail == 0 || words.last().is_none_or(|w| w >> tail == 0);
        (words.len() == pairs.div_ceil(64) && padding_clear).then_some(Self { n, bits: words })
    }

    /// Number of edges currently present.
    pub fn edge_count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterator over present edges as `(u, v)` with `u < v`, ascending.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.pairs_of(self.bits.iter().copied())
    }

    /// The pairs whose bits are set in `words` (a word stream laid out
    /// like `bits`), as `(u, v)` with `u < v` in ascending pair order.
    /// O(words + pairs found + n), allocation-free.
    fn pairs_of(&self, words: impl Iterator<Item = u64>) -> impl Iterator<Item = (usize, usize)> {
        let (n, pairs) = (self.n, self.pair_count());
        let set = words.enumerate().flat_map(|(w, mut x)| {
            std::iter::from_fn(move || {
                (x != 0).then(|| {
                    let p = w * 64 + x.trailing_zeros() as usize;
                    x &= x - 1;
                    p
                })
            })
        });
        // Row `i` holds the n - 1 - i pairs (i, i+1..n); walk the rows
        // forward as the indices grow.
        let (mut row, mut row_start) = (0usize, 0usize);
        set.take_while(move |&p| p < pairs).map(move |p| {
            while p >= row_start + (n - 1 - row) {
                row_start += n - 1 - row;
                row += 1;
            }
            (row, row + 1 + (p - row_start))
        })
    }

    /// Degree of node `v` (row + column scan of the packed triangle).
    pub fn degree(&self, v: usize) -> usize {
        assert!(v < self.n);
        (0..self.n).filter(|&u| u != v && self.has_edge(u, v)).count()
    }

    /// Degrees of all nodes in one pass over the edge bits.
    pub fn degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.n];
        for (u, v) in self.edges() {
            deg[u] += 1;
            deg[v] += 1;
        }
        deg
    }

    /// Neighbors of `v`, ascending.
    pub fn neighbors(&self, v: usize) -> Vec<usize> {
        assert!(v < self.n);
        (0..self.n).filter(|&u| u != v && self.has_edge(u, v)).collect()
    }

    /// Converts to an adjacency-list [`Graph`] for traversal algorithms.
    pub fn to_graph(&self) -> Graph {
        let mut adj = vec![Vec::new(); self.n];
        for (u, v) in self.edges() {
            adj[u].push(v);
            adj[v].push(u);
        }
        Graph::from_adjacency_lists(adj)
    }

    /// Number of differing node pairs between two same-sized graphs
    /// (the Hamming distance between chromosomes).
    ///
    /// # Errors
    /// Returns [`GraphError::SizeMismatch`] when `n` differs.
    pub fn hamming_distance(&self, other: &Self) -> Result<usize> {
        if self.n != other.n {
            return Err(GraphError::SizeMismatch { expected: self.n, actual: other.n });
        }
        Ok(self.bits.iter().zip(&other.bits).map(|(a, b)| (a ^ b).count_ones() as usize).sum())
    }

    /// The Hamming distance to a same-sized graph if it is at most `max`,
    /// else `None` — found without allocating, and abandoned as soon as
    /// the count passes `max`.
    ///
    /// # Errors
    /// Returns [`GraphError::SizeMismatch`] when `n` differs.
    pub fn hamming_up_to(&self, other: &Self, max: usize) -> Result<Option<usize>> {
        if self.n != other.n {
            return Err(GraphError::SizeMismatch { expected: self.n, actual: other.n });
        }
        let mut d = 0usize;
        for (a, b) in self.bits.iter().zip(&other.bits) {
            d += (a ^ b).count_ones() as usize;
            if d > max {
                return Ok(None);
            }
        }
        Ok(Some(d))
    }

    /// The node pairs where two same-sized graphs differ, as `(u, v)`
    /// with `u < v` in ascending pair order, found without allocating.
    ///
    /// # Panics
    /// Panics when `n` differs.
    pub fn diff_pairs<'s>(&'s self, other: &'s Self) -> impl Iterator<Item = (usize, usize)> + 's {
        assert_eq!(self.n, other.n, "diff_pairs needs same-sized graphs");
        self.pairs_of(self.bits.iter().zip(&other.bits).map(|(a, b)| a ^ b))
    }

    /// Returns a copy with nodes relabeled by `perm` (`perm[old] = new`).
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..n`.
    pub fn permuted(&self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.n, "permutation length must equal n");
        let mut seen = vec![false; self.n];
        for &p in perm {
            assert!(p < self.n && !seen[p], "perm must be a bijection on 0..n");
            seen[p] = true;
        }
        let mut out = Self::empty(self.n);
        for (u, v) in self.edges() {
            out.set_edge(perm[u], perm[v], true);
        }
        out
    }

    /// Dense `n × n` boolean matrix (row-major), useful for exports/tests.
    pub fn to_dense(&self) -> Vec<Vec<bool>> {
        let mut m = vec![vec![false; self.n]; self.n];
        for (u, v) in self.edges() {
            m[u][v] = true;
            m[v][u] = true;
        }
        m
    }
}

impl std::fmt::Debug for AdjacencyMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AdjacencyMatrix(n={}, m={}, edges=", self.n, self.edge_count())?;
        f.debug_list().entries(self.edges()).finish()?;
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_edges() {
        let m = AdjacencyMatrix::empty(5);
        assert_eq!(m.n(), 5);
        assert_eq!(m.edge_count(), 0);
        assert_eq!(m.pair_count(), 10);
        for u in 0..5 {
            for v in 0..5 {
                if u != v {
                    assert!(!m.has_edge(u, v));
                }
            }
        }
    }

    #[test]
    fn complete_has_all_edges() {
        let m = AdjacencyMatrix::complete(6);
        assert_eq!(m.edge_count(), 15);
        assert!(m.has_edge(0, 5));
        assert!(m.has_edge(5, 0));
        assert_eq!(m.degrees(), vec![5; 6]);
    }

    #[test]
    fn pair_index_round_trips() {
        let m = AdjacencyMatrix::empty(9);
        for p in 0..m.pair_count() {
            let (u, v) = m.index_pair(p);
            assert!(u < v);
            assert_eq!(m.pair_index(u, v), p);
            assert_eq!(m.pair_index(v, u), p);
        }
    }

    #[test]
    fn set_and_toggle() {
        let mut m = AdjacencyMatrix::empty(4);
        m.set_edge(1, 3, true);
        assert!(m.has_edge(3, 1));
        assert_eq!(m.edge_count(), 1);
        assert!(!m.toggle_edge(1, 3));
        assert_eq!(m.edge_count(), 0);
        assert!(m.toggle_edge(0, 2));
        assert!(m.has_edge(2, 0));
    }

    #[test]
    fn from_edges_validates() {
        assert!(AdjacencyMatrix::from_edges(3, &[(0, 1), (1, 2)]).is_ok());
        assert_eq!(
            AdjacencyMatrix::from_edges(3, &[(0, 3)]),
            Err(GraphError::NodeOutOfRange { index: 3, n: 3 })
        );
        assert_eq!(AdjacencyMatrix::from_edges(3, &[(2, 2)]), Err(GraphError::SelfLoop(2)));
    }

    #[test]
    fn degrees_match_neighbor_lists() {
        let m = AdjacencyMatrix::from_edges(5, &[(0, 1), (0, 2), (0, 3), (3, 4)]).unwrap();
        assert_eq!(m.degrees(), vec![3, 1, 1, 2, 1]);
        assert_eq!(m.neighbors(0), vec![1, 2, 3]);
        assert_eq!(m.neighbors(4), vec![3]);
        assert_eq!(m.degree(3), 2);
    }

    #[test]
    fn edges_iterator_is_sorted_and_complete() {
        let m = AdjacencyMatrix::from_edges(4, &[(2, 3), (0, 1), (1, 3)]).unwrap();
        let e: Vec<_> = m.edges().collect();
        assert_eq!(e, vec![(0, 1), (1, 3), (2, 3)]);
    }

    #[test]
    fn hamming_distance_counts_differences() {
        let a = AdjacencyMatrix::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        let b = AdjacencyMatrix::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(a.hamming_distance(&b).unwrap(), 2);
        assert_eq!(a.hamming_distance(&a).unwrap(), 0);
        let c = AdjacencyMatrix::empty(5);
        assert!(a.hamming_distance(&c).is_err());
    }

    #[test]
    fn diff_pairs_reports_flips_in_ascending_pair_order_with_early_abort() {
        let a = AdjacencyMatrix::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        let b = AdjacencyMatrix::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(a.diff_pairs(&b).collect::<Vec<_>>(), vec![(1, 2), (2, 3)]);
        assert_eq!(a.hamming_up_to(&b, 4).unwrap(), Some(2));
        assert_eq!(a.hamming_up_to(&b, 2).unwrap(), Some(2));
        assert_eq!(a.hamming_up_to(&b, 1).unwrap(), None, "more flips than max");
        assert_eq!(a.hamming_up_to(&a, 0).unwrap(), Some(0));
        assert_eq!(a.diff_pairs(&a).count(), 0);
        assert!(a.hamming_up_to(&AdjacencyMatrix::empty(5), 10).is_err());
        // Spans multiple words: complete vs empty on n = 20 (190 pairs).
        let full = AdjacencyMatrix::complete(20);
        let none = AdjacencyMatrix::empty(20);
        let d: Vec<_> = full.diff_pairs(&none).collect();
        let mut expect = Vec::new();
        for u in 0..20 {
            for v in (u + 1)..20 {
                expect.push((u, v));
            }
        }
        assert_eq!(d, expect, "ascending flat pair order");
        assert_eq!(full.hamming_up_to(&none, 190).unwrap(), Some(190));
        assert_eq!(full.hamming_up_to(&none, 189).unwrap(), None);
    }

    #[test]
    fn edges_and_diff_pairs_decode_every_word_and_row() {
        for n in [0usize, 1, 2, 3, 12, 20, 41] {
            let (mut a, mut b) = (AdjacencyMatrix::empty(n), AdjacencyMatrix::complete(n));
            for p in 0..a.pair_count() {
                a.set_bit(p, p % 3 == 0 || p % 7 == 1);
                b.set_bit(p, p % 5 != 2);
            }
            for m in [&a, &b] {
                let decoded: Vec<_> =
                    (0..m.pair_count()).filter(|&p| m.bit(p)).map(|p| m.index_pair(p)).collect();
                assert_eq!(m.edges().collect::<Vec<_>>(), decoded, "n = {n}");
            }
            let differ: Vec<_> = (0..a.pair_count())
                .filter(|&p| a.bit(p) != b.bit(p))
                .map(|p| a.index_pair(p))
                .collect();
            assert_eq!(a.diff_pairs(&b).collect::<Vec<_>>(), differ, "n = {n}");
            let mut copy = AdjacencyMatrix::empty(3);
            copy.clone_from(&a);
            assert_eq!(copy, a);
        }
    }

    #[test]
    fn permuted_preserves_structure() {
        let m = AdjacencyMatrix::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        // Reverse labeling: path 0-1-2-3 becomes 3-2-1-0 (same path graph).
        let p = m.permuted(&[3, 2, 1, 0]);
        assert_eq!(p.edge_count(), 3);
        assert!(p.has_edge(3, 2) && p.has_edge(2, 1) && p.has_edge(1, 0));
    }

    #[test]
    fn to_graph_matches() {
        let m = AdjacencyMatrix::from_edges(4, &[(0, 1), (0, 3)]).unwrap();
        let g = m.to_graph();
        assert_eq!(g.n(), 4);
        assert_eq!(g.neighbors(0), &[1, 3]);
        assert_eq!(g.neighbors(2), &[] as &[usize]);
    }

    #[test]
    fn single_node_and_empty_graph_edge_cases() {
        let m0 = AdjacencyMatrix::empty(0);
        assert_eq!(m0.pair_count(), 0);
        assert_eq!(m0.edge_count(), 0);
        let m1 = AdjacencyMatrix::empty(1);
        assert_eq!(m1.pair_count(), 0);
        assert_eq!(m1.degrees(), vec![0]);
    }
}
