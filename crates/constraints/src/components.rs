//! Connected components of the conflict hyper-graph.
//!
//! The hyper-graph of Example 4.1 / Figure 1 naturally splits into
//! *independent* connected components: two tuples interact only when some
//! chain of hyper-edges links them. Every repair of the database is exactly
//! one repair choice per component crossed with the untouched "frozen core"
//! of conflict-free tuples, so a database with `m` components of `k`
//! conflicts each has `m · 2^k` component-local repairs rather than a
//! `2^(m·k)` monolithic family. This module owns the combinatorial half of
//! that factorization:
//!
//! * [`ConflictComponents::compute`] — union-find over the hyper-edges,
//!   yielding one [`ComponentGraph`] per component in a canonical
//!   (smallest-tid-first) order; the frozen core is every tuple outside
//!   them, derived where it is read and never stored;
//! * [`ConflictComponents::component_index`] — each conflicted tuple's
//!   component, built on first use and kept with the factorization;
//! * [`ConflictComponents::minimal_hitting_sets_factored`] /
//!   [`ConflictComponents::minimum_hitting_sets_factored`] — per-component
//!   hitting-set families producing [`FactoredFamilies`], never the
//!   expanded cross-product;
//! * [`ConflictComponents::minimum_hitting_set_size_budgeted`] — the global
//!   minimum as the *sum* of per-component branch-and-bound minima, each a
//!   small search with its own bound instead of one big search sharing a
//!   global incumbent.
//!
//! A component that is block-shaped ([`ConflictHypergraph::is_block_shaped`]:
//! a key group or one FD's left-hand-side group, which is complete
//! multipartite, or a lone edge) is not searched: its families are read off
//! its classes, in the search's order, after one pass over its edges and in
//! time linear in the family. Every component the F18 workloads produce is
//! of this shape; other components keep the search.
//!
//! Each component graph detects its shape once and keeps it (see
//! [`ConflictHypergraph`]). [`ConflictComponents::apply_edge_delta`]
//! carries every component a write does not touch over by pointer, shape
//! included, and rebuilds the touched ones with empty caches, so a write
//! drops exactly the shapes of the components it touched and needs no
//! invalidation code. The families are not cached: every read emits them.
//!
//! Components are independent, so `cqa-exec` runs them in parallel once
//! there is enough of them to pay for the workers ([`PAR_MIN_EDGES`]); the
//! canonical component order (and `par_map`'s order-preserving merge) keeps
//! results byte-identical at every thread count. `cqa-core` builds repair
//! semantics (`FactoredRepairSet`, component-aware CQA folds) on top.

// audit:exponential — component-local hitting-set enumeration; every search loop must thread a Budget.
use crate::hypergraph::ConflictHypergraph;
use cqa_exec::{Budget, Outcome};
use cqa_relation::Tid;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// Fewest hyper-edges, summed over the components, for which the
/// per-component searches run on the `cqa-exec` pool. Each pooled call
/// spawns its workers, and below this size the spawn costs more than it
/// saves. On a 2-vCPU host, 1 000 two-tuple components take 0.8 ms on one
/// thread and 0.9 ms on two; the 4 583 edges of the F18 n = 10 000
/// instance take 42 ms and 28 ms.
pub const PAR_MIN_EDGES: usize = 1024;

/// One connected component of a conflict hyper-graph: the sub-graph induced
/// by a maximal set of tuples linked through hyper-edges. Every node of a
/// component is covered by at least one of its edges (conflict-free tuples
/// live in the frozen core instead), so a component always has a non-empty
/// edge set and at least one minimal hitting set.
///
/// The inner graph is behind an [`Arc`]: cloning a component is a pointer
/// bump, so [`ConflictComponents::apply_edge_delta`] carries untouched
/// components over without re-copying their node and edge sets. Equality
/// still compares by value (with a pointer-equality fast path for shared
/// components).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentGraph {
    graph: Arc<ConflictHypergraph>,
}

impl ComponentGraph {
    /// The component as a [`ConflictHypergraph`] of its own, ready for the
    /// component-local hitting-set searches.
    pub fn graph(&self) -> &ConflictHypergraph {
        &self.graph
    }

    /// The tuples of this component.
    pub fn tids(&self) -> &BTreeSet<Tid> {
        &self.graph.nodes
    }

    /// The hyper-edges of this component.
    pub fn edges(&self) -> &[BTreeSet<Tid>] {
        &self.graph.edges
    }

    /// Number of tuples in the component.
    pub fn node_count(&self) -> usize {
        self.graph.nodes.len()
    }

    /// Number of hyper-edges in the component.
    pub fn edge_count(&self) -> usize {
        self.graph.edges.len()
    }
}

/// The factorization of a conflict hyper-graph: its connected components,
/// in canonical order (ascending smallest tid). The tuples in no component
/// form the frozen core: they touch no conflict and persist in every
/// repair. The core is derived, never stored — it is
/// [`ConflictHypergraph::isolated_nodes`], and its size is the node count
/// minus the components' node counts.
#[derive(Clone)]
pub struct ConflictComponents {
    /// The connected components, smallest-tid-first. Empty iff the instance
    /// is consistent (no edges).
    pub components: Vec<ComponentGraph>,
    /// Cached [`ConflictComponents::component_index`]; filled on the first
    /// read that needs it.
    index: OnceLock<ComponentIndex>,
}

impl std::fmt::Debug for ConflictComponents {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The index is derived state: the debug view is the same whether or
        // not it was built.
        f.debug_struct("ConflictComponents")
            .field("components", &self.components)
            .finish()
    }
}

impl PartialEq for ConflictComponents {
    fn eq(&self, other: &Self) -> bool {
        self.components == other.components
    }
}

impl Eq for ConflictComponents {}

/// Every conflicted tuple's component, as its canonical index: the
/// `(tid, component)` pairs sorted by tid, probed by binary search.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ComponentIndex {
    entries: Vec<(Tid, usize)>,
}

impl ComponentIndex {
    /// The component holding `tid`; `None` for a tuple in no conflict.
    pub fn get(&self, tid: Tid) -> Option<usize> {
        self.entries
            .binary_search_by_key(&tid, |&(t, _)| t)
            .ok()
            .and_then(|at| self.entries.get(at))
            .map(|&(_, c)| c)
    }
}

/// Per-component hitting-set families, plus a per-component exactness tag.
///
/// `families[i]` holds the (deletion-delta) hitting sets of component `i` in
/// the canonical component order, each family sorted — whether it was
/// searched or, for a block-shaped component, read off the component's
/// classes (a budget cut then keeps a prefix of the sorted family). The
/// global family is the cross-product
/// `{ h_0 ∪ … ∪ h_{m−1} : h_i ∈ families[i] }`, which this type never
/// materializes. `exact[i]` records whether component `i` was fully
/// enumerated before the shared budget latched — on truncation the
/// [`Outcome`]'s `explored` count is the number of exactly-explored
/// components, so callers can tell precisely which part of the instance the
/// anytime answer covers. The tag is conservative: a component that
/// finished in the same instant another latched the budget may be marked
/// inexact, never the other way around.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactoredFamilies {
    /// Hitting sets per component, canonical component order.
    pub families: Vec<Vec<BTreeSet<Tid>>>,
    /// Was component `i` fully enumerated within budget?
    pub exact: Vec<bool>,
}

impl FactoredFamilies {
    /// Number of components enumerated exactly.
    pub fn exact_components(&self) -> u64 {
        self.exact.iter().filter(|&&e| e).count() as u64
    }

    /// Size of the expanded cross-product family (`None` on overflow —
    /// which is precisely the case factorization exists to avoid).
    pub fn product_len(&self) -> Option<usize> {
        self.families
            .iter()
            .try_fold(1usize, |acc, f| acc.checked_mul(f.len()))
    }

    /// Total count of component-local sets actually stored (the factored
    /// representation size: a sum, not a product).
    pub fn factored_len(&self) -> usize {
        self.families.iter().map(Vec::len).sum()
    }

    /// Expand the cross-product into global hitting sets (sorted). Only for
    /// callers that genuinely need the monolithic family — the factorized
    /// execution paths fold without ever calling this.
    pub fn expand(&self) -> Vec<BTreeSet<Tid>> {
        let mut out: Vec<BTreeSet<Tid>> = vec![BTreeSet::new()];
        for family in &self.families {
            let mut next = Vec::with_capacity(out.len().saturating_mul(family.len()));
            for prefix in &out {
                for h in family {
                    let mut combined = prefix.clone();
                    combined.extend(h.iter().copied());
                    next.push(combined);
                }
            }
            out = next;
        }
        out.sort();
        out
    }
}

/// Union-find over positions; paths are halved on `find`.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn parent(&self, x: usize) -> usize {
        self.parent.get(x).copied().unwrap_or(x)
    }

    fn find(&mut self, mut x: usize) -> usize {
        loop {
            let p = self.parent(x);
            if p == x {
                return x;
            }
            let grand = self.parent(p);
            if let Some(slot) = self.parent.get_mut(x) {
                *slot = grand;
            }
            x = grand;
        }
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        // Always hang the larger root under the smaller: a root is then its
        // component's smallest position, which is what makes the component
        // order canonical for free.
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        if let Some(slot) = self.parent.get_mut(hi) {
            *slot = lo;
        }
    }
}

impl ConflictComponents {
    /// Factor `graph` into its connected components via union-find over
    /// the hyper-edges, in flat passes: `O(E·s·log V)` for `E` edges of
    /// size `s` over `V` covered tuples. Prefer
    /// [`ConflictHypergraph::components`], which caches the result on the
    /// graph.
    ///
    /// Each component's edges are the in-order sub-list of the graph's
    /// canonical edge list, hence canonical and superset-free themselves:
    /// the component graphs are built as they are, without re-running
    /// [`ConflictHypergraph::new`]'s sort and dominance test.
    pub fn compute(graph: &ConflictHypergraph) -> ConflictComponents {
        // The covered tids, ascending: position order is tid order, so a
        // component's smallest root is its smallest tid.
        let mut covered: Vec<Tid> = graph.edges.iter().flatten().copied().collect();
        covered.sort_unstable();
        covered.dedup();
        let position = |t: &Tid| covered.binary_search(t).ok();
        let mut uf = UnionFind::new(covered.len());
        // Each edge's first position names its component later on.
        let mut edge_first: Vec<Option<usize>> = Vec::with_capacity(graph.edges.len());
        for edge in &graph.edges {
            let mut at = edge.iter().filter_map(position);
            let first = at.next();
            if let Some(first) = first {
                for p in at {
                    uf.union(first, p);
                }
            }
            edge_first.push(first);
        }
        // Number components by first encounter in ascending tid order. A
        // root is never larger than the positions under it, so it is
        // numbered by the time any of them is reached.
        let mut component_of: Vec<usize> = Vec::with_capacity(covered.len());
        let mut nodes_per: Vec<Vec<Tid>> = Vec::new();
        for (i, &tid) in covered.iter().enumerate() {
            let c = match component_of.get(uf.find(i)) {
                Some(&c) => c,
                None => {
                    nodes_per.push(Vec::new());
                    nodes_per.len() - 1
                }
            };
            if let Some(nodes) = nodes_per.get_mut(c) {
                nodes.push(tid);
            }
            component_of.push(c);
        }
        let mut edges_per: Vec<Vec<BTreeSet<Tid>>> = vec![Vec::new(); nodes_per.len()];
        for (edge, first) in graph.edges.iter().zip(edge_first) {
            let edges = first
                .and_then(|p| component_of.get(p))
                .and_then(|&c| edges_per.get_mut(c));
            if let Some(edges) = edges {
                edges.push(edge.clone());
            }
        }
        let components = nodes_per
            .into_iter()
            .zip(edges_per)
            .map(|(nodes, edges)| ComponentGraph {
                graph: Arc::new(ConflictHypergraph::from_canonical(
                    nodes.into_iter().collect(),
                    edges,
                )),
            })
            .collect();
        ConflictComponents::from_components(components)
    }

    fn from_components(components: Vec<ComponentGraph>) -> ConflictComponents {
        ConflictComponents {
            components,
            index: OnceLock::new(),
        }
    }

    /// Incrementally maintain the factorization under an edge delta:
    /// rebuild **only** the components touched by a removed or added edge
    /// and carry every untouched component over verbatim. An untouched
    /// component is carried by pointer, with the shape its graph has
    /// cached; a rebuilt one starts with empty caches. Nothing here reads
    /// the node set, so a write costs the touched components, not the
    /// instance: the frozen core is derived, not stored.
    ///
    /// `removed`/`added` must be the set difference between the old and new
    /// graph's (canonical, superset-filtered) edge sets — exactly what
    /// [`ConflictHypergraph::apply_violation_delta`] feeds in. The result is
    /// byte-identical to `ConflictComponents::compute` on the new graph:
    ///
    /// * a [`ComponentGraph`] is a pure function of its edge *set* (the
    ///   canonical edge order is size-then-lexicographic, which the rebuilt
    ///   region reproduces by pre-sorting its edges lexicographically), so
    ///   untouched components can't drift;
    /// * removing an edge can only split the component that owned it, and
    ///   adding one can only merge components it touches — both confined to
    ///   the rebuilt region, whose own union-find re-derives the split or
    ///   merge;
    /// * the canonical component order (ascending smallest tid) is restored
    ///   by one ordered merge of the two disjoint component lists.
    pub fn apply_edge_delta(
        &self,
        removed: &BTreeSet<BTreeSet<Tid>>,
        added: &BTreeSet<BTreeSet<Tid>>,
    ) -> ConflictComponents {
        if removed.is_empty() && added.is_empty() {
            // Only conflict-free tuples came or went.
            return ConflictComponents::from_components(self.components.clone());
        }
        // Delta edges touch few tuples: locate each one's owning component
        // by direct membership probe instead of materializing the full
        // tid → component index over every covered tuple.
        let mut touched: BTreeSet<usize> = BTreeSet::new();
        for edge in removed.iter().chain(added) {
            for t in edge {
                if let Some(c) = self.components.iter().position(|c| c.tids().contains(t)) {
                    touched.insert(c);
                }
            }
        }
        // The rebuilt region: surviving edges of the touched components
        // plus the added edges, in canonical pre-order (lexicographic; the
        // constructor's stable size sort then reproduces the size-then-lex
        // order a from-scratch build derives from its `BTreeSet` input).
        let mut sub_edges: Vec<BTreeSet<Tid>> = Vec::new();
        for &c in &touched {
            for e in self
                .components
                .get(c)
                .map_or(&[][..], ComponentGraph::edges)
            {
                if !removed.contains(e) {
                    sub_edges.push(e.clone());
                }
            }
        }
        sub_edges.extend(added.iter().cloned());
        sub_edges.sort();
        sub_edges.dedup();
        let sub_nodes: BTreeSet<Tid> = sub_edges.iter().flatten().copied().collect();
        let sub = ConflictComponents::compute(&ConflictHypergraph::new(sub_nodes, sub_edges));
        // Merge (disjoint: every covered tid of an added/removed edge maps
        // to a touched component, so the rebuilt region shares no node with
        // the untouched components).
        let mut merged: Vec<ComponentGraph> = self
            .components
            .iter()
            .enumerate()
            .filter(|(i, _)| !touched.contains(i))
            .map(|(_, c)| c.clone())
            .collect();
        merged.extend(sub.components);
        merged.sort_by_key(|c| c.tids().iter().next().copied());
        ConflictComponents::from_components(merged)
    }

    /// Every conflicted tid's component, by canonical index. Built once per
    /// factorization, on the first call, and kept: a session's reads share
    /// it until a write maintains the factorization into a new one.
    pub fn component_index(&self) -> &ComponentIndex {
        self.index.get_or_init(|| {
            let mut entries: Vec<(Tid, usize)> = self
                .components
                .iter()
                .enumerate()
                .flat_map(|(i, c)| c.tids().iter().map(move |&t| (t, i)))
                .collect();
            entries.sort_unstable();
            ComponentIndex { entries }
        })
    }

    /// Node count of the largest component (0 when consistent).
    pub fn largest_component(&self) -> usize {
        self.components
            .iter()
            .map(ComponentGraph::node_count)
            .max()
            .unwrap_or(0)
    }

    /// Do the per-component searches go to the `cqa-exec` pool? Not under
    /// a logical budget (deterministic truncation needs canonical order),
    /// not on one thread, and not below [`PAR_MIN_EDGES`] edges in all.
    /// The thread count is read last: resolving it reads the environment
    /// and the host's CPU count, which costs more than a small graph's
    /// block-shaped families.
    fn parallel(&self, budget: &Budget) -> bool {
        !budget.forces_sequential()
            && self.components.len() >= 2
            && self
                .components
                .iter()
                .map(ComponentGraph::edge_count)
                .sum::<usize>()
                >= PAR_MIN_EDGES
            && cqa_exec::threads() > 1
    }

    /// Run `f` over `items`, one per component in canonical order. On the
    /// pool when [`Self::parallel`] says so, where each search runs on its
    /// worker's one thread. Otherwise on the calling thread: several
    /// components, too small in all for the pool, search on that one
    /// thread too, while a lone component's search may still use the pool
    /// itself. `par_map` preserves input order, so the merged output is in
    /// canonical component order either way.
    fn per_component<T: Sync, U: Send>(
        &self,
        items: &[T],
        budget: &Budget,
        f: impl Fn(&T) -> U + Sync,
    ) -> Vec<U> {
        if self.parallel(budget) {
            cqa_exec::par_map(items, f)
        } else if self.components.len() >= 2 {
            cqa_exec::with_threads(1, || items.iter().map(f).collect())
        } else {
            items.iter().map(f).collect()
        }
    }

    /// All minimal hitting sets, factored per component. With an unlimited
    /// budget the expansion of the result equals
    /// [`ConflictHypergraph::minimal_hitting_sets`] exactly. On truncation
    /// every stored set is a genuine component-local minimal hitting set
    /// (so every expanded combination is a genuine global one — a sound
    /// subset), and `explored` counts the components enumerated exactly.
    pub fn minimal_hitting_sets_factored(&self, budget: &Budget) -> Outcome<FactoredFamilies> {
        let results = self.per_component(&self.components, budget, |c| {
            let out = c.graph().minimal_hitting_sets_budgeted(None, budget);
            let exact = out.is_exact();
            (out.into_value(), exact)
        });
        let (families, exact): (Vec<_>, Vec<_>) = results.into_iter().unzip();
        let fams = FactoredFamilies { families, exact };
        let explored = fams.exact_components();
        budget.outcome_with(fams, explored)
    }

    /// The global minimum hitting-set size as the sum of per-component
    /// branch-and-bound minima (edges never cross components, so the minima
    /// add). Each component search carries its own greedy bound instead of
    /// all branches sharing one global incumbent — `m` small searches for
    /// the price the monolithic search pays on its *first* component. On
    /// truncation the value is an upper bound, mirroring
    /// [`ConflictHypergraph::minimum_hitting_set_size_budgeted`].
    pub fn minimum_hitting_set_size_budgeted(&self, budget: &Budget) -> Outcome<usize> {
        let sizes = self.per_component(&self.components, budget, |c| {
            c.graph().minimum_hitting_set_size_budgeted(budget)
        });
        let total: usize = sizes.iter().map(|o| *o.value()).sum();
        budget.outcome(total)
    }

    /// All **minimum** hitting sets (the C-repair deltas), factored per
    /// component: the global minima are exactly the cross-products of the
    /// per-component minimum families. Returns `(minimum_size, families)`.
    ///
    /// The per-component sizes are proven first; the fixed-size enumeration
    /// is then *seeded* with each component's proven optimum
    /// ([`ConflictHypergraph::minimum_hitting_sets_at`]) so the bound is
    /// never re-derived. If the budget dies during a size proof, the result
    /// is the best-known upper bound with empty families (never wrong-sized
    /// sets), matching the monolithic contract.
    pub fn minimum_hitting_sets_factored(
        &self,
        budget: &Budget,
    ) -> Outcome<(usize, FactoredFamilies)> {
        let proofs = self.per_component(&self.components, budget, |c| {
            c.graph().minimum_hitting_set_size_budgeted(budget)
        });
        let total: usize = proofs.iter().map(|size| *size.value()).sum();
        if budget.exhausted() || proofs.iter().any(Outcome::is_truncated) {
            let fams = FactoredFamilies {
                families: vec![Vec::new(); self.components.len()],
                exact: vec![false; self.components.len()],
            };
            return budget.outcome_with((total, fams), 0);
        }
        let sized: Vec<(&ComponentGraph, usize)> = self
            .components
            .iter()
            .zip(proofs)
            .map(|(c, size)| (c, size.into_value()))
            .collect();
        let results = self.per_component(&sized, budget, |(c, k)| {
            let out = c.graph().minimum_hitting_sets_at(*k, budget);
            let exact = out.is_exact();
            (out.into_value(), exact)
        });
        let (families, exact): (Vec<_>, Vec<_>) = results.into_iter().unzip();
        let fams = FactoredFamilies { families, exact };
        let explored = fams.exact_components();
        budget.outcome_with((total, fams), explored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// The union-find the old `compute` used, for the reference.
    struct RefUnionFind {
        parent: Vec<usize>,
    }

    impl RefUnionFind {
        fn new(n: usize) -> RefUnionFind {
            RefUnionFind {
                parent: (0..n).collect(),
            }
        }

        fn find(&mut self, mut x: usize) -> usize {
            while self.parent[x] != x {
                self.parent[x] = self.parent[self.parent[x]];
                x = self.parent[x];
            }
            x
        }

        fn union(&mut self, a: usize, b: usize) {
            let (ra, rb) = (self.find(a), self.find(b));
            if ra != rb {
                // Always hang the larger root under the smaller: roots then
                // coincide with each component's smallest tid index, which is
                // what makes the component order canonical for free.
                let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
                self.parent[hi] = lo;
            }
        }
    }

    /// `ConflictComponents::compute` as it was before the flat-pass rewrite:
    /// `BTreeMap` indexes and a full `ConflictHypergraph::new` per component.
    fn compute_reference(graph: &ConflictHypergraph) -> ConflictComponents {
        // Index the covered tids (ascending order, so index order = tid
        // order and the smallest root is the smallest tid).
        let covered: BTreeSet<Tid> = graph.edges.iter().flatten().copied().collect();
        let index: BTreeMap<Tid, usize> = covered
            .iter()
            .copied()
            .enumerate()
            .map(|(i, t)| (t, i))
            .collect();
        let mut uf = RefUnionFind::new(covered.len());
        for edge in &graph.edges {
            let mut it = edge.iter();
            if let Some(first) = it.next() {
                for t in it {
                    uf.union(index[first], index[t]);
                }
            }
        }
        // Number components by first encounter in ascending tid order.
        let tids: Vec<Tid> = covered.iter().copied().collect();
        let mut component_of_root: BTreeMap<usize, usize> = BTreeMap::new();
        let mut nodes_per: Vec<BTreeSet<Tid>> = Vec::new();
        for (i, &tid) in tids.iter().enumerate() {
            let root = uf.find(i);
            let next = nodes_per.len();
            let c = *component_of_root.entry(root).or_insert(next);
            if c == nodes_per.len() {
                nodes_per.push(BTreeSet::new());
            }
            nodes_per[c].insert(tid);
        }
        let mut edges_per: Vec<Vec<BTreeSet<Tid>>> = vec![Vec::new(); nodes_per.len()];
        for edge in &graph.edges {
            if let Some(first) = edge.iter().next() {
                let c = component_of_root[&uf.find(index[first])];
                edges_per[c].push(edge.clone());
            }
        }
        let components = nodes_per
            .into_iter()
            .zip(edges_per)
            .map(|(nodes, edges)| ComponentGraph {
                graph: Arc::new(ConflictHypergraph::new(nodes, edges)),
            })
            .collect();
        ConflictComponents::from_components(components)
    }

    /// A random edge list: 1–3 tids each over at most 40 tids, with
    /// duplicates and supersets left in for `ConflictHypergraph::new` to
    /// filter.
    fn random_edges(rng: &mut SmallRng, n_tids: u64, n_edges: usize) -> Vec<BTreeSet<Tid>> {
        (0..n_edges)
            .map(|_| {
                let size = rng.gen_range(1..4);
                (0..size).map(|_| Tid(rng.gen_range(0..n_tids))).collect()
            })
            .collect()
    }

    /// The edges `ConflictHypergraph::new` must keep, by definition: the
    /// distinct inclusion-minimal raw edges, in canonical (size, then
    /// lexicographic) order.
    fn minimal_edges(raw: &[BTreeSet<Tid>]) -> Vec<BTreeSet<Tid>> {
        let distinct: BTreeSet<&BTreeSet<Tid>> = raw.iter().collect();
        let mut minimal: Vec<BTreeSet<Tid>> = distinct
            .iter()
            .filter(|e| !distinct.iter().any(|f| f != *e && f.is_subset(e)))
            .map(|e| (*e).clone())
            .collect();
        minimal.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        minimal
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `ConflictHypergraph::new` keeps exactly the minimal edges, the
        /// flat-pass `compute` equals the old implementation, each
        /// component graph equals `ConflictHypergraph::new` over its own
        /// nodes and edges, and `apply_edge_delta` after random removals
        /// and additions equals `compute` on the new graph.
        #[test]
        fn compute_matches_reference_and_delta(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n_tids = rng.gen_range(1..41);
            let nodes: BTreeSet<Tid> = (0..n_tids).map(Tid).collect();
            let n_edges = rng.gen_range(0..30);
            let raw = random_edges(&mut rng, n_tids, n_edges);
            let g = ConflictHypergraph::new(nodes.clone(), raw.clone());
            prop_assert_eq!(&g.edges, &minimal_edges(&raw));
            // Fills the graph's cache, so `apply_violation_delta` below
            // maintains it.
            let comps = g.components();
            prop_assert_eq!(&*comps, &compute_reference(&g));
            for c in &comps.components {
                let rebuilt = ConflictHypergraph::new(c.tids().clone(), c.edges().to_vec());
                prop_assert_eq!(c.graph(), &rebuilt);
            }

            // Drop some raw edges, add fresh ones, drop some conflict-free
            // nodes.
            let mut raw2: Vec<BTreeSet<Tid>> =
                raw.iter().filter(|_| rng.gen_bool(0.7)).cloned().collect();
            let n_added = rng.gen_range(0..8);
            raw2.extend(random_edges(&mut rng, n_tids, n_added));
            let nodes2: BTreeSet<Tid> = nodes
                .iter()
                .copied()
                .filter(|t| raw2.iter().any(|e| e.contains(t)) || rng.gen_bool(0.8))
                .collect();
            let g2 = ConflictHypergraph::new(nodes2.clone(), raw2.clone());
            prop_assert_eq!(&g2.edges, &minimal_edges(&raw2));
            let old: BTreeSet<BTreeSet<Tid>> = g.edges.iter().cloned().collect();
            let new: BTreeSet<BTreeSet<Tid>> = g2.edges.iter().cloned().collect();
            let removed = old.difference(&new).cloned().collect();
            let added = new.difference(&old).cloned().collect();
            let expected = ConflictComponents::compute(&g2);
            prop_assert_eq!(&comps.apply_edge_delta(&removed, &added), &expected);
            // The graph maintained from the delta alone: `dirty` holds the
            // tids of the raw sets that changed and the dropped nodes, and
            // `added` the new raw sets that touch it.
            let raw_old: BTreeSet<&BTreeSet<Tid>> = raw.iter().collect();
            let raw_new: BTreeSet<&BTreeSet<Tid>> = raw2.iter().collect();
            let dirty: BTreeSet<Tid> = raw_old
                .symmetric_difference(&raw_new)
                .flat_map(|e| e.iter().copied())
                .chain(nodes.difference(&nodes2).copied())
                .collect();
            let added: BTreeSet<BTreeSet<Tid>> = raw_new
                .into_iter()
                .filter(|e| !e.is_disjoint(&dirty))
                .cloned()
                .collect();
            let maintained = g.apply_violation_delta(nodes2, &dirty, &added);
            prop_assert_eq!(&maintained, &g2);
            prop_assert_eq!(&*maintained.components(), &expected);
        }
    }

    fn tids(ids: &[u64]) -> BTreeSet<Tid> {
        ids.iter().map(|&i| Tid(i)).collect()
    }

    /// Figure 1 (one component over {1..5}) plus a disjoint 2-edge {8,9}
    /// and two isolated nodes 6, 7.
    fn two_component_graph() -> ConflictHypergraph {
        ConflictHypergraph::new(
            (1..=9).map(Tid).collect(),
            vec![
                tids(&[2, 5]),
                tids(&[2, 3, 4]),
                tids(&[1, 3]),
                tids(&[8, 9]),
            ],
        )
    }

    #[test]
    fn components_are_canonical_and_cover_edges() {
        let g = two_component_graph();
        let comps = ConflictComponents::compute(&g);
        assert_eq!(g.isolated_nodes(), tids(&[6, 7]));
        assert_eq!(comps.components.len(), 2);
        assert_eq!(comps.components[0].tids(), &tids(&[1, 2, 3, 4, 5]));
        assert_eq!(comps.components[0].edge_count(), 3);
        assert_eq!(comps.components[1].tids(), &tids(&[8, 9]));
        assert_eq!(comps.components[1].edge_count(), 1);
        assert_eq!(comps.largest_component(), 5);
        let idx = comps.component_index();
        assert_eq!(idx.get(Tid(4)), Some(0));
        assert_eq!(idx.get(Tid(9)), Some(1));
        assert_eq!(idx.get(Tid(6)), None);
    }

    #[test]
    fn consistent_graph_has_no_components() {
        let g = ConflictHypergraph::new(tids(&[1, 2]), vec![]);
        let comps = ConflictComponents::compute(&g);
        assert!(comps.components.is_empty());
        assert_eq!(g.isolated_nodes(), tids(&[1, 2]));
        assert_eq!(comps.component_index().get(Tid(1)), None);
        assert_eq!(comps.largest_component(), 0);
    }

    #[test]
    fn factored_expansion_equals_monolithic_enumeration() {
        let g = two_component_graph();
        let comps = ConflictComponents::compute(&g);
        let factored = comps
            .minimal_hitting_sets_factored(&Budget::unlimited())
            .into_value();
        assert_eq!(factored.families.len(), 2);
        assert_eq!(factored.product_len(), Some(8)); // 4 × 2
        assert_eq!(factored.factored_len(), 6); // 4 + 2
        let mut monolithic = g.minimal_hitting_sets(None);
        monolithic.sort();
        assert_eq!(factored.expand(), monolithic);
    }

    #[test]
    fn factored_minimum_matches_monolithic() {
        let g = two_component_graph();
        let comps = ConflictComponents::compute(&g);
        assert_eq!(
            comps
                .minimum_hitting_set_size_budgeted(&Budget::unlimited())
                .into_value(),
            g.minimum_hitting_set_size()
        );
        let (k, fams) = comps
            .minimum_hitting_sets_factored(&Budget::unlimited())
            .into_value();
        assert_eq!(k, 3); // 2 (Figure 1) + 1 (the pair edge)
        let mut monolithic = g.minimum_hitting_sets();
        monolithic.sort();
        assert_eq!(fams.expand(), monolithic);
    }

    /// `n` path components `3i - 3i+1 - 3i+2` of two edges each.
    fn path_components(n: u64) -> ConflictHypergraph {
        let edges: Vec<BTreeSet<Tid>> = (0..n)
            .flat_map(|i| [tids(&[3 * i, 3 * i + 1]), tids(&[3 * i + 1, 3 * i + 2])])
            .collect();
        ConflictHypergraph::new((0..3 * n).map(Tid).collect(), edges)
    }

    #[test]
    fn factored_is_deterministic_across_thread_counts() {
        // Below PAR_MIN_EDGES the searches stay on the calling thread; the
        // path graph is large enough to run them on the pool.
        let large = path_components(PAR_MIN_EDGES as u64 / 2 + 1);
        for g in [two_component_graph(), large] {
            let run = |t: usize| {
                cqa_exec::with_threads(t, || {
                    let comps = ConflictComponents::compute(&g);
                    (
                        comps.parallel(&Budget::unlimited()),
                        comps
                            .minimal_hitting_sets_factored(&Budget::unlimited())
                            .into_value(),
                        comps
                            .minimum_hitting_sets_factored(&Budget::unlimited())
                            .into_value(),
                    )
                })
            };
            let (pooled, minimal, minimum) = run(1);
            assert!(!pooled, "one thread never uses the pool");
            for t in [2, 8] {
                let (pooled, m, c) = run(t);
                assert_eq!(pooled, g.edges.len() >= PAR_MIN_EDGES);
                assert_eq!((&m, &c), (&minimal, &minimum), "threads={t}");
            }
        }
    }

    #[test]
    fn a_delta_carries_untouched_component_graphs_by_pointer() {
        let g = two_component_graph();
        let before = g.components();
        // A read detects, and keeps, each component's shape.
        let _ = before.minimal_hitting_sets_factored(&Budget::unlimited());
        // A new tuple 10 in conflict with 9 touches the second component.
        let mut nodes = g.nodes.clone();
        nodes.insert(Tid(10));
        let next = g.apply_violation_delta(nodes, &tids(&[10]), &[tids(&[9, 10])].into());
        let after = next.components();
        // The first component's graph, and the shape it has cached, is
        // shared; the touched one is rebuilt.
        assert!(Arc::ptr_eq(
            &before.components[0].graph,
            &after.components[0].graph
        ));
        assert!(!Arc::ptr_eq(
            &before.components[1].graph,
            &after.components[1].graph
        ));
        assert_eq!(*after, ConflictComponents::compute(&next));
        assert!(after.components[1].graph().is_block_shaped());
        let fresh = ConflictHypergraph::new(tids(&[8, 9, 10]), [tids(&[8, 9]), tids(&[9, 10])]);
        assert_eq!(
            after.components[1].graph().minimal_hitting_sets(None),
            fresh.minimal_hitting_sets(None)
        );
    }

    #[test]
    fn truncated_size_proof_yields_empty_families() {
        // 8 disjoint pairs; one step is nowhere near enough for the proofs.
        let edges: Vec<BTreeSet<Tid>> = (0..8).map(|i| tids(&[2 * i, 2 * i + 1])).collect();
        let g = ConflictHypergraph::new((0..16).map(Tid).collect(), edges);
        let comps = ConflictComponents::compute(&g);
        assert_eq!(comps.components.len(), 8);
        let out = comps.minimum_hitting_sets_factored(&Budget::steps(1));
        assert!(out.is_truncated());
        let (_, fams) = out.into_value();
        assert!(fams.families.iter().all(Vec::is_empty));
        assert_eq!(fams.exact_components(), 0);
    }

    #[test]
    fn truncated_enumeration_reports_exact_components() {
        // Eleven pair components, ~3 search nodes each. A budget covering
        // the first few reports exactly those as explored.
        let mut edges: Vec<BTreeSet<Tid>> = vec![tids(&[100, 101])];
        edges.extend((0..10).map(|i| tids(&[2 * i, 2 * i + 1])));
        let nodes: BTreeSet<Tid> = edges.iter().flatten().copied().collect();
        let g = ConflictHypergraph::new(nodes, edges);
        let comps = ConflictComponents::compute(&g);
        assert_eq!(comps.components.len(), 11);
        let out = comps.minimal_hitting_sets_factored(&Budget::steps(12));
        assert!(out.is_truncated());
        let (_, explored) = out
            .truncation()
            .unwrap_or((cqa_exec::TruncationReason::StepLimit, 0));
        let fams = out.into_value();
        assert_eq!(explored, fams.exact_components());
        assert!(explored >= 1, "a pair component fits in 12 steps");
        assert!((explored as usize) < comps.components.len());
        // Every stored set is a genuine local minimal hitting set.
        for (c, family) in comps.components.iter().zip(&fams.families) {
            for h in family {
                assert!(c.graph().is_minimal_hitting_set(h));
            }
        }
    }
}
