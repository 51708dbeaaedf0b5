//! The conflict hyper-graph (§4.1, Figure 1) and hitting-set algorithms.
//!
//! Nodes are database tuples (tids); each hyper-edge is a set of tuples that
//! jointly violate a denial constraint. The repair theory rests on two facts:
//!
//! * **S-repairs** (subset repairs) are exactly the complements of the
//!   *minimal hitting sets* of the edge set — equivalently, the maximal
//!   independent sets of the hyper-graph.
//! * **C-repairs** (cardinality repairs) are the complements of the
//!   *minimum* hitting sets.
//!
//! This module owns the purely combinatorial part: enumeration of minimal
//! hitting sets (with pruning) and branch-and-bound computation of minimum
//! ones. `cqa-core` wraps these into repair semantics.
//!
//! **Block-shaped graphs skip the search.** A key, or one FD inside one
//! left-hand-side group, turns a block of key-equal tuples into a complete
//! multipartite graph: every edge has two tuples, and two tuples are
//! adjacent iff they disagree. Its minimal hitting sets are "delete every
//! class but one" and its minimum ones keep a largest class; a graph with a
//! single edge has that edge's singletons. [`ConflictHypergraph::
//! is_block_shaped`] recognizes both shapes from the edges alone, and the
//! three family entries — [`ConflictHypergraph::minimal_hitting_sets_budgeted`]
//! without a `limit`, [`ConflictHypergraph::minimum_hitting_set_size_budgeted`]
//! and [`ConflictHypergraph::minimum_hitting_sets_at`] at the block minimum —
//! then read the family off the classes in the search's own (sorted) order,
//! one tick and one item charge per emitted set and one tick for the size
//! proof. A declined graph runs the search unchanged. DESIGN.md
//! (*Conflict-component factorization*) has the proof. A graph detects its
//! shape once, on the first read that needs it, and keeps it next to its
//! components: a session's maintained component graphs are carried across
//! the writes that do not touch them, so a warm read of an unchanged
//! component emits its family without detecting again. The families
//! themselves are not kept; each read emits them afresh.
//!
//! The search trees are explored in parallel through `cqa-exec`: the top
//! levels of each tree are split into independent branch tasks on a work
//! queue (so uneven subtrees load-balance), below a split depth scaled to
//! the thread count (`par_split_depth`) each
//! task runs the plain sequential recursion, and for branch-and-bound the
//! workers share the incumbent best size through an atomic (`fetch_min`).
//! All results are merged into `BTreeSet`s and the minimum is a property of
//! the graph, not of the schedule — output is byte-identical at every
//! thread count.

// audit:exponential — minimal/minimum hitting-set enumeration; every search loop must thread a Budget.
use crate::components::ConflictComponents;
use cqa_exec::{Budget, Outcome};
use cqa_relation::fxhash::WordHashSet;
use cqa_relation::Tid;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Depth of the search tree below which a branch task stops splitting and
/// runs sequentially. Branching factor is the size of the chosen edge
/// (≥ 2 on any branching node), so this yields at least `4 × threads`
/// subtree tasks — plenty of slack for the queue to balance uneven trees.
fn par_split_depth() -> usize {
    (4 * cqa_exec::threads())
        .next_power_of_two()
        .trailing_zeros() as usize
}

/// The canonical (size, then lexicographic) edge order: a total order that
/// is a pure function of the edge set, shared by [`ConflictHypergraph::new`]
/// and [`ConflictHypergraph::apply_violation_delta`] (which binary-searches
/// and merges stored edge lists under exactly this order).
fn canonical_edge_order(a: &BTreeSet<Tid>, b: &BTreeSet<Tid>) -> std::cmp::Ordering {
    a.len().cmp(&b.len()).then_with(|| a.cmp(b))
}

/// Edges up to this size test dominance by enumerating their proper
/// subsets; wider ones fall back to a pairwise scan of the kept edges.
const ENUM_WIDTH: usize = 12;

/// The canonical form of an edge list: sorted in [`canonical_edge_order`]
/// (a pure function of the edge *set* regardless of input order, which is
/// what lets `apply_violation_delta` binary-search it and merge into it),
/// deduplicated, and with every edge that is a superset of another dropped.
///
/// Edges are processed in ascending size, so a kept subset always precedes
/// the supersets it eliminates. Small edges (denial bodies are short, so
/// this is the normal case) test "does a kept subset exist?" by enumerating
/// their own proper subsets against a hash set of kept edges:
/// `O(E · 2^|e|)` instead of the quadratic `O(E²)` pairwise scan, which
/// made instances with ~10⁵ conflict pairs unusable. Each probe fills one
/// reused scratch buffer and looks it up as a slice.
fn canonical_edges(mut edges: Vec<BTreeSet<Tid>>) -> Vec<BTreeSet<Tid>> {
    // A stable sort by size of a lexicographically sorted list is the
    // canonical order. Violation sets usually arrive lexicographically
    // sorted (from a `BTreeSet`), so the first sort is then one pass and
    // the second compares sizes only.
    edges.sort_unstable();
    edges.dedup();
    edges.sort_by_key(BTreeSet::len);
    let mut kept: Vec<BTreeSet<Tid>> = Vec::with_capacity(edges.len());
    // An edge of the largest size is no other edge's proper subset, so only
    // smaller kept edges are indexed. Keys are sorted element slices
    // (ascending-order masks over an ascending element list stay sorted).
    let widest = edges.last().map_or(0, BTreeSet::len);
    let mut kept_index: WordHashSet<Box<[Tid]>> = WordHashSet::with_capacity_and_hasher(
        edges.partition_point(|e| e.len() < widest),
        Default::default(),
    );
    let mut elems: Vec<Tid> = Vec::with_capacity(ENUM_WIDTH);
    let mut sub: Vec<Tid> = Vec::with_capacity(ENUM_WIDTH);
    for e in edges {
        elems.clear();
        elems.extend(e.iter().copied());
        let dominated = if e.len() <= ENUM_WIDTH {
            // Proper non-empty subsets only: the canonical sort makes exact
            // duplicates adjacent, so `dedup` already removed them all and
            // the full mask can never hit.
            (1..(1u32 << elems.len()) - 1).any(|mask| {
                sub.clear();
                sub.extend(
                    elems
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| mask & (1 << i) != 0)
                        .map(|(_, t)| *t),
                );
                kept_index.contains(sub.as_slice())
            })
        } else {
            kept.iter().any(|k| k.is_subset(&e))
        };
        if !dominated {
            if e.len() < widest {
                kept_index.insert(elems.as_slice().into());
            }
            kept.push(e);
        }
    }
    kept
}

/// The classes of a block-shaped graph, read off its edges by
/// [`ConflictHypergraph::block_shape`]. Every family it emits is in the
/// search's canonical (sorted) order, so a budget cut leaves a prefix of the
/// exact family.
#[derive(Debug, Clone)]
enum BlockShape {
    /// A graph of one edge, whose tuples these are (ascending). Its minimal
    /// and its minimum hitting sets are the edge's singletons.
    Edge(Vec<Tid>),
    /// A complete multipartite graph over the covered tuples `tids`
    /// (ascending). `class[i]` is the class of `tids[i]` and `sizes[c]` the
    /// size of class `c`; classes are numbered in ascending order of their
    /// smallest tuple.
    Classes {
        tids: Vec<Tid>,
        class: Vec<usize>,
        sizes: Vec<usize>,
    },
}

impl BlockShape {
    /// The minimum hitting-set size: one tuple of the edge, or every
    /// covered tuple outside a largest class.
    fn minimum_size(&self) -> usize {
        match self {
            BlockShape::Edge(_) => 1,
            BlockShape::Classes { tids, sizes, .. } => {
                tids.len() - sizes.iter().copied().max().unwrap_or(0)
            }
        }
    }

    /// The minimal hitting sets (`minimum = false`) or the minimum ones, in
    /// sorted order, ticking once before and charging one item after each
    /// set. On truncation the result is the prefix emitted so far.
    ///
    /// The complement of class `c` precedes the complement of class `d`
    /// when `c`'s smallest tuple is larger: below the smaller of the two
    /// smallest tuples `x` both complements agree, at `x` only the
    /// complement of the class without `x` holds `x`, and the other
    /// complement continues with a larger tuple (the other class's
    /// smallest). Classes are numbered by ascending smallest tuple, so the
    /// sorted family runs over them in reverse.
    fn family(&self, minimum: bool, budget: &Budget) -> Outcome<Vec<BTreeSet<Tid>>> {
        let sets: Box<dyn Iterator<Item = BTreeSet<Tid>> + '_> = match self {
            BlockShape::Edge(tids) => Box::new(tids.iter().map(|&t| BTreeSet::from([t]))),
            BlockShape::Classes { tids, class, sizes } => {
                let keep = self.minimum_size();
                Box::new(
                    sizes
                        .iter()
                        .enumerate()
                        .rev()
                        .filter(move |&(_, &size)| !minimum || tids.len() - size == keep)
                        .map(move |(c, _)| {
                            tids.iter()
                                .zip(class)
                                .filter(|&(_, &k)| k != c)
                                .map(|(&t, _)| t)
                                .collect()
                        }),
                )
            }
        };
        let mut out = Vec::new();
        for set in sets {
            if !budget.tick() {
                break;
            }
            out.push(set);
            if !budget.charge_item() {
                break;
            }
        }
        let n = out.len() as u64;
        budget.outcome_with(out, n)
    }
}

/// A conflict hyper-graph.
///
/// Like the column-index cache on `Database` relations, the graph carries
/// lazily computed caches (its [`ConflictComponents`] and its block shape,
/// see [`ConflictHypergraph::is_block_shaped`]); the cache key is the
/// `(nodes, edges)` pair, which is fixed at construction. Mutating the
/// public fields of an existing graph in place is outside the contract —
/// build a fresh graph with [`ConflictHypergraph::new`] instead, exactly as
/// instance mutations go through `Database` methods that invalidate its
/// index cache.
#[derive(Default)]
pub struct ConflictHypergraph {
    /// All nodes (every tuple of the instance, including conflict-free ones).
    pub nodes: BTreeSet<Tid>,
    /// The hyper-edges: minimal violation sets. Kept deduplicated and free of
    /// supersets (a superset edge is implied by its subset).
    pub edges: Vec<BTreeSet<Tid>>,
    /// Cached connected components; filled on first
    /// [`components`](ConflictHypergraph::components) call.
    components: OnceLock<Arc<ConflictComponents>>,
    /// Cached [`ConflictHypergraph::block_shape`]; filled on the first
    /// read that needs it.
    shape: OnceLock<Option<BlockShape>>,
}

impl std::fmt::Debug for ConflictHypergraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The cache is derived state — keep it out of the debug view so the
        // output is the same whether or not components were computed.
        f.debug_struct("ConflictHypergraph")
            .field("nodes", &self.nodes)
            .field("edges", &self.edges)
            .finish()
    }
}

impl Clone for ConflictHypergraph {
    fn clone(&self) -> Self {
        // The caches are pure functions of (nodes, edges), so sharing the
        // already-computed ones with the clone is sound.
        ConflictHypergraph {
            nodes: self.nodes.clone(),
            edges: self.edges.clone(),
            components: self.components.clone(),
            shape: self.shape.clone(),
        }
    }
}

impl PartialEq for ConflictHypergraph {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.edges == other.edges
    }
}

impl Eq for ConflictHypergraph {}

impl ConflictHypergraph {
    /// Build from nodes and raw violation sets; dedupes and drops edges that
    /// are supersets of other edges (hitting the subset hits the superset).
    /// The stored edges are in canonical (size, then lexicographic) order,
    /// a pure function of the edge set regardless of input order.
    pub fn new(nodes: BTreeSet<Tid>, raw_edges: impl IntoIterator<Item = BTreeSet<Tid>>) -> Self {
        ConflictHypergraph {
            nodes,
            edges: canonical_edges(raw_edges.into_iter().collect()),
            ..ConflictHypergraph::default()
        }
    }

    /// Build from edges that are already canonical: in canonical edge
    /// order, deduplicated and superset-free, exactly as
    /// [`ConflictHypergraph::new`] stores them. An in-order sub-list of a
    /// graph's edges qualifies, which is how each connected component gets
    /// its graph without re-running the sort and the dominance test. Debug
    /// builds check the condition.
    pub(crate) fn from_canonical(nodes: BTreeSet<Tid>, edges: Vec<BTreeSet<Tid>>) -> Self {
        debug_assert!(
            canonical_edges(edges.clone()) == edges,
            "edges must be in canonical order and superset-free"
        );
        ConflictHypergraph {
            nodes,
            edges,
            ..ConflictHypergraph::default()
        }
    }

    /// The connected components of this graph, computed once (union-find
    /// over the hyper-edges) and cached — `s_repairs` followed by
    /// `certain_over` on the same σ, D pair pays for the factorization a
    /// single time. Clones share an already-filled cache.
    pub fn components(&self) -> Arc<ConflictComponents> {
        Arc::clone(
            self.components
                .get_or_init(|| Arc::new(ConflictComponents::compute(self))),
        )
    }

    /// Build the graph for the post-mutation violation set from the delta
    /// alone, never re-canonicalizing the full edge list, and maintain the
    /// component factorization alongside when this graph's cache is filled
    /// (an unfilled cache stays lazy). `dirty` is the set of touched tids
    /// and `added` the violation sets re-derived for them; the new
    /// violation set is understood to be
    /// "every old violation disjoint from `dirty`, plus `added`" — the
    /// monotone-denial maintenance identity. **Every set in `added` must
    /// intersect `dirty`** (a violation involving no touched tuple is not a
    /// delta; debug builds assert this).
    ///
    /// Why a merge suffices for byte-identity with a from-scratch build:
    ///
    /// * a superset of a dirty-touching edge touches dirty itself, so
    ///   removing the dirty-touching kept edges can never resurrect an edge
    ///   they dominated — the dominated sets are gone too;
    /// * surviving kept edges are disjoint from `dirty` while every added
    ///   set intersects it, so no added set can equal or dominate a
    ///   surviving kept edge;
    /// * hence the new canonical edge set is exactly the surviving kept
    ///   edges merged (in canonical order) with the added sets that are not
    ///   themselves dominated — and domination of an added set is decided
    ///   by binary-searching its proper subsets in the stored canonical
    ///   edge list (skipping dirty-touching hits) and in the added sets
    ///   accepted so far.
    ///
    /// Components are maintained through
    /// [`ConflictComponents::apply_edge_delta`], which rebuilds only the
    /// components a removed or added edge touches. The result is
    /// byte-identical to [`ConflictHypergraph::new`] followed by a fresh
    /// [`ConflictHypergraph::components`] call.
    pub fn apply_violation_delta(
        &self,
        nodes: BTreeSet<Tid>,
        dirty: &BTreeSet<Tid>,
        added: &BTreeSet<BTreeSet<Tid>>,
    ) -> ConflictHypergraph {
        debug_assert!(
            added.iter().all(|a| a.iter().any(|t| dirty.contains(t))),
            "added violation sets must intersect the dirty tids"
        );
        let touches_dirty = |e: &BTreeSet<Tid>| e.iter().any(|t| dirty.contains(t));
        // Canonically filter the added sets, smallest first. A hit in the
        // stored edge list only counts when the found edge survives (is
        // disjoint from `dirty`): the probe target may itself be one of the
        // edges this delta removes.
        let mut add_sorted: Vec<&BTreeSet<Tid>> = added.iter().collect();
        add_sorted.sort_by(|a, b| canonical_edge_order(a, b));
        let mut accepted: Vec<BTreeSet<Tid>> = Vec::new();
        for a in add_sorted {
            let dominated = if a.len() <= ENUM_WIDTH {
                let elems: Vec<Tid> = a.iter().copied().collect();
                // Proper non-empty subsets only: equality with a surviving
                // kept edge is impossible (`a` touches dirty) and `added`
                // holds no duplicates.
                (1..(1u32 << elems.len()) - 1).any(|mask| {
                    let sub: BTreeSet<Tid> = elems
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| mask & (1 << i) != 0)
                        .map(|(_, t)| *t)
                        .collect();
                    let in_kept = self
                        .edges
                        .binary_search_by(|e| canonical_edge_order(e, &sub))
                        .ok()
                        .and_then(|i| self.edges.get(i))
                        .is_some_and(|e| !touches_dirty(e));
                    in_kept
                        || accepted
                            .binary_search_by(|e| canonical_edge_order(e, &sub))
                            .is_ok()
                })
            } else {
                self.edges
                    .iter()
                    .any(|k| !touches_dirty(k) && k.is_subset(a))
                    || accepted.iter().any(|k| k.is_subset(a))
            };
            if !dominated {
                accepted.push(a.clone());
            }
        }
        // Ordered merge: surviving kept edges and accepted added sets, both
        // already in canonical order (ties are impossible — see above).
        let mut next_edges: Vec<BTreeSet<Tid>> =
            Vec::with_capacity(self.edges.len() + accepted.len());
        let mut removed: BTreeSet<BTreeSet<Tid>> = BTreeSet::new();
        let mut add_iter = accepted.iter().peekable();
        for e in &self.edges {
            if touches_dirty(e) {
                removed.insert(e.clone());
                continue;
            }
            while let Some(a) =
                add_iter.next_if(|a| canonical_edge_order(a, e) == std::cmp::Ordering::Less)
            {
                next_edges.push(a.clone());
            }
            next_edges.push(e.clone());
        }
        next_edges.extend(add_iter.cloned());
        let next = ConflictHypergraph {
            nodes,
            edges: next_edges,
            ..ConflictHypergraph::default()
        };
        if let Some(old) = self.components.get() {
            let added_edges: BTreeSet<BTreeSet<Tid>> = accepted.into_iter().collect();
            let maintained = old.apply_edge_delta(&removed, &added_edges);
            let _ = next.components.set(Arc::new(maintained));
        }
        next
    }

    /// Number of hyper-edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Nodes touching no edge (tuples free of conflicts — they persist in
    /// every repair, i.e. they are part of the "consistent core").
    pub fn isolated_nodes(&self) -> BTreeSet<Tid> {
        let covered: BTreeSet<Tid> = self.edges.iter().flatten().copied().collect();
        self.nodes.difference(&covered).copied().collect()
    }

    /// Is `set` a hitting set (touches every edge)?
    pub fn is_hitting_set(&self, set: &BTreeSet<Tid>) -> bool {
        self.edges.iter().all(|e| !e.is_disjoint(set))
    }

    /// Is `set` independent (contains no edge entirely)?
    pub fn is_independent(&self, set: &BTreeSet<Tid>) -> bool {
        self.edges.iter().all(|e| !e.is_subset(set))
    }

    /// Is `set` a *minimal* hitting set?
    pub fn is_minimal_hitting_set(&self, set: &BTreeSet<Tid>) -> bool {
        if !self.is_hitting_set(set) {
            return false;
        }
        set.iter().all(|v| {
            let mut smaller = set.clone();
            smaller.remove(v);
            !self.is_hitting_set(&smaller)
        })
    }

    /// Is this graph block-shaped, so that its repair families are read off
    /// its classes instead of searched? It is when it has exactly one
    /// (non-empty) edge, or when every edge has two tuples and the covered
    /// tuples form a complete multipartite graph: each tuple is adjacent to
    /// every tuple outside its class and to none inside it. A key's block
    /// of key-equal tuples, or one FD's left-hand-side group, is of this
    /// shape. The test reads the edges alone, in linear time up to one
    /// binary search per edge endpoint, once per graph: the shape is cached.
    pub fn is_block_shaped(&self) -> bool {
        self.shape().is_some()
    }

    /// The cached [`Self::block_shape`], detected on the first call.
    fn shape(&self) -> Option<&BlockShape> {
        self.shape.get_or_init(|| self.block_shape()).as_ref()
    }

    /// The classes behind [`Self::is_block_shaped`], or `None` when the
    /// graph is declined. A tuple's class is its non-neighbourhood among
    /// the covered tuples (isolated nodes are in no hitting set and are
    /// skipped). Classes are grown one at a time from the smallest tuple
    /// not yet placed, by stamping that tuple's neighbours and placing
    /// every unplaced tuple it does not stamp, which costs the unplaced
    /// tuples it visits: those it places plus at most its degree. The
    /// graph is then accepted iff no edge lies inside a class and the edge
    /// count is the number of cross-class pairs, `(n² − Σ|Cᵢ|²) / 2`.
    fn block_shape(&self) -> Option<BlockShape> {
        if let [edge] = self.edges.as_slice() {
            return (!edge.is_empty()).then(|| BlockShape::Edge(edge.iter().copied().collect()));
        }
        if self.edges.is_empty() || self.edges.iter().any(|e| e.len() != 2) {
            return None;
        }
        let nodes: Vec<Tid> = self.nodes.iter().copied().collect();
        let position = |t: &Tid| nodes.binary_search(t).ok();
        let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(self.edges.len());
        let mut degree = vec![0usize; nodes.len()];
        for edge in &self.edges {
            let mut ends = edge.iter();
            let a = ends.next().and_then(position)?;
            let b = ends.next().and_then(position)?;
            *degree.get_mut(a)? += 1;
            *degree.get_mut(b)? += 1;
            pairs.push((a, b));
        }
        // Adjacency in compressed rows: `start[p]..start[p + 1]` indexes the
        // neighbours of position `p`.
        let mut start: Vec<usize> = Vec::with_capacity(nodes.len() + 1);
        start.push(0);
        for d in &degree {
            start.push(start.last().copied().unwrap_or(0) + d);
        }
        let mut fill: Vec<usize> = start.clone();
        let mut adjacent = vec![0usize; 2 * pairs.len()];
        for &(a, b) in &pairs {
            for (from, to) in [(a, b), (b, a)] {
                let slot = fill.get_mut(from)?;
                *adjacent.get_mut(*slot)? = to;
                *slot += 1;
            }
        }
        const UNPLACED: usize = usize::MAX;
        let mut class = vec![UNPLACED; nodes.len()];
        let mut stamp = vec![UNPLACED; nodes.len()];
        let mut unplaced: Vec<usize> = (0..nodes.len())
            .filter(|&p| degree.get(p).is_some_and(|&d| d > 0))
            .collect();
        let mut sizes: Vec<usize> = Vec::new();
        while let Some(&first) = unplaced.first() {
            let c = sizes.len();
            let neighbours = start.get(first).copied()?..start.get(first + 1).copied()?;
            for &u in adjacent.get(neighbours)? {
                *stamp.get_mut(u)? = c;
            }
            let mut size = 0;
            unplaced.retain(|&u| {
                if stamp.get(u) == Some(&c) {
                    return true;
                }
                if let Some(slot) = class.get_mut(u) {
                    *slot = c;
                }
                size += 1;
                false
            });
            sizes.push(size);
        }
        if pairs.iter().any(|&(a, b)| class.get(a) == class.get(b)) {
            return None;
        }
        let n: u128 = sizes.iter().map(|&s| s as u128).sum();
        let within: u128 = sizes.iter().map(|&s| (s as u128) * (s as u128)).sum();
        if 2 * pairs.len() as u128 != n * n - within {
            return None;
        }
        let (tids, class): (Vec<Tid>, Vec<usize>) = nodes
            .into_iter()
            .zip(class)
            .filter(|&(_, c)| c != UNPLACED)
            .unzip();
        Some(BlockShape::Classes { tids, class, sizes })
    }

    /// Enumerate **all minimal hitting sets**, deterministically.
    ///
    /// MMCS-style branching: pick the smallest uncovered edge and branch on
    /// each of its vertices, *excluding* the edge's earlier vertices from
    /// deeper branches — the subtree families are then pairwise disjoint, so
    /// every minimal hitting set is generated exactly once. A local
    /// criticality prune (every chosen vertex must still have an edge it
    /// alone hits) cuts every
    /// subtree that can no longer produce a minimal set, which also makes
    /// every surviving leaf minimal by construction — no global minimality
    /// filter and no cross-branch superset scan are needed. With
    /// `limit = Some(n)` enumeration stops after `n` minimal sets are found.
    pub fn minimal_hitting_sets(&self, limit: Option<usize>) -> Vec<BTreeSet<Tid>> {
        self.minimal_hitting_sets_budgeted(limit, &Budget::unlimited())
            .into_value()
    }

    /// Budget-aware [`Self::minimal_hitting_sets`]. Every set in a
    /// [`Outcome::Truncated`] result is a genuine minimal hitting set (the
    /// search emits only verified-minimal leaves), so truncation yields a
    /// sound *subset* of the full enumeration. A budget with a logical cap
    /// runs the sequential DFS, making the truncated subset byte-identical
    /// at any thread count; a deadline budget keeps the parallel search and
    /// only promises soundness, not which subset.
    ///
    /// Without a `limit`, a block-shaped graph ([`Self::is_block_shaped`])
    /// emits its family off its classes instead, and a cut leaves a prefix
    /// of the sorted family. With a `limit` the search runs: its DFS-order
    /// prefix is what a limited repair listing shows.
    pub fn minimal_hitting_sets_budgeted(
        &self,
        limit: Option<usize>,
        budget: &Budget,
    ) -> Outcome<Vec<BTreeSet<Tid>>> {
        if limit.is_none() {
            if let Some(shape) = self.shape() {
                return shape.family(false, budget);
            }
        }
        self.minimal_search(limit, budget)
    }

    /// The MMCS search behind [`Self::minimal_hitting_sets_budgeted`].
    fn minimal_search(&self, limit: Option<usize>, budget: &Budget) -> Outcome<Vec<BTreeSet<Tid>>> {
        // A limit or a logical budget means "stop early", which only has a
        // deterministic meaning in DFS order — keep those paths (and trivial
        // graphs) sequential.
        if limit.is_some()
            || budget.forces_sequential()
            || cqa_exec::threads() <= 1
            || self.edges.len() < 2
        {
            let mut out: BTreeSet<BTreeSet<Tid>> = BTreeSet::new();
            let mut current = BTreeSet::new();
            let mut banned = BTreeSet::new();
            self.enumerate_rec(&mut current, &mut banned, &mut out, limit, budget);
            let n = out.len() as u64;
            return budget.outcome_with(out.into_iter().collect(), n);
        }
        // Parallel: branch tasks on the work queue carry their exclusion set
        // along. Branch families are disjoint and every emitted leaf is
        // minimal, so the merged set is exactly the full enumeration no
        // matter how branches were scheduled. On budget exhaustion workers
        // stop spawning children and drain what is queued.
        let split = par_split_depth();
        let found = cqa_exec::run_queue(
            vec![(BTreeSet::new(), BTreeSet::new())],
            |(current, banned): (BTreeSet<Tid>, BTreeSet<Tid>),
             spawn,
             results: &mut Vec<BTreeSet<Tid>>| {
                if !budget.tick() {
                    return;
                }
                match self
                    .edges
                    .iter()
                    .filter(|e| e.is_disjoint(&current))
                    .min_by_key(|e| e.len())
                {
                    None => results.push(current),
                    Some(_) if current.len() >= split => {
                        let mut out = BTreeSet::new();
                        let mut cur = current;
                        let mut ban = banned;
                        self.enumerate_rec(&mut cur, &mut ban, &mut out, None, budget);
                        results.extend(out);
                    }
                    Some(edge) => {
                        let mut banned = banned;
                        for &v in edge {
                            if banned.contains(&v) {
                                continue;
                            }
                            let mut child = current.clone();
                            child.insert(v);
                            if self.chosen_all_critical(&child) {
                                spawn.push((child, banned.clone()));
                            }
                            banned.insert(v);
                        }
                    }
                }
            },
        );
        let out: BTreeSet<BTreeSet<Tid>> = found.into_iter().collect();
        let n = out.len() as u64;
        budget.outcome_with(out.into_iter().collect(), n)
    }

    /// Does every vertex of `current` have a *critical* edge — one that no
    /// other chosen vertex hits? Edge intersections only grow along a branch,
    /// so once a vertex loses criticality no extension of `current` can be a
    /// minimal hitting set, and conversely a hitting set whose vertices are
    /// all critical *is* minimal (removing any vertex un-hits its critical
    /// edge).
    fn chosen_all_critical(&self, current: &BTreeSet<Tid>) -> bool {
        current.iter().all(|v| {
            self.edges
                .iter()
                .any(|e| e.contains(v) && e.iter().filter(|u| current.contains(u)).count() == 1)
        })
    }

    fn enumerate_rec(
        &self,
        current: &mut BTreeSet<Tid>,
        banned: &mut BTreeSet<Tid>,
        out: &mut BTreeSet<BTreeSet<Tid>>,
        limit: Option<usize>,
        budget: &Budget,
    ) {
        if !budget.tick() {
            return;
        }
        if limit.is_some_and(|l| out.len() >= l) {
            return;
        }
        match self
            .edges
            .iter()
            .filter(|e| e.is_disjoint(current))
            .min_by_key(|e| e.len())
        {
            None => {
                // Every edge hit, every chosen vertex critical: minimal.
                // The leaf is valid even if it fills the item cap; the cap
                // latches and the unwinding recursion stops exploring.
                out.insert(current.clone());
                let _ = budget.charge_item();
            }
            Some(edge) => {
                let vertices: Vec<Tid> = edge.iter().copied().collect();
                let mut newly_banned: Vec<Tid> = Vec::with_capacity(vertices.len());
                for v in vertices {
                    if banned.contains(&v) {
                        continue;
                    }
                    current.insert(v);
                    if self.chosen_all_critical(current) {
                        self.enumerate_rec(current, banned, out, limit, budget);
                    }
                    current.remove(&v);
                    banned.insert(v);
                    newly_banned.push(v);
                }
                for v in newly_banned {
                    banned.remove(&v);
                }
            }
        }
    }

    /// A (not necessarily minimum) hitting set found greedily: repeatedly
    /// take the vertex covering the most uncovered edges. Used as the upper
    /// bound for branch-and-bound and as a fast single-repair heuristic.
    pub fn greedy_hitting_set(&self) -> BTreeSet<Tid> {
        let mut uncovered: Vec<&BTreeSet<Tid>> = self.edges.iter().collect();
        let mut set = BTreeSet::new();
        while !uncovered.is_empty() {
            let mut counts: std::collections::BTreeMap<Tid, usize> =
                std::collections::BTreeMap::new();
            for e in &uncovered {
                for &v in e.iter() {
                    *counts.entry(v).or_default() += 1;
                }
            }
            // Uncovered edges are non-empty, so counts is non-empty; the
            // defensive break (rather than unwrap) keeps this total.
            let Some((&best, _)) = counts
                .iter()
                .max_by_key(|(v, c)| (**c, std::cmp::Reverse(**v)))
            else {
                break;
            };
            set.insert(best);
            uncovered.retain(|e| !e.contains(&best));
        }
        // Make it minimal: drop redundant vertices (greedy can overshoot).
        let chosen: Vec<Tid> = set.iter().copied().collect();
        for v in chosen {
            let mut smaller = set.clone();
            smaller.remove(&v);
            if self.is_hitting_set(&smaller) {
                set = smaller;
            }
        }
        set
    }

    /// Lower bound on the hitting-set size: a greedy matching of pairwise
    /// disjoint edges (each needs its own vertex).
    fn disjoint_edge_bound(&self, current: &BTreeSet<Tid>) -> usize {
        let mut used: BTreeSet<Tid> = BTreeSet::new();
        let mut bound = 0;
        for e in &self.edges {
            if e.is_disjoint(current) && e.iter().all(|v| !used.contains(v)) {
                used.extend(e.iter().copied());
                bound += 1;
            }
        }
        bound
    }

    /// The size of a minimum hitting set (0 if there are no edges).
    pub fn minimum_hitting_set_size(&self) -> usize {
        self.minimum_hitting_set_size_budgeted(&Budget::unlimited())
            .into_value()
    }

    /// Budget-aware [`Self::minimum_hitting_set_size`]. On truncation the
    /// carried value is only an **upper bound** (the best incumbent the
    /// branch-and-bound proved before stopping, starting from the greedy
    /// hitting set) — callers that need the exact minimum must treat a
    /// truncated outcome as "unknown". A block-shaped graph
    /// ([`Self::is_block_shaped`]) needs no search: its size proof is one
    /// tick.
    pub fn minimum_hitting_set_size_budgeted(&self, budget: &Budget) -> Outcome<usize> {
        self.minimum_size_in(self.shape(), budget)
    }

    /// The size proof behind [`Self::minimum_hitting_set_size_budgeted`],
    /// for a graph of block shape `shape` (`None` searches).
    fn minimum_size_in(&self, shape: Option<&BlockShape>, budget: &Budget) -> Outcome<usize> {
        if self.edges.is_empty() {
            return budget.outcome_with(0, 0);
        }
        if let Some(shape) = shape {
            let _ = budget.tick();
            return budget.outcome(shape.minimum_size());
        }
        let greedy = self.greedy_hitting_set().len();
        if budget.forces_sequential() || cqa_exec::threads() <= 1 {
            let mut best = greedy;
            let mut current = BTreeSet::new();
            self.min_size_rec(&mut current, &mut best, budget);
            return budget.outcome(best);
        }
        // Parallel branch-and-bound. The incumbent best is shared through an
        // atomic: workers read it when a branch task starts (a stale — i.e.
        // larger — value only costs extra work, never wrong pruning) and
        // publish improvements with `fetch_min`. The final value is the true
        // minimum, which no schedule can change.
        let best = AtomicUsize::new(greedy);
        let split = par_split_depth();
        cqa_exec::run_queue(
            vec![BTreeSet::new()],
            |current: BTreeSet<Tid>, spawn, _results: &mut Vec<()>| {
                if !budget.tick() {
                    return;
                }
                let mut local_best = best.load(Ordering::Relaxed);
                if current.len() + self.disjoint_edge_bound(&current) >= local_best {
                    return;
                }
                match self
                    .edges
                    .iter()
                    .filter(|e| e.is_disjoint(&current))
                    .min_by_key(|e| e.len())
                {
                    None => {
                        best.fetch_min(current.len(), Ordering::Relaxed);
                    }
                    Some(_) if current.len() >= split => {
                        let mut cur = current;
                        self.min_size_rec(&mut cur, &mut local_best, budget);
                        best.fetch_min(local_best, Ordering::Relaxed);
                    }
                    Some(edge) => {
                        for &v in edge {
                            let mut child = current.clone();
                            child.insert(v);
                            spawn.push(child);
                        }
                    }
                }
            },
        );
        budget.outcome(best.load(Ordering::Relaxed))
    }

    fn min_size_rec(&self, current: &mut BTreeSet<Tid>, best: &mut usize, budget: &Budget) {
        if !budget.tick() {
            return;
        }
        if current.len() + self.disjoint_edge_bound(current) >= *best {
            return;
        }
        match self
            .edges
            .iter()
            .filter(|e| e.is_disjoint(current))
            .min_by_key(|e| e.len())
        {
            None => {
                *best = current.len();
            }
            Some(edge) => {
                let vertices: Vec<Tid> = edge.iter().copied().collect();
                for v in vertices {
                    current.insert(v);
                    self.min_size_rec(current, best, budget);
                    current.remove(&v);
                }
            }
        }
    }

    /// One minimum hitting set (a witness for
    /// [`Self::minimum_hitting_set_size`]).
    ///
    /// Every hitting set must hit the first smallest edge, so the search
    /// branches on that edge's vertices; each branch yields its DFS-first
    /// completion of minimum size and the smallest candidate (in set order)
    /// wins. Branches are independent, so they run on the pool — and
    /// because the winner is the *minimum* over all branches rather than
    /// "whichever branch finished first", the witness is the same at every
    /// thread count.
    pub fn minimum_hitting_set(&self) -> BTreeSet<Tid> {
        self.minimum_hitting_set_budgeted(&Budget::unlimited())
            .into_value()
    }

    /// Budget-aware [`Self::minimum_hitting_set`]. On truncation the witness
    /// degrades gracefully: it is always a *valid* (minimal) hitting set —
    /// the greedy one if the size search could not finish — just not
    /// necessarily a minimum one.
    pub fn minimum_hitting_set_budgeted(&self, budget: &Budget) -> Outcome<BTreeSet<Tid>> {
        if self.edges.is_empty() {
            return budget.outcome_with(BTreeSet::new(), 0);
        }
        let size = self.minimum_hitting_set_size_budgeted(budget);
        if budget.exhausted() {
            return budget.outcome(self.greedy_hitting_set());
        }
        let k = size.into_value();
        let Some(edge) = self.edges.iter().min_by_key(|e| e.len()) else {
            return budget.outcome(BTreeSet::new());
        };
        let vertices: Vec<Tid> = edge.iter().copied().collect();
        let branch = |&v: &Tid| {
            let mut current: BTreeSet<Tid> = [v].into();
            let mut out: BTreeSet<BTreeSet<Tid>> = BTreeSet::new();
            self.min_enum_first(&mut current, k, &mut out, budget);
            out.into_iter().next()
        };
        let candidates = if budget.forces_sequential() {
            vertices.iter().filter_map(branch).collect::<Vec<_>>()
        } else {
            cqa_exec::par_filter_map(&vertices, branch)
        };
        // A branch search cut off by the budget may find nothing; the
        // greedy set keeps the witness valid (though possibly oversized).
        budget.outcome(
            candidates
                .into_iter()
                .min()
                .unwrap_or_else(|| self.greedy_hitting_set()),
        )
    }

    fn min_enum_first(
        &self,
        current: &mut BTreeSet<Tid>,
        k: usize,
        out: &mut BTreeSet<BTreeSet<Tid>>,
        budget: &Budget,
    ) {
        if !budget.tick() {
            return;
        }
        if !out.is_empty() || current.len() > k {
            return;
        }
        match self
            .edges
            .iter()
            .filter(|e| e.is_disjoint(current))
            .min_by_key(|e| e.len())
        {
            None => {
                out.insert(current.clone());
            }
            Some(edge) => {
                if current.len() == k {
                    return;
                }
                let vertices: Vec<Tid> = edge.iter().copied().collect();
                for v in vertices {
                    current.insert(v);
                    self.min_enum_first(current, k, out, budget);
                    current.remove(&v);
                    if !out.is_empty() {
                        return;
                    }
                }
            }
        }
    }

    /// All **minimum** hitting sets (the C-repair deltas).
    pub fn minimum_hitting_sets(&self) -> Vec<BTreeSet<Tid>> {
        self.minimum_hitting_sets_budgeted(&Budget::unlimited())
            .into_value()
    }

    /// Budget-aware [`Self::minimum_hitting_sets`]. If the budget survives
    /// the size computation, every set in a truncated result has exactly
    /// the proven minimum size and hits every edge — a sound *subset* of
    /// the C-repair deltas. If the budget dies during the size computation
    /// itself, the minimum is unknown and the result is an empty truncated
    /// list (never a list of wrong-sized sets).
    pub fn minimum_hitting_sets_budgeted(&self, budget: &Budget) -> Outcome<Vec<BTreeSet<Tid>>> {
        let size = self.minimum_hitting_set_size_budgeted(budget);
        if budget.exhausted() {
            return budget.outcome_with(Vec::new(), 0);
        }
        self.minimum_hitting_sets_at(size.into_value(), budget)
    }

    /// Enumerate all hitting sets of the **known** minimum size `k`,
    /// skipping the branch-and-bound size proof entirely. This is the
    /// factorized path's enumeration step: a component's optimum is proven
    /// once and then passed here, instead of every call re-deriving its
    /// cost bound from scratch. `k` must be the exact minimum
    /// ([`Self::minimum_hitting_set_size`]); with a too-large `k` the
    /// defensive sub-`k` check still only emits genuine hitting sets, but
    /// the family is no longer the C-repair delta family.
    ///
    /// A block-shaped graph ([`Self::is_block_shaped`]) whose minimum is
    /// `k` emits the complements of its largest classes (or its edge's
    /// singletons) instead; any other `k` keeps the search.
    pub fn minimum_hitting_sets_at(
        &self,
        k: usize,
        budget: &Budget,
    ) -> Outcome<Vec<BTreeSet<Tid>>> {
        self.minimum_sets_at_in(self.shape(), k, budget)
    }

    /// The enumeration behind [`Self::minimum_hitting_sets_at`], for a
    /// graph of block shape `shape` (`None` searches).
    fn minimum_sets_at_in(
        &self,
        shape: Option<&BlockShape>,
        k: usize,
        budget: &Budget,
    ) -> Outcome<Vec<BTreeSet<Tid>>> {
        if let Some(shape) = shape.filter(|s| s.minimum_size() == k) {
            return shape.family(true, budget);
        }
        if budget.forces_sequential() || cqa_exec::threads() <= 1 || self.edges.len() < 2 {
            let mut out: BTreeSet<BTreeSet<Tid>> = BTreeSet::new();
            let mut current = BTreeSet::new();
            self.min_enum_rec(&mut current, k, &mut out, budget);
            let n = out.len() as u64;
            return budget.outcome_with(out.into_iter().collect(), n);
        }
        // Parallel enumeration at fixed budget `k`; each branch explores a
        // disjoint prefix, results merge into a set, so the output equals
        // the sequential enumeration exactly.
        let split = par_split_depth();
        let found = cqa_exec::run_queue(
            vec![BTreeSet::new()],
            |current: BTreeSet<Tid>, spawn, results: &mut Vec<BTreeSet<Tid>>| {
                if !budget.tick() {
                    return;
                }
                if current.len() > k {
                    return;
                }
                match self
                    .edges
                    .iter()
                    .filter(|e| e.is_disjoint(&current))
                    .min_by_key(|e| e.len())
                {
                    None => {
                        if current.len() == k
                            || (self.is_hitting_set(&current) && current.len() < k)
                        {
                            results.push(current);
                        }
                    }
                    Some(_) if current.len() >= split => {
                        let mut out = BTreeSet::new();
                        let mut cur = current;
                        self.min_enum_rec(&mut cur, k, &mut out, budget);
                        results.extend(out);
                    }
                    Some(edge) => {
                        if current.len() == k {
                            return; // size budget spent but edges uncovered
                        }
                        for &v in edge {
                            let mut child = current.clone();
                            child.insert(v);
                            spawn.push(child);
                        }
                    }
                }
            },
        );
        let out: BTreeSet<BTreeSet<Tid>> = found.into_iter().collect();
        let n = out.len() as u64;
        budget.outcome_with(out.into_iter().collect(), n)
    }

    fn min_enum_rec(
        &self,
        current: &mut BTreeSet<Tid>,
        k: usize,
        out: &mut BTreeSet<BTreeSet<Tid>>,
        budget: &Budget,
    ) {
        if !budget.tick() {
            return;
        }
        if current.len() > k {
            return;
        }
        match self
            .edges
            .iter()
            .filter(|e| e.is_disjoint(current))
            .min_by_key(|e| e.len())
        {
            None => {
                if current.len() == k {
                    out.insert(current.clone());
                    let _ = budget.charge_item();
                } else if self.is_hitting_set(current) && current.len() < k {
                    // can only happen when k was not tight; defensive
                    out.insert(current.clone());
                    let _ = budget.charge_item();
                }
            }
            Some(edge) => {
                if current.len() == k {
                    return; // size budget spent but edges uncovered
                }
                let vertices: Vec<Tid> = edge.iter().copied().collect();
                for v in vertices {
                    current.insert(v);
                    self.min_enum_rec(current, k, out, budget);
                    current.remove(&v);
                }
            }
        }
    }

    /// Enumerate all **maximal independent sets** — the S-repairs themselves
    /// (as sets of surviving tids).
    pub fn maximal_independent_sets(&self, limit: Option<usize>) -> Vec<BTreeSet<Tid>> {
        self.minimal_hitting_sets(limit)
            .into_iter()
            .map(|h| self.nodes.difference(&h).copied().collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn tids(ids: &[u64]) -> BTreeSet<Tid> {
        ids.iter().map(|&i| Tid(i)).collect()
    }

    /// The hyper-graph of Example 4.1 / Figure 1:
    /// nodes A(a)=1, B(a)=2, C(a)=3, D(a)=4, E(a)=5;
    /// edges {B,E}, {B,C,D}, {A,C}.
    fn figure_1() -> ConflictHypergraph {
        ConflictHypergraph::new(
            tids(&[1, 2, 3, 4, 5]),
            vec![tids(&[2, 5]), tids(&[2, 3, 4]), tids(&[1, 3])],
        )
    }

    #[test]
    fn figure_1_s_repairs() {
        let g = figure_1();
        let repairs = g.maximal_independent_sets(None);
        assert_eq!(repairs.len(), 4);
        // D1 = {B, C}, D2 = {C, D, E}, D3 = {A, B, D}, D4 = {E, D, A}.
        assert!(repairs.contains(&tids(&[2, 3])));
        assert!(repairs.contains(&tids(&[3, 4, 5])));
        assert!(repairs.contains(&tids(&[1, 2, 4])));
        assert!(repairs.contains(&tids(&[1, 4, 5])));
    }

    #[test]
    fn figure_1_c_repairs() {
        let g = figure_1();
        assert_eq!(g.minimum_hitting_set_size(), 2);
        let mins = g.minimum_hitting_sets();
        // C-repairs are D2, D3, D4 (deleting 2 tuples); D1 deletes 3.
        assert_eq!(mins.len(), 3);
        let crepairs: Vec<BTreeSet<Tid>> = mins
            .iter()
            .map(|h| g.nodes.difference(h).copied().collect())
            .collect();
        assert!(crepairs.contains(&tids(&[3, 4, 5])));
        assert!(crepairs.contains(&tids(&[1, 2, 4])));
        assert!(crepairs.contains(&tids(&[1, 4, 5])));
        assert!(!crepairs.contains(&tids(&[2, 3])));
    }

    #[test]
    fn superset_edges_are_dropped() {
        let g = ConflictHypergraph::new(
            tids(&[1, 2, 3]),
            vec![tids(&[1, 2]), tids(&[1, 2, 3]), tids(&[1, 2])],
        );
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn isolated_nodes_form_consistent_core() {
        let g = figure_1();
        assert!(g.isolated_nodes().is_empty());
        let g2 = ConflictHypergraph::new(tids(&[1, 2, 3]), vec![tids(&[1, 2])]);
        assert_eq!(g2.isolated_nodes(), tids(&[3]));
    }

    #[test]
    fn no_edges_means_one_empty_hitting_set() {
        let g = ConflictHypergraph::new(tids(&[1, 2]), vec![]);
        let hs = g.minimal_hitting_sets(None);
        assert_eq!(hs, vec![BTreeSet::new()]);
        assert_eq!(g.minimum_hitting_set_size(), 0);
        assert_eq!(g.maximal_independent_sets(None), vec![tids(&[1, 2])]);
    }

    #[test]
    fn greedy_is_hitting_and_minimal() {
        let g = figure_1();
        let h = g.greedy_hitting_set();
        assert!(g.is_hitting_set(&h));
        assert!(g.is_minimal_hitting_set(&h));
    }

    #[test]
    fn limit_caps_enumeration() {
        let g = figure_1();
        let some = g.minimal_hitting_sets(Some(2));
        assert_eq!(some.len(), 2);
    }

    #[test]
    fn independent_set_check() {
        let g = figure_1();
        assert!(g.is_independent(&tids(&[2, 3])));
        assert!(!g.is_independent(&tids(&[2, 5])));
    }

    #[test]
    fn exponential_family_counts() {
        // k disjoint 2-edges → 2^k minimal hitting sets, min size k.
        let k = 8;
        let mut edges = Vec::new();
        for i in 0..k {
            edges.push(tids(&[2 * i, 2 * i + 1]));
        }
        let nodes: BTreeSet<Tid> = (0..2 * k).map(Tid).collect();
        let g = ConflictHypergraph::new(nodes, edges);
        assert_eq!(g.minimal_hitting_sets(None).len(), 1 << k);
        assert_eq!(g.minimum_hitting_set_size(), k as usize);
        assert_eq!(g.minimum_hitting_sets().len(), 1 << k);
    }

    #[test]
    fn budgeted_enumeration_exact_with_ample_budget() {
        let g = figure_1();
        let exact = g.minimal_hitting_sets(None);
        let out = g.minimal_hitting_sets_budgeted(None, &Budget::steps(100_000));
        assert!(out.is_exact());
        assert_eq!(out.into_value(), exact);
        let mins = g.minimum_hitting_sets_budgeted(&Budget::steps(100_000));
        assert!(mins.is_exact());
        assert_eq!(mins.into_value(), g.minimum_hitting_sets());
    }

    #[test]
    fn budgeted_enumeration_truncates_to_a_sound_subset() {
        // k disjoint 2-edges → 2^k minimal hitting sets; a tiny step budget
        // must return a strict subset of genuinely minimal sets.
        let k = 10;
        let edges: Vec<BTreeSet<Tid>> = (0..k).map(|i| tids(&[2 * i, 2 * i + 1])).collect();
        let nodes: BTreeSet<Tid> = (0..2 * k).map(Tid).collect();
        let g = ConflictHypergraph::new(nodes, edges);
        let budget = Budget::steps(200);
        let out = g.minimal_hitting_sets_budgeted(None, &budget);
        assert!(out.is_truncated());
        let found = out.into_value();
        assert!(found.len() < 1 << k);
        for h in &found {
            assert!(g.is_minimal_hitting_set(h), "truncated set not minimal");
        }
    }

    #[test]
    fn budgeted_truncation_is_deterministic_across_thread_counts() {
        let k = 10;
        let edges: Vec<BTreeSet<Tid>> = (0..k).map(|i| tids(&[2 * i, 2 * i + 1])).collect();
        let nodes: BTreeSet<Tid> = (0..2 * k).map(Tid).collect();
        let g = ConflictHypergraph::new(nodes, edges);
        let run = |t: usize| {
            cqa_exec::with_threads(t, || {
                g.minimal_hitting_sets_budgeted(None, &Budget::steps(300))
            })
        };
        let base = run(1);
        for t in [2, 8] {
            assert_eq!(run(t), base, "threads={t}");
        }
    }

    #[test]
    fn item_cap_limits_emitted_sets() {
        let g = figure_1();
        let budget = Budget::items(2);
        let out = g.minimal_hitting_sets_budgeted(None, &budget);
        assert!(out.is_truncated());
        assert_eq!(out.value().len(), 2);
        for h in out.value() {
            assert!(g.is_minimal_hitting_set(h));
        }
    }

    #[test]
    fn truncated_minimum_witness_is_still_a_hitting_set() {
        let g = figure_1();
        let budget = Budget::steps(1);
        let out = g.minimum_hitting_set_budgeted(&budget);
        assert!(out.is_truncated());
        assert!(g.is_hitting_set(out.value()));
    }

    #[test]
    fn truncated_size_search_yields_empty_minimum_family() {
        let g = figure_1();
        let budget = Budget::steps(1);
        let out = g.minimum_hitting_sets_budgeted(&budget);
        assert!(out.is_truncated());
        assert!(out.value().is_empty());
    }

    #[test]
    fn enumeration_at_known_size_matches_full_search() {
        let g = figure_1();
        let k = g.minimum_hitting_set_size();
        let direct = g
            .minimum_hitting_sets_at(k, &Budget::unlimited())
            .into_value();
        assert_eq!(direct, g.minimum_hitting_sets());
    }

    #[test]
    fn components_are_cached_and_shared_by_clones() {
        let g = figure_1();
        let first = g.components();
        assert!(std::sync::Arc::ptr_eq(&first, &g.components()));
        let clone = g.clone();
        assert!(std::sync::Arc::ptr_eq(&first, &clone.components()));
        // Derived state stays out of equality and debug formatting.
        let fresh = figure_1();
        assert_eq!(g, fresh);
        assert_eq!(format!("{g:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn block_shape_is_detected_once_and_shared_by_clones() {
        let pair = ConflictHypergraph::new(tids(&[1, 2, 3]), [tids(&[1, 2])]);
        assert!(pair.shape.get().is_none());
        assert!(pair.is_block_shaped());
        assert!(matches!(pair.shape.get(), Some(Some(BlockShape::Edge(_)))));
        assert!(pair.clone().shape.get().is_some());
        // A declined graph caches its `None`.
        let g = figure_1();
        assert!(!g.is_block_shaped());
        assert!(matches!(g.shape.get(), Some(None)));
    }

    #[test]
    fn apply_violation_delta_maintains_components_identically() {
        // Drive a mixed add/remove sequence over raw violation sets
        // (including duplicates and supersets, which canonicalization must
        // absorb) and check the maintained graph + factorization stay
        // byte-identical to recompute-from-scratch at every step. Each
        // delta is `dirty` = the changed set's tids, `added` = the raw sets
        // touching them.
        let nodes: BTreeSet<Tid> = (1..=20).map(Tid).collect();
        let mut raw: BTreeSet<BTreeSet<Tid>> = [
            tids(&[1, 2]),
            tids(&[3, 4, 5]),
            tids(&[5, 6]),
            tids(&[10, 11]),
            tids(&[1, 2, 9]), // superset: filtered out by canonicalization
        ]
        .into();
        let mut graph = ConflictHypergraph::new(nodes.clone(), raw.iter().cloned());
        let _ = graph.components(); // prime the cache so deltas maintain it
        let steps: Vec<(bool, BTreeSet<Tid>)> = vec![
            (true, tids(&[6, 10])),      // merge two components
            (false, tids(&[6, 10])),     // split them again
            (true, tids(&[2, 3])),       // merge
            (true, tids(&[18, 19, 20])), // brand-new component
            (false, tids(&[10, 11])),    // remove a whole component
            (true, tids(&[9])),          // singleton edge dominates {1,2,9}
            (false, tids(&[1, 2])),      // shrink
            (false, tids(&[3, 4, 5])),   // shrink more
        ];
        for (add, edge) in steps {
            let dirty = edge.clone();
            if add {
                raw.insert(edge);
            } else {
                raw.remove(&edge);
            }
            let added: BTreeSet<BTreeSet<Tid>> = raw
                .iter()
                .filter(|e| !e.is_disjoint(&dirty))
                .cloned()
                .collect();
            let maintained = graph.apply_violation_delta(nodes.clone(), &dirty, &added);
            let scratch = ConflictHypergraph::new(nodes.clone(), raw.iter().cloned());
            assert_eq!(maintained, scratch);
            // The maintained cache was pre-filled by the delta…
            assert!(maintained.components.get().is_some());
            // …and is structurally identical to a from-scratch compute.
            assert_eq!(*maintained.components(), *scratch.components());
            graph = maintained;
        }
        // Without a primed cache, apply_violation_delta stays lazy.
        let lazy = ConflictHypergraph::new(nodes.clone(), raw.iter().cloned());
        let next = lazy.apply_violation_delta(nodes, &BTreeSet::new(), &BTreeSet::new());
        assert!(next.components.get().is_none());
    }

    /// Fisher–Yates over the vendored generator, which has no `shuffle`.
    fn shuffle<T>(rng: &mut SmallRng, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, rng.gen_range(0..i + 1));
        }
    }

    /// A random complete multipartite graph: 2 to `classes` classes of 1
    /// to `size` tuples, labelled from `labels`. Returns the classes and
    /// the edges (every cross-class pair).
    fn multipartite(
        rng: &mut SmallRng,
        labels: &mut impl Iterator<Item = Tid>,
        classes: usize,
        size: usize,
    ) -> (Vec<Vec<Tid>>, Vec<BTreeSet<Tid>>) {
        let classes: Vec<Vec<Tid>> = (0..rng.gen_range(2..classes + 1))
            .map(|_| labels.take(rng.gen_range(1..size + 1)).collect())
            .collect();
        let mut edges = Vec::new();
        for (i, class) in classes.iter().enumerate() {
            for other in &classes[i + 1..] {
                for &a in class {
                    for &b in other {
                        edges.push(tids(&[a.0, b.0]));
                    }
                }
            }
        }
        (classes, edges)
    }

    /// `ConflictHypergraph::new` over `edges` in random order.
    fn graph(
        rng: &mut SmallRng,
        nodes: BTreeSet<Tid>,
        mut edges: Vec<BTreeSet<Tid>>,
    ) -> ConflictHypergraph {
        shuffle(rng, &mut edges);
        ConflictHypergraph::new(nodes, edges)
    }

    /// Most covered tuples for which the minimum side is compared with the
    /// search. Branch-and-bound is exponential on complete multipartite
    /// graphs: in a release build five classes of five take 3 s to size
    /// and 23 s to enumerate, against 0.3 ms for three classes of three.
    const SEARCHED_MINIMUM: usize = 12;

    /// The three family entries equal the search they bypass, byte for
    /// byte, at one and at four threads: the minimal family always, the
    /// minimum size and family up to [`SEARCHED_MINIMUM`] covered tuples.
    fn entries_match_the_search(g: &ConflictHypergraph) -> Result<(), TestCaseError> {
        let covered = g.nodes.len() - g.isolated_nodes().len();
        for threads in [1, 4] {
            cqa_exec::with_threads(threads, || {
                let fresh = Budget::unlimited;
                prop_assert_eq!(
                    g.minimal_hitting_sets_budgeted(None, &fresh()),
                    g.minimal_search(None, &fresh())
                );
                if covered > SEARCHED_MINIMUM {
                    return Ok(());
                }
                let k = g.minimum_hitting_set_size_budgeted(&fresh());
                prop_assert_eq!(&k, &g.minimum_size_in(None, &fresh()));
                let k = k.into_value();
                prop_assert_eq!(
                    g.minimum_hitting_sets_at(k, &fresh()),
                    g.minimum_sets_at_in(None, k, &fresh())
                );
                prop_assert_eq!(
                    g.minimum_hitting_sets_budgeted(&fresh()),
                    g.minimum_sets_at_in(None, k, &fresh())
                );
                Ok(())
            })?;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Complete multipartite graphs take the block path, whose families
        /// are the complements of the classes (of the largest ones for the
        /// minimum), equal the search's, and truncate to a prefix. Perturbed
        /// graphs are declined unless they are down to one edge.
        #[test]
        fn block_families_match_the_search(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut pool: Vec<Tid> = (0..400).map(Tid).collect();
            shuffle(&mut rng, &mut pool);
            let mut labels = pool.into_iter();
            let (classes, edges) = multipartite(&mut rng, &mut labels, 6, 5);
            let isolated: Vec<Tid> = labels.by_ref().take(rng.gen_range(0..4)).collect();
            let mut nodes: BTreeSet<Tid> = classes.iter().flatten().copied().collect();
            let covered = nodes.len();
            nodes.extend(&isolated);
            let g = graph(&mut rng, nodes.clone(), edges.clone());
            prop_assert!(g.is_block_shaped());
            entries_match_the_search(&g)?;

            let complement = |class: &Vec<Tid>| -> BTreeSet<Tid> {
                classes.iter().flatten().filter(|t| !class.contains(t)).copied().collect()
            };
            let mut family: Vec<BTreeSet<Tid>> = classes.iter().map(complement).collect();
            family.sort();
            let largest = classes.iter().map(Vec::len).max().unwrap_or(0);
            let mut minimum: Vec<BTreeSet<Tid>> = classes
                .iter()
                .filter(|c| c.len() == largest)
                .map(complement)
                .collect();
            minimum.sort();
            prop_assert_eq!(g.minimal_hitting_sets(None), family.clone());
            prop_assert_eq!(g.minimum_hitting_set_size(), covered - largest);
            prop_assert_eq!(g.minimum_hitting_sets(), minimum.clone());

            // A step budget keeps a prefix: one step per set, plus one for
            // the size proof of the minimum family.
            for n in 1..=family.len() + 1 {
                let out = g.minimal_hitting_sets_budgeted(None, &Budget::steps(n as u64));
                prop_assert_eq!(out.is_truncated(), n < family.len());
                prop_assert_eq!(out.value().as_slice(), &family[..n.min(family.len())]);
                let out = g.minimum_hitting_sets_budgeted(&Budget::steps(n as u64));
                prop_assert_eq!(out.is_truncated(), n <= minimum.len());
                prop_assert_eq!(out.value().as_slice(), &minimum[..(n - 1).min(minimum.len())]);
            }

            // Perturbations, each fed through `new` in random order.
            let mut perturbed: Vec<ConflictHypergraph> = Vec::new();
            // One cross-class edge dropped, at a tuple of a class of two or
            // more that keeps another neighbour, so it stays covered.
            let wide = classes
                .iter()
                .position(|c| c.len() >= 2 && covered - c.len() >= 2);
            if let Some(i) = wide {
                let a = classes[i][0];
                let b = classes[(i + 1) % classes.len()][0];
                let dropped = tids(&[a.0, b.0]);
                let kept: Vec<BTreeSet<Tid>> =
                    edges.iter().filter(|e| **e != dropped).cloned().collect();
                perturbed.push(graph(&mut rng, nodes.clone(), kept));
            }
            // A three-tuple edge of a class member and two fresh tuples:
            // no two-tuple edge lies inside it, so it is kept.
            let fresh: Vec<Tid> = labels.by_ref().take(2).collect();
            let member = classes[rng.gen_range(0..classes.len())][0];
            let mut with_triple = edges.clone();
            with_triple.push(tids(&[member.0, fresh[0].0, fresh[1].0]));
            let mut wider = nodes.clone();
            wider.extend(&fresh);
            perturbed.push(graph(&mut rng, wider, with_triple));
            // A singleton edge on a class member (it dominates that
            // member's two-tuple edges).
            let mut with_singleton = edges.clone();
            with_singleton.push(tids(&[member.0]));
            perturbed.push(graph(&mut rng, nodes.clone(), with_singleton));
            // Two multipartite graphs joined by one edge (the second one
            // small, so that the joined family stays cheap to search).
            let (other, other_edges) = multipartite(&mut rng, &mut labels, 3, 2);
            let mut joined = edges.clone();
            joined.extend(other_edges);
            joined.push(tids(&[member.0, other[0][0].0]));
            let mut both = nodes.clone();
            both.extend(other.iter().flatten());
            perturbed.push(graph(&mut rng, both, joined));
            for p in &perturbed {
                prop_assert_eq!(p.is_block_shaped(), p.edge_count() == 1);
                entries_match_the_search(p)?;
            }
        }

        /// A graph of one edge of 1–4 tuples yields the edge's singletons.
        #[test]
        fn single_edge_yields_its_singletons(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let edge: BTreeSet<Tid> = (0..rng.gen_range(1..5))
                .map(|_| Tid(rng.gen_range(0..50)))
                .collect();
            let mut nodes = edge.clone();
            nodes.insert(Tid(50));
            let g = ConflictHypergraph::new(nodes, vec![edge.clone()]);
            prop_assert!(g.is_block_shaped());
            let singletons: Vec<BTreeSet<Tid>> = edge.iter().map(|&t| BTreeSet::from([t])).collect();
            prop_assert_eq!(g.minimal_hitting_sets(None), singletons.clone());
            prop_assert_eq!(g.minimum_hitting_set_size(), 1);
            prop_assert_eq!(g.minimum_hitting_sets(), singletons);
            entries_match_the_search(&g)?;
        }
    }

    #[test]
    fn minimality_filter_rejects_redundant_sets() {
        // Edge {1,2} and {2,3}: {1,2,3} hits both but is not minimal.
        let g = ConflictHypergraph::new(tids(&[1, 2, 3]), vec![tids(&[1, 2]), tids(&[2, 3])]);
        let hs = g.minimal_hitting_sets(None);
        assert!(hs.contains(&tids(&[2])));
        assert!(hs.contains(&tids(&[1, 3])));
        assert_eq!(hs.len(), 2);
        assert!(!g.is_minimal_hitting_set(&tids(&[1, 2, 3])));
    }
}
