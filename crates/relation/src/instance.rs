//! Database instances: dictionary-encoded columnar relations.
//!
//! Instances are **sets** of tuples (the paper's repairs are defined in set
//! terms), but every stored tuple additionally carries a global [`Tid`], so
//! that repairs, conflict hyper-graphs and causality all talk about "the third
//! `Supply` tuple" unambiguously.
//!
//! Physically a relation is columnar: one `Vec<Vid>` per attribute over a
//! shared append-only [`ValueDict`] (see [`crate::dict`]). Every cell is 4
//! bytes; each distinct value is stored once, process-wide. The value-level
//! API (`iter`, `get`, `tuples`) survives unchanged on top of a lazy
//! per-relation row cache that materializes only when a consumer actually
//! asks for `&Tuple`s — id-space consumers (joins, indexes, CQA folds)
//! never pay for it.

use crate::changes::{Change, ChangeLog};
use crate::column::{ColumnStore, ContentMap, VidRow};
use crate::dict::{ValueDict, Vid};
use crate::error::RelationError;
use crate::fxhash::FxHashMap;
use crate::index::{HashIndex, RowEdit, SortedIndex};
use crate::schema::{AttrType, Attribute, DatabaseSchema, RelationSchema};
use crate::stats::ColumnStats;
use crate::tuple::{Tid, Tuple};
use crate::value::Value;
use crate::Result;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// Process-wide mint for relation content stamps. Monotone and never
/// reused, so two relations (or two states of one relation) can share a
/// stamp only by copying it — which [`Relation`] does exactly when the
/// content is byte-identical over the same append-only dictionary.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

fn mint_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// One relation instance: a schema plus a tid-keyed set of rows, stored
/// columnar over the database's shared dictionary.
#[derive(Debug)]
pub struct Relation {
    schema: Arc<RelationSchema>,
    dict: Arc<ValueDict>,
    /// Columnar rows, tid-sorted.
    store: ColumnStore,
    /// Set-semantics guard: content hash → tid of the present copy,
    /// verified against the columns on probe (no second copy of the rows).
    by_content: ContentMap,
    /// Lazy value-level row cache (row-aligned with `store`), built only
    /// when a caller needs `&Tuple`s; dropped on mutation and on clone.
    rows: OnceLock<Box<[Tuple]>>,
    /// Globally-unique content stamp: re-minted on every mutation, copied
    /// on clone. Equal stamps imply byte-identical content over the same
    /// dictionary lineage — the soundness anchor of the plan cache (unlike
    /// [`Database::epoch`], which restarts at 0 for derived instances and
    /// can therefore alias across instances).
    stamp: u64,
}

impl Clone for Relation {
    fn clone(&self) -> Relation {
        Relation {
            schema: Arc::clone(&self.schema),
            dict: Arc::clone(&self.dict),
            store: self.store.clone(),
            by_content: self.by_content.clone(),
            // The cache is a materialization convenience, not content;
            // clones (repairs) start columnar-only.
            rows: OnceLock::new(),
            // Identical content: the stamp carries over.
            stamp: self.stamp,
        }
    }
}

impl Relation {
    fn new(schema: Arc<RelationSchema>, dict: Arc<ValueDict>) -> Relation {
        let arity = schema.arity();
        Relation {
            schema,
            dict,
            store: ColumnStore::new(arity),
            by_content: ContentMap::default(),
            rows: OnceLock::new(),
            stamp: mint_stamp(),
        }
    }

    /// The relation's globally-unique content stamp. Two relations report
    /// the same stamp only if their stored rows (tids and vids) are
    /// identical and encoded against the same append-only dictionary.
    pub fn content_stamp(&self) -> u64 {
        self.stamp
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Arc<RelationSchema> {
        &self.schema
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True iff the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The columnar storage (id-space access path).
    pub fn store(&self) -> &ColumnStore {
        &self.store
    }

    /// The dictionary the columns are encoded against.
    pub fn dict(&self) -> &ValueDict {
        &self.dict
    }

    /// The value-level rows, materialized on first use.
    fn rows_cache(&self) -> &[Tuple] {
        self.rows.get_or_init(|| {
            (0..self.store.len())
                .map(|pos| {
                    Tuple::new(
                        self.store
                            .row_key(pos)
                            .iter()
                            .map(|&vid| self.dict.resolve(vid).unwrap_or(Value::NULL)),
                    )
                })
                .collect()
        })
    }

    /// Iterate `(tid, tuple)` in tid order. Materializes the value-level
    /// row cache; id-space consumers use [`Relation::store`] instead.
    pub fn iter(&self) -> impl Iterator<Item = (Tid, &Tuple)> + '_ {
        self.store
            .tids()
            .iter()
            .copied()
            .zip(self.rows_cache().iter())
    }

    /// Iterate tuples only.
    pub fn tuples(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.rows_cache().iter()
    }

    /// Iterate tids only (no row materialization).
    pub fn tids(&self) -> impl Iterator<Item = Tid> + '_ {
        self.store.tids().iter().copied()
    }

    /// Get a tuple by tid (must belong to this relation).
    pub fn get(&self, tid: Tid) -> Option<&Tuple> {
        let pos = self.store.position_of(tid)?;
        self.rows_cache().get(pos)
    }

    /// The row of `tid` in id-space (no materialization).
    pub fn vid_row_of(&self, tid: Tid) -> Option<VidRow<'_>> {
        self.store.row(self.store.position_of(tid)?)
    }

    /// Encode a value-level tuple against the dictionary. `None` if some
    /// value was never interned — in that case no stored row can equal it.
    pub fn encode(&self, tuple: &Tuple) -> Option<Box<[Vid]>> {
        tuple.iter().map(|v| self.dict.lookup(v)).collect()
    }

    /// Does the relation contain a tuple with this exact content?
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.tid_of(tuple).is_some()
    }

    /// Tid of the tuple with this content, if present.
    pub fn tid_of(&self, tuple: &Tuple) -> Option<Tid> {
        self.encode(tuple)
            .and_then(|key| self.by_content.get(&self.store, &key))
    }

    /// Tid of the row with this encoded content, if present.
    pub fn tid_of_vids(&self, key: &[Vid]) -> Option<Tid> {
        self.by_content.get(&self.store, key)
    }

    /// Check that `tuple` fits this relation's schema (arity and attribute
    /// types). Public so repair enumeration can validate insertions *up
    /// front*, before building lazy views over them.
    pub fn validate(&self, tuple: &Tuple) -> Result<()> {
        if tuple.arity() != self.schema.arity() {
            return Err(RelationError::ArityMismatch {
                relation: self.name().to_string(),
                expected: self.schema.arity(),
                actual: tuple.arity(),
            });
        }
        for (i, (attr, value)) in self
            .schema
            .attributes()
            .iter()
            .zip(tuple.iter())
            .enumerate()
        {
            if !attr.ty.admits(value) {
                return Err(type_mismatch(self.name(), i, attr, value));
            }
        }
        Ok(())
    }

    /// [`Relation::validate`] for an encoded row: the arity, then the
    /// declared types by resolving the cells (skipped when every attribute
    /// is [`AttrType::Any`], so the common untyped row allocates nothing).
    fn validate_vids(&self, vids: &[Vid], typed: bool) -> Result<()> {
        if vids.len() != self.schema.arity() {
            return Err(RelationError::ArityMismatch {
                relation: self.name().to_string(),
                expected: self.schema.arity(),
                actual: vids.len(),
            });
        }
        if typed {
            for (i, (attr, &vid)) in self.schema.attributes().iter().zip(vids).enumerate() {
                let value = self.dict.resolve(vid).unwrap_or(Value::NULL);
                if !attr.ty.admits(&value) {
                    return Err(type_mismatch(self.name(), i, attr, &value));
                }
            }
        }
        Ok(())
    }

    /// Mutation funnel: every code path that changes stored rows passes
    /// through here, so dropping the value cache and re-minting the content
    /// stamp stay in lockstep.
    fn invalidate_rows(&mut self) {
        self.rows.take();
        self.stamp = mint_stamp();
    }

    /// Append an already-encoded, already-deduplicated row. The caller
    /// runs [`Relation::invalidate_rows`] once its batch of rows is in.
    fn push_encoded(&mut self, tid: Tid, key: &[Vid]) {
        self.by_content.insert(key, tid);
        self.store.push(tid, key);
    }

    /// Remove the row of `tid`, returning its former position and content.
    fn remove(&mut self, tid: Tid) -> Option<(u32, Box<[Vid]>)> {
        let pos = self.store.position_of(tid)?;
        let key = self.store.remove(tid)?;
        self.by_content.remove(&key, tid);
        self.invalidate_rows();
        Some((pos as u32, key))
    }

    /// Estimated retained heap bytes of this relation's storage (columns,
    /// spine, content map; shared dictionary payloads not included).
    pub fn heap_bytes(&self) -> usize {
        self.store.heap_bytes() + self.by_content.heap_bytes()
    }

    /// Release over-allocated storage capacity after a bulk load; rows,
    /// tids and lookups are unaffected.
    pub fn shrink_to_fit(&mut self) {
        self.store.shrink_to_fit();
        self.by_content.shrink_to_fit();
    }
}

/// The error for `value` rejected by attribute `attr` at `position`.
fn type_mismatch(
    relation: &str,
    position: usize,
    attr: &Attribute,
    value: &Value,
) -> RelationError {
    RelationError::TypeMismatch {
        relation: relation.to_string(),
        position,
        detail: format!(
            "attribute `{}` declared {:?}, got {} value {}",
            attr.name,
            attr.ty,
            value.type_name(),
            value
        ),
    }
}

/// Lazily built, shared indexes over the base columns: multi-column hash
/// indexes keyed by `(relation index, key columns)` and sorted (value-order)
/// indexes keyed by `(relation index, column)`.
///
/// Buckets hold row positions in tid order, so they are deterministic
/// regardless of which thread builds them first — a benign build race under
/// the `cqa-exec` pool cannot perturb results. Every insert, delete and
/// one-cell update patches the touched relation's entries in place
/// ([`IndexCache::apply`]), so each stays equal to a fresh build; a bulk
/// append drops them once instead, and a clone starts empty.
#[derive(Debug, Default)]
struct IndexCache {
    hash: RwLock<HashIndexMap>,
    sorted: RwLock<FxHashMap<(usize, usize), Arc<SortedIndex>>>,
    /// Planner column statistics, keyed by relation index.
    stats: RwLock<FxHashMap<usize, Arc<ColumnStats>>>,
}

/// Cached hash indexes keyed by `(relation index, key columns)`.
type HashIndexMap = FxHashMap<(usize, Box<[usize]>), Arc<HashIndex>>;

impl IndexCache {
    /// Patch every index and the statistics built over relation `rel_idx`
    /// for one write to its store. An entry some caller still holds is
    /// copied first ([`Arc::make_mut`]), so the holder keeps the snapshot
    /// it read.
    fn apply(&mut self, rel_idx: usize, edit: RowEdit<'_>, dict: &ValueDict) {
        let hash = self.hash.get_mut().unwrap_or_else(PoisonError::into_inner);
        for ((idx, _), index) in hash.iter_mut() {
            if *idx == rel_idx {
                Arc::make_mut(index).apply(&edit);
            }
        }
        let sorted = self
            .sorted
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for ((idx, _), index) in sorted.iter_mut() {
            if *idx == rel_idx {
                Arc::make_mut(index).apply(&edit, dict);
            }
        }
        let stats = self.stats.get_mut().unwrap_or_else(PoisonError::into_inner);
        if let Some(stats) = stats.get_mut(&rel_idx) {
            Arc::make_mut(stats).apply(&edit);
        }
    }

    /// Drop only the indexes built over relation `rel_idx` (a bulk append
    /// is cheaper to rebuild after than to patch row by row); indexes of
    /// untouched relations survive.
    fn invalidate_relation(&self, rel_idx: usize) {
        self.hash
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|(idx, _), _| *idx != rel_idx);
        self.sorted
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|(idx, _), _| *idx != rel_idx);
        self.stats
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&rel_idx);
    }
}

/// A full database instance.
///
/// Owns its relations and a tid counter, plus an `Arc` handle on the global
/// [`ValueDict`]. Cloning a `Database` (to build a repair) shares the
/// dictionary and preserves the tids of all surviving tuples; newly inserted
/// tuples get fresh tids *from the clone's own counter*, which continues from
/// the original's, so tids never collide between an instance and its repairs.
#[derive(Debug, Default)]
pub struct Database {
    relations: Vec<Relation>,
    /// Relation name → index in `relations`.
    index: FxHashMap<String, usize>,
    next_tid: u64,
    next_null: u32,
    /// The shared value dictionary (append-only, `Arc`-shared with clones).
    dict: Arc<ValueDict>,
    /// Shared index cache; reset on clone, patched per relation on every
    /// write.
    cache: IndexCache,
    /// Monotone mutation counter: bumped once per completed tuple-level
    /// mutation (no-ops — duplicate inserts, identity updates — don't
    /// count). Consumers key cached artifacts on this.
    epoch: u64,
    /// Bounded log of the mutations behind `epoch` (see [`ChangeLog`]).
    changes: ChangeLog,
}

impl Clone for Database {
    fn clone(&self) -> Database {
        Database {
            relations: self.relations.clone(),
            index: self.index.clone(),
            next_tid: self.next_tid,
            next_null: self.next_null,
            // Clones share the append-only dictionary: vids stay comparable
            // across an instance and all its repairs.
            dict: Arc::clone(&self.dict),
            // Indexes describe the *content* at build time; a clone starts
            // fresh and rebuilds on demand.
            cache: IndexCache::default(),
            // Content is identical, so the epoch and its log carry over:
            // incremental state tracking the original stays valid against
            // the clone.
            epoch: self.epoch,
            changes: self.changes.clone(),
        }
    }
}

impl Database {
    /// Empty database with no relations.
    pub fn new() -> Database {
        Database {
            relations: Vec::new(),
            index: FxHashMap::default(),
            next_tid: 1,
            next_null: 1,
            dict: Arc::new(ValueDict::new()),
            cache: IndexCache::default(),
            epoch: 0,
            changes: ChangeLog::default(),
        }
    }

    /// Build an empty database with all the relations of `schema`.
    pub fn with_schema(schema: &DatabaseSchema) -> Database {
        let mut db = Database::new();
        for r in schema.relations() {
            db.relations
                .push(Relation::new(Arc::clone(r), Arc::clone(&db.dict)));
            db.index
                .insert(r.name().to_string(), db.relations.len() - 1);
        }
        db
    }

    /// The shared value dictionary.
    pub fn dict(&self) -> &ValueDict {
        &self.dict
    }

    /// Add a new relation to this database.
    pub fn create_relation(&mut self, schema: RelationSchema) -> Result<()> {
        if self.index.contains_key(schema.name()) {
            return Err(RelationError::DuplicateRelation(schema.name().to_string()));
        }
        let name = schema.name().to_string();
        self.relations
            .push(Relation::new(Arc::new(schema), Arc::clone(&self.dict)));
        self.index.insert(name, self.relations.len() - 1);
        // Structural change: not representable as a tuple-level record, so
        // bump the epoch and truncate the log — consumers must recompute.
        self.epoch += 1;
        self.changes.reset(self.epoch);
        Ok(())
    }

    /// All relations, in creation order.
    pub fn relations(&self) -> &[Relation] {
        &self.relations
    }

    /// Look up a relation by name.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.index.get(name).and_then(|&i| self.relations.get(i))
    }

    /// Look up a relation by name, with an error on miss.
    pub fn require_relation(&self, name: &str) -> Result<&Relation> {
        self.relation(name)
            .ok_or_else(|| RelationError::UnknownRelation(name.to_string()))
    }

    fn relation_idx(&self, name: &str) -> Result<usize> {
        self.index
            .get(name)
            .copied()
            .ok_or_else(|| RelationError::UnknownRelation(name.to_string()))
    }

    /// Record one completed tuple-level mutation: bump the epoch and append
    /// to the change log. The write itself patched the index cache.
    fn log_change(&mut self, change: Change) {
        self.epoch += 1;
        self.changes.push(change);
    }

    /// The mutation epoch: the number of completed tuple-level mutations
    /// (plus structural changes) behind this instance's current content.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The mutations between epoch `since` and [`Database::epoch`], oldest
    /// first. `None` means the log no longer covers `since` (it was
    /// compacted, a structural change intervened, or `since` belongs to a
    /// different database) — the consumer must recompute from scratch.
    pub fn changes_since(&self, since: u64) -> Option<&[Change]> {
        self.changes.changes_since(since, self.epoch)
    }

    /// Does any relation currently hold `tid`?
    pub fn contains_tid(&self, tid: Tid) -> bool {
        self.relations
            .iter()
            .any(|r| r.store.position_of(tid).is_some())
    }

    /// Insert a tuple, returning its tid. Inserting content already present
    /// returns the existing tid (set semantics).
    pub fn insert(&mut self, relation: &str, tuple: Tuple) -> Result<Tid> {
        let next = Tid(self.next_tid);
        let idx = self.relation_idx(relation)?;
        let rel = &mut self.relations[idx];
        rel.validate(&tuple)?;
        let dict = Arc::clone(&rel.dict);
        let key: Box<[Vid]> = tuple.iter().map(|v| dict.intern(v)).collect();
        if let Some(existing) = rel.tid_of_vids(&key) {
            return Ok(existing);
        }
        rel.push_encoded(next, &key);
        rel.invalidate_rows();
        let pos = rel.store.len().saturating_sub(1) as u32;
        self.cache
            .apply(idx, RowEdit::Push { pos, row: &key }, &rel.dict);
        self.next_tid += 1;
        self.log_change(Change::Insert {
            relation: idx,
            tid: next,
        });
        Ok(next)
    }

    /// Open a bulk append to the relation at index `rel` (creation order):
    /// the codec's load path.
    pub(crate) fn append_block(&mut self, rel: usize) -> Result<BlockAppend<'_>> {
        let Database {
            relations,
            next_tid,
            cache,
            epoch,
            changes,
            ..
        } = self;
        let relation = relations
            .get_mut(rel)
            .ok_or_else(|| RelationError::UnknownRelation(format!("#{rel}")))?;
        let typed = relation
            .schema
            .attributes()
            .iter()
            .any(|a| a.ty != AttrType::Any);
        Ok(BlockAppend {
            rel,
            relation,
            typed,
            next_tid,
            epoch,
            changes,
            cache,
        })
    }

    /// Insert several tuples, returning their tids.
    pub fn insert_all<I>(&mut self, relation: &str, tuples: I) -> Result<Vec<Tid>>
    where
        I: IntoIterator<Item = Tuple>,
    {
        tuples
            .into_iter()
            .map(|t| self.insert(relation, t))
            .collect()
    }

    /// Delete a tuple by tid; returns the removed `(relation name, tuple)`.
    pub fn delete(&mut self, tid: Tid) -> Result<(String, Tuple)> {
        for (idx, rel) in self.relations.iter_mut().enumerate() {
            let Some((pos, key)) = rel.remove(tid) else {
                continue;
            };
            self.cache
                .apply(idx, RowEdit::Remove { pos, row: &key }, &rel.dict);
            let tuple = Tuple::new(
                key.iter()
                    .map(|&vid| rel.dict.resolve(vid).unwrap_or(Value::NULL)),
            );
            let name = rel.name().to_string();
            self.log_change(Change::Delete { relation: idx, tid });
            return Ok((name, tuple));
        }
        Err(RelationError::UnknownTid(tid.0))
    }

    /// Locate a tuple by tid: `(relation name, tuple)`.
    pub fn get(&self, tid: Tid) -> Option<(&str, &Tuple)> {
        self.relations
            .iter()
            .find_map(|rel| rel.get(tid).map(|t| (rel.name(), t)))
    }

    /// Replace one attribute of one tuple *in place* (same tid) — the update
    /// primitive behind attribute-based repairs (§4.3).
    pub fn update_value(&mut self, tid: Tid, position: usize, value: Value) -> Result<()> {
        for idx in 0..self.relations.len() {
            let Some(rel) = self.relations.get_mut(idx) else {
                continue;
            };
            let Some(pos) = rel.store.position_of(tid) else {
                continue;
            };
            let Some(attr) = rel.schema.attributes().get(position) else {
                return Err(RelationError::TypeMismatch {
                    relation: rel.name().to_string(),
                    position,
                    detail: format!(
                        "update position {position} out of range for arity {}",
                        rel.schema.arity()
                    ),
                });
            };
            if !attr.ty.admits(&value) {
                return Err(type_mismatch(rel.name(), position, attr, &value));
            }
            let new_vid = rel.dict.intern(&value);
            let old_key = rel.store.row_key(pos);
            let mut new_key = old_key.clone();
            if let Some(cell) = new_key.get_mut(position) {
                *cell = new_vid;
            }
            if new_key == old_key {
                return Ok(()); // no-op update
            }
            rel.by_content.remove(&old_key, tid);
            // If the updated content collides with an existing tuple the
            // set shrinks: drop the old copy's tid and keep the update.
            let mut removed_dup = None;
            if let Some(dup) = rel.tid_of_vids(&new_key) {
                if dup != tid {
                    if let Some(dup_pos) = rel.store.position_of(dup) {
                        rel.store.remove(dup);
                        self.cache.apply(
                            idx,
                            RowEdit::Remove {
                                pos: dup_pos as u32,
                                row: &new_key,
                            },
                            &rel.dict,
                        );
                    }
                    rel.by_content.remove(&new_key, dup);
                    removed_dup = Some(dup);
                }
            }
            // Positions may have shifted if the duplicate sat before us.
            if let Some(pos) = rel.store.position_of(tid) {
                rel.store.set_vid(pos, position, new_vid);
                let old = old_key.get(position).copied().unwrap_or(new_vid);
                let edit = RowEdit::Set {
                    pos: pos as u32,
                    col: position,
                    old,
                    row: &new_key,
                };
                self.cache.apply(idx, edit, &rel.dict);
            }
            rel.by_content.insert(&new_key, tid);
            rel.invalidate_rows();
            if let Some(dup) = removed_dup {
                self.log_change(Change::Delete {
                    relation: idx,
                    tid: dup,
                });
            }
            self.log_change(Change::Update { relation: idx, tid });
            return Ok(());
        }
        Err(RelationError::UnknownTid(tid.0))
    }

    /// The next tid this instance would assign (exclusive upper bound on the
    /// tids currently in use). Views mint synthetic overlay tids from here so
    /// that view tids equal the tids [`Database::with_changes`] would assign.
    pub fn tid_watermark(&self) -> u64 {
        self.next_tid
    }

    /// Would `insert(relation, tuple)` succeed? Checks relation existence,
    /// arity and attribute types without mutating anything, so repair
    /// enumeration can validate deltas up front and stay lazy afterwards.
    pub fn check_insertable(&self, relation: &str, tuple: &Tuple) -> Result<()> {
        self.require_relation(relation)?.validate(tuple)
    }

    /// The cached multi-column hash index for `(relation, key columns)`:
    /// projected vid key → row positions in the relation's store, tid order.
    ///
    /// Built on first use, shared (via [`Arc`]) with every caller, and
    /// patched by every later insert, delete and one-cell update of the
    /// relation, so it always equals a fresh build over the current rows (a
    /// caller holding the old `Arc` keeps its snapshot). Returns `None` for unknown
    /// relations, empty column lists, or out-of-range columns. The index is
    /// *semantics-agnostic*: null keys are indexed too, and it is the probing
    /// side's job to skip null probes under SQL semantics.
    pub fn hash_index(&self, relation: &str, cols: &[usize]) -> Option<Arc<HashIndex>> {
        let &rel_idx = self.index.get(relation)?;
        let rel = self.relations.get(rel_idx)?;
        {
            let cached = self.cache.hash.read().unwrap_or_else(|e| e.into_inner());
            if let Some(found) = cached.get(&(rel_idx, cols.into()) as &(usize, Box<[usize]>)) {
                return Some(Arc::clone(found));
            }
        }
        let built = Arc::new(HashIndex::build(&rel.store, cols)?);
        let mut map = self.cache.hash.write().unwrap_or_else(|e| e.into_inner());
        Some(Arc::clone(
            map.entry((rel_idx, cols.into())).or_insert(built),
        ))
    }

    /// The cached planner statistics for `relation`: row count and exact
    /// per-column distinct-vid counts (see [`ColumnStats`]). Built on first
    /// use, shared via [`Arc`], and kept current across writes like
    /// [`Database::hash_index`].
    pub fn column_stats(&self, relation: &str) -> Option<Arc<ColumnStats>> {
        let &rel_idx = self.index.get(relation)?;
        let rel = self.relations.get(rel_idx)?;
        {
            let cached = self.cache.stats.read().unwrap_or_else(|e| e.into_inner());
            if let Some(found) = cached.get(&rel_idx) {
                return Some(Arc::clone(found));
            }
        }
        let built = Arc::new(ColumnStats::build(&rel.store));
        let mut map = self.cache.stats.write().unwrap_or_else(|e| e.into_inner());
        Some(Arc::clone(map.entry(rel_idx).or_insert(built)))
    }

    /// The cached sorted (value-order) index for `(relation, column)`, for
    /// range and order probes. Caching and maintenance across writes mirror
    /// [`Database::hash_index`].
    pub fn sorted_index(&self, relation: &str, column: usize) -> Option<Arc<SortedIndex>> {
        let &rel_idx = self.index.get(relation)?;
        let rel = self.relations.get(rel_idx)?;
        {
            let cached = self.cache.sorted.read().unwrap_or_else(|e| e.into_inner());
            if let Some(found) = cached.get(&(rel_idx, column)) {
                return Some(Arc::clone(found));
            }
        }
        let built = Arc::new(SortedIndex::build(&rel.store, column, &rel.dict)?);
        let mut map = self.cache.sorted.write().unwrap_or_else(|e| e.into_inner());
        Some(Arc::clone(map.entry((rel_idx, column)).or_insert(built)))
    }

    /// Total tuple count over all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(Relation::len).sum()
    }

    /// Iterate every `(relation name, tid, tuple)` in deterministic order.
    /// Materializes value-level row caches; id-space consumers iterate
    /// [`Relation::store`] instead.
    pub fn facts(&self) -> impl Iterator<Item = (&str, Tid, &Tuple)> + '_ {
        self.relations
            .iter()
            .flat_map(|rel| rel.iter().map(move |(tid, t)| (rel.name(), tid, t)))
    }

    /// The set of all tids (no row materialization).
    pub fn tids(&self) -> BTreeSet<Tid> {
        self.relations
            .iter()
            .flat_map(|rel| rel.store.tids().iter().copied())
            .collect()
    }

    /// Mint a fresh labelled null (for existential tgd repairs, §4.2, and for
    /// LAV inverse rules, §5).
    pub fn fresh_null(&mut self) -> Value {
        let v = Value::Null(self.next_null);
        self.next_null += 1;
        v
    }

    /// Content of the database as a canonical set, ignoring tids.
    ///
    /// Two repairs are "the same instance" iff their content sets are equal,
    /// even when their inserted tuples carry different fresh tids.
    pub fn content_set(&self) -> BTreeSet<(String, Tuple)> {
        self.facts()
            .map(|(r, _, t)| (r.to_string(), t.clone()))
            .collect()
    }

    /// Structural equality of content (ignores tids and counters).
    pub fn same_content(&self, other: &Database) -> bool {
        self.content_set() == other.content_set()
    }

    /// Clone this database applying a symmetric-difference delta: delete the
    /// given tids, then insert the given `(relation, tuple)` pairs. Returns
    /// the repaired clone and the tids assigned to the insertions.
    pub fn with_changes(
        &self,
        deletions: &BTreeSet<Tid>,
        insertions: &[(String, Tuple)],
    ) -> Result<(Database, Vec<Tid>)> {
        let known: usize = deletions
            .iter()
            .filter(|&&t| {
                self.relations
                    .iter()
                    .any(|r| r.store.position_of(t).is_some())
            })
            .count();
        if known != deletions.len() {
            // Surface the first unknown tid for a useful error.
            for &tid in deletions {
                if !self
                    .relations
                    .iter()
                    .any(|r| r.store.position_of(tid).is_some())
                {
                    return Err(RelationError::UnknownTid(tid.0));
                }
            }
        }
        // Single filtered pass per relation, entirely in id-space: columns
        // and content keys copy as fixed-width vids, no re-interning and no
        // value materialization.
        let mut relations = Vec::with_capacity(self.relations.len());
        for rel in &self.relations {
            let mut store = ColumnStore::new(rel.schema.arity());
            let mut by_content = ContentMap::default();
            let mut touched = false;
            for pos in 0..rel.store.len() {
                let Some(tid) = rel.store.tid_at(pos) else {
                    continue;
                };
                if deletions.contains(&tid) {
                    touched = true;
                    continue;
                }
                let key = rel.store.row_key(pos);
                store.push(tid, &key);
                by_content.insert(&key, tid);
            }
            relations.push(Relation {
                schema: Arc::clone(&rel.schema),
                dict: Arc::clone(&rel.dict),
                store,
                by_content,
                rows: OnceLock::new(),
                // An untouched relation is byte-identical to the original
                // (same rows, same shared dictionary): its content stamp
                // carries over, so plans and cached subresults keyed on it
                // stay shareable across the derived instance. Insertions
                // re-mint below via the normal `insert` funnel.
                stamp: if touched { mint_stamp() } else { rel.stamp },
            });
        }
        let mut db = Database {
            relations,
            index: self.index.clone(),
            next_tid: self.next_tid,
            next_null: self.next_null,
            dict: Arc::clone(&self.dict),
            cache: IndexCache::default(),
            // A derived instance is a new identity: epochs restart.
            epoch: 0,
            changes: ChangeLog::default(),
        };
        let mut new_tids = Vec::with_capacity(insertions.len());
        for (rel, tuple) in insertions {
            new_tids.push(db.insert(rel, tuple.clone())?);
        }
        Ok((db, new_tids))
    }

    /// Clone this database keeping only the tuples whose tid is in `keep`.
    /// Tuples of relations absent from `keep` are dropped too.
    pub fn restricted_to(&self, keep: &BTreeSet<Tid>) -> Database {
        let mut relations = Vec::with_capacity(self.relations.len());
        for rel in &self.relations {
            let mut store = ColumnStore::new(rel.schema.arity());
            let mut by_content = ContentMap::default();
            let mut touched = false;
            for pos in 0..rel.store.len() {
                let Some(tid) = rel.store.tid_at(pos) else {
                    continue;
                };
                if !keep.contains(&tid) {
                    touched = true;
                    continue;
                }
                let key = rel.store.row_key(pos);
                store.push(tid, &key);
                by_content.insert(&key, tid);
            }
            relations.push(Relation {
                schema: Arc::clone(&rel.schema),
                dict: Arc::clone(&rel.dict),
                store,
                by_content,
                rows: OnceLock::new(),
                // Untouched relation: identical content, stamp carries over.
                stamp: if touched { mint_stamp() } else { rel.stamp },
            });
        }
        Database {
            relations,
            index: self.index.clone(),
            next_tid: self.next_tid,
            next_null: self.next_null,
            dict: Arc::clone(&self.dict),
            cache: IndexCache::default(),
            // A derived instance is a new identity: epochs restart.
            epoch: 0,
            changes: ChangeLog::default(),
        }
    }

    /// The active domain: every constant appearing in some tuple.
    ///
    /// Collected as *distinct vids* first (one dictionary resolve per
    /// distinct value), then emitted through the dictionary in value order —
    /// never in raw id order.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        let mut seen = crate::fxhash::WordHashSet::default();
        for rel in &self.relations {
            for col in 0..rel.store.arity() {
                seen.extend(rel.store.column(col).iter().copied());
            }
        }
        seen.into_iter()
            .filter(|&vid| !self.dict.is_null(vid))
            .filter_map(|vid| self.dict.resolve(vid))
            .collect()
    }

    /// Estimated retained heap bytes of all relation storage (columns,
    /// spines, content maps). Excludes the shared dictionary — count that
    /// separately, once, via the bench harness's accounting.
    pub fn heap_bytes(&self) -> usize {
        self.relations.iter().map(Relation::heap_bytes).sum()
    }

    /// Compact the whole instance after a bulk load: every relation's
    /// columns and content guard plus the shared dictionary release their
    /// spare capacity. Contents, tids and vids are unaffected.
    pub fn shrink_to_fit(&mut self) {
        for rel in &mut self.relations {
            rel.shrink_to_fit();
        }
        self.dict.shrink_to_fit();
    }
}

/// A bulk append to one relation, opened by [`Database::append_block`].
///
/// Each row is checked (arity, declared types), deduplicated, given the
/// next tid and logged (epoch and change-log record) exactly as by
/// [`Database::insert`]. What an insert repeats per row on caches that stay
/// empty while a load builds the database — dropping the relation's
/// index-cache entries and row cache and re-minting its content stamp —
/// runs once, when the block is dropped.
pub(crate) struct BlockAppend<'a> {
    rel: usize,
    relation: &'a mut Relation,
    /// Does the schema declare any attribute type?
    typed: bool,
    next_tid: &'a mut u64,
    epoch: &'a mut u64,
    changes: &'a mut ChangeLog,
    cache: &'a IndexCache,
}

impl BlockAppend<'_> {
    /// The dictionary rows must be encoded against.
    pub(crate) fn dict(&self) -> &ValueDict {
        &self.relation.dict
    }

    /// Append one encoded row, returning its tid; content already present
    /// returns the existing tid (set semantics).
    pub(crate) fn push(&mut self, vids: &[Vid]) -> Result<Tid> {
        self.relation.validate_vids(vids, self.typed)?;
        if let Some(existing) = self.relation.tid_of_vids(vids) {
            return Ok(existing);
        }
        let tid = Tid(*self.next_tid);
        self.relation.push_encoded(tid, vids);
        *self.next_tid += 1;
        *self.epoch += 1;
        self.changes.push(Change::Insert {
            relation: self.rel,
            tid,
        });
        Ok(tid)
    }
}

impl Drop for BlockAppend<'_> {
    fn drop(&mut self) {
        self.cache.invalidate_relation(self.rel);
        self.relation.invalidate_rows();
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rel in &self.relations {
            crate::display::write_relation(f, rel)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn supply_db() -> Database {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new(
            "Supply",
            ["Company", "Receiver", "Item"],
        ))
        .unwrap();
        db.create_relation(RelationSchema::new("Articles", ["Item"]))
            .unwrap();
        db.insert("Supply", tuple!["C1", "R1", "I1"]).unwrap();
        db.insert("Supply", tuple!["C2", "R2", "I2"]).unwrap();
        db.insert("Supply", tuple!["C2", "R1", "I3"]).unwrap();
        db.insert("Articles", tuple!["I1"]).unwrap();
        db.insert("Articles", tuple!["I2"]).unwrap();
        db
    }

    #[test]
    fn insert_assigns_sequential_tids() {
        let db = supply_db();
        let tids: Vec<u64> = db.facts().map(|(_, t, _)| t.0).collect();
        assert_eq!(tids, vec![1, 2, 3, 4, 5]);
        assert_eq!(db.total_tuples(), 5);
    }

    #[test]
    fn set_semantics_dedupes() {
        let mut db = supply_db();
        let t1 = db.insert("Articles", tuple!["I1"]).unwrap();
        assert_eq!(t1, Tid(4));
        assert_eq!(db.total_tuples(), 5);
    }

    #[test]
    fn delete_and_get() {
        let mut db = supply_db();
        let (rel, t) = db.delete(Tid(3)).unwrap();
        assert_eq!(rel, "Supply");
        assert_eq!(t, tuple!["C2", "R1", "I3"]);
        assert_eq!(db.get(Tid(3)), None);
        assert!(db.delete(Tid(3)).is_err());
    }

    #[test]
    fn with_changes_builds_repairs() {
        let db = supply_db();
        // Repair D1: delete Supply(C2, R1, I3).
        let dels: BTreeSet<Tid> = [Tid(3)].into();
        let (d1, _) = db.with_changes(&dels, &[]).unwrap();
        assert_eq!(d1.total_tuples(), 4);
        // Repair D2: insert Articles(I3).
        let (d2, new) = db
            .with_changes(&BTreeSet::new(), &[("Articles".into(), tuple!["I3"])])
            .unwrap();
        assert_eq!(d2.total_tuples(), 6);
        assert_eq!(new.len(), 1);
        // Fresh tid does not collide with original tids.
        assert!(new[0].0 > 5);
        // Original untouched.
        assert_eq!(db.total_tuples(), 5);
    }

    #[test]
    fn same_content_ignores_tids() {
        let db = supply_db();
        let (a, _) = db
            .with_changes(&BTreeSet::new(), &[("Articles".into(), tuple!["I3"])])
            .unwrap();
        let mut b = supply_db();
        b.insert("Articles", tuple!["I3"]).unwrap();
        assert!(a.same_content(&b));
        assert!(!a.same_content(&db));
    }

    #[test]
    fn restricted_to_keeps_subset() {
        let db = supply_db();
        let keep: BTreeSet<Tid> = [Tid(1), Tid(4)].into();
        let sub = db.restricted_to(&keep);
        assert_eq!(sub.total_tuples(), 2);
        assert!(sub
            .relation("Supply")
            .unwrap()
            .contains(&tuple!["C1", "R1", "I1"]));
    }

    #[test]
    fn update_value_preserves_tid() {
        let mut db = supply_db();
        db.update_value(Tid(3), 2, Value::NULL).unwrap();
        let (_, t) = db.get(Tid(3)).unwrap();
        assert!(t.at(2).is_null());
        assert_eq!(db.total_tuples(), 5);
    }

    #[test]
    fn update_value_collision_shrinks_set() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("S", ["A"])).unwrap();
        let t1 = db.insert("S", tuple!["a"]).unwrap();
        let _t2 = db.insert("S", tuple!["b"]).unwrap();
        // Turning 'b' into 'a' collides; set semantics keeps one copy.
        db.update_value(Tid(2), 0, Value::str("a")).unwrap();
        assert_eq!(db.relation("S").unwrap().len(), 1);
        // The updated tid survives; the duplicate content's old tid is gone.
        assert!(db.get(Tid(2)).is_some());
        assert!(db.get(t1).is_none());
    }

    #[test]
    fn arity_and_type_validation() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::with_attributes(
            "T",
            vec![
                crate::Attribute::typed("N", crate::AttrType::Int),
                crate::Attribute::typed("S", crate::AttrType::Str),
            ],
        ))
        .unwrap();
        assert!(db.insert("T", tuple![1]).is_err());
        assert!(db.insert("T", tuple!["x", "y"]).is_err());
        assert!(db.insert("T", tuple![1, "y"]).is_ok());
        // Nulls are admitted by every type.
        assert!(db
            .insert("T", Tuple::new(vec![Value::NULL, Value::NULL]))
            .is_ok());
    }

    #[test]
    fn fresh_nulls_are_distinct() {
        let mut db = Database::new();
        let a = db.fresh_null();
        let b = db.fresh_null();
        assert_ne!(a, b);
        assert!(a.is_null() && b.is_null());
    }

    #[test]
    fn active_domain_excludes_nulls() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("R", ["A", "B"]))
            .unwrap();
        db.insert("R", Tuple::new(vec![Value::str("a"), Value::NULL]))
            .unwrap();
        let dom = db.active_domain();
        assert_eq!(dom.len(), 1);
        assert!(dom.contains(&Value::str("a")));
    }

    #[test]
    fn with_schema_creates_all_relations() {
        let mut schema = crate::DatabaseSchema::new();
        schema.add(RelationSchema::new("A", ["X"])).unwrap();
        schema.add(RelationSchema::new("B", ["X", "Y"])).unwrap();
        let mut db = Database::with_schema(&schema);
        assert!(db.relation("A").is_some());
        assert_eq!(db.relation("B").unwrap().schema().arity(), 2);
        db.insert("A", tuple![1]).unwrap();
        assert_eq!(db.total_tuples(), 1);
    }

    #[test]
    fn hash_index_caches_and_invalidates() {
        let mut db = supply_db();
        let key = |s: &str| db.dict().lookup(&Value::str(s)).unwrap();
        let ix = db.hash_index("Supply", &[0]).unwrap();
        // Rows 1 and 2 (tids 2 and 3) carry company C2.
        assert_eq!(ix.rows_for_vid(key("C2")), &[1, 2]);
        // Second call returns the same shared index.
        let again = db.hash_index("Supply", &[0]).unwrap();
        assert!(Arc::ptr_eq(&ix, &again));
        // Out-of-range column and unknown relation yield no index.
        assert!(db.hash_index("Supply", &[9]).is_none());
        assert!(db.hash_index("Supply", &[]).is_none());
        assert!(db.hash_index("Nope", &[0]).is_none());
        // A write patches the cached index; `ix` is still held, so the
        // cache patches a copy and `ix` keeps the snapshot it read.
        db.insert("Supply", tuple!["C2", "R9", "I9"]).unwrap();
        let rebuilt = db.hash_index("Supply", &[0]).unwrap();
        assert!(!Arc::ptr_eq(&ix, &rebuilt));
        let c2 = db.dict().lookup(&Value::str("C2")).unwrap();
        assert_eq!(ix.rows_for_vid(c2).len(), 2);
        assert_eq!(
            rebuilt
                .rows_for_vid(db.dict().lookup(&Value::str("C2")).unwrap())
                .len(),
            3
        );
        // Clones start with a fresh (empty) cache but identical content.
        let clone = db.clone();
        let cloned_ix = clone.hash_index("Supply", &[0]).unwrap();
        assert!(!Arc::ptr_eq(&rebuilt, &cloned_ix));
        assert_eq!(
            cloned_ix.rows_for_vid(clone.dict().lookup(&Value::str("C2")).unwrap()),
            rebuilt.rows_for_vid(db.dict().lookup(&Value::str("C2")).unwrap())
        );
    }

    #[test]
    fn index_invalidation_is_scoped_to_touched_relation() {
        let mut db = supply_db();
        let supply_ix = db.hash_index("Supply", &[0]).unwrap();
        let supply_sorted = db.sorted_index("Supply", 0).unwrap();
        let articles_ix = db.hash_index("Articles", &[0]).unwrap();
        // Mutating Articles leaves the Supply indexes untouched…
        db.insert("Articles", tuple!["I9"]).unwrap();
        assert!(Arc::ptr_eq(
            &supply_ix,
            &db.hash_index("Supply", &[0]).unwrap()
        ));
        assert!(Arc::ptr_eq(
            &supply_sorted,
            &db.sorted_index("Supply", 0).unwrap()
        ));
        // …but patches a copy of the held Articles index.
        let articles_again = db.hash_index("Articles", &[0]).unwrap();
        assert!(!Arc::ptr_eq(&articles_ix, &articles_again));
        // Deleting from Supply touches only the Supply indexes.
        let articles_after = db.hash_index("Articles", &[0]).unwrap();
        db.delete(Tid(3)).unwrap();
        assert!(!Arc::ptr_eq(
            &supply_ix,
            &db.hash_index("Supply", &[0]).unwrap()
        ));
        assert!(Arc::ptr_eq(
            &articles_after,
            &db.hash_index("Articles", &[0]).unwrap()
        ));
    }

    #[test]
    fn epoch_and_change_log_track_mutations() {
        let mut db = supply_db();
        let e0 = db.epoch();
        assert_eq!(db.changes_since(e0), Some(&[][..]));
        let t = db.insert("Articles", tuple!["I9"]).unwrap();
        // Duplicate insert and identity update are no-ops: no epoch bump.
        db.insert("Articles", tuple!["I9"]).unwrap();
        db.update_value(t, 0, Value::str("I9")).unwrap();
        assert_eq!(db.epoch(), e0 + 1);
        db.delete(Tid(1)).unwrap();
        db.update_value(Tid(2), 2, Value::str("I9")).unwrap();
        assert_eq!(db.epoch(), e0 + 3);
        let log = db.changes_since(e0).unwrap();
        assert_eq!(
            log,
            &[
                Change::Insert {
                    relation: 1,
                    tid: t
                },
                Change::Delete {
                    relation: 0,
                    tid: Tid(1)
                },
                Change::Update {
                    relation: 0,
                    tid: Tid(2)
                },
            ]
        );
        // Future epochs and structural changes answer None.
        assert!(db.changes_since(db.epoch() + 1).is_none());
        db.create_relation(RelationSchema::new("Fresh", ["X"]))
            .unwrap();
        assert!(db.changes_since(e0).is_none());
        assert_eq!(db.changes_since(db.epoch()), Some(&[][..]));
        // A clone carries the epoch/log forward.
        let clone = db.clone();
        assert_eq!(clone.epoch(), db.epoch());
    }

    #[test]
    fn update_collision_logs_delete_then_update() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("S", ["A"])).unwrap();
        let e0 = db.epoch();
        let t1 = db.insert("S", tuple!["a"]).unwrap();
        let t2 = db.insert("S", tuple!["b"]).unwrap();
        db.update_value(t2, 0, Value::str("a")).unwrap();
        let log = db.changes_since(e0).unwrap();
        assert_eq!(
            log,
            &[
                Change::Insert {
                    relation: 0,
                    tid: t1
                },
                Change::Insert {
                    relation: 0,
                    tid: t2
                },
                Change::Delete {
                    relation: 0,
                    tid: t1
                },
                Change::Update {
                    relation: 0,
                    tid: t2
                },
            ]
        );
    }

    #[test]
    fn content_stamps_remint_on_mutation_and_survive_clones() {
        let mut db = supply_db();
        let s0 = db.relation("Supply").unwrap().content_stamp();
        let a0 = db.relation("Articles").unwrap().content_stamp();
        assert_ne!(s0, a0); // globally unique
                            // Clones copy stamps (identical content).
        let clone = db.clone();
        assert_eq!(clone.relation("Supply").unwrap().content_stamp(), s0);
        // A mutation re-mints only the touched relation's stamp.
        db.insert("Articles", tuple!["I9"]).unwrap();
        assert_eq!(db.relation("Supply").unwrap().content_stamp(), s0);
        let a1 = db.relation("Articles").unwrap().content_stamp();
        assert_ne!(a1, a0);
        // No-op mutations don't re-mint.
        db.insert("Articles", tuple!["I9"]).unwrap();
        assert_eq!(db.relation("Articles").unwrap().content_stamp(), a1);
        // Derived instances keep stamps of untouched relations and re-mint
        // the filtered ones.
        let dels: BTreeSet<Tid> = [Tid(1)].into();
        let (derived, _) = db.with_changes(&dels, &[]).unwrap();
        assert_ne!(derived.relation("Supply").unwrap().content_stamp(), s0);
        assert_eq!(derived.relation("Articles").unwrap().content_stamp(), a1);
        let kept = db.restricted_to(&db.tids());
        assert_eq!(kept.relation("Supply").unwrap().content_stamp(), s0);
    }

    #[test]
    fn column_stats_cache_and_invalidate() {
        let mut db = supply_db();
        let stats = db.column_stats("Supply").unwrap();
        assert_eq!(stats.rows(), 3);
        assert_eq!(stats.distinct(0), 2); // C1, C2
        let again = db.column_stats("Supply").unwrap();
        assert!(Arc::ptr_eq(&stats, &again));
        assert!(db.column_stats("Nope").is_none());
        // A write patches the touched relation's stats only.
        let articles = db.column_stats("Articles").unwrap();
        db.insert("Supply", tuple!["C3", "R9", "I9"]).unwrap();
        assert!(!Arc::ptr_eq(&stats, &db.column_stats("Supply").unwrap()));
        assert!(Arc::ptr_eq(
            &articles,
            &db.column_stats("Articles").unwrap()
        ));
        let patched = db.column_stats("Supply").unwrap();
        assert_eq!((patched.rows(), patched.distinct(0)), (4, 3));
        assert_eq!(*patched, *db.clone().column_stats("Supply").unwrap());
    }

    #[test]
    fn writes_patch_unshared_indexes_in_place() {
        let mut db = supply_db();
        let ptr = Arc::as_ptr(&db.hash_index("Supply", &[0, 2]).unwrap());
        let _ = db.sorted_index("Supply", 1);
        let _ = db.column_stats("Supply");
        let tid = db.insert("Supply", tuple!["C1", "R0", "I2"]).unwrap();
        db.update_value(tid, 1, Value::str("R1")).unwrap();
        db.delete(Tid(1)).unwrap();
        // Nobody held the index, so it was patched, not copied.
        let ix = db.hash_index("Supply", &[0, 2]).unwrap();
        assert_eq!(Arc::as_ptr(&ix), ptr);
        let fresh = db.clone();
        assert_eq!(*ix, *fresh.hash_index("Supply", &[0, 2]).unwrap());
        assert_eq!(
            *db.sorted_index("Supply", 1).unwrap(),
            *fresh.sorted_index("Supply", 1).unwrap()
        );
        assert_eq!(
            *db.column_stats("Supply").unwrap(),
            *fresh.column_stats("Supply").unwrap()
        );
    }

    #[test]
    fn multi_column_hash_index_probes() {
        let db = supply_db();
        let ix = db.hash_index("Supply", &[0, 1]).unwrap();
        let key = [
            db.dict().lookup(&Value::str("C2")).unwrap(),
            db.dict().lookup(&Value::str("R1")).unwrap(),
        ];
        assert_eq!(ix.rows_for(&key), &[2]); // tid 3 at row position 2
        assert_eq!(
            db.relation("Supply").unwrap().store().tid_at(2),
            Some(Tid(3))
        );
    }

    #[test]
    fn sorted_index_caches_and_orders() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("N", ["V"])).unwrap();
        for v in [5i64, -2, 9, 0] {
            db.insert("N", tuple![v]).unwrap();
        }
        let ix = db.sorted_index("N", 0).unwrap();
        let again = db.sorted_index("N", 0).unwrap();
        assert!(Arc::ptr_eq(&ix, &again));
        let vals: Vec<Value> = ix
            .entries()
            .iter()
            .filter_map(|&(vid, _)| db.dict().resolve(vid))
            .collect();
        assert_eq!(
            vals,
            vec![Value::Int(-2), Value::Int(0), Value::Int(5), Value::Int(9)]
        );
        assert!(db.sorted_index("N", 3).is_none());
        db.insert("N", tuple![7]).unwrap();
        let rebuilt = db.sorted_index("N", 0).unwrap();
        assert!(!Arc::ptr_eq(&ix, &rebuilt));
        assert_eq!(rebuilt.entries().len(), 5);
        assert_eq!(*rebuilt, *db.clone().sorted_index("N", 0).unwrap());
    }

    #[test]
    fn append_block_matches_insert() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("R", ["A", "B"]))
            .unwrap();
        let key = [
            db.dict().intern(&Value::str("a")),
            db.dict().intern(&Value::Int(1)),
        ];
        let e0 = db.epoch();
        let t1 = db.append_block(0).unwrap().push(&key).unwrap();
        // Logged like an insert: one epoch, one change record.
        assert_eq!(db.epoch(), e0 + 1);
        assert_eq!(
            db.changes_since(e0),
            Some(
                &[Change::Insert {
                    relation: 0,
                    tid: t1
                }][..]
            )
        );
        // Set semantics against the value-level path, and within a block.
        let t2 = db.insert("R", tuple!["a", 1]).unwrap();
        assert_eq!(t1, t2);
        assert_eq!(db.append_block(0).unwrap().push(&key).unwrap(), t1);
        assert_eq!(db.total_tuples(), 1);
        assert_eq!(db.epoch(), e0 + 1);
        // Arity mismatch errors.
        let one = db.dict().intern(&Value::Int(1));
        assert!(db.append_block(0).unwrap().push(&[one]).is_err());
        // Unknown relation indexes open nothing.
        assert!(db.append_block(1).is_err());
        // Typed schemas are enforced on the vid path too.
        db.create_relation(RelationSchema::with_attributes(
            "T",
            vec![crate::Attribute::typed("N", crate::AttrType::Int)],
        ))
        .unwrap();
        let str_vid = db.dict().intern(&Value::str("nope"));
        assert!(db.append_block(1).unwrap().push(&[str_vid]).is_err());
        let int_vid = db.dict().intern(&Value::Int(3));
        assert!(db.append_block(1).unwrap().push(&[int_vid]).is_ok());
        assert_eq!(db.total_tuples(), 2);
    }

    #[test]
    fn append_block_invalidates_once_on_drop() {
        let mut db = supply_db();
        let ix = db.hash_index("Articles", &[0]).unwrap();
        let kept = db.hash_index("Supply", &[0]).unwrap();
        let stamp = db.relation("Articles").unwrap().content_stamp();
        let rows = db.relation("Articles").unwrap().tuples().count();
        {
            let mut block = db.append_block(1).unwrap();
            let vid = block.dict().intern(&Value::str("I9"));
            block.push(&[vid]).unwrap();
        }
        // The appended relation's caches and stamp are renewed; other
        // relations' indexes survive.
        let rel = db.relation("Articles").unwrap();
        assert_ne!(rel.content_stamp(), stamp);
        assert_eq!(rel.tuples().count(), rows + 1);
        assert!(!Arc::ptr_eq(&ix, &db.hash_index("Articles", &[0]).unwrap()));
        assert!(Arc::ptr_eq(&kept, &db.hash_index("Supply", &[0]).unwrap()));
    }

    #[test]
    fn shared_dictionary_across_clones() {
        let db = supply_db();
        let clone = db.clone();
        // Same Arc: a vid means the same value in the original and the clone.
        let vid = db.dict().lookup(&Value::str("C1")).unwrap();
        assert_eq!(clone.dict().resolve(vid), Some(Value::str("C1")));
    }

    #[test]
    fn check_insertable_matches_insert() {
        let db = supply_db();
        assert!(db
            .check_insertable("Supply", &tuple!["C3", "R3", "I4"])
            .is_ok());
        assert!(db.check_insertable("Supply", &tuple!["C3"]).is_err());
        assert!(db.check_insertable("Nope", &tuple!["x"]).is_err());
    }

    #[test]
    fn with_changes_unknown_tid_errors() {
        let db = supply_db();
        let dels: BTreeSet<Tid> = [Tid(99)].into();
        assert!(db.with_changes(&dels, &[]).is_err());
    }

    #[test]
    fn unknown_relation_errors() {
        let mut db = Database::new();
        assert!(db.insert("Nope", tuple![1]).is_err());
        assert!(db.require_relation("Nope").is_err());
    }

    #[test]
    fn float_int_canonicalization_keeps_set_semantics() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("R", ["A"])).unwrap();
        let t1 = db.insert("R", tuple![2]).unwrap();
        // Float(2.0) is structurally equal to Int(2): same row.
        let t2 = db.insert("R", Tuple::new(vec![Value::Float(2.0)])).unwrap();
        assert_eq!(t1, t2);
        assert_eq!(db.total_tuples(), 1);
        // Non-integral floats stay distinct.
        let t3 = db.insert("R", Tuple::new(vec![Value::Float(2.5)])).unwrap();
        assert_ne!(t1, t3);
    }
}
