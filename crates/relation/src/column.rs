//! Columnar row storage: per-attribute `Vec<Vid>` plus a sorted tid spine.
//!
//! A [`ColumnStore`] is the physical layout behind [`crate::Relation`]: one
//! dense `Vec<Vid>` per attribute, aligned with a strictly increasing vector
//! of tids. A stored cell is 4 bytes regardless of the value it encodes;
//! the value itself lives (once) in the shared [`crate::ValueDict`].
//!
//! Rows are addressed by *position*; positions are dense and shift on
//! deletion. The index cache patches its postings on every write (a delete
//! moves the postings behind the removed row down by one, see
//! [`crate::index`]); the lazy value-level row cache is rebuilt instead.
//! Tids are the stable names.

use crate::dict::Vid;
use crate::fxhash::{FxHashMap, WordHasher};
use crate::tuple::Tid;
use std::hash::Hasher;

/// Column-oriented storage for one relation.
#[derive(Debug, Clone, Default)]
pub struct ColumnStore {
    /// Strictly increasing tids, one per row.
    tids: Vec<Tid>,
    /// One vid column per attribute; every column is `tids.len()` long.
    columns: Vec<Vec<Vid>>,
}

impl ColumnStore {
    /// Empty store with `arity` columns.
    pub fn new(arity: usize) -> ColumnStore {
        ColumnStore {
            tids: Vec::new(),
            columns: vec![Vec::new(); arity],
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.tids.len()
    }

    /// True iff the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.tids.is_empty()
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// One whole column, row-aligned.
    pub fn column(&self, col: usize) -> &[Vid] {
        self.columns.get(col).map_or(&[], Vec::as_slice)
    }

    /// The tid spine, row-aligned and strictly increasing.
    pub fn tids(&self) -> &[Tid] {
        &self.tids
    }

    /// Tid of the row at `pos`.
    pub fn tid_at(&self, pos: usize) -> Option<Tid> {
        self.tids.get(pos).copied()
    }

    /// Vid of cell `(pos, col)`.
    pub fn vid_at(&self, pos: usize, col: usize) -> Option<Vid> {
        self.columns.get(col).and_then(|c| c.get(pos)).copied()
    }

    /// Position of the row with this tid (binary search on the spine).
    pub fn position_of(&self, tid: Tid) -> Option<usize> {
        self.tids.binary_search(&tid).ok()
    }

    /// Append a row. `tid` must exceed every tid already present and
    /// `vids.len()` must equal the arity; violations are rejected (`false`)
    /// rather than corrupting the spine.
    pub fn push(&mut self, tid: Tid, vids: &[Vid]) -> bool {
        if vids.len() != self.columns.len() {
            return false;
        }
        if self.tids.last().is_some_and(|&last| last >= tid) {
            return false;
        }
        self.tids.push(tid);
        for (col, &vid) in self.columns.iter_mut().zip(vids) {
            col.push(vid);
        }
        true
    }

    /// Remove the row with this tid, returning its vids. `O(n)` shift; bulk
    /// rebuilds (`with_changes`) filter-copy instead.
    pub fn remove(&mut self, tid: Tid) -> Option<Box<[Vid]>> {
        let pos = self.position_of(tid)?;
        self.tids.remove(pos);
        Some(self.columns.iter_mut().map(|c| c.remove(pos)).collect())
    }

    /// Overwrite one cell in place (the attribute-update primitive). The row
    /// keeps its tid and position.
    pub fn set_vid(&mut self, pos: usize, col: usize, vid: Vid) -> bool {
        match self.columns.get_mut(col).and_then(|c| c.get_mut(pos)) {
            Some(cell) => {
                *cell = vid;
                true
            }
            None => false,
        }
    }

    /// The row at `pos` as a borrowed accessor.
    pub fn row(&self, pos: usize) -> Option<VidRow<'_>> {
        (pos < self.tids.len()).then_some(VidRow::Columns { store: self, pos })
    }

    /// The row at `pos` copied into an owned key (for content maps).
    pub fn row_key(&self, pos: usize) -> Box<[Vid]> {
        self.columns
            .iter()
            .filter_map(|c| c.get(pos).copied())
            .collect()
    }

    /// Iterate `(tid, row)` in tid order.
    pub fn rows(&self) -> impl Iterator<Item = (Tid, VidRow<'_>)> + '_ {
        self.tids
            .iter()
            .enumerate()
            .map(move |(pos, &tid)| (tid, VidRow::Columns { store: self, pos }))
    }

    /// Estimated retained heap bytes of the store itself (columns + spine;
    /// dictionary payloads are shared and counted once, elsewhere).
    pub fn heap_bytes(&self) -> usize {
        self.tids.capacity() * std::mem::size_of::<Tid>()
            + self
                .columns
                .iter()
                .map(|c| c.capacity() * std::mem::size_of::<Vid>())
                .sum::<usize>()
    }
}

impl ColumnStore {
    /// Release over-allocated capacity after a bulk load: rows, order and
    /// tids are untouched, only spare `Vec` capacity is returned.
    pub fn shrink_to_fit(&mut self) {
        self.tids.shrink_to_fit();
        for col in &mut self.columns {
            col.shrink_to_fit();
        }
    }
}

/// The set-semantics content guard over a [`ColumnStore`]: a 64-bit hash of
/// the row's vids → the tids carrying that hash, **verified against the
/// columns** on every probe. Unlike a `HashMap<Box<[Vid]>, Tid>` it stores
/// no second copy of the row, so its footprint is a constant ~32 bytes per
/// row regardless of arity. Distinct rows that collide on the hash share a
/// bucket and are told apart by the verify step; iteration order of the map
/// never leaves this type (probes and membership only).
#[derive(Debug, Clone, Default)]
pub struct ContentMap {
    map: FxHashMap<u64, Bucket>,
}

/// Bucket of tids sharing one content hash. Virtually always a single tid
/// (a collision needs two distinct rows on the same 64-bit hash), so the
/// one-element case stays allocation-free and the spilled case is boxed:
/// the whole enum is 16 bytes, half a `Vec`-carrying payload.
#[derive(Debug, Clone)]
enum Bucket {
    One(Tid),
    #[allow(clippy::box_collection)] // the indirection is the point: 16-byte enum
    Many(Box<Vec<Tid>>),
}

impl ContentMap {
    /// Hash of a row's content (order-sensitive over the cells).
    pub fn hash_key(key: &[Vid]) -> u64 {
        let mut h = WordHasher::default();
        for vid in key {
            h.write_u32(vid.raw());
        }
        h.write_usize(key.len());
        h.finish()
    }

    /// Tid of the row whose content equals `key`, verified cell-by-cell
    /// against `store`.
    pub fn get(&self, store: &ColumnStore, key: &[Vid]) -> Option<Tid> {
        let same = |tid: &Tid| {
            store.position_of(*tid).is_some_and(|pos| {
                key.len() == store.arity()
                    && key
                        .iter()
                        .enumerate()
                        .all(|(col, &vid)| store.vid_at(pos, col) == Some(vid))
            })
        };
        match self.map.get(&Self::hash_key(key))? {
            Bucket::One(tid) => same(tid).then_some(*tid),
            Bucket::Many(tids) => tids.iter().find(|t| same(t)).copied(),
        }
    }

    /// Record `tid` as carrying `key`'s content.
    pub fn insert(&mut self, key: &[Vid], tid: Tid) {
        match self.map.entry(Self::hash_key(key)) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(Bucket::One(tid));
            }
            std::collections::hash_map::Entry::Occupied(mut e) => match e.get_mut() {
                Bucket::One(first) => {
                    let first = *first;
                    if first != tid {
                        e.insert(Bucket::Many(Box::new(vec![first, tid])));
                    }
                }
                Bucket::Many(tids) => {
                    if !tids.contains(&tid) {
                        tids.push(tid);
                    }
                }
            },
        }
    }

    /// Forget `tid` under `key`'s content hash (no-op if absent).
    pub fn remove(&mut self, key: &[Vid], tid: Tid) {
        let hash = Self::hash_key(key);
        let emptied = match self.map.get_mut(&hash) {
            Some(Bucket::One(t)) => *t == tid,
            Some(Bucket::Many(tids)) => {
                tids.retain(|&t| t != tid);
                tids.is_empty()
            }
            None => false,
        };
        if emptied {
            self.map.remove(&hash);
        }
    }

    /// Estimated retained heap bytes: hash → bucket entries plus the rare
    /// spilled collision vectors.
    pub fn heap_bytes(&self) -> usize {
        let spill: usize = self
            .map
            .values()
            .map(|b| match b {
                Bucket::One(_) => 0,
                Bucket::Many(tids) => {
                    std::mem::size_of::<Vec<Tid>>() + tids.capacity() * std::mem::size_of::<Tid>()
                }
            })
            .sum();
        spill
            + self.map.capacity() * (std::mem::size_of::<u64>() + std::mem::size_of::<Bucket>() + 8)
    }

    /// Release over-allocated map capacity (contents untouched).
    pub fn shrink_to_fit(&mut self) {
        self.map.shrink_to_fit();
        for bucket in self.map.values_mut() {
            if let Bucket::Many(tids) = bucket {
                tids.shrink_to_fit();
            }
        }
    }
}

/// A borrowed view of one row's vids — either a position in a
/// [`ColumnStore`] or a contiguous slice (overlay rows in views).
#[derive(Debug, Clone, Copy)]
pub enum VidRow<'a> {
    /// A row of a column store.
    Columns {
        /// The owning store.
        store: &'a ColumnStore,
        /// Row position.
        pos: usize,
    },
    /// A materialized row (e.g. a view's insert overlay).
    Slice(&'a [Vid]),
}

impl VidRow<'_> {
    /// Number of cells.
    pub fn arity(&self) -> usize {
        match self {
            VidRow::Columns { store, .. } => store.arity(),
            VidRow::Slice(s) => s.len(),
        }
    }

    /// Vid at column `col`.
    pub fn at(&self, col: usize) -> Option<Vid> {
        match self {
            VidRow::Columns { store, pos } => store.vid_at(*pos, col),
            VidRow::Slice(s) => s.get(col).copied(),
        }
    }

    /// Copy the row into an owned key.
    pub fn to_key(&self) -> Box<[Vid]> {
        match self {
            VidRow::Columns { store, pos } => store.row_key(*pos),
            VidRow::Slice(s) => (*s).into(),
        }
    }

    /// Project the given columns into an owned key; `None` if any column is
    /// out of range.
    pub fn project(&self, cols: &[usize]) -> Option<Box<[Vid]>> {
        cols.iter().map(|&c| self.at(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::ValueDict;
    use crate::value::Value;

    fn vids(dict: &ValueDict, vals: &[i64]) -> Vec<Vid> {
        vals.iter().map(|&i| dict.intern(&Value::Int(i))).collect()
    }

    #[test]
    fn push_and_read_back() {
        let dict = ValueDict::new();
        let mut s = ColumnStore::new(2);
        assert!(s.push(Tid(1), &vids(&dict, &[10, 20])));
        assert!(s.push(Tid(5), &vids(&dict, &[30, 40])));
        assert_eq!(s.len(), 2);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.tid_at(1), Some(Tid(5)));
        assert_eq!(s.position_of(Tid(5)), Some(1));
        assert_eq!(s.position_of(Tid(2)), None);
        assert_eq!(s.vid_at(0, 1), Some(dict.intern(&Value::Int(20))));
        let row = s.row(1).unwrap();
        assert_eq!(row.arity(), 2);
        assert_eq!(row.at(0), Some(dict.intern(&Value::Int(30))));
        assert_eq!(row.at(9), None);
    }

    #[test]
    fn push_rejects_bad_rows() {
        let dict = ValueDict::new();
        let mut s = ColumnStore::new(2);
        assert!(!s.push(Tid(1), &vids(&dict, &[1])));
        assert!(s.push(Tid(2), &vids(&dict, &[1, 2])));
        // Non-increasing tid.
        assert!(!s.push(Tid(2), &vids(&dict, &[3, 4])));
        assert!(!s.push(Tid(1), &vids(&dict, &[3, 4])));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn remove_shifts_positions() {
        let dict = ValueDict::new();
        let mut s = ColumnStore::new(1);
        for i in 1..=3 {
            s.push(Tid(i), &vids(&dict, &[i as i64 * 10]));
        }
        let removed = s.remove(Tid(2)).unwrap();
        assert_eq!(removed.len(), 1);
        assert_eq!(s.len(), 2);
        assert_eq!(s.position_of(Tid(3)), Some(1));
        assert!(s.remove(Tid(2)).is_none());
        // Re-inserting with a later tid keeps the spine sorted.
        assert!(s.push(Tid(9), &vids(&dict, &[99])));
        assert_eq!(s.tids(), &[Tid(1), Tid(3), Tid(9)]);
    }

    #[test]
    fn set_vid_updates_in_place() {
        let dict = ValueDict::new();
        let mut s = ColumnStore::new(2);
        s.push(Tid(1), &vids(&dict, &[1, 2]));
        let nine = dict.intern(&Value::Int(9));
        assert!(s.set_vid(0, 1, nine));
        assert!(!s.set_vid(0, 5, nine));
        assert!(!s.set_vid(5, 0, nine));
        assert_eq!(s.vid_at(0, 1), Some(nine));
        assert_eq!(s.tid_at(0), Some(Tid(1)));
    }

    #[test]
    fn content_map_verifies_against_the_columns() {
        let dict = ValueDict::new();
        let mut s = ColumnStore::new(2);
        let mut m = ContentMap::default();
        for (tid, row) in [(1u64, [1i64, 2]), (2, [3, 4]), (3, [1, 2])] {
            let key = vids(&dict, &row);
            s.push(Tid(tid), &key);
            m.insert(&key, Tid(tid));
        }
        let k12 = vids(&dict, &[1, 2]);
        let k34 = vids(&dict, &[3, 4]);
        assert_eq!(m.get(&s, &k12), Some(Tid(1)));
        assert_eq!(m.get(&s, &k34), Some(Tid(2)));
        assert_eq!(m.get(&s, &vids(&dict, &[9, 9])), None);
        // Duplicate content resolves to the surviving copy after removal.
        m.remove(&k12, Tid(1));
        s.remove(Tid(1));
        assert_eq!(m.get(&s, &k12), Some(Tid(3)));
        // An entry whose row left the store no longer verifies.
        s.remove(Tid(2));
        assert_eq!(m.get(&s, &k34), None);
        m.remove(&k34, Tid(2));
        assert_eq!(m.get(&s, &k34), None);
        assert!(m.heap_bytes() > 0);
    }

    #[test]
    fn rows_and_keys() {
        let dict = ValueDict::new();
        let mut s = ColumnStore::new(3);
        s.push(Tid(1), &vids(&dict, &[1, 2, 3]));
        s.push(Tid(2), &vids(&dict, &[4, 5, 6]));
        let collected: Vec<(Tid, Box<[Vid]>)> =
            s.rows().map(|(tid, row)| (tid, row.to_key())).collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(collected[0].0, Tid(1));
        assert_eq!(collected[1].1, vids(&dict, &[4, 5, 6]).into());
        let row = s.row(0).unwrap();
        assert_eq!(row.project(&[2, 0]), Some(vids(&dict, &[3, 1]).into()));
        assert_eq!(row.project(&[7]), None);
        let slice_row = VidRow::Slice(&collected[1].1);
        assert_eq!(slice_row.at(1), Some(dict.intern(&Value::Int(5))));
        assert_eq!(slice_row.to_key(), collected[1].1);
    }
}
