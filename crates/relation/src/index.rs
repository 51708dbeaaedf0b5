//! The typed index family over columnar storage.
//!
//! Two index shapes, both keyed on [`Vid`]s (word-sized, hashed with the
//! specialized [`crate::fxhash::WordHasher`]) and both storing *row
//! positions* into the owning [`ColumnStore`]:
//!
//! - [`HashIndex`]: a multi-column equality index. Replaces the old
//!   one-column `ColumnIndex` cache — a join can now probe on *every* bound
//!   position of an atom at once.
//! - [`SortedIndex`]: a single-column index sorted in **resolved value
//!   order** (via [`ValueDict::cmp_vids`]'s resolve path, never raw id
//!   order), serving range and order probes.
//!
//! Indexes describe the base store. The [`crate::Database`] cache that owns
//! them patches each one through a `RowEdit` on every insert, delete and
//! one-cell update, so a maintained index always equals the one a fresh
//! build over the new store would give: hash buckets stay ascending, and
//! sorted entries stay in (value, position) order. A delete shifts the
//! postings behind the removed row down by one in a single linear pass; no
//! write rehashes or re-sorts. Views layered on top filter deleted tids and
//! union their insert overlay at probe time.

use crate::column::ColumnStore;
use crate::dict::{ValueDict, Vid};
use crate::fxhash::WordHashMap;
use crate::value::Value;
use std::cmp::Ordering;
use std::ops::{Bound, Range};

/// One write to a relation's store, as the indexes and statistics that
/// describe the store see it. `row` is always the content of the row the
/// write concerns: the appended row, the removed row, or the updated row
/// after the update.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RowEdit<'a> {
    /// `row` was appended at position `pos`, after every other row.
    Push { pos: u32, row: &'a [Vid] },
    /// The row at `pos` was removed; every later row moved down by one.
    Remove { pos: u32, row: &'a [Vid] },
    /// Cell `col` of the row at `pos` changed from `old` to `row[col]`.
    Set {
        pos: u32,
        col: usize,
        old: Vid,
        row: &'a [Vid],
    },
}

/// Move every posting above `pos` down by one (a row before it left).
fn shift_postings(rows: &mut [u32], pos: u32) {
    let from = rows.partition_point(|&p| p <= pos);
    for p in rows.iter_mut().skip(from) {
        *p -= 1;
    }
}

/// A multi-column hash index: projected vid key → row positions (ascending).
#[derive(Debug, Clone, PartialEq)]
pub struct HashIndex {
    cols: Box<[usize]>,
    /// Single-column indexes key on the vid directly (no per-probe
    /// allocation); multi-column ones on the projected key.
    keyed: Keyed,
}

#[derive(Debug, Clone, PartialEq)]
enum Keyed {
    One(WordHashMap<Vid, Vec<u32>>),
    Many(WordHashMap<Box<[Vid]>, Vec<u32>>),
}

impl HashIndex {
    /// Build over `store`, keying on `cols` (deduplicated, in the given
    /// order). Returns `None` if `cols` is empty or any column is out of
    /// range.
    pub fn build(store: &ColumnStore, cols: &[usize]) -> Option<HashIndex> {
        if cols.is_empty() || cols.iter().any(|&c| c >= store.arity()) {
            return None;
        }
        let keyed = if let [col] = cols {
            let mut map: WordHashMap<Vid, Vec<u32>> = WordHashMap::default();
            for (pos, &vid) in store.column(*col).iter().enumerate() {
                map.entry(vid).or_default().push(pos as u32);
            }
            Keyed::One(map)
        } else {
            let mut map: WordHashMap<Box<[Vid]>, Vec<u32>> = WordHashMap::default();
            for pos in 0..store.len() {
                let key: Box<[Vid]> = cols.iter().filter_map(|&c| store.vid_at(pos, c)).collect();
                map.entry(key).or_default().push(pos as u32);
            }
            Keyed::Many(map)
        };
        Some(HashIndex {
            cols: cols.into(),
            keyed,
        })
    }

    /// The key columns, in key order.
    pub fn columns(&self) -> &[usize] {
        &self.cols
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        match &self.keyed {
            Keyed::One(m) => m.len(),
            Keyed::Many(m) => m.len(),
        }
    }

    /// Row positions whose projection equals `key` (ascending). The key
    /// must have one vid per key column.
    pub fn rows_for(&self, key: &[Vid]) -> &[u32] {
        match (&self.keyed, key) {
            (Keyed::One(m), [vid]) => m.get(vid).map_or(&[], Vec::as_slice),
            (Keyed::Many(m), _) if key.len() == self.cols.len() => {
                m.get(key).map_or(&[], Vec::as_slice)
            }
            _ => &[],
        }
    }

    /// Single-vid probe for one-column indexes (allocation-free).
    pub fn rows_for_vid(&self, vid: Vid) -> &[u32] {
        match &self.keyed {
            Keyed::One(m) => m.get(&vid).map_or(&[], Vec::as_slice),
            Keyed::Many(_) => &[],
        }
    }

    /// Patch the index for one write to its store.
    pub(crate) fn apply(&mut self, edit: &RowEdit<'_>) {
        match *edit {
            RowEdit::Push { pos, row } => {
                if let Some(key) = self.key_of(row) {
                    self.post(&key, pos);
                }
            }
            RowEdit::Remove { pos, row } => {
                if let Some(key) = self.key_of(row) {
                    self.unpost(&key, pos);
                }
                match &mut self.keyed {
                    Keyed::One(m) => m.values_mut().for_each(|rows| shift_postings(rows, pos)),
                    Keyed::Many(m) => m.values_mut().for_each(|rows| shift_postings(rows, pos)),
                }
            }
            RowEdit::Set { pos, col, old, row } => {
                if !self.cols.contains(&col) {
                    return;
                }
                let Some(new_key) = self.key_of(row) else {
                    return;
                };
                let old_key: Vec<Vid> = self
                    .cols
                    .iter()
                    .zip(&new_key)
                    .map(|(&c, &vid)| if c == col { old } else { vid })
                    .collect();
                self.unpost(&old_key, pos);
                self.post(&new_key, pos);
            }
        }
    }

    /// A row's projection onto the key columns.
    fn key_of(&self, row: &[Vid]) -> Option<Vec<Vid>> {
        self.cols.iter().map(|&c| row.get(c).copied()).collect()
    }

    /// Add `pos` to `key`'s posting list, keeping it ascending.
    fn post(&mut self, key: &[Vid], pos: u32) {
        let rows = match (&mut self.keyed, key) {
            (Keyed::One(m), [vid]) => m.entry(*vid).or_default(),
            (Keyed::Many(m), _) => m.entry(key.into()).or_default(),
            _ => return,
        };
        if let Err(at) = rows.binary_search(&pos) {
            rows.insert(at, pos);
        }
    }

    /// Remove `pos` from `key`'s posting list, dropping the key when its
    /// list empties (a fresh build has no empty buckets).
    fn unpost(&mut self, key: &[Vid], pos: u32) {
        let unposted = |rows: &mut Vec<u32>| {
            if let Ok(at) = rows.binary_search(&pos) {
                rows.remove(at);
            }
            rows.is_empty()
        };
        match (&mut self.keyed, key) {
            (Keyed::One(m), [vid]) => {
                let emptied = m.get_mut(vid).is_some_and(unposted);
                if emptied {
                    m.remove(vid);
                }
            }
            (Keyed::Many(m), _) => {
                let emptied = m.get_mut(key).is_some_and(unposted);
                if emptied {
                    m.remove(key);
                }
            }
            _ => {}
        }
    }

    /// Estimated retained heap bytes (buckets + keys).
    pub fn heap_bytes(&self) -> usize {
        let bucket = |rows: &Vec<u32>| rows.capacity() * 4;
        match &self.keyed {
            Keyed::One(m) => m.values().map(bucket).sum::<usize>() + m.capacity() * 16,
            Keyed::Many(m) => {
                m.iter()
                    .map(|(k, rows)| k.len() * 4 + bucket(rows))
                    .sum::<usize>()
                    + m.capacity() * 24
            }
        }
    }
}

/// The cells of one vid in [`SortedIndex::build`]: the range `cells` of the
/// sorted cells, and `value`, the vid's value, or `None` for an inline
/// integer.
struct Run {
    vid: Vid,
    value: Option<Value>,
    cells: Range<usize>,
}

impl Run {
    /// Value order: two inline integers by raw id, anything else by value.
    fn cmp_value(&self, other: &Run) -> Ordering {
        let int = |vid: Vid| vid.inline_value().unwrap_or(Value::NULL);
        match (&self.value, &other.value) {
            (None, None) => self.vid.raw().cmp(&other.vid.raw()),
            (Some(a), Some(b)) => a.cmp(b),
            (None, Some(b)) => int(self.vid).cmp(b),
            (Some(a), None) => a.cmp(&int(other.vid)),
        }
    }
}

/// A single-column index sorted by **resolved value order** (ties broken by
/// row position, i.e. tid order — deterministic at any thread count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedIndex {
    col: usize,
    /// `(vid, row position)` sorted by `(value order of vid, position)`.
    entries: Vec<(Vid, u32)>,
}

impl SortedIndex {
    /// Build over one column of `store`, in `(value, position)` order.
    ///
    /// The cells are sorted as words first: `(raw vid, position)` packed in
    /// one `u64`, which groups equal vids into runs in position order. Only
    /// the runs, one per distinct vid, are then put in value order: two
    /// inline integers compare by raw id, whose offset encoding keeps their
    /// order, and every other vid is resolved once. On a column of inline
    /// integers the runs are already in value order, so the second sort is
    /// one pass.
    pub fn build(store: &ColumnStore, col: usize, dict: &ValueDict) -> Option<SortedIndex> {
        if col >= store.arity() {
            return None;
        }
        let mut cells: Vec<u64> = store
            .column(col)
            .iter()
            .zip(0u32..)
            .map(|(vid, pos)| (u64::from(vid.raw()) << 32) | u64::from(pos))
            .collect();
        cells.sort_unstable();
        let mut runs: Vec<Run> = Vec::new();
        for (at, &cell) in cells.iter().enumerate() {
            let vid = Vid::from_raw((cell >> 32) as u32);
            match runs.last_mut() {
                Some(run) if run.vid == vid => run.cells.end = at + 1,
                _ => runs.push(Run {
                    vid,
                    value: (!vid.is_inline_int()).then(|| dict.resolve(vid).unwrap_or(Value::NULL)),
                    cells: at..at + 1,
                }),
            }
        }
        // Distinct vids hold distinct values (the dictionary canonicalizes),
        // so no two runs tie.
        runs.sort_by(Run::cmp_value);
        let mut entries = Vec::with_capacity(cells.len());
        for run in &runs {
            let positions = cells.get(run.cells.clone()).unwrap_or(&[]);
            entries.extend(positions.iter().map(|&cell| (run.vid, cell as u32)));
        }
        Some(SortedIndex { col, entries })
    }

    /// The indexed column.
    pub fn column(&self) -> usize {
        self.col
    }

    /// All `(vid, row position)` entries in value order.
    pub fn entries(&self) -> &[(Vid, u32)] {
        &self.entries
    }

    /// The contiguous run of entries whose value lies in `(lo, hi)`.
    ///
    /// Bounds compare in structural [`Value`] order (nulls sort first,
    /// then bools, ints/floats numerically, then strings) — a comparison
    /// consumer that must skip nulls under SQL semantics filters the run.
    pub fn range(&self, dict: &ValueDict, lo: Bound<&Value>, hi: Bound<&Value>) -> &[(Vid, u32)] {
        let resolve = |vid: Vid| dict.resolve(vid).unwrap_or(Value::NULL);
        let start = match lo {
            Bound::Unbounded => 0,
            Bound::Included(v) => self.entries.partition_point(|&(vid, _)| resolve(vid) < *v),
            Bound::Excluded(v) => self.entries.partition_point(|&(vid, _)| resolve(vid) <= *v),
        };
        let end = match hi {
            Bound::Unbounded => self.entries.len(),
            Bound::Included(v) => self.entries.partition_point(|&(vid, _)| resolve(vid) <= *v),
            Bound::Excluded(v) => self.entries.partition_point(|&(vid, _)| resolve(vid) < *v),
        };
        self.entries.get(start..end.max(start)).unwrap_or(&[])
    }

    /// Patch the index for one write to its store.
    pub(crate) fn apply(&mut self, edit: &RowEdit<'_>, dict: &ValueDict) {
        match *edit {
            RowEdit::Push { pos, row } => {
                if let Some(&vid) = row.get(self.col) {
                    self.insert(dict, vid, pos);
                }
            }
            RowEdit::Remove { pos, .. } => {
                self.entries.retain_mut(|(_, p)| {
                    if *p == pos {
                        return false;
                    }
                    if *p > pos {
                        *p -= 1;
                    }
                    true
                });
            }
            RowEdit::Set { pos, col, old, row } => {
                if col != self.col {
                    return;
                }
                let Some(&new) = row.get(col) else {
                    return;
                };
                if let Some(at) = self.find(dict, old, pos) {
                    self.entries.remove(at);
                }
                self.insert(dict, new, pos);
            }
        }
    }

    /// Where `(vid, pos)` sits in `(value, position)` order.
    fn slot(&self, dict: &ValueDict, vid: Vid, pos: u32) -> usize {
        self.entries
            .partition_point(|&(e, p)| dict.cmp_vids(e, vid).then(p.cmp(&pos)) == Ordering::Less)
    }

    fn find(&self, dict: &ValueDict, vid: Vid, pos: u32) -> Option<usize> {
        let at = self.slot(dict, vid, pos);
        (self.entries.get(at) == Some(&(vid, pos))).then_some(at)
    }

    fn insert(&mut self, dict: &ValueDict, vid: Vid, pos: u32) {
        let at = self.slot(dict, vid, pos);
        self.entries.insert(at, (vid, pos));
    }

    /// Estimated retained heap bytes.
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(Vid, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tid;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn store(dict: &ValueDict, rows: &[(&str, i64)]) -> ColumnStore {
        let mut s = ColumnStore::new(2);
        for (i, (name, num)) in rows.iter().enumerate() {
            let vids = [
                dict.intern(&Value::str(name)),
                dict.intern(&Value::Int(*num)),
            ];
            assert!(s.push(Tid(i as u64 + 1), &vids));
        }
        s
    }

    #[test]
    fn single_column_hash_index() {
        let dict = ValueDict::new();
        let s = store(&dict, &[("a", 1), ("b", 2), ("a", 3)]);
        let ix = HashIndex::build(&s, &[0]).unwrap();
        assert_eq!(ix.columns(), &[0]);
        assert_eq!(ix.distinct_keys(), 2);
        let a = dict.intern(&Value::str("a"));
        assert_eq!(ix.rows_for_vid(a), &[0, 2]);
        assert_eq!(ix.rows_for(&[a]), &[0, 2]);
        assert!(ix.rows_for_vid(dict.intern(&Value::str("zzz"))).is_empty());
    }

    #[test]
    fn multi_column_hash_index() {
        let dict = ValueDict::new();
        let s = store(&dict, &[("a", 1), ("a", 1), ("a", 2), ("b", 1)]);
        let ix = HashIndex::build(&s, &[0, 1]).unwrap();
        let key = [dict.intern(&Value::str("a")), dict.intern(&Value::Int(1))];
        assert_eq!(ix.rows_for(&key), &[0, 1]);
        // Wrong-width probes miss instead of panicking.
        assert!(ix.rows_for(&key[..1]).is_empty());
        assert_eq!(ix.distinct_keys(), 3);
    }

    #[test]
    fn build_rejects_bad_columns() {
        let dict = ValueDict::new();
        let s = store(&dict, &[("a", 1)]);
        assert!(HashIndex::build(&s, &[]).is_none());
        assert!(HashIndex::build(&s, &[7]).is_none());
        assert!(SortedIndex::build(&s, 9, &dict).is_none());
    }

    #[test]
    fn sorted_index_orders_by_value_not_vid() {
        let dict = ValueDict::new();
        // Intern in an order different from value order so raw-id order and
        // value order disagree.
        let s = store(&dict, &[("zeta", 30), ("alpha", 10), ("mid", 20)]);
        let ix = SortedIndex::build(&s, 0, &dict).unwrap();
        let names: Vec<Value> = ix
            .entries()
            .iter()
            .map(|&(vid, _)| dict.resolve(vid).unwrap())
            .collect();
        assert_eq!(
            names,
            vec![Value::str("alpha"), Value::str("mid"), Value::str("zeta")]
        );
    }

    #[test]
    fn sorted_index_range_probes() {
        let dict = ValueDict::new();
        let mut s = ColumnStore::new(1);
        for (i, v) in [5i64, -3, 12, 0, 7].iter().enumerate() {
            s.push(Tid(i as u64 + 1), &[dict.intern(&Value::Int(*v))]);
        }
        let ix = SortedIndex::build(&s, 0, &dict).unwrap();
        let in_range: Vec<i64> = ix
            .range(
                &dict,
                Bound::Included(&Value::Int(0)),
                Bound::Excluded(&Value::Int(12)),
            )
            .iter()
            .filter_map(|&(vid, _)| match dict.resolve(vid) {
                Some(Value::Int(i)) => Some(i),
                _ => None,
            })
            .collect();
        assert_eq!(in_range, vec![0, 5, 7]);
        // Open-ended ranges.
        assert_eq!(ix.range(&dict, Bound::Unbounded, Bound::Unbounded).len(), 5);
        let below: Vec<i64> = ix
            .range(&dict, Bound::Unbounded, Bound::Excluded(&Value::Int(0)))
            .iter()
            .filter_map(|&(vid, _)| match dict.resolve(vid) {
                Some(Value::Int(i)) => Some(i),
                _ => None,
            })
            .collect();
        assert_eq!(below, vec![-3]);
    }

    #[test]
    fn sorted_index_mixed_types_follow_value_order() {
        let dict = ValueDict::new();
        let mut s = ColumnStore::new(1);
        let vals = [
            Value::str("s"),
            Value::Int(1),
            Value::NULL,
            Value::Bool(true),
            Value::Float(0.5),
        ];
        for (i, v) in vals.iter().enumerate() {
            s.push(Tid(i as u64 + 1), &[dict.intern(v)]);
        }
        let ix = SortedIndex::build(&s, 0, &dict).unwrap();
        let sorted: Vec<Value> = ix
            .entries()
            .iter()
            .map(|&(vid, _)| dict.resolve(vid).unwrap())
            .collect();
        let mut expect = vals.to_vec();
        expect.sort();
        assert_eq!(sorted, expect);
    }

    /// A cell from small pools, so values repeat: inline integers, integers
    /// too large to inline, integral floats (stored as integers), other
    /// floats (including `-0.0`), strings, bools and labelled nulls.
    fn mixed_value(rng: &mut SmallRng) -> Value {
        match rng.gen_range(0..8) {
            0 | 1 => Value::Int(rng.gen_range(-3..4)),
            2 => Value::Int((1i64 << 40) * rng.gen_range(-2..3)),
            3 => Value::Float(rng.gen_range(-4..5) as f64 * 0.75),
            4 => Value::Float(-0.0),
            5 => Value::str(["", "a", "ab", "b"][rng.gen_range(0..4)]),
            6 => Value::Bool(rng.gen_bool(0.5)),
            _ => Value::Null(rng.gen_range(0..3)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `SortedIndex::build` orders a mixed column exactly as sorting
        /// its cells by `(value, position)` does.
        #[test]
        fn sorted_index_build_matches_value_order(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let dict = ValueDict::new();
            let mut s = ColumnStore::new(1);
            for i in 0..rng.gen_range(0..60u64) {
                let vid = dict.intern(&mixed_value(&mut rng));
                prop_assert!(s.push(Tid(i + 1), &[vid]));
            }
            let ix = SortedIndex::build(&s, 0, &dict).unwrap();
            let mut cells: Vec<(Value, u32, Vid)> = s
                .column(0)
                .iter()
                .enumerate()
                .map(|(pos, &vid)| (dict.resolve(vid).unwrap(), pos as u32, vid))
                .collect();
            cells.sort();
            let want: Vec<(Vid, u32)> = cells.into_iter().map(|(_, pos, vid)| (vid, pos)).collect();
            prop_assert_eq!(ix.entries(), &want[..]);
        }
    }
}
