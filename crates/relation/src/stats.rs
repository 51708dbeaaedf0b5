//! Per-relation column statistics for cost-based join planning.
//!
//! A [`ColumnStats`] summarizes one relation's columns: the row count and,
//! per column, how many rows hold each distinct [`Vid`]. The distinct
//! counts are therefore exact, and an insert, a delete or a one-cell
//! update moves one count per touched column, so the [`crate::Database`]
//! cache keeps them current across writes instead of rebuilding them.
//! Vid equality is value equality, so counting vids needs no dictionary
//! access, and the same content always yields the same numbers, on every
//! thread, with no randomness and no clock.
//!
//! Statistics feed planning only: they influence which join order the
//! evaluator picks, never which answers it produces.

use crate::column::ColumnStore;
use crate::dict::Vid;
use crate::fxhash::WordHashMap;
use crate::index::RowEdit;

/// Row count plus exact per-column distinct-vid counts for one relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnStats {
    rows: usize,
    /// Per column (aligned with the store's arity): vid → rows holding it.
    /// A vid no row holds has no entry.
    counts: Vec<WordHashMap<Vid, u32>>,
}

impl ColumnStats {
    /// Count every column of `store`.
    pub fn build(store: &ColumnStore) -> ColumnStats {
        let counts = (0..store.arity())
            .map(|col| {
                let mut seen: WordHashMap<Vid, u32> = WordHashMap::default();
                for &vid in store.column(col) {
                    *seen.entry(vid).or_default() += 1;
                }
                seen
            })
            .collect();
        ColumnStats {
            rows: store.len(),
            counts,
        }
    }

    /// Total rows in the relation.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Distinct vids in `col` (0 only when the relation is empty or `col`
    /// is out of range).
    pub fn distinct(&self, col: usize) -> usize {
        self.counts.get(col).map_or(0, WordHashMap::len)
    }

    /// Estimated rows matching an equality probe on every column in `cols`:
    /// `rows / Π distinct(col)`, floored at 1, in saturating integer
    /// arithmetic (no floats — planning must be bit-deterministic).
    pub fn probe_estimate(&self, cols: &[usize]) -> u128 {
        if self.rows == 0 {
            return 0;
        }
        let mut est = self.rows as u128;
        for &col in cols {
            let d = self.distinct(col).max(1) as u128;
            est = (est / d).max(1);
        }
        est
    }

    /// Patch the counts for one write to the relation's store.
    pub(crate) fn apply(&mut self, edit: &RowEdit<'_>) {
        match *edit {
            RowEdit::Push { row, .. } => {
                self.rows += 1;
                for (col, &vid) in row.iter().enumerate() {
                    if let Some(seen) = self.counts.get_mut(col) {
                        *seen.entry(vid).or_default() += 1;
                    }
                }
            }
            RowEdit::Remove { row, .. } => {
                self.rows = self.rows.saturating_sub(1);
                for (col, &vid) in row.iter().enumerate() {
                    if let Some(seen) = self.counts.get_mut(col) {
                        uncount(seen, vid);
                    }
                }
            }
            RowEdit::Set { col, old, row, .. } => {
                if let (Some(seen), Some(&new)) = (self.counts.get_mut(col), row.get(col)) {
                    uncount(seen, old);
                    *seen.entry(new).or_default() += 1;
                }
            }
        }
    }
}

/// Take one row off `vid`'s count, dropping the entry at zero.
fn uncount(seen: &mut WordHashMap<Vid, u32>, vid: Vid) {
    if let Some(n) = seen.get_mut(&vid) {
        *n = n.saturating_sub(1);
        if *n == 0 {
            seen.remove(&vid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_of(rows: &[&[u32]]) -> ColumnStore {
        let arity = rows.first().map_or(0, |r| r.len());
        let mut store = ColumnStore::new(arity);
        for (i, row) in rows.iter().enumerate() {
            let key: Vec<Vid> = row.iter().map(|&v| Vid::table(v)).collect();
            store.push(crate::Tid(i as u64 + 1), &key);
        }
        store
    }

    #[test]
    fn exact_stats_for_small_relations() {
        let store = store_of(&[&[1, 10], &[1, 11], &[2, 12], &[2, 12]]);
        let stats = ColumnStats::build(&store);
        assert_eq!(stats.rows(), 4);
        assert_eq!(stats.distinct(0), 2);
        assert_eq!(stats.distinct(1), 3);
        assert_eq!(stats.distinct(9), 0); // out of range
    }

    #[test]
    fn probe_estimate_divides_by_distinct() {
        let store = store_of(&[&[1, 10], &[1, 11], &[2, 12], &[2, 13]]);
        let stats = ColumnStats::build(&store);
        assert_eq!(stats.probe_estimate(&[0]), 2); // 4 rows / 2 distinct
        assert_eq!(stats.probe_estimate(&[0, 1]), 1); // floored at 1
        assert_eq!(stats.probe_estimate(&[]), 4); // no bound column: scan
    }

    #[test]
    fn empty_relation_has_zero_stats() {
        let store = ColumnStore::new(2);
        let stats = ColumnStats::build(&store);
        assert_eq!(stats.rows(), 0);
        assert_eq!(stats.distinct(0), 0);
        assert_eq!(stats.probe_estimate(&[0]), 0);
    }

    #[test]
    fn distinct_counts_stay_exact_on_large_relations() {
        // Above the 4 096 rows where a stride sample used to scale its
        // distinct count up by the stride (a 50-value column read 650).
        let mut store = ColumnStore::new(2);
        for i in 0..10_000u32 {
            store.push(
                crate::Tid(i as u64 + 1),
                &[Vid::table(i % 50), Vid::table(i)],
            );
        }
        let stats = ColumnStats::build(&store);
        assert_eq!(stats, ColumnStats::build(&store)); // deterministic
        assert_eq!(stats.distinct(0), 50);
        assert_eq!(stats.distinct(1), 10_000);
        assert_eq!(stats.probe_estimate(&[0]), 200);
    }

    #[test]
    fn edits_keep_counts_equal_to_a_fresh_build() {
        let mut store = store_of(&[&[1, 10], &[1, 11], &[2, 12]]);
        let mut stats = ColumnStats::build(&store);
        // Append, update a cell, then remove a row: after each, the patched
        // counts equal a recount.
        let row = [Vid::table(3), Vid::table(10)];
        store.push(crate::Tid(9), &row);
        stats.apply(&RowEdit::Push { pos: 3, row: &row });
        assert_eq!(stats, ColumnStats::build(&store));
        store.set_vid(0, 1, Vid::table(12));
        let updated = store.row_key(0);
        stats.apply(&RowEdit::Set {
            pos: 0,
            col: 1,
            old: Vid::table(10),
            row: &updated,
        });
        assert_eq!(stats, ColumnStats::build(&store));
        let removed = store.remove(crate::Tid(2)).unwrap();
        stats.apply(&RowEdit::Remove {
            pos: 1,
            row: &removed,
        });
        assert_eq!(stats, ColumnStats::build(&store));
        assert_eq!(
            (stats.rows(), stats.distinct(0), stats.distinct(1)),
            (3, 3, 2)
        );
    }
}
