//! The repair representation shared by every repair semantics.
//!
//! A [`Repair`] is stored as a *copy-on-write delta* over a shared base
//! instance: the deleted tids and inserted tuples are the repair; the
//! materialized [`Database`] and the content-level [`Change`] set are built
//! lazily on first access and cached. Enumeration over `2^k` repairs
//! therefore never pays for an instance clone unless a caller explicitly
//! asks for one.

use cqa_relation::{Database, DeltaView, Tid, Tuple};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// One element of a symmetric difference `D Δ D'`: a deleted original tuple
/// or an inserted new tuple.
///
/// Changes are compared by *content*, not by tid, so deltas of different
/// repairs are set-comparable even when insertions received different tids.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Change {
    /// Deletion of an original tuple.
    Delete {
        /// Relation the tuple lived in.
        relation: String,
        /// The deleted tuple.
        tuple: Tuple,
    },
    /// Insertion of a new tuple.
    Insert {
        /// Relation the tuple goes to.
        relation: String,
        /// The inserted tuple.
        tuple: Tuple,
    },
}

impl fmt::Display for Change {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Change::Delete { relation, tuple } => write!(f, "- {relation}{tuple}"),
            Change::Insert { relation, tuple } => write!(f, "+ {relation}{tuple}"),
        }
    }
}

/// A repair of an original instance: a delta over a shared base, with the
/// repaired instance and the content-level delta computed on demand.
///
/// The `deleted`/`inserted` fields are the authoritative representation;
/// mutating them after [`Repair::db`] or [`Repair::delta`] has been called
/// desynchronizes the caches, so treat a repair as immutable once built.
#[derive(Debug, Clone)]
pub struct Repair {
    /// The shared original instance the delta applies to.
    base: Arc<Database>,
    /// Tids (of the *original* instance) that were deleted.
    pub deleted: BTreeSet<Tid>,
    /// Tuples that were inserted, as `(relation, tuple)`.
    pub inserted: Vec<(String, Tuple)>,
    /// Lazily materialized repaired instance.
    materialized: OnceLock<Database>,
    /// Lazily built symmetric difference as content-level changes.
    delta: OnceLock<BTreeSet<Change>>,
}

impl Repair {
    /// Build a repair from a shared original instance and a delta.
    ///
    /// The delta is validated up front (unknown tids, unknown relations,
    /// arity mismatches), so the lazy accessors are infallible. No instance
    /// is cloned: the repair holds `original` by `Arc`.
    pub fn from_delta(
        original: &Arc<Database>,
        deleted: BTreeSet<Tid>,
        inserted: Vec<(String, Tuple)>,
    ) -> cqa_relation::Result<Repair> {
        for &tid in &deleted {
            if original.get(tid).is_none() {
                return Err(cqa_relation::RelationError::UnknownTid(tid.0));
            }
        }
        for (rel, tuple) in &inserted {
            original.check_insertable(rel, tuple)?;
        }
        Ok(Repair {
            base: Arc::clone(original),
            deleted,
            inserted,
            materialized: OnceLock::new(),
            delta: OnceLock::new(),
        })
    }

    /// The shared base (original) instance this repair applies to.
    pub fn base(&self) -> &Arc<Database> {
        &self.base
    }

    /// The repaired, consistent instance — materialized on first access and
    /// cached. Prefer [`Repair::view`] in hot paths: it never clones.
    pub fn db(&self) -> &Database {
        self.materialized.get_or_init(|| {
            let (db, _) = self
                .base
                .with_changes(&self.deleted, &self.inserted)
                .expect("repair delta validated at construction");
            db
        })
    }

    /// Consume the repair and return the materialized instance.
    pub fn into_db(mut self) -> Database {
        self.db();
        self.materialized.take().expect("just materialized")
    }

    /// A zero-clone view of the repaired instance over the shared base.
    ///
    /// View tids (including synthetic tids for insertions) match the tids
    /// [`Repair::db`] would assign, so answers agree byte-for-byte.
    pub fn view(&self) -> DeltaView<'_> {
        DeltaView::new(&self.base, &self.deleted, &self.inserted)
    }

    /// The symmetric difference as content-level changes, built on demand
    /// and cached.
    pub fn delta(&self) -> &BTreeSet<Change> {
        self.delta.get_or_init(|| {
            let mut delta = BTreeSet::new();
            for &tid in &self.deleted {
                let (rel, tuple) = self.base.get(tid).expect("deleted tids validated");
                delta.insert(Change::Delete {
                    relation: rel.to_string(),
                    tuple: tuple.clone(),
                });
            }
            for (rel, tuple) in &self.inserted {
                delta.insert(Change::Insert {
                    relation: rel.clone(),
                    tuple: tuple.clone(),
                });
            }
            delta
        })
    }

    /// `|D Δ D'|` — the cardinality the C-repair semantics minimizes.
    pub fn delta_size(&self) -> usize {
        self.delta().len()
    }

    /// Deletion-only repair?
    pub fn is_deletion_only(&self) -> bool {
        self.inserted.is_empty()
    }
}

impl fmt::Display for Repair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "repair (|Δ| = {}):", self.delta_size())?;
        for c in self.delta() {
            write!(f, " {c}")?;
        }
        Ok(())
    }
}

/// Sort `repairs` by content-level delta — the order `a.delta().cmp(b.delta())`
/// gives — without building any delta. Deletion-only repairs over one base
/// (every hitting-set enumeration yields those) compare as the sorted,
/// deduplicated ranks of their deleted tuples in `(relation, tuple)` order,
/// the order their `Change::Delete`s take, ranked once for the whole list;
/// equal content shares a rank, as equal changes collapse in a delta set.
/// Anything else compares deltas. The sort is stable either way, so the
/// output order is exactly the delta comparator's.
pub(crate) fn sort_by_delta(repairs: &mut Vec<Repair>) {
    let Some(base) = repairs.first().map(|r| Arc::clone(&r.base)) else {
        return;
    };
    if !repairs
        .iter()
        .all(|r| r.is_deletion_only() && Arc::ptr_eq(&r.base, &base))
    {
        repairs.sort_by(|a, b| a.delta().cmp(b.delta()));
        return;
    }
    // One slot per tid of the base. Read each repair's deleted tids once,
    // marking their slots; rank the marked slots; then map the keys.
    const UNSEEN: u32 = u32::MAX;
    let Ok(slots) = u32::try_from(base.tid_watermark()) else {
        repairs.sort_by(|a, b| a.delta().cmp(b.delta()));
        return;
    };
    let mut rank: Vec<u32> = vec![UNSEEN; slots as usize];
    let mut keyed: Vec<(Vec<u32>, Repair)> = std::mem::take(repairs)
        .into_iter()
        .map(|r| {
            let key: Vec<u32> = r
                .deleted
                .iter()
                .map(|t| u32::try_from(t.0).unwrap_or(UNSEEN))
                .collect();
            for &i in &key {
                if let Some(slot) = rank.get_mut(i as usize) {
                    *slot = 0;
                }
            }
            (key, r)
        })
        .collect();
    let mut by_content: Vec<(&str, &Tuple, usize)> = rank
        .iter()
        .enumerate()
        .filter(|&(_, &r)| r != UNSEEN)
        .filter_map(|(i, _)| base.get(Tid(i as u64)).map(|(rel, t)| (rel, t, i)))
        .collect();
    by_content.sort_unstable();
    let mut next = 0u32;
    let mut prev: Option<(&str, &Tuple)> = None;
    for &(rel, tuple, i) in &by_content {
        if prev.is_some_and(|p| p != (rel, tuple)) {
            next += 1;
        }
        prev = Some((rel, tuple));
        if let Some(slot) = rank.get_mut(i) {
            *slot = next;
        }
    }
    for (key, _) in &mut keyed {
        for k in key.iter_mut() {
            *k = rank.get(*k as usize).copied().unwrap_or(UNSEEN);
        }
        key.sort_unstable();
        key.dedup();
    }
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    repairs.extend(keyed.into_iter().map(|(_, r)| r));
}

/// Keep only the ⊆-minimal deltas among `repairs` (the S-repair filter), and
/// drop content-duplicates.
pub fn retain_subset_minimal(repairs: Vec<Repair>) -> Vec<Repair> {
    let mut kept: Vec<Repair> = Vec::with_capacity(repairs.len());
    for r in repairs {
        if kept.iter().any(|k| k.delta().is_subset(r.delta())) {
            continue; // dominated (or duplicate)
        }
        kept.retain(|k| !r.delta().is_subset(k.delta()));
        kept.push(r);
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_relation::{tuple, Facts, RelationSchema};

    fn db() -> Arc<Database> {
        let mut d = Database::new();
        d.create_relation(RelationSchema::new("R", ["A"])).unwrap();
        d.insert("R", tuple!["a"]).unwrap();
        d.insert("R", tuple!["b"]).unwrap();
        Arc::new(d)
    }

    #[test]
    fn from_delta_builds_instance_and_delta() {
        let original = db();
        let r = Repair::from_delta(&original, [Tid(1)].into(), vec![("R".into(), tuple!["c"])])
            .unwrap();
        assert_eq!(r.delta_size(), 2);
        assert!(!r.is_deletion_only());
        assert!(!r.db().relation("R").unwrap().contains(&tuple!["a"]));
        assert!(r.db().relation("R").unwrap().contains(&tuple!["c"]));
        assert_eq!(original.total_tuples(), 2);
    }

    #[test]
    fn unknown_tid_in_delta_errors() {
        assert!(Repair::from_delta(&db(), [Tid(99)].into(), vec![]).is_err());
    }

    #[test]
    fn invalid_insertion_errors_up_front() {
        // Unknown relation and arity mismatch both fail at construction, not
        // at lazy materialization.
        assert!(
            Repair::from_delta(&db(), BTreeSet::new(), vec![("S".into(), tuple!["x"])]).is_err()
        );
        assert!(
            Repair::from_delta(&db(), BTreeSet::new(), vec![("R".into(), tuple!["x", "y"])])
                .is_err()
        );
    }

    #[test]
    fn materialization_is_lazy_and_cached() {
        let base = db();
        let r = Repair::from_delta(&base, [Tid(1)].into(), vec![]).unwrap();
        // Nothing materialized yet.
        assert!(r.materialized.get().is_none());
        let first = r.db() as *const Database;
        let second = r.db() as *const Database;
        assert_eq!(first, second);
    }

    #[test]
    fn view_agrees_with_materialized_db() {
        let base = db();
        let r =
            Repair::from_delta(&base, [Tid(2)].into(), vec![("R".into(), tuple!["c"])]).unwrap();
        let view = r.view();
        assert!(view.snapshot().same_content(r.db()));
        assert_eq!(view.relation_len("R"), r.db().relation("R").unwrap().len());
    }

    #[test]
    fn subset_minimal_filter() {
        let original = db();
        let small = Repair::from_delta(&original, [Tid(1)].into(), vec![]).unwrap();
        let big = Repair::from_delta(&original, [Tid(1), Tid(2)].into(), vec![]).unwrap();
        let other = Repair::from_delta(&original, [Tid(2)].into(), vec![]).unwrap();
        let kept = retain_subset_minimal(vec![big, small.clone(), other.clone()]);
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().any(|r| r.delta() == small.delta()));
        assert!(kept.iter().any(|r| r.delta() == other.delta()));
    }

    #[test]
    fn duplicates_are_dropped() {
        let original = db();
        let a = Repair::from_delta(&original, [Tid(1)].into(), vec![]).unwrap();
        let b = Repair::from_delta(&original, [Tid(1)].into(), vec![]).unwrap();
        assert_eq!(retain_subset_minimal(vec![a, b]).len(), 1);
    }

    #[test]
    fn delta_free_sort_matches_the_delta_comparator() {
        // Tid order disagrees with content order across two relations, so
        // only a content-level comparison gets this right.
        let mut d = Database::new();
        d.create_relation(RelationSchema::new("S", ["A"])).unwrap();
        d.create_relation(RelationSchema::new("R", ["A"])).unwrap();
        for v in ["z", "b", "y", "a"] {
            d.insert("S", tuple![v]).unwrap();
            d.insert("R", tuple![v]).unwrap();
        }
        let base = Arc::new(d);
        let all: Vec<Tid> = base.tids().into_iter().collect();
        let mut repairs = Vec::new();
        for mask in 0u32..(1 << all.len()) {
            if mask % 3 == 0 || mask.count_ones() > 3 {
                continue;
            }
            let deleted = all
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, t)| *t)
                .collect();
            repairs.push(Repair::from_delta(&base, deleted, vec![]).unwrap());
        }
        repairs.reverse();
        let mut expected: Vec<BTreeSet<Tid>> = {
            let mut r = repairs.clone();
            r.sort_by(|a, b| a.delta().cmp(b.delta()));
            r.into_iter().map(|r| r.deleted).collect()
        };
        sort_by_delta(&mut repairs);
        let got: Vec<BTreeSet<Tid>> = repairs.iter().map(|r| r.deleted.clone()).collect();
        assert_eq!(got, expected);
        assert!(
            repairs.iter().all(|r| r.delta.get().is_none()),
            "no delta built"
        );
        // With an insertion in the list the comparator falls back to deltas.
        repairs.push(
            Repair::from_delta(&base, [Tid(1)].into(), vec![("R".into(), tuple!["c"])]).unwrap(),
        );
        repairs.rotate_right(1);
        expected = {
            let mut r = repairs.clone();
            r.sort_by(|a, b| a.delta().cmp(b.delta()));
            r.into_iter().map(|r| r.deleted).collect()
        };
        sort_by_delta(&mut repairs);
        let got: Vec<BTreeSet<Tid>> = repairs.iter().map(|r| r.deleted.clone()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn change_display() {
        let c = Change::Delete {
            relation: "R".into(),
            tuple: tuple!["a"],
        };
        assert_eq!(c.to_string(), "- R(a)");
        let i = Change::Insert {
            relation: "S".into(),
            tuple: tuple![1, 2],
        };
        assert_eq!(i.to_string(), "+ S(1, 2)");
    }
}
