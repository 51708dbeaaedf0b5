//! The global value dictionary: [`Value`] ⇄ [`Vid`] interning.
//!
//! Every stored value in the engine is a dense 32-bit [`Vid`]. Small values
//! are encoded *inline* in the id (no dictionary entry at all); everything
//! else lives in an append-only table shared — via `Arc` — by a database,
//! its clones and every repair derived from it. Joins, indexes, conflict
//! detection and fingerprints all operate on `Vid`s: a word-sized equality
//! check instead of a string compare, and memory that scales with the number
//! of *distinct* values instead of the number of value occurrences.
//!
//! ## Encoding
//!
//! The top two bits of a `Vid` are a tag; the low 30 bits are the payload:
//!
//! | tag  | payload                                            |
//! |------|----------------------------------------------------|
//! | `00` | index into the dictionary table                    |
//! | `01` | inline integer, offset-encoded (−2²⁹ ‥ 2²⁹−1)      |
//! | `10` | inline null label (< 2³⁰)                          |
//! | `11` | inline boolean (0/1)                               |
//!
//! Strings, non-integral floats, out-of-range integers and out-of-range null
//! labels are table-resident. Integral floats are canonicalized to their
//! integer form first (see below), so `Value`s that compare structurally
//! equal always receive the *same* vid — vid equality is exactly structural
//! [`Value`] equality.
//!
//! ## Canonicalization
//!
//! [`Value`]'s structural order already identifies `Int(1)` and
//! `Float(1.0)` (they compare `Equal` and hash alike). The dictionary makes
//! that identification explicit: a float whose bit pattern round-trips
//! through `i64` is interned as the integer. `-0.0`, `NaN` and non-integral
//! floats keep their float identity (`total_cmp` distinguishes them from
//! every integer).
//!
//! ## Determinism contract
//!
//! Table ids are assigned in **first-insertion order**. The load boundary
//! (codec, `Database::insert`) is single-threaded, so ids for all base data
//! are reproducible run to run. Values first interned *during* a parallel
//! phase (e.g. materializing a repair with a novel constant) may receive
//! schedule-dependent ids; therefore **no engine output may depend on vid
//! numeric order** — result emission resolves vids back to `Value`s and
//! sorts by value order (the `cqa-audit` L001 rule extends to dictionary
//! iteration). Within one process the mapping is stable: equal values always
//! map to the same vid.

use crate::fxhash::FxHashMap;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::sync::{Arc, RwLock};

/// A dense 32-bit value id. See the module docs for the encoding.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Vid(u32);

const TAG_SHIFT: u32 = 30;
const PAYLOAD_MASK: u32 = (1 << TAG_SHIFT) - 1;
const TAG_TABLE: u32 = 0b00;
const TAG_INT: u32 = 0b01;
const TAG_NULL: u32 = 0b10;
const TAG_BOOL: u32 = 0b11;

/// Inline integers are offset-encoded into the 30-bit payload.
const INT_MIN: i64 = -(1 << 29);
const INT_MAX: i64 = (1 << 29) - 1;

impl Vid {
    #[inline]
    fn new(tag: u32, payload: u32) -> Vid {
        debug_assert!(payload <= PAYLOAD_MASK);
        Vid((tag << TAG_SHIFT) | payload)
    }

    #[inline]
    fn tag(self) -> u32 {
        self.0 >> TAG_SHIFT
    }

    #[inline]
    fn payload(self) -> u32 {
        self.0 & PAYLOAD_MASK
    }

    /// The raw 32-bit representation (for hashing and packing).
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The vid whose raw representation is `raw` (the inverse of
    /// [`Vid::raw`]).
    #[inline]
    pub(crate) fn from_raw(raw: u32) -> Vid {
        Vid(raw)
    }

    /// Is this an inline integer? Inline integers are offset-encoded under
    /// one tag, so their raw order is their value order.
    #[inline]
    pub(crate) fn is_inline_int(self) -> bool {
        self.tag() == TAG_INT
    }

    /// A table vid for dictionary slot `index` (also used by views for
    /// extension ids minted from the top of the table space).
    #[inline]
    pub(crate) fn table(index: u32) -> Vid {
        Vid::new(TAG_TABLE, index & PAYLOAD_MASK)
    }

    /// The table slot, if this is a table-resident vid.
    #[inline]
    pub(crate) fn table_index(self) -> Option<u32> {
        (self.tag() == TAG_TABLE).then_some(self.payload())
    }

    /// Is this an *inline* null? (Table-resident nulls — labels ≥ 2³⁰ —
    /// exist in principle; use [`ValueDict::is_null`] for the full answer.)
    #[inline]
    pub fn is_inline_null(self) -> bool {
        self.tag() == TAG_NULL
    }

    /// Decode an inline vid without touching the dictionary.
    #[inline]
    pub fn inline_value(self) -> Option<Value> {
        match self.tag() {
            TAG_INT => Some(Value::Int(self.payload() as i64 + INT_MIN)),
            TAG_NULL => Some(Value::Null(self.payload())),
            TAG_BOOL => Some(Value::Bool(self.payload() != 0)),
            _ => None,
        }
    }
}

impl fmt::Debug for Vid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.tag() {
            TAG_TABLE => write!(f, "Vid#{}", self.payload()),
            TAG_INT => write!(f, "Vid({})", self.payload() as i64 + INT_MIN),
            TAG_NULL => write!(f, "Vid(NULL_{})", self.payload()),
            _ => write!(f, "Vid({})", self.payload() != 0),
        }
    }
}

/// Canonical storage form of a value: integral floats collapse to the
/// integer they structurally equal, so vid equality is structural equality.
/// Views key their extension tables on the same canonical form.
pub(crate) fn canonical(v: &Value) -> Value {
    match v {
        Value::Float(f) if (*f as i64 as f64).to_bits() == f.to_bits() => Value::Int(*f as i64),
        other => other.clone(),
    }
}

/// Encode a value inline if its canonical form fits; `None` means it is
/// table-resident.
fn inline(v: &Value) -> Option<Vid> {
    match v {
        Value::Int(i) if (INT_MIN..=INT_MAX).contains(i) => {
            Some(Vid::new(TAG_INT, (i - INT_MIN) as u32))
        }
        Value::Null(l) if *l <= PAYLOAD_MASK => Some(Vid::new(TAG_NULL, *l)),
        Value::Bool(b) => Some(Vid::new(TAG_BOOL, *b as u32)),
        Value::Float(f) if (*f as i64 as f64).to_bits() == f.to_bits() => {
            inline(&Value::Int(*f as i64))
        }
        _ => None,
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// Table-resident values in first-insertion order.
    values: Vec<Value>,
    /// String content → table slot (borrow-keyed so `&str` probes allocate
    /// nothing on a hit — the codec fast path depends on this).
    strs: FxHashMap<Arc<str>, u32>,
    /// Non-string table residents (non-integral floats, big ints, big null
    /// labels) → table slot.
    others: FxHashMap<Value, u32>,
}

impl Inner {
    fn slot_of(&self, canon: &Value) -> Option<u32> {
        match canon {
            Value::Str(s) => self.strs.get(&**s).copied(),
            other => self.others.get(other).copied(),
        }
    }

    fn push(&mut self, canon: Value) -> u32 {
        let slot = self.values.len() as u32;
        match &canon {
            Value::Str(s) => {
                self.strs.insert(Arc::clone(s), slot);
            }
            other => {
                self.others.insert(other.clone(), slot);
            }
        }
        self.values.push(canon);
        slot
    }
}

/// The append-only value dictionary. Shared (`Arc`) by a [`crate::Database`],
/// its clones and all views over it; interning takes `&self` via an internal
/// `RwLock`, resolution takes a read lock only.
#[derive(Debug, Default)]
pub struct ValueDict {
    inner: RwLock<Inner>,
}

impl ValueDict {
    /// Empty dictionary.
    pub fn new() -> ValueDict {
        ValueDict::default()
    }

    /// Number of table-resident entries (inline values are free).
    pub fn len(&self) -> usize {
        self.read().values.len()
    }

    /// True iff no value has been interned into the table.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated retained heap bytes: the value table, its string buffers
    /// (counted once — lookup keys share the same `Arc`), and the two
    /// lookup maps. Analytic accounting, same policy as
    /// [`crate::Database::heap_bytes`].
    pub fn heap_bytes(&self) -> usize {
        let inner = self.read();
        let strings: usize = inner
            .values
            .iter()
            .map(|v| match v {
                // Arc<str> heap block: strong + weak counts, then the bytes.
                Value::Str(s) => 16 + s.len(),
                _ => 0,
            })
            .sum();
        let values = inner.values.capacity() * std::mem::size_of::<Value>();
        let maps = (inner.strs.capacity() + inner.others.capacity())
            * (std::mem::size_of::<Value>() + std::mem::size_of::<u32>() + 8);
        strings + values + maps
    }

    /// Release over-allocated capacity after a bulk load. Ids, contents and
    /// lookups are unaffected — only spare table and map capacity returns
    /// to the allocator.
    pub fn shrink_to_fit(&self) {
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        inner.values.shrink_to_fit();
        inner.strs.shrink_to_fit();
        inner.others.shrink_to_fit();
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Inner> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Intern a value, returning its (new or existing) vid.
    pub fn intern(&self, v: &Value) -> Vid {
        if let Some(vid) = inline(v) {
            return vid;
        }
        let canon = canonical(v);
        if let Some(slot) = self.read().slot_of(&canon) {
            return Vid::table(slot);
        }
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        // Re-check under the write lock: another thread may have won.
        if let Some(slot) = inner.slot_of(&canon) {
            return Vid::table(slot);
        }
        Vid::table(inner.push(canon))
    }

    /// Intern string content directly — no intermediate [`Value`] or
    /// `Arc<str>` is allocated when the string is already present.
    pub fn intern_str(&self, s: &str) -> Vid {
        if let Some(&slot) = self.read().strs.get(s) {
            return Vid::table(slot);
        }
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        if let Some(&slot) = inner.strs.get(s) {
            return Vid::table(slot);
        }
        Vid::table(inner.push(Value::Str(Arc::from(s))))
    }

    /// The vid of `v` if it has ever been interned (inline values always
    /// resolve). `None` means no stored fact anywhere carries this value.
    pub fn lookup(&self, v: &Value) -> Option<Vid> {
        if let Some(vid) = inline(v) {
            return Some(vid);
        }
        self.read().slot_of(&canonical(v)).map(Vid::table)
    }

    /// [`ValueDict::lookup`] for string content, allocation-free.
    pub fn lookup_str(&self, s: &str) -> Option<Vid> {
        self.read().strs.get(s).copied().map(Vid::table)
    }

    /// Decode a vid back to its value. `None` for table ids this dictionary
    /// never assigned (e.g. a view-extension id probed against the base).
    pub fn resolve(&self, vid: Vid) -> Option<Value> {
        if let Some(v) = vid.inline_value() {
            return Some(v);
        }
        let idx = vid.payload() as usize;
        self.read().values.get(idx).cloned()
    }

    /// Is the value behind `vid` a (labelled) null?
    pub fn is_null(&self, vid: Vid) -> bool {
        if vid.tag() != TAG_TABLE {
            return vid.is_inline_null();
        }
        // Table-resident nulls only exist for labels ≥ 2³⁰.
        matches!(
            self.read().values.get(vid.payload() as usize),
            Some(Value::Null(_))
        )
    }

    /// Order-preserving comparison: compares the *resolved values* in the
    /// structural [`Value`] order, never the raw ids. This is the resolve
    /// path sorted indexes and ORDER BY-style consumers must use — raw vid
    /// order reflects insertion history, not value order.
    pub fn cmp_vids(&self, a: Vid, b: Vid) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        match (a.inline_value(), b.inline_value()) {
            (Some(va), Some(vb)) => va.cmp(&vb),
            (va, vb) => {
                let inner = self.read();
                let ra = va
                    .or_else(|| inner.values.get(a.payload() as usize).cloned())
                    .unwrap_or(Value::NULL);
                let rb = vb
                    .or_else(|| inner.values.get(b.payload() as usize).cloned())
                    .unwrap_or(Value::NULL);
                ra.cmp(&rb)
            }
        }
    }

    /// Resolve a whole row of vids into values (emission boundary helper).
    pub fn resolve_row(&self, vids: &[Vid]) -> Option<Vec<Value>> {
        vids.iter().map(|&v| self.resolve(v)).collect()
    }
}

impl Clone for ValueDict {
    /// Deep clone (fresh table sharing the `Arc<str>` payloads). Database
    /// clones share one dictionary via `Arc` instead; this exists so tests
    /// and tools can fork a dictionary explicitly.
    fn clone(&self) -> ValueDict {
        let inner = self.read();
        let mut fresh = Inner::default();
        for v in &inner.values {
            fresh.push(v.clone());
        }
        drop(inner);
        ValueDict {
            inner: RwLock::new(fresh),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_roundtrip() {
        let d = ValueDict::new();
        for v in [
            Value::Int(0),
            Value::Int(-1),
            Value::Int(INT_MIN),
            Value::Int(INT_MAX),
            Value::Bool(true),
            Value::Bool(false),
            Value::NULL,
            Value::Null(42),
        ] {
            let vid = d.intern(&v);
            assert_eq!(d.resolve(vid), Some(v));
        }
        // Inline values never touch the table.
        assert!(d.is_empty());
    }

    #[test]
    fn strings_dedupe() {
        let d = ValueDict::new();
        let a = d.intern(&Value::str("supply"));
        let b = d.intern(&Value::str("supply"));
        let c = d.intern_str("supply");
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(d.len(), 1);
        assert_eq!(d.lookup_str("supply"), Some(a));
        assert_eq!(d.lookup_str("nope"), None);
        assert_eq!(d.resolve(a), Some(Value::str("supply")));
    }

    #[test]
    fn big_values_are_table_resident() {
        let d = ValueDict::new();
        let big = Value::Int(i64::MAX);
        let vid = d.intern(&big);
        assert_eq!(d.resolve(vid), Some(big));
        assert_eq!(d.len(), 1);
        let f = Value::Float(0.5);
        let fv = d.intern(&f);
        assert_eq!(d.resolve(fv), Some(f));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn vid_equality_is_structural_equality() {
        let d = ValueDict::new();
        // Int(1) and Float(1.0) are structurally equal → same vid.
        assert_eq!(d.intern(&Value::Int(1)), d.intern(&Value::Float(1.0)));
        // -0.0 is NOT structurally equal to Int(0) (total_cmp) → distinct.
        assert_ne!(d.intern(&Value::Float(-0.0)), d.intern(&Value::Int(0)));
        // NaN keeps its float identity.
        let nan = d.intern(&Value::Float(f64::NAN));
        assert!(matches!(d.resolve(nan), Some(Value::Float(f)) if f.is_nan()));
        // Distinct labels, distinct vids.
        assert_ne!(d.intern(&Value::Null(1)), d.intern(&Value::Null(2)));
    }

    #[test]
    fn resolved_value_structurally_equals_input() {
        let d = ValueDict::new();
        for v in [
            Value::Float(2.0), // canonicalizes to Int(2) — still structurally equal
            Value::Float(2.5),
            Value::Int(7),
            Value::str("x"),
            Value::Null(3),
            Value::Bool(false),
        ] {
            let back = d.resolve(d.intern(&v)).unwrap();
            assert_eq!(back, v, "resolve(intern({v:?})) = {back:?}");
        }
    }

    #[test]
    fn lookup_misses_on_unseen() {
        let d = ValueDict::new();
        assert_eq!(d.lookup(&Value::str("ghost")), None);
        // Inline values always resolve even if never interned.
        assert!(d.lookup(&Value::Int(5)).is_some());
        assert!(d.lookup(&Value::NULL).is_some());
    }

    #[test]
    fn cmp_vids_matches_value_order() {
        let d = ValueDict::new();
        let vals = [
            Value::str("b"),
            Value::Int(3),
            Value::Float(2.5),
            Value::NULL,
            Value::Bool(true),
            Value::str("a"),
            Value::Null(7),
            Value::Int(-(1 << 40)),
        ];
        let vids: Vec<Vid> = vals.iter().map(|v| d.intern(v)).collect();
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                assert_eq!(d.cmp_vids(vids[i], vids[j]), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn is_null_sees_inline_and_table_nulls() {
        let d = ValueDict::new();
        assert!(d.is_null(d.intern(&Value::NULL)));
        assert!(d.is_null(d.intern(&Value::Null(9))));
        assert!(!d.is_null(d.intern(&Value::Int(0))));
        assert!(!d.is_null(d.intern(&Value::str("NULL"))));
    }

    #[test]
    fn first_insertion_order_is_dense() {
        let d = ValueDict::new();
        let a = d.intern(&Value::str("a"));
        let b = d.intern(&Value::str("b"));
        let a2 = d.intern(&Value::str("a"));
        assert_eq!(a.table_index(), Some(0));
        assert_eq!(b.table_index(), Some(1));
        assert_eq!(a2.table_index(), Some(0));
    }
}
