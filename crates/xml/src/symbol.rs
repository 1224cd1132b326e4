//! Label interning: dense [`Symbol`] handles for element names.
//!
//! The transducer network routes document messages by element label
//! (paper §IV.2). Comparing interned `u32` symbols instead of strings keeps
//! the per-message work constant-time and allocation-free, which is why the
//! table lives here in the stream layer: labels are interned once at parse
//! time (see [`crate::store::EventStore`]) and every layer above only ever
//! sees dense handles.
//!
//! Each distinct name is stored exactly once behind an [`Rc<str>`] that is
//! shared between the dense lookup vector and the reverse map, so interning
//! a new name costs a single allocation.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// FNV-1a, fixed-key. Element names are short (a handful of bytes) and the
/// intern lookup runs twice per element event, where the default SipHash's
/// per-call setup dominates. HashDoS resistance is irrelevant here: the
/// table is bounded by the document vocabulary and truncated back to the
/// query baseline between documents. The hash does not affect symbol
/// numbering (ids are assigned in first-seen order), so all prior snapshots
/// agree on the dense handles.
#[derive(Debug, Clone, Copy)]
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// A dense interned label handle. Symbols are assigned in first-seen order
/// starting from zero, so they can index plain vectors.
pub type Symbol = u32;

/// The reserved symbol for the virtual document root label `$`
/// (paper §II.1 wraps every stream in `<$>` … `</$>`).
pub const DOC_SYMBOL: Symbol = 0;

/// An interning table mapping element names to dense [`Symbol`]s and back.
///
/// The table only grows; symbols stay valid for the lifetime of the table.
/// A fresh table always contains the document label `$` as [`DOC_SYMBOL`].
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    names: Vec<Rc<str>>,
    map: HashMap<Rc<str>, Symbol, BuildHasherDefault<Fnv1a>>,
}

impl SymbolTable {
    /// Create a table with the document symbol pre-interned.
    #[must_use]
    pub fn new() -> Self {
        let mut t = Self {
            names: Vec::new(),
            map: HashMap::default(),
        };
        let s = t.intern("$");
        debug_assert_eq!(s, DOC_SYMBOL);
        t
    }

    /// Intern `name`, returning its dense symbol. Existing names are looked
    /// up without allocating; a new name costs one `Rc<str>` allocation
    /// shared by the vector and the map.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&s) = self.map.get(name) {
            return s;
        }
        let s = u32::try_from(self.names.len()).unwrap_or(u32::MAX);
        let rc: Rc<str> = Rc::from(name);
        self.names.push(Rc::clone(&rc));
        self.map.insert(rc, s);
        s
    }

    /// The name interned as `s`.
    ///
    /// # Panics
    /// Panics if `s` was not produced by this table.
    #[must_use]
    pub fn name(&self, s: Symbol) -> &str {
        &self.names[s as usize]
    }

    /// Number of interned names (including the pre-interned `$`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Forget every symbol at index `len` or above, shrinking the table back
    /// to a recorded baseline. Symbols below `len` stay valid; symbols at or
    /// above it are invalidated and their dense indices will be reassigned to
    /// the next names interned. A `len` beyond the current size is a no-op.
    ///
    /// This is the session-reuse hook: a long-lived evaluator records
    /// `len()` after resolving its query labels and truncates back to that
    /// baseline between documents, so a stream of documents with disjoint
    /// vocabularies cannot grow the table without bound.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.names.len() {
            return;
        }
        for name in self.names.drain(len..) {
            self.map.remove(&name);
        }
    }

    /// A fresh table already contains `$`, so it is never empty. Tables
    /// constructed via `Default` (no `$`) report empty until first intern.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_table_interns_densely() {
        let mut t = SymbolTable::new();
        assert_eq!(t.intern("$"), DOC_SYMBOL);
        let a = t.intern("a");
        let b = t.intern("b");
        assert_eq!(t.intern("a"), a);
        assert_eq!((a, b), (1, 2));
        assert_eq!(t.name(a), "a");
        assert_eq!(t.name(DOC_SYMBOL), "$");
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn truncate_forgets_and_reassigns() {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let baseline = t.len();
        t.intern("b");
        t.intern("c");
        t.truncate(baseline);
        assert_eq!(t.len(), baseline);
        assert_eq!(t.intern("a"), a);
        // Reassigned densely after the baseline.
        assert_eq!(t.intern("z"), baseline as Symbol);
        // Truncating past the end is a no-op.
        t.truncate(100);
        assert_eq!(t.name(a), "a");
    }

    #[test]
    fn lookup_does_not_grow_the_table() {
        let mut t = SymbolTable::new();
        let a = t.intern("article");
        for _ in 0..100 {
            assert_eq!(t.intern("article"), a);
        }
        assert_eq!(t.len(), 2);
    }
}
