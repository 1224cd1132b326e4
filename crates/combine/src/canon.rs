//! Hash-consing of normalized sub-expressions.
//!
//! A [`CanonPool`] interns normalized [`Rpeq`] values: structurally equal
//! sub-expressions — a chain step, a qualifier, a whole query — receive one
//! [`CanonId`]. The combiner keys its step trie and its compiled-instance
//! memo on these integer ids rather than on pretty-printed strings: an id
//! comparison is O(1), cannot collide and cannot drift out of sync with the
//! printer.

use spex_query::Rpeq;
use std::collections::HashMap;

/// The interned identity of a normalized sub-expression. Two ids are equal
/// iff the underlying expressions are structurally equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonId(u32);

impl CanonId {
    /// The id as a dense index into the pool.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interning pool over normalized expressions (hash-consing).
#[derive(Debug, Default)]
pub struct CanonPool {
    ids: HashMap<Rpeq, CanonId>,
    exprs: Vec<Rpeq>,
}

impl CanonPool {
    /// An empty pool.
    pub fn new() -> CanonPool {
        CanonPool::default()
    }

    /// Intern a **normalized** expression, returning its id; equal
    /// structures share one id. Sub-expressions (union alternatives,
    /// concatenation factors, optional and qualifier bodies) are interned
    /// too, so the pool doubles as a census of shared substructure.
    pub fn intern(&mut self, expr: &Rpeq) -> CanonId {
        if let Some(&id) = self.ids.get(expr) {
            return id;
        }
        match expr {
            Rpeq::Empty
            | Rpeq::Step(_)
            | Rpeq::Plus(_)
            | Rpeq::Star(_)
            | Rpeq::Following(_)
            | Rpeq::Preceding(_) => {}
            Rpeq::Union(a, b) | Rpeq::Concat(a, b) | Rpeq::Qualified(a, b) => {
                self.intern(a);
                self.intern(b);
            }
            Rpeq::Optional(a) => {
                self.intern(a);
            }
        }
        let id = CanonId(u32::try_from(self.exprs.len()).expect("pool overflow"));
        self.ids.insert(expr.clone(), id);
        self.exprs.push(expr.clone());
        id
    }

    /// The expression behind an id.
    pub fn expr(&self, id: CanonId) -> &Rpeq {
        &self.exprs[id.index()]
    }

    /// Number of distinct sub-expressions interned.
    pub fn len(&self) -> usize {
        self.exprs.len()
    }

    /// Is the pool empty?
    pub fn is_empty(&self) -> bool {
        self.exprs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_structures_share_an_id() {
        let mut pool = CanonPool::new();
        let a: Rpeq = "a[b.c]".parse().unwrap();
        let b: Rpeq = "a[b.c]".parse().unwrap();
        assert_eq!(pool.intern(&a), pool.intern(&b));
        assert_ne!(pool.intern(&a), pool.intern(&"a[b]".parse().unwrap()));
    }

    #[test]
    fn subexpressions_are_interned() {
        let mut pool = CanonPool::new();
        let id = pool.intern(&"a[b.c]".parse().unwrap());
        // The qualifier `b.c` got its own id, shared with a later query
        // using the same qualifier.
        let qual = pool.intern(&"b.c".parse().unwrap());
        assert!(qual.index() < id.index());
        assert_eq!(pool.expr(qual).to_string(), "b.c");
    }
}
