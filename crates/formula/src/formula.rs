//! Normalized positive boolean condition formulas.
//!
//! Invariants maintained by the smart constructors ([`Formula::and`],
//! [`Formula::or`], and the n-ary [`Formula::conj`] / [`Formula::disj`]):
//!
//! 1. `And`/`Or` nodes have at least two children,
//! 2. children of an `And` are never `And` (flattening), same for `Or`,
//! 3. no child is `True`/`False` (constant folding: `x ∧ true = x`,
//!    `x ∧ false = false`, `x ∨ true = true`, `x ∨ false = x`),
//! 4. children are sorted and duplicate-free (the paper's "removing multiple
//!    occurrences of the same conjuncts"),
//! 5. shallow absorption: in an `Or`, a disjunct whose conjunct set is a
//!    superset of another disjunct's is dropped (`a ∨ (a ∧ b) = a`), and
//!    dually for `And`.
//!
//! Invariants 4–5 implement the normalization that §V of the paper relies on
//! when bounding formula sizes ("a formula contains at most one reference to
//! a condition variable" per disjunct).

use crate::var::{CondVar, QualifierId};
use std::collections::BTreeSet;
use std::fmt;

/// A normalized positive boolean formula over condition variables.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Formula {
    /// The constant `true` — the formula carried by the initial activation
    /// the input transducer sends at `<$>`.
    True,
    /// The constant `false` — a dropped candidate.
    False,
    /// A single condition variable.
    Var(CondVar),
    /// Conjunction of at least two distinct sub-formulas.
    And(Vec<Formula>),
    /// Disjunction of at least two distinct sub-formulas.
    Or(Vec<Formula>),
}

impl Formula {
    /// The variable `v` as a formula.
    pub fn var(v: CondVar) -> Formula {
        Formula::Var(v)
    }

    /// Binary conjunction (normalized). A constant operand folds without
    /// building a children list (the common `[true ∧ c]` of a variable
    /// creator).
    pub fn and(a: Formula, b: Formula) -> Formula {
        match (a, b) {
            (Formula::True, x) | (x, Formula::True) => x,
            (Formula::False, _) | (_, Formula::False) => Formula::False,
            (a, b) => Formula::conj(vec![a, b]),
        }
    }

    /// Binary disjunction (normalized), folding a constant operand like
    /// [`Formula::and`].
    pub fn or(a: Formula, b: Formula) -> Formula {
        match (a, b) {
            (Formula::False, x) | (x, Formula::False) => x,
            (Formula::True, _) | (_, Formula::True) => Formula::True,
            (a, b) => Formula::disj(vec![a, b]),
        }
    }

    /// N-ary conjunction (normalized).
    pub fn conj(parts: Vec<Formula>) -> Formula {
        Self::build(parts, /*conjunction=*/ true)
    }

    /// N-ary disjunction (normalized).
    pub fn disj(parts: Vec<Formula>) -> Formula {
        Self::build(parts, /*conjunction=*/ false)
    }

    fn build(mut parts: Vec<Formula>, conjunction: bool) -> Formula {
        // A singleton leaf normalizes to itself; skip the children buffer
        // (this is the overwhelmingly common case on the output hot path,
        // where most activations carry `true`).
        if parts.len() == 1 && matches!(parts[0], Formula::True | Formula::False | Formula::Var(_))
        {
            return parts.pop().expect("length checked");
        }
        let (absorbing, neutral) = if conjunction {
            (Formula::False, Formula::True)
        } else {
            (Formula::True, Formula::False)
        };
        let mut children: Vec<Formula> = Vec::with_capacity(parts.len());
        for p in parts {
            if p == absorbing {
                return absorbing;
            }
            if p == neutral {
                continue;
            }
            match (conjunction, p) {
                (true, Formula::And(kids)) | (false, Formula::Or(kids)) => children.extend(kids),
                (_, other) => children.push(other),
            }
        }
        children.sort();
        children.dedup();
        Self::absorb(&mut children, conjunction);
        match children.len() {
            0 => neutral,
            1 => children.pop().expect("len checked"),
            _ => {
                if conjunction {
                    Formula::And(children)
                } else {
                    Formula::Or(children)
                }
            }
        }
    }

    /// Shallow absorption: drop children subsumed by another child.
    ///
    /// For a disjunction, child `x` subsumes child `y` if `x`'s literal set
    /// (as a conjunction) is a subset of `y`'s — then `y` is redundant. For a
    /// conjunction the dual holds with disjunct literal sets. Children with
    /// mixed nesting are left alone (soundness over completeness).
    fn absorb(children: &mut Vec<Formula>, conjunction: bool) {
        if children.len() < 2 {
            return;
        }
        // Literal sets: for OR-normalization each child is viewed as a
        // conjunction of literals; for AND dually as a disjunction.
        fn literal_set(f: &Formula, conjunction: bool) -> Option<BTreeSet<CondVar>> {
            match f {
                Formula::Var(v) => Some([*v].into_iter().collect()),
                Formula::And(kids) if !conjunction => kids
                    .iter()
                    .map(|k| match k {
                        Formula::Var(v) => Some(*v),
                        _ => None,
                    })
                    .collect(),
                Formula::Or(kids) if conjunction => kids
                    .iter()
                    .map(|k| match k {
                        Formula::Var(v) => Some(*v),
                        _ => None,
                    })
                    .collect(),
                _ => None,
            }
        }
        let sets: Vec<Option<BTreeSet<CondVar>>> = children
            .iter()
            .map(|c| literal_set(c, conjunction))
            .collect();
        let mut keep = vec![true; children.len()];
        for i in 0..children.len() {
            if !keep[i] {
                continue;
            }
            let Some(si) = &sets[i] else { continue };
            for j in 0..children.len() {
                if i == j || !keep[j] {
                    continue;
                }
                let Some(sj) = &sets[j] else { continue };
                // si ⊂ sj (strict, or equal with i<j — but equals were
                // deduped) ⇒ child j is absorbed by child i.
                if si.is_subset(sj) && si.len() < sj.len() {
                    keep[j] = false;
                }
            }
        }
        let mut idx = 0;
        children.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
    }

    /// Substitute `value` for every occurrence of `v` and re-normalize.
    /// This is the paper's `update(c, v, β)` applied to a single formula.
    pub fn assign(&self, v: CondVar, value: bool) -> Formula {
        match self {
            Formula::True | Formula::False => self.clone(),
            Formula::Var(x) => {
                if *x == v {
                    if value {
                        Formula::True
                    } else {
                        Formula::False
                    }
                } else {
                    self.clone()
                }
            }
            Formula::And(kids) => Formula::conj(kids.iter().map(|k| k.assign(v, value)).collect()),
            Formula::Or(kids) => Formula::disj(kids.iter().map(|k| k.assign(v, value)).collect()),
        }
    }

    /// Substitute the formula `replacement` for every occurrence of `v` and
    /// re-normalize. `assign(v, b)` is the special case where `replacement`
    /// is a constant. Used by the conditional determinations `{c := c ∨ r}`
    /// that nested qualifiers produce.
    pub fn substitute(&self, v: CondVar, replacement: &Formula) -> Formula {
        match self {
            Formula::True | Formula::False => self.clone(),
            Formula::Var(x) => {
                if *x == v {
                    replacement.clone()
                } else {
                    self.clone()
                }
            }
            Formula::And(kids) => {
                Formula::conj(kids.iter().map(|k| k.substitute(v, replacement)).collect())
            }
            Formula::Or(kids) => {
                Formula::disj(kids.iter().map(|k| k.substitute(v, replacement)).collect())
            }
        }
    }

    /// Does the formula mention `v`?
    pub fn contains(&self, v: CondVar) -> bool {
        match self {
            Formula::True | Formula::False => false,
            Formula::Var(x) => *x == v,
            Formula::And(kids) | Formula::Or(kids) => kids.iter().any(|k| k.contains(v)),
        }
    }

    /// All variables mentioned, in sorted order without duplicates.
    pub fn vars(&self) -> Vec<CondVar> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out.into_iter().collect()
    }

    /// Call `f` on every variable occurrence (a variable occurring twice is
    /// visited twice), without collecting them.
    pub fn for_each_var(&self, f: &mut impl FnMut(CondVar)) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Var(v) => f(*v),
            Formula::And(kids) | Formula::Or(kids) => {
                for k in kids {
                    k.for_each_var(f);
                }
            }
        }
    }

    /// Does the formula mention a variable of `qualifier`?
    pub fn mentions(&self, qualifier: QualifierId) -> bool {
        match self {
            Formula::True | Formula::False => false,
            Formula::Var(v) => v.qualifier == qualifier,
            Formula::And(kids) | Formula::Or(kids) => kids.iter().any(|k| k.mentions(qualifier)),
        }
    }

    /// All variables belonging to `qualifier` (used by the positive
    /// variable-filter VF(q+)).
    pub fn vars_of(&self, qualifier: QualifierId) -> Vec<CondVar> {
        self.vars()
            .into_iter()
            .filter(|v| v.qualifier == qualifier)
            .collect()
    }

    fn collect_vars(&self, out: &mut BTreeSet<CondVar>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Var(v) => {
                out.insert(*v);
            }
            Formula::And(kids) | Formula::Or(kids) => {
                for k in kids {
                    k.collect_vars(out);
                }
            }
        }
    }

    /// The truth value, if determined (`None` while variables remain).
    /// Because normalization folds constants, a normalized formula is
    /// determined iff it *is* a constant.
    pub fn value(&self) -> Option<bool> {
        match self {
            Formula::True => Some(true),
            Formula::False => Some(false),
            _ => None,
        }
    }

    /// Is the formula the constant `true`?
    pub fn is_true(&self) -> bool {
        matches!(self, Formula::True)
    }

    /// Is the formula the constant `false`?
    pub fn is_false(&self) -> bool {
        matches!(self, Formula::False)
    }

    /// The paper's size measure *o(φ)*: the number of variable occurrences
    /// (constants count 1 so `o(true) = 1`, matching "without qualifiers …
    /// the size of a formula is constant").
    pub fn size(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::Var(_) => 1,
            Formula::And(kids) | Formula::Or(kids) => kids.iter().map(Formula::size).sum(),
        }
    }

    /// Total number of AST nodes (for instrumentation).
    pub fn node_count(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::Var(_) => 1,
            Formula::And(kids) | Formula::Or(kids) => {
                1 + kids.iter().map(Formula::node_count).sum::<usize>()
            }
        }
    }

    /// Evaluate under a total assignment (used by tests as an oracle).
    pub fn eval(&self, assignment: &dyn Fn(CondVar) -> bool) -> bool {
        match self {
            Formula::True => true,
            Formula::False => false,
            Formula::Var(v) => assignment(*v),
            Formula::And(kids) => kids.iter().all(|k| k.eval(assignment)),
            Formula::Or(kids) => kids.iter().any(|k| k.eval(assignment)),
        }
    }
}

impl From<CondVar> for Formula {
    fn from(v: CondVar) -> Self {
        Formula::Var(v)
    }
}

impl From<bool> for Formula {
    fn from(b: bool) -> Self {
        if b {
            Formula::True
        } else {
            Formula::False
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(x: &Formula, f: &mut fmt::Formatter<'_>, parent_and: Option<bool>) -> fmt::Result {
            match x {
                Formula::True => write!(f, "true"),
                Formula::False => write!(f, "false"),
                Formula::Var(v) => write!(f, "{v}"),
                Formula::And(kids) | Formula::Or(kids) => {
                    let is_and = matches!(x, Formula::And(_));
                    let needs_parens = parent_and.is_some_and(|p| p != is_and);
                    if needs_parens {
                        write!(f, "(")?;
                    }
                    let sep = if is_and { " ∧ " } else { " ∨ " };
                    for (i, k) in kids.iter().enumerate() {
                        if i > 0 {
                            write!(f, "{sep}")?;
                        }
                        go(k, f, Some(is_and))?;
                    }
                    if needs_parens {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
            }
        }
        go(self, f, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(q: u32, s: u32) -> Formula {
        Formula::Var(CondVar::new(q, s))
    }

    #[test]
    fn constant_folding() {
        assert_eq!(Formula::and(Formula::True, v(0, 1)), v(0, 1));
        assert_eq!(Formula::and(Formula::False, v(0, 1)), Formula::False);
        assert_eq!(Formula::or(Formula::True, v(0, 1)), Formula::True);
        assert_eq!(Formula::or(Formula::False, v(0, 1)), v(0, 1));
        assert_eq!(Formula::and(Formula::True, Formula::True), Formula::True);
        assert_eq!(Formula::disj(vec![]), Formula::False);
        assert_eq!(Formula::conj(vec![]), Formula::True);
    }

    #[test]
    fn flattening_and_dedup() {
        let f = Formula::or(Formula::or(v(0, 1), v(0, 2)), Formula::or(v(0, 2), v(0, 3)));
        assert_eq!(f, Formula::Or(vec![v(0, 1), v(0, 2), v(0, 3)]));
        let g = Formula::and(v(0, 1), Formula::and(v(0, 1), v(0, 2)));
        assert_eq!(g, Formula::And(vec![v(0, 1), v(0, 2)]));
    }

    #[test]
    fn idempotence() {
        assert_eq!(Formula::or(v(0, 1), v(0, 1)), v(0, 1));
        assert_eq!(Formula::and(v(0, 1), v(0, 1)), v(0, 1));
    }

    #[test]
    fn commutativity_via_sorting() {
        assert_eq!(Formula::or(v(0, 2), v(0, 1)), Formula::or(v(0, 1), v(0, 2)));
        assert_eq!(
            Formula::and(v(1, 1), v(0, 9)),
            Formula::and(v(0, 9), v(1, 1))
        );
    }

    #[test]
    fn absorption_in_or() {
        // a ∨ (a ∧ b) = a — the closure-transducer normalization of §III.4.
        let a = v(0, 1);
        let ab = Formula::and(v(0, 1), v(0, 2));
        assert_eq!(Formula::or(a.clone(), ab), a);
    }

    #[test]
    fn absorption_in_and() {
        // a ∧ (a ∨ b) = a.
        let a = v(0, 1);
        let aob = Formula::or(v(0, 1), v(0, 2));
        assert_eq!(Formula::and(a.clone(), aob), a);
    }

    #[test]
    fn no_unsound_absorption_with_mixed_nesting() {
        // (a ∧ (b ∨ c)) ∨ a should still reduce via... the nested child has
        // no flat literal set, so absorption skips it — the result keeps both.
        let nested = Formula::and(v(0, 1), Formula::or(v(0, 2), v(0, 3)));
        let f = Formula::or(nested.clone(), v(0, 1));
        // Both disjuncts kept (sound; completeness not required).
        match &f {
            Formula::Or(kids) => assert_eq!(kids.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        // Semantics preserved: equivalent to a.
        for bits in 0..8u32 {
            let assignment = |x: CondVar| bits & (1 << x.serial) != 0;
            assert_eq!(
                f.eval(&assignment),
                v(0, 1).eval(&assignment) || nested.eval(&assignment)
            );
        }
    }

    #[test]
    fn assign_substitutes_and_folds() {
        let f = Formula::and(v(0, 1), Formula::or(v(0, 2), v(1, 3)));
        assert_eq!(f.assign(CondVar::new(0, 1), false), Formula::False);
        assert_eq!(f.assign(CondVar::new(0, 2), true), v(0, 1));
        let g = f.assign(CondVar::new(0, 2), false);
        assert_eq!(g, Formula::and(v(0, 1), v(1, 3)));
        assert_eq!(f.assign(CondVar::new(9, 9), true), f);
    }

    #[test]
    fn assign_chain_determines() {
        let f = Formula::and(v(0, 1), v(0, 2));
        let g = f
            .assign(CondVar::new(0, 1), true)
            .assign(CondVar::new(0, 2), true);
        assert_eq!(g.value(), Some(true));
        let h = f.assign(CondVar::new(0, 2), false);
        assert_eq!(h.value(), Some(false));
        assert_eq!(f.value(), None);
    }

    #[test]
    fn substitute_replaces_and_normalizes() {
        let c = CondVar::new(0, 1);
        let f = Formula::and(Formula::Var(c), v(1, 2));
        // c ↦ c ∨ r (the conditional-determination shape).
        let g = f.substitute(c, &Formula::or(Formula::Var(c), v(1, 3)));
        assert_eq!(
            g,
            Formula::and(Formula::or(Formula::Var(c), v(1, 3)), v(1, 2))
        );
        // Substitution by a constant coincides with assign.
        assert_eq!(f.substitute(c, &Formula::True), f.assign(c, true));
        assert_eq!(f.substitute(c, &Formula::False), f.assign(c, false));
        // Idempotence of the c ↦ c ∨ r shape under repetition.
        let r = v(1, 3);
        let once = f.substitute(c, &Formula::or(Formula::Var(c), r.clone()));
        let twice = once.substitute(c, &Formula::or(Formula::Var(c), r));
        assert_eq!(once, twice);
    }

    #[test]
    fn vars_and_vars_of() {
        let f = Formula::and(v(0, 1), Formula::or(v(1, 2), v(0, 3)));
        assert_eq!(
            f.vars(),
            vec![CondVar::new(0, 1), CondVar::new(0, 3), CondVar::new(1, 2)]
        );
        assert_eq!(f.vars_of(QualifierId(1)), vec![CondVar::new(1, 2)]);
        assert_eq!(f.vars_of(QualifierId(2)), vec![]);
        assert!(f.contains(CondVar::new(1, 2)));
        assert!(!f.contains(CondVar::new(1, 9)));
    }

    #[test]
    fn size_measure() {
        assert_eq!(Formula::True.size(), 1);
        assert_eq!(v(0, 1).size(), 1);
        let f = Formula::and(v(0, 1), Formula::or(v(1, 2), v(0, 3)));
        assert_eq!(f.size(), 3);
        assert_eq!(f.node_count(), 5);
    }

    #[test]
    fn display_renders_paper_style() {
        let f = Formula::and(v(0, 1), Formula::or(v(1, 2), v(0, 3)));
        assert_eq!(f.to_string(), "c0.1 ∧ (c0.3 ∨ c1.2)");
        assert_eq!(Formula::True.to_string(), "true");
    }

    #[test]
    fn closure_disjunction_normalization_example() {
        // §III.4: "such a disjunction can be normalized by removing multiple
        // occurrences of the same conjuncts" — pushing f ∨ top where both
        // share variables keeps single references.
        let top = Formula::or(v(0, 1), v(0, 2));
        let incoming = v(0, 2);
        let pushed = Formula::or(incoming, top);
        assert_eq!(pushed, Formula::Or(vec![v(0, 1), v(0, 2)]));
        assert_eq!(pushed.size(), 2);
    }
}
