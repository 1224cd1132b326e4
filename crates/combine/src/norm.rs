//! The rpeq canonical normal form.
//!
//! [`normalize`] rewrites an expression into a canonical representative of
//! its semantic equivalence class, so that structurally-different spellings
//! of the same query — `(a|b)`, `(b|a)`, `((b)|a)` — map to one AST and
//! therefore to **one** compiled sub-network in the combiner. Every rewrite
//! preserves the result *set* (which document nodes the query selects); the
//! engine delivers results in document order regardless of spelling, so the
//! observable output stream is preserved too (property-tested in
//! `tests/combine.rs`).
//!
//! The normal form:
//!
//! * **Concatenation** is flattened and left-associated; ε factors are
//!   elided (`a.%.b` → `a.b`); adjacent closures over one label collapse
//!   (`a*.a*` → `a*`, `a*.a` → `a+`, `a+.a*` → `a+`).
//! * **Alternation** is flattened, sorted and deduplicated (`b|a|b` →
//!   `a|b`); an ε alternative is factored into an optional (`a|%` → `a?`);
//!   a nullable alternative surrenders its ε to the whole alternation
//!   (`a*|b` → `(a+|b)?`).
//! * **Optionals** collapse (`e??` → `e?`, `a+?` → `a*`, `a*?` → `a*`); an
//!   optional over an already-nullable body is the body.
//! * **Qualifiers** are flattened: a stack `e[q1][q2]` is re-ordered into a
//!   canonical (sorted, deduplicated) stack — a qualifier conjunction is a
//!   set; a *nullable* qualifier is trivially true (the ε path reaches the
//!   context node itself) and is dropped (`e[b*]` → `e`).
//!
//! Normalization is idempotent: `normalize(normalize(q)) == normalize(q)`.

use spex_query::Rpeq;

/// Does the expression's language contain the empty path ε — i.e. does it
/// select the context node itself?
///
/// Conservative for qualified sub-expressions: `e[q]` is treated as
/// non-nullable even when `e` is, because the qualifier must additionally
/// hold at the context node.
pub fn nullable(q: &Rpeq) -> bool {
    match q {
        Rpeq::Empty | Rpeq::Star(_) | Rpeq::Optional(_) => true,
        Rpeq::Union(a, b) => nullable(a) || nullable(b),
        Rpeq::Concat(a, b) => nullable(a) && nullable(b),
        Rpeq::Step(_)
        | Rpeq::Plus(_)
        | Rpeq::Following(_)
        | Rpeq::Preceding(_)
        | Rpeq::Qualified(..) => false,
    }
}

/// Rewrite `q` into its canonical normal form (see the [module
/// documentation](self)).
pub fn normalize(q: &Rpeq) -> Rpeq {
    match q {
        Rpeq::Empty
        | Rpeq::Step(_)
        | Rpeq::Plus(_)
        | Rpeq::Star(_)
        | Rpeq::Following(_)
        | Rpeq::Preceding(_) => q.clone(),
        Rpeq::Concat(..) => {
            let mut parts = Vec::new();
            flatten_concat(q, &mut parts);
            rebuild_concat(parts)
        }
        Rpeq::Union(..) => {
            let mut ops = Vec::new();
            let mut has_empty = false;
            add_union_op(normalize_children_of_union(q), &mut ops, &mut has_empty);
            rebuild_union(ops, has_empty)
        }
        Rpeq::Optional(a) => optional(normalize(a)),
        Rpeq::Qualified(..) => {
            // Unwrap the qualifier stack down to the base expression.
            let mut quals = Vec::new();
            let mut base = q;
            while let Rpeq::Qualified(b, qual) = base {
                quals.push(qual.as_ref());
                base = b;
            }
            let base = normalize(base);
            let mut quals: Vec<Rpeq> = quals
                .into_iter()
                .rev()
                .map(normalize)
                .filter(|x| !nullable(x))
                .collect();
            quals.sort_by_cached_key(|x| x.to_string());
            quals.dedup();
            quals
                .into_iter()
                .fold(base, |acc, x| Rpeq::Qualified(Box::new(acc), Box::new(x)))
        }
    }
}

/// `e?` over an already-normalized body.
fn optional(n: Rpeq) -> Rpeq {
    if nullable(&n) {
        return n; // ε already in the language — e? ≡ e.
    }
    match n {
        Rpeq::Plus(l) => Rpeq::Star(l), // (l+)? ≡ l*.
        other => Rpeq::Optional(Box::new(other)),
    }
}

/// Flatten nested concatenations, normalizing and splicing each factor;
/// ε factors are dropped.
fn flatten_concat(q: &Rpeq, parts: &mut Vec<Rpeq>) {
    match q {
        Rpeq::Concat(a, b) => {
            flatten_concat(a, parts);
            flatten_concat(b, parts);
        }
        other => splice_concat_part(normalize(other), parts),
    }
}

/// Push one normalized factor, re-flattening if normalization itself
/// produced a concatenation (e.g. a singleton union collapsing to one).
fn splice_concat_part(n: Rpeq, parts: &mut Vec<Rpeq>) {
    match n {
        Rpeq::Empty => {}
        Rpeq::Concat(a, b) => {
            splice_concat_part(*a, parts);
            splice_concat_part(*b, parts);
        }
        other => parts.push(other),
    }
}

/// Left-associate the factor list, collapsing adjacent closures over the
/// same label as we go.
fn rebuild_concat(parts: Vec<Rpeq>) -> Rpeq {
    let mut out: Vec<Rpeq> = Vec::with_capacity(parts.len());
    for p in parts {
        out.push(p);
        // A collapse can enable the next one (`a*.a*.a` → `a*.a` → `a+`),
        // so keep folding the tail until it is stable.
        while out.len() >= 2 {
            let b = out.pop().expect("length checked");
            let a = out.pop().expect("length checked");
            match collapse_pair(a, b) {
                Ok(merged) => out.push(merged),
                Err((a, b)) => {
                    out.push(a);
                    out.push(b);
                    break;
                }
            }
        }
    }
    Rpeq::concat_all(out)
}

/// Try to merge two adjacent chain factors over the same label:
/// `l*.l* ≡ l*`, `l*.l ≡ l.l* ≡ l+`, `l+.l* ≡ l*.l+ ≡ l+`.
fn collapse_pair(a: Rpeq, b: Rpeq) -> Result<Rpeq, (Rpeq, Rpeq)> {
    use Rpeq::{Plus, Star, Step};
    match (&a, &b) {
        (Star(x), Star(y)) if x == y => Ok(a),
        (Star(x), Step(y)) | (Step(y), Star(x)) if x == y => Ok(Plus(x.clone())),
        (Star(x), Plus(y)) | (Plus(y), Star(x)) if x == y => Ok(Plus(y.clone())),
        _ => Err((a, b)),
    }
}

/// Normalize the two operands of a top-level union without re-running the
/// union rebuild (the caller flattens).
fn normalize_children_of_union(q: &Rpeq) -> Rpeq {
    match q {
        Rpeq::Union(a, b) => Rpeq::Union(
            Box::new(normalize_children_of_union(a)),
            Box::new(normalize_children_of_union(b)),
        ),
        other => normalize(other),
    }
}

/// Collect one normalized union alternative, factoring ε out: an `%`
/// alternative, an optional body, or a `l*` (recorded as `l+`) all set the
/// shared `has_empty` flag.
fn add_union_op(n: Rpeq, ops: &mut Vec<Rpeq>, has_empty: &mut bool) {
    match n {
        Rpeq::Empty => *has_empty = true,
        Rpeq::Optional(x) => {
            *has_empty = true;
            add_union_op(*x, ops, has_empty);
        }
        Rpeq::Star(l) => {
            *has_empty = true;
            ops.push(Rpeq::Plus(l));
        }
        Rpeq::Union(a, b) => {
            add_union_op(*a, ops, has_empty);
            add_union_op(*b, ops, has_empty);
        }
        other => ops.push(other),
    }
}

/// Sort, deduplicate and left-associate the alternatives; re-attach a
/// factored-out ε as an optional.
fn rebuild_union(mut ops: Vec<Rpeq>, has_empty: bool) -> Rpeq {
    ops.sort_by_cached_key(|x| x.to_string());
    ops.dedup();
    let u = match ops.len() {
        0 => return Rpeq::Empty, // every alternative was ε
        1 => ops.pop().expect("length checked"),
        _ => {
            let mut it = ops.into_iter();
            let first = it.next().expect("length checked");
            it.fold(first, |acc, x| Rpeq::Union(Box::new(acc), Box::new(x)))
        }
    };
    if has_empty {
        optional(u)
    } else {
        u
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> String {
        normalize(&s.parse().unwrap()).to_string()
    }

    #[test]
    fn unions_sort_dedup_and_flatten() {
        assert_eq!(n("b|a"), "a|b");
        assert_eq!(n("(b|a)|b"), "a|b");
        assert_eq!(n("((a|b)|(c|a))"), "a|b|c");
        assert_eq!(n("a|a"), "a");
    }

    #[test]
    fn empty_alternative_becomes_optional() {
        assert_eq!(n("a|%"), "a?");
        assert_eq!(n("%|a|b"), "(a|b)?");
        assert_eq!(n("%|%"), "%");
        assert_eq!(n("a+|%"), "a*");
        assert_eq!(n("a*|b"), "(a+|b)?");
    }

    #[test]
    fn concat_flattens_and_drops_empty() {
        assert_eq!(n("a.%.b"), "a.b");
        assert_eq!(n("a.(b.c)"), "a.b.c");
        assert_eq!(n("%.%"), "%");
    }

    #[test]
    fn adjacent_closures_collapse() {
        assert_eq!(n("a*.a*"), "a*");
        assert_eq!(n("a*.a"), "a+");
        assert_eq!(n("a.a*"), "a+");
        assert_eq!(n("a+.a*"), "a+");
        assert_eq!(n("a*.a+"), "a+");
        assert_eq!(n("_*._"), "_+");
        assert_eq!(n("a*.a*.a"), "a+");
        // Different labels do not collapse.
        assert_eq!(n("a*.b*"), "a*.b*");
        // l+.l+ selects depth ≥ 2 — not collapsible.
        assert_eq!(n("a+.a+"), "a+.a+");
    }

    #[test]
    fn optionals_collapse() {
        assert_eq!(n("a??"), "a?");
        assert_eq!(n("a+?"), "a*");
        assert_eq!(n("a*?"), "a*");
        assert_eq!(n("%?"), "%");
        assert_eq!(n("(a?.b*)?"), "a?.b*");
    }

    #[test]
    fn qualifier_stacks_sort_dedup_and_drop_trivial() {
        assert_eq!(n("a[c][b]"), "a[b][c]");
        assert_eq!(n("a[b][b]"), "a[b]");
        assert_eq!(n("a[b*]"), "a"); // ε path reaches the context node.
        assert_eq!(n("a[b?]"), "a");
        assert_eq!(n("a[%]"), "a");
        assert_eq!(n("a[b|%][c]"), "a[c]");
        assert_eq!(n("a[c|b]"), "a[b|c]");
    }

    #[test]
    fn nested_rewrites_compose() {
        assert_eq!(n("(b|a).(%|c)"), "(a|b).c?");
        assert_eq!(n("x[(b|a).d].y"), "x[(a|b).d].y");
        assert_eq!(n("_*._*.a"), "_*.a");
    }

    #[test]
    fn normalization_is_idempotent_on_examples() {
        for s in [
            "b|a",
            "a|%",
            "a*.a",
            "a[c][b]",
            "(b|a).(%|c)",
            "x[(b|a).d].y",
            "a*|b",
            "~x.^y",
            "_*.country[name].city?",
        ] {
            let once = normalize(&s.parse().unwrap());
            assert_eq!(normalize(&once), once, "not idempotent on {s}");
        }
    }

    #[test]
    fn nullable_cases() {
        assert!(nullable(&"a*".parse().unwrap()));
        assert!(nullable(&"a?".parse().unwrap()));
        assert!(nullable(&"%".parse().unwrap()));
        assert!(nullable(&"a*.b?".parse().unwrap()));
        assert!(!nullable(&"a".parse().unwrap()));
        assert!(!nullable(&"a+".parse().unwrap()));
        assert!(!nullable(&"a*.b".parse().unwrap()));
        assert!(!nullable(&"a*[b]".parse().unwrap()));
    }
}
