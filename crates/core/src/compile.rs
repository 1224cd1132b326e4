//! Translation of rpeq into SPEX networks — the denotational semantics `C`
//! of Fig. 11 of the paper.
//!
//! `C` maps an expression and the tape it reads from to the updated network
//! and its output tape:
//!
//! ```text
//! C[(e1 | e2)](σ,t)  = SP, C[e1], C[e2], JO, UN
//! C[(e1 . e2)](σ,t)  = C[e2](C[e1](σ,t))
//! C[e?](σ,t)         = SP, C[e], JO (+ UN, see below)
//! C[label*](σ,t)     = SP, C[label+], JO (+ UN)
//! C[label](σ,t)      = CH(label)
//! C[label+](σ,t)     = CL(label)
//! C[~label](σ,t)     = FO(label)          (following-axis extension)
//! C[^label](σ,t)     = PR(label, q fresh) (preceding-axis extension)
//! C[e1[e2]](σ,t)     = C[[e2]](C[e1](σ,t))
//! C[[e]](σ,t)        = VC(q), SP, (C[e], VF(q+), VD) ⋈ JO
//! ```
//!
//! The translation runs in time linear in the query size, and the degree of
//! the resulting network is linear in the query size (Lemma V.1; asserted by
//! tests below).
//!
//! Deviation from the paper, documented in DESIGN.md §3.4: a UN connector is
//! inserted after *every* join produced for `|`, `?` and `*`. Fig. 11 only
//! lists it for `|`, but the ε-branch of `?`/`*` can deliver an activation
//! for the same document message as the sub-network branch, and two
//! consecutive activations are not accepted by any downstream transducer;
//! UN merges them into one disjunction. (For the qualifier join no UN is
//! needed: the qualifier branch ends in VD, which never emits activations.)

use crate::network::{NetworkBuilder, NetworkSpec, NodeSpec, Tape};
use crate::sink::ResultSink;
use crate::vm::{Plan, PlanRun};
use spex_query::Rpeq;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Queries outside the compilable fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A `preceding::` step occurs inside a qualifier body. The speculative
    /// variables of the preceding transducer and the qualifier's instance
    /// variables would depend on each other cyclically, which the
    /// substitution-based determination machinery cannot resolve. Such
    /// queries are always rewritable with `following::` — e.g.
    /// `_*.a[^b]` ≡ `_*.b.~a`.
    PrecedingInQualifier {
        /// The offending qualifier expression.
        qualifier: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::PrecedingInQualifier { qualifier } => write!(
                f,
                "`preceding::` (^) inside a qualifier is not supported: [{qualifier}] — \
                 rewrite with `following::` (~), e.g. `_*.a[^b]` ≡ `_*.b.~a`"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

/// A query compiled to a SPEX network, ready to be instantiated over
/// streams with [`CompiledNetwork::run`].
#[derive(Debug, Clone)]
pub struct CompiledNetwork {
    spec: NetworkSpec,
    query: Rpeq,
    /// The flat VM plan, lowered on first use and shared by every run.
    plan: OnceLock<Arc<Plan>>,
}

impl CompiledNetwork {
    /// Compile `query` into a transducer network (Fig. 11 plus the IN source
    /// and OU sink).
    ///
    /// # Panics
    ///
    /// On the (rare) queries outside the compilable fragment — see
    /// [`CompiledNetwork::try_compile`] and [`CompileError`].
    pub fn compile(query: &Rpeq) -> CompiledNetwork {
        Self::try_compile(query).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Compile, reporting unsupported constructs as errors.
    pub fn try_compile(query: &Rpeq) -> Result<CompiledNetwork, CompileError> {
        check_compilable(query)?;
        let (mut builder, tape) = NetworkBuilder::with_input();
        let tape = translate(query, &mut builder, tape);
        builder.add_sink(tape);
        Ok(CompiledNetwork {
            spec: builder.finish(),
            query: query.clone(),
            plan: OnceLock::new(),
        })
    }

    /// The network shape.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// The compiled query.
    pub fn query(&self) -> &Rpeq {
        &self.query
    }

    /// The network degree (number of transducers).
    pub fn degree(&self) -> usize {
        self.spec.degree()
    }

    /// Instantiate the network over a stream, delivering results to `sink`.
    pub fn run<S: ResultSink>(&self, sink: S) -> PlanRun<S> {
        PlanRun::new(Arc::clone(self.plan()), vec![sink])
    }

    /// The flat VM plan, lowered from the network spec on first use and
    /// cached (see [`Plan`] and DESIGN.md §14).
    pub fn plan(&self) -> &Arc<Plan> {
        self.plan
            .get_or_init(|| Arc::new(Plan::compile(&self.spec)))
    }
}

/// Reject the constructs the network cannot realize (see [`CompileError`]).
///
/// Public so external network assemblers (the `spex-combine` multi-query
/// combiner) can pre-validate before building a shared topology.
pub fn check_compilable(query: &Rpeq) -> Result<(), CompileError> {
    fn go(q: &Rpeq, in_qualifier: bool) -> Result<(), CompileError> {
        match q {
            Rpeq::Preceding(_) if in_qualifier => Err(CompileError::PrecedingInQualifier {
                qualifier: q.to_string(),
            }),
            Rpeq::Empty
            | Rpeq::Step(_)
            | Rpeq::Plus(_)
            | Rpeq::Star(_)
            | Rpeq::Following(_)
            | Rpeq::Preceding(_) => Ok(()),
            Rpeq::Union(a, b) | Rpeq::Concat(a, b) => {
                go(a, in_qualifier)?;
                go(b, in_qualifier)
            }
            Rpeq::Optional(a) => go(a, in_qualifier),
            Rpeq::Qualified(a, qual) => {
                go(a, in_qualifier)?;
                go(qual, true)
            }
        }
    }
    go(query, false)
}

/// The function `C`. Appends `expr`'s sub-network to `builder`, reading from
/// `tape`; returns the sub-network's output tape.
///
/// Public so external network assemblers (the `spex-combine` multi-query
/// combiner) can compile individual chain steps into a shared builder;
/// callers must [`check_compilable`] first.
pub fn translate(expr: &Rpeq, builder: &mut NetworkBuilder, tape: Tape) -> Tape {
    match expr {
        // ε adds no transducer: the output tape is the input tape.
        Rpeq::Empty => tape,
        Rpeq::Step(l) => builder.chain(NodeSpec::Child(l.clone()), tape),
        Rpeq::Plus(l) => builder.chain(NodeSpec::Closure(l.clone()), tape),
        Rpeq::Following(l) => builder.chain(NodeSpec::Following(l.clone()), tape),
        Rpeq::Preceding(l) => {
            let q = builder.fresh_qualifier();
            builder.chain(NodeSpec::Preceding(l.clone(), q), tape)
        }
        Rpeq::Star(l) => {
            // label* ≡ (label+ | ε).
            let (t1, t2) = builder.split(tape);
            let t3 = builder.chain(NodeSpec::Closure(l.clone()), t2);
            let t4 = builder.join(t1, t3);
            builder.chain(NodeSpec::Union, t4)
        }
        Rpeq::Optional(e) => {
            let (t1, t2) = builder.split(tape);
            let t3 = translate(e, builder, t2);
            let t4 = builder.join(t1, t3);
            builder.chain(NodeSpec::Union, t4)
        }
        Rpeq::Union(a, b) => {
            let (t1, t2) = builder.split(tape);
            let ta = translate(a, builder, t1);
            let tb = translate(b, builder, t2);
            let tj = builder.join(ta, tb);
            builder.chain(NodeSpec::Union, tj)
        }
        Rpeq::Concat(a, b) => {
            let t1 = translate(a, builder, tape);
            translate(b, builder, t1)
        }
        Rpeq::Qualified(e, q) => {
            let te = translate(e, builder, tape);
            translate_qualifier(q, builder, te)
        }
    }
}

/// The `C[[rpeq]]` case of Fig. 11: wrap the tape in a qualifier.
pub fn translate_qualifier(qualifier: &Rpeq, builder: &mut NetworkBuilder, tape: Tape) -> Tape {
    let q = builder.fresh_qualifier();
    let tv = builder.chain(NodeSpec::VarCreator(q), tape);
    let (t1, t2) = builder.split(tv);
    let inner_start = builder.qualifier_count();
    let tq = translate(qualifier, builder, t2);
    let inner_end = builder.qualifier_count();
    let inner = (inner_start, inner_end);
    let tf = builder.chain(NodeSpec::VarFilterPos(q, inner), tq);
    let td = builder.chain(NodeSpec::VarDeterminant(q, inner), tf);
    builder.join(t1, td)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spex_query::QueryMetrics;

    fn compile(q: &str) -> CompiledNetwork {
        CompiledNetwork::compile(&q.parse().unwrap())
    }

    #[test]
    fn figure_12_network_shape() {
        // `_*.a[b].c` — Fig. 12 of the paper: IN, SP, CL(_), JO, (UN,)
        // CH(a), VC(q), SP, CH(b), VF(q+), VD, JO, CH(c), OU.
        let net = compile("_*.a[b].c");
        let desc = net.spec().describe();
        assert_eq!(
            desc,
            vec![
                "IN", "SP", "CL(_)", "JO", "UN", "CH(a)", "VC(q0)", "SP", "CH(b)", "VF(q0+)", "VD",
                "JO", "CH(c)", "OU"
            ]
        );
    }

    #[test]
    fn simple_chain_shapes() {
        assert_eq!(
            compile("a.c").spec().describe(),
            vec!["IN", "CH(a)", "CH(c)", "OU"]
        );
        assert_eq!(
            compile("a+.c+").spec().describe(),
            vec!["IN", "CL(a)", "CL(c)", "OU"]
        );
        assert_eq!(compile("%").spec().describe(), vec!["IN", "OU"]);
    }

    #[test]
    fn union_shape() {
        assert_eq!(
            compile("a|b").spec().describe(),
            vec!["IN", "SP", "CH(a)", "CH(b)", "JO", "UN", "OU"]
        );
    }

    #[test]
    fn optional_and_star_shapes() {
        assert_eq!(
            compile("a?").spec().describe(),
            vec!["IN", "SP", "CH(a)", "JO", "UN", "OU"]
        );
        assert_eq!(
            compile("a*").spec().describe(),
            vec!["IN", "SP", "CL(a)", "JO", "UN", "OU"]
        );
    }

    #[test]
    fn qualifiers_get_fresh_ids() {
        let net = compile("a[b].c[d]");
        let desc = net.spec().describe();
        assert!(desc.contains(&"VC(q0)".to_string()));
        assert!(desc.contains(&"VC(q1)".to_string()));
    }

    /// Lemma V.1: the degree of the network is linear in the query length.
    #[test]
    fn degree_linear_in_query_length() {
        for n in [1usize, 2, 4, 8, 16, 32, 64] {
            let q = (0..n)
                .map(|i| format!("s{i}"))
                .collect::<Vec<_>>()
                .join(".");
            let net = compile(&q);
            let m = QueryMetrics::of(net.query());
            // Exactly one transducer per step, plus IN and OU.
            assert_eq!(net.degree(), m.steps + 2);
        }
        // With the richer constructs the factor stays constant (≤ 6 nodes
        // per AST node).
        for n in [1usize, 2, 4, 8] {
            let q = (0..n)
                .map(|i| format!("_*.s{i}[t{i}]"))
                .collect::<Vec<_>>()
                .join(".");
            let net = compile(&q);
            let m = QueryMetrics::of(net.query());
            assert!(
                net.degree() <= 6 * m.length + 2,
                "{} vs {}",
                net.degree(),
                m.length
            );
        }
    }

    #[test]
    fn nested_qualifier_network_compiles() {
        let net = compile("_*.a[b[c]|d]._");
        assert!(net.degree() > 10);
        // Sanity: exactly one IN and one OU.
        let desc = net.spec().describe();
        assert_eq!(desc.iter().filter(|d| *d == "IN").count(), 1);
        assert_eq!(desc.iter().filter(|d| *d == "OU").count(), 1);
    }

    #[test]
    fn dump_is_readable() {
        let dump = compile("a[b]").spec().dump();
        assert!(dump.contains("VC(q0)"));
        assert!(dump.contains("<- ["));
    }
}
