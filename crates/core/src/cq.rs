//! Conjunctive queries with regular path expressions — §VII of the paper.
//!
//! A conjunctive query has the form
//!
//! ```text
//! q(X̄) :- Y₁ r₁ Z₁, …, Yₙ rₙ Zₙ
//! ```
//!
//! where each `rᵢ` is an rpeq, the `Yᵢ`/`Zᵢ` are query variables, `Root` is
//! a special variable bound to the document root, and `X̄ ⊆ var(q)` are the
//! head variables. A SPEX network for a conjunctive query has **one sink per
//! head variable**; "a path in a conjunctive query that does not lead to a
//! head variable corresponds to a qualifier" — the translation `T` of
//! Fig. 16.
//!
//! Like the paper, this implementation supports *tree-shaped* queries: each
//! non-`Root` variable is defined (appears as a `Z`) exactly once, and every
//! atom's source variable must be defined before use. Identity joins between
//! variables reachable via distinct paths (the paper's "future work") are
//! rejected at translation time.
//!
//! ```
//! use spex_core::cq::ConjunctiveQuery;
//!
//! // q(X3) :- Root(_*.a) X1, X1(b) X2, X1(c) X3   — equivalent to
//! // the rpeq `_*.a[b].c` (the paper's §VII example).
//! let cq = ConjunctiveQuery::parse("q(X3) :- Root(_*.a) X1, X1(b) X2, X1(c) X3").unwrap();
//! let results = cq.evaluate_str("<a><a><c/></a><b/><c/></a>").unwrap();
//! assert_eq!(results["X3"], vec!["<c></c>".to_string()]);
//! ```

use crate::compile::{translate, translate_qualifier};
use crate::network::{NetworkBuilder, NetworkSpec, Tape};
use crate::sink::FragmentCollector;
use crate::vm::{Plan, PlanRun};
use spex_query::{ParseError, Rpeq};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// One atom `Y r Z`: from the bindings of `Y`, evaluate `r`, binding `Z`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// Source variable (`Root` or a variable defined by an earlier atom).
    pub source: String,
    /// The regular path expression.
    pub path: Rpeq,
    /// Target variable, defined by this atom.
    pub target: String,
}

/// A conjunctive query. See the [module documentation](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConjunctiveQuery {
    /// Head variables, in declaration order.
    pub head: Vec<String>,
    /// Body atoms, in declaration order.
    pub atoms: Vec<Atom>,
}

/// Errors from conjunctive-query parsing or translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CqError {
    /// Malformed query text.
    Parse(String),
    /// An embedded rpeq failed to parse.
    Rpeq(ParseError),
    /// An embedded rpeq lies outside the compilable fragment.
    Compile(crate::CompileError),
    /// The query is not tree-shaped / uses variables incorrectly.
    Shape(String),
    /// Stream error during evaluation.
    Xml(spex_xml::XmlError),
}

impl fmt::Display for CqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CqError::Parse(m) => write!(f, "conjunctive query parse error: {m}"),
            CqError::Rpeq(e) => write!(f, "{e}"),
            CqError::Compile(e) => write!(f, "{e}"),
            CqError::Shape(m) => write!(f, "unsupported query shape: {m}"),
            CqError::Xml(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CqError {}

impl From<ParseError> for CqError {
    fn from(e: ParseError) -> Self {
        CqError::Rpeq(e)
    }
}

impl From<spex_xml::XmlError> for CqError {
    fn from(e: spex_xml::XmlError) -> Self {
        CqError::Xml(e)
    }
}

impl From<crate::CompileError> for CqError {
    fn from(e: crate::CompileError) -> Self {
        CqError::Compile(e)
    }
}

impl ConjunctiveQuery {
    /// Parse the textual form
    /// `q(X1, X2) :- Root(rpeq) X1, X1(rpeq) X2, …`.
    pub fn parse(text: &str) -> Result<ConjunctiveQuery, CqError> {
        let (head_part, body_part) = text
            .split_once(":-")
            .ok_or_else(|| CqError::Parse("missing `:-`".into()))?;
        let head_part = head_part.trim();
        let open = head_part
            .find('(')
            .ok_or_else(|| CqError::Parse("missing head variable list".into()))?;
        let close = head_part
            .rfind(')')
            .ok_or_else(|| CqError::Parse("missing `)` in head".into()))?;
        if close < open {
            return Err(CqError::Parse("malformed head".into()));
        }
        let head: Vec<String> = head_part[open + 1..close]
            .split(',')
            .map(|v| v.trim().to_string())
            .filter(|v| !v.is_empty())
            .collect();
        if head.is_empty() {
            return Err(CqError::Parse("empty head variable list".into()));
        }

        let mut atoms = Vec::new();
        for atom_text in split_top_level_commas(body_part) {
            let atom_text = atom_text.trim();
            if atom_text.is_empty() {
                continue;
            }
            let open = atom_text
                .find('(')
                .ok_or_else(|| CqError::Parse(format!("atom `{atom_text}` missing `(`")))?;
            let close = find_matching_paren(atom_text, open)
                .ok_or_else(|| CqError::Parse(format!("atom `{atom_text}` missing `)`")))?;
            let source = atom_text[..open].trim().to_string();
            let path: Rpeq = atom_text[open + 1..close].trim().parse()?;
            let target = atom_text[close + 1..].trim().to_string();
            if source.is_empty() || target.is_empty() {
                return Err(CqError::Parse(format!(
                    "atom `{atom_text}` missing a variable"
                )));
            }
            atoms.push(Atom {
                source,
                path,
                target,
            });
        }
        if atoms.is_empty() {
            return Err(CqError::Parse("empty body".into()));
        }
        let cq = ConjunctiveQuery { head, atoms };
        cq.check_shape()?;
        Ok(cq)
    }

    /// Validate the tree-shape restrictions.
    fn check_shape(&self) -> Result<(), CqError> {
        let mut defined: HashSet<&str> = HashSet::new();
        defined.insert("Root");
        for a in &self.atoms {
            if !defined.contains(a.source.as_str()) {
                return Err(CqError::Shape(format!(
                    "variable `{}` used before being defined (atoms must be ordered; identity joins are future work)",
                    a.source
                )));
            }
            if a.target == "Root" {
                return Err(CqError::Shape("`Root` cannot be a target".into()));
            }
            if !defined.insert(a.target.as_str()) {
                return Err(CqError::Shape(format!(
                    "variable `{}` defined twice (identity joins are future work)",
                    a.target
                )));
            }
        }
        for h in &self.head {
            if !defined.contains(h.as_str()) {
                return Err(CqError::Shape(format!("head variable `{h}` is not bound")));
            }
        }
        Ok(())
    }

    /// Does variable `v` lie on a path leading to a head variable
    /// (the `reach` function of Fig. 16)?
    fn reaches_head(&self, v: &str) -> bool {
        if self.head.iter().any(|h| h == v) {
            return true;
        }
        self.atoms
            .iter()
            .filter(|a| a.source == v)
            .any(|a| self.reaches_head(&a.target))
    }

    /// Fold a non-head-reaching atom and its whole dependent subtree into a
    /// single rpeq qualifier expression: `Y(b)X2, X2(c)X3, X2(e)X5` becomes
    /// the qualifier `b[c][e]` on `Y`'s tape. (Existential semantics: the
    /// branch holds iff a witness for the entire subtree exists.)
    fn qualifier_expr(&self, atom: &Atom) -> Rpeq {
        let mut e = atom.path.clone();
        for child in self.atoms.iter().filter(|a| a.source == atom.target) {
            e = e.with_qualifier(self.qualifier_expr(child));
        }
        e
    }

    /// Translate to a multi-sink network (the function `T` of Fig. 16).
    /// Returns the network and, per sink, the head variable it collects.
    ///
    /// Realization notes (the paper "leaves out some issues" here):
    ///
    /// * every side branch — an atom whose target does not lead to a head
    ///   variable — is folded, together with its whole dependent subtree,
    ///   into one rpeq qualifier (see `qualifier_expr`),
    /// * a variable's qualifiers are applied to its tape *before* the first
    ///   main-path atom reads it, regardless of the textual atom order (the
    ///   conjunction is order-insensitive),
    /// * explicit split transducers are unnecessary: the network executor
    ///   fans a tape out to every consumer.
    pub fn compile(&self) -> Result<(NetworkSpec, Vec<String>), CqError> {
        for atom in &self.atoms {
            crate::compile::check_compilable(&atom.path)?;
            if !self.reaches_head(&atom.target) {
                // The branch becomes a qualifier, where `preceding::` is
                // not realizable (see `CompileError::PrecedingInQualifier`).
                crate::compile::check_compilable(
                    &Rpeq::Empty.with_qualifier(self.qualifier_expr(atom)),
                )?;
            }
        }
        let (mut builder, root_tape) = NetworkBuilder::with_input();
        // Environment: variable → tape.
        let mut env: HashMap<String, Tape> = HashMap::new();
        env.insert("Root".to_string(), root_tape);
        let mut sink_vars: Vec<String> = Vec::new();

        // Qualifier expressions per main-path source variable, in atom
        // order: the roots of side branches hanging off the main tree.
        let mut qualifiers_of: HashMap<&str, Vec<Rpeq>> = HashMap::new();
        for atom in &self.atoms {
            let on_main = atom.source == "Root" || self.reaches_head(&atom.source);
            if on_main && !self.reaches_head(&atom.target) {
                qualifiers_of
                    .entry(atom.source.as_str())
                    .or_default()
                    .push(self.qualifier_expr(atom));
            }
        }

        // Apply a variable's qualifiers (once) before its tape is read.
        let mut qualified: HashSet<String> = HashSet::new();
        fn ensure_qualified(
            var: &str,
            builder: &mut NetworkBuilder,
            env: &mut HashMap<String, Tape>,
            qualifiers_of: &HashMap<&str, Vec<Rpeq>>,
            qualified: &mut HashSet<String>,
        ) {
            if !qualified.insert(var.to_string()) {
                return;
            }
            if let Some(qs) = qualifiers_of.get(var) {
                let mut tape = env[var];
                for q in qs {
                    tape = translate_qualifier(q, builder, tape);
                }
                env.insert(var.to_string(), tape);
            }
        }

        for atom in self.atoms.iter().filter(|a| self.reaches_head(&a.target)) {
            if !env.contains_key(&atom.source) {
                return Err(CqError::Shape(format!("unbound `{}`", atom.source)));
            }
            ensure_qualified(
                &atom.source,
                &mut builder,
                &mut env,
                &qualifiers_of,
                &mut qualified,
            );
            let out = translate(&atom.path, &mut builder, env[&atom.source]);
            env.insert(atom.target.clone(), out);
            if self.head.contains(&atom.target) {
                ensure_qualified(
                    &atom.target,
                    &mut builder,
                    &mut env,
                    &qualifiers_of,
                    &mut qualified,
                );
                builder.add_sink(env[&atom.target]);
                sink_vars.push(atom.target.clone());
            }
        }
        if sink_vars.is_empty() {
            return Err(CqError::Shape("no head variable was reached".into()));
        }
        Ok((builder.finish(), sink_vars))
    }

    /// Evaluate against a complete XML document; returns the serialized
    /// fragments per head variable.
    pub fn evaluate_str(&self, xml: &str) -> Result<BTreeMap<String, Vec<String>>, CqError> {
        let (spec, sink_vars) = self.compile()?;
        let collectors = (0..sink_vars.len())
            .map(|_| FragmentCollector::new())
            .collect();
        let mut run = PlanRun::new(Arc::new(Plan::compile(&spec)), collectors);
        for ev in spex_xml::Reader::from_bytes(xml.as_bytes().to_vec()) {
            run.push(ev?);
        }
        let (_, _, collectors) = run.finish_into_sinks();
        Ok(sink_vars
            .into_iter()
            .zip(collectors)
            .map(|(v, c)| (v, c.into_fragments()))
            .collect())
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q({}) :- ", self.head.join(", "))?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}({}) {}", a.source, a.path, a.target)?;
        }
        Ok(())
    }
}

/// Split on commas that are not inside parentheses or brackets.
fn split_top_level_commas(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (i, c) in s.char_indices() {
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' => depth -= 1,
            ',' if depth == 0 => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

fn find_matching_paren(s: &str, open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, c) in s.char_indices().skip(open) {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG1: &str = "<a><a><c/></a><b/><c/></a>";

    #[test]
    fn paper_example_equivalent_to_rpeq() {
        // §VII: q(X3) :- Root(_*.a) X1, X1(b) X2, X1(c) X3  ≡  _*.a[b].c
        let cq = ConjunctiveQuery::parse("q(X3) :- Root(_*.a) X1, X1(b) X2, X1(c) X3").unwrap();
        let results = cq.evaluate_str(FIG1).unwrap();
        assert_eq!(results["X3"], vec!["<c></c>".to_string()]);
        let rpeq_results = crate::evaluate_str("_*.a[b].c", FIG1).unwrap();
        assert_eq!(results["X3"], rpeq_results);
    }

    #[test]
    fn multiple_head_variables() {
        // Select both the a-nodes and their c-children.
        let cq = ConjunctiveQuery::parse("q(X1, X2) :- Root(_*.a) X1, X1(c) X2").unwrap();
        let results = cq.evaluate_str(FIG1).unwrap();
        assert_eq!(results["X1"].len(), 2); // both <a> elements
        assert_eq!(results["X2"].len(), 2); // both <c> elements
    }

    #[test]
    fn pure_chain_single_head() {
        let cq = ConjunctiveQuery::parse("q(X2) :- Root(a) X1, X1(c) X2").unwrap();
        let results = cq.evaluate_str(FIG1).unwrap();
        assert_eq!(results["X2"], vec!["<c></c>".to_string()]);
    }

    #[test]
    fn side_branch_becomes_qualifier() {
        // X2 is not on a head path → `[b]` qualifier semantics.
        let cq = ConjunctiveQuery::parse("q(X3) :- Root(a) X1, X1(b) X2, X1(c) X3").unwrap();
        let results = cq.evaluate_str(FIG1).unwrap();
        // Root child a has a b child, so its c child qualifies.
        assert_eq!(results["X3"], vec!["<c></c>".to_string()]);
        // Without the b — no result.
        let cq2 = ConjunctiveQuery::parse("q(X3) :- Root(a) X1, X1(nope) X2, X1(c) X3").unwrap();
        let results2 = cq2.evaluate_str(FIG1).unwrap();
        assert!(results2["X3"].is_empty());
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            ConjunctiveQuery::parse("q(X1) Root(a) X1"),
            Err(CqError::Parse(_))
        ));
        assert!(matches!(
            ConjunctiveQuery::parse("q() :- Root(a) X1"),
            Err(CqError::Parse(_))
        ));
        assert!(matches!(
            ConjunctiveQuery::parse("q(X1) :- Root(..a) X1"),
            Err(CqError::Rpeq(_))
        ));
    }

    #[test]
    fn shape_errors() {
        // Used before defined.
        assert!(matches!(
            ConjunctiveQuery::parse("q(X2) :- X1(a) X2, Root(b) X1"),
            Err(CqError::Shape(_))
        ));
        // Defined twice (identity join).
        assert!(matches!(
            ConjunctiveQuery::parse("q(X1) :- Root(a) X1, Root(b) X1"),
            Err(CqError::Shape(_))
        ));
        // Unbound head variable.
        assert!(matches!(
            ConjunctiveQuery::parse("q(X9) :- Root(a) X1"),
            Err(CqError::Shape(_))
        ));
    }

    #[test]
    fn display_roundtrips_through_parse() {
        let cq = ConjunctiveQuery::parse("q(X3) :- Root(_*.a) X1, X1(b) X2, X1(c) X3").unwrap();
        let printed = cq.to_string();
        let reparsed = ConjunctiveQuery::parse(&printed).unwrap();
        assert_eq!(cq, reparsed);
    }
}
