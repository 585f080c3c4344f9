//! Datalog intermediate representation and program analyses.
//!
//! Section 2.3 shows that path queries compile to Datalog programs that are
//! *linear* (at most one intensional predicate per rule body) and *monadic*
//! (all IDB predicates unary) — restrictions with known complexity
//! consequences (linear Datalog is in NC \[19\]). The analyses here verify
//! those properties for arbitrary programs, so the translations in
//! [`crate::translate`] are checked rather than trusted.

use std::collections::HashMap;
use std::fmt;

/// A constant of the (untyped) Datalog domain. Encodings of oids and labels
/// are chosen by the caller; the engine only compares constants.
pub type Const = u64;

/// Predicate identifier: index into [`Program::predicates`].
pub type PredId = usize;

/// Rule-local variable identifier.
pub type VarId = u32;

/// A term: variable or constant.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Term {
    /// A rule-local variable.
    Var(VarId),
    /// A constant.
    Const(Const),
}

/// A predicate declaration.
#[derive(Clone, Debug)]
pub struct Predicate {
    /// Display name.
    pub name: String,
    /// Number of columns.
    pub arity: usize,
    /// Extensional (given) vs intensional (derived).
    pub is_edb: bool,
}

/// An atom `p(t1, …, tk)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Atom {
    /// The predicate.
    pub pred: PredId,
    /// The argument terms.
    pub terms: Vec<Term>,
}

/// A rule `head :- body₁, …, bodyₙ.` (n = 0 means a fact schema).
#[derive(Clone, Debug)]
pub struct Rule {
    /// The derived atom.
    pub head: Atom,
    /// The conjunctive body.
    pub body: Vec<Atom>,
    /// Display names for this rule's variables (index = [`VarId`]).
    pub var_names: Vec<String>,
}

/// A positive Datalog program.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Declared predicates.
    pub predicates: Vec<Predicate>,
    /// The rules.
    pub rules: Vec<Rule>,
}

impl Program {
    /// Declare a predicate, returning its id. Names must be unique.
    pub fn declare(&mut self, name: &str, arity: usize, is_edb: bool) -> PredId {
        debug_assert!(
            self.predicates.iter().all(|p| p.name != name),
            "duplicate predicate {name}"
        );
        self.predicates.push(Predicate {
            name: name.to_owned(),
            arity,
            is_edb,
        });
        self.predicates.len() - 1
    }

    /// Look up a predicate by name.
    pub fn pred_by_name(&self, name: &str) -> Option<PredId> {
        self.predicates.iter().position(|p| p.name == name)
    }

    /// Add a rule, checking arities.
    pub fn add_rule(&mut self, rule: Rule) {
        assert_eq!(
            rule.head.terms.len(),
            self.predicates[rule.head.pred].arity,
            "head arity mismatch"
        );
        assert!(
            !self.predicates[rule.head.pred].is_edb,
            "EDB predicate in rule head"
        );
        for a in &rule.body {
            assert_eq!(
                a.terms.len(),
                self.predicates[a.pred].arity,
                "body arity mismatch"
            );
        }
        // Range restriction: every head variable occurs in the body.
        for t in &rule.head.terms {
            if let Term::Var(v) = t {
                assert!(
                    rule.body
                        .iter()
                        .flat_map(|a| a.terms.iter())
                        .any(|bt| bt == &Term::Var(*v)),
                    "unsafe rule: head variable not bound in body"
                );
            }
        }
        self.rules.push(rule);
    }

    /// IDB predicates of the program.
    pub fn idb_predicates(&self) -> Vec<PredId> {
        (0..self.predicates.len())
            .filter(|&p| !self.predicates[p].is_edb)
            .collect()
    }

    /// **Linearity** (Section 2.3): at most one IDB atom per rule body.
    pub fn is_linear(&self) -> bool {
        self.rules.iter().all(|r| {
            r.body
                .iter()
                .filter(|a| !self.predicates[a.pred].is_edb)
                .count()
                <= 1
        })
    }

    /// **Monadic** (Section 2.3): all IDB predicates have arity 1.
    pub fn is_monadic(&self) -> bool {
        self.predicates
            .iter()
            .filter(|p| !p.is_edb)
            .all(|p| p.arity == 1)
    }

    /// The predicate dependency graph: `p → q` when `q` occurs in the body
    /// of a rule with head `p`.
    pub fn dependency_graph(&self) -> Vec<Vec<PredId>> {
        let mut deps: Vec<Vec<PredId>> = vec![Vec::new(); self.predicates.len()];
        for r in &self.rules {
            for a in &r.body {
                if !deps[r.head.pred].contains(&a.pred) {
                    deps[r.head.pred].push(a.pred);
                }
            }
        }
        deps
    }

    /// Predicates involved in recursion (inside a dependency-graph cycle).
    pub fn recursive_predicates(&self) -> Vec<PredId> {
        let deps = self.dependency_graph();
        let n = self.predicates.len();
        let comp = rpq_automata::nfa::strongly_connected_components(n, |v, f| {
            for &w in &deps[v] {
                f(w);
            }
        });
        // a predicate is recursive if its SCC contains a cycle: either the
        // SCC has ≥ 2 members or it has a self-loop
        let mut size: HashMap<usize, usize> = HashMap::new();
        for &c in &comp {
            *size.entry(c).or_insert(0) += 1;
        }
        (0..n)
            .filter(|&p| size[&comp[p]] > 1 || deps[p].contains(&p))
            .collect()
    }

    /// Chain-rule detection for the RPQ-generated shape (related work \[10\]:
    /// "chain programs … where the recursive predicates are monadic"): a
    /// rule `h(x) :- b(y), e(y, C, x)` whose body threads a fresh variable
    /// through a binary-or-wider EDB atom from the IDB atom to the head.
    pub fn is_chain_rule(&self, rule: &Rule) -> bool {
        if rule.body.len() != 2 {
            return false;
        }
        let (idb, edb) = match (
            self.predicates[rule.body[0].pred].is_edb,
            self.predicates[rule.body[1].pred].is_edb,
        ) {
            (false, true) => (&rule.body[0], &rule.body[1]),
            (true, false) => (&rule.body[1], &rule.body[0]),
            _ => return false,
        };
        let (Some(Term::Var(hv)), Some(Term::Var(iv))) =
            (rule.head.terms.first(), idb.terms.first())
        else {
            return false;
        };
        // EDB atom must start with the IDB variable and end with the head var.
        matches!(edb.terms.first(), Some(Term::Var(v)) if v == iv)
            && matches!(edb.terms.last(), Some(Term::Var(v)) if v == hv)
            && hv != iv
    }

    /// Render the program in conventional Datalog syntax.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.rules {
            out.push_str(&self.render_rule(r));
            out.push('\n');
        }
        out
    }

    fn render_atom(&self, a: &Atom, names: &[String]) -> String {
        let args: Vec<String> = a
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => names
                    .get(*v as usize)
                    .cloned()
                    .unwrap_or_else(|| format!("V{v}")),
                Term::Const(c) => format!("{c}"),
            })
            .collect();
        format!("{}({})", self.predicates[a.pred].name, args.join(", "))
    }

    fn render_rule(&self, r: &Rule) -> String {
        if r.body.is_empty() {
            format!("{}.", self.render_atom(&r.head, &r.var_names))
        } else {
            let body: Vec<String> = r
                .body
                .iter()
                .map(|a| self.render_atom(a, &r.var_names))
                .collect();
            format!(
                "{} :- {}.",
                self.render_atom(&r.head, &r.var_names),
                body.join(", ")
            )
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Convenience builder for rules with named variables.
pub struct RuleBuilder {
    vars: Vec<String>,
    index: HashMap<String, VarId>,
}

impl RuleBuilder {
    /// Start a rule.
    pub fn new() -> RuleBuilder {
        RuleBuilder {
            vars: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// A named variable term (interned per rule).
    pub fn var(&mut self, name: &str) -> Term {
        if let Some(&v) = self.index.get(name) {
            return Term::Var(v);
        }
        let v = self.vars.len() as VarId;
        self.vars.push(name.to_owned());
        self.index.insert(name.to_owned(), v);
        Term::Var(v)
    }

    /// Finish into a [`Rule`].
    pub fn rule(self, head: Atom, body: Vec<Atom>) -> Rule {
        Rule {
            head,
            body,
            var_names: self.vars,
        }
    }
}

impl Default for RuleBuilder {
    fn default() -> Self {
        RuleBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transitive_closure_program() -> (Program, PredId, PredId) {
        let mut p = Program::default();
        let edge = p.declare("edge", 2, true);
        let tc = p.declare("tc", 2, false);
        let mut b = RuleBuilder::new();
        let (x, y) = (b.var("x"), b.var("y"));
        p.add_rule(b.rule(
            Atom {
                pred: tc,
                terms: vec![x, y],
            },
            vec![Atom {
                pred: edge,
                terms: vec![x, y],
            }],
        ));
        let mut b = RuleBuilder::new();
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        p.add_rule(b.rule(
            Atom {
                pred: tc,
                terms: vec![x, z],
            },
            vec![
                Atom {
                    pred: tc,
                    terms: vec![x, y],
                },
                Atom {
                    pred: edge,
                    terms: vec![y, z],
                },
            ],
        ));
        (p, edge, tc)
    }

    #[test]
    fn linearity_and_monadicity() {
        let (p, _, _) = transitive_closure_program();
        assert!(p.is_linear());
        assert!(!p.is_monadic()); // tc is binary
    }

    #[test]
    fn nonlinear_detected() {
        let mut p = Program::default();
        let e = p.declare("e", 2, true);
        let t = p.declare("t", 2, false);
        let mut b = RuleBuilder::new();
        let (x, y) = (b.var("x"), b.var("y"));
        p.add_rule(b.rule(
            Atom {
                pred: t,
                terms: vec![x, y],
            },
            vec![Atom {
                pred: e,
                terms: vec![x, y],
            }],
        ));
        let mut b = RuleBuilder::new();
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        p.add_rule(b.rule(
            Atom {
                pred: t,
                terms: vec![x, z],
            },
            vec![
                Atom {
                    pred: t,
                    terms: vec![x, y],
                },
                Atom {
                    pred: t,
                    terms: vec![y, z],
                },
            ],
        ));
        assert!(!p.is_linear());
    }

    #[test]
    fn recursion_detection() {
        let (p, edge, tc) = transitive_closure_program();
        let rec = p.recursive_predicates();
        assert!(rec.contains(&tc));
        assert!(!rec.contains(&edge));
    }

    #[test]
    #[should_panic(expected = "unsafe rule")]
    fn unsafe_rule_rejected() {
        let mut p = Program::default();
        let e = p.declare("e", 1, true);
        let q = p.declare("q", 1, false);
        let mut b = RuleBuilder::new();
        let x = b.var("x");
        let mut b2 = RuleBuilder::new();
        let _y = b2.var("y");
        let _ = e;
        // q(x) with empty body: x unbound
        p.add_rule(b.rule(
            Atom {
                pred: q,
                terms: vec![x],
            },
            vec![],
        ));
    }

    #[test]
    fn render_is_readable() {
        let (p, _, _) = transitive_closure_program();
        let s = p.render();
        assert!(s.contains("tc(x, y) :- edge(x, y)."));
        assert!(s.contains("tc(x, z) :- tc(x, y), edge(y, z)."));
    }

    #[test]
    fn chain_rule_detection() {
        let mut p = Program::default();
        let r = p.declare("ref", 3, true);
        let s1 = p.declare("state1", 1, false);
        let s2 = p.declare("state2", 1, false);
        let mut b = RuleBuilder::new();
        let (x, y) = (b.var("x"), b.var("y"));
        let rule = b.rule(
            Atom {
                pred: s2,
                terms: vec![x],
            },
            vec![
                Atom {
                    pred: s1,
                    terms: vec![y],
                },
                Atom {
                    pred: r,
                    terms: vec![y, Term::Const(9), x],
                },
            ],
        );
        assert!(p.is_chain_rule(&rule));
        p.add_rule(rule);
        // non-chain: head var equals idb var
        let mut b = RuleBuilder::new();
        let x = b.var("x");
        let rule2 = b.rule(
            Atom {
                pred: s2,
                terms: vec![x],
            },
            vec![Atom {
                pred: s1,
                terms: vec![x],
            }],
        );
        assert!(!p.is_chain_rule(&rule2));
    }

    #[test]
    #[should_panic(expected = "EDB predicate in rule head")]
    fn edb_head_rejected() {
        let mut p = Program::default();
        let e = p.declare("e", 1, true);
        let mut b = RuleBuilder::new();
        let x = b.var("x");
        let body = vec![Atom {
            pred: e,
            terms: vec![x],
        }];
        p.add_rule(b.rule(
            Atom {
                pred: e,
                terms: vec![x],
            },
            body,
        ));
    }
}
