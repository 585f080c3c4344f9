//! The served planner's rewrites against the paper's semantics.
//!
//! The planner rewrites a query `q` into `q'` only when `E ⊨ q = q'`
//! (§3.2), which makes the answers equal on an instance where `E` holds.
//! One [`Case`] checks exactly that, end to end:
//!
//! 1. draw a family, one of its rule sets `E` (the shapes of
//!    `tests/plan_golden.rs`), a random graph over the set's labels, a
//!    path query and a `SourceSpec`;
//! 2. build the instance to satisfy `E` with [`crate::satisfy::chase`]:
//!    at the source for a single-source request, at every node for any
//!    other request, since a rewritten plan serves every arm;
//! 3. submit the query to a `Server::with_constraints(E)` on that
//!    instance;
//! 4. hold the answers against `eval_product` of the *original* query at
//!    every node.
//!
//! No case is a CRPQ: the server plans a CRPQ's atoms without reading `E`,
//! so no rewrite could fire in one.
//!
//! A case whose response reports `rewrites_certified > 0` is *rewritten*.
//! [`run`] tallies them per family so a test can assert a floor: a driver
//! whose rewrites never fire passes on nothing.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rpq_automata::{parse_regex, Alphabet, Nfa, Regex, Symbol};
use rpq_constraints::ConstraintSet;
use rpq_core::{eval_product, EvalResponse, SourceSpec};
use rpq_graph::{Instance, Oid};
use rpq_server::{Catalog, Server};

use crate::generators::random_graph;
use crate::random::{random_regex, RegexGenConfig};
use crate::satisfy::{chase, Scope};

/// One rule set of a family and the queries its rewrites are for.
pub struct RuleSet {
    /// The constraints, one per line.
    pub rules: &'static [&'static str],
    /// Queries the planner rewrites (or is tempted to) under `rules`.
    pub queries: &'static [&'static str],
    /// Heads a random tail is appended to.
    pub heads: &'static [&'static str],
}

/// A family of rule sets, named in the tally.
pub struct Family {
    /// The name the tally and failures report.
    pub name: &'static str,
    /// Its rule sets, drawn uniformly.
    pub sets: &'static [RuleSet],
}

/// The families: cache views (Example 3 and §5), boundedness under one
/// label's inclusions and equality (Example 2), and word equalities
/// (Theorem 4.10), some mixed with views.
pub const FAMILIES: [Family; 3] = [
    Family {
        name: "cache",
        sets: &[
            RuleSet {
                rules: &["l0 = a.b", "l1 = c.d", "l2 <= b.c"],
                queries: &["a.b.c", "b.c.d", "a.b.(c+d)", "c.d.a.b"],
                heads: &["a.b", "b.c", "c.d"],
            },
            RuleSet {
                rules: &["l = (a.b)*"],
                queries: &["a.(b.a)*.c", "(a.b)*", "a.(b.a)*.b", "(a.b)*.a"],
                heads: &["(a.b)*", "a.b"],
            },
            RuleSet {
                rules: &["l0 = a.b + c", "l1 = (a+b).d"],
                queries: &["(a.b + c).d", "a.d + b.d", "c.a"],
                heads: &["a.b + c", "(a+b).d"],
            },
            RuleSet {
                rules: &["a.b = l0", "(c+d).a = l1"],
                queries: &["a.b.c", "c.a + d.a", "(c+d).a.b"],
                heads: &["a.b", "(c+d).a"],
            },
            RuleSet {
                rules: &["l1 = (a.b)*", "l2 = (c.d)*"],
                queries: &["a.(b.a)*.c + c.(d.c)*.a", "(c.d)*.c"],
                heads: &["(a.b)*", "(c.d)*"],
            },
        ],
    },
    Family {
        name: "bound",
        sets: &[
            RuleSet {
                rules: &["l.l <= l"],
                queries: &["l*", "l.l*", "l.l.l", "(l.l)*"],
                heads: &["l*", "l.l"],
            },
            RuleSet {
                rules: &["l <= l.l"],
                queries: &["l*", "l + l.l", "l.l*", "l*.a"],
                heads: &["l*", "l"],
            },
            RuleSet {
                rules: &["l.l = l"],
                queries: &["l*", "l.l*", "l.l.l", "l*.a"],
                heads: &["l*", "l.l"],
            },
            RuleSet {
                rules: &["a + () <= a*"],
                queries: &["a*", "a.a*", "() + a"],
                heads: &["a*"],
            },
            RuleSet {
                rules: &["a* <= a + ()"],
                queries: &["a*", "a.a*", "a.a.a"],
                heads: &["a*"],
            },
        ],
    },
    Family {
        name: "word-eq",
        sets: &[
            RuleSet {
                rules: &["a.a = a"],
                queries: &["a*", "(a+b)*", "a.a.a + b"],
                heads: &["a*", "a.a"],
            },
            RuleSet {
                rules: &["b.a = a", "b.b = b"],
                queries: &["b*.a", "b.b.a", "b*"],
                heads: &["b*", "b.b"],
            },
            RuleSet {
                rules: &["a.b = b.a"],
                queries: &["a.b + b.a", "a.b.a.b", "(a.b)*"],
                heads: &["a.b", "b.a"],
            },
            RuleSet {
                rules: &["a.a.a = ()"],
                queries: &["a*", "a.a.a.a", "(a.a)*"],
                heads: &["a*"],
            },
            RuleSet {
                rules: &["l0 = a.b.c", "l1 = a.a", "b.b <= b"],
                queries: &["a.b.c", "a.a.b", "b.b.c"],
                heads: &["a.b.c", "a.a", "b.b"],
            },
            RuleSet {
                rules: &["l = (a.b)*", "m.m = m"],
                queries: &["a.(b.a)*.c", "m*", "m.m.a"],
                heads: &["m*", "(a.b)*"],
            },
        ],
    },
];

/// Repairs the chase may make before a case fails.
const CHASE_STEPS: usize = 20_000;

/// One drawn case, its instance already satisfying its rule set.
pub struct Case {
    /// The family's name.
    pub family: &'static str,
    /// The rule set's lines.
    pub rules: &'static [&'static str],
    /// The alphabet every label of the case is interned in.
    pub alphabet: Alphabet,
    /// The rule set.
    pub set: ConstraintSet,
    /// The instance, satisfying `set` on `scope`.
    pub instance: Instance,
    /// Where `set` was made to hold.
    pub scope: Scope,
    /// The submitted path query.
    pub text: String,
    /// The request shape.
    pub spec: SourceSpec,
}

impl Case {
    /// Draw case `seed` of `family`: every choice is seeded by `seed`.
    pub fn draw(family: &'static Family, seed: u64) -> Result<Case, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let rs = &family.sets[rng.random_range(0..family.sets.len())];
        let mut ab = Alphabet::from_names(["a", "b", "c", "d"]);
        let set = ConstraintSet::parse(&mut ab, rs.rules.iter().copied())
            .map_err(|e| format!("{:?}: {e:?}", rs.rules))?;
        let parse =
            |ab: &mut Alphabet, t: &str| parse_regex(ab, t).map_err(|e| format!("{t}: {e:?}"));
        let heads: Vec<Regex> = rs
            .heads
            .iter()
            .map(|t| parse(&mut ab, t))
            .collect::<Result<_, _>>()?;
        // The graph's labels are the ones the set and its texts read, so
        // that a family over one label gets long paths on it.
        let mut labels = set.symbols();
        for t in rs.queries {
            labels.extend(parse(&mut ab, t)?.symbols());
        }
        labels.extend(heads.iter().flat_map(Regex::symbols));
        // A cache label `l` of a rule `l ⊙ q` or `q ⊙ l` that `q` does not
        // read gets no random edges, so the chase adds exactly its view.
        let lone = |r: &Regex, other: &Regex| match r.as_word().as_deref() {
            Some(&[l]) if !other.symbols().contains(&l) => Some(l),
            _ => None,
        };
        let views: Vec<Symbol> = set
            .iter()
            .flat_map(|c| [lone(&c.lhs, &c.rhs), lone(&c.rhs, &c.lhs)])
            .flatten()
            .collect();
        labels.retain(|s| !views.contains(s));
        labels.sort_unstable();
        labels.dedup();
        let n = rng.random_range(5..=8);
        let m = rng.random_range(n..=3 * n);
        let (mut instance, _) = random_graph(&mut rng, n, m, &labels);
        let spec = draw_spec(&mut rng, n);
        let scope = match spec {
            SourceSpec::Source(o) => Scope::Source(o),
            _ => Scope::EveryNode,
        };
        let mut cfg = RegexGenConfig::new(labels.clone());
        cfg.max_depth = 2;
        let text = if rng.random_bool(0.5) {
            rs.queries[rng.random_range(0..rs.queries.len())].to_string()
        } else {
            let head = heads[rng.random_range(0..heads.len())].clone();
            let q = head.then(random_regex(&mut rng, &cfg));
            q.display(&ab).to_string()
        };
        chase(&mut instance, &set, &scope, CHASE_STEPS)
            .map_err(|e| format!("{} {:?}: no instance: {e:?}", family.name, rs.rules))?;
        Ok(Case {
            family: family.name,
            rules: rs.rules,
            alphabet: ab,
            set,
            instance,
            scope,
            text,
            spec,
        })
    }

    /// Submit the case to a server under its rule set and hold the answers
    /// against the original query's; `Ok(true)` when a rewrite fired.
    pub fn run(&self) -> Result<bool, String> {
        let catalog = Arc::new(Catalog::from_instance(&self.instance));
        let server = Server::with_constraints(catalog, self.set.clone(), self.alphabet.clone());
        let resp = server
            .session()
            .submit_text(&self.text, self.spec.clone())
            .map_err(|e| self.fail(&format!("submit: {e}")))?
            .join();
        if !resp.termination.is_complete() {
            return Err(self.fail("did not complete"));
        }
        let q = parse_regex(&mut self.alphabet.clone(), &self.text)
            .map_err(|e| self.fail(&format!("{e:?}")))?;
        let nfa = Nfa::thompson(&q);
        let rows: Vec<Vec<Oid>> = self
            .instance
            .nodes()
            .map(|o| eval_product(&nfa, &self.instance, o).answers)
            .collect();
        agree(&resp, &self.spec, &rows).map_err(|e| self.fail(&e))?;
        Ok(resp.stats.rewrites_certified > 0)
    }

    /// A failure message that says which case it was.
    fn fail(&self, what: &str) -> String {
        let edges: Vec<String> = self
            .instance
            .edges()
            .map(|(f, a, t)| format!("{}-{}->{}", f.0, self.alphabet.name(a), t.0))
            .collect();
        format!(
            "{} E={:?} text={:?} spec={:?} scope={:?}: {what}\n  edges: {}",
            self.family,
            self.rules,
            self.text,
            self.spec,
            self.scope,
            edges.join(" ")
        )
    }
}

/// A request over `n` nodes, a single source two times in seven.
fn draw_spec(rng: &mut StdRng, n: usize) -> SourceSpec {
    let node = |rng: &mut StdRng| Oid(rng.random_range(0..n) as u32);
    let some = |rng: &mut StdRng| {
        let mut os: Vec<Oid> = (0..rng.random_range(1..=3)).map(|_| node(rng)).collect();
        os.sort_unstable();
        os.dedup();
        os
    };
    match rng.random_range(0..7) {
        0 | 1 => SourceSpec::Source(node(rng)),
        2 => SourceSpec::Sources(some(rng)),
        3 => SourceSpec::Target(node(rng)),
        4 => SourceSpec::Targets(some(rng)),
        5 => SourceSpec::Pair {
            source: node(rng),
            target: node(rng),
        },
        _ => SourceSpec::Matrix {
            sources: some(rng),
            targets: some(rng),
        },
    }
}

/// Does `resp` answer `spec` as `rows` (`rows[s]` = the original query's
/// answers at `s`) says?
fn agree(resp: &EvalResponse, spec: &SourceSpec, rows: &[Vec<Oid>]) -> Result<(), String> {
    let reaches = |s: Oid, t: Oid| rows[s.index()].binary_search(&t).is_ok();
    let sources_of = |t: Oid| -> Vec<Oid> {
        (0..rows.len() as u32)
            .map(Oid)
            .filter(|&s| reaches(s, t))
            .collect()
    };
    let batch = |keys: &[Oid], want: &dyn Fn(Oid) -> Vec<Oid>| -> Result<(), String> {
        let got = resp.batch().ok_or("no batch answer")?;
        let mut union: Vec<Oid> = keys.iter().flat_map(|&k| want(k)).collect();
        union.sort_unstable();
        union.dedup();
        if got.union() != union {
            return Err(format!("union {:?}, want {union:?}", got.union()));
        }
        match got.per_source() {
            Some(per) if per.len() != keys.len() => Err("per-key answers missing".into()),
            Some(per) => match keys.iter().zip(per).find(|(&k, got)| **got != want(k)) {
                Some((k, got)) => Err(format!("at {k:?}: {got:?}, want {:?}", want(*k))),
                None => Ok(()),
            },
            None => Ok(()),
        }
    };
    let nodes = |want: Vec<Oid>| match resp.nodes() {
        Some(got) if got == want => Ok(()),
        got => Err(format!("nodes {got:?}, want {want:?}")),
    };
    match spec {
        SourceSpec::Source(o) => nodes(rows[o.index()].clone()),
        SourceSpec::Target(t) => nodes(sources_of(*t)),
        SourceSpec::Sources(os) => batch(os, &|o| rows[o.index()].clone()),
        SourceSpec::Targets(ts) => batch(ts, &sources_of),
        SourceSpec::Pair { source, target } => match resp.reachable() {
            Some(got) if got == reaches(*source, *target) => Ok(()),
            got => Err(format!("pair {got:?}")),
        },
        SourceSpec::Matrix { .. } => {
            let m = resp.matrix().ok_or("no matrix answer")?;
            for (i, &s) in m.sources().iter().enumerate() {
                for (j, &t) in m.targets().iter().enumerate() {
                    if m.reachable(i, j) != reaches(s, t) {
                        return Err(format!("matrix cell ({s:?}, {t:?})"));
                    }
                }
            }
            Ok(())
        }
        SourceSpec::Conjunctive { .. } => {
            Err("a path query is not asked conjunctively here".into())
        }
    }
}

/// Per family: cases run and cases rewritten.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// `(family, cases, rewritten)`, in [`FAMILIES`] order.
    pub families: Vec<(&'static str, usize, usize)>,
}

impl Tally {
    /// Cases of `family` in which a rewrite fired.
    pub fn rewritten(&self, family: &str) -> usize {
        self.families
            .iter()
            .find(|(f, ..)| *f == family)
            .map_or(0, |&(_, _, r)| r)
    }
}

/// Draw and run `per_family` cases of every family (case `i` of family
/// `f` is seeded `i`, salted by `f`); the first failure, or the tally.
pub fn run(per_family: usize) -> Result<Tally, String> {
    let mut tally = Tally::default();
    for (f, family) in FAMILIES.iter().enumerate() {
        let mut rewritten = 0;
        for i in 0..per_family as u64 {
            let case = Case::draw(family, i ^ ((f as u64) << 32))?;
            rewritten += usize::from(case.run()?);
        }
        tally.families.push((family.name, per_family, rewritten));
    }
    Ok(tally)
}
