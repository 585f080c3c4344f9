//! The Section 2.3 translations: path queries as linear monadic Datalog.
//!
//! Two presentations are given in the paper and both are implemented:
//!
//! * the **quotient** program `D_p`, with one IDB `still-left_q` per
//!   repeated quotient `q` of `p` ("q is the subquery still left to
//!   evaluate from x"), and
//! * the **state** program, with one IDB `state_h` per state of an fsa for
//!   `p` ("the two approaches are, of course, syntactic variants of each
//!   other").
//!
//! Both generate: an initialization rule from `source`, one chain rule per
//! (class, label) / automaton transition over the EDB `ref(y, l, x)`, and
//! `answer(x)` projection rules. The produced programs are checked linear
//! and monadic by construction (asserted in tests via the analyses of
//! [`crate::ir`]).

use rpq_automata::{Alphabet, Nfa, Regex};
use rpq_graph::{CsrGraph, Instance, Oid};
use rpq_paper::DerivativeClosure;

use crate::engine::{eval_seminaive, FixpointStats};
use crate::ir::{Atom, PredId, Program, RuleBuilder, Term};
use crate::storage::Database;

/// A translated query: the program plus the handles needed to run it.
#[derive(Clone, Debug)]
pub struct TranslatedQuery {
    /// The Datalog program.
    pub program: Program,
    /// EDB `ref(source, label, destination)`.
    pub ref_pred: PredId,
    /// EDB `source(o)`.
    pub source_pred: PredId,
    /// IDB `answer(x)`.
    pub answer_pred: PredId,
    /// Number of `still-left`/`state` predicates generated.
    pub idb_count: usize,
}

/// Encode graph constants: nodes and labels share the `u64` domain (they
/// never meet in a column, so no tagging is needed).
pub fn node_const(o: Oid) -> u64 {
    o.index() as u64
}

/// Label constant encoding.
pub fn label_const(s: rpq_automata::Symbol) -> u64 {
    s.index() as u64
}

fn declare_base(program: &mut Program) -> (PredId, PredId, PredId) {
    let ref_pred = program.declare("ref", 3, true);
    let source_pred = program.declare("source", 1, true);
    let answer_pred = program.declare("answer", 1, false);
    (ref_pred, source_pred, answer_pred)
}

/// The quotient program `D_p` (Section 2.3, first presentation).
///
/// `P` is the closure of repeated quotients of `p` over `symbols`; for each
/// `q ∈ P` and label `l` with `q/l ≠ ∅` there is a rule
/// `still-left_{q/l}(x) :- still-left_q(y), ref(y, l, x).`
pub fn translate_quotient(
    query: &Regex,
    alphabet: &Alphabet,
) -> Result<TranslatedQuery, rpq_paper::derivative::ClosureOverflow> {
    let symbols: Vec<_> = alphabet.symbols().collect();
    let closure = DerivativeClosure::compute(query, &symbols, 1 << 16)?;
    let mut program = Program::default();
    let (ref_pred, source_pred, answer_pred) = declare_base(&mut program);

    // one predicate per quotient class (skip the ∅ class entirely)
    let mut class_pred: Vec<Option<PredId>> = Vec::with_capacity(closure.len());
    for (i, class) in closure.classes.iter().enumerate() {
        if *class == Regex::Empty {
            class_pred.push(None);
        } else {
            let name = format!("still_left_{i}"); // rendered regex in docs
            class_pred.push(Some(program.declare(&name, 1, false)));
        }
    }

    // initialization: still-left_p(o) :- source(o).
    if let Some(p0) = class_pred[0] {
        let mut b = RuleBuilder::new();
        let o = b.var("o");
        program.add_rule(b.rule(
            Atom {
                pred: p0,
                terms: vec![o],
            },
            vec![Atom {
                pred: source_pred,
                terms: vec![o],
            }],
        ));
    }

    // transitions
    for (c, row) in closure.trans.iter().enumerate() {
        let Some(cp) = class_pred[c] else { continue };
        for (k, &target) in row.iter().enumerate() {
            let Some(tp) = class_pred[target] else {
                continue;
            };
            let mut b = RuleBuilder::new();
            let (x, y) = (b.var("x"), b.var("y"));
            program.add_rule(b.rule(
                Atom {
                    pred: tp,
                    terms: vec![x],
                },
                vec![
                    Atom {
                        pred: cp,
                        terms: vec![y],
                    },
                    Atom {
                        pred: ref_pred,
                        terms: vec![y, Term::Const(label_const(closure.symbols[k])), x],
                    },
                ],
            ));
        }
    }

    // answers: answer(x) :- still-left_q(x) for ε ∈ L(q).
    for (c, &nullable) in closure.nullable.iter().enumerate() {
        let Some(cp) = class_pred[c] else { continue };
        if nullable {
            let mut b = RuleBuilder::new();
            let x = b.var("x");
            program.add_rule(b.rule(
                Atom {
                    pred: answer_pred,
                    terms: vec![x],
                },
                vec![Atom {
                    pred: cp,
                    terms: vec![x],
                }],
            ));
        }
    }

    let idb_count = class_pred.iter().flatten().count();
    Ok(TranslatedQuery {
        program,
        ref_pred,
        source_pred,
        answer_pred,
        idb_count,
    })
}

/// The automaton-state program (Section 2.3, second presentation):
/// `state_h(x) :- state_j(y), ref(y, l, x)` for each transition `h = δ(j, l)`.
/// ε-transitions of the (Thompson) NFA become unary copy rules
/// `state_h(x) :- state_j(x)`, preserving linearity and monadicity.
pub fn translate_states(nfa: &Nfa) -> TranslatedQuery {
    let mut program = Program::default();
    let (ref_pred, source_pred, answer_pred) = declare_base(&mut program);

    let state_pred: Vec<PredId> = (0..nfa.num_states())
        .map(|h| program.declare(&format!("state_{h}"), 1, false))
        .collect();

    // initialization: state_s(o) :- source(o).
    {
        let mut b = RuleBuilder::new();
        let o = b.var("o");
        program.add_rule(b.rule(
            Atom {
                pred: state_pred[nfa.start() as usize],
                terms: vec![o],
            },
            vec![Atom {
                pred: source_pred,
                terms: vec![o],
            }],
        ));
    }

    for j in 0..nfa.num_states() as u32 {
        for &h in nfa.eps_transitions(j) {
            let mut b = RuleBuilder::new();
            let x = b.var("x");
            program.add_rule(b.rule(
                Atom {
                    pred: state_pred[h as usize],
                    terms: vec![x],
                },
                vec![Atom {
                    pred: state_pred[j as usize],
                    terms: vec![x],
                }],
            ));
        }
        for &(l, h) in nfa.transitions(j) {
            let mut b = RuleBuilder::new();
            let (x, y) = (b.var("x"), b.var("y"));
            program.add_rule(b.rule(
                Atom {
                    pred: state_pred[h as usize],
                    terms: vec![x],
                },
                vec![
                    Atom {
                        pred: state_pred[j as usize],
                        terms: vec![y],
                    },
                    Atom {
                        pred: ref_pred,
                        terms: vec![y, Term::Const(label_const(l)), x],
                    },
                ],
            ));
        }
    }

    for h in nfa.accepting_states() {
        let mut b = RuleBuilder::new();
        let x = b.var("x");
        program.add_rule(b.rule(
            Atom {
                pred: answer_pred,
                terms: vec![x],
            },
            vec![Atom {
                pred: state_pred[h as usize],
                terms: vec![x],
            }],
        ));
    }

    TranslatedQuery {
        program,
        ref_pred,
        source_pred,
        answer_pred,
        idb_count: state_pred.len(),
    }
}

/// Load a label-indexed snapshot into the EDB relations of a translated
/// query. The CSR arena order (per-node rows sorted by `(Symbol, Oid)`)
/// gives the `ref` relation a deterministic, label-clustered tuple order.
pub fn load_csr(tq: &TranslatedQuery, graph: &CsrGraph, source: Oid) -> Database {
    load_csr_multi(tq, graph, std::slice::from_ref(&source))
}

/// Like [`load_csr`], but seeds the `source` EDB relation with *every*
/// source in the batch: the initialization rule then derives the start
/// predicate for all of them in round 0, so one semi-naive fixpoint
/// answers the whole multi-source batch (union semantics — the monadic
/// programs do not track which seed derived which answer).
pub fn load_csr_multi(tq: &TranslatedQuery, graph: &CsrGraph, sources: &[Oid]) -> Database {
    let mut db = Database::for_program(&tq.program);
    for (a, l, b) in graph.edges() {
        db.insert(
            tq.ref_pred,
            vec![node_const(a), label_const(l), node_const(b)],
        );
    }
    for &source in sources {
        db.insert(tq.source_pred, vec![node_const(source)]);
    }
    db
}

/// Load an instance into the EDB relations of a translated query.
///
/// Compatibility wrapper: snapshots the instance into a [`CsrGraph`] and
/// delegates to [`load_csr`]. Callers loading many queries over one graph
/// should snapshot once.
pub fn load_instance(tq: &TranslatedQuery, instance: &Instance, source: Oid) -> Database {
    load_csr(tq, &CsrGraph::from(instance), source)
}

/// Run a translated query with the semi-naive engine; returns sorted
/// answers and the fixpoint statistics.
pub fn run(tq: &TranslatedQuery, instance: &Instance, source: Oid) -> (Vec<Oid>, FixpointStats) {
    let mut db = load_instance(tq, instance, source);
    let stats = eval_seminaive(&tq.program, &mut db);
    let mut answers: Vec<Oid> = db
        .relation(tq.answer_pred)
        .iter()
        .map(|t| Oid(t[0] as u32))
        .collect();
    answers.sort();
    (answers, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::eval_naive;
    use rpq_automata::parse_regex;
    use rpq_core::eval_product;
    use rpq_graph::InstanceBuilder;

    fn fig2() -> (Alphabet, Instance, Oid) {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("o1", "a", "o2");
        b.edge("o2", "b", "o3");
        b.edge("o3", "b", "o2");
        let (inst, names) = b.finish();
        let o1 = names["o1"];
        (ab, inst, o1)
    }

    #[test]
    fn quotient_translation_is_linear_monadic_chain() {
        let (ab, _, _) = fig2();
        let mut ab = ab;
        let r = parse_regex(&mut ab, "a.b*").unwrap();
        let tq = translate_quotient(&r, &ab).unwrap();
        assert!(tq.program.is_linear());
        assert!(tq.program.is_monadic());
        // every transition rule is a chain rule
        let chains = tq
            .program
            .rules
            .iter()
            .filter(|r| tq.program.is_chain_rule(r))
            .count();
        assert!(chains >= 2, "{}", tq.program);
    }

    #[test]
    fn state_translation_is_linear_monadic() {
        let (ab, _, _) = fig2();
        let mut ab = ab;
        let r = parse_regex(&mut ab, "a.(b+a)*").unwrap();
        let tq = translate_states(&Nfa::thompson(&r));
        assert!(tq.program.is_linear());
        assert!(tq.program.is_monadic());
    }

    #[test]
    fn both_translations_agree_with_product_engine() {
        let (mut ab, inst, o1) = fig2();
        for q in ["a.b*", "(a+b)*", "a.b.b", "b*", "(a.b)*"] {
            let r = parse_regex(&mut ab, q).unwrap();
            let nfa = Nfa::thompson(&r);
            let expected = eval_product(&nfa, &inst, o1).answers;
            let tq1 = translate_quotient(&r, &ab).unwrap();
            let (a1, _) = run(&tq1, &inst, o1);
            assert_eq!(a1, expected, "quotient translation on {q}");
            let tq2 = translate_states(&nfa);
            let (a2, _) = run(&tq2, &inst, o1);
            assert_eq!(a2, expected, "state translation on {q}");
        }
    }

    #[test]
    fn naive_and_seminaive_agree_on_translation() {
        let (mut ab, inst, o1) = fig2();
        let r = parse_regex(&mut ab, "a.b*").unwrap();
        let tq = translate_quotient(&r, &ab).unwrap();
        let mut db1 = load_instance(&tq, &inst, o1);
        let mut db2 = load_instance(&tq, &inst, o1);
        eval_naive(&tq.program, &mut db1);
        eval_seminaive(&tq.program, &mut db2);
        let mut t1: Vec<_> = db1.relation(tq.answer_pred).iter().cloned().collect();
        let mut t2: Vec<_> = db2.relation(tq.answer_pred).iter().cloned().collect();
        t1.sort();
        t2.sort();
        assert_eq!(t1, t2);
    }

    #[test]
    fn program_renders_paper_shape() {
        let (mut ab, _, _) = fig2();
        let r = parse_regex(&mut ab, "a.b*").unwrap();
        let tq = translate_quotient(&r, &ab).unwrap();
        let rendered = tq.program.render();
        assert!(rendered.contains("still_left_0(o) :- source(o)."));
        assert!(rendered.contains("answer(x) :- still_left_"));
        assert!(rendered.contains("ref(y, "));
    }

    #[test]
    fn empty_query_translates_to_empty_answers() {
        let (mut ab, inst, o1) = fig2();
        let r = parse_regex(&mut ab, "[]").unwrap();
        let tq = translate_quotient(&r, &ab).unwrap();
        let (ans, _) = run(&tq, &inst, o1);
        assert!(ans.is_empty());
        let tq2 = translate_states(&Nfa::thompson(&r));
        let (ans2, _) = run(&tq2, &inst, o1);
        assert!(ans2.is_empty());
    }
}
