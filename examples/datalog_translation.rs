//! Section 2.3: path queries as linear monadic Datalog — print both
//! generated programs, run naive vs semi-naive, compare against the direct
//! product-automaton engine.
//!
//! ```sh
//! cargo run --example datalog_translation
//! ```

use rpq::automata::{parse_regex, Alphabet, Nfa};
use rpq::core::eval_product;
use rpq::datalog::engine::{eval_naive, eval_seminaive};
use rpq::datalog::translate::{load_instance, translate_quotient, translate_states};
use rpq::graph::Oid;
use rpq_testkit::generators::fig2_graph;

fn main() {
    let mut ab = Alphabet::new();
    let (inst, _, o1) = fig2_graph(&mut ab);
    let q = parse_regex(&mut ab, "a.b*").unwrap();
    println!(
        "query p = {}   (Figure 2 graph, source o1)\n",
        q.display(&ab)
    );

    // --- quotient program D_p ----------------------------------------------
    let tq = translate_quotient(&q, &ab).unwrap();
    println!(
        "== quotient program D_p ({} IDB predicates) ==",
        tq.idb_count
    );
    print!("{}", tq.program.render());
    println!(
        "linear: {}   monadic: {}\n",
        tq.program.is_linear(),
        tq.program.is_monadic()
    );

    // --- state program ------------------------------------------------------
    let nfa = Nfa::thompson(&q);
    let ts = translate_states(&nfa);
    println!(
        "== automaton-state program ({} state predicates) ==",
        ts.idb_count
    );
    print!("{}", ts.program.render());
    println!(
        "linear: {}   monadic: {}\n",
        ts.program.is_linear(),
        ts.program.is_monadic()
    );

    // --- evaluation ----------------------------------------------------------
    let expected = eval_product(&nfa, &inst, o1).answers;
    let mut db_naive = load_instance(&tq, &inst, o1);
    let naive = eval_naive(&tq.program, &mut db_naive);
    let mut db_semi = load_instance(&tq, &inst, o1);
    let semi = eval_seminaive(&tq.program, &mut db_semi);
    let answers: Vec<Oid> = {
        let mut v: Vec<Oid> = db_semi
            .relation(tq.answer_pred)
            .iter()
            .map(|t| Oid(t[0] as u32))
            .collect();
        v.sort();
        v
    };
    assert_eq!(answers, expected);
    println!(
        "answers: {:?} (= product engine)",
        answers
            .iter()
            .map(|&o| inst.node_name(o))
            .collect::<Vec<_>>()
    );
    println!(
        "naive:     {} rounds, {} derivations",
        naive.rounds, naive.derivations
    );
    println!(
        "semi-naive: {} rounds, {} derivations  (the classical saving)",
        semi.rounds, semi.derivations
    );
}
