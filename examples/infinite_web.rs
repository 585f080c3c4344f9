//! Remark 2.1: evaluation over a (conceptually) infinite Web. Bounded
//! queries terminate after exploring finitely many pages; unbounded ones
//! stream answers forever — made observable through an expansion budget
//! ("eventually computable" queries).
//!
//! ```sh
//! cargo run --example infinite_web
//! ```

use rpq::automata::{parse_regex, Alphabet, Nfa};
use rpq::paper::{InfiniteComb, InfiniteTree};
use rpq::paper::{StreamStatus, StreamingEval};

fn main() {
    let mut ab = Alphabet::new();
    let link = ab.intern("link");
    let article = ab.intern("article");

    // --- an infinite binary "web" of link/article edges ---------------------
    let tree = InfiniteTree {
        labels: vec![link, article],
    };

    // bounded query: terminates although the web is infinite
    let q1 = parse_regex(&mut ab, "link.link.article").unwrap();
    let nfa1 = Nfa::thompson(&q1);
    let mut ev = StreamingEval::new(&nfa1, &tree, 0, 1_000_000);
    let answers = ev.collect_all();
    println!(
        "link.link.article on the infinite tree: {} answer(s), status {:?}, {} pages fetched",
        answers.len(),
        ev.status(),
        ev.nodes_expanded()
    );
    assert_eq!(ev.status(), StreamStatus::Terminated);

    // unbounded query: the budget is the only thing that stops it
    let q2 = parse_regex(&mut ab, "(link + article)*").unwrap();
    let nfa2 = Nfa::thompson(&q2);
    let mut ev2 = StreamingEval::new(&nfa2, &tree, 0, 500);
    let a2 = ev2.collect_all();
    println!(
        "(link+article)* with a 500-page budget: {} answers streamed, status {:?}",
        a2.len(),
        ev2.status()
    );
    assert_eq!(ev2.status(), StreamStatus::BudgetExhausted);

    // --- eventually computable: every answer arrives, well, eventually ------
    let next = ab.intern("next");
    let tooth = ab.intern("tooth");
    let comb = InfiniteComb { next, tooth };
    let q3 = parse_regex(&mut ab, "next*.tooth").unwrap();
    let nfa3 = Nfa::thompson(&q3);
    let mut ev3 = StreamingEval::new(&nfa3, &comb, 0, 10);
    println!("\nnext*.tooth on the infinite comb, growing the budget:");
    let mut total = 0;
    for round in 0..5 {
        let batch = ev3.collect_all();
        total += batch.len();
        println!(
            "  budget round {round}: +{} answers (total {total}), status {:?}",
            batch.len(),
            ev3.status()
        );
        ev3.add_budget(10);
    }
    assert!(total >= 10);
}
