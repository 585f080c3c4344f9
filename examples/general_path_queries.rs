//! Section 2.4: general path queries with character-level label patterns,
//! the `μ` label-class translation of Example 2.1 / Figure 1, and content
//! selection (the SGML example).
//!
//! ```sh
//! cargo run --example general_path_queries
//! ```

use rpq::automata::Alphabet;
use rpq::graph::InstanceBuilder;
use rpq::paper::content::{find_by_content, set_content};
use rpq::paper::general::{eval_general, eval_general_direct, translate, GeneralPathQuery};

fn main() {
    // --- the paper's two-level query ---------------------------------------
    let mut ab = Alphabet::new();
    let mut b = InstanceBuilder::new(&mut ab);
    b.edge("root", "doc", "d1");
    b.edge("d1", "section", "s1");
    b.edge("d1", "Sections", "s2");
    b.edge("s1", "text", "t1");
    b.edge("s2", "text", "t2");
    b.edge("d1", "Paragraph", "p1");
    b.edge("d1", "appendix", "x1");
    let (inst, names) = b.finish();
    let root = names["root"];

    let q = GeneralPathQuery::parse(r#""doc" ("[sS]ections?" "text" + "[pP]aragraph")"#)
        .expect("parses");
    println!(
        "general query with {} patterns: {:?}",
        q.patterns.len(),
        q.pattern_sources
    );

    let mu = translate(&q, &inst, &ab);
    println!("\nμ translation (Proposition 2.2):");
    for (c, sig) in mu.class_signature.iter().enumerate() {
        println!(
            "  class [{}] — representative {:?}, satisfies patterns {:?}",
            c, mu.class_repr[c], sig
        );
    }
    println!("  μ(q) = {}", mu.mu_query.display(&mu.class_alphabet));

    let translated = eval_general(&q, &inst, root, &ab);
    let direct = eval_general_direct(&q, &inst, root, &ab);
    assert_eq!(translated, direct, "q(o,I) = μ(q)(o, μ(I))");
    println!(
        "\nanswers (both via μ and directly): {:?}",
        translated
            .iter()
            .map(|&o| inst.node_name(o))
            .collect::<Vec<_>>()
    );

    // --- Example 2.1's six label classes -----------------------------------
    let mut ab2 = Alphabet::new();
    let mut b2 = InstanceBuilder::new(&mut ab2);
    for (i, l) in ["b", "aab", "baa", "c", "dd", "zzz"].iter().enumerate() {
        b2.edge("o", l, &format!("t{i}"));
    }
    let (inst2, _) = b2.finish();
    let q2 =
        GeneralPathQuery::parse(r#"("a*b" "ba*") + ("a*b" "c") + ("ba*" "c") + "dd*" ("dd*")*"#)
            .expect("parses");
    let mu2 = translate(&q2, &inst2, &ab2);
    println!(
        "\nExample 2.1: {} equivalence classes (paper: six: [b],[ab],[ba],[c],[d],[h])",
        mu2.class_signature.len()
    );
    for (c, repr) in mu2.class_repr.iter().enumerate() {
        println!("  [{}] ∋ {:?}", c, repr);
    }

    // --- content selection --------------------------------------------------
    let mut ab3 = Alphabet::new();
    let mut b3 = InstanceBuilder::new(&mut ab3);
    b3.edge("home", "link", "tutorial");
    b3.edge("home", "link", "news");
    b3.edge("tutorial", "link", "reference");
    let (mut inst3, names3) = b3.finish();
    let home = names3["home"];
    set_content(
        &mut inst3,
        &mut ab3,
        names3["tutorial"],
        "All about SGML markup",
    );
    set_content(&mut inst3, &mut ab3, names3["news"], "XML news of the week");
    set_content(
        &mut inst3,
        &mut ab3,
        names3["reference"],
        "SGML reference manual",
    );
    let hits = find_by_content(&inst3, home, &ab3, "SGML");
    println!(
        "\npages whose content mentions SGML: {:?}",
        hits.iter().map(|&o| inst3.node_name(o)).collect::<Vec<_>>()
    );
}
