//! Section 4.3: build Armstrong instances for word equalities, inspect
//! their K-sphere structure (Lemma 4.9 / Figure 5), and check
//! Proposition 4.8 on the truncation.
//!
//! ```sh
//! cargo run --example armstrong_explorer
//! ```

use rpq::automata::Alphabet;
use rpq::constraints::ConstraintSet;
use rpq::paper::implication::word_implies_word_eq;
use rpq::paper::{suggested_radius, ArmstrongSphere};

fn main() {
    let systems: &[&[&str]] = &[
        &["a.a = a"],
        &["a.a.a = ()"],
        &["a.b = b.a"],
        &["b.a = a", "b.b = b"],
    ];

    for lines in systems {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, lines.iter().copied()).unwrap();
        let syms: Vec<_> = ab.symbols().collect();
        let k = suggested_radius(&set);
        let radius = (k + 2).min(10);
        let sphere = ArmstrongSphere::build(&set, &syms, radius, 100_000).unwrap();

        println!("E = {lines:?}");
        println!(
            "  K (Lemma 4.9) = {k}; materialized radius {radius}: {} classes",
            sphere.num_nodes()
        );
        for n in 0..sphere.num_nodes().min(8) {
            let succ: Vec<String> = sphere.edges[n]
                .iter()
                .map(|&(a, m)| format!("--{}--> {}", ab.name(a), ab.render_word(&sphere.reps[m])))
                .collect();
            println!(
                "    [{}]  depth {}  {}",
                ab.render_word(&sphere.reps[n]),
                sphere.depth[n],
                succ.join("  ")
            );
        }
        let m = set.max_word_len();
        println!(
            "  Lemma 4.9 checks: indegree-1 violations outside M-sphere: {}; re-entry edges past K: {}",
            sphere.indegree_violations(m).len(),
            sphere.reentry_violations(k.min(radius.saturating_sub(1))).len()
        );

        // Proposition 4.8 on short words: same class ⇔ implied equality.
        let mut ok = 0;
        let mut total = 0;
        let mut words: Vec<Vec<_>> = vec![vec![]];
        for _ in 0..3 {
            let mut next = Vec::new();
            for w in &words {
                for &s in &syms {
                    let mut w2 = w.clone();
                    w2.push(s);
                    next.push(w2);
                }
            }
            words.extend(next);
        }
        for u in &words {
            for v in &words {
                let (Some(cu), Some(cv)) = (sphere.class_of_word(u), sphere.class_of_word(v))
                else {
                    continue;
                };
                total += 1;
                if (cu == cv) == word_implies_word_eq(&set, u, v) {
                    ok += 1;
                }
            }
        }
        println!("  Proposition 4.8 agreement on {total} word pairs: {ok}/{total}\n");
        assert_eq!(ok, total);
    }
}
