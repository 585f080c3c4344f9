//! Sound algebraic simplification of regular expressions.
//!
//! The paper's Section 5 notes that even classical regular-expression
//! equivalence has no obvious axiomatization (citing Salomaa \[29\]) and that
//! rewrite rules "of practical use in simplifying path queries" are a goal of
//! the constraint machinery. This module provides the constraint-free layer:
//! a terminating, shrinking-only rewriter built from sound identities of the
//! algebra of regular events, plus a "deep" mode that round-trips through
//! the minimal DFA and keeps whichever expression is smaller.
//!
//! There are two entry points and no settings. [`simplify`] applies the
//! syntactic rules below: the constraint prover and the constraint parser
//! normalize with it. [`simplify_deep`] adds semantic union pruning (an
//! inclusion test per pair of arms, on unions of total size at most 64)
//! and the minimal-DFA → state-elimination route: the optimizer's view
//! search normalizes rewrite candidates with it before costing them. Both
//! rewrite bottom-up to a fixpoint of at most 8 passes.
//!
//! Every rule is an equivalence of regular expressions — no rule depends on
//! constraints — so `L(simplify(r)) = L(r)` unconditionally. Both entry
//! points are held against [`crate::ops::regex_equivalent`] on random
//! regexes (`never_grows_and_stays_equivalent_on_random_inputs`,
//! `deep_route_verified_on_random_inputs`). Smaller expressions also
//! directly shrink the quotient sets shipped by the distributed protocol.
//!
//! Identities applied (beyond the smart-constructor normal form):
//!
//! | rule | identity |
//! |---|---|
//! | star-of-union-eps | `(ε + r)* = r*` |
//! | star-of-union-star | `(r* + s)* = (r + s)*` |
//! | star-of-nullable-concat | `(p·q)* = (p + q)*` when all parts nullable |
//! | adjacent-star-dedup | `r*·r* = r*` |
//! | plus-to-star | `ε + r·r* = r*` and `ε + r*·r = r*` |
//! | union-arm-subsumption | drop `p` from `p + q` when `L(p) ⊆ L(q)` |
//! | star-absorb | `r + r* = r*`, `ε` dropped next to a nullable arm |

use crate::nfa::Nfa;
use crate::ops;
use crate::regex::Regex;

/// Unions of at most this total AST size are pruned by inclusion, and
/// [`simplify_deep`] tries the minimal-DFA route on expressions of at most
/// this size.
const SEMANTIC_SIZE_LIMIT: usize = 64;

/// Max fixpoint passes (each pass is a full bottom-up rewrite).
const MAX_PASSES: usize = 8;

/// Simplify with the cheap syntactic rules only; linear-ish and allocation
/// light. Guaranteed: `L(out) = L(r)` and `out.size() <= r.size()`.
pub fn simplify(r: &Regex) -> Regex {
    fixpoint(r, 0)
}

/// Full pipeline: syntactic + semantic rules, then the minimal DFA →
/// state-elimination route; returns whichever equivalent expression is
/// smallest. This is the entry point the optimizer uses.
pub fn simplify_deep(r: &Regex) -> Regex {
    let syntactic = fixpoint(r, SEMANTIC_SIZE_LIMIT);
    if syntactic.size() > SEMANTIC_SIZE_LIMIT {
        return syntactic;
    }
    let sigma = syntactic
        .symbols()
        .iter()
        .map(|s| s.index() + 1)
        .max()
        .unwrap_or(1);
    let dfa = crate::dfa::Dfa::from_nfa(&Nfa::thompson(&syntactic), sigma).minimize();
    let via_dfa = fixpoint(
        &crate::elim::nfa_to_regex(&dfa.to_nfa()),
        SEMANTIC_SIZE_LIMIT,
    );
    if via_dfa.size() < syntactic.size() && ops::regex_equivalent(&via_dfa, &syntactic) {
        via_dfa
    } else {
        syntactic
    }
}

/// Rewrite passes until nothing changes (at most [`MAX_PASSES`]); unions
/// of total size at most `semantic_limit` are also pruned by inclusion.
fn fixpoint(r: &Regex, semantic_limit: usize) -> Regex {
    let mut cur = r.clone();
    for _ in 0..MAX_PASSES {
        let next = pass(&cur, semantic_limit);
        if next == cur {
            break;
        }
        debug_assert!(next.size() <= cur.size(), "simplify must not grow");
        cur = next;
    }
    cur
}

/// One bottom-up rewrite pass.
fn pass(r: &Regex, semantic_limit: usize) -> Regex {
    match r {
        Regex::Empty | Regex::Epsilon | Regex::Symbol(_) => r.clone(),
        Regex::Concat(parts) => {
            let parts: Vec<Regex> = parts.iter().map(|p| pass(p, semantic_limit)).collect();
            rewrite_concat(parts)
        }
        Regex::Union(parts) => {
            let parts: Vec<Regex> = parts.iter().map(|p| pass(p, semantic_limit)).collect();
            rewrite_union(parts, semantic_limit)
        }
        Regex::Star(inner) => rewrite_star(pass(inner, semantic_limit)),
    }
}

/// `r*·r* → r*` on adjacent parts (the smart constructor has already
/// flattened and dropped units).
fn rewrite_concat(parts: Vec<Regex>) -> Regex {
    let mut out: Vec<Regex> = Vec::with_capacity(parts.len());
    for p in parts {
        if let (Some(Regex::Star(last)), Regex::Star(cur)) = (out.last(), &p) {
            if **last == **cur {
                continue; // drop the duplicate star
            }
        }
        out.push(p);
    }
    Regex::concat(out)
}

/// Union-level rules: plus-to-star, star absorption, ε-absorption into a
/// nullable arm, and semantic subsumption on unions of total size at most
/// `semantic_limit`.
fn rewrite_union(mut parts: Vec<Regex>, semantic_limit: usize) -> Regex {
    // ε + r·r* → r*  (and the mirrored ε + r*·r → r*). Scan while a rewrite
    // applies; each application strictly shrinks total size.
    if parts.contains(&Regex::Epsilon) {
        let mut changed = true;
        while changed {
            changed = false;
            for part in parts.iter_mut() {
                if let Some(star) = as_plus(part) {
                    *part = star;
                    changed = true;
                }
            }
            if changed {
                // Re-normalize: arms may now be absorbable.
                parts = match Regex::union(std::mem::take(&mut parts)) {
                    Regex::Union(ps) => ps,
                    single => return single,
                };
                if !parts.contains(&Regex::Epsilon) {
                    break;
                }
            }
        }
        // ε is redundant next to any nullable arm.
        if parts.iter().any(|p| *p != Regex::Epsilon && p.nullable()) {
            parts.retain(|p| *p != Regex::Epsilon);
        }
    }

    // r + r* → r* (syntactic star absorption).
    let stars: Vec<Regex> = parts
        .iter()
        .filter_map(|p| match p {
            Regex::Star(inner) => Some((**inner).clone()),
            _ => None,
        })
        .collect();
    if !stars.is_empty() {
        parts.retain(|p| !stars.contains(p));
    }

    // Budgeted semantic subsumption: drop arm i when L(i) ⊆ L(j), i ≠ j.
    let total: usize = parts.iter().map(Regex::size).sum();
    if parts.len() > 1 && total <= semantic_limit {
        let mut keep = vec![true; parts.len()];
        for i in 0..parts.len() {
            if !keep[i] {
                continue;
            }
            for j in 0..parts.len() {
                if i == j || !keep[j] {
                    continue;
                }
                // Keep the later arm on ties (equal languages): drop i only
                // if included and (strictly smaller language or i > j) to
                // avoid dropping both arms of an equivalent pair.
                if ops::regex_included(&parts[i], &parts[j])
                    && (i > j || !ops::regex_included(&parts[j], &parts[i]))
                {
                    keep[i] = false;
                    break;
                }
            }
        }
        let mut pruned = Vec::with_capacity(parts.len());
        for (p, k) in parts.into_iter().zip(keep) {
            if k {
                pruned.push(p);
            }
        }
        parts = pruned;
    }

    Regex::union(parts)
}

/// Star-level rules.
fn rewrite_star(inner: Regex) -> Regex {
    match inner {
        // (ε + r)* = r*; (r* + s)* = (r + s)*
        Regex::Union(parts) => {
            let cleaned: Vec<Regex> = parts
                .into_iter()
                .filter(|p| *p != Regex::Epsilon)
                .map(|p| match p {
                    Regex::Star(inner) => *inner,
                    other => other,
                })
                .collect();
            Regex::union(cleaned).star()
        }
        // (p·q)* = (p + q)* when every part is nullable. Each pᵢ ⊆ p₁…pₙ
        // (instantiate the others at ε), so (p₁+…+pₙ)* ⊆ ((p₁…pₙ)*)* =
        // (p₁…pₙ)*; the other inclusion is immediate.
        Regex::Concat(parts) if parts.iter().all(Regex::nullable) => {
            rewrite_star(Regex::union(parts))
        }
        other => other.star(),
    }
}

/// Match `r·r*` or `r*·r` and return `r*`.
fn as_plus(r: &Regex) -> Option<Regex> {
    if let Regex::Concat(parts) = r {
        if parts.len() >= 2 {
            // head·(tail)* where tail == concat(head..)? Simplest useful
            // cases: [x, x*] and [x*, x]; also [x, y, (x·y)*] style with the
            // star wrapping the whole prefix.
            if let Regex::Star(tail) = &parts[parts.len() - 1] {
                let head = Regex::concat(parts[..parts.len() - 1].to_vec());
                if **tail == head {
                    return Some(head.star());
                }
            }
            if let Regex::Star(head) = &parts[0] {
                let tail = Regex::concat(parts[1..].to_vec());
                if **head == tail {
                    return Some(tail.star());
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::parser::parse_regex;

    fn simp(src: &str) -> String {
        let mut ab = Alphabet::new();
        let r = parse_regex(&mut ab, src).unwrap();
        let s = simplify_deep(&r);
        assert!(
            ops::regex_equivalent(&r, &s),
            "unsound simplification of {src}"
        );
        format!("{}", s.display(&ab))
    }

    #[test]
    fn plus_to_star() {
        assert_eq!(simp("() + a.a*"), "a*");
        assert_eq!(simp("() + a*.a"), "a*");
        assert_eq!(simp("() + a.b.(a.b)*"), "(a.b)*");
    }

    #[test]
    fn star_of_union_rules() {
        assert_eq!(simp("(() + a)*"), "a*");
        assert_eq!(simp("(a* + b)*"), "(a+b)*");
        assert_eq!(simp("(a* + b*)*"), "(a+b)*");
    }

    #[test]
    fn star_of_nullable_concat() {
        assert_eq!(simp("(a*.b*)*"), "(a+b)*");
        assert_eq!(simp("((()+a).(()+b))*"), "(a+b)*");
    }

    #[test]
    fn adjacent_star_dedup() {
        assert_eq!(simp("a*.a*"), "a*");
        assert_eq!(simp("b.a*.a*.c"), "b.a*.c");
    }

    #[test]
    fn star_absorbs_base() {
        assert_eq!(simp("a + a*"), "a*");
        assert_eq!(simp("a.b + (a.b)* + c"), "c+(a.b)*");
    }

    #[test]
    fn semantic_subsumption_prunes_arms() {
        // a.b ⊆ a.(b+c) — dropped by the inclusion check.
        assert_eq!(simp("a.b + a.(b+c)"), "a.(b+c)");
        // a ⊆ (a+b)* and b.a ⊆ (a+b)*
        assert_eq!(simp("a + b.a + (a+b)*"), "(a+b)*");
    }

    #[test]
    fn epsilon_absorbed_by_nullable_arm() {
        assert_eq!(simp("() + a*"), "a*");
        assert_eq!(simp("() + a*.b*"), "a*.b*");
    }

    #[test]
    fn preserves_already_minimal() {
        assert_eq!(simp("a.(b+c).d*"), "a.(b+c).d*");
        assert_eq!(simp("()"), "()");
        assert_eq!(simp("[]"), "[]");
    }
}
