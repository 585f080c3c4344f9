//! Armstrong instances for word equalities (Section 4.3).
//!
//! Proposition 4.8: every finite set `E` of word *equalities* has a (usually
//! infinite) Armstrong instance — vertices are the classes of the smallest
//! right-congruence `≈` containing `E`, `o = ε̂`, and each `û` has one
//! `a`-edge to `ûa` — satisfying exactly the word equalities implied by `E`.
//!
//! Lemma 4.9 (Figure 5): there is a radius `K` such that outside the
//! K-sphere every vertex has indegree 1 and no edge re-enters the sphere;
//! all "interesting information" lives within radius `K = M + N`.
//!
//! ## The fold (this repository's construction, not the paper's)
//!
//! The instance is a finite deterministic automaton — the **fold** — with a
//! free tree hung at every missing (node, label), and `Fold` builds it
//! without the radius:
//!
//! 1. take the prefix tree of every side of `E` (one node per prefix);
//! 2. merge the two ends of each equality `u = v`;
//! 3. while some class has two `a`-edges, merge their targets (Stallings
//!    folding, a worklist over a union-find);
//! 4. number the classes breadth-first from the root, edges in symbol order.
//!
//! *Every merge is forced.* Each class holds prefixes that are `≈`-equal:
//! step 2 merges `u ≈ v`, and step 3 merges `x·a` with `y·a` for `x ≈ y`,
//! which a right-congruence must. *Nothing more is merged.* Run a word from
//! the root of the fold, and off it into the tree hung where it falls off.
//! The result is deterministic and complete, so "the same node" is a right
//! congruence; the path of a side of `E` is the image of its prefix-tree
//! path, so both sides of an equality end at one node. It therefore
//! contains `≈`. Conversely, a word that reaches a fold node is `≈` to the
//! prefixes merged there (by induction on its length and the first point),
//! and two words in one tree node share its fold node and the letters
//! below it; so it is `≈`, and the fold with its trees is the Armstrong
//! instance. A word's class is the pair (the fold node
//! where it leaves the fold, the rest of the word), and the fold has at
//! most `1 + Σ|sides|` nodes. Because step 4 visits nodes in the order of
//! their shortest-lex words and labels in order, the word that first
//! reaches a node is the shortest-lex member of its class; a tree node's is
//! that of the fold node above it followed by the letters down to it.
//!
//! Theorem 4.10's decision reads the fold directly
//! ([`crate::boundedness`]). The breadth-first ball of the instance to a
//! chosen radius — the reproduction's view of Lemma 4.9 and Figure 5 — is
//! `rpq_paper::armstrong::ArmstrongSphere`, a walk of [`Fold`] and the
//! trees hung off it.

use rpq_automata::Symbol;

use crate::types::ConstraintSet;

/// The finite part of the Armstrong instance (see the module docs). Node 0
/// is `ε̂`; nodes are numbered in the order of their representatives.
#[derive(Clone, Debug)]
pub struct Fold {
    /// `edges[n] = [(a, m), …]`, by symbol: the `a`-successors in the fold.
    edges: Vec<Vec<(Symbol, usize)>>,
    /// Shortest-lex member of each node's class.
    reps: Vec<Vec<Symbol>>,
}

impl Fold {
    /// The fold of `set`, or `None` unless every constraint is a word
    /// equality.
    pub fn new(set: &ConstraintSet) -> Option<Fold> {
        if !set.all_word_equalities() {
            return None;
        }
        // 1. the prefix tree of every side; `merge` starts with its ends
        let mut out: Vec<Vec<(Symbol, usize)>> = vec![Vec::new()];
        let mut merge = Vec::new();
        for c in set.iter() {
            let (u, v) = c.as_word_pair()?;
            let [x, y] = [u, v].map(|w| {
                w.iter().fold(0, |n, &a| match step(&out[n], a) {
                    Some(m) => m,
                    None => {
                        let m = out.len();
                        out[n].push((a, m));
                        out.push(Vec::new());
                        m
                    }
                })
            });
            merge.push((x, y));
        }
        // 2–3. merge, and merge the targets of two edges on one label
        let mut parent: Vec<usize> = (0..out.len()).collect();
        while let Some((x, y)) = merge.pop() {
            let (x, y) = (find(&mut parent, x), find(&mut parent, y));
            if x == y {
                continue;
            }
            let (keep, gone) = if out[x].len() >= out[y].len() {
                (x, y)
            } else {
                (y, x)
            };
            parent[gone] = keep;
            for (a, t) in std::mem::take(&mut out[gone]) {
                match step(&out[keep], a) {
                    Some(u) => merge.push((t, u)),
                    None => out[keep].push((a, t)),
                }
            }
        }
        // 4. number the classes breadth-first, labels in order
        let root = find(&mut parent, 0);
        let mut id = vec![usize::MAX; out.len()];
        id[root] = 0;
        let mut order = vec![root];
        let mut fold = Fold {
            edges: Vec::new(),
            reps: vec![Vec::new()],
        };
        while let Some(&class) = order.get(fold.edges.len()) {
            let mut row: Vec<(Symbol, usize)> = out[class]
                .iter()
                .map(|&(a, t)| (a, find(&mut parent, t)))
                .collect();
            row.sort_unstable();
            for (a, t) in &mut row {
                if id[*t] == usize::MAX {
                    id[*t] = order.len();
                    order.push(*t);
                    let mut rep = fold.reps[fold.edges.len()].clone();
                    rep.push(*a);
                    fold.reps.push(rep);
                }
                *t = id[*t];
            }
            fold.edges.push(row);
        }
        Some(fold)
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.reps.len()
    }

    /// The `a`-successor of node `n`, or `None` where a free tree hangs.
    pub fn step(&self, n: usize, a: Symbol) -> Option<usize> {
        step(&self.edges[n], a)
    }

    /// The shortest-lex member of node `n`'s class.
    pub(crate) fn rep(&self, n: usize) -> &[Symbol] {
        &self.reps[n]
    }
}

fn step(row: &[(Symbol, usize)], a: Symbol) -> Option<usize> {
    row.iter().find(|&&(b, _)| b == a).map(|&(_, m)| m)
}

fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::Alphabet;

    #[test]
    fn the_fold_is_small_where_the_sphere_is_not() {
        // {ab = ba, aa = a}: ε, a, b and ab = ba; the commuting triple: the
        // ten prefixes of its sides less the three equalities
        for (lines, reps) in [
            (&["a.b = b.a", "a.a = a"][..], &["()", "a", "b", "a.b"][..]),
            (
                &["x.y = y.x", "x.z = z.x", "y.z = z.y"][..],
                &["()", "x", "y", "z", "x.y", "x.z", "y.z"][..],
            ),
        ] {
            let mut ab = Alphabet::new();
            let set = ConstraintSet::parse(&mut ab, lines.iter().copied()).unwrap();
            let fold = Fold::new(&set).unwrap();
            let got: Vec<String> = (0..fold.nodes())
                .map(|n| ab.render_word(fold.rep(n)))
                .collect();
            assert_eq!(got, reps, "{lines:?}");
        }
    }
}
