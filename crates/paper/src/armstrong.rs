//! The K-sphere of the Armstrong instance (Lemma 4.9, Figure 5).
//!
//! Proposition 4.8 gives every finite set `E` of word equalities a
//! (usually infinite) Armstrong instance; Lemma 4.9 puts all its
//! "interesting information" within radius `K = M + N` of `ε̂`. The
//! instance is the fold of `E` with a free tree hung at every missing
//! (node, label) — [`rpq_constraints::armstrong`] builds the fold and
//! argues why — and [`ArmstrongSphere`] is its breadth-first ball to a
//! chosen radius. Theorem 4.10 is decided on the fold alone
//! ([`rpq_constraints::decide_boundedness`]); the sphere is the
//! reproduction's view of the lemma and the figure.

use rpq_automata::{Alphabet, Nfa, StateId, Symbol};
use rpq_constraints::armstrong::Fold;
use rpq_constraints::{ConstraintSet, RewriteSystem};
use rpq_graph::{Instance, Oid};

use crate::rewrite::total_lhs_len;

/// A finite truncation of the Armstrong instance.
#[derive(Clone, Debug)]
pub struct ArmstrongSphere {
    /// Canonical (shortest, lex-least) representative of each class;
    /// node ids are indices. Node 0 is `ε̂`.
    pub reps: Vec<Vec<Symbol>>,
    /// BFS depth of each node (= length of its shortest member).
    pub depth: Vec<usize>,
    /// `edges[n] = [(a, m), …]`: the `a`-successor classes.
    pub edges: Vec<Vec<(Symbol, usize)>>,
    /// The construction radius.
    pub radius: usize,
    /// Symbols the sphere was expanded over.
    pub symbols: Vec<Symbol>,
}

/// Errors from [`ArmstrongSphere::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArmstrongError {
    /// The construction requires word equalities only (Section 4.3).
    NotWordEqualities,
    /// Node budget exceeded (sphere growth is |Σ|^radius in the worst case).
    TooLarge {
        /// Nodes materialized before giving up.
        nodes: usize,
    },
}

impl std::fmt::Display for ArmstrongError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArmstrongError::NotWordEqualities => {
                write!(f, "Armstrong construction requires word equalities")
            }
            ArmstrongError::TooLarge { nodes } => {
                write!(f, "Armstrong sphere exceeded {nodes} nodes")
            }
        }
    }
}

impl std::error::Error for ArmstrongError {}

/// The radius bound of Lemma 4.9: `K = M + N` where `M` is the longest word
/// in `E` and `N` bounds the state count of any `RewriteTo(v)` automaton
/// with `|v| ≤ M`.
pub fn suggested_radius(set: &ConstraintSet) -> usize {
    let rules = RewriteSystem::from_constraints(set);
    let m = set.max_word_len();
    let n = m + total_lhs_len(&rules) + 2;
    m + n
}

impl ArmstrongSphere {
    /// The ball of the given `radius` around `ε̂` in the Armstrong instance
    /// of `set` (word equalities), expanded over `symbols` in their order:
    /// a breadth-first walk of the fold and the free trees hung off it,
    /// with a node budget (the trees grow as `|Σ|^radius`). Each node's
    /// representative is the word that first reaches it, which is the
    /// shortest-lex member of its class when `symbols` covers `E`'s.
    pub fn build(
        set: &ConstraintSet,
        symbols: &[Symbol],
        radius: usize,
        max_nodes: usize,
    ) -> Result<ArmstrongSphere, ArmstrongError> {
        let fold = Fold::new(set).ok_or(ArmstrongError::NotWordEqualities)?;
        // `at[n]`: sphere node `n`'s fold node (`None` in a tree);
        // `id[f]`: fold node `f`'s sphere node, once reached
        let mut at = vec![Some(0)];
        let mut id = vec![None; fold.nodes()];
        id[0] = Some(0);
        let mut reps: Vec<Vec<Symbol>> = vec![Vec::new()];
        let mut depth: Vec<usize> = vec![0];
        let mut edges: Vec<Vec<(Symbol, usize)>> = vec![Vec::new()];

        let mut frontier: Vec<usize> = vec![0];
        for d in 0..radius {
            let mut next_frontier = Vec::new();
            for &n in &frontier {
                for &a in symbols {
                    let f = at[n].and_then(|f| fold.step(f, a));
                    let m = match f.and_then(|f| id[f]) {
                        Some(m) => m,
                        None => {
                            if reps.len() >= max_nodes {
                                return Err(ArmstrongError::TooLarge { nodes: reps.len() });
                            }
                            let m = reps.len();
                            if let Some(f) = f {
                                id[f] = Some(m);
                            }
                            let mut rep = reps[n].clone();
                            rep.push(a);
                            reps.push(rep);
                            depth.push(d + 1);
                            edges.push(Vec::new());
                            at.push(f);
                            next_frontier.push(m);
                            m
                        }
                    };
                    edges[n].push((a, m));
                }
            }
            frontier = next_frontier;
            if frontier.is_empty() {
                break;
            }
        }
        Ok(ArmstrongSphere {
            reps,
            depth,
            edges,
            radius,
            symbols: symbols.to_vec(),
        })
    }

    /// Number of materialized classes.
    pub fn num_nodes(&self) -> usize {
        self.reps.len()
    }

    /// In-sphere indegrees.
    fn indegrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.num_nodes()];
        for row in &self.edges {
            for &(_, m) in row {
                deg[m] += 1;
            }
        }
        deg
    }

    /// Lemma 4.9 check: nodes strictly outside the `m_radius`-sphere with
    /// indegree ≥ 2 (should be empty for `m_radius ≥ K`).
    pub fn indegree_violations(&self, m_radius: usize) -> Vec<usize> {
        let deg = self.indegrees();
        (0..self.num_nodes())
            .filter(|&n| self.depth[n] > m_radius && deg[n] >= 2)
            .collect()
    }

    /// Lemma 4.9 check: edges whose tail is outside the `k_radius`-sphere
    /// and whose head is inside (should be empty for `k_radius ≥ K`).
    pub fn reentry_violations(&self, k_radius: usize) -> Vec<(usize, Symbol, usize)> {
        let mut out = Vec::new();
        for (n, row) in self.edges.iter().enumerate() {
            if self.depth[n] <= k_radius {
                continue;
            }
            for &(a, m) in row {
                if self.depth[m] <= k_radius {
                    out.push((n, a, m));
                }
            }
        }
        out
    }

    /// The class reached from `ε̂` by reading `word`, while it stays within
    /// the sphere (`None` once it would step past the materialized part).
    pub fn class_of_word(&self, word: &[Symbol]) -> Option<usize> {
        let mut cur = 0usize;
        for &a in word {
            cur = self.edges[cur]
                .iter()
                .find(|&&(l, _)| l == a)
                .map(|&(_, m)| m)?;
        }
        Some(cur)
    }

    /// Materialize as an [`Instance`] (named by representatives) with the
    /// source `ε̂`; edges past the radius are not materialized.
    pub fn to_instance(&self, alphabet: &Alphabet) -> (Instance, Oid) {
        let mut inst = Instance::new();
        for rep in &self.reps {
            inst.add_named_node(&alphabet.render_word(rep));
        }
        for (n, row) in self.edges.iter().enumerate() {
            for &(a, m) in row {
                inst.add_edge(Oid(n as u32), a, Oid(m as u32));
            }
        }
        (inst, Oid(0))
    }
}

/// The shortest, lexicographically least (by the order of `symbols`) word
/// accepted by `nfa`, or `None` for the empty language.
pub fn shortest_lex_accepted(nfa: &Nfa, symbols: &[Symbol]) -> Option<Vec<Symbol>> {
    // distance-to-accept per state (ε edges are free): 0-1 BFS on reversed edges
    let n = nfa.num_states();
    let mut rev_eps: Vec<Vec<StateId>> = vec![Vec::new(); n];
    let mut rev_sym: Vec<Vec<(Symbol, StateId)>> = vec![Vec::new(); n];
    for s in 0..n as StateId {
        for &t in nfa.eps_transitions(s) {
            rev_eps[t as usize].push(s);
        }
        for &(a, t) in nfa.transitions(s) {
            rev_sym[t as usize].push((a, s));
        }
    }
    const INF: usize = usize::MAX;
    let mut dist = vec![INF; n];
    let mut dq = std::collections::VecDeque::new();
    for s in 0..n as StateId {
        if nfa.is_accepting(s) {
            dist[s as usize] = 0;
            dq.push_back(s);
        }
    }
    while let Some(s) = dq.pop_front() {
        let d = dist[s as usize];
        for &p in &rev_eps[s as usize] {
            if d < dist[p as usize] {
                dist[p as usize] = d;
                dq.push_front(p);
            }
        }
        for &(_, p) in &rev_sym[s as usize] {
            if d + 1 < dist[p as usize] {
                dist[p as usize] = d + 1;
                dq.push_back(p);
            }
        }
    }

    let mut set = nfa.start_set();
    let mut best = set.iter().map(|&s| dist[s as usize]).min().unwrap_or(INF);
    if best == INF {
        return None;
    }
    let mut word = Vec::with_capacity(best);
    while best > 0 {
        // choose the least symbol that keeps a shortest completion
        let mut chosen = None;
        for &a in symbols {
            let next = nfa.step(&set, a);
            if next.is_empty() {
                continue;
            }
            let nd = next.iter().map(|&s| dist[s as usize]).min().unwrap_or(INF);
            if nd == best - 1 {
                chosen = Some((a, next));
                break;
            }
        }
        let (a, next) = chosen?; // None can only happen for symbols outside `symbols`
        word.push(a);
        set = next;
        best -= 1;
    }
    Some(word)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::implication::word_implies_word_eq;

    fn build(lines: &[&str], extra_syms: &[&str], radius: usize) -> (Alphabet, ArmstrongSphere) {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, lines.iter().copied()).unwrap();
        for s in extra_syms {
            ab.intern(s);
        }
        let syms: Vec<Symbol> = ab.symbols().collect();
        let sphere = ArmstrongSphere::build(&set, &syms, radius, 100_000).unwrap();
        (ab, sphere)
    }

    #[test]
    fn single_loop_class() {
        // E = {a = ε}: one class, a self-loop.
        let (_, sphere) = build(&["a = ()"], &[], 4);
        assert_eq!(sphere.num_nodes(), 1);
        assert_eq!(sphere.edges[0], vec![(sphere.symbols[0], 0)]);
    }

    #[test]
    fn ab_equals_ba_merges() {
        let (ab, sphere) = build(&["a.b = b.a"], &[], 3);
        let a = ab.get("a").unwrap();
        let b = ab.get("b").unwrap();
        let via_ab = sphere.class_of_word(&[a, b]).unwrap();
        let via_ba = sphere.class_of_word(&[b, a]).unwrap();
        assert_eq!(via_ab, via_ba);
        let aa = sphere.class_of_word(&[a, a]).unwrap();
        assert_ne!(via_ab, aa);
    }

    #[test]
    fn proposition_48_on_truncation() {
        // u(o,I) = v(o,I) iff E ⊨ u = v, for short words well inside radius.
        let (ab, sphere) = build(&["a.a = a", "b.b = b"], &[], 8);
        let mut ab2 = ab.clone();
        let set = ConstraintSet::parse(&mut ab2, ["a.a = a", "b.b = b"]).unwrap();
        let a = ab.get("a").unwrap();
        let b = ab.get("b").unwrap();
        let words: Vec<Vec<Symbol>> = vec![
            vec![],
            vec![a],
            vec![b],
            vec![a, a],
            vec![a, b],
            vec![b, a],
            vec![a, a, b],
            vec![a, b, b],
        ];
        for u in &words {
            for v in &words {
                let same_class = sphere.class_of_word(u) == sphere.class_of_word(v);
                let implied = word_implies_word_eq(&set, u, v);
                assert_eq!(same_class, implied, "{:?} vs {:?}", u, v);
            }
        }
    }

    #[test]
    fn lemma_49_properties_hold() {
        let (_, sphere) = build(&["a.b.a = b", "b.b = a.a"], &[], 9);
        let mut ab2 = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab2, ["a.b.a = b", "b.b = a.a"]).unwrap();
        let m = set.max_word_len();
        // indegree 1 outside the M-sphere
        assert!(
            sphere.indegree_violations(m).is_empty(),
            "violations: {:?}",
            sphere.indegree_violations(m)
        );
        // no re-entry past the suggested K
        let k = suggested_radius(&set).min(sphere.radius.saturating_sub(1));
        assert!(sphere.reentry_violations(k).is_empty());
    }

    #[test]
    fn reps_are_canonical_shortest_lex() {
        let (_, sphere) = build(&["b.a = a"], &[], 5);
        // class of "ba" has rep "a" (shortest)
        for (n, rep) in sphere.reps.iter().enumerate() {
            assert_eq!(rep.len(), sphere.depth[n], "rep length equals depth");
        }
    }

    #[test]
    fn to_instance_round_trip() {
        let (ab, sphere) = build(&["a.a = a"], &[], 4);
        let (inst, src) = sphere.to_instance(&ab);
        assert_eq!(inst.num_nodes(), sphere.num_nodes());
        let a = ab.get("a").unwrap();
        // a(o) is the a-successor class of ε̂
        let t = inst.word_targets(src, &[a]);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].index(), sphere.class_of_word(&[a]).unwrap());
    }

    #[test]
    fn rejects_inclusions() {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["a.a <= a"]).unwrap();
        let syms: Vec<Symbol> = ab.symbols().collect();
        let err = ArmstrongSphere::build(&set, &syms, 3, 1000).unwrap_err();
        assert_eq!(err, ArmstrongError::NotWordEqualities);
    }

    #[test]
    fn shortest_lex_picks_lex_least() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        // language {ba, ab}: shortest-lex with order [a, b] is "ab"
        let r = rpq_automata::Regex::word(&[b, a]).or(rpq_automata::Regex::word(&[a, b]));
        let nfa = Nfa::thompson(&r);
        assert_eq!(shortest_lex_accepted(&nfa, &[a, b]), Some(vec![a, b]));
        // empty language
        let empty = Nfa::thompson(&rpq_automata::Regex::Empty);
        assert_eq!(shortest_lex_accepted(&empty, &[a, b]), None);
        // ε in language
        let eps = Nfa::thompson(&rpq_automata::Regex::word(&[a]).opt());
        assert_eq!(shortest_lex_accepted(&eps, &[a, b]), Some(vec![]));
    }

    #[test]
    fn node_budget_enforced() {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["a.a.a.a.a.a = a.a.a.a.a"]).unwrap();
        ab.intern("b");
        ab.intern("c");
        let syms: Vec<Symbol> = ab.symbols().collect();
        let err = ArmstrongSphere::build(&set, &syms, 12, 50).unwrap_err();
        assert!(matches!(err, ArmstrongError::TooLarge { .. }));
    }
}
