//! What a query's regex says of itself, read without an automaton.
//!
//! A cold plan asks seven questions of every query it scores, analyses or
//! runs: is the language empty, is it finite, how long is its longest word,
//! how many states has its Thompson automaton, how much label traffic do
//! that automaton's transitions carry ([`crate::estimated_cost`]), and
//! which labels begin and which end a word (the planned engine's label
//! groups). Each is a fact of the regex, so one walk over the tree answers
//! it: [`Shape`] and [`labels`]. [`crate::compiled::CompiledQuery`] reads
//! them from here and builds the Thompson automaton only for a query the
//! plan goes on to run or test.
//!
//! The walk follows [`Nfa::thompson`](rpq_automata::Nfa::thompson) case
//! for case, so the facts hold on any tree, not only on the smart
//! constructors' normal form: a concatenation or union of no parts
//! denotes `∅` there, as it does here. One fact needs the normal form: the
//! automaton keeps one transition per `(state, label, state)`, so two equal
//! label arms of one union (or of nested unions and one-part
//! concatenations, which share their parent's endpoints) are one
//! transition, not two. [`Shape::distinct_leaves`] says when every label
//! leaf is its own transition; where it is not, the caller sweeps the
//! automaton for the label mass instead.
//!
//! One more question is whether a smaller regex denotes the same language,
//! which the simplifier of [`crate::rewrites`] answers by a minimal-DFA
//! round trip. For a finite language a count answers it first:
//! [`is_minimum`] bounds from below the size of every regex of the
//! language, and a query already that small has nothing smaller to find.

use rpq_automata::{Regex, Symbol};
use rpq_graph::LabelStats;

/// The words of a language, as far as the facts need them. The derived
/// order is the one union takes the greatest of.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Words {
    /// No word.
    None,
    /// Finitely many, the longest this long.
    UpTo(usize),
    /// Infinitely many.
    Unbounded,
}

impl Words {
    fn then(self, next: Words) -> Words {
        match (self, next) {
            (Words::None, _) | (_, Words::None) => Words::None,
            (Words::Unbounded, _) | (_, Words::Unbounded) => Words::Unbounded,
            (Words::UpTo(a), Words::UpTo(b)) => Words::UpTo(a + b),
        }
    }

    fn star(self) -> Words {
        match self {
            Words::None | Words::UpTo(0) => Words::UpTo(0),
            _ => Words::Unbounded,
        }
    }
}

/// The facts one walk of a regex reads, each equal to the fact of its
/// Thompson automaton it replaces.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Shape {
    words: Words,
    states: usize,
    trim: bool,
    distinct_leaves: bool,
}

impl Shape {
    /// Walk `r` once.
    pub(crate) fn of(r: &Regex) -> Shape {
        let mut shape = Shape {
            words: Words::None,
            // the start and the exit
            states: 2,
            trim: true,
            distinct_leaves: true,
        };
        shape.words = shape.walk(r);
        shape
    }

    fn walk(&mut self, r: &Regex) -> Words {
        let words = match r {
            Regex::Empty => Words::None,
            Regex::Epsilon => Words::UpTo(0),
            Regex::Symbol(_) => Words::UpTo(1),
            Regex::Concat(parts) => {
                // a state between each two parts
                self.states += parts.len().saturating_sub(1);
                let unit = if parts.is_empty() {
                    Words::None
                } else {
                    Words::UpTo(0)
                };
                parts.iter().fold(unit, |acc, p| acc.then(self.walk(p)))
            }
            Regex::Union(arms) => {
                self.distinct_leaves &= arms_are_distinct(arms);
                arms.iter()
                    .fold(Words::None, |acc, a| acc.max(self.walk(a)))
            }
            Regex::Star(body) => {
                // the hub and the body's exit
                self.states += 2;
                self.walk(body).star()
            }
        };
        self.trim &= words != Words::None;
        words
    }

    /// Is the language empty?
    pub(crate) fn is_empty(&self) -> bool {
        self.words == Words::None
    }

    /// Is the language finite (the empty language included)?
    pub(crate) fn is_finite(&self) -> bool {
        self.words != Words::Unbounded
    }

    /// The length of the longest word of a finite, non-empty language:
    /// [`Nfa::longest_accepted_len`](rpq_automata::Nfa::longest_accepted_len).
    pub(crate) fn longest_word(&self) -> Option<usize> {
        match self.words {
            Words::UpTo(n) => Some(n),
            _ => None,
        }
    }

    /// The states of [`Nfa::thompson`](rpq_automata::Nfa::thompson).
    pub(crate) fn states(&self) -> usize {
        self.states
    }

    /// No subterm denotes `∅`, so every state of the Thompson automaton
    /// lies on a start → exit path: [`Nfa::trim`](rpq_automata::Nfa::trim)
    /// would keep every state and every row, as they are.
    pub(crate) fn is_trim(&self) -> bool {
        self.trim
    }

    /// Every label leaf is a transition of its own in the Thompson
    /// automaton, so [`label_mass`] equals the sweep over its transitions.
    /// True on the smart constructors' normal form, where union arms are
    /// sorted and distinct and never unions or one-part concatenations.
    pub(crate) fn distinct_leaves(&self) -> bool {
        self.distinct_leaves
    }
}

/// Union arms that place no label twice between the union's endpoints:
/// none shares those endpoints with its own arms (a union or a one-part
/// concatenation), and the label arms strictly increase.
fn arms_are_distinct(arms: &[Regex]) -> bool {
    let mut last: Option<Symbol> = None;
    arms.iter().all(|a| match a {
        Regex::Union(_) => false,
        Regex::Concat(parts) => parts.len() > 1,
        Regex::Symbol(s) => last.replace(*s).is_none_or(|l| l < *s),
        _ => true,
    })
}

/// The edges of `stats` on every label leaf of `r`: the sum over the
/// Thompson automaton's transitions when [`Shape::distinct_leaves`].
pub(crate) fn label_mass(r: &Regex, stats: &LabelStats) -> usize {
    let mut mass = 0;
    each_leaf(r, &mut |s| mass += stats.edge_count(s));
    mass
}

/// Call `f` on the label of every leaf of `r`, left to right.
fn each_leaf(r: &Regex, f: &mut impl FnMut(Symbol)) {
    match r {
        Regex::Empty | Regex::Epsilon => {}
        Regex::Symbol(s) => f(*s),
        Regex::Concat(parts) | Regex::Union(parts) => parts.iter().for_each(|p| each_leaf(p, f)),
        Regex::Star(body) => each_leaf(body, f),
    }
}

/// Does `dead` hold of the label of some leaf of `r`? One walk, no
/// buffer.
pub(crate) fn any_leaf(r: &Regex, dead: impl Fn(Symbol) -> bool) -> bool {
    let mut any = false;
    each_leaf(r, &mut |s| any |= dead(s));
    any
}

/// Can no regex of `L(r)` have fewer nodes ([`Regex::size`]) than `r`?
/// Decided for a finite, non-empty `r` with no `∅` subterm (`shape` is
/// `r`'s) by a lower bound that every regex of the language meets;
/// `false` claims nothing.
///
/// The bound counts nodes of four kinds, and no node is of two:
/// * label leaves, `Σₛ mₛ` with `mₛ` the most times `s` occurs in one
///   word. An accepting path of a Thompson automaton whose language is
///   finite crosses each labeled transition at most once (a second
///   crossing closes a cycle that reads a letter, which pumps), and each
///   transition is a leaf;
/// * a concatenation, when some word has two letters: without one, a star
///   of a finite language denotes `{ε}`, so no word is longer than one;
/// * a union, when there are two words: without one, every subterm denotes
///   `∅`, one word or infinitely many. Two words are certain when the
///   `mₛ` sum to more than the longest word, which no one word then
///   reaches, or when `ε` is a word beside a non-empty one;
/// * an `ε` leaf or a star, when `ε` is a word: without either, no subterm
///   has the empty word (a concatenation of no parts denotes `∅`, as in
///   [`Nfa::thompson`](rpq_automata::Nfa::thompson)).
pub(crate) fn is_minimum(r: &Regex, shape: &Shape) -> bool {
    let Some(longest) = shape.longest_word() else {
        return false;
    };
    if !shape.is_trim() {
        return false;
    }
    let (size, leaves) = size_and_leaves(r);
    // the bound is at most one node of each other kind past the leaves
    if size > leaves + 3 {
        return false;
    }
    let mut counts = Vec::with_capacity(leaves);
    most_per_word(r, &mut counts);
    let letters: usize = counts.iter().map(|&(_, n)| n).sum();
    let nullable = r.nullable();
    let several_words = letters > longest || nullable && longest > 0;
    let bound =
        letters + usize::from(longest >= 2) + usize::from(several_words) + usize::from(nullable);
    size <= bound
}

/// [`Regex::size`] and the number of label leaves, in one walk.
fn size_and_leaves(r: &Regex) -> (usize, usize) {
    match r {
        Regex::Symbol(_) => (1, 1),
        Regex::Empty | Regex::Epsilon => (1, 0),
        Regex::Concat(parts) | Regex::Union(parts) => {
            parts.iter().fold((1, 0), |(size, leaves), p| {
                let (s, l) = size_and_leaves(p);
                (size + s, leaves + l)
            })
        }
        Regex::Star(body) => {
            let (size, leaves) = size_and_leaves(body);
            (size + 1, leaves)
        }
    }
}

/// Push `(s, mₛ)` for each label of `r` — finite, with no `∅` subterm —
/// onto `out`, one pair per label: a part's counts add up along a
/// concatenation, and a union keeps the greatest of its arms'.
fn most_per_word(r: &Regex, out: &mut Vec<(Symbol, usize)>) {
    let mark = out.len();
    match r {
        Regex::Symbol(s) => out.push((*s, 1)),
        // a finite star denotes `{ε}`
        Regex::Empty | Regex::Epsilon | Regex::Star(_) => {}
        Regex::Concat(parts) | Regex::Union(parts) => {
            let concat = matches!(r, Regex::Concat(_));
            parts.iter().for_each(|p| most_per_word(p, out));
            out[mark..].sort_unstable_by_key(|&(s, _)| s);
            let mut kept = mark;
            for i in mark..out.len() {
                let (s, n) = out[i];
                match out[mark..kept].last_mut() {
                    Some((last, m)) if *last == s => *m = if concat { *m + n } else { (*m).max(n) },
                    _ => {
                        out[kept] = (s, n);
                        kept += 1;
                    }
                }
            }
            out.truncate(kept);
        }
    }
}

/// The labels that begin a word of `r` — or, with `last`, end one —
/// sorted and deduplicated: [`Nfa::entry_symbols`](rpq_automata::Nfa::entry_symbols)
/// of the trimmed Thompson automaton, and of its reversal.
pub(crate) fn labels(r: &Regex, last: bool) -> Vec<Symbol> {
    let mut out = Vec::new();
    ends(r, last, &mut out);
    out.sort_unstable();
    out.dedup();
    out
}

/// Push the labels that begin (`last`: end) a word of `r` onto `out`.
/// `None` when `r` has no word — and then nothing is left pushed —
/// otherwise whether it has the empty word.
fn ends(r: &Regex, last: bool, out: &mut Vec<Symbol>) -> Option<bool> {
    match r {
        Regex::Empty => None,
        Regex::Epsilon => Some(true),
        Regex::Symbol(s) => {
            out.push(*s);
            Some(false)
        }
        Regex::Union(arms) => arms.iter().fold(None, |acc, a| match ends(a, last, out) {
            None => acc,
            Some(nullable) => Some(nullable || acc == Some(true)),
        }),
        Regex::Concat(parts) if parts.is_empty() => None,
        Regex::Concat(parts) => {
            let mark = out.len();
            let mut nullable = true;
            for i in 0..parts.len() {
                let part = &parts[if last { parts.len() - 1 - i } else { i }];
                let from = out.len();
                // a part behind one without the empty word begins no word,
                // but an empty part still empties the concatenation
                let Some(part_nullable) = ends(part, last, out) else {
                    out.truncate(mark);
                    return None;
                };
                if !nullable {
                    out.truncate(from);
                }
                nullable &= part_nullable;
            }
            Some(nullable)
        }
        Regex::Star(body) => {
            ends(body, last, out);
            Some(true)
        }
    }
}

/// Every fact of `shape` against the automaton it replaces — for the
/// debug builds' cross-check and the property tests.
#[cfg(any(test, debug_assertions))]
pub(crate) fn check(r: &Regex, shape: &Shape) {
    let nfa = rpq_automata::Nfa::thompson(r);
    let trimmed = nfa.trim();
    let (mut leaf_labels, mut swept) = (Vec::new(), Vec::new());
    each_leaf(r, &mut |s| leaf_labels.push(s));
    for s in 0..nfa.num_states() as u32 {
        swept.extend(nfa.transitions(s).iter().map(|&(sym, _)| sym));
    }
    leaf_labels.sort_unstable();
    swept.sort_unstable();
    let kept = |s: u32| {
        trimmed.is_accepting(s) == nfa.is_accepting(s)
            && trimmed.transitions(s) == nfa.transitions(s)
            && trimmed.eps_transitions(s) == nfa.eps_transitions(s)
    };
    let states = nfa.num_states();
    let facts = [
        ("states", shape.states() == states),
        ("emptiness", shape.is_empty() == nfa.is_empty_lang()),
        ("finiteness", shape.is_finite() == nfa.is_finite_lang()),
        (
            "longest word",
            shape.longest_word() == nfa.longest_accepted_len(),
        ),
        ("first labels", labels(r, false) == trimmed.entry_symbols()),
        (
            "last labels",
            labels(r, true) == trimmed.reverse().entry_symbols(),
        ),
        (
            "label mass",
            !shape.distinct_leaves() || leaf_labels == swept,
        ),
        (
            "trim",
            !shape.is_trim() || trimmed.num_states() == states && (0..states as u32).all(kept),
        ),
    ];
    for (fact, holds) in facts {
        assert!(holds, "the {fact} read off {r:?} is not its automaton's");
    }
}

/// The minimal-DFA round trip [`is_minimum`] spares a plan, run anyway over
/// an alphabet of `sigma` labels — for the debug builds' cross-check and
/// the tests: the regex it finds is no smaller than `r`.
#[cfg(any(test, debug_assertions))]
pub(crate) fn check_minimum(r: &Regex, sigma: usize) {
    let dfa = rpq_automata::Dfa::from_nfa(&rpq_automata::Nfa::thompson(r), sigma);
    let round_trip = rpq_automata::elim::nfa_to_regex(&dfa.minimize().to_nfa());
    assert!(
        round_trip.size() >= r.size(),
        "{r:?} is certified minimum, but its minimal-DFA regex {round_trip:?} is smaller"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rpq_automata::Alphabet;
    use rpq_testkit::random::{random_regex, RegexGenConfig};
    use std::collections::HashMap;

    /// A tree the smart constructors never make: duplicate and nested
    /// union arms, `ε` and `∅` inside concatenations and stars, `Star(ε)`,
    /// one-part and empty concatenations and unions.
    fn raw_tree(rng: &mut StdRng, syms: &[Symbol], depth: usize) -> Regex {
        let leaf = depth == 0 || rng.random_range(0..100) < 25;
        if leaf {
            return match rng.random_range(0..10) {
                0 => Regex::Epsilon,
                1 => Regex::Empty,
                _ => Regex::Symbol(syms[rng.random_range(0..syms.len())]),
            };
        }
        let k = rng.random_range(0..4);
        let mut parts: Vec<Regex> = (0..k).map(|_| raw_tree(rng, syms, depth - 1)).collect();
        if k > 0 && rng.random_range(0..4) == 0 {
            // an arm twice
            parts.push(parts[0].clone());
        }
        match rng.random_range(0..10) {
            0..=2 => Regex::Star(Box::new(parts.pop().unwrap_or(Regex::Epsilon))),
            3..=6 => Regex::Union(parts),
            _ => Regex::Concat(parts),
        }
    }

    #[test]
    fn every_fact_read_off_the_regex_is_the_automatons() {
        let mut ab = Alphabet::new();
        let syms: Vec<Symbol> = ["a", "b", "c"].iter().map(|n| ab.intern(n)).collect();
        let mut rng = StdRng::seed_from_u64(0x5a17e);
        let mut cfg = RegexGenConfig::new(syms.clone());
        let (mut normal, mut raw, mut fallbacks, mut untrimmed) = (0, 0, 0, 0);
        for depth in 1..=5 {
            cfg.max_depth = depth;
            for _ in 0..400 {
                let r = random_regex(&mut rng, &cfg);
                let shape = Shape::of(&r);
                assert!(shape.distinct_leaves(), "normal form: {r:?}");
                check(&r, &shape);
                normal += 1;
            }
            for _ in 0..400 {
                let r = raw_tree(&mut rng, &syms, depth);
                let shape = Shape::of(&r);
                check(&r, &shape);
                fallbacks += usize::from(!shape.distinct_leaves());
                untrimmed += usize::from(!shape.is_trim());
                raw += 1;
            }
        }
        // the raw trees reach both fallbacks often
        assert_eq!((normal, raw), (2000, 2000));
        assert!(
            fallbacks > 100 && untrimmed > 500,
            "{fallbacks} {untrimmed}"
        );
    }

    #[test]
    fn the_hand_built_corner_cases() {
        let mut ab = Alphabet::new();
        let (a, b) = (ab.intern("a"), ab.intern("b"));
        let (sa, sb) = (Regex::Symbol(a), Regex::Symbol(b));
        let star = |r: Regex| Regex::Star(Box::new(r));
        for r in [
            star(Regex::Epsilon),
            star(Regex::Empty),
            star(Regex::Union(vec![Regex::Epsilon, Regex::Epsilon])),
            star(Regex::Concat(vec![Regex::Epsilon, star(Regex::Epsilon)])),
            Regex::Concat(vec![]),
            Regex::Union(vec![]),
            Regex::Concat(vec![sa.clone()]),
            Regex::Concat(vec![sa.clone(), Regex::Epsilon, sb.clone()]),
            Regex::Concat(vec![sa.clone(), Regex::Empty, star(sb.clone())]),
            Regex::Union(vec![sb.clone(), sa.clone(), sb.clone()]),
            Regex::Union(vec![sa.clone(), Regex::Union(vec![sa.clone(), sb.clone()])]),
            Regex::Union(vec![sa.clone(), Regex::Concat(vec![sa.clone()])]),
            Regex::Concat(vec![star(Regex::Epsilon), sa.clone(), Regex::Empty]),
        ] {
            check(&r, &Shape::of(&r));
        }
        let eps_star = Shape::of(&star(Regex::Epsilon));
        assert_eq!(eps_star.longest_word(), Some(0), "ε* is {{ε}}, finite");
        let dup = Shape::of(&Regex::Union(vec![sa.clone(), sa]));
        assert!(!dup.distinct_leaves(), "a + a is one transition");
    }

    /// The longest word a language is keyed by in the exhaustive test.
    const CUT: u32 = 9;

    /// A language over `{a, b}` cut at [`CUT`] letters, one bit a word:
    /// the word of `n` letters spelled by the bits of `w` (`a` a 0, `b` a
    /// 1) is bit `2ⁿ - 1 + w`.
    type Cut = [u64; 16];

    fn add(cut: &mut Cut, n: u32, w: u32) {
        let bit = (1usize << n) - 1 + w as usize;
        cut[bit / 64] |= 1 << (bit % 64);
    }

    /// The words of `cut` as `(letters, spelling)`, shortest first.
    fn words(cut: &Cut) -> Vec<(u32, u32)> {
        (0..(1usize << (CUT + 1)) - 1)
            .filter(|&bit| cut[bit / 64] >> (bit % 64) & 1 == 1)
            .map(|bit| {
                let n = (bit + 1).ilog2();
                (n, (bit + 1 - (1 << n)) as u32)
            })
            .collect()
    }

    fn cut_concat(x: &Cut, y: &Cut) -> Cut {
        let (xs, ys) = (words(x), words(y));
        let mut out = [0; 16];
        for &(n, w) in &xs {
            for &(m, v) in ys.iter().take_while(|&&(m, _)| n + m <= CUT) {
                add(&mut out, n + m, w << m | v);
            }
        }
        out
    }

    /// Cut languages interned by id, and the operations on ids memoized,
    /// so each distinct combination is computed once.
    #[derive(Default)]
    struct Cuts {
        all: Vec<Cut>,
        ids: HashMap<Cut, u32>,
        memo: HashMap<(u8, u32, u32), u32>,
    }

    impl Cuts {
        fn id(&mut self, cut: Cut) -> u32 {
            let next = self.all.len() as u32;
            *self.ids.entry(cut).or_insert_with(|| {
                self.all.push(cut);
                next
            })
        }

        /// The cut of the node `op` — a union, a concatenation or a star,
        /// its parts ignored — over the cuts `x` and (but for a star) `y`.
        fn apply(&mut self, op: &Regex, x: u32, y: u32) -> u32 {
            let code = match op {
                Regex::Union(_) => 0,
                Regex::Concat(_) => 1,
                _ => 2,
            };
            if let Some(&id) = self.memo.get(&(code, x, y)) {
                return id;
            }
            let (cx, cy) = (self.all[x as usize], self.all[y as usize]);
            let cut = match code {
                0 => std::array::from_fn(|i| cx[i] | cy[i]),
                1 => cut_concat(&cx, &cy),
                _ => {
                    let mut star = [0; 16];
                    add(&mut star, 0, 0);
                    loop {
                        let more = cut_concat(&star, &cx);
                        let next: Cut = std::array::from_fn(|i| star[i] | more[i]);
                        if next == star {
                            break star;
                        }
                        star = next;
                    }
                }
            };
            let id = self.id(cut);
            self.memo.insert((code, x, y), id);
            id
        }

        /// The cut of `op` over the cuts of `parts`, left to right.
        fn fold(&mut self, op: &Regex, parts: &[u32]) -> u32 {
            parts[1..]
                .iter()
                .fold(parts[0], |acc, &p| self.apply(op, acc, p))
        }
    }

    /// Every tree of at most `max` nodes over `{a, b, ε, ∅}` — stars,
    /// binary and ternary concatenations and unions — by size, each with
    /// the id of its cut language.
    fn every_tree(a: Symbol, b: Symbol, max: usize, cuts: &mut Cuts) -> Vec<Vec<(Regex, u32)>> {
        let leaf = |cuts: &mut Cuts, words: &[(u32, u32)]| {
            let mut cut = [0; 16];
            words.iter().for_each(|&(n, w)| add(&mut cut, n, w));
            cuts.id(cut)
        };
        let leaves = vec![
            (Regex::Symbol(a), leaf(cuts, &[(1, 0)])),
            (Regex::Symbol(b), leaf(cuts, &[(1, 1)])),
            (Regex::Epsilon, leaf(cuts, &[(0, 0)])),
            (Regex::Empty, leaf(cuts, &[])),
        ];
        let mut by_size = vec![Vec::new(), leaves];
        for n in 2..=max {
            let mut trees = Vec::new();
            for (r, l) in &by_size[n - 1] {
                let star = Regex::Star(Box::new(r.clone()));
                let id = cuts.apply(&star, *l, *l);
                trees.push((star, id));
            }
            // the part sizes of a binary and of a ternary node of `n` nodes
            let mut splits: Vec<Vec<usize>> = (1..n - 1).map(|i| vec![i, n - 1 - i]).collect();
            for i in 1..n {
                for j in 1..n {
                    if i + j < n - 1 {
                        splits.push(vec![i, j, n - 1 - i - j]);
                    }
                }
            }
            for sizes in splits {
                let mut picks: Vec<(Vec<Regex>, Vec<u32>)> = vec![(Vec::new(), Vec::new())];
                for &size in &sizes {
                    picks = picks
                        .into_iter()
                        .flat_map(|(rs, ls)| {
                            by_size[size].iter().map(move |(r, l)| {
                                let (mut rs, mut ls) = (rs.clone(), ls.clone());
                                rs.push(r.clone());
                                ls.push(*l);
                                (rs, ls)
                            })
                        })
                        .collect();
                }
                for (parts, ls) in picks {
                    for node in [Regex::Concat(parts.clone()), Regex::Union(parts)] {
                        let id = cuts.fold(&node, &ls);
                        trees.push((node, id));
                    }
                }
            }
            by_size.push(trees);
        }
        by_size
    }

    #[test]
    fn no_smaller_tree_has_the_language_of_a_certified_minimum() {
        let mut ab = Alphabet::new();
        let (a, b) = (ab.intern("a"), ab.intern("b"));
        let mut cuts = Cuts::default();
        let by_size = every_tree(a, b, 7, &mut cuts);
        // A finite language of at most 7 nodes has no word past 7 letters,
        // so its cut is the language itself.
        let mut smallest: HashMap<(bool, u32), usize> = HashMap::new();
        for (size, trees) in by_size.iter().enumerate() {
            for (r, l) in trees {
                smallest
                    .entry((Shape::of(r).is_finite(), *l))
                    .or_insert(size);
            }
        }
        let (mut trees, mut certified) = (0, 0);
        for (size, ts) in by_size.iter().enumerate() {
            for (r, l) in ts {
                trees += 1;
                if !is_minimum(r, &Shape::of(r)) {
                    continue;
                }
                certified += 1;
                let least = smallest[&(true, *l)];
                assert_eq!(
                    least,
                    size,
                    "{} claimed minimum, but {least} nodes spell its language",
                    r.display(&ab)
                );
            }
        }
        assert_eq!((trees, smallest.len()), (74_748, 721));
        assert!(certified > 100, "{certified} certified");
    }

    #[test]
    fn no_certified_minimum_has_a_smaller_minimal_dfa_regex() {
        let mut ab = Alphabet::new();
        let syms: Vec<Symbol> = ["a", "b", "c"].iter().map(|n| ab.intern(n)).collect();
        let mut rng = StdRng::seed_from_u64(0x3141);
        let mut cfg = RegexGenConfig::new(syms.clone());
        let (mut trees, mut certified) = (0, 0);
        for depth in 1..=6 {
            cfg.max_depth = depth;
            for k in 0..10_000 {
                let r = if k % 2 == 0 {
                    random_regex(&mut rng, &cfg)
                } else {
                    raw_tree(&mut rng, &syms, depth)
                };
                trees += 1;
                if is_minimum(&r, &Shape::of(&r)) {
                    certified += 1;
                    check_minimum(&r, ab.len());
                }
            }
        }
        assert_eq!(trees, 60_000);
        assert!(certified > 15_000, "{certified} certified");
    }
}
