//! General path queries and the `μ` translation (Section 2.4).
//!
//! Languages like Lorel use regular expressions at two granularities: over
//! *characters* within a label and over *labels* along a path, e.g.
//!
//! ```text
//! "doc" ("[sS]ections?" "text" + "[pP]aragraph")
//! ```
//!
//! The paper reduces such *general path queries* over instances with
//! arbitrarily many labels to ordinary regular path queries over a finite
//! alphabet (Proposition 2.2): labels are grouped into equivalence classes
//! `v ≡ v'` iff they satisfy exactly the same patterns of the query; `μ`
//! replaces each label by its class representative in both the instance and
//! the query. [`MuTranslation`] materializes that construction (Example 2.1
//! / Figure 1), and [`eval_general_direct`] provides an independent direct
//! evaluator used to verify Proposition 2.2.

use std::collections::HashMap;

use rpq_automata::{parse_regex, Alphabet, Regex, Symbol};
use rpq_core::eval_product;
use rpq_graph::{Instance, Oid};

use crate::charpat::{parse_char_pattern, CharPattern, CompiledPattern};

/// A path-level regular expression whose atoms are character patterns
/// (indices into [`GeneralPathQuery::patterns`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GeneralRegex {
    /// ∅ at the path level.
    Empty,
    /// ε at the path level.
    Epsilon,
    /// One edge whose label matches the pattern.
    Pattern(usize),
    /// Concatenation.
    Concat(Vec<GeneralRegex>),
    /// Union.
    Union(Vec<GeneralRegex>),
    /// Kleene star.
    Star(Box<GeneralRegex>),
}

/// A parsed general path query: the paper's two-level expressions.
#[derive(Clone, Debug)]
pub struct GeneralPathQuery {
    /// The set Π of string patterns occurring in the query (deduplicated).
    pub patterns: Vec<CharPattern>,
    /// Pattern sources as written (for display).
    pub pattern_sources: Vec<String>,
    /// The path-level structure.
    pub ast: GeneralRegex,
}

impl GeneralPathQuery {
    /// Parse a general path query. Each atom (identifier or quoted string)
    /// is interpreted as a grep-style character pattern; path-level
    /// operators are the usual `+`, concatenation, `*`, `?`.
    pub fn parse(src: &str) -> Result<GeneralPathQuery, String> {
        // Parse the path level with a private alphabet whose "labels" are
        // the pattern sources, then lift each symbol to a char pattern.
        let mut pattern_ab = Alphabet::new();
        let path = parse_regex(&mut pattern_ab, src).map_err(|e| e.to_string())?;
        let mut patterns = Vec::with_capacity(pattern_ab.len());
        let mut pattern_sources = Vec::with_capacity(pattern_ab.len());
        for s in pattern_ab.symbols() {
            let source = pattern_ab.name(s).to_owned();
            patterns.push(parse_char_pattern(&source)?);
            pattern_sources.push(source);
        }
        fn lift(r: &Regex) -> GeneralRegex {
            match r {
                Regex::Empty => GeneralRegex::Empty,
                Regex::Epsilon => GeneralRegex::Epsilon,
                Regex::Symbol(s) => GeneralRegex::Pattern(s.index()),
                Regex::Concat(parts) => GeneralRegex::Concat(parts.iter().map(lift).collect()),
                Regex::Union(parts) => GeneralRegex::Union(parts.iter().map(lift).collect()),
                Regex::Star(inner) => GeneralRegex::Star(Box::new(lift(inner))),
            }
        }
        Ok(GeneralPathQuery {
            patterns,
            pattern_sources,
            ast: lift(&path),
        })
    }
}

/// The materialized `μ` translation of a general path query against an
/// instance: label equivalence classes, the relabeled instance `μ(I)`, and
/// the translated ordinary query `μ(q)`.
#[derive(Debug)]
pub struct MuTranslation {
    /// Fresh alphabet of class-representative labels.
    pub class_alphabet: Alphabet,
    /// One symbol (in `class_alphabet`) per equivalence class.
    pub class_syms: Vec<Symbol>,
    /// Per class: the sorted indices of patterns its labels satisfy.
    pub class_signature: Vec<Vec<usize>>,
    /// Per class: a representative original label (the paper's `l([v])`).
    pub class_repr: Vec<String>,
    /// Map original label symbol → class index.
    pub label_class: HashMap<Symbol, usize>,
    /// The relabeled instance `μ(I)` (same node ids as the original).
    pub mu_instance: Instance,
    /// The translated query `μ(q)` over `class_alphabet`.
    pub mu_query: Regex,
}

/// Build the `μ` translation of `query` against `instance` (labels are
/// classified relative to the labels actually occurring in the instance).
pub fn translate(
    query: &GeneralPathQuery,
    instance: &Instance,
    original_alphabet: &Alphabet,
) -> MuTranslation {
    let compiled: Vec<CompiledPattern> = query
        .patterns
        .iter()
        .map(CompiledPattern::compile)
        .collect();

    // Collect distinct labels in use.
    let mut labels: Vec<Symbol> = Vec::new();
    for (_, l, _) in instance.edges() {
        if !labels.contains(&l) {
            labels.push(l);
        }
    }
    labels.sort();

    // Signature of each label; group into classes.
    let mut class_of_sig: HashMap<Vec<usize>, usize> = HashMap::new();
    let mut class_signature: Vec<Vec<usize>> = Vec::new();
    let mut class_repr: Vec<String> = Vec::new();
    let mut label_class: HashMap<Symbol, usize> = HashMap::new();
    for &l in &labels {
        let name = original_alphabet.name(l);
        let sig: Vec<usize> = compiled
            .iter()
            .enumerate()
            .filter(|(_, p)| p.matches(name))
            .map(|(i, _)| i)
            .collect();
        let class = match class_of_sig.get(&sig) {
            Some(&c) => c,
            None => {
                let c = class_signature.len();
                class_of_sig.insert(sig.clone(), c);
                class_signature.push(sig);
                class_repr.push(name.to_owned());
                c
            }
        };
        label_class.insert(l, class);
    }

    // Fresh alphabet with one symbol per class, named by representative.
    let mut class_alphabet = Alphabet::new();
    let class_syms: Vec<Symbol> = class_repr
        .iter()
        .enumerate()
        .map(|(c, r)| class_alphabet.intern(&format!("{r}#{c}")))
        .collect();

    // μ(I): relabel edges.
    let mut mu_instance = Instance::new();
    for o in instance.nodes() {
        let copied = mu_instance.add_named_node(&instance.node_name(o));
        debug_assert_eq!(copied, o);
    }
    for (a, l, b) in instance.edges() {
        mu_instance.add_edge(a, class_syms[label_class[&l]], b);
    }

    // μ(q): each pattern becomes the union of class symbols satisfying it.
    fn lower(g: &GeneralRegex, class_signature: &[Vec<usize>], class_syms: &[Symbol]) -> Regex {
        match g {
            GeneralRegex::Empty => Regex::Empty,
            GeneralRegex::Epsilon => Regex::Epsilon,
            GeneralRegex::Pattern(i) => Regex::union(
                class_signature
                    .iter()
                    .enumerate()
                    .filter(|(_, sig)| sig.contains(i))
                    .map(|(c, _)| Regex::sym(class_syms[c]))
                    .collect(),
            ),
            GeneralRegex::Concat(parts) => Regex::concat(
                parts
                    .iter()
                    .map(|p| lower(p, class_signature, class_syms))
                    .collect(),
            ),
            GeneralRegex::Union(parts) => Regex::union(
                parts
                    .iter()
                    .map(|p| lower(p, class_signature, class_syms))
                    .collect(),
            ),
            GeneralRegex::Star(inner) => lower(inner, class_signature, class_syms).star(),
        }
    }
    let mu_query = lower(&query.ast, &class_signature, &class_syms);

    MuTranslation {
        class_alphabet,
        class_syms,
        class_signature,
        class_repr,
        label_class,
        mu_instance,
        mu_query,
    }
}

/// Evaluate a general path query via the `μ` translation (Proposition 2.2):
/// `q(o, I) = μ(q)(o, μ(I))`.
pub fn eval_general(
    query: &GeneralPathQuery,
    instance: &Instance,
    source: Oid,
    original_alphabet: &Alphabet,
) -> Vec<Oid> {
    let mu = translate(query, instance, original_alphabet);
    let nfa = rpq_automata::Nfa::thompson(&mu.mu_query);
    eval_product(&nfa, &mu.mu_instance, source).answers
}

/// Direct evaluation of a general path query, *without* the translation:
/// product BFS where a transition on pattern `i` fires on every edge whose
/// label string matches pattern `i`. Independent implementation used to
/// verify Proposition 2.2.
pub fn eval_general_direct(
    query: &GeneralPathQuery,
    instance: &Instance,
    source: Oid,
    original_alphabet: &Alphabet,
) -> Vec<Oid> {
    // Thompson construction over GeneralRegex.
    struct Frag {
        eps: Vec<Vec<usize>>,
        pat: Vec<Vec<(usize, usize)>>, // (pattern, target)
        accept: usize,
    }
    impl Frag {
        fn add_state(&mut self) -> usize {
            self.eps.push(Vec::new());
            self.pat.push(Vec::new());
            self.eps.len() - 1
        }
        fn build(&mut self, g: &GeneralRegex, from: usize, to: usize) {
            match g {
                GeneralRegex::Empty => {}
                GeneralRegex::Epsilon => self.eps[from].push(to),
                GeneralRegex::Pattern(i) => self.pat[from].push((*i, to)),
                GeneralRegex::Concat(parts) => {
                    let mut cur = from;
                    for (k, p) in parts.iter().enumerate() {
                        let next = if k + 1 == parts.len() {
                            to
                        } else {
                            self.add_state()
                        };
                        self.build(p, cur, next);
                        cur = next;
                    }
                    if parts.is_empty() {
                        self.eps[from].push(to);
                    }
                }
                GeneralRegex::Union(parts) => {
                    for p in parts {
                        self.build(p, from, to);
                    }
                }
                GeneralRegex::Star(inner) => {
                    let hub = self.add_state();
                    self.eps[from].push(hub);
                    self.eps[hub].push(to);
                    let back = self.add_state();
                    self.build(inner, hub, back);
                    self.eps[back].push(hub);
                }
            }
        }
    }
    let mut f = Frag {
        eps: vec![Vec::new(), Vec::new()],
        pat: vec![Vec::new(), Vec::new()],
        accept: 1,
    };
    let ast = query.ast.clone();
    f.build(&ast, 0, 1);

    let compiled: Vec<CompiledPattern> = query
        .patterns
        .iter()
        .map(CompiledPattern::compile)
        .collect();
    // Memoize pattern × label matches.
    let mut match_memo: HashMap<(usize, Symbol), bool> = HashMap::new();

    let nv = instance.num_nodes();
    let ns = f.eps.len();
    let mut seen = vec![false; ns * nv];
    let mut answer = vec![false; nv];
    let mut stack = vec![(0usize, source)];
    seen[source.index()] = true;
    while let Some((q, v)) = stack.pop() {
        if q == f.accept {
            answer[v.index()] = true;
        }
        for &q2 in &f.eps[q] {
            let idx = q2 * nv + v.index();
            if !seen[idx] {
                seen[idx] = true;
                stack.push((q2, v));
            }
        }
        for &(pi, q2) in &f.pat[q] {
            for &(label, v2) in instance.out_edges(v) {
                let hit = *match_memo
                    .entry((pi, label))
                    .or_insert_with(|| compiled[pi].matches(original_alphabet.name(label)));
                if hit {
                    let idx = q2 * nv + v2.index();
                    if !seen[idx] {
                        seen[idx] = true;
                        stack.push((q2, v2));
                    }
                }
            }
        }
    }
    instance.nodes().filter(|o| answer[o.index()]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_graph::InstanceBuilder;

    fn doc_instance() -> (Alphabet, Instance, Oid) {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("root", "doc", "d1");
        b.edge("d1", "section", "s1");
        b.edge("d1", "Sections", "s2");
        b.edge("s1", "text", "t1");
        b.edge("s2", "text", "t2");
        b.edge("d1", "Paragraph", "p1");
        b.edge("d1", "footnote", "f1");
        let (inst, names) = b.finish();
        let root = names["root"];
        (ab, inst, root)
    }

    #[test]
    fn parses_paper_query() {
        let q =
            GeneralPathQuery::parse(r#""doc" ("[sS]ections?" "text" + "[pP]aragraph")"#).unwrap();
        assert_eq!(q.patterns.len(), 4);
    }

    #[test]
    fn mu_translation_evaluates_doc_query() {
        let (ab, inst, root) = doc_instance();
        let q =
            GeneralPathQuery::parse(r#""doc" ("[sS]ections?" "text" + "[pP]aragraph")"#).unwrap();
        let answers = eval_general(&q, &inst, root, &ab);
        let mut names: Vec<String> = answers.iter().map(|&o| inst.node_name(o)).collect();
        names.sort();
        assert_eq!(names, ["p1", "t1", "t2"]);
    }

    #[test]
    fn direct_and_translated_agree() {
        let (ab, inst, root) = doc_instance();
        for src in [
            r#""doc" ("[sS]ections?" "text" + "[pP]aragraph")"#,
            r#"("(.)*")* "text""#,
            r#""doc" "[sf].*""#,
            r#""doc"*"#,
        ] {
            let q = GeneralPathQuery::parse(src).unwrap();
            let via_mu = eval_general(&q, &inst, root, &ab);
            let direct = eval_general_direct(&q, &inst, root, &ab);
            assert_eq!(via_mu, direct, "Proposition 2.2 violated for {src}");
        }
    }

    #[test]
    fn classes_partition_labels() {
        let (ab, inst, _) = doc_instance();
        let q = GeneralPathQuery::parse(r#""[sS]ections?" + "[pP]aragraph""#).unwrap();
        let mu = translate(&q, &inst, &ab);
        // section & Sections share a class; Paragraph its own; doc/text/footnote
        // all match nothing → one "h" class.
        assert_eq!(mu.class_signature.len(), 3);
        let mut total = 0;
        for c in 0..mu.class_signature.len() {
            total += mu.label_class.values().filter(|&&x| x == c).count();
        }
        assert_eq!(total, mu.label_class.len());
    }

    #[test]
    fn example_21_class_count() {
        // Example 2.1: patterns a*b, ba*, c, dd* over suitable labels yield
        // six classes: [b], [ab], [ba], [c], [d], [h].
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        // one edge per interesting label
        for (i, l) in ["b", "aab", "baa", "c", "dd", "zzz"].iter().enumerate() {
            b.edge("o", l, &format!("t{i}"));
        }
        let (inst, _) = b.finish();
        let q = GeneralPathQuery::parse(
            r#"("a*b" "ba*") + ("a*b" "c") + ("ba*" "c") + "dd*" ("dd*")*"#,
        )
        .unwrap();
        let mu = translate(&q, &inst, &ab);
        assert_eq!(mu.class_signature.len(), 6, "{:?}", mu.class_repr);
    }
}
