//! Conjunctive regular path queries (CRPQs): plan-as-data IR, a
//! cost-based join planner, and the semijoin-propagating executor.
//!
//! A CRPQ conjoins path-query atoms over shared variables:
//!
//! ```text
//! ans(x, z) :- x -[r*]-> y, y -[s.t]-> z
//! ```
//!
//! Each atom `u -[p]-> v` asserts that the path query `p` relates the
//! bindings of `u` and `v`; the answer is the set of `(x, z)` bindings of
//! the *head* variables under some binding of the rest. [`parse_crpq`]
//! turns the text form into a [`Crpq`] (atom bodies are parsed by the
//! shared regex grammar via [`rpq_automata::parse_regex_embedded`], so
//! errors carry byte spans into the original query string).
//!
//! Evaluation order matters enormously: starting from a rare atom and
//! walking the join graph lets every subsequent atom run with one side
//! *bound* to the few values that survived so far (a semijoin), instead of
//! binding against the whole graph. [`plan_join`] picks that order
//! greedily from [`rpq_graph::LabelStats`] — cheapest atom first (by
//! [`crate::estimated_cost`] of the atom's text), then always the cheapest
//! atom *connected* to a bound variable — and plans each atom as a query
//! of its own ([`crate::Plan`]): the static analysis under no constraint
//! set prunes its zero-edge labels, trims its automaton and decides its
//! emptiness, and the plan compiles it once; its reversal is built by the
//! first search that runs the atom backward, and by none that runs it
//! forward.
//! [`execute_join`] runs the order on those plans. A statically empty atom
//! empties the whole conjunction, so the join answers it without an edge;
//! otherwise each atom goes through [`rpq_core::search_bindings`], the
//! binding-set decision `rpq_core::run_request` makes for a
//! `Conjunctive` request, which picks the direction from the atom's bound
//! sides. One shared budget/cancellation control runs through every atom
//! (a truncated atom contributes a sound subset, so the joined result is a
//! sound subset of the CRPQ answer), and one [`rpq_core::AtomStats`]
//! record per atom, in execution order, says what ran — the join-order
//! telemetry the serving layer aggregates.
//!
//! [`execute_naive`] is the deliberately-unoptimized reference: every atom
//! evaluated independently with both sides free, then hash-joined by a
//! join of its own (a `Vec` per row — the executor's before PR 25), so
//! that it checks the executor's row-major join instead of sharing it.
//! Tests and the `t17_crpq` bench gate use it as the oracle and as the
//! no-semijoin baseline.
//!
//! Join graphs of any shape are accepted (path, tree, cyclic); cyclic
//! graphs evaluate correctly via the residual filter step, though the
//! planner's cost model currently treats closing atoms like any other (see
//! ROADMAP).

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use rpq_automata::{parse_regex_embedded, Alphabet, ParseError};
use rpq_constraints::ConstraintSet;
use rpq_core::{
    search_bindings, search_pairs, seed_candidates, AtomStats, EvalControl, EvalScratch, EvalStats,
    FrontierMode, PairSetResult, Query, ScratchPool, SearchOpts, Termination,
};
use rpq_graph::{GraphView, LabelStats, Oid};

use crate::analysis::analyze;
use crate::cost::estimated_cost;
use crate::planned::{Plan, PlannerConfig};

/// A CRPQ variable, identified by its index into [`Crpq::var_names`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// The dense index of this variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One atom `src -[query]-> dst` of a conjunctive query.
#[derive(Clone, Debug)]
pub struct CrpqAtom {
    /// The atom's path query, compiled.
    pub query: Query,
    /// The variable bound to path starts.
    pub src: Var,
    /// The variable bound to path ends.
    pub dst: Var,
}

/// A conjunctive regular path query as plan-ready data: atoms, the head
/// variable pair, and the variable name table (for diagnostics and
/// display).
#[derive(Clone, Debug)]
pub struct Crpq {
    /// The conjoined atoms, in textual order.
    pub atoms: Vec<CrpqAtom>,
    /// The head variables `ans(head.0, head.1)`.
    pub head: (Var, Var),
    /// Variable names, indexed by [`Var`].
    pub var_names: Vec<String>,
}

impl Crpq {
    /// The name of `v`, as written in the query text.
    pub fn var_name(&self, v: Var) -> &str {
        &self.var_names[v.index()]
    }

    /// Number of distinct variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// A canonical textual form of the query — variable names, atom order,
    /// and each atom body rendered through the shared regex display. Equal
    /// signatures mean equal queries, so this is the CRPQ join-plan memo
    /// key in [`crate::PlannedEngine`].
    pub fn signature(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = write!(
            s,
            "ans({}, {}) :- ",
            self.var_name(self.head.0),
            self.var_name(self.head.1)
        );
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{} -[{}]-> {}",
                self.var_name(a.src),
                a.query.regex().display(a.query.alphabet()),
                self.var_name(a.dst)
            );
        }
        s
    }

    /// The variables of atom `i` as a two-element array (`src`, `dst`).
    fn atom_vars(&self, i: usize) -> [Var; 2] {
        [self.atoms[i].src, self.atoms[i].dst]
    }
}

/// A planned atom evaluation order and each atom's own plan —
/// plan-as-data, inspectable and memoizable. Which end an atom runs from
/// is not planned: the executor reads it off the atom's bound sides, and
/// [`rpq_core::AtomStats::direction`] records it.
#[derive(Clone, Debug)]
pub struct JoinPlan {
    /// Atom indices in execution order.
    pub order: Vec<usize>,
    /// The planner's estimated cost of each atom (indexed by atom), the
    /// ranking `order` was picked by.
    pub est_costs: Vec<usize>,
    /// Each atom planned as a query of its own (indexed by atom), under
    /// no constraint set: zero-edge labels pruned, the automaton trimmed
    /// and compiled (reversed on the atom's first backward search),
    /// emptiness and finiteness decided. Its pruned symbols make a join
    /// plan valid only under the statistics it was built on.
    pub atoms: Vec<Plan>,
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Parse the text form of a conjunctive query:
///
/// ```text
/// ans(x, z) :- x -[r*]-> y, y -[s.t]-> z
/// ```
///
/// Grammar: `IDENT '(' var ',' var ')' ':-' atom (',' atom)*` with
/// `atom := var '-[' regex ']->' var`; atom bodies use the full path-query
/// grammar of [`rpq_automata::parse_regex`]. Head variables must occur in
/// at least one atom. Errors carry byte spans into `src` (atom bodies are
/// parsed in place via [`parse_regex_embedded`], so their spans land
/// inside the brackets).
pub fn parse_crpq(alphabet: &mut Alphabet, src: &str) -> Result<Crpq, ParseError> {
    let mut p = CrpqParser { src, pos: 0 };
    p.skip_ws();
    let _head_name = p.ident("a head predicate name (e.g. 'ans')")?;
    p.expect("(")?;
    let h0 = p.ident("a head variable")?;
    p.expect(",")?;
    let h1 = p.ident("a head variable")?;
    p.expect(")")?;
    p.expect(":-")?;

    let mut var_names: Vec<String> = Vec::new();
    let mut var_ids: HashMap<String, Var> = HashMap::new();
    let mut intern = |name: &str| -> Var {
        if let Some(&v) = var_ids.get(name) {
            return v;
        }
        let v = Var(var_names.len() as u32);
        var_names.push(name.to_string());
        var_ids.insert(name.to_string(), v);
        v
    };
    let head = (intern(&h0), intern(&h1));

    let mut bodies = Vec::new();
    loop {
        let sv = p.ident("an atom source variable")?;
        p.expect("-[")?;
        let body_start = p.pos;
        let body_end = match p.src[p.pos..].find("]->") {
            Some(off) => p.pos + off,
            None => {
                let mut e = ParseError::new(body_start, "unterminated atom body: missing ']->'");
                e.end = p.src.len();
                return Err(e);
            }
        };
        let regex = parse_regex_embedded(alphabet, p.src, body_start..body_end)?;
        p.pos = body_end + "]->".len();
        p.skip_ws();
        let tv = p.ident("an atom target variable")?;
        bodies.push((regex, intern(&sv), intern(&tv)));
        p.skip_ws();
        if p.pos >= p.src.len() {
            break;
        }
        p.expect(",")?;
    }

    // Every body is parsed, so the alphabet holds every label of the text:
    // one snapshot serves all the atoms.
    let snapshot = Arc::new(alphabet.clone());
    let crpq = Crpq {
        atoms: bodies
            .into_iter()
            .map(|(regex, src, dst)| CrpqAtom {
                query: Query::on_snapshot(regex, Arc::clone(&snapshot)),
                src,
                dst,
            })
            .collect(),
        head,
        var_names,
    };
    for (pos, hv) in [crpq.head.0, crpq.head.1].into_iter().enumerate() {
        let used = crpq.atoms.iter().any(|a| a.src == hv || a.dst == hv);
        if !used {
            return Err(ParseError::new(
                0,
                format!(
                    "head variable '{}' (position {pos}) does not occur in any atom",
                    crpq.var_name(hv)
                ),
            ));
        }
    }
    Ok(crpq)
}

/// Hand-rolled scanner for the conjunctive skeleton (the atom bodies go
/// through the shared regex parser).
struct CrpqParser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> CrpqParser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src.as_bytes()[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    /// Consume `token` (after whitespace), with a spanned error otherwise.
    fn expect(&mut self, token: &'static str) -> Result<(), ParseError> {
        self.skip_ws();
        if self.src[self.pos..].starts_with(token) {
            self.pos += token.len();
            return Ok(());
        }
        let mut e = ParseError::new(self.pos, format!("expected '{token}'"));
        e.end = (self.pos + 1).min(self.src.len());
        e.expected = vec![token];
        e.found = self.src[self.pos..]
            .chars()
            .next()
            .map(|c| format!("'{c}'"));
        Err(e)
    }

    /// Consume an identifier (`[A-Za-z_][A-Za-z0-9_]*`).
    fn ident(&mut self, what: &'static str) -> Result<String, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let bytes = self.src.as_bytes();
        while self.pos < bytes.len()
            && (bytes[self.pos].is_ascii_alphanumeric() || bytes[self.pos] == b'_')
        {
            self.pos += 1;
        }
        if self.pos == start || bytes[start].is_ascii_digit() {
            let mut e = ParseError::new(start, format!("expected {what}"));
            e.end = (start + 1).min(self.src.len());
            e.expected = vec![what];
            e.found = self.src[start..].chars().next().map(|c| format!("'{c}'"));
            return Err(e);
        }
        Ok(self.src[start..self.pos].to_string())
    }
}

// ---------------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------------

/// Pick an atom evaluation order from per-label statistics: cheapest atom
/// first (by [`estimated_cost`] of the atom's text — edge counts over its
/// automaton's labeled transitions with a recursion penalty), then
/// repeatedly the cheapest remaining atom that shares a variable with the
/// already-bound set (semijoin propagation); a disconnected join graph
/// falls back to the cheapest remaining atom. `src_bound` / `dst_bound`
/// say whether the request pre-binds the head variables (a bound head
/// variable seeds the bound set before the first atom, which can flip the
/// starting atom).
///
/// Each atom is planned too ([`JoinPlan::atoms`]): [`crate::analyze`]
/// under the empty constraint set, with the atom itself as the winner, so
/// it is pruned, trimmed and classified but never rewritten — an atom's
/// bound side ranges over many nodes, not the one site `E` is known to
/// hold at. The ranking stays [`estimated_cost`], not the plans' entry
/// costs, which do not price recursion.
pub fn plan_join(
    crpq: &Crpq,
    stats: &LabelStats,
    _config: &PlannerConfig,
    src_bound: bool,
    dst_bound: bool,
) -> JoinPlan {
    let n = crpq.atoms.len();
    let costs: Vec<usize> = crpq
        .atoms
        .iter()
        .map(|a| estimated_cost(a.query.regex(), stats))
        .collect();

    let mut bound = vec![false; crpq.num_vars()];
    if src_bound {
        bound[crpq.head.0.index()] = true;
    }
    if dst_bound {
        bound[crpq.head.1.index()] = true;
    }

    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    while !remaining.is_empty() {
        // Prefer connected atoms (any variable already bound); among the
        // preferred set take the cheapest, ties to the lower atom index
        // for determinism.
        let connected: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| crpq.atom_vars(i).iter().any(|v| bound[v.index()]))
            .collect();
        let pool = if connected.is_empty() {
            &remaining
        } else {
            &connected
        };
        let &pick = pool
            .iter()
            .min_by_key(|&&i| (costs[i], i))
            .expect("pool is non-empty");
        for v in crpq.atom_vars(pick) {
            bound[v.index()] = true;
        }
        order.push(pick);
        remaining.retain(|&i| i != pick);
    }
    let plan = |a: &CrpqAtom| {
        let text = a.query.regex();
        let analysis = analyze(&ConstraintSet::default(), text, text.clone(), stats);
        Plan::new(analysis, a.query.alphabet(), stats)
    };
    JoinPlan {
        order,
        est_costs: costs,
        atoms: crpq.atoms.iter().map(plan).collect(),
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// An intermediate join relation: named columns over row-major [`Oid`]
/// rows — one buffer, `vars.len()` oids a row, so a join step allocates per
/// step, never per row. Its rows are sorted (lexicographically, in column
/// order) and distinct: a first atom's bindings come that way, every
/// [`join_step`] keeps it, and [`Relation::project`] restores it. `None`
/// in the executor means "no atom executed yet" (the neutral element of
/// the join) — distinct from an executed-but-empty relation, which
/// annihilates.
struct Relation {
    vars: Vec<Var>,
    /// Row after row, `vars.len()` oids each.
    cells: Vec<Oid>,
    /// Rows held: `cells.len() / vars.len()`, and — for a relation of no
    /// column, which holds the empty row or nothing — 0 or 1.
    len: usize,
}

/// The width of an oid in a projection key.
const OID_BITS: u32 = u32::BITS;

/// The most kept columns a projection packs into one `u128` key.
const PACKED_COLS: usize = (u128::BITS / OID_BITS) as usize;

impl Relation {
    fn row(&self, i: usize) -> &[Oid] {
        let arity = self.vars.len();
        &self.cells[i * arity..(i + 1) * arity]
    }

    fn rows(&self) -> impl Iterator<Item = &[Oid]> {
        (0..self.len).map(|i| self.row(i))
    }

    fn col(&self, v: Var) -> Option<usize> {
        self.vars.iter().position(|&x| x == v)
    }

    /// Distinct values of column `v`, sorted. The rows are sorted, so the
    /// first column comes sorted and needs only the dedup.
    fn distinct(&self, v: Var) -> Vec<Oid> {
        let c = self.col(v).expect("column present");
        let mut out: Vec<Oid> = self.rows().map(|r| r[c]).collect();
        if c == 0 {
            debug_assert!(out.is_sorted(), "a relation's first column is sorted");
        } else {
            out.sort_unstable();
        }
        out.dedup();
        out
    }

    /// Project onto `keep` (dropping dead columns) and dedup rows. Up to
    /// [`PACKED_COLS`] kept oids pack big-endian into one `u128` key per
    /// row, in column order, so the keys sort as the kept rows do
    /// lexicographically. The rows come sorted, so keys that agree on the
    /// kept columns leading the relation come in one run, and only each
    /// run is sorted; the deduplicated keys unpack into the new rows.
    /// Wider rows sort their indices by the kept oids.
    fn project(&mut self, keep: &[Var]) {
        let cols: Vec<usize> = (0..self.vars.len())
            .filter(|&i| keep.contains(&self.vars[i]))
            .collect();
        if cols.len() == self.vars.len() {
            return;
        }
        let mut cells = Vec::with_capacity(self.len * cols.len());
        if cols.len() <= PACKED_COLS {
            let pack = |row: &[Oid]| {
                cols.iter()
                    .fold(0, |key, &c| key << OID_BITS | u128::from(row[c].0))
            };
            let mut keys: Vec<u128> = self.rows().map(pack).collect();
            let lead = cols
                .iter()
                .enumerate()
                .take_while(|&(i, &c)| i == c)
                .count();
            let rest = OID_BITS * (cols.len() - lead) as u32;
            let run_of = |key: &u128| key.checked_shr(rest);
            debug_assert!(keys.is_sorted_by_key(run_of), "the rows are sorted");
            for run in keys.chunk_by_mut(|a, b| run_of(a) == run_of(b)) {
                run.sort_unstable();
            }
            keys.dedup();
            for &key in &keys {
                let oid = |j: usize| Oid((key >> (OID_BITS * j as u32)) as u32);
                cells.extend((0..cols.len()).rev().map(oid));
            }
            self.len = keys.len();
        } else {
            let kept = |i: usize| {
                let row = self.row(i);
                cols.iter().map(move |&c| row[c])
            };
            let mut order: Vec<usize> = (0..self.len).collect();
            order.sort_unstable_by(|&a, &b| kept(a).cmp(kept(b)));
            order.dedup_by(|a, b| kept(*a).eq(kept(*b)));
            for &i in &order {
                cells.extend(kept(i));
            }
            self.len = order.len();
        }
        self.cells = cells;
        self.vars = cols.iter().map(|&i| self.vars[i]).collect();
    }
}

/// The endpoint restrictions a request may carry for the head variables.
#[derive(Clone, Copy, Debug, Default)]
pub struct HeadBindings<'a> {
    /// Allowed bindings for the first head variable (`None` = free).
    pub sources: Option<&'a [Oid]>,
    /// Allowed bindings for the second head variable (`None` = free).
    pub targets: Option<&'a [Oid]>,
}

/// One head restriction, read once: `sorted` (deduplicated) for the
/// residual filter's binary searches, `seeds` in request order with each
/// oid's first occurrence only — an atom seeded by the head binding
/// searches a repeated oid once, and a budget is spent on the seeds in the
/// order they were asked.
struct HeadSet<'a> {
    sorted: Vec<Oid>,
    seeds: Cow<'a, [Oid]>,
}

impl<'a> HeadSet<'a> {
    fn new(oids: &'a [Oid]) -> HeadSet<'a> {
        let mut sorted = oids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() == oids.len() {
            return HeadSet {
                sorted,
                seeds: Cow::Borrowed(oids),
            };
        }
        let mut taken = vec![false; sorted.len()];
        let seeds = oids
            .iter()
            .copied()
            .filter(|o| {
                sorted
                    .binary_search(o)
                    .is_ok_and(|i| !std::mem::replace(&mut taken[i], true))
            })
            .collect();
        HeadSet {
            sorted,
            seeds: Cow::Owned(seeds),
        }
    }

    fn contains(&self, o: &Oid) -> bool {
        self.sorted.binary_search(o).is_ok()
    }
}

/// Execute a CRPQ under `plan` over `graph`, in `plan.order`, with
/// semijoin propagation: each atom runs on its own plan
/// (`plan.atoms[atom]`) through [`search_bindings`], with its bound side
/// restricted to the distinct values surviving the join so far (or to the
/// request's head bindings — each oid once — before the first atom touches
/// that variable). A plan whose statistics are not `graph`'s may have
/// pruned a label `graph` has edges on; [`crate::PlannedEngine::crpq_plan`]
/// serves a plan only at the statistics it was built on.
///
/// If any atom is statically empty, no binding can satisfy the query: the
/// join returns none, scans no edge, and records every atom with
/// `direction: None`.
///
/// `control` threads one shared `edges_scanned` budget and cancellation
/// flag through every atom. A truncated atom contributes a sound *subset*
/// of its binding relation, and a join of per-atom subsets is a subset of
/// the join — so the returned bindings are always sound, and
/// [`PairSetResult::termination`] reports the first non-complete atom
/// outcome. One [`AtomStats`] record per atom lands in `stats.atoms` in
/// execution order, with the direction it ran (atoms never started after
/// the relation emptied are recorded with `direction: None` and zero
/// work).
pub fn execute_join<G: GraphView>(
    crpq: &Crpq,
    plan: &JoinPlan,
    graph: &G,
    heads: HeadBindings<'_>,
    control: &EvalControl<'_>,
    scratch: &mut EvalScratch,
) -> PairSetResult {
    let (order, n) = (&plan.order, crpq.atoms.len());
    assert_eq!(order.len(), n, "order must cover every atom");
    assert_eq!(plan.atoms.len(), n, "one plan per atom");
    let mut pruned = plan.atoms.iter().flat_map(|a| &a.record.pruned_symbols);
    debug_assert!(
        pruned.all(|&s| graph.stats().edge_count(s) == 0),
        "an atom plan pruned a label this graph has edges on"
    );
    let mut rel: Option<Relation> = None;
    let mut stats = EvalStats::default();
    let mut term = Termination::Complete;
    let sources = heads.sources.map(HeadSet::new);
    let targets = heads.targets.map(HeadSet::new);

    // Pre-bindings for head variables, consumed the first time the
    // variable joins the relation.
    let prebound = |v: Var| -> Option<&[Oid]> {
        if v == crpq.head.0 {
            sources.as_ref().map(|h| &*h.seeds)
        } else if v == crpq.head.1 {
            // When both head positions name one variable, `sources` (the
            // arm above) wins; the executor filters `targets` at the end.
            targets.as_ref().map(|h| &*h.seeds)
        } else {
            None
        }
    };
    // Bound candidates for one side of an atom, if any: the relation
    // column first (already join-restricted), else the request's head
    // binding.
    let bound_side = |rel: Option<&Relation>, v: Var| -> Option<Cow<'_, [Oid]>> {
        match rel.filter(|r| r.col(v).is_some()) {
            Some(r) => Some(Cow::Owned(r.distinct(v))),
            None => prebound(v).map(Cow::Borrowed),
        }
    };

    // Whether the request's source / target restriction seeded the atom
    // that first bound its head variable: every binding of the variable is
    // then in the set, so its residual filter has nothing to drop.
    let mut seeded = (false, false);
    // A statically empty atom empties the conjunction before any atom runs.
    let mut annihilated = plan.atoms.iter().any(|a| a.record.statically_empty);
    for (pos, &ai) in order.iter().enumerate() {
        if annihilated {
            // No binding can satisfy the query. Record the atoms left
            // unrun and finish.
            stats
                .atoms
                .extend(order[pos..].iter().map(|&atom| AtomStats {
                    atom,
                    direction: None,
                    edges_scanned: 0,
                    bindings: 0,
                }));
            break;
        }
        let atom = &crpq.atoms[ai];
        let atom_plan = &plan.atoms[ai];
        let (u, v) = (atom.src, atom.dst);
        for w in [u, v] {
            if rel.as_ref().is_none_or(|r| r.col(w).is_none()) {
                seeded.0 |= w == crpq.head.0 && sources.is_some();
                seeded.1 |= w == crpq.head.1 && w != crpq.head.0 && targets.is_some();
            }
        }
        let u_vals = bound_side(rel.as_ref(), u);
        // A self-loop atom binds one variable; it is evaluated via `u`.
        let v_vals = if u == v {
            None
        } else {
            bound_side(rel.as_ref(), v)
        };

        let per_atom = SearchOpts {
            control: EvalControl {
                budget: control
                    .budget
                    .map(|b| b.saturating_sub(stats.edges_scanned)),
                cancel: control.cancel,
            },
            ..SearchOpts::default()
        };
        let (mut res, dir) = search_bindings(
            atom_plan.query.nfa(),
            &|| atom_plan.query.reversed(),
            graph,
            u_vals.as_deref(),
            v_vals.as_deref(),
            &per_atom,
            scratch,
        );
        if !res.termination.is_complete() && term.is_complete() {
            term = res.termination;
        }
        // Self-loop atoms keep only reflexive bindings.
        if u == v {
            res.pairs.retain(|(s, t)| s == t);
        }

        stats.atoms.push(AtomStats {
            atom: ai,
            direction: Some(dir),
            edges_scanned: res.stats.edges_scanned,
            bindings: res.pairs.len(),
        });
        let mut atom_stats = res.stats;
        atom_stats.atoms.clear();
        atom_stats.answers = 0;
        stats.merge(&atom_stats);

        let mut r = join_step(rel.take(), &res.pairs, u, v);
        // Keep the relation narrow: only head variables and variables of
        // still-unexecuted atoms stay live.
        let mut live: Vec<Var> = vec![crpq.head.0, crpq.head.1];
        for &later in &order[pos + 1..] {
            live.extend(crpq.atom_vars(later));
        }
        r.project(&live);
        annihilated = r.len == 0;
        rel = Some(r);
    }

    // Project the final relation onto the head pair. A head column can be
    // absent only after an early annihilation (the relation emptied before
    // the atom binding it ran), in which case there are no rows anyway.
    // Sorted, distinct rows over exactly the head columns, in head order,
    // project onto strictly increasing pairs.
    let (mut pairs, in_order): (Vec<(Oid, Oid)>, bool) = match rel {
        Some(r) => match (r.col(crpq.head.0), r.col(crpq.head.1)) {
            (Some(c0), Some(c1)) => (
                r.rows().map(|row| (row[c0], row[c1])).collect(),
                r.vars == [crpq.head.0, crpq.head.1]
                    || (crpq.head.0 == crpq.head.1 && r.vars == [crpq.head.0]),
            ),
            _ => (Vec::new(), true),
        },
        None => (Vec::new(), true),
    };
    // Residual head filters, for a restriction that did not seed the atom
    // first binding its variable (`ans(x, x)` with both sets given filters
    // the targets).
    if let Some(ss) = sources.as_ref().filter(|_| !seeded.0) {
        pairs.retain(|(s, _)| ss.contains(s));
    }
    if let Some(ts) = targets.as_ref().filter(|_| !seeded.1) {
        pairs.retain(|(_, t)| ts.contains(t));
    }
    debug_assert!(
        sources
            .as_ref()
            .is_none_or(|ss| pairs.iter().all(|(s, _)| ss.contains(s)))
            && targets
                .as_ref()
                .is_none_or(|ts| pairs.iter().all(|(_, t)| ts.contains(t))),
        "a seeding head set bounds its variable's bindings"
    );
    if !in_order {
        pairs.sort_unstable();
        pairs.dedup();
    }
    debug_assert!(
        pairs.windows(2).all(|w| w[0] < w[1]),
        "head pairs are strictly increasing"
    );
    stats.answers = pairs.len();
    PairSetResult {
        pairs,
        stats,
        termination: term,
    }
}

/// Inert; deleted with ROADMAP 1(b): [`execute_join`] in `order`, on the
/// atom plans [`plan_join`] makes under `graph`'s statistics, with a
/// worker grant nothing spends and a frontier mode nothing reads — `mode`,
/// `dop` and `pool` are ignored (every atom's searches run on the calling
/// thread, one push sweep per level).
#[allow(clippy::too_many_arguments)]
pub fn execute_join_parallel<G: GraphView>(
    crpq: &Crpq,
    order: &[usize],
    graph: &G,
    heads: HeadBindings<'_>,
    _mode: FrontierMode,
    control: &EvalControl<'_>,
    _dop: usize,
    _pool: &ScratchPool,
    scratch: &mut EvalScratch,
) -> PairSetResult {
    let (src, dst) = (heads.sources.is_some(), heads.targets.is_some());
    let mut plan = plan_join(crpq, graph.stats(), &PlannerConfig::default(), src, dst);
    plan.order = order.to_vec();
    execute_join(crpq, &plan, graph, heads, control, scratch)
}

/// One join step: extend `rel` by the atom relation `pairs` over columns
/// `u` (pair sources) and `v` (pair targets). Handles every overlap shape:
/// both columns new (cross product against the neutral relation or a
/// genuine disconnected join), one shared column (each row extended from
/// a range lookup into the pairs, sorted by that column), both shared
/// (filter). `pairs` come sorted and distinct, as [`search_pairs`] returns
/// them, and reflexive when `u == v`; they are read as they come, and only
/// their swap `by_dst` is sorted. Rows come out sorted and distinct.
fn join_step(rel: Option<Relation>, pairs: &[(Oid, Oid)], u: Var, v: Var) -> Relation {
    debug_assert!(
        pairs.is_sorted_by(|a, b| a < b),
        "pairs sorted and distinct"
    );
    let self_loop = u == v;
    debug_assert!(!self_loop || pairs.iter().all(|(s, t)| s == t));
    let Some(rel) = rel else {
        // First atom: the relation IS the atom's bindings.
        let (vars, cells) = if self_loop {
            (vec![u], pairs.iter().map(|&(s, _)| s).collect())
        } else {
            (
                vec![u, v],
                pairs.iter().flat_map(|&(s, t)| [s, t]).collect(),
            )
        };
        return Relation {
            vars,
            cells,
            len: pairs.len(),
        };
    };
    let cu = rel.col(u);
    let cv = if self_loop { cu } else { rel.col(v) };
    let mut vars = rel.vars.clone();
    let mut cells = Vec::new();
    match (cu, cv) {
        (Some(cu), Some(cv)) => {
            // Both bound: the atom is a filter over existing columns.
            for row in rel.rows() {
                if pairs.binary_search(&(row[cu], row[cv])).is_ok() {
                    cells.extend_from_slice(row);
                }
            }
        }
        (Some(cu), None) => {
            // Extend each row by the targets its `u` value reaches.
            vars.push(v);
            extend_rows(&rel, cu, pairs, &mut cells);
        }
        (None, Some(cv)) => {
            // Extend each row by the sources reaching its `v` value.
            vars.push(u);
            let mut by_dst: Vec<(Oid, Oid)> = pairs.iter().map(|&(s, t)| (t, s)).collect();
            by_dst.sort_unstable();
            extend_rows(&rel, cv, &by_dst, &mut cells);
        }
        (None, None) => {
            // Disconnected: cross product (the planner avoids this shape
            // when the join graph is connected).
            vars.push(u);
            if !self_loop {
                vars.push(v);
            }
            for row in rel.rows() {
                for &(s, t) in pairs {
                    cells.extend_from_slice(row);
                    cells.push(s);
                    if !self_loop {
                        cells.push(t);
                    }
                }
            }
        }
    }
    let len = cells.len() / vars.len();
    Relation { vars, cells, len }
}

/// Append to `cells` every row of `rel` extended by each `b` with
/// `(row[col], b)` in `by_key` (sorted): one range lookup per row.
fn extend_rows(rel: &Relation, col: usize, by_key: &[(Oid, Oid)], cells: &mut Vec<Oid>) {
    for row in rel.rows() {
        let key = row[col];
        let from = by_key.partition_point(|&(k, _)| k < key);
        for &(_, b) in by_key[from..].iter().take_while(|&&(k, _)| k == key) {
            cells.extend_from_slice(row);
            cells.push(b);
        }
    }
}

/// The deliberately-unoptimized reference evaluation: every atom computed
/// independently with both variables free (no semijoin propagation, no
/// cost-based order — textual order), then joined by the `oracle` module's own
/// relation, which shares no code with [`execute_join`]'s. Used as the
/// correctness oracle by tests and as the no-propagation baseline by the
/// `t17_crpq` bench gate; returns the binding set plus the total edges
/// scanned.
pub fn execute_naive<G: GraphView>(
    crpq: &Crpq,
    graph: &G,
    heads: HeadBindings<'_>,
) -> (Vec<(Oid, Oid)>, usize) {
    let mut scratch = EvalScratch::new();
    let mut edges = 0usize;
    let mut rel: Option<oracle::Relation> = None;
    for atom in &crpq.atoms {
        let seeds = seed_candidates(atom.query.nfa(), graph, &mut scratch);
        let opts = SearchOpts::default();
        let res = search_pairs(atom.query.nfa(), graph, &seeds, None, &opts, &mut scratch);
        edges += res.stats.edges_scanned;
        let pairs: Vec<(Oid, Oid)> = if atom.src == atom.dst {
            res.pairs.iter().copied().filter(|(s, t)| s == t).collect()
        } else {
            res.pairs
        };
        rel = Some(oracle::join_step(rel, &pairs, atom.src, atom.dst));
    }
    let mut pairs: Vec<(Oid, Oid)> = match rel {
        Some(r) => {
            let c0 = r.col(crpq.head.0).expect("head var bound");
            let c1 = r.col(crpq.head.1).expect("head var bound");
            r.rows.iter().map(|row| (row[c0], row[c1])).collect()
        }
        None => Vec::new(),
    };
    if let Some(ss) = heads.sources {
        pairs.retain(|(s, _)| ss.contains(s));
    }
    if let Some(ts) = heads.targets {
        pairs.retain(|(_, t)| ts.contains(t));
    }
    pairs.sort_unstable();
    pairs.dedup();
    (pairs, edges)
}

/// The oracle's join: a `Vec` per row and a hash map per step — the
/// executor's own join until PR 25, kept as it was so that
/// [`execute_naive`] checks [`execute_join`] with code it does not share.
mod oracle {
    use std::collections::HashMap;

    use rpq_graph::Oid;

    use super::Var;

    /// An intermediate join relation: named columns over [`Oid`] rows.
    pub(super) struct Relation {
        pub(super) vars: Vec<Var>,
        pub(super) rows: Vec<Vec<Oid>>,
    }

    impl Relation {
        pub(super) fn col(&self, v: Var) -> Option<usize> {
            self.vars.iter().position(|&x| x == v)
        }
    }

    /// One hash-join step: extend `rel` by the atom relation `pairs` over
    /// columns `u` (pair sources) and `v` (pair targets). Handles every
    /// overlap shape: both columns new (cross product against the neutral
    /// relation or a genuine disconnected join), one shared column (indexed
    /// extension), both shared (filter).
    pub(super) fn join_step(
        rel: Option<Relation>,
        pairs: &[(Oid, Oid)],
        u: Var,
        v: Var,
    ) -> Relation {
        let self_loop = u == v;
        let rel = match rel {
            None => {
                // First atom: the relation IS the atom's bindings.
                let (vars, rows) = if self_loop {
                    (
                        vec![u],
                        pairs.iter().map(|&(s, _)| vec![s]).collect::<Vec<_>>(),
                    )
                } else {
                    (
                        vec![u, v],
                        pairs.iter().map(|&(s, t)| vec![s, t]).collect::<Vec<_>>(),
                    )
                };
                let mut r = Relation { vars, rows };
                r.rows.sort_unstable();
                r.rows.dedup();
                return r;
            }
            Some(r) => r,
        };
        let cu = rel.col(u);
        let cv = if self_loop { cu } else { rel.col(v) };
        match (cu, cv) {
            (Some(cu), Some(cv)) => {
                // Both bound: the atom is a filter over existing columns.
                let mut set: Vec<(Oid, Oid)> = pairs.to_vec();
                set.sort_unstable();
                let rows = rel
                    .rows
                    .into_iter()
                    .filter(|row| set.binary_search(&(row[cu], row[cv])).is_ok())
                    .collect();
                Relation {
                    vars: rel.vars,
                    rows,
                }
            }
            (Some(cu), None) => {
                // Extend each row by the targets its `u` value reaches.
                let mut by_src: HashMap<Oid, Vec<Oid>> = HashMap::new();
                for &(s, t) in pairs {
                    by_src.entry(s).or_default().push(t);
                }
                let mut vars = rel.vars;
                vars.push(v);
                let mut rows = Vec::new();
                for row in rel.rows {
                    if let Some(ts) = by_src.get(&row[cu]) {
                        for &t in ts {
                            let mut r2 = row.clone();
                            r2.push(t);
                            rows.push(r2);
                        }
                    }
                }
                Relation { vars, rows }
            }
            (None, Some(cv)) => {
                let mut by_dst: HashMap<Oid, Vec<Oid>> = HashMap::new();
                for &(s, t) in pairs {
                    by_dst.entry(t).or_default().push(s);
                }
                let mut vars = rel.vars;
                vars.push(u);
                let mut rows = Vec::new();
                for row in rel.rows {
                    if let Some(ss) = by_dst.get(&row[cv]) {
                        for &s in ss {
                            let mut r2 = row.clone();
                            r2.push(s);
                            rows.push(r2);
                        }
                    }
                }
                Relation { vars, rows }
            }
            (None, None) => {
                // Disconnected: cross product (the planner avoids this shape
                // when the join graph is connected).
                let mut vars = rel.vars;
                let mut rows = Vec::new();
                if self_loop {
                    vars.push(u);
                    for row in &rel.rows {
                        for &(s, _) in pairs {
                            let mut r2 = row.clone();
                            r2.push(s);
                            rows.push(r2);
                        }
                    }
                } else {
                    vars.push(u);
                    vars.push(v);
                    for row in &rel.rows {
                        for &(s, t) in pairs {
                            let mut r2 = row.clone();
                            r2.push(s);
                            r2.push(t);
                            rows.push(r2);
                        }
                    }
                }
                Relation { vars, rows }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_core::Direction;
    use rpq_graph::{CsrGraph, InstanceBuilder};

    fn chain_graph() -> (Alphabet, CsrGraph, std::collections::HashMap<String, Oid>) {
        // s -a-> m1 -b-> t1 ; s -a-> m2 -b-> t2 ; noise edges
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("s", "a", "m1");
        b.edge("s", "a", "m2");
        b.edge("m1", "b", "t1");
        b.edge("m2", "b", "t2");
        b.edge("t1", "c", "s");
        b.edge("x1", "a", "x2");
        b.edge("x2", "c", "x3");
        let (inst, names) = b.finish();
        (ab, CsrGraph::from(&inst), names)
    }

    #[test]
    fn parse_round_trips_structure() {
        let mut ab = Alphabet::new();
        let q = parse_crpq(&mut ab, "ans(x, z) :- x -[a]-> y, y -[b*]-> z").unwrap();
        assert_eq!(q.atoms.len(), 2);
        assert_eq!(q.num_vars(), 3);
        assert_eq!(q.var_name(q.head.0), "x");
        assert_eq!(q.var_name(q.head.1), "z");
        assert_eq!(q.atoms[0].src, q.head.0);
        assert_eq!(q.atoms[0].dst, q.atoms[1].src);
        assert_eq!(q.atoms[1].dst, q.head.1);
    }

    #[test]
    fn parse_snapshots_the_alphabet_once_per_text() {
        let mut ab = Alphabet::new();
        let q = parse_crpq(&mut ab, "ans(x, w) :- x -[a]-> y, y -[b*]-> z, z -[c]-> w").unwrap();
        for a in &q.atoms {
            assert!(Arc::ptr_eq(a.query.alphabet(), q.atoms[0].query.alphabet()));
        }
        // the snapshot holds every label of the text, the last atom's too
        assert!(q.atoms[0].query.alphabet().get("c").is_some());
    }

    #[test]
    fn parse_errors_carry_spans_into_the_original_text() {
        let mut ab = Alphabet::new();
        // error inside the SECOND atom body: span must land there
        let src = "ans(x, z) :- x -[a]-> y, y -[b**)]-> z";
        let err = parse_crpq(&mut ab, src).unwrap_err();
        let (start, _end) = err.span();
        let body_two = src.find("b**").unwrap();
        assert!(
            start >= body_two,
            "span {start} should point into the second atom body (≥ {body_two}): {err}"
        );

        let err = parse_crpq(&mut ab, "ans(x z) :- x -[a]-> z").unwrap_err();
        assert_eq!(err.span().0, "ans(x ".len(), "{err}"); // points at 'z'

        let err = parse_crpq(&mut ab, "ans(x, z) :- x -[a -> z").unwrap_err();
        assert!(err.message.contains("unterminated"), "{err}");

        let err = parse_crpq(&mut ab, "ans(x, w) :- x -[a]-> y").unwrap_err();
        assert!(err.message.contains("head variable 'w'"), "{err}");
    }

    #[test]
    fn two_atom_chain_joins_across_the_shared_variable() {
        let (mut ab, csr, _) = chain_graph();
        let q = parse_crpq(&mut ab, "ans(x, z) :- x -[a]-> y, y -[b]-> z").unwrap();
        let plan = plan_join(&q, csr.stats(), &PlannerConfig::default(), false, false);
        let mut scratch = EvalScratch::new();
        let res = execute_join(
            &q,
            &plan,
            &csr,
            HeadBindings::default(),
            &EvalControl::UNLIMITED,
            &mut scratch,
        );
        // s -a-> m1 -b-> t1 and s -a-> m2 -b-> t2; x1 -a-> x2 has no b
        assert_eq!(res.pairs.len(), 2);
        assert_eq!(res.stats.atoms.len(), 2);
        let (naive, _) = execute_naive(&q, &csr, HeadBindings::default());
        assert_eq!(res.pairs, naive);
    }

    #[test]
    fn every_order_agrees_with_the_naive_oracle() {
        let (mut ab, csr, _) = chain_graph();
        for text in [
            "ans(x, z) :- x -[a]-> y, y -[b]-> z",
            "ans(x, z) :- x -[a.b]-> y, y -[c]-> z",
            "ans(x, z) :- x -[(a+b)*]-> y, y -[c]-> z, z -[a]-> w",
            // cyclic join graph: z reaches back to x
            "ans(x, z) :- x -[a]-> y, y -[b]-> z, z -[c]-> x",
            // self-loop atom
            "ans(x, y) :- x -[a.b.c]-> x, x -[a]-> y",
        ] {
            let q = parse_crpq(&mut ab, text).unwrap();
            let (naive, _) = execute_naive(&q, &csr, HeadBindings::default());
            let plan = plan_join(&q, csr.stats(), &PlannerConfig::default(), false, false);
            let n = q.atoms.len();
            let mut orders: Vec<Vec<usize>> = vec![(0..n).collect(), (0..n).rev().collect()];
            if n >= 3 {
                orders.push(vec![1, 0, 2]);
                orders.push(vec![2, 0, 1]);
            }
            for order in orders {
                let mut scratch = EvalScratch::new();
                let res = execute_join(
                    &q,
                    &JoinPlan {
                        order: order.clone(),
                        ..plan.clone()
                    },
                    &csr,
                    HeadBindings::default(),
                    &EvalControl::UNLIMITED,
                    &mut scratch,
                );
                assert_eq!(res.pairs, naive, "{text} order {order:?}");
                assert_eq!(res.stats.atoms.len(), n, "{text} order {order:?}");
            }
        }
    }

    #[test]
    fn head_bindings_restrict_and_seed_the_join() {
        let (mut ab, csr, names) = chain_graph();
        let s = names["s"];
        let q = parse_crpq(&mut ab, "ans(x, z) :- x -[a]-> y, y -[b]-> z").unwrap();
        let sources = [s];
        let mut scratch = EvalScratch::new();
        let plan = plan_join(&q, csr.stats(), &PlannerConfig::default(), true, false);
        let res = execute_join(
            &q,
            &plan,
            &csr,
            HeadBindings {
                sources: Some(&sources),
                targets: None,
            },
            &EvalControl::UNLIMITED,
            &mut scratch,
        );
        let (naive, _) = execute_naive(
            &q,
            &csr,
            HeadBindings {
                sources: Some(&sources),
                targets: None,
            },
        );
        assert_eq!(res.pairs, naive);
        assert!(res.pairs.iter().all(|&(x, _)| x == s));
        assert_eq!(res.pairs.len(), 2);
    }

    #[test]
    fn planner_prefers_the_rare_atom_and_binds_forward_from_it() {
        let (mut ab, csr, _) = chain_graph();
        // 'c' has 2 edges, 'a' has 3: the planner should start at the
        // c-atom and run the a-atom backward from its bound target side.
        let q = parse_crpq(&mut ab, "ans(x, z) :- x -[a]-> y, y -[c]-> z").unwrap();
        let plan = plan_join(&q, csr.stats(), &PlannerConfig::default(), false, false);
        assert_eq!(plan.order, vec![1, 0], "rare atom first");
        assert!(plan.est_costs[1] <= plan.est_costs[0]);
        let control = &EvalControl::UNLIMITED;
        let heads = HeadBindings::default();
        let res = execute_join(&q, &plan, &csr, heads, control, &mut EvalScratch::new());
        let ran: Vec<_> = res
            .stats
            .atoms
            .iter()
            .map(|a| (a.atom, a.direction))
            .collect();
        assert_eq!(
            ran,
            [
                (1, Some(Direction::Forward)),
                (0, Some(Direction::Backward))
            ]
        );
    }

    #[test]
    fn budget_exhaustion_yields_a_sound_subset() {
        let (mut ab, csr, _) = chain_graph();
        let q = parse_crpq(&mut ab, "ans(x, z) :- x -[a]-> y, y -[b]-> z").unwrap();
        let (full, _) = execute_naive(&q, &csr, HeadBindings::default());
        let plan = plan_join(&q, csr.stats(), &PlannerConfig::default(), false, false);
        for budget in 0..16 {
            let mut scratch = EvalScratch::new();
            let control = EvalControl {
                budget: Some(budget),
                cancel: None,
            };
            let res = execute_join(
                &q,
                &plan,
                &csr,
                HeadBindings::default(),
                &control,
                &mut scratch,
            );
            assert!(res.stats.edges_scanned <= budget, "budget {budget}");
            for p in &res.pairs {
                assert!(full.contains(p), "unsound binding {p:?} at budget {budget}");
            }
            if res.termination.is_complete() {
                assert_eq!(res.pairs, full, "complete run must be exact");
            }
        }
    }

    /// A row set in a canonical form: sorted, each row once.
    fn row_set(rows: impl Iterator<Item = Vec<Oid>>) -> Vec<Vec<Oid>> {
        let mut rows: Vec<Vec<Oid>> = rows.collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// Whether `r`'s rows are sorted and distinct, as the executor keeps
    /// every relation.
    fn sorted_and_distinct(r: &Relation) -> bool {
        r.rows().zip(r.rows().skip(1)).all(|(a, b)| a < b)
    }

    /// Chains of 1–7 flat join steps over random relations bind exactly
    /// what the oracle's `Vec`-per-row join binds, step after step: first
    /// atoms, self-loop atoms, closing atoms with both ends bound, atoms
    /// sharing one end, disconnected atoms (cross products) and atoms that
    /// empty the relation — each shape checked on hundreds of chains. The
    /// pairs come as `search_pairs` returns them: sorted, distinct, and
    /// reflexive for a self-loop. After a step the relation may drop one or
    /// two random columns, as the executor drops dead ones, and the
    /// projection keeps the oracle's bindings; over up to 7 variables each
    /// of 0–6 kept columns is reached on dozens of chains. Half the chains
    /// draw oids from `0..4`, half from four values spread over the whole
    /// `u32` range, three of them equal in their low 16 bits. Every
    /// relation, joined or projected, is sorted and distinct.
    #[test]
    fn flat_join_steps_bind_like_the_oracle() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};

        const SHAPES: [&str; 6] = [
            "first",
            "self-loop",
            "closing",
            "one end",
            "cross",
            "emptied",
        ];
        let mut seen = [0usize; 6];
        let mut kept = [0usize; 7];
        for seed in 0..4000u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let pool: [u32; 4] = if seed % 2 == 0 {
                [0, 1, 2, 3]
            } else {
                let x: u32 = rng.random();
                [x, x ^ (1 << 16), x ^ (1 << 31), rng.random()]
            };
            let (mut flat, mut naive): (Option<Relation>, Option<oracle::Relation>) = (None, None);
            for _ in 0..rng.random_range(1..=7usize) {
                // Half the sources are new to the relation, so that it grows
                // wide.
                let fresh = (0..7)
                    .map(Var)
                    .find(|&x| flat.as_ref().is_none_or(|r| r.col(x).is_none()));
                let u = match fresh {
                    Some(x) if rng.random_bool(0.5) => x,
                    _ => Var(rng.random_range(0..7)),
                };
                let v = if rng.random_range(0..4) == 0 {
                    u
                } else {
                    Var(rng.random_range(0..7))
                };
                let n = rng.random_range(0..10);
                let mut oid = || Oid(pool[rng.random_range(0..4)]);
                let mut pairs: Vec<(Oid, Oid)> = (0..n)
                    .map(|_| {
                        let s = oid();
                        (s, if u == v { s } else { oid() })
                    })
                    .collect();
                pairs.sort_unstable();
                pairs.dedup();
                let shape = match flat.as_ref() {
                    None => 0,
                    Some(_) if u == v => 1,
                    Some(r) => match (r.col(u).is_some(), r.col(v).is_some()) {
                        (true, true) => 2,
                        (false, false) => 4,
                        _ => 3,
                    },
                };
                seen[shape] += 1;
                let before = flat.as_ref().map_or(0, |r| r.len);

                let mut f = join_step(flat.take(), &pairs, u, v);
                let mut o = oracle::join_step(naive.take(), &pairs, u, v);
                seen[5] += usize::from(before > 0 && f.len == 0);
                assert_eq!(f.vars, o.vars, "seed {seed}");
                assert_eq!(
                    row_set(f.rows().map(<[Oid]>::to_vec)),
                    row_set(o.rows.iter().cloned()),
                    "seed {seed}: {:?} -[{pairs:?}]-> {:?}",
                    u,
                    v
                );
                assert!(sorted_and_distinct(&f), "seed {seed}: joined");

                if rng.random_bool(0.5) {
                    let mut keep = f.vars.clone();
                    keep.shuffle(&mut rng);
                    let dropped = rng.random_range(1..=f.vars.len().min(2));
                    keep.truncate(f.vars.len() - dropped);
                    let cols: Vec<usize> = (0..o.vars.len())
                        .filter(|&i| keep.contains(&o.vars[i]))
                        .collect();
                    f.project(&keep);
                    o.rows = o
                        .rows
                        .iter()
                        .map(|row| cols.iter().map(|&c| row[c]).collect())
                        .collect();
                    o.vars = cols.iter().map(|&c| o.vars[c]).collect();
                    kept[keep.len()] += 1;
                    assert_eq!(f.vars, o.vars, "seed {seed}");
                    assert_eq!(
                        row_set(f.rows().map(<[Oid]>::to_vec)),
                        row_set(o.rows.iter().cloned()),
                        "seed {seed}: projected onto {keep:?}"
                    );
                    assert!(sorted_and_distinct(&f), "seed {seed}: projected");
                }
                (flat, naive) = (Some(f), Some(o));
            }
        }
        for (shape, n) in SHAPES.iter().zip(seen) {
            assert!(n >= 200, "only {n} {shape} steps");
        }
        println!("shapes {seen:?}, projections by kept columns: {kept:?}");
        for (k, n) in kept.into_iter().enumerate() {
            assert!(n >= 20, "only {n} projections keep {k} columns");
        }
    }

    /// A head binding that names an oid twice searches it once: the request
    /// scans exactly the edges of the deduplicated request and binds the
    /// same pairs, whichever end the repeats are on.
    #[test]
    fn duplicated_head_bindings_scan_like_the_deduplicated_request() {
        let (mut ab, csr, names) = chain_graph();
        let (s, m1, t1, t2) = (names["s"], names["m1"], names["t1"], names["t2"]);
        let q = parse_crpq(&mut ab, "ans(x, z) :- x -[a]-> y, y -[b]-> z").unwrap();
        let run = |sources: Option<&[Oid]>, targets: Option<&[Oid]>| {
            let heads = HeadBindings { sources, targets };
            let (src, dst) = (sources.is_some(), targets.is_some());
            let plan = plan_join(&q, csr.stats(), &PlannerConfig::default(), src, dst);
            let mut scratch = EvalScratch::new();
            let control = &EvalControl::UNLIMITED;
            execute_join(&q, &plan, &csr, heads, control, &mut scratch)
        };
        for (dup, once) in [
            ((Some(&[s, m1, s, s][..]), None), (Some(&[s, m1][..]), None)),
            ((None, Some(&[t2, t1, t2][..])), (None, Some(&[t2, t1][..]))),
            (
                (Some(&[s, s][..]), Some(&[t1, t1, t2][..])),
                (Some(&[s][..]), Some(&[t1, t2][..])),
            ),
        ] {
            let (dup, once) = (run(dup.0, dup.1), run(once.0, once.1));
            assert!(!once.pairs.is_empty());
            assert_eq!(dup.pairs, once.pairs);
            assert_eq!(dup.stats.edges_scanned, once.stats.edges_scanned);
            assert_eq!(dup.stats.atoms, once.stats.atoms);
        }
    }
}
