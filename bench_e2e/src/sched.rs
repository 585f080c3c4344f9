//! The four workloads, each a seeded, fixed **op schedule**.
//!
//! A schedule is generated once per run from the seed and replayed
//! verbatim as a *pass*; every pass of a run therefore does the same work,
//! and per-pass values are identically distributed. The program under test
//! sees only texts, request shapes and deltas — never the seed.
//!
//! Op counts are constants chosen so that a pass is 80–200 ms on the
//! reference machine (2 vCPU). They are *not* calibrated at run time: a
//! calibration loop would make two runs of the same code measure different
//! work.

use rpq_automata::Symbol;
use rpq_core::SourceSpec;
use rpq_graph::{CsrGraph, EdgeDelta, Oid};

use crate::gen::{Rng, World};

/// The benchmark's workloads, in `BENCHMARK.json` order.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    NavPoint,
    KernelScan,
    PlanCold,
    ChurnMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::NavPoint,
        Workload::KernelScan,
        Workload::PlanCold,
        Workload::ChurnMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NavPoint => "nav-point",
            Workload::KernelScan => "kernel-scan",
            Workload::PlanCold => "plan-cold",
            Workload::ChurnMixed => "churn-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops per *slice*: the stretch of a pass between two clock probes (see
    /// `clock.rs`), about a millisecond of work — long against the ~7 µs a
    /// probe takes, short against the 50 ms the core clock holds at least.
    /// A `kernel-scan` op (0.2–18 ms) is a slice of its own.
    pub fn slice_ops(self) -> usize {
        match self {
            Workload::NavPoint => 50,
            Workload::KernelScan => 1,
            Workload::PlanCold => 8,
            Workload::ChurnMixed => 40,
        }
    }

    /// Does every pass start from a fresh `Server` (empty plan memo)?
    pub fn fresh_server_per_pass(self) -> bool {
        matches!(self, Workload::PlanCold | Workload::ChurnMixed)
    }
}

/// Op classes: the unit the per-class latency medians are reported in.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Class {
    Point,
    Closure,
    Targets,
    Sources,
    Matrix,
    Pair,
    Crpq,
    Commit,
}

impl Class {
    pub const ALL: [Class; 8] = [
        Class::Point,
        Class::Closure,
        Class::Targets,
        Class::Sources,
        Class::Matrix,
        Class::Pair,
        Class::Crpq,
        Class::Commit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Closure => "closure",
            Class::Targets => "targets",
            Class::Sources => "sources",
            Class::Matrix => "matrix",
            Class::Pair => "pair",
            Class::Crpq => "crpq",
            Class::Commit => "commit",
        }
    }

    pub fn index(self) -> usize {
        Class::ALL
            .iter()
            .position(|&c| c == self)
            .expect("listed in ALL")
    }
}

/// One read: a query text and a request shape.
#[derive(Clone, Debug)]
pub struct QueryOp {
    /// Index into [`Schedule::texts`].
    pub text: usize,
    pub spec: SourceSpec,
    pub class: Class,
    /// Step on the wide ladder (0..4) for wide closures.
    pub wide: Option<usize>,
}

#[derive(Clone, Debug)]
pub enum Op {
    Query(QueryOp),
    /// `Catalog::commit(delta)` followed by `Session::refresh`.
    Commit(EdgeDelta),
}

pub struct Schedule {
    pub workload: Workload,
    pub texts: Vec<String>,
    pub ops: Vec<Op>,
    /// FNV-1a over every text, request and delta, in order.
    pub hash: u64,
}

/// Reads per `nav-point` pass (≈ 23 µs each).
pub const NAV_OPS: usize = 4000;
/// Reads per `churn-mixed` pass: a prefix of the `nav-point` schedule, a
/// whole number of both 8-read pattern blocks and 7-read commit groups.
pub const CHURN_READS: usize = 1064;
/// A commit follows every this many reads, so every 8th op is a commit.
pub const READS_PER_COMMIT: usize = 7;
/// Per commit: rows that reads of the next group end on which gain edges …
pub const DELTA_ADD_ROWS: usize = 3;
/// … this many each …
pub const DELTA_ADDS_PER_ROW: usize = 2;
/// … such rows whose base edge is tombstoned …
pub const DELTA_TOMBSTONES: usize = 1;
/// … and edges added three commits earlier (their reads are over by then)
/// taken out again. Four rows per commit is fewer than the 4.4 eligible
/// reads a group of seven holds, so the writer never runs ahead of the
/// reader.
pub const DELTA_UNDOS: usize = 2;
/// The overlay log grows by 5 entries per commit and a pass has 152
/// commits; compacting at 400 entries makes every pass cross exactly one
/// compaction, a little past its middle.
pub const CHURN_MIN_LOG_LEN: usize = 400;

/// Navigation shapes over label *roles* (`a..f`). Roles `a..d` are
/// constrained (`c0 = a.b`, `c1 = c.d`, `c2 ⊆ b.c`), `e` and `f` are free.
/// Planned edge counts: 2 3 2 2 2 1 3 3 → 2.25 edges per op (`b.c.d` is
/// not rewritten: the cache substitution only replaces a prefix).
const NAV_PATTERNS: [&str; 8] = [
    "a.b.e", "b.c.f", "c.d.e", "a.b.c", "e.f", "a.b", "b.c.d", "e.a.f",
];

/// `z+w` arms of the union shapes of `plan-cold`.
const UNION_ARMS: [&str; 5] = ["a+e", "b+f", "c+e", "d+f", "e+f"];

/// Ops of each class per `kernel-scan` pass. The six sequential classes get
/// about 14 ms each; the wide closures are 15 of 201 slots, laid out so
/// that the per-pass p95 (the 191st of 201 latencies) falls inside the
/// nine closures of the first ladder step, not on a boundary between steps.
const SCAN_CLOSURES: usize = 45;
const SCAN_PAIRS: usize = 45;
const SCAN_TARGETS: usize = 22;
const SCAN_SOURCES: usize = 22;
const SCAN_MATRICES: usize = 22;
const SCAN_CRPQS: usize = 30;
const SCAN_WIDE: [usize; 4] = [9, 2, 2, 2];
/// Head sources of a conjunctive op.
const CRPQ_SOURCES: usize = 6;
const CRPQ_TEXT: &str = "ans(x,z) :- x -[p.p]-> y, y -[q+t]-> w, w -[p]-> z";

fn role_text(world: &World, pattern: &str) -> String {
    pattern
        .chars()
        .map(|ch| match ch {
            'a'..='f' => world
                .alphabet
                .name(world.labels.f[ch as usize - 'a' as usize])
                .to_string(),
            other => other.to_string(),
        })
        .collect()
}

fn role_symbols(world: &World, pattern: &str) -> Vec<Symbol> {
    pattern
        .chars()
        .filter(|c| c.is_ascii_lowercase())
        .map(|c| world.labels.f[c as usize - 'a' as usize])
        .collect()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn oids(&mut self, tag: u8, oids: &[Oid]) {
        self.bytes(&[tag]);
        for o in oids {
            self.bytes(&o.0.to_le_bytes());
        }
    }

    fn triples(&mut self, tag: u8, ts: &[(Oid, Symbol, Oid)]) {
        self.bytes(&[tag]);
        for (f, l, t) in ts {
            self.bytes(&f.0.to_le_bytes());
            self.bytes(&(l.index() as u32).to_le_bytes());
            self.bytes(&t.0.to_le_bytes());
        }
    }
}

fn schedule_hash(texts: &[String], ops: &[Op]) -> u64 {
    let mut h = Fnv::new();
    for t in texts {
        h.bytes(t.as_bytes());
        h.bytes(&[0]);
    }
    for op in ops {
        match op {
            Op::Query(q) => {
                h.bytes(&(q.text as u32).to_le_bytes());
                match &q.spec {
                    SourceSpec::Source(s) => h.oids(1, &[*s]),
                    SourceSpec::Sources(ss) => h.oids(2, ss),
                    SourceSpec::Target(t) => h.oids(3, &[*t]),
                    SourceSpec::Targets(ts) => h.oids(4, ts),
                    SourceSpec::Pair { source, target } => h.oids(5, &[*source, *target]),
                    SourceSpec::Matrix { sources, targets } => {
                        h.oids(6, sources);
                        h.oids(7, targets);
                    }
                    SourceSpec::Conjunctive { sources, targets } => {
                        h.oids(8, sources.as_deref().unwrap_or(&[]));
                        h.oids(9, targets.as_deref().unwrap_or(&[]));
                    }
                }
            }
            Op::Commit(d) => {
                h.triples(10, &d.adds);
                h.triples(11, &d.dels);
            }
        }
    }
    h.0
}

fn finish(workload: Workload, texts: Vec<String>, ops: Vec<Op>) -> Schedule {
    let hash = schedule_hash(&texts, &ops);
    Schedule {
        workload,
        texts,
        ops,
        hash,
    }
}

/// The shared read list of `nav-point` and `churn-mixed`: blocks of the
/// eight patterns, each block in its own seeded order, from seeded
/// sources. Any whole number of blocks holds every pattern equally often,
/// so a prefix scans the same number of edges on every seed.
fn nav_reads(world: &World) -> Vec<QueryOp> {
    let rng = Rng::new(world.seed);
    let mut order = rng.fork(10);
    let mut texts: Vec<usize> = (0..NAV_OPS).map(|i| i % NAV_PATTERNS.len()).collect();
    for block in texts.chunks_mut(NAV_PATTERNS.len()) {
        order.shuffle(block);
    }
    let mut src = rng.fork(11);
    texts
        .into_iter()
        .map(|text| QueryOp {
            text,
            spec: SourceSpec::Source(world.nav.pick(&mut src)),
            class: Class::Point,
            wide: None,
        })
        .collect()
}

fn nav_texts(world: &World) -> Vec<String> {
    NAV_PATTERNS.iter().map(|p| role_text(world, p)).collect()
}

fn nav_point(world: &World) -> Schedule {
    let ops = nav_reads(world).into_iter().map(Op::Query).collect();
    finish(Workload::NavPoint, nav_texts(world), ops)
}

/// The node a navigation stands on before its last step, and that step's
/// label — `None` unless the last step is over a free role (`e`/`f`), the
/// only labels deltas touch (so every constraint keeps holding).
fn last_step_row(
    world: &World,
    base: &CsrGraph,
    pattern: &str,
    source: Oid,
) -> Option<(Oid, Symbol)> {
    if !pattern.ends_with(['e', 'f']) {
        return None;
    }
    let syms = role_symbols(world, pattern);
    let (&last, prefix) = syms.split_last().expect("patterns are non-empty");
    let mut at = source;
    for &sym in prefix {
        at = *base.out(at, sym).first()?;
    }
    Some((at, last))
}

fn churn_mixed(world: &World, base: &CsrGraph) -> Schedule {
    let reads: Vec<QueryOp> = nav_reads(world).into_iter().take(CHURN_READS).collect();
    let mut rng = Rng::new(world.seed).fork(20);
    let mut ops: Vec<Op> = Vec::with_capacity(reads.len() + reads.len() / READS_PER_COMMIT);
    let mut cursor = 0usize;
    let mut added: Vec<Vec<(Oid, Symbol, Oid)>> = Vec::new();
    for (i, read) in reads.iter().enumerate() {
        ops.push(Op::Query(read.clone()));
        if (i + 1) % READS_PER_COMMIT != 0 {
            continue;
        }
        // Rows the next few reads end on: writes land where reads go, so
        // reads cross the overlay instead of bypassing it.
        cursor = cursor.max(i + 1);
        let mut rows: Vec<(Oid, Symbol)> = Vec::new();
        while rows.len() < DELTA_ADD_ROWS + DELTA_TOMBSTONES && cursor < reads.len() {
            let r = &reads[cursor];
            if let SourceSpec::Source(s) = r.spec {
                rows.extend(last_step_row(world, base, NAV_PATTERNS[r.text], s));
            }
            cursor += 1;
        }
        let mut delta = EdgeDelta::new();
        let mut adds = Vec::new();
        for (k, &(row, label)) in rows.iter().enumerate() {
            if k < DELTA_ADD_ROWS {
                for _ in 0..DELTA_ADDS_PER_ROW {
                    let to = world.nav.pick(&mut rng);
                    delta.add(row, label, to);
                    adds.push((row, label, to));
                }
            } else if let Some(&to) = base.out(row, label).first() {
                delta.del(row, label, to);
            }
        }
        if let Some(old) = added.len().checked_sub(3).map(|k| &added[k]) {
            for &(f, l, t) in old.iter().take(DELTA_UNDOS) {
                delta.del(f, l, t);
            }
        }
        added.push(adds);
        ops.push(Op::Commit(delta));
    }
    finish(Workload::ChurnMixed, nav_texts(world), ops)
}

fn plan_cold(world: &World) -> Schedule {
    // Every ordered triple of roles, and every `x.y.(z+w)` over five fixed
    // arms: 216 + 180 = 396 distinct texts whose *shapes* are the same on
    // every seed (the seed permutes which label plays which role).
    let roles = ['a', 'b', 'c', 'd', 'e', 'f'];
    let mut patterns: Vec<String> = Vec::new();
    for x in roles {
        for y in roles {
            for z in roles {
                patterns.push(format!("{x}.{y}.{z}"));
            }
            for arm in UNION_ARMS {
                patterns.push(format!("{x}.{y}.({arm})"));
            }
        }
    }
    let rng = Rng::new(world.seed);
    let mut order: Vec<usize> = (0..patterns.len()).collect();
    rng.fork(30).shuffle(&mut order);
    let mut src = rng.fork(31);
    let ops = order
        .into_iter()
        .map(|text| {
            Op::Query(QueryOp {
                text,
                spec: SourceSpec::Source(world.nav.pick(&mut src)),
                class: Class::Point,
                wide: None,
            })
        })
        .collect();
    let texts = patterns.iter().map(|p| role_text(world, p)).collect();
    finish(Workload::PlanCold, texts, ops)
}

fn kernel_scan(world: &World, base: &CsrGraph) -> Schedule {
    let texts: Vec<String> = ["r*", "r.r*", CRPQ_TEXT]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let (star, plus, crpq) = (0usize, 1usize, 2usize);
    let mut rng = Rng::new(world.seed).fork(40);
    let mut ops: Vec<QueryOp> = Vec::new();
    let r = world.labels.r;
    for i in 0..SCAN_CLOSURES {
        ops.push(QueryOp {
            text: if i % 3 == 2 { plus } else { star },
            spec: SourceSpec::Source(world.small[i % world.small.len()].pick(&mut rng)),
            class: Class::Closure,
            wide: None,
        });
    }
    for i in 0..SCAN_PAIRS {
        let n = world.small.len();
        let source = world.small[i % n].pick(&mut rng);
        // One pair in nine is two `r` steps apart (found early); the rest
        // cross regions, so the search exhausts the source's region.
        let target = if i % 9 == 8 {
            let mid = base.out(source, r)[0];
            base.out(mid, r)[0]
        } else {
            world.small[(i + 1) % n].pick(&mut rng)
        };
        ops.push(QueryOp {
            text: star,
            spec: SourceSpec::Pair { source, target },
            class: Class::Pair,
            wide: None,
        });
    }
    let one_per_region = |regions: &[crate::gen::Region], rng: &mut Rng| -> Vec<Oid> {
        regions.iter().map(|reg| reg.pick(rng)).collect()
    };
    for _ in 0..SCAN_TARGETS {
        ops.push(QueryOp {
            text: plus,
            spec: SourceSpec::Targets(one_per_region(&world.mini, &mut rng)),
            class: Class::Targets,
            wide: None,
        });
    }
    for _ in 0..SCAN_SOURCES {
        ops.push(QueryOp {
            text: star,
            spec: SourceSpec::Sources(one_per_region(&world.mini, &mut rng)),
            class: Class::Sources,
            wide: None,
        });
    }
    for _ in 0..SCAN_MATRICES {
        // Row i and column i share a region: the diagonal is reachable.
        ops.push(QueryOp {
            text: star,
            spec: SourceSpec::Matrix {
                sources: one_per_region(&world.tiny, &mut rng),
                targets: one_per_region(&world.tiny, &mut rng),
            },
            class: Class::Matrix,
            wide: None,
        });
    }
    for _ in 0..SCAN_CRPQS {
        let sources = (0..CRPQ_SOURCES)
            .map(|_| world.join.pick(&mut rng))
            .collect();
        ops.push(QueryOp {
            text: crpq,
            spec: SourceSpec::Sources(sources),
            class: Class::Crpq,
            wide: None,
        });
    }
    for (step, &count) in SCAN_WIDE.iter().enumerate() {
        for _ in 0..count {
            ops.push(QueryOp {
                text: star,
                spec: SourceSpec::Source(world.wide[step].pick(&mut rng)),
                class: Class::Closure,
                wide: Some(step),
            });
        }
    }
    rng.shuffle(&mut ops);
    finish(
        Workload::KernelScan,
        texts,
        ops.into_iter().map(Op::Query).collect(),
    )
}

impl Schedule {
    pub fn generate(workload: Workload, world: &World, base: &CsrGraph) -> Schedule {
        match workload {
            Workload::NavPoint => nav_point(world),
            Workload::KernelScan => kernel_scan(world, base),
            Workload::PlanCold => plan_cold(world),
            Workload::ChurnMixed => churn_mixed(world, base),
        }
    }

    pub fn query_ops(&self) -> impl Iterator<Item = &QueryOp> {
        self.ops.iter().filter_map(|op| match op {
            Op::Query(q) => Some(q),
            Op::Commit(_) => None,
        })
    }

    /// One representative request per distinct text, in text order — what
    /// a cold build executes once ("first execution of every query text").
    pub fn first_use_of_each_text(&self) -> Vec<&QueryOp> {
        let mut firsts: Vec<Option<&QueryOp>> = vec![None; self.texts.len()];
        for q in self.query_ops() {
            if firsts[q.text].is_none() {
                firsts[q.text] = Some(q);
            }
        }
        firsts.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedules(seed: u64) -> Vec<Schedule> {
        let world = World::generate(seed);
        let base = world.csr();
        Workload::ALL
            .into_iter()
            .map(|w| Schedule::generate(w, &world, &base))
            .collect()
    }

    #[test]
    fn same_seed_same_hash_different_seed_different_hash() {
        let (a, b, c) = (schedules(7), schedules(7), schedules(8));
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(x.hash, y.hash, "{}", x.workload.name());
            assert_ne!(x.hash, z.hash, "{}", x.workload.name());
        }
    }

    #[test]
    fn schedules_have_the_documented_shape() {
        let s = schedules(3);
        assert_eq!(s[0].ops.len(), NAV_OPS);
        assert_eq!(s[1].ops.len(), 201);
        assert!(s[2].ops.len() >= 200 && s[2].texts.len() == s[2].ops.len());
        let commits = s[3]
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Commit(_)))
            .count();
        assert_eq!(commits, CHURN_READS / READS_PER_COMMIT);
        for (i, op) in s[3].ops.iter().enumerate() {
            assert_eq!(
                matches!(op, Op::Commit(_)),
                i % (READS_PER_COMMIT + 1) == READS_PER_COMMIT,
                "every 8th op is a commit"
            );
        }
        // churn reads are the nav-point reads, in order
        let nav: Vec<&QueryOp> = s[0].query_ops().collect();
        for (c, n) in s[3].query_ops().zip(nav) {
            assert_eq!((c.text, &c.spec), (n.text, &n.spec));
        }
        // every schedule keeps >= 10 samples beyond its p95
        for sch in &s {
            assert!(sch.ops.len() >= 200, "{}", sch.workload.name());
        }
        // wide closures: 15 of 201, nine on the first ladder step
        let wide: Vec<usize> = s[1].query_ops().filter_map(|q| q.wide).collect();
        assert_eq!(wide.len(), 15);
        assert_eq!(wide.iter().filter(|&&w| w == 0).count(), 9);
    }
}
