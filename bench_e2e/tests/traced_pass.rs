//! A real traced pass: the span tree of every op hangs together, and its
//! self times give back its root span.

use std::collections::BTreeMap;
use std::time::Instant;

use bench_e2e::harness::{cold_build, fresh_serving, Env};
use bench_e2e::replay::run_traced_pass;
use bench_e2e::sched::Workload;
use bench_e2e::trace::{self_time_by_name, self_times_ns, NO_PARENT};

#[test]
fn self_times_of_each_traced_op_sum_to_its_root_span() {
    // plan-cold: every op misses the memo, so every op has the deepest
    // tree (parse, plan → analyze → certify → closure, run_sync → core.run).
    let env = Env::new(Workload::PlanCold, 5);
    let (serving, _) = cold_build(&env);
    let fresh = fresh_serving(&env, &serving);
    let pass = run_traced_pass(&env, &fresh, Instant::now());
    let spans = &pass.spans;
    assert_eq!(pass.counts.ops as usize, env.schedule.ops.len());
    assert_eq!(pass.counts.plan_hits, 0, "an empty memo serves no plan");

    let selfs = self_times_ns(spans);
    let mut root_of_op: BTreeMap<u32, u64> = BTreeMap::new();
    let mut self_of_op: BTreeMap<u32, u64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(&selfs) {
        if s.parent == NO_PARENT {
            assert_eq!(s.name, "server.submit_join");
            assert!(
                root_of_op.insert(s.op, s.dur_ns()).is_none(),
                "one root per op"
            );
        } else {
            let parent = &spans[s.parent as usize];
            assert_eq!(parent.op, s.op, "a child belongs to its parent's op");
        }
        *self_of_op.entry(s.op).or_insert(0) += own;
    }
    assert_eq!(root_of_op.len(), env.schedule.ops.len());
    for (op, root) in &root_of_op {
        // Equal unless a replayed child outran its real parent and was
        // clamped, in which case the selfs can only exceed the root.
        assert!(self_of_op[op] >= *root, "op {op}");
    }
    let exact = root_of_op
        .iter()
        .filter(|(op, root)| self_of_op[*op] == **root)
        .count();
    assert!(
        exact * 2 > root_of_op.len(),
        "most ops need no clamping: {exact} of {}",
        root_of_op.len()
    );
    // Per name, over the pass, the selfs give back the roots exactly.
    let roots: u64 = root_of_op.values().sum();
    let by_name: u64 = self_time_by_name(spans).values().sum();
    assert!(
        by_name >= roots && (by_name - roots) as f64 <= 0.10 * roots as f64,
        "layer self times {by_name} vs root spans {roots}"
    );
}
