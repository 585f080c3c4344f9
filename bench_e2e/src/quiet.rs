//! The run-level estimator: every unit of work's **quiet value**.
//!
//! A schedule is replayed a few hundred times, so a run holds a few hundred
//! samples of every *unit*: the latency of op 17, the wall time of slice 3,
//! the CPU time of slice 3. Each sample is first brought to the reference
//! clock (`clock.rs`). What is left after that is contention: the host's
//! other guests evict the caches this guest shares with them and take its
//! memory bandwidth, in episodes of seconds, and a sample taken during one
//! is 1.2–2× the sample taken beside it. A unit's quiet value is the
//! [`QUIET_QUANTILE`] of its samples — the lowest fiftieth: what the unit
//! costs when the machine is the program's own, which is the one state of
//! the host that every run sees and that means the same thing in each.
//! The metrics are then built from quiet values the way they would be from
//! one undisturbed pass: the percentiles of the ops' latencies, the sum of
//! the slices' times.
//!
//! The median across passes of raw per-pass values, which this replaces,
//! differed by 13–30 % between runs of the same code on the same machine;
//! README.md has both sets of numbers.

use crate::clock::Bracket;
use crate::harness::Pass;
use crate::stats::percentile;

/// A unit's quiet value is this quantile (nearest rank) of its samples:
/// the 3rd smallest of 110 (`kernel-scan`), the 10th smallest of 500
/// (`plan-cold`). Beside a synthetic noisy neighbour (two threads busy half
/// of the time in bursts of 20–420 ms) this quantile stayed within 2 % of
/// its value on a quiet machine on every workload; the lower decile fell
/// 5–10 % short and the median 30–41 %. Not the minimum: a slice whose two
/// probes agree may still have switched clocks twice in between, which
/// scales its times too far down, and one such sample would be the result.
pub const QUIET_QUANTILE: f64 = 0.02;

/// Samples of one unit across the passes of a run, in nanoseconds at the
/// reference clock.
#[derive(Clone, Debug, Default)]
pub struct Unit {
    /// From slices that ran at one clock.
    steady: Vec<f64>,
    /// From slices that straddled a clock switch, scaled by the mean of
    /// their probes: used only if a unit has no steady sample at all (which
    /// takes a run of a handful of passes, `--smoke`).
    unsteady: Vec<f64>,
}

impl Unit {
    pub fn push(&mut self, ns: u64, clock: &Bracket) {
        let at_reference = ns as f64 * clock.scale();
        if clock.steady() {
            self.steady.push(at_reference);
        } else {
            self.unsteady.push(at_reference);
        }
    }

    pub fn quiet(&self) -> f64 {
        let samples = if self.steady.is_empty() {
            &self.unsteady
        } else {
            &self.steady
        };
        percentile(samples, QUIET_QUANTILE)
    }
}

/// Every unit of a run.
pub struct Samples {
    slice_ops: usize,
    /// Per op: submit→join (commit→refresh) latency.
    pub lat: Vec<Unit>,
    /// Per slice: wall and process CPU time.
    pub wall: Vec<Unit>,
    pub cpu: Vec<Unit>,
    pub slices_seen: usize,
    pub slices_steady: usize,
}

impl Samples {
    pub fn new(ops: usize, slice_ops: usize) -> Samples {
        let slices = ops.div_ceil(slice_ops);
        Samples {
            slice_ops,
            lat: vec![Unit::default(); ops],
            wall: vec![Unit::default(); slices],
            cpu: vec![Unit::default(); slices],
            slices_seen: 0,
            slices_steady: 0,
        }
    }

    pub fn absorb(&mut self, pass: &Pass) {
        assert_eq!(pass.lat_ns.len(), self.lat.len());
        assert_eq!(pass.slices.len(), self.wall.len());
        for (j, slice) in pass.slices.iter().enumerate() {
            self.slices_seen += 1;
            self.slices_steady += usize::from(slice.clock.steady());
            self.wall[j].push(slice.wall_ns, &slice.clock);
            self.cpu[j].push(slice.cpu_ns, &slice.clock);
            let first = j * self.slice_ops;
            let lats = &pass.lat_ns[first..(first + self.slice_ops).min(pass.lat_ns.len())];
            for (unit, &ns) in self.lat[first..].iter_mut().zip(lats) {
                unit.push(ns, &slice.clock);
            }
        }
    }

    /// Quiet latency of every op, in op order (ns at the reference clock).
    pub fn quiet_latencies(&self) -> Vec<f64> {
        self.lat.iter().map(Unit::quiet).collect()
    }

    /// Wall time of one quiet pass: the sum of the slices' quiet wall times.
    pub fn quiet_pass_wall(&self) -> f64 {
        self.wall.iter().map(Unit::quiet).sum()
    }

    /// Process CPU time of one quiet pass.
    pub fn quiet_pass_cpu(&self) -> f64 {
        self.cpu.iter().map(Unit::quiet).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Slice;

    const REF: Bracket = Bracket {
        before_ns: 2000,
        after_ns: 2000,
    };
    const SLOW: Bracket = Bracket {
        before_ns: 2500,
        after_ns: 2500,
    };
    const SWITCHED: Bracket = Bracket {
        before_ns: 2000,
        after_ns: 2500,
    };

    #[test]
    fn quiet_is_the_lowest_fiftieth_of_steady_samples() {
        let mut u = Unit::default();
        // 100 samples at the reference clock: 100, 110, …, 1090.
        for i in 0..100 {
            u.push(100 + 10 * i, &REF);
        }
        // Nearest rank: ceil(0.02 × 100) = 2nd smallest.
        assert_eq!(u.quiet(), 110.0);
        // A sample from a switched slice, however small, is not used …
        u.push(1, &SWITCHED);
        assert_eq!(u.quiet(), 110.0);
        // … unless there is nothing else.
        let mut only = Unit::default();
        only.push(900, &SWITCHED);
        assert_eq!(only.quiet(), 900.0 * 2000.0 / 2250.0);
    }

    #[test]
    fn the_same_work_at_two_clocks_gives_one_value() {
        let (mut fast, mut slow) = (Unit::default(), Unit::default());
        fast.push(1000, &REF);
        slow.push(1250, &SLOW);
        assert_eq!(fast.quiet(), slow.quiet());
    }

    fn pass(lat_ns: Vec<u64>, slices: Vec<(u64, u64, Bracket)>) -> Pass {
        Pass {
            wall_ns: 0,
            cpu_ns: 0,
            answers: vec![0; lat_ns.len()],
            lat_ns,
            slices: slices
                .into_iter()
                .map(|(wall_ns, cpu_ns, clock)| Slice {
                    wall_ns,
                    cpu_ns,
                    clock,
                })
                .collect(),
            edges: 0,
            not_complete: 0,
            rejected: 0,
            compactions: 0,
        }
    }

    #[test]
    fn samples_map_ops_to_their_slice() {
        // 5 ops in slices of 2: ops 0-1, 2-3, 4.
        let mut s = Samples::new(5, 2);
        s.absorb(&pass(
            vec![10, 20, 30, 40, 50],
            vec![(35, 30, REF), (75, 70, SLOW), (55, 50, REF)],
        ));
        assert_eq!(s.quiet_latencies(), vec![10.0, 20.0, 24.0, 32.0, 50.0]);
        assert_eq!(s.quiet_pass_wall(), 35.0 + 60.0 + 55.0);
        assert_eq!(s.quiet_pass_cpu(), 30.0 + 56.0 + 50.0);
        assert_eq!((s.slices_seen, s.slices_steady), (3, 3));
        // A second, slower pass does not move the lowest of two.
        s.absorb(&pass(
            vec![11, 21, 31, 41, 51],
            vec![(36, 31, REF), (76, 71, SWITCHED), (56, 51, REF)],
        ));
        assert_eq!(s.quiet_latencies(), vec![10.0, 20.0, 24.0, 32.0, 50.0]);
        assert_eq!((s.slices_seen, s.slices_steady), (6, 5));
    }
}
