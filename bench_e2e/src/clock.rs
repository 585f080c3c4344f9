//! The reference clock: a probe of how fast the core runs right now, and
//! the scale that turns a measured duration into the duration the same
//! work takes at a fixed core clock.
//!
//! The machines this benchmark runs on (2-vCPU guests of a shared host)
//! switch between two core clocks 27 % apart, for anything between 50 ms
//! and several minutes at a time, depending on what the host's other
//! guests do. Everything the program does — a thread spawn, a sort, a BFS —
//! takes 1.25–1.35× as long at the lower clock, so two runs of the same
//! code differ by that much whenever one of them sees more of it. No
//! estimator over raw times can undo that (a run may never see the faster
//! clock at all); measuring the clock can.
//!
//! The probe times a chain of [`PROBE_STEPS`] dependent multiply-adds: pure
//! register arithmetic, so its duration is a fixed number of core cycles
//! and nothing else — no memory, no sibling thread, no kernel. Timed work is
//! cut into *slices* of about a millisecond with a probe on either side; a
//! slice whose two probes agree ran at one clock, and its times are scaled
//! by `REFERENCE_PROBE_NS / probe` — to the clock at which one step of the
//! chain takes a nanosecond. A slice whose probes disagree straddled a
//! switch and is set aside. README.md has the measurements behind this.

use std::hint::black_box;
use std::time::Instant;

/// Dependent multiply-add steps per spin (~2 µs).
pub const PROBE_STEPS: u32 = 2000;
/// Spins per probe; the probe is the fastest of them, which drops a spin an
/// interrupt landed in.
const PROBE_SPINS: usize = 3;
/// A spin's duration at the reference clock: one step per nanosecond.
pub const REFERENCE_PROBE_NS: f64 = PROBE_STEPS as f64;
/// Two probes within this fraction of each other saw the same clock. The
/// two clocks are 27 % apart and a probe repeats within 0.2 %.
const SAME_CLOCK: f64 = 0.03;

/// `x ← x² + c`, [`PROBE_STEPS`] times. Each step needs the one before
/// it, and — unlike a linear congruential step — a run of them has no
/// closed form the compiler could fold the loop into.
#[inline(never)]
fn spin(mut x: u64) -> u64 {
    for _ in 0..PROBE_STEPS {
        x = x.wrapping_mul(x).wrapping_add(1_442_695_040_888_963_407);
    }
    x
}

/// Duration of one spin, in nanoseconds: the fastest of [`PROBE_SPINS`].
pub fn probe_ns() -> u64 {
    (0..PROBE_SPINS)
        .map(|_| {
            let t = Instant::now();
            black_box(spin(black_box(1)));
            t.elapsed().as_nanos() as u64
        })
        .min()
        .expect("at least one spin")
        .max(1)
}

/// The probes on either side of a stretch of timed work.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Bracket {
    pub before_ns: u64,
    pub after_ns: u64,
}

impl Bracket {
    /// Did the stretch run at one clock?
    pub fn steady(&self) -> bool {
        let (lo, hi) = (
            self.before_ns.min(self.after_ns),
            self.before_ns.max(self.after_ns),
        );
        (hi - lo) as f64 <= SAME_CLOCK * lo as f64
    }

    /// Factor from measured time to time at the reference clock, taking the
    /// stretch to have run at the mean of its two probes.
    pub fn scale(&self) -> f64 {
        REFERENCE_PROBE_NS / ((self.before_ns + self.after_ns) as f64 / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bracket_scale_and_steadiness_by_hand() {
        let same = Bracket {
            before_ns: 2500,
            after_ns: 2500,
        };
        assert!(same.steady());
        assert_eq!(same.scale(), 0.8, "a slow clock's times shrink");
        let close = Bracket {
            before_ns: 2000,
            after_ns: 2060,
        };
        assert!(close.steady(), "3 % apart is the same clock");
        let switched = Bracket {
            before_ns: 1926,
            after_ns: 2451,
        };
        assert!(!switched.steady());
        assert!((switched.scale() - 2000.0 / 2188.5).abs() < 1e-12);
    }

    #[test]
    fn probe_repeats() {
        // Not a timing assertion (a test machine may do anything): the probe
        // returns a positive duration, and the spin is not folded away.
        let a = probe_ns();
        assert!(a >= 1);
        assert_ne!(spin(1), spin(2));
    }
}
