//! [`Catalog`] — the MVCC heart of the serving layer: an `Arc`-swapped
//! lineage of [`DeltaGraph`] epochs.
//!
//! One writer keeps absorbing [`EdgeDelta`] batches into a private
//! **master** copy; after every commit it publishes an immutable
//! `Arc<DeltaGraph>` snapshot. Readers [`Catalog::pin`] the published Arc
//! and evaluate against it for as long as they like — the publish path
//! never mutates a published snapshot, so a pinned reader is **never**
//! blocked or disturbed, not even by compaction:
//!
//! ```text
//!          writer                         readers
//!   ┌──────────────────┐
//!   │ master DeltaGraph │ apply_delta ──┐
//!   └──────────────────┘               │ clone (cheap: Arc'd base +
//!            │ maybe_compact(policy)    │  overlay logs only)
//!            ▼                          ▼
//!   published: RwLock<Arc<DeltaGraph>> ───► pin() ─► Arc<DeltaGraph>
//!            │                                        (epoch e₇)
//!            ▼ retained ring (≤ MAX_RETAINED_EPOCHS)
//!   [e₄] [e₅] [e₆] [e₇]  ───► pin_at(e₅) for time travel
//! ```
//!
//! The publish-time clone is copy-on-write in the load-bearing dimension:
//! [`DeltaGraph`] holds its base CSR behind an `Arc`, so cloning copies
//! only the overlay logs (`O(log_len)`), never the `O(V + E)` base.
//! [`DeltaGraph::compact`] on the master installs a *fresh* base Arc —
//! the row blocks the logs touch rebuilt, every other shared with the old
//! base, under the master lock — and stays on the same [`Epoch`] lineage, one
//! `version` further: snapshots published earlier keep the old base alive
//! until their last reader drops, no two published snapshots share an
//! `Epoch`, and the planner's memo, which keys on the lineage and the
//! statistics, serves its plans across the fold.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use rpq_graph::{CompactionPolicy, CsrGraph, DeltaGraph, EdgeDelta, Epoch, Instance};

/// How many published epochs [`Catalog::pin_at`] can still reach. Older
/// snapshots stay alive only while some reader holds their Arc.
pub const MAX_RETAINED_EPOCHS: usize = 8;

/// What one [`Catalog::commit`] did.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Commit {
    /// The epoch the commit published.
    pub epoch: Epoch,
    /// Mutations that actually took effect (duplicates and misses skipped).
    pub applied: usize,
    /// Did the compaction policy fire, folding the overlay into a fresh
    /// base arena (same lineage, see [`DeltaGraph::compact`])?
    pub compacted: bool,
    /// Row blocks that fold built, over both orientations — what the
    /// compaction cost; every other block of the new base is the old
    /// one's. 0 when the policy did not fire.
    pub blocks_rebuilt: usize,
}

/// The epoch-pinned snapshot store: one writer, any number of readers.
/// See the module docs for the lifecycle diagram.
pub struct Catalog {
    /// The writer's working copy. Only [`Catalog::commit`] locks it.
    master: Mutex<DeltaGraph>,
    /// The snapshot readers pin. Swapped whole on every commit.
    published: RwLock<Arc<DeltaGraph>>,
    /// Recent epochs for [`Catalog::pin_at`], newest last.
    retained: Mutex<VecDeque<Arc<DeltaGraph>>>,
    policy: CompactionPolicy,
    commits: AtomicUsize,
    compactions: AtomicUsize,
}

impl Catalog {
    /// A catalog seeded from an immutable base snapshot, with the default
    /// [`CompactionPolicy`].
    pub fn new(base: CsrGraph) -> Catalog {
        let master = DeltaGraph::from_shared(Arc::new(base));
        let published = Arc::new(master.clone());
        let mut retained = VecDeque::with_capacity(MAX_RETAINED_EPOCHS);
        retained.push_back(published.clone());
        Catalog {
            master: Mutex::new(master),
            published: RwLock::new(published),
            retained: Mutex::new(retained),
            policy: CompactionPolicy::default(),
            commits: AtomicUsize::new(0),
            compactions: AtomicUsize::new(0),
        }
    }

    /// A catalog seeded by snapshotting `instance`.
    pub fn from_instance(instance: &Instance) -> Catalog {
        Catalog::new(CsrGraph::from(instance))
    }

    /// Replace the compaction policy (e.g. [`CompactionPolicy::NEVER`] to
    /// keep one base arena for a test).
    pub fn with_policy(mut self, policy: CompactionPolicy) -> Catalog {
        self.policy = policy;
        self
    }

    /// The active compaction policy.
    pub fn policy(&self) -> &CompactionPolicy {
        &self.policy
    }

    /// Pin the latest published snapshot. The returned Arc stays valid —
    /// and *bitwise unchanged* — no matter how many deltas or compactions
    /// the writer commits afterwards.
    pub fn pin(&self) -> Arc<DeltaGraph> {
        self.published.read().clone()
    }

    /// Pin a specific retained epoch, if it is still within the
    /// [`MAX_RETAINED_EPOCHS`] ring.
    pub fn pin_at(&self, epoch: Epoch) -> Option<Arc<DeltaGraph>> {
        self.retained
            .lock()
            .iter()
            .rev()
            .find(|s| s.epoch() == epoch)
            .cloned()
    }

    /// The latest published epoch.
    pub fn epoch(&self) -> Epoch {
        self.published.read().epoch()
    }

    /// Apply one [`EdgeDelta`] batch and publish the resulting epoch:
    /// mutate the master copy, let the policy decide whether to fold the
    /// overlay down ([`DeltaGraph::maybe_compact`]), then swap in a fresh
    /// snapshot. Readers pinned to earlier epochs are untouched.
    pub fn commit(&self, delta: &EdgeDelta) -> Commit {
        let mut master = self.master.lock();
        let applied = master.apply_delta(delta);
        let folded = master.maybe_compact(&self.policy);
        let snapshot = Arc::new(master.clone());
        let epoch = snapshot.epoch();
        // Publish while still holding the master lock so concurrent
        // commits cannot publish out of order.
        *self.published.write() = snapshot.clone();
        drop(master);
        self.commits.fetch_add(1, Ordering::Relaxed);
        if folded.is_some() {
            self.compactions.fetch_add(1, Ordering::Relaxed);
        }
        // A snapshot's teardown (its logs, and the base blocks it was the
        // last to hold) is no business of a `pin_at`: the lock covers the
        // ring, the evicted epochs drop after it.
        let evicted = {
            let mut retained = self.retained.lock();
            let excess = retained.len().saturating_sub(MAX_RETAINED_EPOCHS - 1);
            let evicted: Vec<Arc<DeltaGraph>> = retained.drain(..excess).collect();
            retained.push_back(snapshot);
            evicted
        };
        drop(evicted);
        Commit {
            epoch,
            applied,
            compacted: folded.is_some(),
            blocks_rebuilt: folded.unwrap_or(0),
        }
    }

    /// Delta batches committed so far.
    pub fn commits(&self) -> usize {
        self.commits.load(Ordering::Relaxed)
    }

    /// Commits on which the compaction policy fired.
    pub fn compactions(&self) -> usize {
        self.compactions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::Alphabet;
    use rpq_graph::{InstanceBuilder, Oid};

    fn seed() -> (Alphabet, Catalog, Oid, Oid) {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for i in 0..8 {
            b.edge(&format!("n{i}"), "a", &format!("n{}", (i + 1) % 8));
        }
        let (inst, names) = b.finish();
        let (n0, n1) = (names["n0"], names["n1"]);
        (ab, Catalog::from_instance(&inst), n0, n1)
    }

    #[test]
    fn pinned_snapshot_is_immutable_across_commits_and_compaction() {
        let (ab, catalog, n0, n1) = seed();
        let catalog = catalog.with_policy(CompactionPolicy {
            min_log_len: 4,
            max_log_ratio: 0.25,
            ..CompactionPolicy::default()
        });
        let a = ab.get("a").unwrap();
        let pinned = catalog.pin();
        let epoch0 = pinned.epoch();
        let edges0 = pinned.num_edges();

        // Accumulating chord edges (the base is the +1 ring, these are +2)
        // grow the log monotonically, so the ratio trigger must trip.
        let mut compacted_some = false;
        for round in 0..16u32 {
            let mut d = EdgeDelta::new();
            d.add(Oid(round % 8), a, Oid((round + 2) % 8));
            compacted_some |= catalog.commit(&d).compacted;
        }
        assert!(compacted_some, "the policy must fire under this churn");
        assert_eq!(pinned.epoch(), epoch0, "pinned epoch never moves");
        assert_eq!(pinned.num_edges(), edges0, "pinned data never moves");
        assert_ne!(catalog.epoch(), epoch0);
        assert!(catalog.compactions() >= 1);
        let fresh = catalog.pin();
        assert!(
            !fresh.shares_base_with(&pinned),
            "compaction must have installed a fresh base arena"
        );
        assert_eq!(fresh.epoch().base, epoch0.base, "on the same lineage");
        let _ = (n0, n1);
    }

    #[test]
    fn every_commit_publishes_its_own_epoch_across_compactions() {
        // Compaction keeps the lineage, so `version` alone must tell the
        // published snapshots apart — `pin_at` depends on it.
        let (ab, catalog, _, _) = seed();
        let catalog = catalog.with_policy(CompactionPolicy {
            min_log_len: 2,
            max_log_ratio: 0.0,
            ..CompactionPolicy::default()
        });
        let a = ab.get("a").unwrap();
        let mut epochs = vec![catalog.epoch()];
        for round in 0..6u32 {
            let mut d = EdgeDelta::new();
            d.add(Oid(round % 8), a, Oid((round + 3) % 8));
            let c = catalog.commit(&d);
            assert_eq!(c.compacted, round % 2 == 1, "every second commit folds");
            // eight nodes are one row block each way
            assert_eq!(c.blocks_rebuilt, if c.compacted { 2 } else { 0 });
            assert!(c.epoch.version > epochs[epochs.len() - 1].version);
            assert_eq!(c.epoch.base, epochs[0].base);
            assert_eq!(
                catalog.pin_at(c.epoch).unwrap().num_edges(),
                9 + round as usize
            );
            epochs.push(c.epoch);
        }
        // an earlier, pre-compaction epoch is still the snapshot it was
        assert_eq!(catalog.pin_at(epochs[1]).unwrap().num_edges(), 9);
    }

    #[test]
    fn a_delta_naming_no_node_is_a_miss_not_a_poisoned_catalog() {
        let (ab, catalog, n0, n1) = seed();
        let a = ab.get("a").unwrap();
        let mut d = EdgeDelta::new();
        d.del(n0, a, n1); // valid: the ring edge n0 -> n1
        d.del(Oid(1000), a, n0); // source out of range
        d.add(n0, a, n0); // valid, applied before the bad ones
        d.add(Oid(1000), a, n1); // source out of range
        d.add(n1, a, Oid(1000)); // target out of range
        d.add(Oid(u32::MAX), a, Oid(u32::MAX));
        d.add(n1, a, n0); // valid, applied after the bad ones
        let c = catalog.commit(&d);
        assert_eq!(c.applied, 3, "exactly the valid mutations");

        let snap = catalog.pin();
        assert_eq!(snap.epoch(), c.epoch);
        let mut expected: Vec<_> = (0..8u32)
            .map(|i| (Oid(i), a, Oid((i + 1) % 8)))
            .filter(|&e| e != (n0, a, n1))
            .chain([(n0, a, n0), (n1, a, n0)])
            .collect();
        expected.sort_unstable();
        assert_eq!(snap.edges().collect::<Vec<_>>(), expected);

        // the master lock was not poisoned: the write path still works
        let mut d = EdgeDelta::new();
        d.add(n0, a, n1);
        assert_eq!(catalog.commit(&d).applied, 1);
        assert_eq!(catalog.commits(), 2);
    }

    #[test]
    fn pin_at_reaches_retained_epochs_only() {
        let (ab, catalog, n0, _) = seed();
        let catalog = catalog.with_policy(CompactionPolicy::NEVER);
        let a = ab.get("a").unwrap();
        let pinned = catalog.pin();
        let mut epochs = vec![pinned.epoch()];
        for i in 0..MAX_RETAINED_EPOCHS + 3 {
            let mut d = EdgeDelta::new();
            d.add(n0, a, Oid((i % 8) as u32));
            d.del(n0, a, Oid((i % 8) as u32));
            epochs.push(catalog.commit(&d).epoch);
        }
        // the newest epochs are reachable, the oldest have been evicted
        let newest = *epochs.last().unwrap();
        assert_eq!(catalog.pin_at(newest).unwrap().epoch(), newest);
        assert!(catalog.pin_at(epochs[0]).is_none(), "evicted from the ring");
        // the evicted seed epoch is gone from the ring, but the held pin
        // still serves it
        assert_eq!(pinned.epoch(), epochs[0]);
        let reachable = epochs
            .iter()
            .filter(|&&e| catalog.pin_at(e).is_some())
            .count();
        assert_eq!(reachable, MAX_RETAINED_EPOCHS);
    }

    #[test]
    fn commit_reports_applied_mutations_and_epochs_advance() {
        let (ab, catalog, n0, n1) = seed();
        let a = ab.get("a").unwrap();
        let mut d = EdgeDelta::new();
        d.add(n0, a, n0); // new
        d.add(n0, a, n1); // duplicate of a base edge
        let c = catalog.commit(&d);
        assert_eq!(c.applied, 1);
        assert_eq!(c.epoch, catalog.epoch());
        assert_eq!(catalog.commits(), 1);
    }
}
