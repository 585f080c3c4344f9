//! The hand-off between a submission and the thread that evaluates it.
//!
//! An [`Executor`] owns a fixed set of threads that park on one
//! mutex-guarded FIFO of submitted jobs. [`Executor::submit`] enqueues a
//! job and wakes one parked thread; the returned [`Task`] is the
//! submitter's half of a one-shot hand-off. [`Task::join`] first tries to
//! **claim** the job: while no executor thread has taken it, it is removed
//! from the queue and run on the joining thread, so a submit-then-join on
//! an idle server costs no cross-thread wake in either direction and no
//! join ever waits on a job that has not started. A job an executor thread
//! took first is waited for.
//!
//! Whoever holds the queue lock when a job leaves the queue owns it — that
//! is the whole claim protocol. A claimed job leaves the queue at claim
//! time, so the queue holds only jobs nobody has started and a late
//! executor finds nothing to drain.
//!
//! Wake policy: a submission wakes at most one thread, the most recently
//! parked one (its stack and arena are the warmest), and none when none
//! is parked — a thread that is not parked re-checks the queue under the
//! lock before it parks, so no job is stranded.
//!
//! **Time off.** A wake is in vain when the joiner has claimed the job by
//! the time the woken thread holds the lock, and in a closed loop of
//! `submit(..).join()` every wake is. Its price to the submitter is the
//! host's to set (1–2 µs while the two threads have a core each, ~14 µs
//! when the host time-shares them), so after [`WAKES_IN_VAIN`] of them the
//! woken thread takes [`TIME_OFF`]: the executor is *off duty*, submissions
//! wake nobody, and the thread looks at the queue itself when the time is
//! up — a job nobody joined meanwhile starts then, at most `TIME_OFF`
//! late. This is a deadline, taken once per `WAKES_IN_VAIN` wasted wakes,
//! not a poll: an idle executor waits untimed, and wakes that find work
//! do not count towards it.
//!
//! A job's panic is caught where it runs and stored as the task's result;
//! [`Task::join`] re-raises it on the joiner. It kills no executor thread.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use rpq_core::EvalResponse;

/// Wakes that found the queue empty before the executor takes time off.
const WAKES_IN_VAIN: u32 = 256;
/// How long the executor then stays off duty: the most a submission that
/// nobody joins can be delayed, once per [`WAKES_IN_VAIN`] wasted wakes.
const TIME_OFF: Duration = Duration::from_micros(500);

/// One submitted evaluation.
pub(crate) type Job = Box<dyn FnOnce() -> EvalResponse + Send>;

/// Every critical section below is a queue or slot update that leaves the
/// data valid at each step (jobs run outside the locks, under
/// `catch_unwind`), so a poisoned lock is recovered rather than re-raised.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a finished job left: its response, or its panic payload.
type Outcome = std::thread::Result<EvalResponse>;

#[derive(Default)]
struct Slot {
    outcome: Option<Outcome>,
    /// The joiner is blocked on `done` (so the finisher skips the wake
    /// when nobody waits).
    waiting: bool,
}

/// Where a job's outcome is handed to its joiner.
#[derive(Default)]
struct Completion {
    slot: Mutex<Slot>,
    done: Condvar,
}

impl Completion {
    /// Run `job` on the current thread and publish its outcome.
    fn run(&self, job: Job) {
        let outcome = catch_unwind(AssertUnwindSafe(job));
        let mut slot = lock(&self.slot);
        slot.outcome = Some(outcome);
        if slot.waiting {
            self.done.notify_one();
        }
    }
}

struct State {
    /// Jobs no thread has started, oldest first.
    queue: VecDeque<(Arc<Completion>, Job)>,
    /// Indices of the threads blocked on their `wake` condvar, most
    /// recently parked last.
    parked: Vec<usize>,
    /// Wakes since the last time off that found the queue empty.
    in_vain: u32,
    /// A thread is taking [`TIME_OFF`]: submissions wake nobody.
    off_duty: bool,
    /// Times off taken so far.
    #[cfg(test)]
    times_off: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// One per executor thread; thread `i` waits on `wake[i]` while `i`
    /// is in `State::parked`.
    wake: Box<[Condvar]>,
}

impl Shared {
    /// Executor thread `me`: run queued jobs until shutdown finds the
    /// queue empty.
    fn serve(&self, me: usize) {
        let mut state = lock(&self.state);
        loop {
            if let Some((completion, job)) = state.queue.pop_front() {
                drop(state);
                completion.run(job);
                state = lock(&self.state);
            } else if state.shutdown {
                return;
            } else if state.in_vain >= WAKES_IN_VAIN {
                state.in_vain = 0;
                state.off_duty = true;
                #[cfg(test)]
                {
                    state.times_off += 1;
                }
                // Not in `parked`: only shutdown (or a wake that was already
                // on its way) ends this early.
                state = self.wake[me]
                    .wait_timeout(state, TIME_OFF)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
                state.off_duty = false;
                // Jobs that arrived meanwhile woke nobody: this thread
                // takes the oldest, the others get their wake now.
                for _ in 1..state.queue.len() {
                    let Some(i) = state.parked.pop() else { break };
                    self.wake[i].notify_one();
                }
            } else {
                state.parked.push(me);
                while state.parked.contains(&me) {
                    state = self.wake[me]
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                state.in_vain += u32::from(state.queue.is_empty() && !state.shutdown);
            }
        }
    }
}

/// The server's executor threads and their queue. Dropping it lets the
/// threads drain the queue (a detached query still runs), then joins them.
pub(crate) struct Executor {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Executor {
    /// An executor for a server of the given `parallelism`: the joining
    /// caller counts as one worker, so `parallelism - 1` threads are
    /// started, and at least one — a submission nobody joins must still
    /// run.
    pub(crate) fn new(parallelism: usize) -> Executor {
        let n = parallelism.saturating_sub(1).max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                parked: Vec::with_capacity(n),
                in_vain: 0,
                off_duty: false,
                #[cfg(test)]
                times_off: 0,
                shutdown: false,
            }),
            wake: (0..n).map(|_| Condvar::new()).collect(),
        });
        let threads = (0..n)
            .map(|me| {
                let shared = shared.clone();
                std::thread::spawn(move || shared.serve(me))
            })
            .collect();
        Executor { shared, threads }
    }

    /// Enqueue `job` and wake one parked executor thread, if any — none
    /// while the executor is off duty.
    pub(crate) fn submit(&self, job: Job) -> Task {
        let completion = Arc::new(Completion::default());
        let mut state = lock(&self.shared.state);
        state.queue.push_back((completion.clone(), job));
        let woken = if state.off_duty {
            None
        } else {
            state.parked.pop()
        };
        drop(state);
        if let Some(i) = woken {
            self.shared.wake[i].notify_one();
        }
        Task {
            completion,
            shared: self.shared.clone(),
        }
    }

    /// Jobs no thread has started.
    #[cfg(test)]
    pub(crate) fn queued(&self) -> usize {
        lock(&self.shared.state).queue.len()
    }

    /// Times off taken so far.
    #[cfg(test)]
    pub(crate) fn times_off(&self) -> usize {
        lock(&self.shared.state).times_off
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        let mut state = lock(&self.shared.state);
        state.shutdown = true;
        state.parked.clear();
        drop(state);
        for wake in self.shared.wake.iter() {
            wake.notify_one();
        }
        for thread in self.threads.drain(..) {
            // `serve` catches every job's panic; a thread that died anyway
            // has nothing left to hand over, and `drop` must not panic.
            let _ = thread.join();
        }
    }
}

/// The submitter's half of one hand-off. Dropping it unjoined leaves the
/// job queued for an executor thread.
pub(crate) struct Task {
    completion: Arc<Completion>,
    /// The queue the job was put on — kept alive by the task, so a handle
    /// that outlives its server still joins.
    shared: Arc<Shared>,
}

impl Task {
    /// Has the job run to its end (or panicked)?
    pub(crate) fn is_finished(&self) -> bool {
        lock(&self.completion.slot).outcome.is_some()
    }

    /// The job's response: run the job here if no thread has started it,
    /// else block until the thread that took it finishes. Panics with
    /// "query worker panicked" if the job did.
    pub(crate) fn join(self) -> EvalResponse {
        let mut state = lock(&self.shared.state);
        // Newest first: a caller that joins right after submitting finds
        // its job at the back.
        let mine = state
            .queue
            .iter()
            .rposition(|(c, _)| Arc::ptr_eq(c, &self.completion))
            .and_then(|at| state.queue.remove(at));
        drop(state);
        if let Some((_, job)) = mine {
            self.completion.run(job);
        }
        let mut slot = lock(&self.completion.slot);
        loop {
            if let Some(outcome) = slot.outcome.take() {
                return outcome.expect("query worker panicked");
            }
            slot.waiting = true;
            slot = self
                .completion
                .done
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::mpsc;

    use rpq_core::SourceSpec;
    use rpq_graph::Oid;

    fn response() -> EvalResponse {
        EvalResponse::empty_for(&SourceSpec::Source(Oid(0)))
    }

    /// Executor threads kept busy by [`hold_busy`] until released.
    pub(crate) struct Held {
        gates: Vec<mpsc::Sender<()>>,
        tasks: Vec<Task>,
    }

    impl Held {
        /// Let the blockers return, and wait for them.
        pub(crate) fn release(self) {
            drop(self.gates);
            for task in self.tasks {
                task.join();
            }
        }
    }

    /// Occupy every thread of `executor` with a job that blocks until
    /// [`Held::release`]; returns once all of them are running.
    pub(crate) fn hold_busy(executor: &Executor) -> Held {
        let (started, running) = mpsc::channel();
        let (gates, tasks): (Vec<_>, Vec<_>) = (0..executor.threads.len())
            .map(|_| {
                let (gate, released) = mpsc::channel::<()>();
                let started = started.clone();
                let task = executor.submit(Box::new(move || {
                    started.send(()).expect("test is listening");
                    // Err: the sender is gone, which is the release signal.
                    let _ = released.recv();
                    response()
                }));
                (gate, task)
            })
            .unzip();
        for _ in &tasks {
            running.recv().expect("blocker started");
        }
        Held { gates, tasks }
    }

    #[test]
    fn wakes_in_vain_buy_time_off_and_strand_nothing() {
        let executor = Executor::new(3);
        // A closed loop: the joiner has claimed nearly every job by the
        // time the thread woken for it holds the lock.
        let mut round_trips = 0;
        while executor.times_off() == 0 {
            executor.submit(Box::new(response)).join();
            round_trips += 1;
            assert!(
                round_trips < 1_000_000,
                "a million round trips, no time off"
            );
        }
        // The time off has just begun, so these wake nobody; nobody joins
        // them either. They start when it is up, on both threads.
        let kept: Vec<Task> = (0..4)
            .map(|_| executor.submit(Box::new(response)))
            .collect();
        while !kept.iter().all(Task::is_finished) {
            std::thread::yield_now();
        }
        assert_eq!(executor.queued(), 0);
    }

    #[test]
    fn the_joining_caller_counts_as_one_worker() {
        for (parallelism, threads) in [(0, 1), (1, 1), (2, 1), (3, 2), (8, 7)] {
            assert_eq!(Executor::new(parallelism).threads.len(), threads);
        }
    }
}
