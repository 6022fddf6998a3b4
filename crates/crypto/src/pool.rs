//! Work computed on the machine's spare cores while the caller goes on:
//! one process-wide pool of `available_parallelism() − 1` workers, started
//! on first use — with no worker at all on one core.
//!
//! `defer` queues a job and returns a [`Pending`] handle;
//! [`Pending::wait`] returns the job's result. A job nobody has started yet
//! is run by `wait` on the calling thread; one a worker has started is
//! waited for. Workers take the newest job and waiting callers the oldest,
//! so when a caller reads results in the order it queued them the two work
//! toward each other and meet in the middle. A caller whose own job is on
//! a worker runs the oldest queued job meanwhile, and sleeps only when
//! nothing is queued.
//!
//! A job is a pure function of what it captured, so its result does not
//! depend on the thread that computed it: whatever the core count, every
//! result, and with it every byte and event a caller derives from one, is
//! the same. It has two users: [`crate::pedersen::CommitKey::commit_later`],
//! and `dfl_ipfs::block::hash_in_flight`, which hashes a block's bytes
//! while the simulator carries them to the storage node that stores them.
//!
//! Workers live as long as the process and are never joined: they own no
//! state and hold no lock while a job runs, and a job that panics is
//! caught and its panic handed to its waiter, so a worker never dies.

use std::any::Any;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

/// Queues `work` on the process-wide pool.
pub fn defer<T, F>(work: F) -> Pending<T>
where
    T: Clone + Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    process_pool().defer(work)
}

/// The process-wide pool, started by its first use: one worker per core
/// but the caller's.
fn process_pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        Pool::start(cores - 1)
    })
}

/// The result of a queued job, such as a commitment
/// [`crate::pedersen::CommitKey::commit_later`] deferred, or of work done at
/// once.
pub struct Pending<T> {
    job: Arc<dyn Wait<T>>,
    /// Where a waiter finds other jobs to run; `None` for a ready result.
    pool: Option<&'static Pool>,
}

impl<T: Clone + Send + 'static> Pending<T> {
    /// A result that is already known.
    pub(crate) fn ready(value: T) -> Pending<T> {
        Pending {
            job: Arc::new(Job::<T, fn() -> T>::new(State::Done(value))),
            pool: None,
        }
    }

    /// The job's result: computed here if nobody has started it, else
    /// waited for — running the oldest queued job meanwhile.
    ///
    /// # Panics
    ///
    /// Re-raises the job's panic, on whichever thread it ran.
    pub fn wait(&self) -> T {
        self.job.wait(self.pool)
    }
}

/// One computation and its result. The work is held in place, so a job is
/// one allocation whatever it captured.
struct Job<T, F> {
    state: Mutex<State<T, F>>,
    /// Signalled when the job ends, if a waiter went to sleep on it.
    done: Condvar,
}

enum State<T, F> {
    Queued(F),
    Running { waited: bool },
    Done(T),
    Panicked(Option<Box<dyn Any + Send>>),
}

impl<T, F> Job<T, F> {
    fn new(state: State<T, F>) -> Job<T, F> {
        Job {
            state: Mutex::new(state),
            done: Condvar::new(),
        }
    }

    /// The state. Every update is one assignment and no job runs under
    /// the lock, so a poisoned lock still guards a valid state.
    fn lock(&self) -> MutexGuard<'_, State<T, F>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A job the pool can run without knowing its result type.
trait Run: Send + Sync {
    /// Runs the job if nobody has started it; `false` if somebody had.
    fn run(&self) -> bool;
}

/// A job its [`Pending`] can wait on without knowing its work's type.
trait Wait<T>: Run {
    fn wait(&self, pool: Option<&Pool>) -> T;
}

impl<T: Send, F: FnOnce() -> T + Send> Run for Job<T, F> {
    fn run(&self) -> bool {
        let work = {
            let mut state = self.lock();
            match std::mem::replace(&mut *state, State::Running { waited: false }) {
                State::Queued(work) => work,
                other => {
                    *state = other;
                    return false;
                }
            }
        };
        let result = panic::catch_unwind(AssertUnwindSafe(work));
        let mut state = self.lock();
        let waited = matches!(*state, State::Running { waited: true });
        *state = match result {
            Ok(value) => State::Done(value),
            Err(payload) => State::Panicked(Some(payload)),
        };
        drop(state);
        if waited {
            self.done.notify_all();
        }
        true
    }
}

impl<T: Clone + Send, F: FnOnce() -> T + Send> Wait<T> for Job<T, F> {
    fn wait(&self, pool: Option<&Pool>) -> T {
        loop {
            let mut state = self.lock();
            match &mut *state {
                State::Done(value) => return value.clone(),
                State::Panicked(payload) => match payload.take() {
                    Some(payload) => panic::resume_unwind(payload),
                    None => panic!("a deferred job panicked"),
                },
                State::Queued(_) => {
                    drop(state);
                    self.run();
                }
                State::Running { .. } => {
                    // On a worker: run the oldest queued job meanwhile, and
                    // sleep only when there is none.
                    drop(state);
                    if pool.is_some_and(Pool::help) {
                        continue;
                    }
                    state = self.lock();
                    if let State::Running { waited } = &mut *state {
                        *waited = true;
                        drop(
                            self.done
                                .wait(state)
                                .unwrap_or_else(PoisonError::into_inner),
                        );
                    }
                }
            }
        }
    }
}

/// The queue and the workers that drain it.
pub(crate) struct Pool {
    queue: Mutex<Queue>,
    /// Wakes a sleeping worker.
    wake: Condvar,
    /// Worker threads started; with none, nothing is queued and every job
    /// runs on its waiter.
    workers: AtomicUsize,
}

struct Queue {
    /// Oldest first. A job whose handle was dropped is skipped, and one a
    /// waiter already ran is skipped by `run`.
    jobs: VecDeque<Weak<dyn Run>>,
    /// Workers asleep on [`Pool::wake`].
    idle: usize,
}

impl Pool {
    /// A pool that lives as long as the process, with up to `workers`
    /// threads (fewer if the system refuses one).
    fn start(workers: usize) -> &'static Pool {
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                idle: 0,
            }),
            wake: Condvar::new(),
            workers: AtomicUsize::new(0),
        }));
        let started = (0..workers)
            .take_while(|_| {
                std::thread::Builder::new()
                    .name("dfl-pool".into())
                    .spawn(|| pool.work())
                    .is_ok()
            })
            .count();
        // Read only by `defer`, on a pool a caller already holds.
        pool.workers.store(started, Ordering::Relaxed);
        pool
    }

    /// The queue. Every update is one push, pop or count, so a poisoned
    /// lock still guards a valid queue.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn defer<T, F>(&'static self, work: F) -> Pending<T>
    where
        T: Clone + Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let job = Arc::new(Job::new(State::Queued(work)));
        if self.workers.load(Ordering::Relaxed) > 0 {
            let weak: Weak<dyn Run> = Arc::downgrade(&job) as Weak<Job<T, F>>;
            let mut queue = self.lock();
            queue.jobs.push_back(weak);
            // A worker sleeps only on an empty queue, so only this push
            // can find one asleep.
            if queue.jobs.len() == 1 && queue.idle > 0 {
                self.wake.notify_one();
            }
        }
        Pending {
            job,
            pool: Some(self),
        }
    }

    /// Runs the oldest job nobody has started; `false` when none is queued.
    fn help(&self) -> bool {
        loop {
            let Some(job) = self.lock().jobs.pop_front() else {
                return false;
            };
            if job.upgrade().is_some_and(|job| job.run()) {
                return true;
            }
        }
    }

    /// A worker's loop: the newest job first, sleeping on an empty queue.
    fn work(&self) {
        loop {
            let job = {
                let mut queue = self.lock();
                loop {
                    if let Some(job) = queue.jobs.pop_back() {
                        if !queue.jobs.is_empty() && queue.idle > 0 {
                            self.wake.notify_one();
                        }
                        break job;
                    }
                    queue.idle += 1;
                    queue = self
                        .wake
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                    queue.idle -= 1;
                }
            };
            if let Some(job) = job.upgrade() {
                job.run();
            }
        }
    }
}

#[cfg(test)]
impl<T> Pending<T> {
    /// Whether the result waits on a job, rather than being known.
    pub(crate) fn is_deferred(&self) -> bool {
        self.pool.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::thread::{self, ThreadId};

    /// A job that reports its thread as it starts, then runs `then` once
    /// the test says go.
    fn gated<T: Send + 'static>(
        then: impl FnOnce() -> T + Send + 'static,
    ) -> (
        impl FnOnce() -> (ThreadId, T) + Send + 'static,
        Receiver<ThreadId>,
        Sender<()>,
    ) {
        let (started_tx, started) = channel();
        let (go, go_rx) = channel::<()>();
        let work = move || {
            let id = thread::current().id();
            started_tx.send(id).unwrap();
            go_rx.recv().unwrap();
            (id, then())
        };
        (work, started, go)
    }

    fn here() -> ThreadId {
        thread::current().id()
    }

    #[test]
    fn a_queued_job_is_computed_by_its_wait_on_the_callers_thread() {
        let pool = Pool::start(1);
        // Keep the one worker busy, so the next job stays queued.
        let (busy, started, go) = gated(|| 0);
        let busy = pool.defer(busy);
        let worker = started.recv().unwrap();
        let queued = pool.defer(|| (here(), 7));
        assert_eq!(queued.wait(), (here(), 7));
        go.send(()).unwrap();
        assert_eq!(busy.wait(), (worker, 0));
        assert_ne!(worker, here());
    }

    #[test]
    fn a_job_a_worker_has_taken_is_waited_for() {
        let pool = Pool::start(1);
        let (work, started, go) = gated(|| 42);
        let pending = pool.defer(work);
        let worker = started.recv().unwrap();
        assert_ne!(worker, here());
        let release = thread::spawn(move || go.send(()).unwrap());
        assert_eq!(pending.wait(), (worker, 42));
        release.join().unwrap();
        assert_eq!(
            pending.wait(),
            (worker, 42),
            "a second wait reads the result"
        );
    }

    #[test]
    fn many_threads_waiting_at_once_all_get_their_results() {
        let pool = Pool::start(1);
        // The worker holds job 0 until every waiter has started.
        let (held, started, go) = gated(|| 0u64);
        let mut jobs = vec![pool.defer(move || held().1)];
        started.recv().unwrap();
        jobs.extend((1..64u64).map(|i| pool.defer(move || i * i)));
        let all_waiting = std::sync::Barrier::new(9);
        thread::scope(|scope| {
            for (t, chunk) in jobs.chunks(8).enumerate() {
                let all_waiting = &all_waiting;
                scope.spawn(move || {
                    all_waiting.wait();
                    // Odd threads read newest first, toward the worker.
                    let mut order: Vec<_> = chunk.iter().zip(t as u64 * 8..).collect();
                    if t % 2 == 1 {
                        order.reverse();
                    }
                    for (job, i) in order {
                        assert_eq!(job.wait(), i * i);
                    }
                });
            }
            all_waiting.wait();
            go.send(()).unwrap();
        });
    }

    #[test]
    fn a_job_that_panics_on_a_worker_makes_its_waiter_panic() {
        let pool = Pool::start(1);
        let (work, started, go) = gated(|| -> u8 { panic!("job failed") });
        let pending = pool.defer(work);
        started.recv().unwrap();
        go.send(()).unwrap();
        let waited = panic::catch_unwind(AssertUnwindSafe(|| pending.wait()));
        let message = waited.unwrap_err();
        assert_eq!(message.downcast_ref::<&str>(), Some(&"job failed"));
        // The worker survived its job's panic.
        let (work, started, go) = gated(|| 1);
        let next = pool.defer(work);
        let worker = started.recv().unwrap();
        go.send(()).unwrap();
        assert_eq!(next.wait(), (worker, 1));
        assert_ne!(worker, here());
    }

    #[test]
    fn one_core_starts_no_worker_and_computes_at_first_use() {
        let pool = Pool::start(0);
        assert_eq!(pool.workers.load(Ordering::Relaxed), 0);
        let pending = pool.defer(here);
        assert!(pool.lock().jobs.is_empty(), "nothing is queued");
        assert_eq!(pending.wait(), here());
        let cores = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let process = process_pool().workers.load(Ordering::Relaxed);
        assert_eq!(process, cores - 1, "one worker per core but the caller's");
    }
}
