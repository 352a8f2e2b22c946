//! One small executor for the whole workspace: the scoped helper threads
//! of one call.
//!
//! [`with_executor`] runs a body with `workers - 1` helper threads that
//! live exactly as long as the body. Inside it, [`Executor::map`] runs a
//! round of indexed tasks: the helpers and the calling thread claim tasks
//! in index order until none are left, so a round that one thread can
//! finish alone never waits on a wake-up. Results come back in index
//! order, and a task's panic reaches the caller with its own payload
//! (the lowest-indexed one when several tasks panic).
//!
//! With one worker no thread is spawned and a round is a plain loop over
//! its tasks on the caller, in index order.
//!
//! A round's job goes to helper threads that outlive the round, so it may
//! borrow only what outlives the executor (`'env`) and must own whatever
//! it is handed per round.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Runs `body` with an executor of `workers` threads: the caller plus
/// `workers - 1` scoped helpers (none for `workers <= 1`). The helpers
/// are joined before this returns, also when `body` panics.
pub fn with_executor<'env, T>(workers: usize, body: impl FnOnce(&Executor<'env>) -> T) -> T {
    let exec = Executor {
        workers: workers.max(1),
        state: Mutex::new(State { round: None, epoch: 0, closed: false }),
        wake: Condvar::new(),
    };
    if exec.workers == 1 {
        return body(&exec);
    }
    std::thread::scope(|scope| {
        for worker in 1..exec.workers {
            let exec = &exec;
            scope.spawn(move || exec.help(worker));
        }
        // Closes the executor when the body returns or unwinds, so the
        // scope's join never waits on an idle helper.
        let _close = Close(&exec);
        body(&exec)
    })
}

/// The helper threads of one [`with_executor`] call.
pub struct Executor<'env> {
    workers: usize,
    state: Mutex<State<'env>>,
    /// Signals helpers that a round was posted or the executor closed.
    wake: Condvar,
}

struct State<'env> {
    round: Option<Arc<dyn Round + 'env>>,
    /// Rounds posted so far; a helper works each epoch at most once.
    epoch: u64,
    closed: bool,
}

impl<'env> Executor<'env> {
    /// Runs `job(worker, task)` for every `task` in `0..count` and returns
    /// the results in task order. `worker` is the index of the thread
    /// running the task: 0 for the caller, `1..workers` for the helpers,
    /// so per-worker state indexed by it is never shared.
    ///
    /// # Panics
    /// Once every task has finished, resumes the panic of the
    /// lowest-indexed task that panicked, with its own payload.
    pub fn map<R, F>(&self, count: usize, job: F) -> Vec<R>
    where
        F: Fn(usize, usize) -> R + Send + Sync + 'env,
        R: Send + 'env,
    {
        if self.workers == 1 || count <= 1 {
            return (0..count).map(|task| job(0, task)).collect();
        }
        let tasks = Arc::new(Tasks {
            job,
            count,
            next: AtomicUsize::new(0),
            done: Mutex::new(Done {
                results: (0..count).map(|_| None).collect(),
                left: count,
                panic: None,
            }),
            finished: Condvar::new(),
        });
        {
            let mut state = lock(&self.state);
            state.round = Some(tasks.clone());
            state.epoch += 1;
        }
        self.wake.notify_all();
        tasks.work(0);
        let mut done = lock(&tasks.done);
        while done.left > 0 {
            done = tasks.finished.wait(done).expect(POISON);
        }
        let (results, panic) = (std::mem::take(&mut done.results), done.panic.take());
        drop(done);
        let round = lock(&self.state).round.take();
        drop(round);
        if let Some((_, payload)) = panic {
            panic::resume_unwind(payload);
        }
        results.into_iter().map(|r| r.expect("every task of a finished round ran")).collect()
    }

    /// A helper's life: work every posted round until the executor closes.
    fn help(&self, worker: usize) {
        let mut seen = 0;
        loop {
            let round = {
                let mut state = lock(&self.state);
                while state.epoch == seen && !state.closed {
                    state = self.wake.wait(state).expect(POISON);
                }
                if state.closed {
                    return;
                }
                seen = state.epoch;
                state.round.clone()
            };
            if let Some(round) = round {
                round.work(worker);
            }
        }
    }
}

/// Closes its executor on drop, waking every helper to exit.
struct Close<'a, 'env>(&'a Executor<'env>);

impl Drop for Close<'_, '_> {
    fn drop(&mut self) {
        // Every update under this lock is one assignment, so a poisoned
        // guard still holds valid state; a drop must not panic.
        self.0.state.lock().unwrap_or_else(PoisonError::into_inner).closed = true;
        self.0.wake.notify_all();
    }
}

const POISON: &str = "no code panics while holding an executor lock";

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect(POISON)
}

/// A posted round, as the helpers see it.
trait Round: Send + Sync {
    /// Claims and runs tasks as `worker` until none are left.
    fn work(&self, worker: usize);
}

type Payload = Box<dyn Any + Send>;

struct Tasks<F, R> {
    job: F,
    count: usize,
    /// The next unclaimed task. It publishes nothing (results go through
    /// `done`), so it is `Relaxed`; `fetch_add` still hands out each
    /// index once.
    next: AtomicUsize,
    done: Mutex<Done<R>>,
    /// Signals the caller that the last task finished.
    finished: Condvar,
}

struct Done<R> {
    results: Vec<Option<R>>,
    left: usize,
    /// The lowest-indexed panic so far, with its task index.
    panic: Option<(usize, Payload)>,
}

impl<F, R> Round for Tasks<F, R>
where
    F: Fn(usize, usize) -> R + Send + Sync,
    R: Send,
{
    fn work(&self, worker: usize) {
        loop {
            let task = self.next.fetch_add(1, Ordering::Relaxed);
            if task >= self.count {
                return;
            }
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| (self.job)(worker, task)));
            let mut done = lock(&self.done);
            match outcome {
                Ok(result) => done.results[task] = Some(result),
                Err(payload) => {
                    if done.panic.as_ref().is_none_or(|(first, _)| task < *first) {
                        done.panic = Some((task, payload));
                    }
                }
            }
            done.left -= 1;
            if done.left == 0 {
                self.finished.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn results_come_back_in_task_order() {
        for workers in 1..=3 {
            let squares = with_executor(workers, |exec| exec.map(20, |_, i| i * i));
            assert_eq!(squares, (0..20).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn one_worker_runs_tasks_in_order_on_the_caller() {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        with_executor(1, |exec| {
            exec.map(5, |worker, i| {
                assert_eq!((worker, std::thread::current().id()), (0, caller));
                order.lock().unwrap().push(i);
            })
        });
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn every_worker_takes_part_and_rounds_repeat() {
        // Each task waits at a barrier of three, so one round of three
        // tasks finishes only if the caller and both helpers run one.
        let barrier = Barrier::new(3);
        let workers = with_executor(3, |exec| {
            (0..4)
                .map(|_| {
                    let mut seen = exec.map(3, |worker, _| {
                        barrier.wait();
                        worker
                    });
                    seen.sort_unstable();
                    seen
                })
                .collect::<Vec<_>>()
        });
        assert!(workers.iter().all(|w| w == &[0, 1, 2]), "{workers:?}");
    }

    #[test]
    fn a_task_panic_keeps_its_payload_and_the_lowest_index_wins() {
        for workers in 1..=3 {
            let payload = panic::catch_unwind(AssertUnwindSafe(|| {
                with_executor(workers, |exec| {
                    exec.map(8, |_, i| {
                        if i % 3 == 2 {
                            panic!("task {i} failed");
                        }
                        i
                    })
                })
            }))
            .expect_err("the round panics");
            assert_eq!(payload.downcast_ref::<String>().unwrap(), "task 2 failed");
        }
    }

    #[test]
    fn a_panicking_body_still_joins_its_helpers() {
        let payload = panic::catch_unwind(|| {
            with_executor(2, |exec| {
                assert_eq!(exec.map(4, |_, i| i), vec![0, 1, 2, 3]);
                panic!("body gave up")
            })
        })
        .expect_err("the body panics");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"body gave up"));
    }

    #[test]
    fn empty_and_single_rounds_need_no_helper() {
        with_executor(4, |exec| {
            assert_eq!(exec.map(0, |_, i| i), Vec::<usize>::new());
            assert_eq!(exec.map(1, |worker, i| (worker, i)), vec![(0, 0)]);
        });
    }
}
