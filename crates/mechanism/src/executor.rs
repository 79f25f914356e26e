//! The scoped-thread executor the SELECT restart grid and session batches
//! fan out on ([`ScopedExecutor`]).

/// Runs a batch of independent tasks to completion on scoped threads, at
/// most `threads` at a time; `new(1)` is the serial executor.
///
/// Scoped threads (rather than a long-lived task queue) keep the executor
/// deadlock-free by construction: a serving worker that fans out never waits
/// on a pool that could itself be saturated with blocked workers, and the
/// borrowed output slices need no `'static` laundering. Spawn cost is
/// microseconds against tasks that are expected to run for milliseconds;
/// with `threads <= 1` tasks run inline, and otherwise the first lane runs on
/// the calling thread, which waits for the others anyway. That also keeps
/// its allocations in the caller's malloc arena: a session batch whose lanes
/// all ran on fresh threads spread the pooled request scratches over
/// per-thread arenas that a later batch's threads did not reuse, and
/// `session_answers`' peak RSS crept up by ~4 MB (+15–20 %).
#[derive(Debug, Clone, Copy)]
pub struct ScopedExecutor {
    threads: usize,
}

impl ScopedExecutor {
    /// An executor using up to `threads` concurrent scoped threads
    /// (0 ⇒ the machine's available parallelism). An explicit `threads` is
    /// honored even above the core count.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            threads
        };
        ScopedExecutor { threads }
    }

    /// The concurrency cap.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes all tasks; ordering across tasks is unspecified (tasks write
    /// disjoint outputs), completion is awaited.
    pub fn run<'a>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'a>>) {
        if self.threads <= 1 || tasks.len() <= 1 {
            for t in tasks {
                t();
            }
            return;
        }
        // Deal tasks round-robin into one lane per thread; each lane runs its
        // tasks in order, the first on this thread, the rest on scoped ones.
        let lanes = self.threads.min(tasks.len());
        let mut per_lane: Vec<Vec<Box<dyn FnOnce() + Send + 'a>>> =
            (0..lanes).map(|_| Vec::new()).collect();
        for (i, t) in tasks.into_iter().enumerate() {
            per_lane[i % lanes].push(t);
        }
        let mut lanes = per_lane.into_iter();
        let first = lanes.next();
        std::thread::scope(|s| {
            for lane in lanes {
                s.spawn(move || {
                    for t in lane {
                        t();
                    }
                });
            }
            for t in first.into_iter().flatten() {
                t();
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_executor_runs_every_task_into_its_own_slot() {
        for threads in [1, 2, 4, 7] {
            let mut slots = [0u64; 17];
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = slots
                .iter_mut()
                .zip(1u64..)
                .map(|(slot, i)| Box::new(move || *slot = i * i) as Box<dyn FnOnce() + Send + '_>)
                .collect();
            ScopedExecutor::new(threads).run(tasks);
            assert!(slots.iter().zip(1u64..).all(|(&s, i)| s == i * i));
        }
        assert!(ScopedExecutor::new(0).threads() >= 1);
        assert_eq!(ScopedExecutor::new(3).threads(), 3);
    }
}
