//! A deterministic fan-out executor: the thread pool behind
//! `mlp_engine::parallel::run_all`, which runs independent experiment
//! configurations side by side. A simulation run itself starts no thread.
//!
//! Determinism contract: [`ShardPool::scatter`] returns results **in job
//! index order**, whatever order the jobs finish in, so a sweep's output
//! does not depend on the worker count as long as its jobs touch disjoint
//! state (each experiment carries its own seed and cluster).
//!
//! `workers == 1` is pure inline execution on the calling thread — no
//! threads, no channels. For `workers > 1` scoped threads pull job indices
//! from a shared counter and send `(index, result)` pairs over a channel;
//! scoped threads make borrowed job closures sound without `unsafe`, since
//! the scope joins every worker before `scatter` returns.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A deterministic fan-out executor for independent jobs.
#[derive(Debug, Clone)]
pub struct ShardPool {
    workers: usize,
}

impl ShardPool {
    /// A pool that runs up to `workers` jobs concurrently. `0` means "all
    /// available cores"; `1` executes inline.
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            workers
        };
        ShardPool { workers }
    }

    /// The configured concurrency.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every job (each receives its own index) and returns the
    /// results in job index order, regardless of completion order.
    pub fn scatter<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce(usize) -> T + Send,
    {
        if self.workers <= 1 || jobs.len() <= 1 {
            return jobs.into_iter().enumerate().map(|(i, job)| job(i)).collect();
        }
        let n = jobs.len();
        let workers = self.workers.min(n);
        // FnOnce must be *moved* to run; park each job behind a Mutex slot
        // so any worker can claim it by take().
        let slots: Vec<std::sync::Mutex<Option<F>>> =
            jobs.into_iter().map(|j| std::sync::Mutex::new(Some(j))).collect();
        let next = AtomicUsize::new(0);
        let (tx, rx) = std::sync::mpsc::channel::<(usize, T)>();

        std::thread::scope(|s| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let slots = &slots;
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = slots[i].lock().expect("job slot").take().expect("claimed once");
                    tx.send((i, job(i))).expect("collector outlives the scope");
                });
            }
        });
        drop(tx); // workers joined by the scope; close our own sender

        let mut out: Vec<Option<T>> = Vec::new();
        out.resize_with(n, || None);
        for (i, result) in rx {
            out[i] = Some(result);
        }
        out.into_iter().map(|r| r.expect("every job produces a result")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for workers in [1, 2, 8] {
            let pool = ShardPool::new(workers);
            let jobs: Vec<_> = (0..17)
                .map(|i| {
                    move |idx: usize| {
                        assert_eq!(i, idx);
                        idx * 10
                    }
                })
                .collect();
            let out = pool.scatter(jobs);
            assert_eq!(out, (0..17).map(|i| i * 10).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn borrowed_mutable_state_is_seen_after_scatter() {
        let mut shards: Vec<Vec<u64>> = vec![vec![0; 4]; 8];
        let pool = ShardPool::new(4);
        let jobs: Vec<_> = shards
            .iter_mut()
            .map(|shard| {
                move |idx: usize| {
                    for (j, v) in shard.iter_mut().enumerate() {
                        *v = (idx * 100 + j) as u64;
                    }
                    shard.iter().sum::<u64>()
                }
            })
            .collect();
        let sums = pool.scatter(jobs);
        for (i, shard) in shards.iter().enumerate() {
            assert_eq!(shard[3], (i * 100 + 3) as u64);
            assert_eq!(sums[i], shard.iter().sum::<u64>());
        }
    }

    #[test]
    fn zero_workers_resolves_to_available_cores() {
        assert!(ShardPool::new(0).workers() >= 1);
    }

    #[test]
    fn empty_and_single_job_lists() {
        let pool = ShardPool::new(8);
        let out: Vec<u32> = pool.scatter(Vec::<fn(usize) -> u32>::new());
        assert!(out.is_empty());
        let out = pool.scatter(vec![|i: usize| i + 41]);
        assert_eq!(out, vec![41]);
    }
}
