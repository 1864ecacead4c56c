//! Shared parallel-sweep executor for the workspace's embarrassingly
//! parallel loops (telemetry synthesis, VM classification, knowledge
//! extraction).
//!
//! The design goal is a **determinism contract**: [`Parallelism::par_map`]
//! returns exactly what `items.iter().map(f).collect()` would, for any
//! worker count — including 1 — as long as `f` itself is a pure function
//! of its input. Scheduling is work-stealing over fixed chunks (an atomic
//! chunk cursor that idle workers race on), so a straggler chunk cannot
//! serialize the sweep, but results are reassembled in input order.
//!
//! Built on `std::thread::scope`: a sweep's threads live exactly as long
//! as the sweep, and the workspace keeps no thread pool of any kind.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use cloudscope_obs as obs;

/// Upper bound on auto-detected workers: the sweeps here saturate memory
/// bandwidth well before 16 cores.
const MAX_AUTO_WORKERS: usize = 16;

/// Target chunks per worker. >1 so workers that finish early steal the
/// tail instead of idling; small enough that per-chunk overhead (one
/// atomic fetch-add + one mutex lock) stays negligible.
const CHUNKS_PER_WORKER: usize = 4;

/// A parallel-sweep configuration: how many workers, and optionally a
/// fixed chunk size.
///
/// ```
/// use cloudscope_par::Parallelism;
///
/// let squares = Parallelism::auto().par_map(&[1, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// // Same output for any worker count.
/// assert_eq!(squares, Parallelism::with_workers(1).par_map(&[1, 2, 3, 4], |&x| x * x));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    workers: usize,
    chunk_size: Option<usize>,
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::auto()
    }
}

impl Parallelism {
    /// Worker count from the environment: `CLOUDSCOPE_WORKERS` if set to a
    /// positive integer, else the machine's available parallelism capped
    /// at 16.
    #[must_use]
    pub fn auto() -> Self {
        let workers = std::env::var("CLOUDSCOPE_WORKERS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(4)
                    .min(MAX_AUTO_WORKERS)
            });
        Self {
            workers,
            chunk_size: None,
        }
    }

    /// An explicit worker count.
    ///
    /// # Panics
    /// Panics if `workers == 0` — a sweep needs at least one worker.
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        Self {
            workers,
            chunk_size: None,
        }
    }

    /// Overrides the chunk size (items per steal). The default derives a
    /// size giving each worker [`CHUNKS_PER_WORKER`] chunks.
    ///
    /// # Panics
    /// Panics if `chunk_size == 0`.
    #[must_use]
    pub fn chunk_size(mut self, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        self.chunk_size = Some(chunk_size);
        self
    }

    /// The configured worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Maps `f` over `items` on the configured workers, returning results
    /// in input order. Output is identical for every worker count.
    ///
    /// # Panics
    /// Propagates a panic from `f` (the sweep stops; remaining chunks may
    /// or may not run).
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let chunk_len = self.chunk_len(items.len());
        self.sweep(items.chunks(chunk_len), |chunk| {
            chunk.iter().map(&f).collect()
        })
    }

    /// [`par_map`](Self::par_map) over exclusive borrows: each worker
    /// takes whole `chunks_mut` of `items`, so `f` may update the item it
    /// is given. Results come back in input order, and both they and the
    /// final state of `items` are what `items.iter_mut().map(f)` leaves,
    /// for every worker count, as long as `f` reads nothing but its item
    /// and its captures.
    ///
    /// ```
    /// use cloudscope_par::Parallelism;
    ///
    /// let mut counters = vec![1u64, 2, 3, 4];
    /// let before = Parallelism::with_workers(3).par_map_mut(&mut counters, |c| {
    ///     *c *= 10;
    ///     *c / 10
    /// });
    /// assert_eq!(before, vec![1, 2, 3, 4]);
    /// assert_eq!(counters, vec![10, 20, 30, 40]);
    /// ```
    ///
    /// # Panics
    /// Propagates a panic from `f`, as [`par_map`](Self::par_map) does;
    /// items of chunks that did not run are left as they were.
    pub fn par_map_mut<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&mut T) -> R + Sync,
    {
        let chunk_len = self.chunk_len(items.len());
        self.sweep(items.chunks_mut(chunk_len), |chunk| {
            chunk.iter_mut().map(&f).collect()
        })
    }

    /// Items per chunk for a sweep over `len` items: everything in one
    /// chunk when the sweep runs serially, else the configured size or
    /// [`CHUNKS_PER_WORKER`] chunks per worker.
    fn chunk_len(&self, len: usize) -> usize {
        let workers = self.workers.min(len);
        if workers <= 1 {
            return len.max(1);
        }
        self.chunk_size
            .unwrap_or_else(|| len.div_ceil(workers * CHUNKS_PER_WORKER))
            .max(1)
    }

    /// Runs `run` over every chunk on up to the configured number of
    /// workers and concatenates the per-chunk results in chunk order.
    /// Chunks wait in slots; an atomic cursor hands each to the first
    /// idle worker, which takes it out of its slot and leaves its results
    /// in the matching output slot.
    fn sweep<C, R>(
        &self,
        chunks: impl Iterator<Item = C>,
        run: impl Fn(C) -> Vec<R> + Sync,
    ) -> Vec<R>
    where
        C: Send,
        R: Send,
    {
        // Capture the caller's registry before spawning: worker threads
        // start with an empty scope stack, so without this a test's
        // scoped registry would lose everything recorded in parallel
        // sections, and `run`'s own metrics would leak to the global
        // registry.
        let registry = obs::current();
        let tasks = registry.counter("par.executor.tasks_executed");
        registry.counter("par.executor.sweeps").inc();
        let mut chunks: Vec<Mutex<Option<C>>> = chunks.map(|c| Mutex::new(Some(c))).collect();
        let num_chunks = chunks.len();
        let workers = self.workers.min(num_chunks);
        if workers <= 1 {
            // A serial sweep is cut into one chunk at most.
            let results = chunks.pop().map_or_else(Vec::new, |slot| {
                run(slot
                    .into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("an unrun chunk"))
            });
            tasks.add(results.len() as u64);
            return results;
        }
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Vec<R>>>> = (0..num_chunks).map(|_| Mutex::new(None)).collect();
        let stolen = registry.counter("par.executor.chunks_stolen");
        let busy = registry.histogram("par.executor.worker_busy_ns");

        std::thread::scope(|scope| {
            let (chunks, run, cursor, slots) = (&chunks, &run, &cursor, &slots);
            let spawn_worker = |_| {
                let registry = Arc::clone(&registry);
                let (tasks, stolen, busy) = (tasks.clone(), stolen.clone(), busy.clone());
                scope.spawn(move || {
                    let started = Instant::now();
                    let mut chunks_taken = 0u64;
                    obs::scoped(&registry, || loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= num_chunks {
                            break;
                        }
                        chunks_taken += 1;
                        let chunk = chunks[index]
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .take()
                            .expect("the cursor hands each chunk out once");
                        let results = run(chunk);
                        tasks.add(results.len() as u64);
                        *slots[index].lock().unwrap_or_else(PoisonError::into_inner) =
                            Some(results);
                    });
                    // Chunks beyond a worker's first are steals from the
                    // shared tail.
                    if chunks_taken > 1 {
                        stolen.add(chunks_taken - 1);
                    }
                    busy.observe(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
                })
            };
            let handles: Vec<_> = (0..workers).map(spawn_worker).collect();
            // Joined by handle, not left to the scope: the scope returns
            // once every closure has finished, which is before the OS
            // threads have exited and handed their allocator arenas back.
            // The next sweep's workers would race them for those arenas,
            // and how many arenas a process ended up spreading its heap
            // over — its resident size — depended on who won.
            for handle in handles {
                if let Err(panic) = handle.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });

        slots
            .into_iter()
            .flat_map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("every chunk below the cursor was computed")
            })
            .collect()
    }

    /// Splits `0..len` into contiguous ranges (one steal unit each) and
    /// maps `f` over them on the configured workers, returning the
    /// per-range results in ascending-range order. The split depends only
    /// on `len` and the configuration — never on scheduling — so the
    /// concatenated output is identical for every worker count.
    ///
    /// This is the building block for sweeps that want slice-granular
    /// work (prefix-sum merges, chunked validation) instead of
    /// item-granular work: the caller gets the range and indexes shared
    /// state itself.
    ///
    /// ```
    /// use cloudscope_par::Parallelism;
    ///
    /// let items: Vec<u64> = (0..100).collect();
    /// let partials = Parallelism::with_workers(4)
    ///     .par_map_ranges(items.len(), |r| items[r].iter().sum::<u64>());
    /// assert_eq!(partials.iter().sum::<u64>(), items.iter().sum());
    /// ```
    pub fn par_map_ranges<R, F>(&self, len: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(std::ops::Range<usize>) -> R + Sync,
    {
        if len == 0 {
            return Vec::new();
        }
        let chunk_size = self
            .chunk_size
            .unwrap_or_else(|| len.div_ceil(self.workers * CHUNKS_PER_WORKER))
            .max(1);
        let ranges: Vec<std::ops::Range<usize>> = (0..len.div_ceil(chunk_size))
            .map(|i| i * chunk_size..((i + 1) * chunk_size).min(len))
            .collect();
        self.par_map(&ranges, |r| f(r.clone()))
    }

    /// [`par_map`](Self::par_map) followed by a sequential left fold over
    /// the results in input order — the map runs in parallel, the
    /// reduction stays deterministic.
    pub fn par_map_reduce<T, R, A, F, G>(&self, items: &[T], f: F, init: A, fold: G) -> A
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
        G: FnMut(A, R) -> A,
    {
        self.par_map(items, f).into_iter().fold(init, fold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for workers in [1, 2, 3, 7, 16] {
            let got = Parallelism::with_workers(workers).par_map(&items, |&x| x * 3 + 1);
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let par = Parallelism::with_workers(8);
        assert_eq!(par.par_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(par.par_map(&[5], |&x| x + 1), vec![6]);
        assert_eq!(par.par_map(&[1, 2], |&x| x), vec![1, 2]);
    }

    #[test]
    fn explicit_chunk_size_preserves_order() {
        let items: Vec<usize> = (0..101).collect();
        let got = Parallelism::with_workers(4)
            .chunk_size(3)
            .par_map(&items, |&x| x);
        assert_eq!(got, items);
    }

    #[test]
    fn map_reduce_folds_in_input_order() {
        let items: Vec<u32> = (1..=50).collect();
        let concat = Parallelism::with_workers(5).par_map_reduce(
            &items,
            |&x| x.to_string(),
            String::new(),
            |mut acc, s| {
                acc.push_str(&s);
                acc.push(',');
                acc
            },
        );
        let expected: String = (1..=50).map(|x| format!("{x},")).collect();
        assert_eq!(concat, expected);
    }

    #[test]
    fn map_mut_equals_the_serial_iter_mut_map() {
        let f = |x: &mut u64| {
            let old = *x;
            *x = x.wrapping_mul(31).wrapping_add(7);
            old ^ (*x << 1)
        };
        // Empty, a single item, fewer items than workers, and enough
        // for several chunks per worker.
        for len in [0usize, 1, 2, 5, 15, 100, 1001] {
            let input: Vec<u64> = (0..len as u64).map(|i| i * i + 3).collect();
            let mut expected_state = input.clone();
            let expected: Vec<u64> = expected_state.iter_mut().map(f).collect();
            for workers in [1, 2, 3, 7, 16] {
                let mut state = input.clone();
                let got = Parallelism::with_workers(workers).par_map_mut(&mut state, f);
                assert_eq!(got, expected, "output: len={len} workers={workers}");
                assert_eq!(state, expected_state, "state: len={len} workers={workers}");
            }
        }
    }

    #[test]
    fn map_ranges_covers_exactly_once_in_order() {
        for len in [0usize, 1, 2, 7, 100, 1001] {
            for workers in [1, 3, 8] {
                let covered: Vec<usize> = Parallelism::with_workers(workers)
                    .par_map_ranges(len, |r| r.collect::<Vec<usize>>())
                    .into_iter()
                    .flatten()
                    .collect();
                let expected: Vec<usize> = (0..len).collect();
                assert_eq!(covered, expected, "len={len} workers={workers}");
            }
        }
    }

    #[test]
    fn map_ranges_split_is_worker_count_invariant_given_chunk_size() {
        let a = Parallelism::with_workers(2)
            .chunk_size(10)
            .par_map_ranges(95, |r| (r.start, r.end));
        let b = Parallelism::with_workers(8)
            .chunk_size(10)
            .par_map_ranges(95, |r| (r.start, r.end));
        assert_eq!(a, b);
        assert_eq!(a.last(), Some(&(90, 95)));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = Parallelism::with_workers(0);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            Parallelism::with_workers(4).par_map(&items, |&x| {
                assert!(x != 42, "boom");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn workers_have_exited_when_the_sweep_returns() {
        // A thread-local's destructor runs while its OS thread exits,
        // after the closure `thread::scope` waits for has returned; this
        // one dawdles, so a sweep that does not wait for the thread
        // itself returns first.
        static STARTED: AtomicUsize = AtomicUsize::new(0);
        static EXITED: AtomicUsize = AtomicUsize::new(0);
        struct CountsExit;
        impl Drop for CountsExit {
            fn drop(&mut self) {
                std::thread::sleep(std::time::Duration::from_millis(2));
                EXITED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static ON_WORKER: CountsExit = {
                STARTED.fetch_add(1, Ordering::SeqCst);
                CountsExit
            };
        }
        let items: Vec<u64> = (0..64).collect();
        for round in 0..20 {
            let doubled = Parallelism::with_workers(4).par_map(&items, |&x| {
                ON_WORKER.with(|_| ());
                x * 2
            });
            assert_eq!(doubled.len(), items.len());
            assert_eq!(
                EXITED.load(Ordering::SeqCst),
                STARTED.load(Ordering::SeqCst),
                "round {round}: a worker outlived its sweep"
            );
        }
        assert!(STARTED.load(Ordering::SeqCst) >= 20);
    }

    #[test]
    fn metrics_attribute_to_callers_scoped_registry() {
        let reg = Arc::new(obs::Registry::new());
        let items: Vec<u64> = (0..500).collect();
        obs::scoped(&reg, || {
            let _ = Parallelism::with_workers(4).par_map(&items, |&x| {
                obs::counter("par.test.inner").inc();
                x
            });
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("par.executor.tasks_executed"), Some(500));
        assert_eq!(
            snap.counter("par.test.inner"),
            Some(500),
            "f's metrics follow the scope"
        );
        assert_eq!(snap.counter("par.executor.sweeps"), Some(1));
        assert_eq!(obs::global().snapshot().counter("par.test.inner"), None);
    }

    #[test]
    fn tasks_executed_is_invariant_across_worker_counts() {
        let items: Vec<u64> = (0..333).collect();
        for workers in [1, 2, 5, 16] {
            let reg = Arc::new(obs::Registry::new());
            obs::scoped(&reg, || {
                let _ = Parallelism::with_workers(workers).par_map(&items, |&x| x + 1);
            });
            assert_eq!(
                reg.snapshot().counter("par.executor.tasks_executed"),
                Some(333),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn borrows_captured_context() {
        let offsets = [10u64, 20, 30];
        let items: Vec<usize> = vec![0, 1, 2, 0];
        let got = Parallelism::with_workers(2).par_map(&items, |&i| offsets[i]);
        assert_eq!(got, vec![10, 20, 30, 10]);
    }
}
