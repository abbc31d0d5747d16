//! Parallel execution: the work-conserving hybrid pool.
//!
//! Two layers of parallelism used to own separate pools — the
//! [`Scenario`](crate::Scenario) cell loop scheduled *independent
//! simulation runs* (one per grid cell), while
//! [`crate::engine::run_parallel`] sharded *one simulation* per
//! neighborhood — and a sweep containing one big sharded cell serialized
//! behind it. Both layers now draw workers from one process-wide
//! **permit ledger** sized to `default_threads`:
//!
//! * the calling thread always works (an implicit permit), so every
//!   entry point makes progress even when the machine is saturated —
//!   acquisition never blocks and nesting cannot deadlock;
//! * extra workers exist only while a `Permit` is held; a permit
//!   returns to the ledger the moment its worker runs out of work, not
//!   when the whole call finishes;
//! * `run_indexed` **recruits**: between jobs, its workers check the
//!   ledger and spawn additional scoped workers when capacity has been
//!   freed elsewhere. A sweep that started single-file while a sharded
//!   job held the machine fans out as soon as that job's shards drain —
//!   and vice versa, small grid cells pack around a big sharded job
//!   instead of idling behind it.
//!
//! The blocked streaming replay ([`crate::engine`]'s cooperative tasks)
//! sizes its worker set from the same ledger at entry; its shard tasks
//! cannot migrate between workers mid-run, so it does not recruit, but
//! its permits still free early as workers finish. (Streaming shards that
//! decode their own chunks are `run_indexed` jobs like the resident
//! ones.)
//!
//! Scheduling never changes results: `run_indexed` returns results in
//! index order no matter which worker ran which job, and every engine
//! path is bit-identical across worker counts by construction.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::Scope;

/// The process-wide extra-worker budget: `default_threads() - 1` units
/// (the caller's own thread is the implicit extra). Shared by the sweep
/// and shard layers so their composition cannot oversubscribe the
/// machine.
struct Ledger {
    free: Mutex<usize>,
}

fn ledger() -> &'static Ledger {
    static LEDGER: OnceLock<Ledger> = OnceLock::new();
    LEDGER.get_or_init(|| Ledger {
        free: Mutex::new(default_threads().saturating_sub(1)),
    })
}

/// One unit of worker capacity checked out of the ledger; returns on
/// drop — including during unwinding, so a panicking worker never leaks
/// capacity.
pub(crate) struct Permit(());

impl Drop for Permit {
    fn drop(&mut self) {
        *ledger().free.lock().expect("worker ledger poisoned") += 1;
    }
}

/// Takes one extra-worker permit if the ledger has capacity. Never
/// blocks: a caller that gets `None` simply does the work on its own
/// thread.
pub(crate) fn take_permit() -> Option<Permit> {
    let mut free = ledger().free.lock().expect("worker ledger poisoned");
    if *free == 0 {
        return None;
    }
    *free -= 1;
    Some(Permit(()))
}

/// Takes up to `want` permits (possibly zero — whatever the ledger has).
pub(crate) fn take_permits(want: usize) -> Vec<Permit> {
    let mut free = ledger().free.lock().expect("worker ledger poisoned");
    let n = (*free).min(want);
    *free -= n;
    (0..n).map(|_| Permit(())).collect()
}

/// Shared state of one `run_indexed` call: the stolen-index counter, the
/// recruitment budget, and the result sink.
struct IndexedRun<'env, R, F> {
    count: usize,
    /// Max workers ever active at once (caller included).
    cap: usize,
    next: AtomicUsize,
    /// Workers spawned so far (caller excluded); only grows, so `cap` is
    /// an upper bound on concurrency, not a steady-state target.
    spawned: AtomicUsize,
    sink: Mutex<Vec<(u32, R)>>,
    job: &'env F,
}

impl<R: Send, F: Fn(usize) -> R + Sync> IndexedRun<'_, R, F> {
    /// Claims indexes off the shared counter until none remain; between
    /// jobs, tries to recruit another worker for the leftover indexes if
    /// the ledger has freed capacity. The permit (if any) releases when
    /// this worker runs dry.
    fn work<'scope, 'env2>(
        &'env2 self,
        scope: &'scope Scope<'scope, 'env2>,
        permit: Option<Permit>,
    ) {
        let _permit = permit;
        let mut mine: Vec<(u32, R)> = Vec::new();
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.count {
                break;
            }
            self.recruit(scope);
            mine.push((i as u32, (self.job)(i)));
        }
        if !mine.is_empty() {
            self.sink
                .lock()
                .expect("pool result sink poisoned")
                .extend(mine);
        }
    }

    /// Spawns at most one extra worker — if the cap allows it, unclaimed
    /// indexes remain, and the ledger grants a permit. Called once per
    /// job, so fan-out is gradual and stops the moment the ledger dries
    /// up again.
    fn recruit<'scope, 'env2>(&'env2 self, scope: &'scope Scope<'scope, 'env2>) {
        loop {
            let spawned = self.spawned.load(Ordering::Relaxed);
            if spawned + 1 >= self.cap || self.next.load(Ordering::Relaxed) >= self.count {
                return;
            }
            if self
                .spawned
                .compare_exchange(spawned, spawned + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            let Some(permit) = take_permit() else {
                // Give the budget slot back so a later attempt (after the
                // ledger refills) can still use it.
                self.spawned.fetch_sub(1, Ordering::Relaxed);
                return;
            };
            scope.spawn(move || self.work(scope, Some(permit)));
            return;
        }
    }
}

/// Runs `job(0..count)` on up to `threads` workers (clamped to `count`),
/// collecting results in index order. Single-threaded requests run inline
/// with no pool setup.
///
/// Work is stolen index-by-index off a shared atomic counter; each worker
/// batches its `(index, result)` pairs privately and results are stitched
/// back into index order once, at the end. Workers beyond the caller come
/// from the shared [`Ledger`] and are recruited *during* the run as
/// capacity frees up elsewhere, so `threads` is a ceiling — the actual
/// worker count adapts to what the rest of the process is doing.
pub(crate) fn run_indexed<R, F>(count: usize, threads: usize, job: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    let cap = threads.clamp(1, count);
    if cap == 1 {
        return (0..count).map(job).collect();
    }

    let shared = IndexedRun {
        count,
        cap,
        next: AtomicUsize::new(0),
        spawned: AtomicUsize::new(0),
        sink: Mutex::new(Vec::with_capacity(count)),
        job: &job,
    };
    std::thread::scope(|scope| shared.work(scope, None));

    let mut merged: Vec<Option<R>> = (0..count).map(|_| None).collect();
    for (i, result) in shared.sink.into_inner().expect("pool result sink poisoned") {
        merged[i as usize] = Some(result);
    }
    merged
        .into_iter()
        .map(|slot| slot.expect("every job index was visited"))
        .collect()
}

/// The default worker count: every available core.
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_visits_every_index_in_order() {
        for threads in [1, 2, 7] {
            let out = run_indexed(23, threads, |i| i * i);
            assert_eq!(
                out,
                (0..23).map(|i| i * i).collect::<Vec<_>>(),
                "threads {threads}"
            );
        }
        assert!(run_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn nested_runs_share_the_ledger_without_deadlock() {
        // A sweep of sharded-shaped jobs: each outer job fans out again.
        // Whatever the ledger hands out, every index at both levels must
        // run exactly once and land in order.
        let out = run_indexed(5, 4, |outer| run_indexed(7, 4, move |inner| (outer, inner)));
        for (outer, inners) in out.into_iter().enumerate() {
            assert_eq!(
                inners,
                (0..7).map(|inner| (outer, inner)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn drained_ledger_still_completes_inline() {
        // With every permit checked out, run_indexed degrades to the
        // caller's thread alone — and still visits every index.
        let hoard = take_permits(usize::MAX);
        let out = run_indexed(11, 8, |i| i + 1);
        assert_eq!(out, (1..=11).collect::<Vec<_>>());
        drop(hoard);
    }
}
