//! Parallel execution: the work-conserving hybrid pool.
//!
//! Two layers of parallelism used to own separate pools — the
//! [`Scenario`](crate::Scenario) cell loop scheduled *independent
//! simulation runs* (one per grid cell), while
//! the [`Simulation`](crate::Simulation) builder sharded *one simulation* per
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
//! * the pool **recruits**: between jobs, its workers check the
//!   ledger and spawn additional scoped workers when capacity has been
//!   freed elsewhere. A sweep that started single-file while a sharded
//!   job held the machine fans out as soon as that job's shards drain —
//!   and vice versa, small grid cells pack around a big sharded job
//!   instead of idling behind it.
//!
//! The pool has one way to hand out work, `for_each`: its workers claim
//! the items of an iterator one at a time under a lock that is never held
//! while a job runs. Over `slice.iter_mut()` that gives each job a slot of
//! its own by `&mut`. `run_indexed` is `for_each` over one result slot
//! an index. Every engine path runs its shards here: the resident plan
//! and the sweep fast path as one `run_indexed` call, a shard a job; the
//! block loop (`engine::shard::BlockLoop`) as one `for_each` a block over
//! its drivers, so a driver may move to another worker between blocks.
//!
//! A job that panics stops the run claiming further items, and its own
//! payload resumes on the caller's thread once every worker is out — on a
//! recruited worker as on the caller's own.
//!
//! Scheduling never changes results: a job writes only its own slot,
//! `run_indexed` returns results in index order no matter which worker
//! ran which job, and every engine path is bit-identical across worker
//! counts by construction.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
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
#[cfg(test)]
pub(crate) fn take_permits(want: usize) -> Vec<Permit> {
    let mut free = ledger().free.lock().expect("worker ledger poisoned");
    let n = (*free).min(want);
    *free -= n;
    (0..n).map(|_| Permit(())).collect()
}

/// Shared state of one [`for_each`] call: the items no worker has
/// claimed yet, the recruitment budget, and the first panic a job raised.
struct Claims<'env, I, F> {
    /// Max workers ever active at once (caller included).
    cap: usize,
    /// The unclaimed items, locked only to claim the next one — never
    /// while a job runs — and `None` once a job panicked.
    items: Mutex<Option<I>>,
    /// Workers spawned so far (caller excluded); only grows, so `cap` is
    /// an upper bound on concurrency, not a steady-state target.
    spawned: AtomicUsize,
    panicked: Mutex<Option<Box<dyn Any + Send>>>,
    job: &'env F,
}

impl<I: ExactSizeIterator + Send, F: Fn(I::Item) + Sync> Claims<'_, I, F> {
    /// Claims items until none remain; between jobs, tries to recruit
    /// another worker for the leftover items if the ledger has freed
    /// capacity. The permit (if any) releases when this worker runs dry.
    /// A job that panics is not left to unwind the worker —
    /// `std::thread::scope` would replace its payload with one of its own
    /// — but kept, the first one only, and the items dropped so that no
    /// worker claims another.
    fn work<'scope, 'env2>(
        &'env2 self,
        scope: &'scope Scope<'scope, 'env2>,
        permit: Option<Permit>,
    ) {
        let _permit = permit;
        loop {
            let claimed = {
                let mut items = self.items.lock().expect("no claim panics");
                items
                    .as_mut()
                    .and_then(|items| Some((items.next()?, items.len())))
            };
            let Some((item, left)) = claimed else { break };
            if left > 0 {
                self.recruit(scope);
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.job)(item))) {
                *self.items.lock().expect("no claim panics") = None;
                self.panicked
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get_or_insert(payload);
                return;
            }
        }
    }

    /// Spawns at most one extra worker — if the cap allows it and the
    /// ledger grants a permit. Called once per job that leaves items
    /// unclaimed, so fan-out is gradual and stops the moment the ledger
    /// dries up again.
    fn recruit<'scope, 'env2>(&'env2 self, scope: &'scope Scope<'scope, 'env2>) {
        loop {
            let spawned = self.spawned.load(Ordering::Relaxed);
            if spawned + 1 >= self.cap {
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

/// Runs `job` on every item of `items`, on up to `threads` workers
/// (clamped to the item count). Single-threaded requests are a plain loop
/// on the caller's thread: no lock, no allocation.
///
/// Work is stolen item by item: a worker locks the iterator only to claim
/// its next item, so a job gets its item — a `&mut` slot, when `items`
/// iterates a slice mutably — to itself. Workers beyond the caller come
/// from the shared [`Ledger`] and are recruited *during* the run as
/// capacity frees up elsewhere, so `threads` is a ceiling — the actual
/// worker count adapts to what the rest of the process is doing.
///
/// # Panics
///
/// Resumes the first panicking job's own payload on the caller's thread,
/// whichever worker ran it, once every worker is out.
pub(crate) fn for_each<I, F>(items: I, threads: usize, job: F)
where
    I: ExactSizeIterator + Send,
    F: Fn(I::Item) + Sync,
{
    let cap = threads.clamp(1, items.len().max(1));
    if cap == 1 {
        items.for_each(job);
        return;
    }
    let claims = Claims {
        cap,
        items: Mutex::new(Some(items)),
        spawned: AtomicUsize::new(0),
        panicked: Mutex::new(None),
        job: &job,
    };
    std::thread::scope(|scope| claims.work(scope, None));
    if let Some(payload) = claims
        .panicked
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        resume_unwind(payload);
    }
}

/// Runs `job(0..count)` on up to `threads` workers, collecting results in
/// index order: [`for_each`] over one result slot an index.
///
/// # Panics
///
/// As [`for_each`].
pub(crate) fn run_indexed<R, F>(count: usize, threads: usize, job: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = (0..count).map(|_| None).collect();
    for_each(slots.iter_mut().enumerate(), threads, |(i, slot)| {
        *slot = Some(job(i));
    });
    slots
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
            // The slot form: every call hands each slot to one job, once.
            let mut slots = vec![0u32; 23];
            for call in 1..=3 {
                for_each(slots.iter_mut(), threads, |slot| *slot += 1);
                assert_eq!(slots, vec![call; 23], "threads {threads}, call {call}");
            }
        }
        assert!(run_indexed(0, 4, |i| i).is_empty());
        for_each(std::iter::empty::<()>(), 4, |()| unreachable!());
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
    fn a_panic_on_a_recruited_worker_resumes_with_its_own_payload() {
        // The caller's own jobs wait a little, so that a recruited worker
        // claims some; a job there panics. The caller must get that
        // job's payload, not a generic "a scoped thread panicked". The
        // ledger is shared with the tests running beside this one, so a
        // run may find it dry and do every job itself: try again.
        let caller = std::thread::current().id();
        let job = |i: usize| {
            if std::thread::current().id() != caller {
                std::panic::panic_any(format!("job {i} panics on a worker"));
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        };
        let mut slots: Vec<usize> = (0..16).collect();
        let forms: [(&str, &mut dyn FnMut()); 2] = [
            ("indexed", &mut || drop(run_indexed(16, 2, job))),
            ("slots", &mut || {
                for_each(slots.iter_mut(), 2, |slot| job(*slot))
            }),
        ];
        'forms: for (form, run) in forms {
            for _ in 0..500 {
                let Err(payload) = catch_unwind(AssertUnwindSafe(&mut *run)) else {
                    continue;
                };
                let message = payload.downcast_ref::<String>();
                assert!(
                    message.is_some_and(|m| m.ends_with(" panics on a worker")),
                    "{form}: the caller got another payload: {:?}",
                    payload.downcast_ref::<&str>()
                );
                continue 'forms;
            }
            assert_eq!(default_threads(), 1, "{form}: no worker was ever recruited");
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
