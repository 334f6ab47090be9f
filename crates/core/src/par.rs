//! Deterministic work-sharing over scoped threads.
//!
//! The experiment pipeline fans independent work items (task-set
//! simulations, buckets, replications) across a fixed worker pool built
//! on [`std::thread::scope`] — no external dependencies. Results are
//! merged back **by item index** into pre-sized slots, so the output of
//! [`map_indexed`] is bit-identical to the serial loop regardless of the
//! worker count or OS scheduling.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a `--jobs` knob: `0` means "use all available parallelism",
/// anything else is taken literally (minimum 1).
#[must_use]
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        jobs
    }
}

/// Applies `f` to every item of `items` using up to `jobs` worker threads
/// (`0` = available parallelism) and returns the results **in item
/// order**. Work is distributed dynamically (an atomic cursor), but each
/// result lands in its item's slot, so the output is identical to
/// `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()` — the
/// serial fallback actually used when `jobs` resolves to 1 or there is
/// at most one item.
///
/// # Panics
///
/// Panics if a worker thread panics (the panic is propagated).
#[expect(
    clippy::expect_used,
    reason = "the worker pool claims each index exactly once, so every slot is filled"
)]
pub fn map_indexed<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = effective_jobs(jobs).min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut harvested: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        // mkss-lint: ordering — index claim only: each i is processed by exactly one worker, and results flow back through scope join, which synchronizes
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(i, item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(local) => local,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for (i, r) in harvested.drain(..).flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index was claimed by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_jobs_resolves_zero() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }

    #[test]
    fn preserves_item_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial = map_indexed(1, &items, |i, &x| x * 3 + i as u64);
        for jobs in [2, 4, 16] {
            let parallel = map_indexed(jobs, &items, |i, &x| x * 3 + i as u64);
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(map_indexed(8, &empty, |_, &x| x).is_empty());
        assert_eq!(map_indexed(8, &[41u32], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn every_item_processed_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let items: Vec<usize> = (0..1000).collect();
        let out = map_indexed(0, &items, |i, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, x);
            x
        });
        assert_eq!(out.len(), 1000);
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..64).collect();
        map_indexed(4, &items, |_, &x| {
            assert!(x < 60, "boom");
            x
        });
    }
}
