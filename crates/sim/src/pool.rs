//! A shared pool of reusable [`SimWorkspace`] arenas.
//!
//! PR 2 made workspace reuse zero-alloc for a *single* caller; this pool
//! makes it concurrent. Callers [`WorkspacePool::checkout`] an arena,
//! simulate through it, and return it by dropping the guard — the
//! workspace keeps its grown capacity, so steady-state traffic (the
//! `mkss-serve` daemon, the bench harness workers) simulates without
//! per-run allocation no matter which thread picks which arena.
//!
//! The pool replaces the private `thread_local!` workspaces that
//! `mkss-bench`'s experiment pipeline and `mkss-cli compare` used to
//! hide: a thread-local arena is invisible to its owner (it cannot be
//! pre-warmed, sized, or shared across thread pools), while a pool is a
//! real object with an inspectable idle count.
//!
//! Checkout order is deliberately unspecified (LIFO today, for cache
//! warmth); simulation results never depend on *which* workspace runs a
//! job, only on the job itself — that is exactly the reuse guarantee
//! `tests/workspace_differential.rs` pins.

use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

use crate::engine::SimWorkspace;

/// A thread-safe pool of reusable simulation arenas.
///
/// ```
/// use mkss_core::prelude::*;
/// use mkss_sim::pool::WorkspacePool;
/// use mkss_sim::prelude::*;
/// # use mkss_sim::policy::{Policy, ReleaseCtx, ReleaseDecision};
/// # struct Dup;
/// # impl Policy for Dup {
/// #     fn name(&self) -> &str { "dup" }
/// #     fn on_release(&mut self, _ctx: &ReleaseCtx<'_>) -> ReleaseDecision {
/// #         ReleaseDecision::Mandatory {
/// #             main_proc: ProcId::PRIMARY,
/// #             backup_delay: Time::ZERO,
/// #         }
/// #     }
/// # }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ts = TaskSet::new(vec![Task::from_ms(10, 10, 2, 1, 2)?])?;
/// let config = SimConfig::builder().horizon_ms(50).build();
/// let pool = WorkspacePool::new();
/// std::thread::scope(|scope| {
///     for _ in 0..4 {
///         scope.spawn(|| {
///             let mut ws = pool.checkout();
///             let report = simulate_in(&mut ws, &ts, &mut Dup, &config);
///             assert!(report.mk_assured());
///         });
///     }
/// });
/// assert!(pool.idle() >= 1); // arenas returned on guard drop
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct WorkspacePool {
    free: Mutex<Vec<SimWorkspace>>,
}

impl WorkspacePool {
    /// An empty pool; workspaces are created lazily on checkout misses.
    pub fn new() -> WorkspacePool {
        WorkspacePool::default()
    }

    /// Workspaces currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.lock_free().len()
    }

    /// Checks a workspace out of the pool (creating one when every arena
    /// is in use). Dropping the returned guard puts it back — with any
    /// attached recorder detached first, so observability never leaks
    /// from one checkout to the next.
    pub fn checkout(&self) -> PooledWorkspace<'_> {
        let ws = self.lock_free().pop().unwrap_or_default();
        PooledWorkspace {
            ws: Some(ws),
            pool: self,
        }
    }

    /// Locks the free list, recovering from poisoning (a panicked
    /// simulation must not wedge every other worker's checkout).
    fn lock_free(&self) -> std::sync::MutexGuard<'_, Vec<SimWorkspace>> {
        match self.free.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn give_back(&self, mut ws: SimWorkspace) {
        ws.set_recorder(None);
        self.lock_free().push(ws);
    }
}

/// RAII checkout guard: dereferences to the [`SimWorkspace`] and returns
/// it to the pool on drop.
#[derive(Debug)]
pub struct PooledWorkspace<'p> {
    /// `Some` until dropped or [`PooledWorkspace::detach`]ed.
    ws: Option<SimWorkspace>,
    pool: &'p WorkspacePool,
}

impl PooledWorkspace<'_> {
    /// Takes the workspace out of the guard permanently; it will **not**
    /// return to the pool.
    #[expect(
        clippy::expect_used,
        reason = "`ws` is only None after drop/detach, and both consume the guard"
    )]
    pub fn detach(mut self) -> SimWorkspace {
        self.ws.take().expect("guard still holds its workspace")
    }
}

impl Deref for PooledWorkspace<'_> {
    type Target = SimWorkspace;

    #[expect(
        clippy::expect_used,
        reason = "`ws` is only None after drop/detach, and both consume the guard"
    )]
    fn deref(&self) -> &SimWorkspace {
        self.ws.as_ref().expect("guard still holds its workspace")
    }
}

impl DerefMut for PooledWorkspace<'_> {
    #[expect(
        clippy::expect_used,
        reason = "`ws` is only None after drop/detach, and both consume the guard"
    )]
    fn deref_mut(&mut self) -> &mut SimWorkspace {
        self.ws.as_mut().expect("guard still holds its workspace")
    }
}

impl Drop for PooledWorkspace<'_> {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            self.pool.give_back(ws);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn checkout_reuses_returned_workspaces() {
        let pool = WorkspacePool::new();
        assert_eq!(pool.idle(), 0);
        {
            let _a = pool.checkout();
            let _b = pool.checkout();
            assert_eq!(pool.idle(), 0);
        }
        assert_eq!(pool.idle(), 2);
        {
            let _c = pool.checkout();
            assert_eq!(pool.idle(), 1);
        }
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn recorder_is_detached_on_return() {
        let pool = WorkspacePool::new();
        {
            let mut ws = pool.checkout();
            ws.set_recorder(Some(Arc::new(mkss_obs::NoopRecorder)));
            assert!(ws.has_recorder());
        }
        let ws = pool.checkout();
        assert!(!ws.has_recorder(), "recorder leaked across pool checkouts");
    }

    #[test]
    fn detach_removes_from_pool() {
        let pool = WorkspacePool::new();
        let guard = pool.checkout();
        let ws = guard.detach();
        drop(ws);
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn concurrent_checkouts_are_safe() {
        let pool = WorkspacePool::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        let _ws = pool.checkout();
                    }
                });
            }
        });
        assert!(pool.idle() >= 1 && pool.idle() <= 8);
    }
}
