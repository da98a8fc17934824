//! Poison-tolerant locking.
//!
//! A thread that panics while holding a `Mutex` poisons it. Everything
//! this workspace keeps under a shared lock is plain bookkeeping — event
//! rings, histograms, queues of owned values — that stays structurally
//! valid even if the last update was cut short, and whoever supervises
//! the panicked thread still needs it afterwards (to route completions,
//! snapshot partial counters, report which shard died). So poison is
//! never treated as fatal. The helper lives here because fp-trace is the
//! lowest crate holding a shared lock; `fp_service::sync` re-exports it.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard if a previous holder panicked.
pub fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // The one `Mutex::lock` call of the workspace (clippy.toml bans the rest).
    #[expect(clippy::disallowed_methods)]
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
