//! Poison-tolerant locking for the serving layer: [`relock`] (shared with
//! fp-trace, where the rationale is written down) plus its `Condvar`
//! counterpart.

use std::sync::{Condvar, MutexGuard, PoisonError};

pub use fp_trace::sync::relock;

/// [`Condvar::wait`] that survives poisoning, mirroring [`relock`].
pub(crate) fn rewait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    // The one `Condvar::wait` call of the workspace (clippy.toml bans the rest).
    #[expect(clippy::disallowed_methods)]
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}
