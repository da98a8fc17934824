//! Typed controller errors.
//!
//! The Fork Path controller is deterministic and its internal bookkeeping
//! invariants (every label-queue entry names a live flight, every chain
//! index stays inside its chain, …) are unreachable-by-construction. They
//! are surfaced as a typed [`ControllerError`], which every
//! [`crate::OramEngine`] method that does work returns, alongside the
//! integrity and stash-overflow faults a driver must survive. Only the
//! calls that cannot return one — the panicking constructor
//! [`crate::ForkPathController::new`] and the fixed-rate stream of
//! [`crate::timing`] — turn an error into a panic.

use std::fmt;

/// Internal invariant violations of the Fork Path controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControllerError {
    /// The Fork configuration failed validation.
    InvalidConfig(String),
    /// A label-queue entry or stalled step referenced a flight id with no
    /// live flight record.
    UnknownFlight(u64),
    /// A flight's chain index ran past the end of its posmap chain.
    ChainIndexOutOfRange {
        /// The offending flight.
        flight: u64,
        /// The out-of-range chain index.
        idx: usize,
        /// The chain length.
        len: usize,
    },
    /// The refill's pending request vanished mid-replacement.
    MissingPending,
    /// A block's waiter queue was released by a flight that did not own it.
    NotBlockOwner {
        /// The unified address of the block.
        block: u64,
        /// The flight that attempted the release.
        flight: u64,
    },
    /// A bucket fetched from external memory failed the image-length check
    /// (a framing error or an injected fault). It does not detect
    /// tampering: nothing authenticates a bucket (DESIGN.md §2 item 6).
    Integrity {
        /// Tree node whose verification failed.
        node: u64,
    },
    /// The stash exceeded its configured capacity — Path ORAM's inherent
    /// (negligible-probability) failure mode, forceable by fault injection.
    StashOverflow {
        /// Blocks resident when the overflow was detected.
        occupancy: usize,
        /// Configured stash capacity in blocks.
        capacity: usize,
    },
}

impl fmt::Display for ControllerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidConfig(msg) => write!(f, "invalid fork config: {msg}"),
            Self::UnknownFlight(id) => write!(f, "no live flight with id {id}"),
            Self::ChainIndexOutOfRange { flight, idx, len } => {
                write!(
                    f,
                    "flight {flight}: chain index {idx} out of range (len {len})"
                )
            }
            Self::MissingPending => write!(f, "pending request vanished mid-replacement"),
            Self::NotBlockOwner { block, flight } => {
                write!(f, "flight {flight} released block {block} it does not own")
            }
            Self::Integrity { node } => {
                write!(f, "integrity violation at tree node {node}")
            }
            Self::StashOverflow {
                occupancy,
                capacity,
            } => {
                write!(
                    f,
                    "stash overflow: {occupancy} blocks > capacity {capacity}"
                )
            }
        }
    }
}

impl std::error::Error for ControllerError {}

impl From<fp_path_oram::IntegrityError> for ControllerError {
    fn from(e: fp_path_oram::IntegrityError) -> Self {
        Self::Integrity { node: e.node }
    }
}

/// Converts an internal-invariant error into a panic at the infallible API
/// boundary (`new`, `force_dummy_at`, the fixed-rate stream).
pub(crate) fn must<T>(r: Result<T, ControllerError>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("fork-path controller invariant violated: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ControllerError::UnknownFlight(7);
        assert_eq!(e.to_string(), "no live flight with id 7");
        let e = ControllerError::ChainIndexOutOfRange {
            flight: 1,
            idx: 4,
            len: 3,
        };
        assert!(e.to_string().contains("chain index 4"));
        let e = ControllerError::InvalidConfig("queue empty".into());
        assert!(e.to_string().contains("queue empty"));
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(ControllerError::MissingPending);
        assert!(e.to_string().contains("pending"));
    }
}
