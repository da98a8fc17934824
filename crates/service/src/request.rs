//! Request/completion types of the service boundary.

use fp_path_oram::Op;

/// One client request into the service, addressed in the *global* block
/// address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceRequest {
    /// Global block address (`0..ServiceConfig::oram.data_blocks`).
    pub addr: u64,
    /// Direction.
    pub op: Op,
    /// Payload for writes (ignored for reads).
    pub data: Vec<u8>,
    /// Arrival time on the simulated clock, picoseconds.
    pub arrival_ps: u64,
    /// Absolute simulated-time deadline; `None` means the request has none.
    pub deadline_ps: Option<u64>,
    /// Opaque routing tag echoed in the completion.
    pub tag: u64,
}

impl ServiceRequest {
    /// A read of `addr` arriving at `arrival_ps`, no explicit deadline.
    pub fn read(addr: u64, arrival_ps: u64, tag: u64) -> Self {
        Self {
            addr,
            op: Op::Read,
            data: Vec::new(),
            arrival_ps,
            deadline_ps: None,
            tag,
        }
    }

    /// A write of `data` to `addr` arriving at `arrival_ps`.
    pub fn write(addr: u64, data: Vec<u8>, arrival_ps: u64, tag: u64) -> Self {
        Self {
            addr,
            op: Op::Write,
            data,
            arrival_ps,
            deadline_ps: None,
            tag,
        }
    }
}

/// How a request left the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionStatus {
    /// Completed within its deadline (or carried none).
    Ok,
    /// Completed, but after its deadline had passed.
    Late,
    /// Never executed: its deadline had already passed at admission. The
    /// shard charges no ORAM access for it.
    Expired,
    /// Not served: the owning shard's worker died (controller error or
    /// panic) after accepting it. The dying worker answers every request
    /// it accepted and had not answered with this status.
    ShardDown,
}

impl CompletionStatus {
    /// Stable snake_case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CompletionStatus::Ok => "ok",
            CompletionStatus::Late => "late",
            CompletionStatus::Expired => "expired",
            CompletionStatus::ShardDown => "shard_down",
        }
    }
}

/// One finished (or expired) request, reported back to the submitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceCompletion {
    /// Tag from the originating request.
    pub tag: u64,
    /// Shard that served the request.
    pub shard: usize,
    /// Global block address.
    pub addr: u64,
    /// Outcome: served (`Ok`/`Late`), expired, or shard down.
    pub status: CompletionStatus,
    /// Simulated completion latency (`done - arrival`); 0 when the
    /// request never executed (expired or shard down).
    pub latency_ps: u64,
    /// Data as read for read requests. Writes acknowledge with empty
    /// data (their payload echo is never meaningful), as do expired and
    /// shard-down requests, which were never served.
    pub data: Vec<u8>,
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The target shard's bounded queue is full — back off and retry.
    Busy,
    /// The service is draining; no new requests are accepted.
    Shutdown,
    /// The address lies outside the service's global address space.
    OutOfRange,
    /// The owning shard's worker died (controller failure or panic) and
    /// its addresses are unserviceable; other shards keep serving.
    /// Retrying cannot help — unlike [`SubmitError::Busy`], this is final
    /// for the address until the service is rebuilt.
    ShardDown,
    /// Not the replay script's (wrong index, stamp or shard, or sent
    /// before), or a live submission to a replay.
    Unscripted,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy => write!(f, "shard queue full (backpressure)"),
            SubmitError::Shutdown => write!(f, "service is shutting down"),
            SubmitError::OutOfRange => write!(f, "address outside the service address space"),
            SubmitError::ShardDown => write!(f, "owning shard is dead (failed over)"),
            SubmitError::Unscripted => write!(f, "request not in the replay script"),
        }
    }
}

impl std::error::Error for SubmitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_fill_defaults() {
        let r = ServiceRequest::read(7, 100, 3);
        assert_eq!(r.op, Op::Read);
        assert!(r.data.is_empty());
        assert_eq!(r.deadline_ps, None);
        let w = ServiceRequest::write(7, vec![1, 2], 100, 3);
        assert_eq!(w.op, Op::Write);
        assert_eq!(w.data, vec![1, 2]);
    }

    #[test]
    fn status_names_are_stable() {
        assert_eq!(CompletionStatus::Ok.name(), "ok");
        assert_eq!(CompletionStatus::Late.name(), "late");
        assert_eq!(CompletionStatus::Expired.name(), "expired");
        assert_eq!(CompletionStatus::ShardDown.name(), "shard_down");
    }

    #[test]
    fn submit_error_displays() {
        assert!(SubmitError::Busy.to_string().contains("backpressure"));
        assert!(SubmitError::Shutdown.to_string().contains("shutting down"));
        assert!(SubmitError::ShardDown.to_string().contains("dead"));
    }
}
