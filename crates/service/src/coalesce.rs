//! The cross-request coalescing index, split out of the shard worker.
//!
//! This module owns the *pure* bookkeeping of
//! [`ServiceConfig::coalesce`](crate::ServiceConfig): which addresses have
//! an ORAM access in flight, which duplicate-address requests are parked
//! on them, and how a finished access's result fans out (reads observe the
//! youngest earlier write, writes acknowledge and become the new current
//! value, one flush write-back carries the final data). The shard worker
//! wraps these results into [`crate::ServiceCompletion`]s, records trace
//! counters, and submits the flush — all side effects stay in
//! `shard.rs`, so this structure is directly unit-testable.

use std::collections::HashMap;

/// A duplicate-address request parked on an in-flight access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Waiter {
    /// Tag echoed in the waiter's completion.
    pub tag: u64,
    /// `true` for writes (which acknowledge with empty data).
    pub write: bool,
    /// Write payload (empty for reads).
    pub data: Vec<u8>,
    /// Arrival time, simulated picoseconds.
    pub arrival_ps: u64,
    /// Absolute deadline, if any.
    pub deadline_ps: Option<u64>,
}

/// One in-flight address in the coalescing index.
#[derive(Debug)]
struct CoalesceEntry {
    /// Payload the in-flight access itself writes (anchor write or
    /// flush), consulted before the data-as-read when resolving waiter
    /// reads — a read behind a write must observe the written value.
    anchor_write: Option<Vec<u8>>,
    /// Parked duplicates, in arrival order.
    waiters: Vec<Waiter>,
}

/// One waiter's answer after its anchor access completed.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct WaiterAnswer {
    /// The parked request being answered.
    pub waiter: Waiter,
    /// Response payload: the data the waiter read (empty for writes,
    /// which acknowledge without echoing their payload).
    pub data: Vec<u8>,
}

/// Everything that happens when an in-flight access completes.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Resolution {
    /// Per-waiter answers, in arrival order.
    pub answers: Vec<WaiterAnswer>,
    /// `Some(final_data)` when any waiter wrote: one write-back access
    /// must flush this last-writer-wins payload. The index has already
    /// re-armed the entry so requests arriving while the flush is in
    /// flight keep coalescing onto it.
    pub flush: Option<Vec<u8>>,
}

/// Address → in-flight entry map for one shard.
#[derive(Debug, Default)]
pub(crate) struct CoalesceIndex {
    entries: HashMap<u64, CoalesceEntry>,
}

impl CoalesceIndex {
    /// An empty index.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Distinct in-flight addresses currently tracked. (The worker reads
    /// occupancy from [`CoalesceIndex::insert_anchor`]'s return value;
    /// this accessor exists for the unit tests.)
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Parks `waiter` on `addr`'s in-flight entry. Returns the waiter
    /// back when no access to `addr` is outstanding — the caller must
    /// then submit a real access and [`CoalesceIndex::insert_anchor`].
    pub(crate) fn try_attach(&mut self, addr: u64, waiter: Waiter) -> Result<(), Waiter> {
        match self.entries.get_mut(&addr) {
            Some(entry) => {
                entry.waiters.push(waiter);
                Ok(())
            }
            None => Err(waiter),
        }
    }

    /// Registers a newly submitted access to `addr` as the anchor other
    /// requests can coalesce onto. `anchor_write` is the payload when the
    /// access itself is a write. Returns the index occupancy after the
    /// insert (for the high-water counter).
    pub(crate) fn insert_anchor(&mut self, addr: u64, anchor_write: Option<Vec<u8>>) -> u64 {
        self.entries.insert(
            addr,
            CoalesceEntry {
                anchor_write,
                waiters: Vec::new(),
            },
        );
        self.entries.len() as u64
    }

    /// Empties the index, yielding `(tag, addr)` of every parked waiter —
    /// the requests a dying shard must still answer.
    pub(crate) fn drain_waiters(&mut self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.entries
            .drain()
            .flat_map(|(addr, e)| e.waiters.into_iter().map(move |w| (w.tag, addr)))
    }

    /// Resolves the completed access to `addr`: answers every parked
    /// waiter in arrival order and decides whether a flush write-back is
    /// needed. `data_as_read` is the completion's payload (what the tree
    /// held). Returns `None` when `addr` has no entry (coalescing
    /// disabled for it, or an engine-internal completion).
    pub(crate) fn resolve(&mut self, addr: u64, data_as_read: Vec<u8>) -> Option<Resolution> {
        let entry = self.entries.remove(&addr)?;
        let mut current = entry.anchor_write.unwrap_or(data_as_read);
        let mut dirty = false;
        let mut answers = Vec::with_capacity(entry.waiters.len());
        for w in entry.waiters {
            let data = if w.write {
                dirty = true;
                current = w.data.clone();
                Vec::new()
            } else {
                current.clone()
            };
            answers.push(WaiterAnswer { waiter: w, data });
        }
        let flush = if dirty {
            // Re-arm the entry so requests arriving while the flush is in
            // flight keep coalescing onto it.
            self.entries.insert(
                addr,
                CoalesceEntry {
                    anchor_write: Some(current.clone()),
                    waiters: Vec::new(),
                },
            );
            Some(current)
        } else {
            None
        };
        Some(Resolution { answers, flush })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn waiter(tag: u64, write: bool, data: Vec<u8>) -> Waiter {
        Waiter {
            tag,
            write,
            data,
            arrival_ps: tag * 10,
            deadline_ps: None,
        }
    }

    #[test]
    fn attach_requires_an_anchor() {
        let mut ix = CoalesceIndex::new();
        let w = waiter(1, false, Vec::new());
        let back = ix.try_attach(5, w.clone()).unwrap_err();
        assert_eq!(back, w, "no anchor: the waiter comes back unchanged");
        assert_eq!(ix.insert_anchor(5, None), 1);
        ix.try_attach(5, w).unwrap();
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn occupancy_counts_distinct_addresses() {
        let mut ix = CoalesceIndex::new();
        assert_eq!(ix.insert_anchor(1, None), 1);
        assert_eq!(ix.insert_anchor(2, None), 2);
        // Re-inserting an address does not grow the index.
        assert_eq!(ix.insert_anchor(1, None), 2);
    }

    #[test]
    fn reads_share_the_data_as_read() {
        let mut ix = CoalesceIndex::new();
        ix.insert_anchor(7, None);
        ix.try_attach(7, waiter(1, false, Vec::new())).unwrap();
        ix.try_attach(7, waiter(2, false, Vec::new())).unwrap();
        let r = ix.resolve(7, vec![0xAA; 4]).unwrap();
        assert_eq!(r.answers.len(), 2);
        assert!(r.answers.iter().all(|a| a.data == vec![0xAA; 4]));
        assert_eq!(r.flush, None, "pure reads need no write-back");
        assert_eq!(ix.len(), 0, "clean resolution clears the entry");
    }

    #[test]
    fn reads_behind_an_anchor_write_observe_its_payload() {
        let mut ix = CoalesceIndex::new();
        ix.insert_anchor(7, Some(vec![0xBB; 4]));
        ix.try_attach(7, waiter(1, false, Vec::new())).unwrap();
        let r = ix.resolve(7, vec![0xAA; 4]).unwrap();
        assert_eq!(
            r.answers[0].data,
            vec![0xBB; 4],
            "the anchor's own write shadows the data as read"
        );
        assert_eq!(r.flush, None, "the anchor access already wrote it");
    }

    #[test]
    fn last_writer_wins_and_flushes_once() {
        let mut ix = CoalesceIndex::new();
        ix.insert_anchor(7, None);
        ix.try_attach(7, waiter(1, true, vec![1; 4])).unwrap();
        ix.try_attach(7, waiter(2, false, Vec::new())).unwrap();
        ix.try_attach(7, waiter(3, true, vec![3; 4])).unwrap();
        ix.try_attach(7, waiter(4, false, Vec::new())).unwrap();
        let r = ix.resolve(7, vec![0; 4]).unwrap();
        // Writes acknowledge empty; reads observe the youngest earlier
        // write; the flush carries the final value.
        assert!(r.answers[0].data.is_empty());
        assert_eq!(r.answers[1].data, vec![1; 4]);
        assert!(r.answers[2].data.is_empty());
        assert_eq!(r.answers[3].data, vec![3; 4]);
        assert_eq!(r.flush, Some(vec![3; 4]));
        // The entry re-armed: new arrivals coalesce onto the flush.
        ix.try_attach(7, waiter(5, false, Vec::new())).unwrap();
        let r2 = ix.resolve(7, vec![9; 4]).unwrap();
        assert_eq!(
            r2.answers[0].data,
            vec![3; 4],
            "a read during the flush observes the flushed value"
        );
        assert_eq!(r2.flush, None);
    }

    #[test]
    fn resolve_without_entry_is_none() {
        let mut ix = CoalesceIndex::new();
        assert!(ix.resolve(9, Vec::new()).is_none());
    }
}
