//! Pipeline stage: **path merging** (§3.2, §4.1).
//!
//! Consecutive root-to-leaf paths always share a prefix (at least the
//! root). This stage computes the fork geometry of each access:
//!
//! * the **read floor** — the shallowest level the read phase must fetch,
//!   everything above being shared with the *previous* path and therefore
//!   still in the stash;
//! * the **write stop** — the shallowest level the refill must commit,
//!   everything above being shared with the *next* (pending) path and
//!   therefore allowed to stay in the stash.
//!
//! It also owns the previous-path label, whose lifecycle (commit on a
//! merged refill, reset across idle gaps) defines when merging applies.

use fp_path_oram::path::divergence_level;
use fp_trace::{Counter, EventKind, Tally};

/// The path-merging stage: fork-point computation over consecutive labels.
/// It counts into the engine's tally, which its counting calls are handed.
#[derive(Debug, Clone)]
pub struct PathMerger {
    enabled: bool,
    prev_label: Option<u64>,
}

impl PathMerger {
    /// Creates the stage; when `enabled` is false every access degenerates
    /// to full-path reads and writes (the ablation baseline).
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            prev_label: None,
        }
    }

    /// The previous access's label (`None` = next read takes a full path).
    pub(crate) fn prev_label(&self) -> Option<u64> {
        self.prev_label
    }

    /// Shallowest level the read phase of an access to `label` must fetch:
    /// one below the divergence with the previous path, or 0 (the root)
    /// when there is no previous path or merging is disabled. Counts the
    /// read, merged or full, in `tally`.
    ///
    /// The fork level is clamped to `levels` (the leaf): when consecutive
    /// labels are identical the divergence sits at the leaf itself, and an
    /// unclamped `divergence + 1` would name a level below the tree. The
    /// clamp means such an access re-reads exactly the leaf bucket.
    pub fn read_floor(&mut self, levels: u32, label: u64, tally: &mut Tally) -> u32 {
        match self.prev_label {
            Some(prev) if self.enabled => {
                let floor = (divergence_level(levels, prev, label) + 1).min(levels);
                tally.bump(Counter::MergedReads);
                tally.add(Counter::ReadLevelsSkipped, u64::from(floor));
                tally.record_now(EventKind::RequestMerged {
                    label,
                    fork_level: floor,
                });
                floor
            }
            _ => {
                tally.bump(Counter::FullReads);
                0
            }
        }
    }

    /// Shallowest level the refill of `leaf` must commit given the pending
    /// request's label: one below their divergence (clamped to the leaf
    /// level, like [`PathMerger::read_floor`]), or 0 (commit the whole
    /// path) when idle or merging is disabled. A mid-refill replacement
    /// retargets the stream with the same rule: it forks with the incoming
    /// path only if that path's read will skip the shared prefix, so with
    /// merging disabled the refill still commits every level.
    pub fn write_stop(&self, levels: u32, leaf: u64, pending_label: Option<u64>) -> u32 {
        match pending_label {
            Some(next) if self.enabled => (divergence_level(levels, leaf, next) + 1).min(levels),
            _ => 0,
        }
    }

    /// Records that a refill of `leaf` handed its shared prefix to a
    /// pending request: the next read merges against `leaf`.
    pub fn commit(&mut self, leaf: u64) {
        self.prev_label = Some(leaf);
    }

    /// Drops the anchor: the controller went idle (full path written), so
    /// the next read must fetch a complete path. Counts the reset in
    /// `tally`.
    pub(crate) fn reset(&mut self, tally: &mut Tally) {
        if self.prev_label.take().is_some() {
            tally.bump(Counter::MergeResets);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_floor_skips_exactly_the_shared_prefix() {
        let levels = 10u32;
        let mut tally = Tally::default();
        let mut m = PathMerger::new(true);
        assert_eq!(
            m.read_floor(levels, 5, &mut tally),
            0,
            "cold start reads the full path"
        );
        m.commit(5);
        let floor = m.read_floor(levels, 7, &mut tally);
        // Levels 0..=divergence are the common prefix; `floor` is the
        // first level below it.
        let shared = divergence_level(levels, 5, 7) + 1;
        assert_eq!(floor, shared);
        assert_eq!(tally.counter(Counter::MergedReads), 1);
        assert_eq!(tally.counter(Counter::FullReads), 1);
        assert_eq!(tally.counter(Counter::ReadLevelsSkipped), u64::from(shared));
    }

    #[test]
    fn equal_labels_share_the_entire_path() {
        // Identical consecutive labels diverge at the leaf itself; the
        // fork level clamps to `levels`, so exactly the leaf bucket is
        // re-read and re-written (never a level beyond the tree).
        let levels = 10u32;
        let mut tally = Tally::default();
        let mut m = PathMerger::new(true);
        m.commit(9);
        assert_eq!(
            m.read_floor(levels, 9, &mut tally),
            levels,
            "only the leaf is read"
        );
        assert_eq!(
            m.write_stop(levels, 9, Some(9)),
            levels,
            "only the leaf is written"
        );
    }

    #[test]
    fn disabled_merging_always_takes_full_paths() {
        let mut tally = Tally::default();
        let mut m = PathMerger::new(false);
        m.commit(5);
        assert_eq!(m.read_floor(10, 5, &mut tally), 0);
        assert_eq!(m.write_stop(10, 5, Some(5)), 0);
    }

    #[test]
    fn write_stop_without_pending_commits_whole_path() {
        let m = PathMerger::new(true);
        assert_eq!(m.write_stop(10, 123, None), 0);
    }

    #[test]
    fn reset_drops_anchor_and_counts() {
        let mut tally = Tally::default();
        let mut m = PathMerger::new(true);
        m.commit(4);
        m.reset(&mut tally);
        assert_eq!(m.prev_label(), None);
        assert_eq!(tally.counter(Counter::MergeResets), 1);
        m.reset(&mut tally); // idempotent: no anchor to drop
        assert_eq!(tally.counter(Counter::MergeResets), 1);
        assert_eq!(m.read_floor(10, 4, &mut tally), 0);
    }
}
