//! What [`ForkPathController`] offers beyond [`crate::OramEngine`] — the
//! trusted state, the label trace, the timing-protection hooks — and the
//! helpers its access loop calls; a child module of `controller` so it can
//! reach the facade's private fields. The access data path itself and the
//! engine implementation stay in `controller.rs`.

use fp_path_oram::{NoFeedback, OramState, ReactiveSource};

use super::ForkPathController;
use crate::error::{must, ControllerError};
use crate::queue::Entry;

impl ForkPathController {
    /// Whether any real work (queued, stalled, or in flight) exists.
    pub(super) fn has_real_work(&self) -> bool {
        !self.aq.is_empty() || !self.flights.is_empty()
    }

    /// Routes every not-yet-fed completion through `source`, submitting any
    /// follow-up requests it produces, until quiescent.
    pub(super) fn flush_feedback<S: ReactiveSource + ?Sized>(
        &mut self,
        source: &mut S,
    ) -> Result<(), ControllerError> {
        while let Some(completion) = self.completions.next_unfed() {
            for r in source.on_complete(&completion) {
                self.admit(r)?;
            }
        }
        Ok(())
    }

    /// First access after start-up or an idle gap: unrevealed dummy padding
    /// is silently discarded rather than executed.
    pub(super) fn pick_initial(&mut self) -> Result<Option<Entry>, ControllerError> {
        if !self.has_real_work() {
            return Ok(None);
        }
        let anchor = self.merge.prev_label().unwrap_or(0);
        let earliest = self
            .sched
            .earliest_real_ready()
            .or_else(|| self.aq.head_arrival());
        let Some(min_ready) = earliest else {
            return Ok(None);
        };
        let t = self.clock_ps.max(min_ready);
        self.clock_ps = t;
        self.pump()?;
        Ok(self.sched.select_initial(anchor, t, self.path.tally_mut()))
    }

    /// The trusted ORAM state (for invariant checks in tests).
    pub fn state(&self) -> &OramState {
        self.path.state()
    }

    /// Starts recording the externally visible label sequence.
    pub fn enable_label_trace(&mut self) {
        self.path.enable_label_trace();
    }

    /// The recorded label sequence.
    pub fn label_trace(&self) -> Option<&[u64]> {
        self.path.label_trace()
    }

    /// Enables or disables fixed-rate (timing-protection) mode; see
    /// [`crate::timing::enforce_fixed_rate`]. While enabled, refills always
    /// select a pending request (materializing dummies when idle), so
    /// [`crate::OramEngine::run_to_idle`] would not terminate — drive the
    /// controller with an explicit horizon instead.
    pub(crate) fn set_fixed_rate(&mut self, on: bool) {
        self.fixed_rate = on;
        if !on && self.current.as_ref().is_some_and(|c| c.is_dummy()) && !self.has_real_work() {
            // Drop a revealed-but-unexecuted trailing dummy so the
            // controller can go idle. Its reveal was part of the protected
            // window that just ended.
            self.current = None;
            self.merge.reset(self.path.tally_mut());
        }
        self.path.publish();
    }

    /// Executes one dummy ORAM access (timing-protection padding) starting
    /// no earlier than `not_before_ps` — the pacing primitive of the
    /// fixed-rate stream (one access per interval, not back-to-back). Uses
    /// the revealed pending access if one exists.
    pub(crate) fn force_dummy_at(&mut self, not_before_ps: u64) {
        let mut cur = match self.current.take() {
            Some(c) => c,
            None => {
                let label = self.path.state_mut().random_label();
                Entry::dummy(label, self.clock_ps)
            }
        };
        cur.ready_ps = cur.ready_ps.max(not_before_ps);
        let mut source = NoFeedback;
        must(self.execute(cur, &mut source));
        self.path.publish();
    }
}
