//! Command and energy statistics — a by-value view over the fp-trace
//! counters the channel model bumps.

use fp_trace::Counter;

use crate::config::DramConfig;

/// Aggregate DRAM statistics: command counts, row-buffer behaviour, energy.
///
/// Nothing here is accumulated separately: `DramStats::view` assembles
/// the record from the trace counters (one per DRAM command kind) and the
/// configuration's per-command energies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Read bursts serviced.
    pub reads: u64,
    /// Write bursts serviced.
    pub writes: u64,
    /// Row activations issued.
    pub activations: u64,
    /// Precharges issued (row conflicts only; idle precharge not modelled).
    pub precharges: u64,
    /// Column accesses that hit the open row.
    pub row_hits: u64,
    /// Column accesses that required an activation.
    pub row_misses: u64,
    /// Dynamic energy from activations, picojoules.
    pub act_energy_pj: u64,
    /// Dynamic energy from read bursts, picojoules.
    pub read_energy_pj: u64,
    /// Dynamic energy from write bursts, picojoules.
    pub write_energy_pj: u64,
    /// REF commands actually stalled for / modeled (their tRFC delayed a
    /// command and their energy is charged to `ref_energy_pj`).
    pub refreshes: u64,
    /// Refresh slots that elapsed while the rank was idle. These only
    /// advance the refresh schedule: no command waited on them and no
    /// energy is charged (the device was refreshing instead of idling,
    /// which the background power figure already covers).
    pub refreshes_skipped: u64,
    /// Dynamic energy from modeled REF commands, picojoules.
    pub ref_energy_pj: u64,
}

impl DramStats {
    /// Assembles the record from a counter snapshot
    /// ([`fp_trace::TraceHandle::counters`]) of the spine the DRAM system
    /// reports into. Every column access either hits the open row or
    /// activates one, so misses are the activations and hits the rest;
    /// each energy is its command count times `cfg`'s per-command energy.
    pub(crate) fn view(counters: &[u64; Counter::COUNT], cfg: &DramConfig) -> Self {
        let c = |c: Counter| counters[c as usize];
        let (reads, writes, acts) = (
            c(Counter::DramReads),
            c(Counter::DramWrites),
            c(Counter::DramActs),
        );
        let refreshes = c(Counter::DramRefs);
        Self {
            reads,
            writes,
            activations: acts,
            precharges: c(Counter::DramPrecharges),
            row_hits: reads + writes - acts,
            row_misses: acts,
            act_energy_pj: acts * cfg.act_pre_energy_pj,
            read_energy_pj: reads * cfg.read_energy_pj,
            write_energy_pj: writes * cfg.write_energy_pj,
            refreshes,
            refreshes_skipped: c(Counter::DramRefsSkipped),
            ref_energy_pj: refreshes * cfg.ref_energy_pj,
        }
    }

    /// Total accesses (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Row-buffer hit rate in `[0, 1]`; zero when no accesses occurred.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Total dynamic energy in picojoules (activations, bursts, and
    /// modeled refreshes).
    pub fn dynamic_energy_pj(&self) -> u64 {
        self.act_energy_pj + self.read_energy_pj + self.write_energy_pj + self.ref_energy_pj
    }

    /// Background (static + refresh) energy over `elapsed_ps`, given total
    /// rank count and per-rank background power in milliwatts.
    pub fn background_energy_pj(elapsed_ps: u64, ranks: u64, mw_per_rank: u64) -> u64 {
        // mW * ps = 1e-3 J/s * 1e-12 s = 1e-15 J = 1e-3 pJ.
        elapsed_ps.saturating_mul(ranks).saturating_mul(mw_per_rank) / 1000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero() {
        assert_eq!(DramStats::default().row_hit_rate(), 0.0);
    }

    #[test]
    fn background_energy_math() {
        // 1 second, 2 ranks, 150 mW each => 0.3 J = 3e11 pJ.
        let pj = DramStats::background_energy_pj(1_000_000_000_000, 2, 150);
        assert_eq!(pj, 300_000_000_000);
    }
}
