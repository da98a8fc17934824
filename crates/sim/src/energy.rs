//! Energy accounting for the ORAM memory system (Fig 15).
//!
//! Total energy = DRAM dynamic (command counts from `fp-dram`) + DRAM
//! background + ORAM-controller dynamic (crypto, stash, caches, queues) +
//! controller static. Controller parameters are CACTI-class constants for
//! 32 nm SRAM of the evaluated sizes plus a synthesized-logic estimate,
//! standing in for the paper's Synopsys/CACTI flow (DESIGN.md §2.3). The
//! paper's observation — total energy is dominated by external memory —
//! holds under these constants.

use fp_dram::DramStats;
use fp_path_oram::OramStats;

/// Per-event and static energy parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyParams {
    /// Counter-mode encrypt/decrypt of one 64 B block, picojoules.
    pub crypto_per_block_pj: u64,
    /// One stash insert/remove, picojoules.
    pub stash_op_pj: u64,
    /// One on-chip bucket-cache access (MAC or treetop), picojoules.
    pub cache_access_pj: u64,
    /// Position-map/queue logic per ORAM access, picojoules.
    pub control_per_access_pj: u64,
    /// Controller static power, milliwatts.
    pub controller_static_mw: u64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self {
            crypto_per_block_pj: 28,
            stash_op_pj: 12,
            cache_access_pj: 35,
            control_per_access_pj: 60,
            controller_static_mw: 55,
        }
    }
}

/// An energy breakdown in picojoules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnergyBreakdown {
    /// DRAM dynamic energy (activate/read/write).
    pub dram_dynamic_pj: u64,
    /// DRAM background (static + refresh).
    pub dram_background_pj: u64,
    /// ORAM-controller dynamic energy.
    pub controller_dynamic_pj: u64,
    /// ORAM-controller static energy.
    pub controller_static_pj: u64,
}

impl EnergyBreakdown {
    /// Total energy, picojoules.
    pub fn total_pj(&self) -> u64 {
        self.dram_dynamic_pj
            + self.dram_background_pj
            + self.controller_dynamic_pj
            + self.controller_static_pj
    }

    /// Total energy in millijoules.
    pub(crate) fn total_mj(&self) -> f64 {
        self.total_pj() as f64 / 1e9
    }
}

/// Computes the run's energy from DRAM stats, controller stats, elapsed
/// simulated time, and rank count.
pub fn compute(
    params: &EnergyParams,
    dram: &DramStats,
    oram: &OramStats,
    elapsed_ps: u64,
    ranks: u64,
    background_mw_per_rank: u64,
) -> EnergyBreakdown {
    let dram_dynamic_pj = dram.dynamic_energy_pj();
    let dram_background_pj =
        DramStats::background_energy_pj(elapsed_ps, ranks, background_mw_per_rank);

    // Every block moved over the pins is decrypted or encrypted once, and
    // only those: the host's tree store seals what goes to DRAM and unseals
    // what comes from it, and keeps what the bucket cache holds in the
    // clear. Every block touched passes through the stash; cache hits are
    // SRAM reads.
    let blocks_moved = dram.reads + dram.writes;
    let stash_ops = oram.buckets_read + oram.buckets_written; // bucket-granular
    let controller_dynamic_pj = blocks_moved * params.crypto_per_block_pj
        + stash_ops * params.stash_op_pj
        + (oram.cache_hits + oram.cache_misses) * params.cache_access_pj
        + oram.oram_accesses * params.control_per_access_pj;
    let controller_static_pj = elapsed_ps * params.controller_static_mw / 1000;

    EnergyBreakdown {
        dram_dynamic_pj,
        dram_background_pj,
        controller_dynamic_pj,
        controller_static_pj,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let b = EnergyBreakdown {
            dram_dynamic_pj: 1,
            dram_background_pj: 2,
            controller_dynamic_pj: 3,
            controller_static_pj: 4,
        };
        assert_eq!(b.total_pj(), 10);
    }

    #[test]
    fn dram_dominates_for_typical_runs() {
        // The paper's argument that added controller components don't hurt
        // total energy rests on DRAM dominance; check with plausible counts.
        let dram = DramStats {
            reads: 100_000,
            writes: 100_000,
            activations: 20_000,
            act_energy_pj: 20_000 * 25_000,
            read_energy_pj: 100_000 * 6_000,
            write_energy_pj: 100_000 * 6_500,
            ..Default::default()
        };
        let oram = OramStats {
            oram_accesses: 2_000,
            buckets_read: 50_000,
            buckets_written: 50_000,
            cache_hits: 10_000,
            cache_misses: 40_000,
            ..Default::default()
        };
        let e = compute(
            &EnergyParams::default(),
            &dram,
            &oram,
            1_000_000_000,
            2,
            150,
        );
        assert!(
            e.dram_dynamic_pj + e.dram_background_pj > 3 * e.controller_dynamic_pj,
            "{e:?}"
        );
    }

    #[test]
    fn static_energy_scales_with_time() {
        let params = EnergyParams::default();
        let dram = DramStats::default();
        let oram = OramStats::default();
        let short = compute(&params, &dram, &oram, 1_000, 2, 150);
        let long = compute(&params, &dram, &oram, 2_000, 2, 150);
        assert_eq!(long.controller_static_pj, 2 * short.controller_static_pj);
        assert_eq!(long.dram_background_pj, 2 * short.dram_background_pj);
    }
}
