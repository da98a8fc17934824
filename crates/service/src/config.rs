//! Service configuration and the address-space partitioning scheme.

use fp_core::{FaultConfig, Scheme};
use fp_dram::DramConfig;
use fp_path_oram::OramConfig;

/// Configuration of a sharded ORAM service.
///
/// The `oram` field describes the *global* geometry: `data_blocks` is the
/// total program-visible capacity across all shards. Shard `i` owns every
/// global address `a` with `a % shards == i` and serves it at shard-local
/// address `a / shards`, from its own, smaller ORAM tree (see
/// [`ServiceConfig::shard_oram`]). Interleaved (modulo) partitioning keeps
/// every shard's load statistically identical under any address
/// distribution, so no shard becomes a hot spot under sequential scans.
///
/// Each shard also owns a private simulated memory system (`dram` is
/// instantiated once per shard), modelling the protocol/hardware co-design
/// direction of Palermo: independent oblivious partitions scale throughput
/// because their request streams never serialize on shared resources.
/// Obliviousness is preserved per shard: which shard a request routes to
/// depends only on its (public) address-partition bit-pattern, and inside
/// a shard the full Fork Path access discipline applies unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Number of shards (worker threads). Must be a power of two.
    pub shards: usize,
    /// Capacity of each shard's bounded submission queue; a full queue
    /// rejects with [`crate::SubmitError::Busy`].
    pub queue_depth: usize,
    /// Global ORAM geometry; per-shard trees are derived from it.
    pub oram: OramConfig,
    /// The ORAM scheme every shard runs — any [`Scheme`] the engine
    /// registry knows (traditional Path ORAM, Fork Path in any
    /// configuration, even insecure DRAM for calibration).
    pub scheme: Scheme,
    /// Per-shard DRAM system (each shard gets its own instance).
    pub dram: DramConfig,
    /// Enables the per-shard cross-request coalescing index: while an
    /// access to an address is in flight, duplicate-address requests
    /// attach as waiters and share its result instead of submitting a
    /// second ORAM access (reads share data; writes absorb
    /// last-writer-wins and flush once after the anchor completes).
    /// Honored wherever requests come through the shard queues; the
    /// closed-loop harness gives every client a disjoint address region,
    /// so it never coalesces. See DESIGN.md for the obliviousness caveat.
    pub coalesce: bool,
    /// Service seed; shard `i` seeds its controller and clients from it.
    pub seed: u64,
    /// Deterministic fault injection applied to shard engines. `None`
    /// (the default) adds zero overhead — engines are not wrapped at all.
    pub fault: Option<FaultConfig>,
    /// Restricts fault injection to one shard (`None` = all shards).
    /// Useful for fail-over tests: kill shard 0, assert the others serve.
    pub fault_shard: Option<usize>,
}

impl ServiceConfig {
    /// A small, fast configuration for tests and smoke runs: the
    /// fast-test tree geometry (15 levels, 64 B blocks, 2^16 blocks
    /// globally) over two DDR3-1600 channels per shard.
    pub fn fast_test(shards: usize) -> Self {
        let mut oram = OramConfig::small_test();
        oram.block_bytes = 64;
        oram.data_blocks = 1 << 16;
        oram.onchip_posmap_entries = 1 << 8;
        oram.levels = 15;
        Self {
            shards,
            queue_depth: 64,
            oram,
            scheme: Scheme::ForkDefault,
            dram: DramConfig::ddr3_1600(2),
            coalesce: false,
            seed: 0x5EED,
            fault: None,
            fault_shard: None,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 || !self.shards.is_power_of_two() {
            return Err(format!(
                "shards must be a power of two, got {}",
                self.shards
            ));
        }
        if self.queue_depth == 0 {
            return Err("queue_depth must be at least 1".into());
        }
        let shift = self.shard_shift();
        if self.oram.data_blocks >> shift == 0 {
            return Err(format!(
                "{} data blocks cannot be split across {} shards",
                self.oram.data_blocks, self.shards
            ));
        }
        if self.oram.levels <= shift + 2 {
            return Err(format!(
                "{}-level tree too shallow for {} shards",
                self.oram.levels, self.shards
            ));
        }
        self.shard_oram()
            .validate()
            .map_err(|e| format!("derived shard geometry invalid: {e}"))?;
        self.dram
            .validate()
            .map_err(|e| format!("dram config: {e}"))?;
        if let Some(fault) = &self.fault {
            fault.validate().map_err(|e| format!("fault config: {e}"))?;
        }
        if let Some(s) = self.fault_shard {
            if s >= self.shards {
                return Err(format!(
                    "fault_shard {s} out of range for {} shards",
                    self.shards
                ));
            }
        }
        self.scheme.validate()
    }

    /// `log2(shards)`. The shard worker inverts [`Self::local_addr`] with
    /// it when it answers a request.
    pub(crate) fn shard_shift(&self) -> u32 {
        self.shards.trailing_zeros()
    }

    /// The shard owning global address `addr`.
    pub fn shard_of(&self, addr: u64) -> usize {
        (addr & (self.shards as u64 - 1)) as usize
    }

    /// The shard-local address of global address `addr`.
    pub(crate) fn local_addr(&self, addr: u64) -> u64 {
        addr >> self.shard_shift()
    }

    /// Blocks owned by each shard.
    pub fn shard_blocks(&self) -> u64 {
        self.oram.data_blocks >> self.shard_shift()
    }

    /// The per-shard ORAM geometry: the global tree shrunk by
    /// `log2(shards)` levels, holding `1/shards` of the data blocks. Total
    /// tree capacity across shards therefore matches the unsharded system.
    pub fn shard_oram(&self) -> OramConfig {
        let mut cfg = self.oram.clone();
        cfg.data_blocks = self.shard_blocks();
        cfg.levels = self.oram.levels - self.shard_shift();
        cfg
    }

    /// The controller seed of shard `shard` — decorrelated from, but
    /// deterministic in, the service seed.
    pub fn shard_seed(&self, shard: usize) -> u64 {
        self.seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_test_validates_across_shard_counts() {
        for shards in [1, 2, 4, 8] {
            let cfg = ServiceConfig::fast_test(shards);
            cfg.validate()
                .unwrap_or_else(|e| panic!("shards={shards}: {e}"));
            assert_eq!(cfg.shard_blocks() * shards as u64, 1 << 16);
        }
    }

    #[test]
    fn partitioning_round_trips() {
        let cfg = ServiceConfig::fast_test(4);
        for addr in [0u64, 1, 5, 1023, 65535] {
            let shard = cfg.shard_of(addr);
            let local = cfg.local_addr(addr);
            assert!(local < cfg.shard_blocks());
            // The inverse a shard worker applies to every answer.
            assert_eq!((local << cfg.shard_shift()) | shard as u64, addr);
        }
        // Interleaved partitioning: consecutive addresses rotate shards.
        assert_eq!(cfg.shard_of(0), 0);
        assert_eq!(cfg.shard_of(1), 1);
        assert_eq!(cfg.shard_of(4), 0);
    }

    #[test]
    fn single_shard_is_the_identity_partition() {
        let cfg = ServiceConfig::fast_test(1);
        assert_eq!(cfg.shard_of(99), 0);
        assert_eq!(cfg.local_addr(99), 99);
        assert_eq!(cfg.shard_oram(), cfg.oram);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = ServiceConfig::fast_test(3);
        assert!(cfg.validate().is_err(), "non-power-of-two shard count");
        cfg = ServiceConfig::fast_test(1);
        cfg.queue_depth = 0;
        assert!(cfg.validate().is_err(), "zero queue depth");
        cfg = ServiceConfig::fast_test(8);
        cfg.oram.levels = 5;
        assert!(cfg.validate().is_err(), "tree too shallow for 8 shards");
        cfg = ServiceConfig::fast_test(2);
        cfg.fault = Some(FaultConfig::transient(1, 2.0));
        assert!(cfg.validate().is_err(), "fault rate above 1.0");
        cfg = ServiceConfig::fast_test(2);
        cfg.fault = Some(FaultConfig::transient(1, 0.01));
        cfg.fault_shard = Some(2);
        assert!(cfg.validate().is_err(), "fault_shard out of range");
        cfg.fault_shard = Some(1);
        cfg.validate().unwrap();
    }

    #[test]
    fn shard_seeds_differ() {
        let cfg = ServiceConfig::fast_test(4);
        let seeds: std::collections::HashSet<u64> = (0..4).map(|s| cfg.shard_seed(s)).collect();
        assert_eq!(seeds.len(), 4);
    }
}
