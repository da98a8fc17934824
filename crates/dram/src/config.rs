//! DRAM configuration: geometry, timing, and energy parameters.

/// Timing parameters in picoseconds.
///
/// Defaults follow a DDR3-1600 11-11-11 part (tCK = 1.25 ns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramTiming {
    /// Clock period of the DRAM command clock (800 MHz for DDR3-1600).
    pub t_ck: u64,
    /// ACT to internal read/write delay (row to column).
    pub t_rcd: u64,
    /// PRE to ACT delay (row precharge).
    pub t_rp: u64,
    /// CAS read latency (column access to first data).
    pub t_cl: u64,
    /// CAS write latency.
    pub t_cwl: u64,
    /// ACT to PRE minimum (row active time).
    pub t_ras: u64,
    /// Data burst duration for BL8 on the data bus.
    pub t_burst: u64,
    /// CAS-to-CAS minimum within a bank group / channel.
    pub t_ccd: u64,
    /// Read to PRE delay.
    pub t_rtp: u64,
    /// Write recovery: end of write data to PRE.
    pub t_wr: u64,
    /// Write-to-read turnaround (end of write data to next read CAS).
    pub t_wtr: u64,
    /// Read-to-write turnaround on the shared data bus.
    pub t_rtw: u64,
    /// ACT-to-ACT minimum, different banks, same rank.
    pub t_rrd: u64,
    /// Four-activate window per rank.
    pub t_faw: u64,
    /// Average refresh interval per rank (tREFI).
    pub t_refi: u64,
    /// Refresh cycle time: the rank is unavailable for this long (tRFC).
    pub t_rfc: u64,
}

impl DramTiming {
    /// DDR3-1600 (11-11-11) timing.
    pub(crate) fn ddr3_1600() -> Self {
        Self {
            t_ck: 1_250,
            t_rcd: 13_750,
            t_rp: 13_750,
            t_cl: 13_750,
            t_cwl: 10_000, // CWL=8
            t_ras: 35_000,
            t_burst: 5_000, // BL8 at 1600 MT/s on x64: 4 clocks
            t_ccd: 5_000,   // 4 clocks
            t_rtp: 7_500,
            t_wr: 15_000,
            t_wtr: 7_500,
            t_rtw: 2_500, // 2 clocks bus turnaround
            t_rrd: 6_250, // 5 clocks
            t_faw: 30_000,
            t_refi: 7_800_000, // 7.8 us
            t_rfc: 260_000,    // 4 Gb-class device
        }
    }

    /// Distance between consecutive column commands streaming one kind of
    /// burst out of one open row: the bank's CAS-to-CAS minimum or the data
    /// bus's occupancy per burst, whichever is longer.
    pub(crate) fn column_stride(&self) -> u64 {
        self.t_ccd.max(self.t_burst)
    }
}

/// Full DRAM system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Number of independent channels (each with its own bus); a power of
    /// two, as every field the address mapping splits on.
    pub channels: usize,
    /// Ranks per channel (modelled for background power and tFAW); a power
    /// of two.
    pub ranks_per_channel: usize,
    /// Banks per rank; a power of two.
    pub banks_per_rank: usize,
    /// Row (page) size in bytes, per rank (across all chips); a power of
    /// two.
    pub row_bytes: u64,
    /// Transfer granularity in bytes (one BL8 burst on a x64 bus = 64 B).
    pub burst_bytes: u64,
    /// Timing parameters.
    pub timing: DramTiming,
    /// Energy per activate+precharge pair, picojoules.
    pub act_pre_energy_pj: u64,
    /// Energy per read burst, picojoules.
    pub read_energy_pj: u64,
    /// Energy per write burst, picojoules.
    pub write_energy_pj: u64,
    /// Energy per modeled REF command, picojoules.
    pub ref_energy_pj: u64,
    /// Background power per rank, milliwatts (standby/idle current; the
    /// per-REF energy is charged separately via `ref_energy_pj`).
    pub background_mw_per_rank: u64,
}

impl DramConfig {
    /// The paper's memory system: DDR3-1600 with `channels` channels
    /// (Table 1 uses 2), 8 banks, 8 KiB rows, 64 B bursts.
    ///
    /// Energy constants follow Micron DDR3 power-calculator style estimates
    /// for an 8-chip x8 rank: ~25 nJ per ACT/PRE pair, ~6 nJ per burst.
    /// Per-REF energy comes from the IDD figures of a 4 Gb-class part:
    /// (IDD5B − IDD3N) ≈ 170 mA at VDD = 1.5 V over tRFC = 260 ns
    /// ≈ 66 nJ per REF command.
    pub fn ddr3_1600(channels: usize) -> Self {
        Self {
            channels,
            ranks_per_channel: 1,
            banks_per_rank: 8,
            row_bytes: 8 * 1024,
            burst_bytes: 64,
            timing: DramTiming::ddr3_1600(),
            act_pre_energy_pj: 25_000,
            read_energy_pj: 6_000,
            write_energy_pj: 6_500,
            ref_energy_pj: 66_000,
            background_mw_per_rank: 150,
        }
    }

    /// Validates the geometry, the one timing value the model divides by,
    /// and that a rank leaves refresh before its next one falls due.
    ///
    /// The geometry must be a power of two in every field the address
    /// mapping splits on (`row_bytes`, `channels`, `banks_per_rank`,
    /// `ranks_per_channel`), as a DDR part's is: [`crate::DramSystem`]
    /// decomposes an address by shifts and masks.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        for (name, value) in [
            ("channels", self.channels),
            ("ranks_per_channel", self.ranks_per_channel),
            ("banks_per_rank", self.banks_per_rank),
        ] {
            if !value.is_power_of_two() {
                return Err(format!("{name} must be a power of two, not {value}"));
            }
        }
        if self.burst_bytes == 0 {
            return Err("burst_bytes must be positive".into());
        }
        if !self.row_bytes.is_power_of_two() || !self.row_bytes.is_multiple_of(self.burst_bytes) {
            return Err(format!(
                "row_bytes {} must be a power of two and a multiple of burst_bytes {}",
                self.row_bytes, self.burst_bytes
            ));
        }
        if self.timing.t_refi == 0 {
            return Err("timing.t_refi must be positive".into());
        }
        // A rank with tRFC >= tREFI starts healthy, then stalls every
        // command behind the next REF for good. `Channel::schedule_run`
        // also rests on it: the bursts after a run's first meet no refresh.
        if self.timing.t_rfc >= self.timing.t_refi {
            return Err(format!(
                "timing.t_rfc must be below timing.t_refi ({} >= {})",
                self.timing.t_rfc, self.timing.t_refi
            ));
        }
        Ok(())
    }
}

/// The address mapping, low to high `column : channel : bank : rank : row`:
/// consecutive bursts stay in one row, and rows rotate over channels, then
/// banks. That suits the subtree layout — one subtree, one row in one bank.
///
/// Every field is a bit field, because [`DramConfig::validate`] holds the
/// geometry to powers of two: [`crate::DramSystem::new`] computes the
/// shifts and masks once, and a decomposition is shifts and masks only. The
/// division form, `DramConfig::decompose`, is the unit tests' reference.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AddressMap {
    /// log2 `row_bytes`: the column bits below everything else.
    column_bits: u32,
    /// `(log2 n, n - 1)` of `channels`, `banks_per_rank` and
    /// `ranks_per_channel`, low to high above the column.
    channel: (u32, u64),
    bank: (u32, u64),
    rank: (u32, u64),
}

impl AddressMap {
    /// The mapping of `cfg`, which must pass [`DramConfig::validate`].
    pub(crate) fn new(cfg: &DramConfig) -> Self {
        let field = |n: usize| (n.trailing_zeros(), n as u64 - 1);
        Self {
            column_bits: cfg.row_bytes.trailing_zeros(),
            channel: field(cfg.channels),
            bank: field(cfg.banks_per_rank),
            rank: field(cfg.ranks_per_channel),
        }
    }

    /// Decomposes a physical byte address into `(channel, rank, bank, row)`.
    /// The column (the offset inside the row) is dropped: the simulator
    /// only needs row identity for row-buffer behaviour.
    pub(crate) fn decompose(&self, addr: u64) -> Location {
        let rest = addr >> self.column_bits;
        let channel = rest & self.channel.1;
        let rest = rest >> self.channel.0;
        let bank = rest & self.bank.1;
        let rest = rest >> self.bank.0;
        let rank = rest & self.rank.1;
        Location {
            channel: channel as usize,
            rank: rank as usize,
            bank: bank as usize,
            row: rest >> self.rank.0,
        }
    }

    /// The aligned address range around `addr` over which
    /// [`AddressMap::decompose`] is constant, and past which it is not: its
    /// row. [`crate::DramSystem`] cuts every batch into same-location runs
    /// by arithmetic on it.
    pub(crate) fn location_span(&self, addr: u64) -> std::ops::Range<u64> {
        let start = addr >> self.column_bits << self.column_bits;
        // Saturating: the last span of the address space only splits finer.
        start..start.saturating_add(1 << self.column_bits)
    }
}

/// A decomposed physical location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Location {
    /// Channel index.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank index within the rank.
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
}

#[cfg(test)]
impl DramConfig {
    /// [`AddressMap::decompose`] by division, the form that needs no
    /// power-of-two geometry: the reference the shift form is tested
    /// against.
    pub(crate) fn decompose(&self, addr: u64) -> Location {
        let rest = addr / self.row_bytes;
        let channel = rest % self.channels as u64;
        let rest = rest / self.channels as u64;
        let bank = (rest % self.banks_per_rank as u64) as usize;
        let rest = rest / self.banks_per_rank as u64;
        let rank = (rest % self.ranks_per_channel as u64) as usize;
        let row = rest / self.ranks_per_channel as u64;
        Location {
            channel: channel as usize,
            rank,
            bank,
            row,
        }
    }
}

#[cfg(test)]
impl DramTiming {
    /// DDR3-1600 has `tCCD == tBURST`; a run's stride is the larger of the
    /// two, so tests of it also run with each one the larger.
    pub(crate) fn stride_tables() -> [(&'static str, Self); 3] {
        let ddr3 = Self::ddr3_1600();
        let slow_bank = Self {
            t_ccd: 7_500,
            t_burst: 5_000,
            ..ddr3.clone()
        };
        let slow_bus = Self {
            t_ccd: 5_000,
            t_burst: 7_500,
            ..ddr3.clone()
        };
        [
            ("ddr3-1600", ddr3),
            ("tCCD > tBURST", slow_bank),
            ("tBURST > tCCD", slow_bus),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr3_totals() {
        let cfg = DramConfig::ddr3_1600(2);
        assert_eq!(cfg.timing.t_ck, 1250);
    }

    #[test]
    fn same_row_maps_to_same_location() {
        let cfg = DramConfig::ddr3_1600(2);
        let map = AddressMap::new(&cfg);
        let a = map.decompose(0);
        let b = map.decompose(cfg.row_bytes - 64);
        assert_eq!(a, b, "all bursts of a row share channel/bank/row");
        let c = map.decompose(cfg.row_bytes);
        assert_ne!(a, c, "next row differs in some coordinate");
    }

    #[test]
    fn rows_distribute_over_banks() {
        let cfg = DramConfig::ddr3_1600(2);
        let map = AddressMap::new(&cfg);
        // Consecutive rows rotate channel then bank.
        let locs: Vec<_> = (0..32u64)
            .map(|i| map.decompose(i * cfg.row_bytes))
            .collect();
        let distinct_banks: std::collections::HashSet<_> =
            locs.iter().map(|l| (l.channel, l.bank)).collect();
        assert!(
            distinct_banks.len() >= 8,
            "rows spread over banks: {distinct_banks:?}"
        );
    }

    #[test]
    fn decompose_is_constant_exactly_over_the_location_span() {
        // The one fact the run split of `DramSystem` rests on, and the
        // shift form equal to the division form it replaced.
        for (channels, ranks) in [(1usize, 1usize), (1, 2), (2, 1), (2, 2), (4, 1), (4, 2)] {
            let cfg = DramConfig {
                ranks_per_channel: ranks,
                ..DramConfig::ddr3_1600(channels)
            };
            let map = AddressMap::new(&cfg);
            for k in 0..500u64 {
                // Multiplicative hashing: scattered 34-bit addresses.
                let addr = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 30;
                let span = map.location_span(addr);
                assert!(span.contains(&addr));
                assert!(span.start.is_multiple_of(span.end - span.start));
                let loc = map.decompose(addr);
                let case = format!("x{channels} ranks={ranks} addr {addr:#x}");
                assert_eq!(map.decompose(span.start), loc, "{case}");
                assert_eq!(map.decompose(span.end - 1), loc, "{case}");
                assert_ne!(map.decompose(span.end), loc, "{case}: next span");
                assert_eq!(cfg.decompose(addr), loc, "{case}: division form");
            }
        }
    }

    /// The error `validate` gives the paper's configuration after `break_it`.
    fn rejected(break_it: impl FnOnce(&mut DramConfig)) -> String {
        let mut cfg = DramConfig::ddr3_1600(2);
        assert_eq!(cfg.validate(), Ok(()));
        break_it(&mut cfg);
        cfg.validate().expect_err("must be rejected")
    }

    #[test]
    fn validate_rejects_zero_channels() {
        assert!(rejected(|c| c.channels = 0).contains("channels"));
    }

    #[test]
    fn validate_rejects_zero_ranks() {
        assert!(rejected(|c| c.ranks_per_channel = 0).contains("ranks_per_channel"));
    }

    #[test]
    fn validate_rejects_zero_banks() {
        assert!(rejected(|c| c.banks_per_rank = 0).contains("banks_per_rank"));
    }

    #[test]
    fn validate_rejects_non_power_of_two_geometry() {
        let cases = [
            ("channels", rejected(|c| c.channels = 3)),
            ("ranks_per_channel", rejected(|c| c.ranks_per_channel = 3)),
            ("banks_per_rank", rejected(|c| c.banks_per_rank = 6)),
            ("row_bytes", rejected(|c| c.row_bytes = 6 * 1024)),
        ];
        for (field, why) in cases {
            assert!(why.contains(field), "{field}: {why}");
            assert!(why.contains("power of two"), "{field}: {why}");
        }
    }

    #[test]
    fn validate_rejects_zero_burst_bytes() {
        assert!(rejected(|c| c.burst_bytes = 0).contains("burst_bytes"));
    }

    #[test]
    fn validate_rejects_rows_that_are_not_whole_bursts() {
        for row_bytes in [0, 32, 8 * 1024 + 32] {
            assert!(rejected(|c| c.row_bytes = row_bytes).contains("row_bytes"));
        }
    }

    #[test]
    fn validate_rejects_zero_refresh_interval() {
        assert!(rejected(|c| c.timing.t_refi = 0).contains("t_refi"));
    }

    #[test]
    fn validate_rejects_a_rank_that_never_leaves_refresh() {
        for t_rfc in [7_800_000, 9_000_000] {
            let why = rejected(|c| c.timing.t_rfc = t_rfc);
            assert!(why.contains("timing.t_rfc must be below timing.t_refi"));
        }
    }
}
