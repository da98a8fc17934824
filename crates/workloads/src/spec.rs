//! Synthetic profiles for the SPEC CPU2006 benchmarks used by Table 2.
//!
//! Parameters are *synthetic calibrations*, not measurements: intensities
//! (`avg_gap_ns`) and footprints are chosen so the high-overhead group (HG)
//! is memory-bound and the low group (LG) is compute-bound, matching the
//! partition implied by the paper's mixes. See DESIGN.md §2 for the
//! substitution rationale.

use crate::profile::{BenchmarkProfile, OverheadGroup};

macro_rules! profiles {
    ($($fn_name:ident, $name:literal, $group:ident, $gap:literal, $ws:expr, $wr:literal, $loc:literal, $mlp:literal;)*) => {
        $(
            /// Profile for the benchmark named in the function.
            pub(crate) fn $fn_name() -> BenchmarkProfile {
                BenchmarkProfile {
                    name: $name,
                    group: OverheadGroup::$group,
                    avg_gap_ns: $gap,
                    working_set_blocks: $ws,
                    write_fraction: $wr,
                    locality: $loc,
                    mlp: $mlp,
                }
            }
        )*

        /// Every SPEC profile defined in this module.
        pub fn all() -> Vec<BenchmarkProfile> {
            vec![$($fn_name()),*]
        }
    };
}

profiles! {
    // -- High ORAM overhead group (memory intensive) ---------------------
    mcf,        "429.mcf",        High, 1200.0, 1 << 22, 0.25, 0.35, 16;
    lbm,        "470.lbm",        High, 1400.0, 1 << 22, 0.45, 0.80, 32;
    libquantum, "462.libquantum", High, 1000.0, 1 << 21, 0.30, 0.90, 32;
    bwaves,     "410.bwaves",     High, 1600.0, 1 << 22, 0.35, 0.75, 24;
    gcc,        "403.gcc",        High, 2500.0, 1 << 20, 0.30, 0.55, 12;
    gromacs,    "435.gromacs",    High, 2800.0, 1 << 19, 0.30, 0.60, 12;
    wrf,        "481.wrf",        High, 2000.0, 1 << 21, 0.35, 0.70, 24;
    namd,       "444.namd",       High, 3000.0, 1 << 19, 0.25, 0.65, 12;
    // -- Low ORAM overhead group (compute bound) --------------------------
    povray,     "453.povray",     Low, 16000.0, 1 << 16, 0.20, 0.50, 4;
    sjeng,      "458.sjeng",      Low, 12000.0, 1 << 17, 0.25, 0.30, 4;
    gemsfdtd,   "459.GemsFDTD",   Low,  8000.0, 1 << 21, 0.40, 0.75, 12;
    h264ref,    "464.h264ref",    Low, 10000.0, 1 << 18, 0.30, 0.70, 6;
    bzip2,      "401.bzip2",      Low,  7000.0, 1 << 19, 0.35, 0.60, 8;
    tonto,      "465.tonto",      Low,  9000.0, 1 << 18, 0.30, 0.55, 6;
    omnetpp,    "471.omnetpp",    Low,  6000.0, 1 << 20, 0.35, 0.35, 8;
    astar,      "473.astar",      Low,  6500.0, 1 << 19, 0.25, 0.40, 6;
    calculix,   "454.calculix",   Low, 11000.0, 1 << 18, 0.30, 0.65, 6;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_validate() {
        let profiles = all();
        assert_eq!(profiles.len(), 17);
        for p in &profiles {
            p.validate().unwrap();
        }
    }

    #[test]
    fn groups_partition_by_intensity() {
        // Every HG member must be more intense than every LG member — the
        // property the paper's partition rests on.
        let profiles = all();
        let max_hg_gap = profiles
            .iter()
            .filter(|p| p.is_high_overhead())
            .map(|p| p.avg_gap_ns)
            .fold(0.0f64, f64::max);
        let min_lg_gap = profiles
            .iter()
            .filter(|p| !p.is_high_overhead())
            .map(|p| p.avg_gap_ns)
            .fold(f64::INFINITY, f64::min);
        assert!(max_hg_gap < min_lg_gap, "{max_hg_gap} vs {min_lg_gap}");
    }

    #[test]
    fn names_are_unique() {
        let profiles = all();
        let names: std::collections::HashSet<_> = profiles.iter().map(|p| p.name).collect();
        assert_eq!(names.len(), profiles.len());
    }
}
