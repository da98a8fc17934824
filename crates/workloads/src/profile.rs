//! Benchmark profiles: the parameters of a synthetic LLC-miss stream.

/// The paper's partition of SPEC benchmarks by ORAM overhead (§5.1): the
/// high group is memory-intensive (ORAM hurts most), the low group is
/// compute-bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OverheadGroup {
    /// High ORAM overhead (memory-intensive).
    High,
    /// Low ORAM overhead (compute-bound).
    Low,
}

/// A synthetic stand-in for one benchmark: everything the ORAM controller
/// can observe about a program's LLC miss stream.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkProfile {
    /// Benchmark name (SPEC id or PARSEC name).
    pub name: &'static str,
    /// HG/LG membership per the Table 2 mixes.
    pub group: OverheadGroup,
    /// Mean compute gap between consecutive LLC misses when the core is not
    /// stalled, nanoseconds (the intensity knob).
    pub avg_gap_ns: f64,
    /// Distinct 64 B blocks the benchmark touches.
    pub working_set_blocks: u64,
    /// Fraction of misses that are dirty write-backs.
    pub write_fraction: f64,
    /// Probability that the next miss is a short stride from the previous
    /// one (spatial locality) rather than a uniform jump.
    pub locality: f64,
    /// Maximum outstanding misses an out-of-order core sustains for this
    /// program (memory-level parallelism).
    pub mlp: usize,
}

impl BenchmarkProfile {
    /// A sanity check of the profile tables' fields.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    #[cfg(test)]
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.avg_gap_ns <= 0.0 {
            return Err(format!("{}: non-positive gap", self.name));
        }
        if self.working_set_blocks == 0 {
            return Err(format!("{}: empty working set", self.name));
        }
        if !(0.0..=1.0).contains(&self.write_fraction) {
            return Err(format!("{}: write fraction out of range", self.name));
        }
        if !(0.0..=1.0).contains(&self.locality) {
            return Err(format!("{}: locality out of range", self.name));
        }
        if self.mlp == 0 {
            return Err(format!("{}: zero MLP", self.name));
        }
        Ok(())
    }

    /// Whether this profile belongs to the high-overhead group.
    pub fn is_high_overhead(&self) -> bool {
        self.group == OverheadGroup::High
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_catches_bad_fields() {
        let good = BenchmarkProfile {
            name: "t",
            group: OverheadGroup::Low,
            avg_gap_ns: 100.0,
            working_set_blocks: 10,
            write_fraction: 0.3,
            locality: 0.5,
            mlp: 4,
        };
        good.validate().unwrap();
        let mut bad = good.clone();
        bad.avg_gap_ns = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.write_fraction = 1.5;
        assert!(bad.validate().is_err());
        let mut bad = good;
        bad.mlp = 0;
        assert!(bad.validate().is_err());
    }
}
