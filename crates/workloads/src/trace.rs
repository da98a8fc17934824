//! Record and replay of LLC-miss traces.
//!
//! The synthetic core models are deterministic per seed, but a recorded
//! trace lets experiments (a) decouple workload generation from simulation,
//! (b) feed externally captured miss streams (e.g. from a real gem5 run)
//! into the ORAM simulators, and (c) archive the exact stimulus behind a
//! published number. Traces serialize with the line format of
//! [`Trace::to_text`] — the workspace is hermetic and carries no serde
//! dependency.

use fp_path_oram::Op;

use crate::cpu::{untag_addr, untag_core, MultiCoreWorkload};

/// One recorded LLC miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Issue time, picoseconds (as generated under zero memory latency).
    pub issue_ps: u64,
    /// Block address.
    pub addr: u64,
    /// Issuing core.
    pub core: u8,
    /// True for dirty write-backs.
    pub is_write: bool,
}

/// A recorded miss trace plus its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Human-readable source (workload name, seed).
    pub source: String,
    /// Records in issue order.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Records `workload` to a trace by draining it under idealized (zero
    /// latency) completions — capturing the *program's* miss pattern,
    /// independent of any memory system.
    pub fn capture(mut workload: MultiCoreWorkload, source: impl Into<String>) -> Self {
        let mut records = Vec::new();
        while let Some(t) = workload.next_issue_time() {
            let (tagged, op) = workload.issue_at(t).expect("issueable");
            records.push(TraceRecord {
                issue_ps: t,
                addr: untag_addr(tagged),
                core: untag_core(tagged) as u8,
                is_write: op == Op::Write,
            });
            workload.complete(tagged, t);
        }
        Self {
            source: source.into(),
            records,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Distinct block addresses touched.
    pub fn footprint(&self) -> usize {
        let set: std::collections::HashSet<u64> = self.records.iter().map(|r| r.addr).collect();
        set.len()
    }

    /// Fraction of writes.
    pub fn write_fraction(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.records.iter().filter(|r| r.is_write).count() as f64 / self.records.len() as f64
        }
    }

    /// Mean gap between consecutive issues from the same core, nanoseconds.
    pub fn mean_core_gap_ns(&self) -> f64 {
        let mut last: std::collections::HashMap<u8, u64> = Default::default();
        let mut total = 0u64;
        let mut n = 0u64;
        for r in &self.records {
            if let Some(prev) = last.insert(r.core, r.issue_ps) {
                total += r.issue_ps.saturating_sub(prev);
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1000.0
        }
    }

    /// Serializes to the compact line format parsed by [`Trace::from_text`].
    pub fn to_text(&self) -> String {
        let mut out = format!("# fork-path-oram trace v1: {}\n", self.source);
        for r in &self.records {
            out.push_str(&format!(
                "{} {} {} {}\n",
                r.issue_ps,
                r.addr,
                r.core,
                u8::from(r.is_write)
            ));
        }
        out
    }

    /// Parses the line format produced by [`Trace::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty trace")?;
        let source = header
            .strip_prefix("# fork-path-oram trace v1: ")
            .ok_or("bad header")?
            .to_string();
        let mut records = Vec::new();
        for (i, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let mut field = |name: &str| {
                parts
                    .next()
                    .ok_or_else(|| format!("line {}: missing {name}", i + 2))
            };
            let issue_ps = field("time")?
                .parse::<u64>()
                .map_err(|e| format!("line {}: {e}", i + 2))?;
            let addr = field("addr")?
                .parse::<u64>()
                .map_err(|e| format!("line {}: {e}", i + 2))?;
            let core = field("core")?
                .parse::<u8>()
                .map_err(|e| format!("line {}: {e}", i + 2))?;
            let is_write = field("write")? == "1";
            records.push(TraceRecord {
                issue_ps,
                addr,
                core,
                is_write,
            });
        }
        Ok(Self { source, records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixes;

    fn small_trace() -> Trace {
        let mut mix = mixes::all()[4].clone();
        for p in &mut mix.programs {
            p.working_set_blocks = 1 << 10;
        }
        let wl = MultiCoreWorkload::from_mix(&mix, 50, 7);
        Trace::capture(wl, "Mix5/seed7")
    }

    #[test]
    fn capture_is_complete_and_ordered_per_core() {
        let t = small_trace();
        assert_eq!(t.len(), 200, "4 cores x 50 misses");
        let mut last: std::collections::HashMap<u8, u64> = Default::default();
        for r in &t.records {
            if let Some(prev) = last.insert(r.core, r.issue_ps) {
                assert!(r.issue_ps >= prev, "per-core issue order");
            }
        }
    }

    #[test]
    fn text_roundtrip() {
        let t = small_trace();
        let text = t.to_text();
        let back = Trace::from_text(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(Trace::from_text("").is_err());
        assert!(Trace::from_text("wrong header\n1 2 3 4\n").is_err());
        assert!(Trace::from_text("# fork-path-oram trace v1: x\n1 2\n").is_err());
        assert!(Trace::from_text("# fork-path-oram trace v1: x\na b c d\n").is_err());
    }

    #[test]
    fn stats_are_sane() {
        let t = small_trace();
        assert!(t.footprint() > 10);
        assert!(t.write_fraction() > 0.02 && t.write_fraction() < 0.6);
        assert!(t.mean_core_gap_ns() > 1000.0, "LG profiles have long gaps");
        assert!(!t.is_empty());
    }

    #[test]
    fn capture_is_deterministic() {
        let a = small_trace();
        let b = small_trace();
        assert_eq!(a, b);
    }
}
