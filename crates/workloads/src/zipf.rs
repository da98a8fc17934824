//! Seeded Zipfian hotspot workload for the sharded serving layer.
//!
//! Real multi-tenant traffic is skewed: a small set of hot blocks is
//! requested over and over, often while an access to the same block is
//! already in flight. That is exactly the cross-request redundancy the
//! service-level coalescing index removes, so this generator produces the
//! open-loop schedule `fp-service`'s trace-replay mode consumes: a list of
//! timestamped requests over the *global* address space whose addresses
//! follow a Zipf(θ) popularity law and whose inter-arrival gaps are
//! exponential. Everything is a pure function of the configuration, so a
//! coalesced and a non-coalesced run of the same schedule are directly
//! comparable, request by request.
//!
//! Rank `r` (0 = hottest) maps to address `r`: with the service's
//! interleaved partitioning (`shard = addr % N`) consecutive ranks land on
//! different shards, so the hot set spreads evenly instead of melting one
//! shard.

use fp_crypto::Xoshiro256;
use fp_path_oram::Op;

/// One scheduled open-loop request, addressed in the service's *global*
/// block address space. `fp-service` turns these into `ServiceRequest`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledRequest {
    /// Global block address.
    pub addr: u64,
    /// Direction.
    pub op: Op,
    /// Arrival time on the simulated clock, picoseconds.
    pub arrival_ps: u64,
    /// Unique per-request tag (`0..requests`, in schedule order), so
    /// completions from different runs can be joined request-by-request.
    pub tag: u64,
}

/// Parameters of a Zipfian service schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfConfig {
    /// Global address-space size; addresses are drawn from `0..blocks`.
    pub blocks: u64,
    /// Number of requests to generate.
    pub requests: u64,
    /// Zipf skew θ: sampling weight of rank `r` is `1 / (r+1)^θ`.
    /// `0.0` degenerates to uniform; `0.99` is the classic YCSB hot-spot
    /// setting; larger is hotter.
    pub theta: f64,
    /// Fraction of requests that are writes (with a deterministic
    /// address-derived payload of `block_bytes` bytes).
    pub write_fraction: f64,
    /// Mean exponential inter-arrival gap, nanoseconds.
    pub mean_gap_ns: f64,
    /// Payload size for writes, bytes.
    pub block_bytes: usize,
    /// RNG seed; the schedule is a pure function of this config.
    pub seed: u64,
}

impl ZipfConfig {
    /// A hot, bursty default over `blocks` addresses: θ = 1.2, 10%
    /// writes, arrivals well inside typical ORAM access latency so
    /// duplicate-address requests overlap in flight.
    ///
    /// The engine's own stash fast path already absorbs *back-to-back*
    /// same-address accesses; service-level coalescing only wins where
    /// duplicates overlap an access still in flight. These defaults are
    /// deliberately hotter and burstier than the YCSB classic (θ = 0.99)
    /// so that window is deep on the small fast-test geometries.
    pub fn hot(blocks: u64, requests: u64, block_bytes: usize, seed: u64) -> Self {
        Self {
            blocks,
            requests,
            theta: 1.2,
            write_fraction: 0.1,
            mean_gap_ns: 15.0,
            block_bytes,
            seed,
        }
    }

    /// A uniform (θ = 0) schedule with the same write mix and pacing as
    /// [`ZipfConfig::hot`] — the no-redundancy baseline: duplicate
    /// in-flight addresses are rare, so coalescing has nothing to remove
    /// and the schedule measures the serving path itself.
    pub fn uniform(blocks: u64, requests: u64, block_bytes: usize, seed: u64) -> Self {
        Self {
            theta: 0.0,
            ..Self::hot(blocks, requests, block_bytes, seed)
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.blocks == 0 {
            return Err("blocks must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.write_fraction) {
            return Err(format!(
                "write_fraction must be in [0, 1], got {}",
                self.write_fraction
            ));
        }
        if !self.theta.is_finite() || self.theta < 0.0 {
            return Err(format!("theta must be finite and >= 0, got {}", self.theta));
        }
        if !self.mean_gap_ns.is_finite() || self.mean_gap_ns < 0.0 {
            return Err(format!(
                "mean_gap_ns must be finite and >= 0, got {}",
                self.mean_gap_ns
            ));
        }
        Ok(())
    }
}

/// Inverse-CDF Zipf sampler over `0..blocks`, exact (table-based).
///
/// The cumulative table costs 8 bytes per address, which is fine for the
/// service geometries this repo simulates (≤ 2^16 global blocks).
#[derive(Debug, Clone)]
struct ZipfSampler {
    /// `cdf[r]` = P(rank <= r); strictly increasing, last entry 1.0.
    cdf: Vec<f64>,
}

impl ZipfSampler {
    fn new(blocks: u64, theta: f64) -> Self {
        let n = usize::try_from(blocks).expect("address space fits in usize");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self { cdf }
    }

    fn sample(&self, rng: &mut Xoshiro256) -> u64 {
        let u = rng.next_f64();
        // First rank whose cumulative probability reaches u.
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

/// Generates the schedule: `cfg.requests` requests over `0..cfg.blocks`,
/// Zipf(θ)-distributed addresses, exponential arrival gaps, and
/// deterministic address-derived write payloads. Tags are `0..requests`
/// in schedule order.
///
/// # Panics
///
/// Panics when `cfg` fails `ZipfConfig::validate`.
pub fn generate(cfg: &ZipfConfig) -> Vec<ScheduledRequest> {
    cfg.validate()
        .unwrap_or_else(|e| panic!("zipf config: {e}"));
    let sampler = ZipfSampler::new(cfg.blocks, cfg.theta);
    let mut rng = Xoshiro256::new(cfg.seed);
    let mut out = Vec::with_capacity(usize::try_from(cfg.requests).unwrap_or(0));
    let mut now_ps = 0u64;
    for tag in 0..cfg.requests {
        let gap_ns = cfg.mean_gap_ns * rng.exponential();
        now_ps = now_ps.saturating_add((gap_ns * 1000.0) as u64);
        let addr = sampler.sample(&mut rng);
        let op = if rng.gen_bool(cfg.write_fraction) {
            Op::Write
        } else {
            Op::Read
        };
        out.push(ScheduledRequest {
            addr,
            op,
            arrival_ps: now_ps,
            tag,
        });
    }
    out
}

/// Deterministic write payload for `addr`: the address in the first 8
/// bytes, tag in the next 8, zero elsewhere — distinct writes to the same
/// address carry distinct payloads, so last-writer-wins is observable.
pub fn write_payload(addr: u64, tag: u64, block_bytes: usize) -> Vec<u8> {
    let mut d = vec![0u8; block_bytes];
    if block_bytes >= 8 {
        d[..8].copy_from_slice(&addr.to_le_bytes());
    }
    if block_bytes >= 16 {
        d[8..16].copy_from_slice(&tag.to_le_bytes());
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ZipfConfig {
        ZipfConfig::hot(1 << 10, 2_000, 64, 0xFEED)
    }

    #[test]
    fn schedule_is_deterministic_and_in_range() {
        let a = generate(&cfg());
        let b = generate(&cfg());
        assert_eq!(a, b);
        assert_eq!(a.len(), 2_000);
        assert!(a.iter().all(|r| r.addr < 1 << 10));
        // Arrivals are sorted and tags are unique in order.
        for (i, w) in a.windows(2).enumerate() {
            assert!(w[0].arrival_ps <= w[1].arrival_ps);
            assert_eq!(w[0].tag, i as u64);
        }
        let mut c = cfg();
        c.seed ^= 1;
        assert_ne!(generate(&c), a, "seed changes the schedule");
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let reqs = generate(&cfg());
        let hot = reqs.iter().filter(|r| r.addr < 10).count();
        // Under Zipf(0.99) over 1024 addresses, the top 10 ranks carry
        // roughly a third of the mass; uniform would give ~1%.
        assert!(
            hot * 10 > reqs.len(),
            "only {hot}/{} requests hit the top-10 hot set",
            reqs.len()
        );
        let mut uniform = cfg();
        uniform.theta = 0.0;
        let flat = generate(&uniform);
        let flat_hot = flat.iter().filter(|r| r.addr < 10).count();
        assert!(flat_hot < hot / 4, "theta=0 must be (near) uniform");
    }

    #[test]
    fn write_fraction_is_respected() {
        let reqs = generate(&cfg());
        let writes = reqs.iter().filter(|r| r.op == Op::Write).count();
        let frac = writes as f64 / reqs.len() as f64;
        assert!((frac - 0.1).abs() < 0.05, "write fraction {frac}");
    }

    #[test]
    fn payloads_distinguish_writers() {
        let a = write_payload(5, 1, 64);
        let b = write_payload(5, 2, 64);
        assert_ne!(a, b);
        assert_eq!(a[..8], 5u64.to_le_bytes());
    }

    #[test]
    #[should_panic(expected = "zipf config")]
    fn invalid_config_panics() {
        let mut c = cfg();
        c.write_fraction = 1.5;
        let _ = generate(&c);
    }
}
