//! Closed-loop client pools for the sharded serving layer (`fp-service`).
//!
//! A [`ServiceClientPool`] models the tenants of one ORAM shard: a set of
//! clients, each keeping exactly one request outstanding (issue → wait for
//! the completion → think → issue again). The pool lives *inside* the shard
//! worker and is driven entirely by the shard's own completions in
//! simulated time, so its request stream — addresses, ops, and arrival
//! times — is a pure function of `(seed, shard)` and never depends on how
//! the host scheduler interleaves worker threads. That determinism is what
//! the serving layer's cross-rerun counter property is built on.
//!
//! Clients are parameterized by [`BenchmarkProfile`]s (intensity, write
//! split, locality), so a Table 2 mix can be replayed as service traffic:
//! one client per program, working sets scaled into the shard's private
//! address space.

use fp_crypto::Xoshiro256;
use fp_path_oram::Op;

use crate::profile::BenchmarkProfile;

/// One request produced by a pool: a shard-local address plus issue
/// metadata. The service layer assigns payloads and routing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolRequest {
    /// Shard-local block address.
    pub addr: u64,
    /// Direction.
    pub op: Op,
    /// Issue time, picoseconds of the shard's simulated clock.
    pub arrival_ps: u64,
    /// Index of the issuing client (echo it back via
    /// [`ServiceClientPool::on_complete`]).
    pub client: usize,
}

/// One closed-loop client: think time, locality, and a private slice of the
/// shard's address space.
#[derive(Debug, Clone)]
struct Client {
    rng: Xoshiro256,
    /// First block of the client's private region (shard-local).
    region_base: u64,
    region_blocks: u64,
    gap_ns: f64,
    write_fraction: f64,
    locality: f64,
    last_addr: u64,
    issued: u64,
    budget: u64,
}

impl Client {
    fn next_request(&mut self, now_ps: u64, client: usize) -> Option<PoolRequest> {
        if self.issued >= self.budget {
            return None;
        }
        self.issued += 1;
        let think_ns = self.gap_ns * self.rng.exponential();
        let arrival_ps = now_ps + (think_ns * 1000.0) as u64;
        let addr = if self.rng.gen_bool(self.locality) {
            let stride = 1 + self.rng.next_below(8);
            self.region_base + (self.last_addr - self.region_base + stride) % self.region_blocks
        } else {
            self.region_base + self.rng.next_below(self.region_blocks)
        };
        self.last_addr = addr;
        let op = if self.rng.gen_bool(self.write_fraction) {
            Op::Write
        } else {
            Op::Read
        };
        Some(PoolRequest {
            addr,
            op,
            arrival_ps,
            client,
        })
    }
}

/// A deterministic closed-loop client pool for one shard.
#[derive(Debug, Clone)]
pub struct ServiceClientPool {
    clients: Vec<Client>,
    issued: u64,
    completed: u64,
}

impl ServiceClientPool {
    /// Builds a pool from per-client profiles over `shard_blocks` of
    /// shard-local address space, split evenly among the clients. Each
    /// client issues `budget / clients` requests (the remainder goes to the
    /// first clients so the pool issues exactly `budget`).
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty or `shard_blocks < profiles.len()`.
    pub fn from_profiles(
        profiles: &[BenchmarkProfile],
        shard_blocks: u64,
        budget: u64,
        seed: u64,
    ) -> Self {
        assert!(!profiles.is_empty(), "a pool needs at least one client");
        let n = profiles.len() as u64;
        assert!(shard_blocks >= n, "shard too small for {n} clients");
        let region = shard_blocks / n;
        let clients = profiles
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let base = i as u64 * region;
                Client {
                    rng: Xoshiro256::new(
                        seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)),
                    ),
                    region_base: base,
                    region_blocks: region,
                    gap_ns: p.avg_gap_ns,
                    write_fraction: p.write_fraction,
                    locality: p.locality,
                    last_addr: base,
                    issued: 0,
                    budget: budget / n + u64::from((i as u64) < budget % n),
                }
            })
            .collect();
        Self {
            clients,
            issued: 0,
            completed: 0,
        }
    }

    /// The opening burst: every client's first request, issued at time 0
    /// plus one think time so arrivals stagger deterministically.
    pub fn initial_burst(&mut self) -> Vec<PoolRequest> {
        let n = self.clients.len();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            if let Some(r) = self.clients[i].next_request(0, i) {
                self.issued += 1;
                out.push(r);
            }
        }
        out
    }

    /// Feeds one completion back: client `client`'s request finished at
    /// `done_ps`; returns the client's next request, if budget remains.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range client index.
    pub fn on_complete(&mut self, client: usize, done_ps: u64) -> Option<PoolRequest> {
        self.completed += 1;
        let r = self.clients[client].next_request(done_ps, client);
        if r.is_some() {
            self.issued += 1;
        }
        r
    }

    /// Whether every budgeted request has been issued and completed.
    #[cfg(test)]
    fn finished(&self) -> bool {
        self.completed == self.issued && self.clients.iter().all(|c| c.issued >= c.budget)
    }

    /// Total request budget across clients.
    #[cfg(test)]
    fn budget(&self) -> u64 {
        self.clients.iter().map(|c| c.budget).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixes;

    fn pool(seed: u64) -> ServiceClientPool {
        ServiceClientPool::from_profiles(&mixes::all()[0].programs, 1 << 12, 103, seed)
    }

    #[test]
    fn budget_splits_exactly() {
        let p = pool(1);
        assert_eq!(p.budget(), 103);
    }

    #[test]
    fn closed_loop_is_deterministic_per_seed() {
        let drive = |mut p: ServiceClientPool| {
            let mut seq = Vec::new();
            let mut pending = p.initial_burst();
            while let Some(r) = pending.pop() {
                seq.push((r.addr, r.op, r.arrival_ps));
                if let Some(next) = p.on_complete(r.client, r.arrival_ps + 500_000) {
                    pending.push(next);
                }
            }
            assert!(p.finished());
            seq
        };
        assert_eq!(drive(pool(7)), drive(pool(7)));
        assert_ne!(drive(pool(7)), drive(pool(8)));
    }

    #[test]
    fn addresses_stay_shard_local() {
        let mut p = pool(3);
        let mut pending = p.initial_burst();
        while let Some(r) = pending.pop() {
            assert!(r.addr < 1 << 12, "addr {} outside the shard", r.addr);
            if let Some(next) = p.on_complete(r.client, r.arrival_ps + 1) {
                pending.push(next);
            }
        }
        assert_eq!(p.issued, 103);
        assert_eq!(p.completed, 103);
    }

    #[test]
    fn arrivals_advance_with_completions() {
        let mut p = pool(5);
        let burst = p.initial_burst();
        assert_eq!(burst.len(), 4);
        let follow = p.on_complete(burst[0].client, 1_000_000_000).unwrap();
        assert!(follow.arrival_ps > 1_000_000_000);
        assert_eq!(follow.client, burst[0].client);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn empty_profiles_rejected() {
        let _ = ServiceClientPool::from_profiles(&[], 16, 1, 0);
    }
}
