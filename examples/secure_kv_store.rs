//! A toy oblivious key-value store on top of Fork Path ORAM — the
//! cloud-outsourcing scenario the paper's introduction motivates: even an
//! adversary who sees every DRAM address learns nothing about *which* keys
//! a client touches.
//!
//! Run with: `cargo run --release --example secure_kv_store`

use std::collections::HashMap;

use fork_path_oram::core::{ForkConfig, ForkPathController, NewRequest, OramEngine};
use fork_path_oram::dram::{DramConfig, DramSystem};
use fork_path_oram::path_oram::OramConfig;

/// Fixed-size record store: key -> slot, values padded to one ORAM block.
struct ObliviousKvStore {
    ctl: ForkPathController,
    directory: HashMap<String, u64>, // held inside the trusted boundary
    next_slot: u64,
    block_bytes: usize,
}

impl ObliviousKvStore {
    fn new(seed: u64) -> Self {
        let cfg = OramConfig::small_test();
        let block_bytes = cfg.block_bytes;
        let dram = DramSystem::new(DramConfig::ddr3_1600(2));
        let ctl = ForkPathController::new(cfg, ForkConfig::default(), dram, seed);
        Self {
            ctl,
            directory: HashMap::new(),
            next_slot: 0,
            block_bytes,
        }
    }

    fn put(&mut self, key: &str, value: &[u8]) {
        assert!(value.len() < self.block_bytes, "value must fit one block");
        let slot = *self.directory.entry(key.to_string()).or_insert_with(|| {
            let s = self.next_slot;
            self.next_slot += 1;
            s
        });
        // Length-prefixed payload, padded by the controller to block size.
        let mut payload = vec![value.len() as u8];
        payload.extend_from_slice(value);
        self.ctl
            .submit(NewRequest::write(slot, payload, self.ctl.clock_ps()))
            .expect("controller invariant violated");
        self.ctl
            .run_to_idle()
            .expect("controller invariant violated");
    }

    fn get(&mut self, key: &str) -> Option<Vec<u8>> {
        let slot = *self.directory.get(key)?;
        self.ctl
            .submit(NewRequest::read(slot, self.ctl.clock_ps()))
            .expect("controller invariant violated");
        let done = self
            .ctl
            .run_to_idle()
            .expect("controller invariant violated");
        let block = &done.last()?.data;
        let len = block[0] as usize;
        Some(block[1..1 + len].to_vec())
    }
}

fn main() {
    let mut store = ObliviousKvStore::new(7);

    println!("populating the oblivious store...");
    store.put("alice", b"pk:ed25519:aa11");
    store.put("bob", b"pk:ed25519:bb22");
    store.put("carol", b"pk:ed25519:cc33");
    store.put("alice", b"pk:ed25519:aa99"); // update in place

    println!("querying...");
    assert_eq!(store.get("alice").unwrap(), b"pk:ed25519:aa99");
    assert_eq!(store.get("bob").unwrap(), b"pk:ed25519:bb22");
    assert_eq!(store.get("carol").unwrap(), b"pk:ed25519:cc33");
    assert!(store.get("mallory").is_none());

    // A burst of hot-key queries: the access pattern in DRAM stays
    // indistinguishable from any other query mix of the same length.
    for _ in 0..20 {
        let _ = store.get("alice");
    }

    let s = store.ctl.stats();
    println!("\nqueries served              : {}", s.completed_requests);
    println!("ORAM accesses on the bus    : {}", s.oram_accesses);
    println!("on-chip (stash) fast hits   : {}", s.stash_hits);
    println!("avg buckets / phase         : {:.2}", s.avg_path_len());
    store.ctl.state().check_invariants().expect("invariants");
    println!("invariants                  : OK");
}
