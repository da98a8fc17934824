//! The metric names `BENCHMARK.json` promises, in the order they are
//! printed. A pass that produces any other set is a broken run, and the
//! unit test below holds this list against the file itself.

/// `--trace 0`: what a user of the system sees.
pub const END_TO_END: [&str; 3] = ["peak_rss_mb", "setup_s", "wall_us_per_access"];

/// `--trace 1`: single layers, measured from outside the program.
pub const PER_LAYER: [&str; 67] = [
    // Simulated clock, engine level (exact for a seed).
    "sim_latency_ns_per_req",
    "sim_exec_ns_per_req",
    "sim_avg_path_len",
    "sim_accesses_per_req",
    "sim_energy_uj_per_req",
    // Spans around the benchmark's calls into the engine.
    "workloads.issue_ns_per_req",
    "engine.submit_ns_per_req",
    "engine.process_one_us_per_access",
    "engine.drain_ns_per_req",
    "bench.on_complete_ns_per_req",
    "sim.driver_overhead_share",
    "trace.ring_overhead_share",
    "bench.tracing_overhead_share",
    "crypto.real_overhead_share",
    // Stack replay: bare engine, service, wire.
    "replay.engine_us_per_req",
    "replay.service_us_per_req",
    "replay.net_us_per_req",
    "replay.engine_accesses_per_req",
    "replay.net_accesses_per_req",
    "service.overhead_us_per_req",
    "net.overhead_us_per_req",
    "net.rtt_p50_us",
    "net.rtt_p99_us",
    "net.rtt_samples",
    "net.wire_bytes_per_req",
    "net.cpu_sys_share",
    "net.cpu_util",
    "service.batch_mean",
    "service.queue_high_water",
    "service.shard_imbalance",
    // Exact counts of one engine-level run.
    "sched.dummy_share",
    "dummy.replaced_share",
    "merge.read_levels_skipped_per_access",
    "posmap.real_accesses_per_req",
    "stash.hit_share",
    "stash.high_water",
    "stash.mean_occupancy",
    "mac.hit_rate",
    "tree.buckets_per_access",
    "crypto.blocks_per_access",
    "dram.bursts_per_access",
    "dram.acts_per_access",
    "dram.row_hit_rate",
    "trace.counter_events_per_access",
    // Kernels: one public function timed alone.
    "crypto.encrypt_ns_per_block",
    "crypto.decrypt_ns_per_block",
    "tree.take_bucket_ns",
    "tree.write_bucket_ns",
    "tree.write_bucket_real_ns",
    "stash.insert_ns",
    "stash.plan_eviction_us",
    "dram.access_batch_ns_per_burst",
    "plb.touch_ns",
    "mac.lookup_insert_ns",
    "trace.bump_ns",
    "queue.push_pop_ns",
    "wire.encode_ns",
    "wire.decode_ns",
    "workloads.zipf_generate_ns_per_req",
    // Kernels x counts over the measured access.
    "crypto.est_share",
    "tree.est_share",
    "stash.est_share",
    "dram.est_share",
    "mac.est_share",
    "trace.est_share",
    "engine.est_attributed_share",
    "engine.est_unattributed_share",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::WORKLOADS;

    #[test]
    fn benchmark_json_names_exactly_these() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        fp_stats::json::validate(&file).expect("BENCHMARK.json is valid JSON");
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END)
            .chain(PER_LAYER);
        let mut expected = 0;
        for name in names {
            assert!(
                file.contains(&format!("\"name\": \"{name}\"")),
                "BENCHMARK.json does not name {name}"
            );
            expected += 1;
        }
        assert_eq!(
            file.matches("\"name\": ").count(),
            expected,
            "BENCHMARK.json names something the benchmark does not produce"
        );
    }
}
