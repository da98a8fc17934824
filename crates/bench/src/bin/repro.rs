//! `repro <name> [--fast]` — regenerates one table, figure or study of the
//! evaluation (§5), the §3.6 security audit, or the trace-spine dump
//! (`repro trace [--trace <path>]`); `repro --list` names them all.
//!
//! Every figure is the same three steps — run traditional Path ORAM and a
//! set of scheme columns over the Table 2 mixes, reduce each run against
//! its baseline to one number, print the table — so most figures below are
//! one [`MixFigure`] row: {title, baseline, columns, cell, paper note}.
//! The rest (sweeps that summarise all mixes per row, the PARSEC suite,
//! the two tables) are short functions over the same helpers. `--fast` shortens the
//! runs (see [`MissBudget`]); the expected shapes are in EXPERIMENTS.md.

#![forbid(unsafe_code)]

use fp_bench::{
    caching_schemes, fork_with_mac, fork_with_queue, print_cols, print_row, print_title,
};
use fp_core::{
    BaselineController, CacheChoice, ForkConfig, ForkPathController, NewRequest, OramEngine,
};
use fp_dram::{DramConfig, DramSystem};
use fp_path_oram::path::overlap_degree;
use fp_path_oram::{OramConfig, PosMapHierarchy};
use fp_sim::experiment::{
    run_mix, run_mix_with_pipeline, run_mixes, trace_path_from_args, MissBudget, SweepOutcome,
};
use fp_sim::metrics::{geomean, RunResult};
use fp_sim::report::{sweep_to_json, to_csv, write_results_file};
use fp_sim::{run_workload, Scheme, SystemConfig};
use fp_stats::{
    autocorrelation, chi_square_critical, chi_square_two_sample, chi_square_uniform, ks_critical,
    ks_uniform,
};
use fp_workloads::cpu::{MultiCoreWorkload, PipelineKind};
use fp_workloads::mixes::{self, Mix};
use fp_workloads::parsec;

/// A reproducible artefact: name, what it shows, how to produce it.
type Figure = (&'static str, &'static str, fn(MissBudget));

const FIGURES: [Figure; 16] = [
    ("table1", "Table 1 — system configuration", table1),
    ("table2", "Table 2 — mixed benchmarks", table2),
    ("fig10", "path length + DRAM latency vs queue size", fig10),
    ("fig11", "normalized ORAM request count", fig11),
    ("fig12", "ORAM latency vs label-queue size", fig12),
    ("fig13", "ORAM latency vs caching design", fig13),
    ("fig14", "full-system slowdown", fig14),
    ("fig15", "ORAM memory-system energy", fig15),
    ("fig16", "in-order vs out-of-order", fig16),
    ("fig17", "thread-count and ORAM-size sensitivity", fig17),
    ("fig18", "DRAM-channel sensitivity", fig18),
    ("fig19", "PARSEC multithreaded workloads", fig19),
    (
        "ablation",
        "per-technique breakdown (beyond the paper)",
        ablation,
    ),
    (
        "stash_study",
        "stash occupancy vs traditional (§3.6)",
        stash_study,
    ),
    (
        "security_audit",
        "statistical battery on the label sequence (§3.6)",
        security_audit,
    ),
    (
        "trace",
        "fp-trace spine of a mixed run as JSON [--trace <path>]",
        trace,
    ),
];

/// The figure name: the first argument that is neither a flag nor the
/// path that follows `--trace`.
fn figure_name(args: &[String]) -> Option<&str> {
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            args.next();
        } else if !arg.starts_with("--") {
            return Some(arg);
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for (name, what, _) in FIGURES {
            println!("{name:<15} {what}");
        }
        return;
    }
    let name = figure_name(&args);
    match FIGURES.iter().find(|(n, ..)| Some(*n) == name) {
        Some((.., run)) => run(MissBudget::from_args(&args)),
        None => {
            eprintln!("usage: repro <name> [--fast] [--trace <path>] | repro --list");
            std::process::exit(2);
        }
    }
}

// ---- per-mix figures: one row of {title, columns, cell, note} each ----

/// One run reduced against its baseline run (same mix, same system).
type Cell = fn(&RunResult, &RunResult) -> f64;

fn latency(r: &RunResult, base: &RunResult) -> f64 {
    r.oram_latency_ns / base.oram_latency_ns
}

struct Column {
    label: String,
    cfg: SystemConfig,
    scheme: Scheme,
}

/// Columns over the paper's default system.
fn paper_columns<L: ToString>(schemes: impl IntoIterator<Item = (L, Scheme)>) -> Vec<Column> {
    let column = |(label, scheme): (L, Scheme)| Column {
        label: label.to_string(),
        cfg: SystemConfig::paper_default(),
        scheme,
    };
    schemes.into_iter().map(column).collect()
}

fn queue_columns() -> Vec<Column> {
    paper_columns([1usize, 8, 64, 128].map(|q| (format!("q={q}"), fork_with_queue(q))))
}

/// A figure with one row per Table 2 mix and one column per scheme, each
/// cell a run reduced against `baseline` on the same mix and system.
struct MixFigure {
    title: &'static str,
    baseline: Scheme,
    columns: Vec<Column>,
    cell: Cell,
    note: &'static str,
}

/// The sweeps behind a [`MixFigure`], per column: the baseline's and the
/// column scheme's. Failed mixes are recorded in the outcomes.
struct MixRuns {
    base: Vec<SweepOutcome>,
    runs: Vec<SweepOutcome>,
}

impl MixFigure {
    fn run(&self, budget: MissBudget) -> MixRuns {
        let mut base: Vec<SweepOutcome> = Vec::new();
        let mut runs = Vec::new();
        for (i, c) in self.columns.iter().enumerate() {
            // Columns sharing a system share one baseline sweep.
            let shared = (i > 0 && self.columns[i - 1].cfg == c.cfg).then(|| base[i - 1].clone());
            let sweep = |scheme| run_mixes(&c.cfg, scheme, budget, &mixes::all());
            base.push(shared.unwrap_or_else(|| sweep(&self.baseline)));
            runs.push(sweep(&c.scheme));
        }
        MixRuns { base, runs }
    }

    /// Per column, `cell` of every mix that survived every sweep — rows
    /// are joined by workload name, so a mix that failed under one scheme
    /// is skipped everywhere instead of misaligning the table.
    fn cells<'r>(&self, r: &'r MixRuns, cell: Cell) -> (Vec<&'r str>, Vec<Vec<f64>>) {
        let survived = |w: &&str| {
            r.base
                .iter()
                .chain(&r.runs)
                .all(|o| o.result_for(w).is_some())
        };
        let names = r.base[0].results.iter().map(|b| b.workload.as_str());
        let names: Vec<&str> = names.filter(survived).collect();
        let of = |o: &'r SweepOutcome, w: &str| o.result_for(w).expect("joined on survivors");
        let column = |(run, base): (&'r SweepOutcome, &'r SweepOutcome)| {
            names
                .iter()
                .map(|w| cell(of(run, w), of(base, w)))
                .collect()
        };
        let columns = r.runs.iter().zip(&r.base).map(column).collect();
        (names, columns)
    }

    /// Prints the table (one row per mix, then the geomean row) and the
    /// note; returns the geomeans.
    fn print(&self, r: &MixRuns) -> Vec<f64> {
        let (names, columns) = self.cells(r, self.cell);
        print_cols(
            "mix",
            &self.columns.iter().map(|c| &c.label).collect::<Vec<_>>(),
        );
        for (i, name) in names.iter().enumerate() {
            print_row(name, &columns.iter().map(|c| c[i]).collect::<Vec<_>>());
        }
        let means: Vec<f64> = columns.iter().map(|c| geomean(c.iter().copied())).collect();
        print_row("geomean", &means);
        print!("{}", self.note);
        means
    }

    fn show(&self, budget: MissBudget) -> Vec<f64> {
        print_title(self.title);
        self.print(&self.run(budget))
    }
}

fn fig11(budget: MissBudget) {
    let fig = MixFigure {
        title: "Fig 11: ORAM request inflation (total / real) vs label queue size",
        baseline: Scheme::Traditional,
        columns: queue_columns(),
        cell: |r, _| r.request_inflation(),
        note: "",
    };
    print_title(fig.title);
    let runs = fig.run(budget);
    fig.print(&runs);
    // Merging keeps blocks in the stash longer, so Fork Path also removes
    // real accesses through stash hits; shown apart from the dummy
    // overhead the figure is about.
    print_title("(side effect) real accesses vs baseline (stash-hit / PLB-like savings)");
    let (_, saved) = fig.cells(&runs, |r, b| {
        r.real_accesses as f64 / b.oram_accesses as f64
    });
    let means: Vec<f64> = saved.iter().map(|c| geomean(c.iter().copied())).collect();
    print_row("geomean", &means);
    println!("\n(paper: mean inflation ~5% at q=128; low-intensity mixes like Mix2");
    println!(" reach ~25%)");
}

fn fig12(budget: MissBudget) {
    let fig = MixFigure {
        title: "Fig 12: normalized ORAM latency vs label queue size",
        baseline: Scheme::Traditional,
        columns: queue_columns(),
        cell: latency,
        note: "\n(paper: best around q=64; q=128's extra dummies erode the gain)\n",
    };
    print_title(fig.title);
    let runs = fig.run(budget);
    // The committed CSV is the full-length one; a `--fast` pass leaves it be.
    if budget == MissBudget::Full {
        let sweeps = std::iter::once(&runs.base[0]).chain(&runs.runs);
        let raw: Vec<RunResult> = sweeps.flat_map(|o| o.results.clone()).collect();
        if let Ok(path) = write_results_file("fig12.csv", &to_csv(&raw)) {
            println!("(raw data written to {})", path.display());
        }
    }
    fig.print(&runs);
}

fn fig13(budget: MissBudget) {
    MixFigure {
        title: "Fig 13: normalized ORAM latency with different caching designs",
        baseline: Scheme::Traditional,
        columns: paper_columns(caching_schemes()),
        cell: latency,
        note: "\n(paper: MAC at ~1/4 the capacity matches treetop caching)\n",
    }
    .show(budget);
}

fn fig14(budget: MissBudget) {
    // The insecure processor is both the baseline and the last column
    // (all 1.0, as the paper draws it).
    let mut schemes = vec![("Traditional", Scheme::Traditional)];
    schemes.extend(caching_schemes());
    schemes.push(("Insecure", Scheme::Insecure));
    let fig = MixFigure {
        title: "Fig 14: full-system slowdown vs insecure processor",
        baseline: Scheme::Insecure,
        columns: paper_columns(schemes),
        cell: |r, b| r.exec_time_ps as f64 / b.exec_time_ps as f64,
        note: "",
    };
    print_title(fig.title);
    let runs = fig.run(budget);
    let means = fig.print(&runs);

    // Every scheme's raw results *and* its failed mixes, so a partial
    // sweep is visible in the artifact rather than only on stderr. Written
    // at full length only, like fig12's CSV.
    if budget == MissBudget::Full {
        let mut labeled = vec![("Insecure".to_string(), &runs.base[0])];
        let schemes = fig
            .columns
            .iter()
            .zip(&runs.runs)
            .take(fig.columns.len() - 1);
        labeled.extend(schemes.map(|(c, o)| (c.label.clone(), o)));
        match write_results_file("fig14_sweep.json", &sweep_to_json("fig14", &labeled)) {
            Ok(path) => println!("\nsweep report written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write sweep report: {e}"),
        }
    }
    println!(
        "\nExecution-time reduction, Merge+1M MAC vs traditional: {:.0}% (paper: 58%)",
        (1.0 - means[4] / means[0]) * 100.0
    );
}

fn fig15(budget: MissBudget) {
    let means = MixFigure {
        title: "Fig 15: normalized ORAM memory-system energy",
        baseline: Scheme::Traditional,
        columns: paper_columns(caching_schemes()),
        cell: |r, b| r.energy.total_pj() as f64 / b.energy.total_pj() as f64,
        note: "",
    }
    .show(budget);
    println!(
        "\nEnergy reduction, Merge+1M MAC vs traditional: {:.0}% (paper: 38%); \
         vs 1M treetop: {:.0}% (paper: 15%)",
        (1.0 - means[3]) * 100.0,
        (1.0 - means[3] / means[4]) * 100.0
    );
}

fn fig18(budget: MissBudget) {
    let column = |channels: usize| Column {
        label: format!("{channels}-ch"),
        cfg: SystemConfig::with_channels(channels),
        scheme: Scheme::ForkDefault,
    };
    MixFigure {
        title: "Fig 18: ORAM latency speedup (traditional / fork) vs channel count",
        baseline: Scheme::Traditional,
        columns: [1, 2, 4].map(column).into(),
        cell: |r, b| b.oram_latency_ns / r.oram_latency_ns,
        note: "\n(paper: speedup decreases as channels increase)\n",
    }
    .show(budget);
}

fn stash_study(budget: MissBudget) {
    // §3.6: merging and scheduling must not change the stash-overflow
    // story. Fork Path holds the merged prefix between accesses, so it
    // rests higher, but far below the provisioned capacity.
    print_title("Stash occupancy: traditional vs Fork Path (S3.6)");
    let cfg = SystemConfig::paper_default();
    let base = run_mixes(&cfg, &Scheme::Traditional, budget, &mixes::all()).results;
    let fork = run_mixes(&cfg, &Scheme::ForkDefault, budget, &mixes::all()).results;
    print_cols("mix", &["tradHW", "forkHW"]);
    for (b, f) in base.iter().zip(&fork) {
        let row = [b.stash_high_water as f64, f.stash_high_water as f64];
        print_row(&b.workload, &row);
    }
    let worst = fork.iter().map(|f| f.stash_high_water).max().unwrap_or(0);
    let capacity = cfg.oram.stash_capacity as f64;
    println!(
        "\nworst Fork Path high water: {worst} of C = {capacity} provisioned \
         ({:.0}% headroom)",
        (1.0 - worst as f64 / capacity) * 100.0
    );
}

// ---- sweeps: one row per variant, summarising every mix ----

/// All mixes under one variant, reduced against the traditional sweep.
type Summary = fn(&[RunResult], &[RunResult]) -> f64;

fn total(results: &[RunResult], field: fn(&RunResult) -> u64) -> f64 {
    results.iter().map(field).sum::<u64>() as f64
}

/// Prints one row per scheme variant and one column per summary.
fn variant_table(
    first: &str,
    variants: &[(String, Scheme)],
    columns: &[(&str, Summary)],
    budget: MissBudget,
) {
    let cfg = SystemConfig::paper_default();
    let baseline = run_mixes(&cfg, &Scheme::Traditional, budget, &mixes::all()).results;
    print_cols(
        first,
        &columns.iter().map(|(head, _)| head).collect::<Vec<_>>(),
    );
    for (label, scheme) in variants {
        // The traditional variant is the baseline sweep itself.
        let rerun = *scheme != Scheme::Traditional;
        let results = if rerun {
            run_mixes(&cfg, scheme, budget, &mixes::all()).results
        } else {
            baseline.clone()
        };
        let row: Vec<f64> = columns
            .iter()
            .map(|(_, f)| f(&results, &baseline))
            .collect();
        print_row(label, &row);
    }
}

fn path_len(results: &[RunResult], _: &[RunResult]) -> f64 {
    geomean(results.iter().map(|r| r.avg_path_len))
}

fn fig10(budget: MissBudget) {
    print_title("Fig 10: avg ORAM path length / normalized DRAM latency vs label queue size");
    let queues = [1usize, 2, 4, 8, 16, 32, 64, 128];
    let mut variants = vec![("traditional".to_string(), Scheme::Traditional)];
    variants.extend(queues.map(|q| (format!("merging q={q}"), fork_with_queue(q))));
    fn busy(results: &[RunResult]) -> f64 {
        geomean(results.iter().map(|r| r.dram_busy_ns_per_access))
    }
    let columns: [(&str, Summary); 2] = [
        ("path", path_len),
        ("normBusy", |results, base| busy(results) / busy(base)),
    ];
    variant_table("queue size", &variants, &columns, budget);
    println!("\n(paper: path falls from 25 toward ~17 as the queue grows; DRAM");
    println!(" latency falls at least proportionally)");
}

fn ablation(budget: MissBudget) {
    let mac = CacheChoice::MergingAware { bytes: 1 << 20 };
    let fork = |label: &str, merging, scheduling, replacing, cache, plb_blocks| {
        let knobs = ForkConfig {
            merging,
            scheduling,
            replacing,
            cache,
            plb_blocks,
            ..ForkConfig::default()
        };
        (label.to_string(), Scheme::Fork(knobs))
    };
    let variants = [
        ("traditional".to_string(), Scheme::Traditional),
        ("merge only (q=1)".to_string(), fork_with_queue(1)),
        fork("merge, no sched", true, false, true, CacheChoice::None, 0),
        fork(
            "merge+sched, no repl",
            true,
            true,
            false,
            CacheChoice::None,
            0,
        ),
        fork("merge+sched+repl", true, true, true, CacheChoice::None, 0),
        fork("all + 1M MAC", true, true, true, mac, 0),
        fork("all + MAC + PLB64", true, true, true, mac, 64),
    ];
    print_title("Ablation: marginal contribution of each Fork Path technique");
    let columns: [(&str, Summary); 4] = [
        ("normLat", |results, base| {
            geomean(results.iter().zip(base).map(|(r, b)| latency(r, b)))
        }),
        ("path", path_len),
        ("dummyFrac", |results, _| {
            total(results, |r| r.dummy_accesses) / total(results, |r| r.oram_accesses).max(1.0)
        }),
        ("acc/req", |results, _| {
            total(results, |r| r.oram_accesses) / total(results, |r| r.llc_requests).max(1.0)
        }),
    ];
    variant_table("variant", &variants, &columns, budget);
    println!("\n(each row adds one mechanism; DESIGN.md S6 motivates the study)");
}

/// Traditional and `fork` on every mix through `run`: (baseline, fork).
fn mix_pairs(
    fork: &Scheme,
    run: impl Fn(&Scheme, &Mix) -> RunResult,
) -> Vec<(RunResult, RunResult)> {
    let pair = |mix: &Mix| (run(&Scheme::Traditional, mix), run(fork, mix));
    mixes::all().iter().map(pair).collect()
}

fn latency_geomean(pairs: &[(RunResult, RunResult)]) -> f64 {
    geomean(pairs.iter().map(|(base, fork)| latency(fork, base)))
}

fn dummy_fraction(r: &RunResult) -> f64 {
    r.dummy_accesses as f64 / r.oram_accesses.max(1) as f64
}

fn fig16(budget: MissBudget) {
    print_title("Fig 16: normalized ORAM latency, in-order vs out-of-order");
    let cfg = SystemConfig::paper_default();
    print_cols("pipeline", &["fork/trad", "dummyFrac"]);
    for (name, pipeline) in [
        ("Out-of-order", PipelineKind::OutOfOrder),
        ("In-order", PipelineKind::InOrder),
    ] {
        let pairs = mix_pairs(&Scheme::ForkDefault, |scheme, mix| {
            run_mix_with_pipeline(&cfg, scheme, mix, pipeline, 4, budget)
        });
        let dummies: f64 = pairs.iter().map(|(_, fork)| dummy_fraction(fork)).sum();
        print_row(
            name,
            &[latency_geomean(&pairs), dummies / pairs.len() as f64],
        );
    }
    println!("\n(paper: in-order executes many more dummy requests, eroding the");
    println!(" latency advantage; a smaller queue would suit in-order cores)");
}

fn fig17(budget: MissBudget) {
    print_title("Fig 17(a): normalized ORAM latency vs thread count");
    let cfg = SystemConfig::paper_default();
    print_cols("threads", &["fork/trad"]);
    for threads in [1usize, 2, 4, 8] {
        let pairs = mix_pairs(&Scheme::ForkDefault, |scheme, mix| {
            run_mix_with_pipeline(&cfg, scheme, mix, PipelineKind::OutOfOrder, threads, budget)
        });
        print_row(&threads.to_string(), &[latency_geomean(&pairs)]);
    }
    println!("(paper: the advantage grows with thread count)");

    print_title("Fig 17(b): normalized ORAM latency vs ORAM capacity (4 threads)");
    print_cols("capacity", &["fork+mac/trad", "path"]);
    for gb in [1u64, 4, 16, 32] {
        let cfg = SystemConfig::with_capacity(gb << 30);
        let pairs = mix_pairs(&fork_with_mac(1 << 20), |scheme, mix| {
            run_mix(&cfg, scheme, mix, budget)
        });
        let path = geomean(pairs.iter().map(|(base, _)| base.avg_path_len));
        print_row(&format!("{gb}GB"), &[latency_geomean(&pairs), path]);
    }
    println!("(paper: efficiency degrades moderately as the tree deepens)");
}

fn fig19(budget: MissBudget) {
    print_title("Fig 19: normalized ORAM latency, PARSEC multithreaded (4 threads)");
    let cfg = SystemConfig::paper_default();
    print_cols("workload", &["fork+mac/trad", "dummyFrac"]);
    let mut pairs = Vec::new();
    for def in parsec::all() {
        let run = |scheme| {
            let wl = MultiCoreWorkload::from_parsec(&def, 4, budget.misses_per_core(), cfg.seed);
            run_workload(&cfg, scheme, wl)
        };
        let (base, fork) = (run(Scheme::Traditional), run(fork_with_mac(1 << 20)));
        print_row(
            def.profile.name,
            &[latency(&fork, &base), dummy_fraction(&fork)],
        );
        pairs.push((base, fork));
    }
    print_row("geomean", &[latency_geomean(&pairs)]);
    println!("\n(paper: significant reduction across the suite; the gain tracks");
    println!(" memory intensity via the dummy-request count)");
}

// ---- the two tables ----

fn table1(_: MissBudget) {
    let cfg = SystemConfig::paper_default();
    let (oram, dram) = (&cfg.oram, &cfg.dram);
    let h = PosMapHierarchy::new(oram);
    let row = |key: &str, value: String| println!("{key:<26}{value}");

    print_title("Table 1: Processor / ORAM / memory configuration");
    row(
        "Core",
        "out-of-order, 4 cores, 2 GHz (workload model)".into(),
    );
    row("Data block size", format!("{} B", oram.block_bytes));
    let gb = (oram.data_blocks * oram.block_bytes as u64) >> 30;
    let path = format!("(L = {}, path = {} buckets)", oram.levels, oram.path_len());
    row("Data ORAM capacity", format!("{gb} GB {path}"));
    row("Block slots per bucket Z", oram.z.to_string());
    row("Stash capacity", format!("{} blocks", oram.stash_capacity));
    let (in_tree, on_chip) = (h.posmap_levels(), h.onchip_entries());
    let kib = (on_chip * 4) >> 10;
    let recursion = format!("{in_tree} levels in-tree, {on_chip} entries on chip ({kib} KiB)");
    row("PosMap recursion", recursion);
    row(
        "Unified tree blocks",
        format!("{} (data + posmap)", h.total_blocks()),
    );
    row(
        "Memory type",
        format!("DDR3-1600 (tCK = {} ps)", dram.timing.t_ck),
    );
    row("Memory channels", dram.channels.to_string());
    // 2 transfers/clock x 8 bytes on a x64 bus: 16000 / tCK(ps) GB/s.
    let peak = dram.channels as f64 * 16_000.0 / dram.timing.t_ck as f64;
    row("Peak bandwidth", format!("{peak:.1} GB/s"));
    row("Row size", format!("{} KiB", dram.row_bytes >> 10));
    row("Banks per rank", dram.banks_per_rank.to_string());
}

fn table2(_: MissBudget) {
    print_title("Table 2: Mixed benchmarks from SPEC 2006 (synthetic profiles)");
    for mix in mixes::all() {
        let names: Vec<_> = mix.programs.iter().map(|p| p.name).collect();
        println!("{:<6} {}", mix.name, names.join(", "));
    }

    print_title("Synthetic profile parameters (see DESIGN.md S2)");
    println!(
        "{:<16} {:>6} {:>10} {:>12} {:>7} {:>9} {:>5}",
        "benchmark", "group", "gap(ns)", "ws(blocks)", "wr%", "locality", "mlp"
    );
    for p in fp_workloads::spec::all() {
        println!(
            "{:<16} {:>6} {:>10.0} {:>12} {:>7.0} {:>9.2} {:>5}",
            p.name,
            if p.is_high_overhead() { "HG" } else { "LG" },
            p.avg_gap_ns,
            p.working_set_blocks,
            p.write_fraction * 100.0,
            p.locality,
            p.mlp
        );
    }
}

// ---- security audit (§3.6) ----
//
// Statistical battery over the externally visible label sequence, for the
// traditional and the Fork Path controller:
// 1. marginal uniformity of leaf labels (chi-square + KS),
// 2. indistinguishability across two very different programs (two-sample
//    chi-square),
// 3. serial structure (lag-1..4 autocorrelation; with overlap scheduling
//    the reordering is a public-information function, so correlation is
//    expected — shown for contrast against the FIFO configuration),
// 4. the overlap-degree distribution against its closed form
//    P(overlap >= k) = 2^-(k-1).

/// The paper's memory system: two DDR3-1600 channels.
fn dram() -> DramSystem {
    DramSystem::new(DramConfig::ddr3_1600(2))
}

fn fork_labels(pattern: &[u64], scheduling: bool, seed: u64) -> (Vec<u64>, u64) {
    let cfg = OramConfig::small_test();
    let leaves = cfg.leaf_count();
    let fork_cfg = ForkConfig {
        scheduling,
        ..ForkConfig::default()
    };
    let mut ctl = ForkPathController::new(cfg, fork_cfg, dram(), seed);
    ctl.enable_label_trace();
    for &addr in pattern {
        ctl.submit(NewRequest::read(addr, ctl.clock_ps()))
            .expect("controller invariant violated");
        if addr % 5 == 0 {
            ctl.run_to_idle().expect("controller invariant violated");
        }
    }
    ctl.run_to_idle().expect("controller invariant violated");
    (ctl.label_trace().unwrap().to_vec(), leaves)
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "FAIL"
    }
}

fn security_audit(_: MissBudget) {
    let n = 4000u64;
    let sequential: Vec<u64> = (0..n).map(|i| i % 400).collect();
    let hot: Vec<u64> = (0..n).map(|i| (i * i) % 16).collect();

    print_title("1. Marginal uniformity of the label sequence");
    for (name, trace, leaves) in [
        ("fork/sequential", fork_labels(&sequential, true, 1)),
        ("fork/hot-set", fork_labels(&hot, true, 2)),
    ]
    .map(|(n, (t, l))| (n, t, l))
    {
        let bins = 64usize;
        let mut counts = vec![0u64; bins];
        for &l in &trace {
            counts[(l as u128 * bins as u128 / leaves as u128) as usize] += 1;
        }
        let chi2 = chi_square_uniform(&counts);
        let crit = chi_square_critical(bins as f64 - 1.0, 3.09);
        let mut unit: Vec<f64> = trace.iter().map(|&l| l as f64 / leaves as f64).collect();
        let d = ks_uniform(&mut unit);
        let dc = ks_critical(trace.len(), 0.001);
        println!(
            "{name:<18} n={:<6} chi2={chi2:8.1} (<{crit:.1}) {}   KS={d:.4} (<{dc:.4}) {}",
            trace.len(),
            verdict(chi2 < crit),
            verdict(d < dc)
        );
    }

    print_title("2. Two-sample indistinguishability (different programs)");
    {
        let (t1, leaves) = fork_labels(&sequential, true, 3);
        let (t2, _) = fork_labels(&hot, true, 3);
        let bins = 32usize;
        let hist = |t: &[u64]| {
            let mut h = vec![0u64; bins];
            for &l in t {
                h[(l as u128 * bins as u128 / leaves as u128) as usize] += 1;
            }
            h
        };
        let chi2 = chi_square_two_sample(&hist(&t1), &hist(&t2));
        let crit = chi_square_critical(bins as f64 - 1.0, 3.09);
        println!(
            "sequential vs hot-set: chi2={chi2:.1} (<{crit:.1}) {}",
            verdict(chi2 < crit)
        );
    }

    print_title("3. Serial correlation (scheduling reorders on public info)");
    for (name, scheduling) in [("FIFO queue", false), ("overlap scheduling", true)] {
        let (trace, leaves) = fork_labels(&sequential, scheduling, 4);
        let xs: Vec<f64> = trace.iter().map(|&l| l as f64 / leaves as f64).collect();
        let rho: Vec<f64> = (1..=4).map(|k| autocorrelation(&xs, k)).collect();
        let bound = 4.0 / (xs.len() as f64).sqrt();
        let flat = rho.iter().all(|r| r.abs() < bound);
        println!(
            "{name:<20} rho(1..4) = [{:+.3} {:+.3} {:+.3} {:+.3}]  {}",
            rho[0],
            rho[1],
            rho[2],
            rho[3],
            if scheduling {
                "(correlation expected: overlap-first order)"
            } else {
                verdict(flat)
            }
        );
    }

    print_title("4. Overlap-degree distribution vs P(ovl >= k) = 2^-(k-1)");
    {
        let cfg = OramConfig::small_test();
        let levels = cfg.levels;
        let mut base = BaselineController::new(cfg, dram(), 5);
        base.enable_label_trace();
        for i in 0..3000u64 {
            base.submit(NewRequest::read(i % 300, base.clock_ps()))
                .expect("controller invariant violated");
            base.run_to_idle().expect("controller invariant violated");
        }
        let trace = base.label_trace().unwrap();
        let mut ge = [0u64; 8];
        let pairs = trace.len() - 1;
        for w in trace.windows(2) {
            let o = overlap_degree(levels, w[0], w[1]) as usize;
            for (k, slot) in ge.iter_mut().enumerate() {
                if o > k {
                    *slot += 1;
                }
            }
        }
        let mut ok = true;
        print!("k:        ");
        for k in 1..=6 {
            print!(" {k:>7}");
        }
        print!("\nmeasured: ");
        for k in 1..=6usize {
            let p = ge[k - 1] as f64 / pairs as f64;
            print!(" {p:>7.4}");
            let theory = 0.5f64.powi(k as i32 - 1);
            if (p - theory).abs() > 4.0 * (theory / pairs as f64).sqrt() + 0.01 {
                ok = false;
            }
        }
        print!("\ntheory:   ");
        for k in 1..=6 {
            print!(" {:>7.4}", 0.5f64.powi(k - 1));
        }
        println!("\nconsecutive labels independent: {}", verdict(ok));
    }
}

// ---- trace-spine dump ----

/// Drives a ~1k-access mixed workload through the Fork Path controller
/// with the event ring enabled and prints the full spine as validated JSON
/// (counters, latency/occupancy histograms, the most recent events). With
/// `--trace <path>` the JSON goes to the file and only the summary line is
/// printed.
fn trace(_: MissBudget) {
    /// Number of LLC requests driven through the controller.
    const REQUESTS: u64 = 1_000;
    // The one entry with an argument of its own (`--trace <path>`), so it
    // reads the command line itself instead of widening every figure's
    // signature.
    let args: Vec<String> = std::env::args().collect();
    let cfg = OramConfig::small_test();
    let data_blocks = cfg.data_blocks;
    let mut ctl = ForkPathController::new(cfg, ForkConfig::default(), dram(), 0xf0f0);
    ctl.set_trace_capacity(8192);

    // A mixed read/write workload with reuse (hot set) and strides, in
    // bursts so the scheduler sees contention and idle gaps alike.
    for i in 0..REQUESTS {
        let addr = match i % 4 {
            0 => (i * 17) % data_blocks,              // stride
            1 => i % 16,                              // hot set
            2 => (i * i) % data_blocks,               // irregular
            _ => (data_blocks - 1 - i) % data_blocks, // reverse stride
        };
        let req = if i % 3 == 0 {
            NewRequest::write(addr, vec![(i & 0xff) as u8; 64], ctl.clock_ps())
        } else {
            NewRequest::read(addr, ctl.clock_ps())
        };
        ctl.submit(req).expect("controller invariant violated");
        if i % 7 == 0 {
            ctl.run_to_idle().expect("controller invariant violated");
        }
    }
    ctl.run_to_idle().expect("controller invariant violated");

    let trace = ctl.trace();
    let json = trace.to_json();
    fp_stats::json::validate(&json).expect("trace JSON must validate");
    println!(
        "{} requests: {} oram accesses, {} events kept, {} dropped",
        REQUESTS,
        ctl.stats().oram_accesses,
        trace.len(),
        trace.dropped()
    );
    match trace_path_from_args(&args) {
        Some(path) => {
            std::fs::write(&path, &json).expect("write trace dump");
            println!("trace written to {}", path.display());
        }
        None => println!("{json}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_names_are_unique() {
        let mut names: Vec<&str> = FIGURES.iter().map(|(n, ..)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FIGURES.len());
    }

    #[test]
    fn figure_name_skips_flags_and_the_trace_path() {
        let args = |args: &[&str]| -> Vec<String> { args.iter().map(|a| a.to_string()).collect() };
        let trace = Some("trace");
        assert_eq!(figure_name(&args(&["trace", "--trace", "out.json"])), trace);
        assert_eq!(figure_name(&args(&["--trace", "out.json", "trace"])), trace);
        assert_eq!(figure_name(&args(&["--fast", "fig10"])), Some("fig10"));
        assert_eq!(figure_name(&args(&["--trace", "out.json"])), None);
        assert_eq!(figure_name(&[]), None);
    }
}
