//! `scot-bench` — the command-line benchmark driver, mirroring the paper
//! artifact's `./bench` binary and its experiment scripts.
//!
//! Usage:
//!
//! ```text
//! scot-bench run <ds> <seconds> <key_range> <threads> <read%> <ins%> <del%> <SMR> [scan% [scan_len]] [--pin-batch N]
//! scot-bench exp <experiment-id | all> [--quick] [--seconds N] [--runs N] [--threads A,B,..] [--value-bytes N] [--scan-lens A,B,..] [--faults A,B,..] [--zipf-theta T] [--pin-batch N] [--bench-dir DIR]
//! scot-bench bench-diff <baseline.json> <fresh.json> [--max-regress PCT] [--max-latency-regress PCT]
//! scot-bench list
//! ```
//!
//! `run` prints its row and then its result as one `BenchRecord` object;
//! `exp` writes `BENCH_<id>.json` into `--bench-dir` (default: `.`);
//! `exp faults` then exits 1 if any cell violates its scheme's robustness
//! claim.
//!
//! Examples (the first mirrors the paper's `./bench listlf 2 512 1 50 25 25 EBR 4`;
//! the third adds 20% range scans of 64 keys each to the mix; the fifth runs
//! the fault-injection robustness matrix with only the reader-stall and
//! thread-death fault classes):
//!
//! ```text
//! scot-bench run listlf 2 512 4 50 25 25 EBR
//! scot-bench exp fig8a --quick
//! scot-bench run skiplist 2 8192 4 40 20 20 HP 20 64
//! scot-bench exp scan --quick
//! scot-bench exp faults --quick --faults stall,death
//! scot-bench bench-diff BENCH_tab1.json fresh/BENCH_tab1.json --max-regress 25
//! ```

use scot_harness::artifact::{
    parse_bench_records, to_json, write_bench_artifact, write_fault_artifact, BenchRecord,
    DiffRecord,
};
use scot_harness::experiments::{
    cache_table, claim_violations, compatibility_matrix, cursor_table, faults_table, pool_table,
    restart_table, run_experiment, run_faults_experiment, run_service_experiment, scan_table,
    service_table, skiplist_table, ExperimentOptions, ALL_EXPERIMENTS,
};
use scot_harness::{run_timed, DsKind, FaultKind, Mix, RunConfig, SmrKind};
use std::time::Duration;

/// Upper bound on `--threads`/`<threads>`: far above any sane benchmark
/// configuration, low enough that a typo ("1000000") is rejected instead of
/// exhausting the machine with thread spawns.
const MAX_THREADS: usize = 1024;

fn usage() -> ! {
    // The scheme list is rendered from `SmrKind::ALL` so a newly added scheme
    // shows up here without touching the CLI; likewise the fault classes.
    let schemes: Vec<&str> = SmrKind::ALL.iter().map(|s| s.name()).collect();
    let faults: Vec<&str> = FaultKind::ALL.iter().map(|f| f.name()).collect();
    eprintln!(
        "usage:\n  scot-bench run <ds> <seconds> <key_range> <threads> <read%> <ins%> <del%> <SMR> [scan% [scan_len]] [--pin-batch N]\n  scot-bench exp <id|all> [--quick] [--seconds N] [--runs N] [--threads A,B,..] [--value-bytes N] [--scan-lens A,B,..] [--faults A,B,..] [--zipf-theta T] [--pin-batch N] [--bench-dir DIR]\n  scot-bench bench-diff <baseline.json> <fresh.json> [--max-regress PCT] [--max-latency-regress PCT]\n  scot-bench list\n\ndata structures: listlf listwf hmlist tree hashmap skiplist\nSMR schemes:     {}\nexperiments:     {}\nfault classes:   {}",
        schemes.join(" "),
        ALL_EXPERIMENTS.join(" "),
        faults.join(" ")
    );
    std::process::exit(2);
}

/// Rendered-error exit used by the validation paths: prints the message and
/// exits 2 without the full usage dump (the message is the diagnosis).
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Validates a thread count: positive and below [`MAX_THREADS`].
fn check_threads(threads: usize) {
    if threads == 0 {
        fail("thread count must be at least 1");
    }
    if threads > MAX_THREADS {
        fail(&format!(
            "thread count {threads} exceeds the supported maximum of {MAX_THREADS}"
        ));
    }
}

/// Validates a run duration: strictly positive and finite.
fn check_seconds(secs: f64) {
    if !secs.is_finite() || secs <= 0.0 {
        fail(&format!(
            "duration must be a positive number of seconds (got {secs})"
        ));
    }
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("cannot parse {what}: {s}");
        std::process::exit(2);
    })
}

/// Returns the value following a flag, or a rendered error if the flag is the
/// last argument.
fn next_arg<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
}

/// Parses and validates a count that must be at least 1: `--pin-batch`
/// (every critical section runs at least one operation) and `--runs` (a
/// cell's median needs at least one run).
fn parse_count<T: std::str::FromStr + From<u8> + PartialEq>(v: &str, flag: &str) -> T {
    let n: T = parse(v, flag);
    if n == T::from(0) {
        fail(&format!("{flag} must be at least 1"));
    }
    n
}

fn cmd_run(args: &[String]) {
    // `--pin-batch` may appear anywhere among the positional arguments;
    // split it off first.
    let mut pos: Vec<&String> = Vec::new();
    let mut pin_batch = 1u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--pin-batch" => {
                pin_batch = parse_count(next_arg(args, &mut i, "--pin-batch"), "--pin-batch");
            }
            other if other.starts_with("--") => {
                eprintln!("unknown option {other}");
                usage();
            }
            _ => pos.push(&args[i]),
        }
        i += 1;
    }
    if !(8..=10).contains(&pos.len()) {
        usage();
    }
    let ds = DsKind::parse(pos[0]).unwrap_or_else(|| usage());
    let seconds: f64 = parse(pos[1], "seconds");
    check_seconds(seconds);
    let key_range: u64 = parse(pos[2], "key range");
    let threads: usize = parse(pos[3], "threads");
    check_threads(threads);
    let read: u32 = parse(pos[4], "read%");
    let ins: u32 = parse(pos[5], "insert%");
    let del: u32 = parse(pos[6], "delete%");
    let smr = SmrKind::parse(pos[7]).unwrap_or_else(|| usage());
    let scan: u32 = pos.get(8).map_or(0, |a| parse(a, "scan%"));
    let scan_len: u64 = pos.get(9).map_or(64, |a| parse(a, "scan_len"));
    if u64::from(read) + u64::from(ins) + u64::from(del) + u64::from(scan) != 100 {
        eprintln!("operation mix must sum to 100% (got {read}+{ins}+{del}+{scan})");
        std::process::exit(2);
    }
    let cfg = RunConfig {
        mix: Mix {
            read_pct: read,
            insert_pct: ins,
            delete_pct: del,
            scan_pct: scan,
        },
        duration: Duration::from_secs_f64(seconds),
        scan_len,
        pin_batch,
        ..RunConfig::paper_default(threads, key_range)
    };
    let result = run_timed(ds, smr, &cfg);
    println!("{}", result.row());
    println!("{}", to_json(&BenchRecord::from(&result)));
}

fn cmd_exp(args: &[String]) {
    if args.is_empty() {
        usage();
    }
    let id = args[0].to_ascii_lowercase();
    let mut opts = ExperimentOptions::default();
    let mut bench_dir = String::from(".");
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                opts = ExperimentOptions::quick();
            }
            "--seconds" => {
                let secs: f64 = parse(next_arg(args, &mut i, "--seconds"), "--seconds");
                check_seconds(secs);
                opts.duration = Duration::from_secs_f64(secs);
            }
            "--runs" => {
                opts.runs = parse_count(next_arg(args, &mut i, "--runs"), "--runs");
            }
            "--threads" => {
                opts.threads = next_arg(args, &mut i, "--threads")
                    .split(',')
                    .map(|t| parse(t, "--threads"))
                    .collect();
                if opts.threads.is_empty() {
                    fail("--threads needs at least one thread count");
                }
                for &t in &opts.threads {
                    check_threads(t);
                }
            }
            "--faults" => {
                opts.faults = next_arg(args, &mut i, "--faults")
                    .split(',')
                    .map(|name| {
                        FaultKind::parse(name).unwrap_or_else(|| {
                            let known: Vec<&str> =
                                FaultKind::ALL.iter().map(|f| f.name()).collect();
                            fail(&format!(
                                "unknown fault class `{name}` (known: {})",
                                known.join(", ")
                            ))
                        })
                    })
                    .collect();
            }
            "--value-bytes" => {
                opts.value_bytes = parse(next_arg(args, &mut i, "--value-bytes"), "--value-bytes");
            }
            "--scan-lens" => {
                opts.scan_lens = next_arg(args, &mut i, "--scan-lens")
                    .split(',')
                    .map(|t| parse(t, "--scan-lens"))
                    .collect();
            }
            "--pin-batch" => {
                opts.pin_batch = parse_count(next_arg(args, &mut i, "--pin-batch"), "--pin-batch");
            }
            "--zipf-theta" => {
                let theta: f64 = parse(next_arg(args, &mut i, "--zipf-theta"), "--zipf-theta");
                if !theta.is_finite() || theta < 0.0 {
                    fail(&format!(
                        "--zipf-theta must be finite and non-negative (got {theta})"
                    ));
                }
                opts.zipf_theta = theta;
            }
            "--bench-dir" => {
                bench_dir = next_arg(args, &mut i, "--bench-dir").to_string();
            }
            other => {
                eprintln!("unknown option {other}");
                usage();
            }
        }
        i += 1;
    }

    let ids: Vec<String> = if id == "all" {
        ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        vec![id]
    };

    let mut violations = 0;
    for id in &ids {
        println!("=== {id} ===");
        // Every preset prints its table, if it has one, and writes its
        // `BENCH_<id>.json`.  The fault harness renders verdicts and the
        // service runner per-phase latency rows, not throughput rows.
        let (table, artifact) = match id.as_str() {
            "faults" => {
                let reports = run_faults_experiment(&opts, |r| {
                    println!(
                        "{:<10} {:<7} {:<16} warmup-end={:<8} peak={:<8} residual={:<6} {}",
                        r.ds, r.smr, r.fault, r.baseline, r.peak, r.residual, r.verdict
                    )
                });
                violations += claim_violations(&reports);
                let artifact = write_fault_artifact(&bench_dir, &reports);
                (Some(faults_table(&reports)), artifact)
            }
            "service" => {
                let reports = run_service_experiment(&opts, |r| {
                    println!(
                        "{:<10} {:<7} {:<14} ops/s={:<12.0} p50={}ns p99={}ns p999={}ns peak={}",
                        r.ds,
                        r.smr,
                        r.phase,
                        r.ops_per_sec,
                        r.p50_ns.unwrap_or(0),
                        r.p99_ns.unwrap_or(0),
                        r.p999_ns.unwrap_or(0),
                        r.peak_unreclaimed,
                    )
                });
                let artifact = write_bench_artifact(&bench_dir, id, &reports);
                (Some(service_table(&reports)), artifact)
            }
            _ => {
                let Some(results) = run_experiment(id, &opts, |r| println!("{}", r.row())) else {
                    eprintln!("unknown experiment id: {id}");
                    usage();
                };
                let table = match id.as_str() {
                    "tab1" => Some(compatibility_matrix(&results)),
                    "tab2" => Some(restart_table(&results)),
                    "pool" => Some(pool_table(&results)),
                    "cache" => Some(cache_table(&results, opts.value_bytes)),
                    "skiplist" => Some(skiplist_table(&results)),
                    "scan" => Some(scan_table(&results)),
                    "cursor" => Some(cursor_table(&results)),
                    _ => None,
                };
                (table, write_bench_artifact(&bench_dir, id, &results))
            }
        };
        if let Some(table) = table {
            println!("\n{table}");
        }
        match artifact {
            Ok(path) => println!("wrote {path}\n"),
            Err(e) => {
                eprintln!("cannot write bench artifact for {id}: {e}");
                std::process::exit(1);
            }
        }
    }
    if violations > 0 {
        eprintln!("{violations} fault cells violate their scheme's robustness claim");
        std::process::exit(1);
    }
}

/// Minimum samples on both sides for a row's median to be gated: below
/// this, run-to-run median drift is dominated by sampling noise rather
/// than code changes (the thin scan/insert classes of quick-mode service
/// runs record a dozen samples per phase).
const LATENCY_SAMPLE_FLOOR: f64 = 64.0;

/// `bench-diff <baseline.json> <fresh.json> [--max-regress PCT]
/// [--max-latency-regress PCT]`: compares two trajectory artifacts point by
/// point and exits non-zero if any point's throughput regressed — or, where
/// the artifact records `p50_ns`, its median latency *increased* — by more
/// than the respective threshold.  Latency gets its own, much looser default
/// (tail nanoseconds on a shared CI box are far noisier than throughput).
/// The CI regression gate runs this against the committed artifacts.
fn cmd_bench_diff(args: &[String]) {
    if args.len() < 2 {
        usage();
    }
    let mut max_regress = 25.0f64;
    let mut max_latency_regress = 150.0f64;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--max-regress" => {
                max_regress = parse(next_arg(args, &mut i, "--max-regress"), "--max-regress");
            }
            "--max-latency-regress" => {
                max_latency_regress = parse(
                    next_arg(args, &mut i, "--max-latency-regress"),
                    "--max-latency-regress",
                );
            }
            other => {
                eprintln!("unknown option {other}");
                usage();
            }
        }
        i += 1;
    }
    let read = |path: &str| -> Vec<DiffRecord> {
        let body = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        let records = parse_bench_records(&body);
        if records.is_empty() {
            fail(&format!("{path} contains no comparable records"));
        }
        records
    };
    let baseline = read(&args[0]);
    let fresh = read(&args[1]);
    println!(
        "{:<12}{:<10}{:>8}{:>16}{:>16}{:>10}",
        "structure", "scheme", "threads", "baseline ops/s", "fresh ops/s", "change"
    );
    let mut regressions = 0usize;
    let mut compared = 0usize;
    // Rows present on only one side are a gate failure, not a skip: a fresh
    // row with no baseline means the committed artifact is stale, and a
    // baseline row with no fresh counterpart means coverage silently shrank.
    let mut unmatched = 0usize;
    // A fresh row pairs with the first baseline row of its (ds, smr, arm,
    // threads) key not paired yet: presets that sweep an extra dimension
    // (e.g. scan lengths) emit several rows per key, in a stable order.
    let mut matched = vec![false; baseline.len()];
    for f in &fresh {
        let base = (0..baseline.len()).find(|&i| !matched[i] && baseline[i].key() == f.key());
        let Some(base) = base.map(|i| {
            matched[i] = true;
            &baseline[i]
        }) else {
            unmatched += 1;
            println!(
                "{:<12}{:<10}{:>8}{:>16}{:>16.0}{:>10}  << NOT IN BASELINE",
                f.ds,
                f.scheme(),
                f.threads,
                "(new)",
                f.ops_per_sec,
                "-"
            );
            continue;
        };
        compared += 1;
        let change = if base.ops_per_sec > 0.0 {
            100.0 * (f.ops_per_sec - base.ops_per_sec) / base.ops_per_sec
        } else {
            0.0
        };
        let mut flag = if change < -max_regress {
            regressions += 1;
            "  << REGRESSION"
        } else {
            ""
        };
        // Latency gate: only where both sides recorded p50 (a latency
        // regression is an *increase*, hence the sign flip).  A row whose
        // sample count is recorded and below the floor on either side is
        // shown but not gated — its median is sampling noise.
        let thin = |s: Option<f64>| s.is_some_and(|v| v < LATENCY_SAMPLE_FLOOR);
        let mut lat_col = String::new();
        if let (Some(b), Some(fr)) = (base.p50_ns, f.p50_ns) {
            if b > 0.0 {
                let lat_change = 100.0 * (fr - b) / b;
                if thin(base.samples) || thin(f.samples) {
                    lat_col = format!("  p50 {lat_change:+.1}% (thin)");
                } else {
                    lat_col = format!("  p50 {lat_change:+.1}%");
                    if lat_change > max_latency_regress {
                        regressions += 1;
                        flag = "  << LATENCY REGRESSION";
                    }
                }
            }
        }
        println!(
            "{:<12}{:<10}{:>8}{:>16.0}{:>16.0}{:>+9.1}%{}{}",
            f.ds,
            f.scheme(),
            f.threads,
            base.ops_per_sec,
            f.ops_per_sec,
            change,
            lat_col,
            flag
        );
    }
    // The reverse direction: baseline rows the fresh artifact never matched.
    for (b, _) in baseline.iter().zip(&matched).filter(|(_, m)| !**m) {
        unmatched += 1;
        println!(
            "{:<12}{:<10}{:>8}{:>16.0}{:>16}{:>10}  << MISSING FROM FRESH",
            b.ds,
            b.scheme(),
            b.threads,
            b.ops_per_sec,
            "(gone)",
            "-"
        );
    }
    println!(
        "{compared} points compared, {regressions} regressed beyond {max_regress}%, \
         {unmatched} present on only one side \
         (latency threshold {max_latency_regress}% where p50 is recorded)"
    );
    if regressions > 0 || unmatched > 0 {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("exp") => cmd_exp(&args[1..]),
        Some("bench-diff") => cmd_bench_diff(&args[1..]),
        Some("list") => {
            let opts = ExperimentOptions::quick();
            for id in ALL_EXPERIMENTS {
                let s = scot_harness::experiments::spec(id, &opts).unwrap();
                println!("{:<8} {}", id, s.description);
            }
        }
        _ => usage(),
    }
}
