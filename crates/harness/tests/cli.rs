//! CLI tests for the `scot-bench` binary: every subcommand arm (`run`, `exp`,
//! `list`) plus the argument-validation failure paths, driven through the real
//! executable so the usage surface documented in the binary's doc comment is
//! covered end to end.

use scot_harness::SmrKind;
use std::process::{Command, Output};

fn scot_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scot-bench"))
        .args(args)
        .output()
        .expect("failed to spawn scot-bench")
}

/// A scratch directory for the `BENCH_<preset>.json` artifacts an `exp` run
/// always emits, so CLI tests don't litter the crate directory.  Removed on
/// drop.
struct BenchDir(std::path::PathBuf);

impl BenchDir {
    fn new(test: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("scot-bench-cli-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn arg(&self) -> &str {
        self.0.to_str().unwrap()
    }

    fn artifact(&self, id: &str) -> std::path::PathBuf {
        self.0.join(format!("BENCH_{id}.json"))
    }
}

impl Drop for BenchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Every scheme name, single-sourced from `SmrKind::ALL` so these tests grow
/// automatically when a scheme family is added.
fn all_scheme_names() -> Vec<&'static str> {
    SmrKind::ALL.iter().map(|s| s.name()).collect()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn list_prints_every_experiment_id() {
    let out = scot_bench(&["list"]);
    assert!(out.status.success(), "list must exit 0: {}", stderr(&out));
    let text = stdout(&out);
    for id in [
        "fig8a", "fig8b", "fig9a", "fig9b", "fig10a", "fig10b", "fig11a", "fig11b", "fig12a",
        "fig12b", "tab1", "tab2", "pool", "cache", "skiplist", "scan", "cursor", "faults",
        "service",
    ] {
        assert!(text.contains(id), "list output missing {id}:\n{text}");
    }
}

#[test]
fn exp_skiplist_sweeps_every_scheme_and_renders_the_table() {
    // This is also the exact invocation the CI smoke step runs (CI passes
    // `--bench-dir .` instead, committing the artifact at the repo root).
    let bench = BenchDir::new("skiplist");
    let out = scot_bench(&[
        "exp",
        "skiplist",
        "--seconds",
        "0.05",
        "--runs",
        "1",
        "--threads",
        "1",
        "--bench-dir",
        bench.arg(),
    ]);
    assert!(
        out.status.success(),
        "exp skiplist must exit 0: {}",
        stderr(&out)
    );
    let text = stdout(&out);
    for smr in all_scheme_names() {
        assert!(text.contains(smr), "skiplist table missing {smr}:\n{text}");
    }
    assert!(
        text.contains("SkipList") && text.contains("restarts"),
        "skiplist table must name the structure and the restart column:\n{text}"
    );
    // Every exp run emits the normalized trajectory artifact.
    let body = std::fs::read_to_string(bench.artifact("skiplist"))
        .expect("exp must write BENCH_skiplist.json");
    for smr in all_scheme_names() {
        assert!(
            body.contains(&format!("\"{smr}\"")),
            "bench artifact missing {smr}:\n{body}"
        );
    }
    assert!(body.contains("\"ops_per_sec\"") && body.contains("\"peak_unreclaimed\""));
}

#[test]
fn run_arm_accepts_the_skiplist_structure() {
    let out = scot_bench(&["run", "skiplist", "0.05", "64", "1", "50", "25", "25", "HP"]);
    assert!(out.status.success(), "run must exit 0: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("SkipList"),
        "row output missing ds name:\n{text}"
    );
    // The result follows the row as one `BenchRecord` object.
    for key in ["\"ops_per_sec\"", "\"avg_unreclaimed\""] {
        assert!(text.contains(key), "JSON result missing {key}:\n{text}");
    }
}

#[test]
fn exp_cache_sweeps_every_scheme_and_renders_the_value_table() {
    let bench = BenchDir::new("cache");
    let out = scot_bench(&[
        "exp",
        "cache",
        "--seconds",
        "0.05",
        "--runs",
        "1",
        "--threads",
        "1",
        "--value-bytes",
        "32",
        "--bench-dir",
        bench.arg(),
    ]);
    assert!(
        out.status.success(),
        "exp cache must exit 0: {}",
        stderr(&out)
    );
    let text = stdout(&out);
    // Every scheme variant appears in the rendered table.
    for smr in all_scheme_names() {
        assert!(text.contains(smr), "cache table missing {smr}:\n{text}");
    }
    assert!(
        text.contains("32-byte values"),
        "--value-bytes must flow into the table header:\n{text}"
    );
}

#[test]
fn exp_pool_reports_a_throughput_delta() {
    let bench = BenchDir::new("pool");
    let out = scot_bench(&["exp", "pool", "--quick", "--bench-dir", bench.arg()]);
    assert!(
        out.status.success(),
        "exp pool must exit 0: {}",
        stderr(&out)
    );
    let text = stdout(&out);
    // Pool-on and pool-off arms for HMList and NMTree under EBR/HP/IBR...
    for label in ["EBR+pool", "EBR-pool", "HP+pool", "IBR+pool"] {
        assert!(text.contains(label), "missing {label} series:\n{text}");
    }
    // ...and the delta table comparing them.
    assert!(text.contains("delta"), "missing delta column:\n{text}");
    assert!(text.contains("HMList") && text.contains("NMTree"));
}

#[test]
fn exp_scan_sweeps_every_scheme_and_renders_the_table() {
    // This is also the exact invocation the CI smoke step runs (CI passes
    // `--bench-dir .` instead, committing the artifact at the repo root).
    let bench = BenchDir::new("scan");
    let out = scot_bench(&[
        "exp",
        "scan",
        "--seconds",
        "0.05",
        "--runs",
        "1",
        "--threads",
        "1",
        "--scan-lens",
        "8,32",
        "--bench-dir",
        bench.arg(),
    ]);
    assert!(
        out.status.success(),
        "exp scan must exit 0: {}",
        stderr(&out)
    );
    let text = stdout(&out);
    for smr in all_scheme_names() {
        assert!(text.contains(smr), "scan table missing {smr}:\n{text}");
    }
    assert!(
        text.contains("SkipList") && text.contains("NMTree"),
        "scan table must cover both ordered scan implementations:\n{text}"
    );
    assert!(
        text.contains("keys/scan") && text.contains("recoveries"),
        "scan table must render the scan and recovery columns:\n{text}"
    );
}

#[test]
fn run_arm_accepts_a_scan_mix() {
    // 20% scans of 16 keys each on the skip list.
    let out = scot_bench(&[
        "run", "skiplist", "0.05", "256", "1", "40", "20", "20", "HP", "20", "16",
    ]);
    // Every scan is oracle-checked in the loop (window, order, uniqueness),
    // so exit 0 means the scans ran and returned what they should.
    assert!(out.status.success(), "run must exit 0: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("\"ds\": \"SkipList\"") && text.contains("\"ops_per_sec\""),
        "JSON result missing:\n{text}"
    );
}

#[test]
fn run_arm_rejects_scan_mix_not_summing_to_100() {
    let out = scot_bench(&[
        "run", "listlf", "0.05", "64", "1", "50", "25", "25", "EBR", "20",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("must sum to 100"));
}

#[test]
fn no_arguments_shows_usage_and_fails() {
    let out = scot_bench(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn unknown_subcommand_shows_usage_and_fails() {
    let out = scot_bench(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn run_arm_executes_a_short_workload() {
    // Mirrors the paper's `./bench listlf ...` invocation in miniature.
    let out = scot_bench(&["run", "listlf", "0.05", "64", "1", "50", "25", "25", "EBR"]);
    assert!(out.status.success(), "run must exit 0: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("HList"),
        "row output missing ds name:\n{text}"
    );
    assert!(
        text.contains("\"ops_per_sec\""),
        "JSON output missing:\n{text}"
    );
}

#[test]
fn run_arm_rejects_bad_ds_name() {
    let out = scot_bench(&["run", "bogusds", "0.05", "64", "1", "50", "25", "25", "EBR"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn run_arm_rejects_bad_smr_name() {
    let out = scot_bench(&[
        "run", "listlf", "0.05", "64", "1", "50", "25", "25", "BOGUS",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn run_arm_rejects_mix_not_summing_to_100() {
    let out = scot_bench(&["run", "listlf", "0.05", "64", "1", "60", "25", "25", "EBR"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("must sum to 100"));
}

#[test]
fn run_arm_rejects_wrong_arity() {
    let out = scot_bench(&["run", "listlf", "0.05"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn run_arm_rejects_unparseable_numbers() {
    let out = scot_bench(&["run", "listlf", "xyz", "64", "1", "50", "25", "25", "EBR"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("cannot parse seconds"));
}

#[test]
fn exp_arm_rejects_unknown_experiment_id() {
    let out = scot_bench(&["exp", "fig99", "--quick"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown experiment id"));
}

#[test]
fn exp_arm_rejects_unknown_option() {
    let out = scot_bench(&["exp", "fig8a", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown option"));
}

#[test]
fn exp_arm_requires_an_experiment_id() {
    let out = scot_bench(&["exp"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn exp_faults_renders_the_verdict_table_and_artifact() {
    // The CI fault-smoke lane runs this same invocation (with `--bench-dir .`).
    // One fault class on the quick preset keeps the test cheap while still
    // driving the full phased runner for every scheme.
    let bench = BenchDir::new("faults");
    let out = scot_bench(&[
        "exp",
        "faults",
        "--quick",
        "--faults",
        "death",
        "--bench-dir",
        bench.arg(),
    ]);
    assert!(
        out.status.success(),
        "exp faults must exit 0: {}",
        stderr(&out)
    );
    let text = stdout(&out);
    for smr in all_scheme_names() {
        assert!(text.contains(smr), "faults table missing {smr}:\n{text}");
    }
    for col in ["fault", "robust", "peak", "bound", "verdict", "drained"] {
        assert!(text.contains(col), "faults table missing {col}:\n{text}");
    }
    assert!(
        text.contains("thread-death"),
        "faults table must name the injected fault class:\n{text}"
    );
    assert!(
        text.contains("0 robustness-claim violations"),
        "thread-death must not violate any scheme's robustness claim:\n{text}"
    );
    let body = std::fs::read_to_string(bench.artifact("faults"))
        .expect("exp faults must write BENCH_faults.json");
    for key in ["\"is_robust\"", "\"verdict\"", "\"peak\"", "\"drained\""] {
        assert!(body.contains(key), "fault artifact missing {key}:\n{body}");
    }
    assert!(
        body.contains("\"faults\": [\n    \"thread-death\"\n  ],"),
        "the artifact must list only the fault classes that ran:\n{body}"
    );
}

#[test]
fn exp_service_renders_latency_table_and_artifact() {
    // The CI latency-smoke lane runs this same invocation (with `--bench-dir .`).
    // The quick preset pins the phase schedule at its floors (~150ms total per
    // cell), so 5 schemes x 1 structure stays affordable for a CLI test.
    let bench = BenchDir::new("service");
    let out = scot_bench(&[
        "exp",
        "service",
        "--quick",
        "--threads",
        "1",
        "--zipf-theta",
        "0.9",
        "--bench-dir",
        bench.arg(),
    ]);
    assert!(
        out.status.success(),
        "exp service must exit 0: {}",
        stderr(&out)
    );
    let text = stdout(&out);
    for phase in ["warmup", "read-storm", "churn-spike", "reader-stall"] {
        assert!(
            text.contains(phase),
            "service table missing {phase}:\n{text}"
        );
    }
    for col in [
        "p50_ns",
        "p99_ns",
        "p999_ns",
        "peak",
        "restarts",
        "recoveries",
    ] {
        assert!(text.contains(col), "service table missing {col}:\n{text}");
    }
    for class in ["get", "insert", "remove", "scan"] {
        assert!(
            text.contains(class),
            "service table missing op class {class}:\n{text}"
        );
    }
    for smr in ["EBR", "HP", "IBR", "NBR", "VBR"] {
        assert!(text.contains(smr), "service table missing {smr}:\n{text}");
    }
    let body = std::fs::read_to_string(bench.artifact("service"))
        .expect("exp service must write BENCH_service.json");
    for key in [
        "\"phase\"",
        "\"op_class\"",
        "\"samples\"",
        "\"p50_ns\"",
        "\"p99_ns\"",
        "\"p999_ns\"",
    ] {
        assert!(
            body.contains(key),
            "service artifact missing {key}:\n{body}"
        );
    }
}

#[test]
fn exp_arm_rejects_negative_zipf_theta() {
    let out = scot_bench(&["exp", "service", "--quick", "--zipf-theta", "-1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--zipf-theta"));
}

#[test]
fn bench_diff_gates_median_latency_regressions() {
    let bench = BenchDir::new("latdiff");
    let base = bench.0.join("base.json");
    let slow = bench.0.join("slow.json");
    // Same throughput in both artifacts: only the latency gate can fire.
    // The gate keys on p50 (stable across runs), not p99 (a handful of tail
    // samples on smoke-length phases).
    let record = |p50: u64| {
        format!(
            "{{\n  \"records\": [\n    {{\n      \"ds\": \"HList\",\n      \"smr\": \"HP\",\n      \"threads\": 1,\n      \"ops_per_sec\": 1000.0,\n      \"p50_ns\": {p50}\n    }}\n  ]\n}}\n"
        )
    };
    std::fs::write(&base, record(1000)).unwrap();
    std::fs::write(&slow, record(10000)).unwrap();

    let same = scot_bench(&["bench-diff", base.to_str().unwrap(), base.to_str().unwrap()]);
    assert!(
        same.status.success(),
        "identical latency must pass: {}",
        stderr(&same)
    );

    let bad = scot_bench(&[
        "bench-diff",
        base.to_str().unwrap(),
        slow.to_str().unwrap(),
        "--max-latency-regress",
        "100",
    ]);
    assert_eq!(
        bad.status.code(),
        Some(1),
        "a 10x p50 blowup must fail the gate: {}",
        stdout(&bad)
    );
    assert!(stdout(&bad).contains("LATENCY REGRESSION"));
}

#[test]
fn exp_arm_rejects_unknown_fault_class() {
    let out = scot_bench(&["exp", "faults", "--quick", "--faults", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains("unknown fault class") && err.contains("reader-stall"),
        "error must name the bad class and list the known ones:\n{err}"
    );
}

#[test]
fn exp_arm_rejects_oversized_thread_count() {
    let out = scot_bench(&["exp", "tab2", "--quick", "--threads", "99999"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("thread count"));
}

#[test]
fn exp_arm_rejects_zero_threads() {
    let out = scot_bench(&["exp", "tab2", "--quick", "--threads", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("thread count"));
}

#[test]
fn exp_arm_rejects_zero_duration() {
    let out = scot_bench(&["exp", "tab2", "--seconds", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("duration"));
}

#[test]
fn run_arm_rejects_zero_duration() {
    let out = scot_bench(&["run", "listlf", "0", "64", "1", "50", "25", "25", "EBR"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("duration"));
}

#[test]
fn run_arm_rejects_oversized_thread_count() {
    let out = scot_bench(&[
        "run", "listlf", "0.05", "64", "99999", "50", "25", "25", "EBR",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("thread count"));
}

#[test]
fn exp_arm_rejects_trailing_flag_without_value() {
    // A flag as the last token used to walk off the end of argv and panic;
    // it must render an error instead.
    let out = scot_bench(&["exp", "tab2", "--seconds"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("needs a value"));
}

#[test]
fn bench_diff_passes_identical_artifacts_and_flags_regressions() {
    let bench = BenchDir::new("diff");
    let base = bench.0.join("base.json");
    let regressed = bench.0.join("regressed.json");
    // Minimal artifact in the committed BENCH_*.json shape: a `records` array
    // of per-point objects.
    let record = |ops: f64| {
        format!(
            "{{\n  \"records\": [\n    {{\n      \"ds\": \"HList\",\n      \"smr\": \"HP\",\n      \"threads\": 1,\n      \"ops_per_sec\": {ops}\n    }}\n  ]\n}}\n"
        )
    };
    std::fs::write(&base, record(1000.0)).unwrap();
    std::fs::write(&regressed, record(100.0)).unwrap();

    let same = scot_bench(&["bench-diff", base.to_str().unwrap(), base.to_str().unwrap()]);
    assert!(
        same.status.success(),
        "identical artifacts must pass: {}",
        stderr(&same)
    );
    assert!(stdout(&same).contains("0 regressed"));

    let bad = scot_bench(&[
        "bench-diff",
        base.to_str().unwrap(),
        regressed.to_str().unwrap(),
    ]);
    assert_eq!(bad.status.code(), Some(1), "a 10x drop must fail the gate");
    assert!(stdout(&bad).contains("REGRESSION"));
}

#[test]
fn bench_diff_rejects_missing_files() {
    let out = scot_bench(&["bench-diff", "/nonexistent/a.json", "/nonexistent/b.json"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn exp_cursor_renders_ablation_arms_and_deltas() {
    // This is also the exact invocation the CI cursor-smoke lane runs (CI
    // passes `--bench-dir .` instead, committing the artifact at the root).
    let bench = BenchDir::new("cursor");
    let out = scot_bench(&[
        "exp",
        "cursor",
        "--seconds",
        "0.05",
        "--runs",
        "1",
        "--threads",
        "1",
        "--bench-dir",
        bench.arg(),
    ]);
    assert!(
        out.status.success(),
        "exp cursor must exit 0: {}",
        stderr(&out)
    );
    let text = stdout(&out);
    // Every arm label appears for at least one scheme...
    for arm in ["+base", "+batch"] {
        assert!(
            text.contains(&format!("EBR{arm}")),
            "cursor output missing arm {arm}:\n{text}"
        );
    }
    // ...both structures are swept, and the delta table renders.
    assert!(text.contains("SkipList") && text.contains("NMTree"));
    for col in ["base ops/s", "+batch", "spins(base)"] {
        assert!(text.contains(col), "cursor table missing {col}:\n{text}");
    }
    let body = std::fs::read_to_string(bench.artifact("cursor"))
        .expect("exp cursor must write BENCH_cursor.json");
    // The arm is a field of its own in the artifact, never part of the scheme.
    assert!(body.contains("\"smr\": \"EBR\"") && body.contains("\"smr\": \"VBR\""));
    assert_eq!(body.matches("\"arm\": \"base\"").count(), 8);
    assert_eq!(body.matches("\"arm\": \"batch\"").count(), 8);
    assert!(!body.contains("+batch") && !body.contains("+base"));
}

#[test]
fn run_arm_accepts_tuning_flags_anywhere() {
    // `--pin-batch` after, between and before the positional arguments.
    let pos = ["listlf", "0.05", "64", "1", "50", "25", "25", "EBR"];
    for at in [pos.len(), 3, 0] {
        let mut args = vec!["run"];
        args.extend_from_slice(&pos[..at]);
        args.extend_from_slice(&["--pin-batch", "16"]);
        args.extend_from_slice(&pos[at..]);
        let out = scot_bench(&args);
        assert!(
            out.status.success(),
            "run must exit 0 with --pin-batch at {at}: {}",
            stderr(&out)
        );
        let text = stdout(&out);
        assert!(text.contains("spins="), "row output missing spins:\n{text}");
        assert!(
            text.contains("\"ops_per_sec\""),
            "JSON result missing:\n{text}"
        );
    }
}

#[test]
fn removed_tuning_flags_are_unknown_options() {
    // The cursor's prefetch / backoff / chain-retire toggles are gone, and so
    // are their flags, and so is `exp --json DIR` (its raw rows duplicated
    // `BENCH_<id>.json`): each must take the unknown-option path (usage,
    // exit 2) on both arms instead of being silently accepted.
    let run = ["run", "listlf", "0.05", "64", "1", "50", "25", "25", "EBR"];
    let exp = ["exp", "tab2", "--quick"];
    for flag in [
        &["--backoff", "none"][..],
        &["--no-prefetch"],
        &["--no-chain-batch"],
        &["--json", "x"],
    ] {
        for arm in [&run[..], &exp[..]] {
            let out = scot_bench(&[arm, flag].concat());
            assert_eq!(out.status.code(), Some(2), "{arm:?} {flag:?}");
            let err = stderr(&out);
            assert!(
                err.contains(&format!("unknown option {}", flag[0])) && err.contains("usage:"),
                "{arm:?} {flag:?}:\n{err}"
            );
        }
    }
}

#[test]
fn run_arm_rejects_zero_pin_batch() {
    let out = scot_bench(&[
        "run",
        "listlf",
        "0.05",
        "64",
        "1",
        "50",
        "25",
        "25",
        "EBR",
        "--pin-batch",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--pin-batch"));
}

#[test]
fn exp_arm_rejects_zero_pin_batch() {
    let out = scot_bench(&["exp", "tab2", "--quick", "--pin-batch", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--pin-batch"));
}

#[test]
fn exp_arm_rejects_zero_runs() {
    // Zero repetitions leave a cell without a median; this used to panic.
    let out = scot_bench(&["exp", "tab2", "--quick", "--runs", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--runs must be at least 1"));
}

#[test]
fn bench_diff_fails_on_rows_missing_in_either_direction() {
    let bench = BenchDir::new("missingdiff");
    let two = bench.0.join("two.json");
    let one = bench.0.join("one.json");
    let record = |smr: &str| {
        format!(
            "    {{\n      \"ds\": \"HList\",\n      \"smr\": \"{smr}\",\n      \"threads\": 1,\n      \"ops_per_sec\": 1000.0\n    }}"
        )
    };
    std::fs::write(
        &two,
        format!(
            "{{\n  \"records\": [\n{},\n{}\n  ]\n}}\n",
            record("HP"),
            record("EBR")
        ),
    )
    .unwrap();
    std::fs::write(
        &one,
        format!("{{\n  \"records\": [\n{}\n  ]\n}}\n", record("HP")),
    )
    .unwrap();

    // Fresh side lost a row: the coverage shrink must fail the gate.
    let lost = scot_bench(&["bench-diff", two.to_str().unwrap(), one.to_str().unwrap()]);
    assert_eq!(lost.status.code(), Some(1), "a lost row must fail the gate");
    assert!(stdout(&lost).contains("MISSING FROM FRESH"));

    // Fresh side grew a row the baseline lacks: stale baseline, also a failure.
    let grew = scot_bench(&["bench-diff", one.to_str().unwrap(), two.to_str().unwrap()]);
    assert_eq!(grew.status.code(), Some(1), "a new row must fail the gate");
    assert!(stdout(&grew).contains("NOT IN BASELINE"));
}

#[test]
fn bench_diff_matches_rows_on_the_arm() {
    // Two arms of one (structure, scheme, threads) point are two rows: a
    // regression in one arm is flagged against that arm's baseline, an arm
    // missing on either side fails the gate, and a record without an `arm`
    // line (artifacts from before the field existed) reads as no arm.
    let bench = BenchDir::new("armdiff");
    let write = |name: &str, records: &[(Option<&str>, f64)]| {
        let body: Vec<String> = records
            .iter()
            .map(|(arm, ops)| {
                let arm = arm.map_or(String::new(), |a| format!("      \"arm\": \"{a}\",\n"));
                format!(
                    "    {{\n      \"ds\": \"NMTree\",\n      \"smr\": \"EBR\",\n{arm}      \"threads\": 2,\n      \"ops_per_sec\": {ops}\n    }}"
                )
            })
            .collect();
        let path = bench.0.join(name);
        std::fs::write(
            &path,
            format!("{{\n  \"records\": [\n{}\n  ]\n}}\n", body.join(",\n")),
        )
        .unwrap();
        path.to_str().unwrap().to_string()
    };
    let both = write(
        "both.json",
        &[(Some("base"), 1000.0), (Some("batch"), 2000.0)],
    );
    let swapped = write(
        "swapped.json",
        &[(Some("batch"), 2000.0), (Some("base"), 1000.0)],
    );
    let slow_batch = write(
        "slow.json",
        &[(Some("base"), 1000.0), (Some("batch"), 200.0)],
    );
    let base_only = write("base.json", &[(Some("base"), 1000.0)]);
    let armless = write("armless.json", &[(None, 1000.0)]);

    // Rows pair by arm, not by position.
    let same = scot_bench(&["bench-diff", &both, &swapped]);
    assert!(same.status.success(), "{}", stdout(&same));
    assert!(stdout(&same).contains("2 points compared, 0 regressed"));

    let slow = scot_bench(&["bench-diff", &both, &slow_batch]);
    assert_eq!(slow.status.code(), Some(1));
    let text = stdout(&slow);
    let flagged: Vec<&str> = text.lines().filter(|l| l.contains("REGRESSION")).collect();
    assert_eq!(flagged.len(), 1, "{text}");
    assert!(flagged[0].contains("EBR[batch]"), "{text}");

    for (a, b, what) in [
        (&both, &base_only, "MISSING FROM FRESH"),
        (&base_only, &both, "NOT IN BASELINE"),
        (&armless, &base_only, "NOT IN BASELINE"),
    ] {
        let out = scot_bench(&["bench-diff", a, b]);
        assert_eq!(out.status.code(), Some(1), "{a} vs {b}");
        assert!(stdout(&out).contains(what), "{a} vs {b}:\n{}", stdout(&out));
    }
    let old = scot_bench(&["bench-diff", &armless, &armless]);
    assert!(old.status.success(), "{}", stdout(&old));
}

#[test]
fn exp_arm_runs_tab2_with_custom_knobs() {
    // tab2 is the cheapest preset (2 structures x 1 scheme); constrain it
    // further so the CLI test stays fast while exercising the option parser.
    let bench = BenchDir::new("tab2");
    let out = scot_bench(&[
        "exp",
        "tab2",
        "--seconds",
        "0.05",
        "--runs",
        "1",
        "--threads",
        "1",
        "--bench-dir",
        bench.arg(),
    ]);
    assert!(out.status.success(), "exp must exit 0: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("=== tab2 ==="));
    assert!(
        text.contains("restart"),
        "tab2 must render the restart table"
    );
}
