//! Golden renderings: every result table, the compatibility matrix and
//! `RunResult::row()` rendered from fixed hand-built rows and compared
//! byte for byte against literals captured from the hand-formatted
//! functions of PR 19, before the tables moved onto one renderer.  Only the
//! row builders at the top may follow a schema change (`run` did once: the
//! arm used to ride on the scheme string as `EBR+repin`); the expected
//! strings may not — except where an arm is renamed: PR 25 deleted `repin`
//! and renamed the cursor arm to `batch` (`EBR+batch`, the `+batch` column
//! and title), the only golden strings that changed.

use scot_harness::experiments::{
    cache_table, claim_violations, compatibility_matrix, cursor_table, faults_table, pool_table,
    restart_table, scan_table, service_table, skiplist_table,
};
use scot_harness::{FaultReport, RunResult, ServiceReport};

/// A throughput row.  `arm` is the ablation arm (`pool-on`, `pool-off`,
/// `base`, `batch`) where the preset has one.
fn run(
    ds: &str,
    smr: &str,
    arm: Option<&str>,
    threads: usize,
    ops: u64,
    ops_per_sec: f64,
    avg_unreclaimed: Option<f64>,
) -> RunResult {
    RunResult {
        ds: ds.into(),
        smr: smr.into(),
        arm: arm.map(str::to_string),
        threads,
        key_range: 8192,
        ops,
        ops_per_sec,
        avg_unreclaimed,
        max_unreclaimed: avg_unreclaimed.map(|v| v as usize * 2),
        restarts: ops / 1000,
        recoveries: ops / 400,
        spins: ops / 50,
        scan_len: 64,
        scanned_keys: ops * 20,
    }
}

/// Joins the expected lines of a rendering, each newline-terminated.
fn table(lines: &[&str]) -> String {
    lines.iter().map(|l| format!("{l}\n")).collect()
}

fn fault(
    smr: &str,
    fault: &str,
    is_robust: bool,
    peak: usize,
    pool_leak_bound: usize,
) -> FaultReport {
    FaultReport {
        ds: "HList".into(),
        smr: smr.into(),
        fault: fault.into(),
        threads: 2,
        victims: 2,
        is_robust,
        baseline: 120,
        peak,
        end_of_fault: peak,
        residual: if peak > 50_000 { 7 } else { 0 },
        drained: peak <= 50_000,
        bound: 4576,
        pool_leak_bound,
        bounded: peak <= 4576,
        verdict: if peak <= 4576 {
            "bounded".into()
        } else {
            format!("grows (+{})", peak - 120)
        },
        ops: 123_456,
        elapsed_secs: 0.6,
    }
}

fn service(smr: &str, phase: &str, class: &str, samples: u64) -> ServiceReport {
    ServiceReport {
        ds: "NMTree".into(),
        smr: smr.into(),
        threads: 2,
        phase: phase.into(),
        op_class: class.into(),
        is_robust: smr == "HP",
        ops: 98_765,
        ops_per_sec: 1_234_567.89,
        samples,
        p50_ns: (samples > 0).then_some(431),
        p99_ns: (samples > 0).then_some(12_800),
        p999_ns: (samples > 0).then_some(1_048_576),
        peak_unreclaimed: 4242,
        restarts: 17,
        recoveries: 3,
    }
}

#[test]
fn golden_run_result_row() {
    let plain = run("HList", "HP", None, 4, 1_000_000, 2_000_000.4, Some(87.25));
    assert_eq!(
        plain.row(),
        "HList      HP      thr=4    range=8192       ops/s=2000000        unreclaimed(avg)=87.2         restarts=1000     recoveries=2500     spins=20000"
    );
    let armed = run("SkipList", "EBR", Some("batch"), 2, 5_000, 9_999.5, None);
    assert_eq!(
        armed.row(),
        "SkipList   EBR+batch thr=2    range=8192       ops/s=10000          unreclaimed(avg)=n/a          restarts=5        recoveries=12       spins=100"
    );
    let off = run("HMList", "IBR", Some("pool-off"), 1, 0, 0.0, Some(0.0));
    assert_eq!(
        off.row(),
        "HMList     IBR-pool thr=1    range=8192       ops/s=0              unreclaimed(avg)=0.0          restarts=0        recoveries=0        spins=0"
    );
}

#[test]
fn golden_scan_table() {
    let rows = [
        run("SkipList", "EBR", None, 2, 10_000, 20_000.0, Some(12.5)),
        run("NMTree", "HPopt", None, 2, 0, 0.0, None),
    ];
    let want = table(&[
        "Range-scan sweep: 80% guard-scoped scans / 10% insert / 10% delete, oracle-checked output",
        "structure scheme   robust threads  scan_len         ops/s    keys scanned  keys/scan  restarts  recoveries",
        "SkipList  EBR          no       2        64         20000          200000       25.0        10          25",
        "NMTree    HPopt       yes       2        64             0               0        0.0         0           0",
    ]);
    assert_eq!(scan_table(&rows), want);
}

#[test]
fn golden_cache_table() {
    let rows = [
        run("HashMap", "HLN", None, 2, 10_000, 7_654_321.0, None),
        run("HashMap", "VBR", None, 2, 10_000, 1_234.5, Some(3.149)),
    ];
    let want = table(&[
        "Key-value cache workload: 90% get / 5% insert / 5% remove, 64-byte values",
        "structure   scheme   robust threads           ops/s  unreclaimed(avg)  restarts  recoveries",
        "HashMap     HLN         yes       2         7654321               n/a        10          25",
        "HashMap     VBR          no       2            1234               3.1        10          25",
    ]);
    assert_eq!(cache_table(&rows, 64), want);
}

#[test]
fn golden_skiplist_table() {
    let rows = [
        run("SkipList", "NR", None, 1, 4_000, 4_000_000.0, None),
        run(
            "SkipList",
            "IBRopt",
            None,
            1,
            4_000,
            3_999_999.6,
            Some(100.0),
        ),
    ];
    let want = table(&[
        "Skip-list sweep: 50% read / 25% insert / 25% delete, every scheme variant",
        "structure   scheme   robust threads           ops/s  unreclaimed(avg)  restarts  recoveries",
        "SkipList    NR           no       1         4000000               n/a         4          10",
        "SkipList    IBRopt      yes       1         4000000             100.0         4          10",
    ]);
    assert_eq!(skiplist_table(&rows), want);
}

#[test]
fn golden_pool_table() {
    let rows = [
        run(
            "HMList",
            "EBR",
            Some("pool-on"),
            2,
            8_000,
            1_100_000.0,
            Some(9.0),
        ),
        run(
            "HMList",
            "EBR",
            Some("pool-off"),
            2,
            8_000,
            1_000_000.0,
            Some(9.0),
        ),
        run(
            "NMTree",
            "HP",
            Some("pool-on"),
            2,
            8_000,
            900_000.0,
            Some(9.0),
        ),
        // A pool-off arm that measured nothing: delta 0, not a division by zero.
        run("NMTree", "HP", Some("pool-off"), 2, 0, 0.0, Some(9.0)),
        // A pool-on arm whose partner is missing renders no row.
        run(
            "NMTree",
            "IBR",
            Some("pool-on"),
            2,
            8_000,
            900_000.0,
            Some(9.0),
        ),
    ];
    let want = table(&[
        "Block-pool ablation, write-only mix (50% insert / 50% delete)",
        "structure   scheme   robust threads   pool-on ops/s  pool-off ops/s  restarts  recoveries       delta",
        "HMList      EBR          no       2         1100000         1000000         8          20      +10.0%",
        "NMTree      HP          yes       2          900000               0         8          20       +0.0%",
    ]);
    assert_eq!(pool_table(&rows), want);
}

#[test]
fn golden_cursor_table() {
    let rows = [
        run(
            "SkipList",
            "EBR",
            Some("base"),
            2,
            50_000,
            4_000_000.0,
            Some(1.0),
        ),
        run(
            "SkipList",
            "EBR",
            Some("batch"),
            2,
            50_000,
            4_600_000.0,
            Some(1.0),
        ),
        run(
            "NMTree",
            "HP",
            Some("base"),
            2,
            50_000,
            3_000_000.0,
            Some(1.0),
        ),
        run(
            "NMTree",
            "HP",
            Some("batch"),
            2,
            50_000,
            2_910_000.0,
            Some(1.0),
        ),
        // A base arm without a partner, and one that measured nothing: `-`.
        run(
            "NMTree",
            "VBR",
            Some("base"),
            2,
            50_000,
            3_000_000.0,
            Some(1.0),
        ),
        run("SkipList", "IBR", Some("base"), 2, 0, 0.0, Some(1.0)),
        run("SkipList", "IBR", Some("batch"), 2, 50_000, 1.0, Some(1.0)),
    ];
    let want = table(&[
        "Cursor hot-path ablation: 50% read / 50% write, +batch relative to the per-op pin base",
        "structure   scheme   robust threads    base ops/s   +batch  spins(base)",
        "SkipList    EBR          no       2       4000000   +15.0%         1000",
        "NMTree      HP          yes       2       3000000    -3.0%         1000",
        "NMTree      VBR          no       2       3000000        -         1000",
        "SkipList    IBR         yes       2             0        -            0",
    ]);
    assert_eq!(cursor_table(&rows), want);
}

#[test]
fn golden_restart_table() {
    let rows = [
        run("HMList", "HP", None, 4, 2_000_000, 1_500_000.0, Some(1.0)),
        run("HList", "HP", None, 4, 0, 0.0, Some(1.0)),
    ];
    let want = table(&[
        "Restart statistics under HP (robust), key range 10,000 (paper Table 2)",
        "structure      threads        restarts  recoveries         ops/sec   restart %",
        "HMList               4            2000        5000         1500000       0.10%",
        "HList                4               0           0               0       0.00%",
    ]);
    assert_eq!(restart_table(&rows), want);
}

#[test]
fn golden_faults_table() {
    let rows = [
        fault("HP", "reader-stall", true, 300, 0),
        fault("EBR", "reader-stall", false, 90_000, 0),
        fault("VBR", "thread-death", false, 200, 512),
        // A robust scheme over its bound: the one claim violation.
        fault("IBR", "panic", true, 5_000, 0),
    ];
    let want = table(&[
        "Fault-injection robustness: bounded peak unreclaimed per scheme x structure x fault",
        "structure scheme  fault              robustwarmup-end      peak     bound  residual  drained pool-leak  verdict",
        "HList     HP      reader-stall          yes       120       300      4576         0      yes         0  bounded",
        "HList     EBR     reader-stall           no       120     90000      4576         7       no         0  grows (+89880)",
        "HList     VBR     thread-death           no       120       200      4576         0      yes     <=512  bounded",
        "HList     IBR     panic                 yes       120      5000      4576         0      yes         0  grows (+4880)",
        "4 cells, 2 robustness-claim violations",
    ]);
    assert_eq!(faults_table(&rows), want);
}

/// The count behind the table's summary line and `exp faults`' exit code:
/// a robust scheme over its bound, any reclaiming scheme left undrained —
/// robust or not — and never NR.
#[test]
fn claim_violations_count_every_violating_cell() {
    let undrained = |smr: &str, is_robust| FaultReport {
        residual: 3,
        drained: false,
        verdict: "undrained (3 left)".into(),
        ..fault(smr, "panic", is_robust, 300, 0)
    };
    let rows = [
        fault("HP", "reader-stall", true, 300, 0),
        fault("IBR", "panic", true, 5_000, 0),
        undrained("HE", true),
        undrained("VBR", false),
        fault("NR", "thread-death", false, 90_000, 0),
    ];
    assert_eq!(claim_violations(&rows), 3);
    assert_eq!(claim_violations(&rows[..1]), 0);
    assert!(faults_table(&rows).ends_with("5 cells, 3 robustness-claim violations\n"));
}

#[test]
fn golden_service_table() {
    let rows = [
        service("HP", "read-storm", "get", 5_000),
        service("NBR", "reader-stall", "scan", 0),
    ];
    let want = table(&[
        "Service scenario: Zipfian cache-server phases (warmup -> read-storm -> churn-spike -> reader-stall)",
        "structure scheme  phase         class    robust         ops/s    p50_ns    p99_ns   p999_ns  samples      peak  restarts recoveries",
        "NMTree    HP      read-storm    get         yes       1234568       431     12800   1048576     5000      4242        17          3",
        "NMTree    NBR     reader-stall  scan         no       1234568         -         -         -        0      4242        17          3",
    ]);
    assert_eq!(service_table(&rows), want);
}

#[test]
fn golden_compatibility_matrix() {
    let rows = [
        run("HList", "EBR", None, 1, 10, 10.0, None),
        run("HList", "HPopt", None, 1, 10, 10.0, None),
        run("SkipList", "VBR", None, 1, 10, 10.0, None),
        // Completed no operations: not compatible.
        run("NMTree", "HP", None, 1, 0, 0.0, None),
    ];
    let want = table(&[
        "structure          NR      EBR      HP*   HPopt*     IBR*  IBRopt*      HE*   HEopt*     HLN*      NBR      VBR",
        "HMList              -        -        -        -        -        -        -        -        -        -        -",
        "HList               -       ok        -       ok        -        -        -        -        -        -        -",
        "HList-WF            -        -        -        -        -        -        -        -        -        -        -",
        "NMTree              -        -        -        -        -        -        -        -        -        -        -",
        "HashMap             -        -        -        -        -        -        -        -        -        -        -",
        "SkipList            -        -        -        -        -        -        -        -        -        -       ok",
        "(* = robust: bounded unreclaimed memory under stalled/dead readers)",
    ]);
    assert_eq!(compatibility_matrix(&rows), want);
}
