//! Integration tests for the benchmark harness: every experiment preset of the
//! paper must be runnable end to end (in quick mode) and produce sane data.

use scot_harness::experiments::{
    compatibility_matrix, restart_table, run_experiment, run_faults_experiment,
    run_service_experiment, ExperimentOptions, ALL_EXPERIMENTS,
};
use scot_harness::{run_timed, DsKind, Mix, RunConfig, SmrKind};
use std::time::Duration;

fn tiny() -> ExperimentOptions {
    ExperimentOptions {
        duration: Duration::from_millis(60),
        runs: 1,
        threads: vec![2],
        scale_large_range: 50_000,
        value_bytes: 16,
        scan_lens: vec![8],
        faults: vec![scot_harness::FaultKind::ThreadDeath],
        zipf_theta: 0.99,
        ..ExperimentOptions::default()
    }
}

#[test]
fn throughput_experiments_produce_positive_throughput() {
    for id in ["fig8a", "fig9a"] {
        let results = run_experiment(id, &tiny(), |_| {}).unwrap();
        assert!(!results.is_empty());
        for r in &results {
            assert!(r.ops_per_sec > 0.0, "{id}: {} under {} idle", r.ds, r.smr);
        }
    }
}

#[test]
fn memory_experiments_report_unreclaimed_counts() {
    let results = run_experiment("fig10a", &tiny(), |_| {}).unwrap();
    for r in &results {
        assert!(
            r.avg_unreclaimed.is_some(),
            "memory experiment must sample unreclaimed counts ({} / {})",
            r.ds,
            r.smr
        );
    }
    // The robust schemes must not exceed EBR by orders of magnitude; EBR is
    // expected to be the high-water mark overall (paper Figures 10-11), but on
    // short quick-mode runs we only assert the data is present and plausible.
    assert!(results.iter().any(|r| r.smr == "EBR"));
    assert!(results.iter().any(|r| r.smr == "HP"));
}

#[test]
fn tab1_matrix_covers_every_pair() {
    let results = run_experiment("tab1", &tiny(), |_| {}).unwrap();
    let matrix = compatibility_matrix(&results);
    for ds in DsKind::ALL {
        assert!(matrix.contains(ds.name()), "matrix missing {}", ds.name());
    }
    for smr in SmrKind::ALL {
        assert!(matrix.contains(smr.name()), "matrix missing {}", smr.name());
    }
    // Every pair must have completed operations ("ok" appears once per
    // structure × scheme cell — the matrix dimensions come straight from
    // `DsKind::ALL` × `SmrKind::ALL`, so this grows with new schemes).
    assert_eq!(
        matrix.matches(" ok").count(),
        DsKind::ALL.len() * SmrKind::ALL.len()
    );
}

#[test]
fn checkpoint_schemes_run_timed_and_report_counters() {
    // NBR and VBR flow through the full harness path: completed operations,
    // tracked memory samples (they are not Hyaline), and finite restart
    // counters fed by the rung-4 checkpoint acknowledgments.
    let cfg = RunConfig {
        threads: 2,
        key_range: 256,
        mix: Mix::READ_50,
        duration: Duration::from_millis(60),
        sample_interval: Duration::from_millis(5),
        seed: 7,
        pool: true,
        ..RunConfig::paper_default(2, 256)
    };
    for smr in [SmrKind::Nbr, SmrKind::Vbr] {
        let r = run_timed(DsKind::SkipList, smr, &cfg);
        assert!(r.ops > 0, "{smr}: no operations completed");
        assert!(
            r.avg_unreclaimed.is_some(),
            "{smr} must report memory overhead"
        );
        assert_eq!(r.smr, smr.name());
    }
}

#[test]
fn tab2_reports_restarts_for_both_lists() {
    let results = run_experiment("tab2", &tiny(), |_| {}).unwrap();
    let table = restart_table(&results);
    assert!(table.contains("HMList"));
    assert!(table.contains("HList"));
    assert!(table.contains("restart"));
}

#[test]
fn cache_experiment_reads_values_under_every_scheme() {
    let results = run_experiment("cache", &tiny(), |_| {}).unwrap();
    assert_eq!(results.len(), SmrKind::ALL.len());
    for r in &results {
        assert!(r.ops > 0, "cache idle: {} under {}", r.ds, r.smr);
        assert_eq!(r.ds, "HashMap");
    }
}

#[test]
fn faults_experiment_flows_through_run_experiment() {
    // The name predates `run_experiment` dropping this preset: the faults
    // preset runs through its own runner, and the generic entry point
    // declines it.
    assert!(run_experiment("faults", &tiny(), |_| {}).is_none());
    let reports = run_faults_experiment(&tiny(), |_| {});
    assert_eq!(reports.len(), SmrKind::ALL.len()); // 1 structure × 1 fault
    for r in &reports {
        assert!(r.ops > 0, "faults idle: {} under {}", r.ds, r.smr);
        assert!(
            r.peak >= r.end_of_fault,
            "fault cells must report the fault phase's peak unreclaimed count ({})",
            r.smr
        );
    }
}

#[test]
fn service_experiment_flows_through_run_experiment() {
    // The name predates `run_experiment` dropping this preset: the service
    // preset runs through its own runner.  Quick mode pins a single structure
    // and five schemes spanning the robust/non-robust divide; each scheme
    // reports one `get` row per phase.
    assert!(run_experiment("service", &tiny(), |_| {}).is_none());
    let reports = run_service_experiment(&tiny(), |_| {});
    let gets: Vec<_> = reports.iter().filter(|r| r.op_class == "get").collect();
    assert_eq!(gets.len(), 5 * 4, "5 schemes x 4 phases");
    for phase in ["warmup", "read-storm", "churn-spike", "reader-stall"] {
        assert!(
            gets.iter().any(|r| r.phase == phase),
            "service results missing phase {phase}"
        );
    }
    for r in &reports {
        assert_eq!(r.ds, "HList");
    }
    assert!(
        gets.iter().any(|r| r.ops > 0),
        "service run completed no operations at all"
    );
}

#[test]
fn all_experiment_ids_resolve() {
    let opts = tiny();
    for id in ALL_EXPERIMENTS {
        assert!(
            scot_harness::experiments::spec(id, &opts).is_some(),
            "unknown experiment {id}"
        );
    }
}

#[test]
fn custom_mix_run_matches_requested_shape() {
    // A write-only run on the tree must complete operations and keep restart
    // counts finite; a read-only-ish run must too.
    let cfg = RunConfig {
        threads: 2,
        key_range: 1024,
        mix: Mix::WRITE_ONLY,
        duration: Duration::from_millis(80),
        sample_interval: Duration::from_millis(5),
        seed: 42,
        pool: true,
        ..RunConfig::paper_default(2, 1024)
    };
    let r = run_timed(DsKind::Tree, SmrKind::HpOpt, &cfg);
    assert!(r.ops > 0);
    let cfg = RunConfig {
        mix: Mix::READ_90,
        ..cfg
    };
    let r = run_timed(DsKind::ListLf, SmrKind::He, &cfg);
    assert!(r.ops > 0);
}

#[test]
fn scan_experiment_sweeps_lengths_and_schemes_with_verified_output() {
    let results = run_experiment("scan", &tiny(), |_| {}).unwrap();
    // 2 structures × every scheme variant × 1 scan length.
    assert_eq!(results.len(), 2 * SmrKind::ALL.len());
    for smr in SmrKind::ALL {
        assert!(
            results.iter().any(|r| r.smr == smr.name() && r.ops > 0),
            "scan experiment idle under {smr}"
        );
    }
    for r in &results {
        // The hot loop oracle-checks every scan; a completed run with scanned
        // keys certifies window/order correctness under that scheme.
        assert!(
            r.scanned_keys > 0,
            "{} under {} scanned nothing",
            r.ds,
            r.smr
        );
        assert_eq!(r.scan_len, 8);
    }
    let table = scot_harness::experiments::scan_table(&results);
    assert!(table.contains("SkipList") && table.contains("NMTree"));
    assert!(table.contains("keys/scan") && table.contains("recoveries"));
}
