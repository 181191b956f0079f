//! Cursor hot-path ablation benchmarks: the Criterion counterpart of the
//! `exp cursor` preset.
//!
//! The two arms run the fixed-op mixed workload with the paper's per-op pin
//! (`base`) and with repin elision (`repin`: one guard per run, refreshed
//! every 16 operations) on the two deepest traversal structures (skip list
//! and NM tree) under EBR; the sweep below varies the refresh interval.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use scot_harness::{run_fixed_ops, DsKind, RunConfig, SmrKind};
use std::time::Duration;

const OPS_PER_THREAD: u64 = 20_000;

/// The guard-refresh interval of the repin arm (the `--pin-batch` default
/// the `exp cursor` preset uses).
const REPIN_BATCH: u64 = 16;

fn cursor_hot_path(c: &mut Criterion) {
    let threads = 2;
    let mut group = c.benchmark_group("cursor_hot_path");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(OPS_PER_THREAD * threads as u64));
    for ds in [DsKind::SkipList, DsKind::Tree] {
        for (arm, pin_batch) in [("base", 1), ("repin", REPIN_BATCH)] {
            let name = format!("{}_{}", ds.name(), arm);
            group.bench_function(BenchmarkId::new("EBR", name), |b| {
                b.iter_custom(|iters| {
                    let mut total = Duration::ZERO;
                    for _ in 0..iters {
                        let mut cfg = RunConfig::paper_default(threads, 8192);
                        cfg.pin_batch = pin_batch;
                        let (_, elapsed, _) = run_fixed_ops(ds, SmrKind::Ebr, &cfg, OPS_PER_THREAD);
                        total += Duration::from_secs_f64(elapsed);
                    }
                    total
                })
            });
        }
    }
    group.finish();
}

fn cursor_repin_sweep(c: &mut Criterion) {
    // How far does repin elision scale?  The guard-refresh interval swept
    // from the paper's pin-per-op protocol (1) up to 256 ops per pin on the
    // skip list under EBR, where every repin elided is a fence saved.
    let threads = 2;
    let mut group = c.benchmark_group("cursor_repin_sweep");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(OPS_PER_THREAD * threads as u64));
    for pin_batch in [1u64, 4, 16, 64, 256] {
        group.bench_function(BenchmarkId::new("SkipList_EBR", pin_batch), |b| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let mut cfg = RunConfig::paper_default(threads, 8192);
                    cfg.pin_batch = pin_batch;
                    let (_, elapsed, _) =
                        run_fixed_ops(DsKind::SkipList, SmrKind::Ebr, &cfg, OPS_PER_THREAD);
                    total += Duration::from_secs_f64(elapsed);
                }
                total
            })
        });
    }
    group.finish();
}

criterion_group!(benches, cursor_hot_path, cursor_repin_sweep);
criterion_main!(benches);
