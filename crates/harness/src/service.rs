//! The `exp service` scenario: a production-shaped cache-server run with
//! per-phase, per-op-class latency histograms.
//!
//! Every other experiment is a fixed-duration uniform-key throughput run, but
//! the paper's central claim — fixed optimistic traversals make the
//! structures compatible with *robust* reclamation at little cost — only
//! matters in production if that cost stays invisible in the tail, which is
//! exactly where reclamation stalls (HP scans, NBR neutralization, VBR
//! checkpoint restarts) surface.  [`Scenario::service`] therefore runs a
//! Zipfian-skewed key-value style workload through four phases of the one
//! scenario runner that also drives the fault cells:
//!
//! 1. **warmup** — the paper's mix, minus a sliver of scans: steady state;
//! 2. **read-storm** — 90% reads plus scans: the cache-hit regime;
//! 3. **churn-spike** — 88% writes: retirement and reclamation work peak;
//! 4. **reader-stall** — the warmup mix with the fault harness's stalled
//!    readers pinned through the phase: non-robust schemes balloon their
//!    footprint, and every scheme shows what a stall does to its tail.
//!
//! This module flattens the runner's per-phase latency histograms
//! (DESIGN.md § Latency methodology) into report rows.

use crate::hist::OpClass;
use crate::phases::{run_scenario, Scenario};
use crate::workload::{DsKind, RunConfig};
use scot_smr::SmrKind;

/// One row of the service result: one structure × scheme × phase × op-class.
///
/// `ops_per_sec` is the *phase's* total throughput (repeated across its four
/// class rows); the percentiles are per-class.  Percentiles are `None` when
/// the class recorded no samples in the phase (rendered as `-` in the table
/// and `null` in `BENCH_service.json`).
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Data structure under test.
    pub ds: String,
    /// Reclamation scheme under test.
    pub smr: String,
    /// Regular worker threads (stall actors excluded).
    pub threads: usize,
    /// Phase name ([`Scenario::service`]).
    pub phase: String,
    /// Operation class ([`OpClass::name`]).
    pub op_class: String,
    /// Whether the scheme claims robustness ([`SmrKind::is_robust`]).
    pub is_robust: bool,
    /// Total operations the phase completed across all classes (repeated
    /// across the phase's class rows, like `ops_per_sec`).
    pub ops: u64,
    /// Phase throughput across all classes, in operations per second.
    pub ops_per_sec: f64,
    /// Latency samples recorded for this class in this phase.
    pub samples: u64,
    /// Median latency in nanoseconds.
    pub p50_ns: Option<u64>,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: Option<u64>,
    /// 99.9th-percentile latency in nanoseconds.
    pub p999_ns: Option<u64>,
    /// Peak sampled unreclaimed count during the phase.
    pub peak_unreclaimed: usize,
    /// Traversal restarts during the phase.
    pub restarts: u64,
    /// §3.2.1 recoveries during the phase.
    pub recoveries: u64,
}

/// Runs a scenario against one structure × scheme pair and flattens the
/// result into per-phase × per-op-class rows.
pub fn run_service_scenario(
    ds: DsKind,
    smr: SmrKind,
    cfg: &RunConfig,
    scenario: &Scenario,
) -> Vec<ServiceReport> {
    let (outs, _) = run_scenario(ds, smr, cfg, scenario);
    let phases = scenario.phases.iter().zip(&outs);
    let rows = phases.flat_map(|(phase, ph)| {
        let ops_per_sec = if ph.secs > 0.0 {
            ph.ops as f64 / ph.secs
        } else {
            0.0
        };
        OpClass::ALL.map(|class| {
            let h = ph.hists.class(class);
            let samples = h.count();
            ServiceReport {
                ds: ds.name().to_string(),
                smr: smr.name().to_string(),
                threads: cfg.threads,
                phase: phase.name.to_string(),
                op_class: class.name().to_string(),
                is_robust: smr.is_robust(),
                ops: ph.ops,
                ops_per_sec,
                samples,
                p50_ns: (samples > 0).then(|| h.p50()),
                p99_ns: (samples > 0).then(|| h.p99()),
                p999_ns: (samples > 0).then(|| h.p999()),
                peak_unreclaimed: ph.peak,
                restarts: ph.restarts,
                recoveries: ph.recoveries,
            }
        })
    });
    rows.collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultKind;
    use crate::workload::Mix;
    use std::time::Duration;

    /// `Scenario::service` on a 15/25/25/25 ms schedule with one victim.
    fn micro_plan() -> Scenario {
        let mut plan = Scenario::service(Duration::ZERO);
        for (p, ms) in plan.phases.iter_mut().zip([15, 25, 25, 25]) {
            p.secs = Duration::from_millis(ms);
        }
        plan.victims = 1;
        plan
    }

    fn micro_cfg(threads: usize) -> RunConfig {
        RunConfig {
            sample_interval: Duration::from_millis(2),
            zipf_theta: 0.99,
            ..RunConfig::paper_default(threads, 256)
        }
    }

    #[test]
    fn plan_splits_and_floors_the_schedule() {
        let plan = Scenario::service(Duration::from_secs(10));
        let d: Vec<_> = plan.phases.iter().map(|p| p.secs.as_millis()).collect();
        assert_eq!(d, [2000, 3000, 2500, 2500]);
        let names: Vec<_> = plan.phases.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            ["warmup", "read-storm", "churn-spike", "reader-stall"]
        );
        // Tiny totals hit the floors instead of collapsing to zero.
        let quick = Scenario::service(Duration::from_millis(1));
        assert!(quick
            .phases
            .iter()
            .all(|p| p.secs >= Duration::from_millis(30)));
        // Every phase's mix is valid and includes every op-class, and only
        // the last phase stalls readers.
        for p in &plan.phases {
            let m = p.mix;
            m.validate();
            assert!(m.read_pct > 0 && m.insert_pct > 0 && m.delete_pct > 0 && m.scan_pct > 0);
        }
        let actors: Vec<_> = plan.phases.iter().map(|p| p.actor).collect();
        assert_eq!(actors, [None, None, None, Some(FaultKind::ReaderStall)]);
        assert_eq!(plan.actor_threads(), 2);
    }

    /// Every phase of either preset's scenario — the four service phases and
    /// the three fault phases — yields one output with throughput and
    /// latency samples.
    #[test]
    fn service_run_populates_every_phase_and_class() {
        let mut faults = Scenario::faults(FaultKind::ThreadDeath, Duration::ZERO, Mix::READ_50);
        for (p, ms) in faults.phases.iter_mut().zip([15, 25, 25]) {
            p.secs = Duration::from_millis(ms);
        }
        faults.victims = 1;
        for plan in [micro_plan(), faults] {
            let reports = run_service_scenario(DsKind::ListLf, SmrKind::Hp, &micro_cfg(2), &plan);
            assert_eq!(reports.len(), plan.phases.len() * OpClass::ALL.len());
            for name in plan.phases.iter().map(|p| p.name) {
                let rows: Vec<_> = reports.iter().filter(|r| r.phase == name).collect();
                assert_eq!(rows.len(), OpClass::ALL.len(), "{name}");
                assert!(
                    rows.iter().all(|r| r.ops_per_sec > 0.0),
                    "{name}: no throughput recorded"
                );
                // The dominant classes must have gathered samples with real
                // percentiles in every phase; thin classes may legitimately be
                // empty in a 25 ms phase.
                let get = rows.iter().find(|r| r.op_class == "get").unwrap();
                assert!(get.samples > 0, "{name}: no get samples");
                let (p50, p99, p999) = (
                    get.p50_ns.unwrap(),
                    get.p99_ns.unwrap(),
                    get.p999_ns.unwrap(),
                );
                assert!(
                    p50 <= p99 && p99 <= p999,
                    "{name}: percentiles not monotone"
                );
                assert!(p50 > 0, "{name}: zero-ns median is not a real measurement");
            }
            assert!(reports.iter().all(|r| r.is_robust), "HP is robust");
        }
    }

    #[test]
    fn stall_phase_balloons_ebr_but_not_hp() {
        // The reader-stall phase is the robustness story in miniature: EBR's
        // peak footprint in that phase should dwarf its warmup peak, while
        // HP's stays the same order of magnitude.  Keep the churn high so
        // there is something to balloon.
        let mut cfg = micro_cfg(4);
        cfg.key_range = 128;
        let mut plan = micro_plan();
        plan.phases[3].secs = Duration::from_millis(300);
        let peak_in = |reports: &[ServiceReport], phase: &str| {
            reports
                .iter()
                .find(|r| r.phase == phase)
                .map(|r| r.peak_unreclaimed)
                .unwrap()
        };
        let ebr = run_service_scenario(DsKind::ListLf, SmrKind::Ebr, &cfg, &plan);
        let hp = run_service_scenario(DsKind::ListLf, SmrKind::Hp, &cfg, &plan);
        let ebr_stall = peak_in(&ebr, "reader-stall");
        let hp_stall = peak_in(&hp, "reader-stall");
        assert!(
            ebr_stall > 4 * peak_in(&ebr, "warmup").max(64),
            "EBR stall peak {ebr_stall} did not balloon past warmup {}",
            peak_in(&ebr, "warmup")
        );
        assert!(
            hp_stall < ebr_stall,
            "HP stall peak {hp_stall} should undercut EBR's {ebr_stall}"
        );
    }
}
