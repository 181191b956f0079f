//! Benchmark harness reproducing the paper's evaluation (§5).
//!
//! The harness mirrors the methodology of the paper's artifact:
//!
//! * every run **prefills** the structure with unique keys drawn from 50% of
//!   the key range;
//! * worker threads execute a read/insert/delete/scan mix (50/25/25 for the
//!   "50% read – 50% write" workload of Figures 8-12; 90/5/5, 0/50/50 and the
//!   scan-heavy 80%-range-scan mix are also available) over uniformly random
//!   keys for a fixed duration — every measured range scan is oracle-checked
//!   (window bounds, uniqueness, ordering) as it runs;
//! * throughput is reported in operations per second and the **memory
//!   overhead** as the average number of retired-but-not-yet-reclaimed
//!   objects, sampled periodically during the run (Figures 10-12b);
//! * traversal **restarts** are counted for Table 2.
//!
//! One run mode exists: [`run_timed`] (duration-based, like the paper's
//! `./bench <ds> <seconds> ...`), and one pipeline behind it.  Every cell of
//! every preset — membership or key-value, timed, fault-injected or phased —
//! is the same five pieces: one operation (draw, apply, verify) in one loop
//! with one pin policy and one structure × scheme dispatch
//! ([`workload`]), one phased driver (the crate-private `phases` module),
//! one sweep driver for the timed presets ([`experiments::run_experiment`])
//! and one table renderer (the crate-private `table` module).  Every JSON
//! artifact, and the reader `bench-diff` compares them with, is [`artifact`].
//!
//! The hardware substitution relative to the paper (128-core EPYC + mimalloc
//! versus whatever machine this crate runs on with the system allocator) is
//! documented in `DESIGN.md`; relative trends rather than absolute numbers are
//! the reproduction target.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod experiments;
pub mod faults;
pub mod hist;
pub mod kv;
mod phases;
pub mod service;
mod table;
pub mod workload;

pub use faults::{run_fault_scenario, FaultKind, FaultPlan, FaultReport};
pub use hist::{LatencyHistogram, OpClass, OpHistograms};
pub use kv::{run_timed_kv, Payload};
pub use service::{run_service_scenario, ServicePlan, ServiceReport};
pub use workload::{run_timed, DsKind, Mix, RunConfig, RunResult};

pub use scot_smr::SmrKind;

/// Returns the thread counts used by the experiment presets, scaled to the
/// host: the paper sweeps 1..384 threads on a 256-hardware-thread box; here we
/// sweep powers of two up to twice the available parallelism (the last point
/// being the oversubscribed configuration, like the paper's 384-thread point).
pub fn default_thread_counts() -> Vec<usize> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut counts = vec![1usize];
    let mut t = 2;
    while t < cores {
        counts.push(t);
        t *= 2;
    }
    if cores > 1 {
        counts.push(cores);
    }
    counts.push((cores * 2).max(4)); // oversubscription point
    counts.dedup();
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_counts_start_at_one_and_oversubscribe() {
        let counts = default_thread_counts();
        assert_eq!(counts[0], 1);
        let cores = std::thread::available_parallelism().unwrap().get();
        assert!(*counts.last().unwrap() >= cores);
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        assert_eq!(counts, sorted, "thread counts must be ascending");
    }
}
