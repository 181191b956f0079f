//! What the benchmark runs and what it reports: schemes, workloads, metric
//! names.  `/BENCHMARK.json` lists the same names; a self-test keeps the two
//! equal.

/// Values are `key ^ STAMP`, so every `get`/`remove` hit can be verified.
pub const STAMP: u64 = 0x5C07_C0DE_5C07_C0DE;

/// Closed loop with this many clients, one thread each (= `nproc` on the
/// 2-core box the bounds were sized on).
pub const WORKERS: usize = 2;

/// `SmrConfig::for_threads` argument: workers, the main thread's set-up /
/// verification handle, and one spare.
pub const SMR_THREADS: usize = 4;

/// Repetitions of every scheme per untraced run; a metric is the median.
pub const REPS: usize = 7;

/// Single-threaded oracle-checked operations per cell before timing.
pub const ORACLE_OPS: u64 = 100_000;

/// NR never frees, so every NR cell is bounded by an operation count.
pub const NR_CELL_OPS: u64 = 2_000_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    Ebr,
    Hp,
    He,
    Ibr,
    Hln,
    Nbr,
    Vbr,
    Nr,
}

impl Scheme {
    /// The schemes the end-to-end metrics cover, in round-robin order.
    pub const RECLAIMING: [Scheme; 7] = [
        Scheme::Ebr,
        Scheme::Hp,
        Scheme::He,
        Scheme::Ibr,
        Scheme::Hln,
        Scheme::Nbr,
        Scheme::Vbr,
    ];

    /// `RECLAIMING` plus NR, the no-reclamation floor of the layer ladder.
    pub const ALL: [Scheme; 8] = [
        Scheme::Ebr,
        Scheme::Hp,
        Scheme::He,
        Scheme::Ibr,
        Scheme::Hln,
        Scheme::Nbr,
        Scheme::Vbr,
        Scheme::Nr,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Scheme::Ebr => "EBR",
            Scheme::Hp => "HP",
            Scheme::He => "HE",
            Scheme::Ibr => "IBR",
            Scheme::Hln => "HLN",
            Scheme::Nbr => "NBR",
            Scheme::Vbr => "VBR",
            Scheme::Nr => "NR",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Structure {
    HarrisList,
    HarrisMichaelList,
    NmTree,
    HashMap,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub structure: Structure,
    /// Key range; the hash map gets as many buckets.
    pub keys: u64,
    pub get_pct: u64,
    pub insert_pct: u64,
}

impl Workload {
    pub fn remove_pct(&self) -> u64 {
        100 - self.get_pct - self.insert_pct
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "hlist-rw",
        structure: Structure::HarrisList,
        keys: 512,
        get_pct: 50,
        insert_pct: 25,
    },
    Workload {
        name: "hmlist-rw",
        structure: Structure::HarrisMichaelList,
        keys: 512,
        get_pct: 50,
        insert_pct: 25,
    },
    Workload {
        name: "tree-rw",
        structure: Structure::NmTree,
        keys: 100_000,
        get_pct: 50,
        insert_pct: 25,
    },
    Workload {
        name: "hashmap-wo",
        structure: Structure::HashMap,
        keys: 65_536,
        get_pct: 0,
        insert_pct: 50,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
/// `unreclaimed_avg.HLN` is deliberately absent: Hyaline's backlog on one cell
/// swings 2x between identical runs, so it is reported per layer only.
pub fn end_to_end_metrics() -> Vec<(String, &'static str)> {
    let mut out = vec![("setup_s".to_string(), "s")];
    for s in Scheme::RECLAIMING {
        out.push((format!("ops_per_s.{}", s.name()), "1/s"));
    }
    for s in Scheme::RECLAIMING {
        if s != Scheme::Hln {
            out.push((format!("unreclaimed_avg.{}", s.name()), "blocks"));
        }
    }
    out
}

pub const SMR_LADDER: [&str; 4] = [
    "smr.pin_ns",
    "smr.protect_ns",
    "smr.alloc_retire_ns",
    "smr.alloc_retire_nopool_ns",
];

pub const SCOT_SPANS: [&str; 4] = [
    "scot.pin_unpin_ns",
    "scot.get_ns",
    "scot.insert_ns",
    "scot.remove_ns",
];

pub const SCOT_COUNTS: [(&str, &str); 3] = [
    ("scot.restarts_per_mop", "1/Mop"),
    ("scot.recoveries_per_mop", "1/Mop"),
    ("scot.zone_entries_per_kop", "1/kop"),
];

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for m in SMR_LADDER {
        for s in Scheme::ALL {
            out.push((format!("{m}.{}", s.name()), "ns"));
        }
    }
    for m in SCOT_SPANS {
        for s in Scheme::ALL {
            out.push((format!("{m}.{}", s.name()), "ns"));
        }
    }
    for (m, unit) in SCOT_COUNTS {
        for s in Scheme::RECLAIMING {
            out.push((format!("{m}.{}", s.name()), unit));
        }
    }
    for s in Scheme::RECLAIMING {
        out.push((format!("smr.unreclaimed_peak.{}", s.name()), "blocks"));
    }
    out.push(("bench.keygen_ns".to_string(), "ns"));
    out.push(("bench.timer_ns".to_string(), "ns"));
    out.push(("bench.trace_overhead_pct".to_string(), "%"));
    out
}
