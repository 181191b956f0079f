//! The two kinds of run — untraced (end-to-end metrics) and traced (per-layer
//! metrics) — and how their results are printed and written.

use crate::cell::{run_cell, warm_up, with_cores_busy, SliceSpec, Tally, Tracer};
use crate::ladder;
use crate::spec::{
    self, Scheme, Workload, NR_CELL_OPS, REPS, SCOT_COUNTS, SCOT_SPANS, SMR_LADDER, WORKERS,
};
use crate::stats::{median, quartiles};
use crate::trace::{scheme_json, summarize, Dist, Sample, SpanSummary, SPAN_EVERY};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

/// Share of a traced run's seconds spent in the direct-call ladder loops; the
/// rest goes to the traced cells.
const LADDER_SHARE: f64 = 0.25;

/// Slices per traced cell, alternating untraced and traced on one structure.
const TRACED_CELL_SLICES: [bool; 4] = [false, true, false, true];

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    /// Samples behind `value`: repetitions, loop iterations or spans.
    pub n: u64,
    /// The repetition values of an end-to-end metric; empty otherwise.
    pub samples: Vec<f64>,
}

impl Metric {
    fn of_reps((name, unit): (String, &'static str), samples: Vec<f64>) -> Metric {
        let (q1, q3) = quartiles(&samples);
        Metric {
            name,
            unit,
            value: median(&samples),
            q1,
            q3,
            n: samples.len() as u64,
            samples,
        }
    }

    fn single((name, unit): (String, &'static str), value: f64, n: u64) -> Metric {
        Metric {
            name,
            unit,
            value,
            q1: value,
            q3: value,
            n,
            samples: Vec::new(),
        }
    }

    fn of_spans((name, unit): (String, &'static str), d: &Dist) -> Metric {
        Metric {
            name,
            unit,
            value: d.p50 as f64,
            q1: d.p25 as f64,
            q3: d.p75 as f64,
            n: d.n as u64,
            samples: Vec::new(),
        }
    }
}

pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Every metric by name, with unit, median, quartiles and sample count.
    pub fn print(&self) {
        let kind = if self.traced {
            "per-layer"
        } else {
            "end-to-end"
        };
        println!("# {} — {kind}", self.workload);
        for m in &self.metrics {
            println!(
                "{:<34} {:>16.4} {:<7} q1 {:>16.4}  q3 {:>16.4}  n {}",
                m.name, m.value, m.unit, m.q1, m.q3, m.n
            );
        }
        for m in self.metrics.iter().filter(|m| !m.samples.is_empty()) {
            let samples: Vec<String> = m.samples.iter().map(|v| format!("{v:.4}")).collect();
            println!("samples {} [{}]", m.name, samples.join(", "));
        }
        println!(
            "ops_attempted {}  ops_failed {}",
            self.tally.attempted, self.tally.failed
        );
    }

    /// The one-line result object a driver reads from the end of stdout.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// This report's section of a result file.
    pub fn file_section(&self) -> String {
        let mut out = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n        \"{}\": {{\"unit\": \"{}\", ",
                m.name, m.unit
            );
            if self.traced {
                let _ = write!(out, "\"value\": {}, \"n\": {}}}", json_number(m.value), m.n);
            } else {
                let samples: Vec<String> = m.samples.iter().map(|v| json_number(*v)).collect();
                let _ = write!(out, "\"samples\": [{}]}}", samples.join(", "));
            }
        }
        out
    }
}

/// JSON has no NaN or infinity; a metric that is neither is written in full.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// End-to-end metrics: the reclaiming schemes round-robin, `REPS` times, each
/// cell built and checked afresh; a metric is the median over repetitions.
pub fn run_untraced(w: &'static Workload, seed: u64, seconds: f64) -> Report {
    let schemes = Scheme::RECLAIMING;
    let spec = SliceSpec {
        traced: false,
        duration: Duration::from_secs_f64(seconds / (REPS * schemes.len()) as f64),
        max_ops: u64::MAX,
    };
    let mut tracer = Tracer::new();
    let mut tally = Tally::default();
    let mut setup = Vec::new();
    let mut ops = vec![Vec::new(); schemes.len()];
    let mut backlog = vec![Vec::new(); schemes.len()];
    warm_up();
    for rep in 0..REPS {
        // Round-robin inside the repetition: drift hits every scheme equally.
        let mut setup_s = 0.0;
        for (i, scheme) in schemes.into_iter().enumerate() {
            let cell = run_cell(w, scheme, seed, rep as u64, &[spec], &mut tracer);
            setup_s += cell.setup_s;
            ops[i].push(cell.slices[0].ops_per_s);
            backlog[i].push(cell.slices[0].unreclaimed_avg);
            tally.add(cell.tally);
        }
        setup.push(setup_s);
    }

    // Same order as `spec::end_to_end_metrics`.
    let mut samples = vec![setup];
    samples.extend(ops);
    let gated_backlog = schemes
        .iter()
        .zip(backlog)
        .filter(|(s, _)| **s != Scheme::Hln);
    samples.extend(gated_backlog.map(|(_, b)| b));
    let names = spec::end_to_end_metrics();
    assert_eq!(names.len(), samples.len());
    Report {
        workload: w.name,
        traced: false,
        tally,
        metrics: names
            .into_iter()
            .zip(samples)
            .map(|(name, s)| Metric::of_reps(name, s))
            .collect(),
    }
}

/// What one scheme's traced cell yields.
struct TracedCell {
    spans: SpanSummary,
    /// Traced over untraced operations per second on the same structure.
    traced_share: f64,
    restarts_per_mop: f64,
    recoveries_per_mop: f64,
    zone_entries_per_kop: f64,
    unreclaimed_peak: usize,
}

/// Per-layer metrics: the `smr` ladder by direct calls, then one cell per
/// scheme (NR included) alternating untraced and traced slices.  Writes the
/// spans to `<out_dir>/trace-<workload>.json`.
pub fn run_traced(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
) -> std::io::Result<Report> {
    let schemes = Scheme::ALL;
    let ladder_loops = schemes.len() * SMR_LADDER.len() + 2;
    let loop_duration = Duration::from_secs_f64(seconds * LADDER_SHARE / ladder_loops as f64);
    let slice_duration = Duration::from_secs_f64(
        seconds * (1.0 - LADDER_SHARE) / (schemes.len() * TRACED_CELL_SLICES.len()) as f64,
    );

    warm_up();
    let (timer, keygen, rungs) = with_cores_busy(|| {
        let rungs: Vec<_> = schemes
            .iter()
            .map(|s| ladder::smr_rungs(*s, loop_duration))
            .collect();
        (
            ladder::timer(loop_duration),
            ladder::keygen(loop_duration),
            rungs,
        )
    });
    let timer_ns = timer.0.round() as u64;

    let mut tracer = Tracer::new();
    let mut tally = Tally::default();
    let mut cells = Vec::new();
    let mut sections = Vec::new();
    let mut next_span_id = 0;
    for scheme in schemes {
        let max_ops = if scheme == Scheme::Nr {
            NR_CELL_OPS / (TRACED_CELL_SLICES.len() * WORKERS) as u64
        } else {
            u64::MAX
        };
        let specs = TRACED_CELL_SLICES.map(|traced| SliceSpec {
            traced,
            duration: slice_duration,
            max_ops,
        });
        tracer.samples.clear();
        let cell = run_cell(w, scheme, seed, 0, &specs, &mut tracer);
        tally.add(cell.tally);
        // Children tile the parent exactly when the clock reads ascend.
        tally.check(tracer.samples.iter().all(Sample::is_ordered));

        let rate = |traced: bool| {
            let rates = cell.slices.iter().filter(|s| s.traced == traced);
            rates.clone().map(|s| s.ops_per_s).sum::<f64>() / rates.count() as f64
        };
        let ops: u64 = cell.slices.iter().map(|s| s.ops).sum();
        let per = |count: u64, scale: f64| count as f64 * scale / ops.max(1) as f64;
        let spans = summarize(&tracer.samples, timer_ns);
        sections.push(scheme_json(
            scheme.name(),
            &tracer.samples,
            &spans,
            &mut next_span_id,
        ));
        cells.push(TracedCell {
            spans,
            traced_share: rate(true) / rate(false),
            restarts_per_mop: per(cell.slices.iter().map(|s| s.restarts).sum(), 1e6),
            recoveries_per_mop: per(cell.slices.iter().map(|s| s.recoveries).sum(), 1e6),
            zone_entries_per_kop: per(cell.slices.iter().map(|s| s.zone_entries).sum(), 1e3),
            unreclaimed_peak: cell
                .slices
                .iter()
                .map(|s| s.unreclaimed_peak)
                .max()
                .unwrap_or(0),
        });
    }

    std::fs::create_dir_all(out_dir)?;
    std::fs::write(
        out_dir.join(format!("trace-{}.json", w.name)),
        format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {seed},\n  \"span_every\": {SPAN_EVERY},\n  \"timer_ns\": {timer_ns},\n  \"schemes\": {{\n{}\n  }}\n}}\n",
            w.name,
            sections.join(",\n")
        ),
    )?;

    // Same order as `spec::per_layer_metrics`, which supplies names and units.
    let mut names = spec::per_layer_metrics().into_iter();
    let mut name = || {
        names
            .next()
            .expect("more metrics than spec::per_layer_metrics")
    };
    let mut metrics = Vec::new();
    for m in 0..SMR_LADDER.len() {
        for rung in &rungs {
            let (ns, n) = rung[m];
            metrics.push(Metric::single(name(), ns, n));
        }
    }
    let span_dists: [fn(&SpanSummary) -> &Dist; SCOT_SPANS.len()] =
        [|s| &s.pin_unpin, |s| &s.get, |s| &s.insert, |s| &s.remove];
    for dist in span_dists {
        for cell in &cells {
            metrics.push(Metric::of_spans(name(), dist(&cell.spans)));
        }
    }
    let reclaiming = &cells[..Scheme::RECLAIMING.len()];
    let counts: [fn(&TracedCell) -> f64; SCOT_COUNTS.len() + 1] = [
        |c| c.restarts_per_mop,
        |c| c.recoveries_per_mop,
        |c| c.zone_entries_per_kop,
        |c| c.unreclaimed_peak as f64,
    ];
    for count in counts {
        for cell in reclaiming {
            metrics.push(Metric::single(name(), count(cell), 1));
        }
    }
    metrics.push(Metric::single(name(), keygen.0, keygen.1));
    metrics.push(Metric::single(name(), timer.0, timer.1));
    let shares: Vec<f64> = reclaiming.iter().map(|c| c.traced_share).collect();
    metrics.push(Metric::single(
        name(),
        100.0 * (1.0 - median(&shares)),
        shares.len() as u64,
    ));
    assert!(
        names.next().is_none(),
        "fewer metrics than spec::per_layer_metrics"
    );

    Ok(Report {
        workload: w.name,
        traced: true,
        tally,
        metrics,
    })
}

/// The layer ladder against the end-to-end number: per scheme, the key draw
/// plus pin/unpin plus the mix-weighted operation spans, next to the time one
/// worker takes per operation.  They should agree where operations are long
/// enough that clock reads do not dominate (`tree-rw`).
pub fn print_ladder_check(w: &Workload, untraced: &Report, traced: &Report) {
    let value = |r: &Report, name: String| r.metric(&name).map_or(0.0, |m| m.value);
    println!("# {} — ladder vs end-to-end", w.name);
    for scheme in Scheme::RECLAIMING {
        let s = scheme.name();
        let op = (w.get_pct as f64 * value(traced, format!("scot.get_ns.{s}"))
            + w.insert_pct as f64 * value(traced, format!("scot.insert_ns.{s}"))
            + w.remove_pct() as f64 * value(traced, format!("scot.remove_ns.{s}")))
            / 100.0;
        let ladder = value(traced, "bench.keygen_ns".to_string())
            + value(traced, format!("scot.pin_unpin_ns.{s}"))
            + op;
        let end_to_end = WORKERS as f64 * 1e9 / value(untraced, format!("ops_per_s.{s}"));
        println!(
            "ladder.{s:<4} spans {ladder:>9.1} ns   end-to-end {end_to_end:>9.1} ns   ratio {:.3}",
            ladder / end_to_end
        );
    }
}
