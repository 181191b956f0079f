//! The `BENCH_<preset>.json` trajectory artifacts, in one place: their record
//! shapes ([`BenchRecord`], [`BenchArtifact`], [`FaultArtifact`]), the
//! normalisers that build them from harness results, the one JSON writer
//! ([`to_json`]) and the reader `scot-bench bench-diff` compares two
//! artifacts with ([`parse_bench_records`]).
//!
//! The writer prints two-space-indented JSON with one array item or one
//! `"key": value` pair per line; floats print with `{:?}` and non-finite
//! values as `null`.  The reader is a line scanner that relies on exactly that
//! layout, which is why the two share this file.

use crate::experiments::is_robust;
use crate::faults::{FaultKind, FaultReport};
use crate::service::ServiceReport;
use crate::workload::RunResult;
use crate::SmrKind;
use std::collections::HashMap;

/// A value the artifact writer can render.
pub trait Json {
    /// Appends `self` to `out`, indenting its inner lines `depth` levels.
    fn write(&self, out: &mut String, depth: usize);
}

/// Renders `value` as JSON: two-space indentation, one array item or
/// `"key": value` pair per line, no trailing newline.
pub fn to_json<T: Json + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write(&mut out, 0);
    out
}

/// Implements [`Json`] for types whose `Display` is their JSON.
macro_rules! json_display {
    ($($t:ty),*) => {$(
        impl Json for $t {
            fn write(&self, out: &mut String, _: usize) {
                out.push_str(&self.to_string());
            }
        }
    )*};
}
json_display!(bool, u64, usize);

impl Json for f64 {
    fn write(&self, out: &mut String, _: usize) {
        if self.is_finite() {
            out.push_str(&format!("{self:?}"));
        } else {
            out.push_str("null");
        }
    }
}

impl Json for str {
    fn write(&self, out: &mut String, _: usize) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' | '\\' => out.extend(['\\', c]),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl Json for String {
    fn write(&self, out: &mut String, depth: usize) {
        self.as_str().write(out, depth);
    }
}

impl<T: Json> Json for Option<T> {
    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Some(v) => v.write(out, depth),
            None => out.push_str("null"),
        }
    }
}

impl<T: Json> Json for Vec<T> {
    fn write(&self, out: &mut String, depth: usize) {
        write_block(out, depth, ('[', ']'), self, |out, v| {
            v.write(out, depth + 1)
        });
    }
}

/// Writes `items` between `brackets`, one per line, indented one level
/// deeper than `depth` and comma-separated; an empty block stays on one line.
fn write_block<T>(
    out: &mut String,
    depth: usize,
    (open, close): (char, char),
    items: &[T],
    mut item: impl FnMut(&mut String, &T),
) {
    out.push(open);
    for (i, x) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        item(out, x);
    }
    if !items.is_empty() {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

/// Implements [`Json`] for a struct as an object of the listed fields, in
/// the listed order.
macro_rules! json_object {
    ($ty:ty: $($field:ident),* $(,)?) => {
        impl Json for $ty {
            fn write(&self, out: &mut String, depth: usize) {
                let fields: &[(&str, &dyn Json)] = &[$((stringify!($field), &self.$field)),*];
                write_block(out, depth, ('{', '}'), fields, |out, (key, value)| {
                    key.write(out, depth + 1);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                });
            }
        }
    };
}

/// One normalized row of a `BENCH_<preset>.json` trajectory artifact: the
/// stable subset of [`RunResult`] that is comparable across machines and
/// sessions (throughput and the paper's robustness counters), keyed by
/// scheme × structure × arm × thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Data structure name (e.g. `HList`).
    pub ds: String,
    /// Scheme name (e.g. `NBR`), always one [`SmrKind::parse`] accepts.
    pub smr: String,
    /// Ablation arm (`pool-on` / `pool-off`, `base` / `batch`); `None` for
    /// presets without arms.
    pub arm: Option<String>,
    /// Worker threads.
    pub threads: usize,
    /// Whether the scheme is robust ([`SmrKind::is_robust`]): bounded
    /// unreclaimed growth even under stalled or dead readers.
    pub is_robust: bool,
    /// Throughput in operations per second.
    pub ops_per_sec: f64,
    /// Total traversal restarts.
    pub restarts: u64,
    /// Total §3.2.1 recoveries.
    pub recoveries: u64,
    /// Peak sampled retired-but-unreclaimed objects (`None` where the paper
    /// skips the metric, e.g. Hyaline).
    pub peak_unreclaimed: Option<usize>,
    /// Average sampled retired-but-unreclaimed objects — what Figures
    /// 10–12b plot (`None` where not sampled: Hyaline, and the service
    /// rows).
    pub avg_unreclaimed: Option<f64>,
    /// Service phase name (`None` for the throughput presets, which have no
    /// phases; serialized as `null`).
    pub phase: Option<String>,
    /// Operation class (`None` for the throughput presets, which do not
    /// split by class).
    pub op_class: Option<String>,
    /// Latency samples behind the percentiles below (`None` where latency is
    /// not measured).  `bench-diff` skips the latency gate on rows with
    /// fewer samples than its stability floor — a median over a handful of
    /// samples is noise, not signal.
    pub samples: Option<u64>,
    /// Median latency in nanoseconds (`None` where latency is not measured).
    /// The separate, looser `bench-diff` latency gate keys on this field:
    /// p50 is stable run-to-run, while p99/p999 on smoke-length phases ride
    /// on a handful of tail samples and are recorded for trend reading only.
    pub p50_ns: Option<u64>,
    /// 99th-percentile latency in nanoseconds (`None` where not measured).
    pub p99_ns: Option<u64>,
    /// 99.9th-percentile latency in nanoseconds (`None` where not measured).
    pub p999_ns: Option<u64>,
}

json_object! { BenchRecord:
    ds, smr, arm, threads, is_robust, ops_per_sec, restarts, recoveries, peak_unreclaimed,
    avg_unreclaimed, phase, op_class, samples, p50_ns, p99_ns, p999_ns
}

impl From<&RunResult> for BenchRecord {
    fn from(r: &RunResult) -> Self {
        Self {
            ds: r.ds.clone(),
            smr: r.smr.clone(),
            arm: r.arm.clone(),
            threads: r.threads,
            is_robust: is_robust(r),
            ops_per_sec: r.ops_per_sec,
            restarts: r.restarts,
            recoveries: r.recoveries,
            peak_unreclaimed: r.max_unreclaimed,
            avg_unreclaimed: r.avg_unreclaimed,
            phase: None,
            op_class: None,
            samples: None,
            p50_ns: None,
            p99_ns: None,
            p999_ns: None,
        }
    }
}

/// One record per (structure, scheme, phase, op-class), with the percentile
/// fields populated and the phase throughput as `ops_per_sec`.
impl From<&ServiceReport> for BenchRecord {
    fn from(r: &ServiceReport) -> Self {
        Self {
            ds: r.ds.clone(),
            smr: r.smr.clone(),
            arm: None,
            threads: r.threads,
            is_robust: r.is_robust,
            ops_per_sec: r.ops_per_sec,
            restarts: r.restarts,
            recoveries: r.recoveries,
            peak_unreclaimed: Some(r.peak_unreclaimed),
            avg_unreclaimed: None,
            phase: Some(r.phase.clone()),
            op_class: Some(r.op_class.clone()),
            samples: Some(r.samples),
            p50_ns: r.p50_ns,
            p99_ns: r.p99_ns,
            p999_ns: r.p999_ns,
        }
    }
}

/// The top-level shape of a `BENCH_<preset>.json` artifact.
#[derive(Debug, Clone)]
pub struct BenchArtifact {
    /// Experiment preset id (e.g. `tab1`).
    pub preset: String,
    /// Scheme names available at generation time, in [`SmrKind::ALL`] order —
    /// lets a reader detect artifacts from before a scheme existed.
    pub schemes: Vec<String>,
    /// One record per measured (structure, scheme, arm, threads) point.
    pub records: Vec<BenchRecord>,
}

json_object! { BenchArtifact: preset, schemes, records }

/// The top-level shape of the `BENCH_faults.json` artifact: full fault
/// verdicts rather than throughput rows.
#[derive(Debug, Clone)]
pub struct FaultArtifact {
    /// Always `faults`.
    pub preset: String,
    /// Scheme names available at generation time, in [`SmrKind::ALL`] order.
    pub schemes: Vec<String>,
    /// Names of the fault classes the records cover, in [`FaultKind::ALL`]
    /// order.
    pub faults: Vec<String>,
    /// One verdict per measured (structure, scheme, fault) cell.
    pub records: Vec<FaultReport>,
}

json_object! { FaultArtifact: preset, schemes, faults, records }

json_object! { FaultReport:
    ds, smr, fault, threads, victims, is_robust, baseline, peak, end_of_fault, residual, drained,
    bound, pool_leak_bound, bounded, verdict, ops, elapsed_secs
}

fn scheme_names() -> Vec<String> {
    SmrKind::ALL.iter().map(|s| s.name().to_string()).collect()
}

/// Normalizes a preset's rows into the committed-trajectory shape.
pub(crate) fn bench_artifact<'a, R>(id: &str, rows: &'a [R]) -> BenchArtifact
where
    BenchRecord: From<&'a R>,
{
    BenchArtifact {
        preset: id.to_string(),
        schemes: scheme_names(),
        records: rows.iter().map(BenchRecord::from).collect(),
    }
}

/// Normalizes fault verdicts into the committed-artifact shape.
pub(crate) fn fault_artifact(reports: &[FaultReport]) -> FaultArtifact {
    FaultArtifact {
        preset: "faults".to_string(),
        schemes: scheme_names(),
        faults: FaultKind::ALL
            .iter()
            .filter(|f| reports.iter().any(|r| r.fault == f.name()))
            .map(|f| f.name().to_string())
            .collect(),
        records: reports.to_vec(),
    }
}

/// Writes `artifact` as `BENCH_<id>.json` into `dir`; returns the path.
fn write_artifact(dir: &str, id: &str, artifact: &impl Json) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/BENCH_{id}.json");
    std::fs::write(&path, to_json(artifact) + "\n")?;
    Ok(path)
}

/// Writes the normalized `BENCH_<id>.json` artifact of preset `id`'s rows
/// (timed results or service rows) into `dir` and returns the path written.
/// Every `exp` run of the `scot-bench` CLI calls this or
/// [`write_fault_artifact`], so the trajectory is regenerated on each run.
pub fn write_bench_artifact<'a, R>(dir: &str, id: &str, rows: &'a [R]) -> std::io::Result<String>
where
    BenchRecord: From<&'a R>,
{
    write_artifact(dir, id, &bench_artifact(id, rows))
}

/// Writes `BENCH_faults.json` into `dir` and returns the path written.
pub fn write_fault_artifact(dir: &str, reports: &[FaultReport]) -> std::io::Result<String> {
    write_artifact(dir, "faults", &fault_artifact(reports))
}

/// One comparable row extracted from a `BENCH_*.json` artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRecord {
    /// Data structure name.
    pub ds: String,
    /// Scheme name.
    pub smr: String,
    /// Ablation arm; artifacts from before the field existed (and presets
    /// without arms, which write `null`) read as `None`.
    pub arm: Option<String>,
    /// Worker threads.
    pub threads: u64,
    /// Throughput in operations per second.
    pub ops_per_sec: f64,
    /// `p50` latency in nanoseconds where the preset records it (`null` in
    /// the throughput presets' artifacts, which parses to `None` here).  The
    /// gate keys on the *median* deliberately: p99/p999 on sub-second smoke
    /// phases ride on a handful of samples at the stall cliff and swing
    /// orders of magnitude between identical runs, while p50 is stable and
    /// still catches any systematic hot-path slowdown.
    pub p50_ns: Option<f64>,
    /// Latency samples behind the percentiles, where the artifact records
    /// them.  Rows with too few samples on either side are exempt from the
    /// latency gate.
    pub samples: Option<f64>,
}

impl DiffRecord {
    /// What two artifacts' rows are matched on.
    pub fn key(&self) -> (&str, &str, Option<&str>, u64) {
        (&self.ds, &self.smr, self.arm.as_deref(), self.threads)
    }

    /// The scheme column: the scheme, with the arm where there is one.
    pub fn scheme(&self) -> String {
        match &self.arm {
            Some(arm) => format!("{}[{arm}]", self.smr),
            None => self.smr.clone(),
        }
    }
}

/// Extracts the `records` rows of a `BENCH_*.json` artifact with a
/// line-oriented scanner: [`to_json`] writes one `"key": value` pair per line,
/// so a full JSON parser is not needed.  A record without `ds`, `smr`,
/// `threads` or a numeric `ops_per_sec` is skipped; any other field may be
/// absent or `null`, and unknown keys are ignored.
pub fn parse_bench_records(body: &str) -> Vec<DiffRecord> {
    let (_, body) = body.split_once("\"records\"").unwrap_or_default();
    let mut records = Vec::new();
    // The `"key": value` pairs of the record being read.
    let mut fields = HashMap::new();
    for line in body.lines().map(str::trim) {
        if let Some((key, value)) = line.strip_prefix('"').and_then(|l| l.split_once("\":")) {
            fields.insert(key, value.trim().trim_end_matches(','));
        } else if line == "}" || line == "}," {
            let text = |key: &str| {
                let value: &str = fields.get(key)?;
                Some(value.strip_prefix('"')?.trim_end_matches('"').to_string())
            };
            let number = |key| fields.get(key).and_then(|v| v.parse::<f64>().ok());
            let threads = fields.get("threads").and_then(|v| v.parse().ok());
            if let (Some(ds), Some(smr), Some(threads), Some(ops_per_sec)) =
                (text("ds"), text("smr"), threads, number("ops_per_sec"))
            {
                records.push(DiffRecord {
                    ds,
                    smr,
                    arm: text("arm"),
                    threads,
                    ops_per_sec,
                    // `null` (the throughput presets) fails the parse: `None`.
                    p50_ns: number("p50_ns"),
                    samples: number("samples"),
                });
            }
            fields.clear();
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_and_containers() {
        assert_eq!(to_json(&5u64), "5");
        assert_eq!(to_json(&7usize), "7");
        assert_eq!(to_json(&true), "true");
        assert_eq!(to_json(&None::<u64>), "null");
        assert_eq!(to_json(&Some(1u64)), "1");
        assert_eq!(to_json(&vec!["a".to_string()]), "[\n  \"a\"\n]");
        assert_eq!(to_json(&Vec::<u64>::new()), "[]");
    }

    #[test]
    fn derive_generates_field_map() {
        // `json_object!` is the field map: the listed fields, in order.
        struct Point {
            x: u64,
            y: Option<f64>,
        }
        json_object! { Point: x, y }
        let point = Point { x: 1, y: None };
        assert_eq!(to_json(&point), "{\n  \"x\": 1,\n  \"y\": null\n}");
    }

    #[test]
    fn compact_and_pretty_roundtrip() {
        // The writer is pretty-only: the compact mode went with the stubs.
        assert_eq!(to_json(&vec![1u64, 2, 3]), "[\n  1,\n  2,\n  3\n]");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(to_json("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(to_json("\t\r\u{1}"), r#""\t\r\u0001""#);
    }

    #[test]
    fn floats_render_finite_and_null() {
        assert_eq!(to_json(&1.5f64), "1.5");
        assert_eq!(to_json(&2.0f64), "2.0");
        assert_eq!(to_json(&f64::NAN), "null");
        assert_eq!(to_json(&f64::INFINITY), "null");
    }

    #[test]
    fn written_records_read_back() {
        let records = vec![
            BenchRecord {
                ops_per_sec: 1_000.0,
                ..golden_record()
            },
            BenchRecord {
                arm: Some("batch".into()),
                threads: 2,
                ops_per_sec: 2_000.5,
                samples: None,
                p50_ns: None,
                ..golden_record()
            },
        ];
        let artifact = BenchArtifact {
            preset: "roundtrip".into(),
            schemes: vec![],
            records: records.clone(),
        };
        let body = to_json(&artifact);
        let read: Vec<DiffRecord> = records
            .iter()
            .map(|r| DiffRecord {
                ds: r.ds.clone(),
                smr: r.smr.clone(),
                arm: r.arm.clone(),
                threads: r.threads as u64,
                ops_per_sec: r.ops_per_sec,
                p50_ns: r.p50_ns.map(|v| v as f64),
                samples: r.samples.map(|v| v as f64),
            })
            .collect();
        assert_eq!(parse_bench_records(&body), read);
    }

    /// The golden fixture's record: `None`s, a NaN and a string that needs
    /// escaping.
    fn golden_record() -> BenchRecord {
        BenchRecord {
            ds: "NMTree".into(),
            smr: "EBR".into(),
            arm: None,
            threads: 1,
            is_robust: false,
            ops_per_sec: f64::NAN,
            restarts: 7,
            recoveries: 3,
            peak_unreclaimed: Some(42),
            avg_unreclaimed: Some(12.5),
            phase: Some("a\"b\\c\nd".into()),
            op_class: None,
            samples: Some(64),
            p50_ns: Some(431),
            p99_ns: None,
            p999_ns: None,
        }
    }

    #[test]
    fn golden_artifact_bytes() {
        let bench = BenchArtifact {
            preset: "golden".into(),
            schemes: vec![],
            records: vec![golden_record()],
        };
        let empty = BenchArtifact {
            preset: "empty".into(),
            schemes: vec!["HP".into()],
            records: vec![],
        };
        let fault = FaultArtifact {
            preset: "faults".into(),
            schemes: vec![],
            faults: vec!["thread-death".into()],
            records: vec![FaultReport {
                ds: "HList".into(),
                smr: "IBR".into(),
                fault: "thread-death".into(),
                threads: 2,
                victims: 1,
                is_robust: true,
                baseline: 120,
                peak: 300,
                end_of_fault: 250,
                residual: 0,
                drained: true,
                bound: 4576,
                pool_leak_bound: 256,
                bounded: true,
                verdict: "bounded".into(),
                ops: 123_456,
                elapsed_secs: 2.0,
            }],
        };
        let dir = std::env::temp_dir().join(format!("scot-golden-artifact-{}", std::process::id()));
        let dir = dir.to_str().unwrap();
        let read = |path: std::io::Result<String>| std::fs::read_to_string(path.unwrap()).unwrap();
        let bench = read(write_artifact(dir, "golden", &bench));
        let empty = read(write_artifact(dir, "empty", &empty));
        let fault = read(write_artifact(dir, "faults", &fault));
        std::fs::remove_dir_all(dir).ok();
        assert_eq!(
            bench,
            r#"{
  "preset": "golden",
  "schemes": [],
  "records": [
    {
      "ds": "NMTree",
      "smr": "EBR",
      "arm": null,
      "threads": 1,
      "is_robust": false,
      "ops_per_sec": null,
      "restarts": 7,
      "recoveries": 3,
      "peak_unreclaimed": 42,
      "avg_unreclaimed": 12.5,
      "phase": "a\"b\\c\nd",
      "op_class": null,
      "samples": 64,
      "p50_ns": 431,
      "p99_ns": null,
      "p999_ns": null
    }
  ]
}
"#
        );
        assert_eq!(
            empty,
            r#"{
  "preset": "empty",
  "schemes": [
    "HP"
  ],
  "records": []
}
"#
        );
        assert_eq!(
            fault,
            r#"{
  "preset": "faults",
  "schemes": [],
  "faults": [
    "thread-death"
  ],
  "records": [
    {
      "ds": "HList",
      "smr": "IBR",
      "fault": "thread-death",
      "threads": 2,
      "victims": 1,
      "is_robust": true,
      "baseline": 120,
      "peak": 300,
      "end_of_fault": 250,
      "residual": 0,
      "drained": true,
      "bound": 4576,
      "pool_leak_bound": 256,
      "bounded": true,
      "verdict": "bounded",
      "ops": 123456,
      "elapsed_secs": 2.0
    }
  ]
}
"#
        );
    }
}
