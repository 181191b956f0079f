//! The repo benchmark: per-scheme throughput and reclamation backlog of the
//! `scot` structures on four workloads, and an outside-in layer ladder.
//! README.md next to this package says what is measured and why.

mod cell;
mod compare;
mod json;
mod keys;
mod ladder;
mod run;
mod spec;
mod stats;
mod trace;

use json::Json;
use run::{print_ladder_check, run_traced, run_untraced};
use std::path::PathBuf;
use std::process::ExitCode;

/// The contract this benchmark is written to; bounds, directions and the run
/// length are read from it, never repeated in code.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

const USAGE: &str = "usage:
  run.sh [--seed N] [--seconds T] [--out DIR]
      every workload, untraced then traced; prints every metric and writes
      DIR/results-seed<N>.json and DIR/trace-<workload>.json
  run.sh --workload W [--seed N] [--seconds T] [--trace 0|1] [--out DIR]
      one run; the last line of stdout is the result object
  run.sh compare A.json B.json
      two result files against the bounds in BENCHMARK.json; exit 1 on 'worse'
  (seed defaults to 42, T to BENCHMARK.json's run_seconds, DIR to benchmark/out)";

struct Args {
    workload: Option<&'static spec::Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: PathBuf,
}

fn parse_args(args: &[String], benchmark: &Json) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: benchmark
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")?,
        traced: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(spec::workload(value).ok_or_else(|| {
                    let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value} (known: {})", known.join(", "))
                })?)
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Every workload, untraced then traced.  Returns the checks that failed.
fn run_all(args: &Args) -> std::io::Result<u64> {
    let mut failed = 0;
    let mut sections = Vec::new();
    for w in &spec::WORKLOADS {
        let untraced = run_untraced(w, args.seed, args.seconds);
        untraced.print();
        let traced = run_traced(w, args.seed, args.seconds, &args.out_dir)?;
        traced.print();
        print_ladder_check(w, &untraced, &traced);
        println!();
        let attempted = untraced.tally.attempted + traced.tally.attempted;
        let bad = untraced.tally.failed + traced.tally.failed;
        failed += bad;
        sections.push(format!(
            "    \"{}\": {{\n      \"attempted\": {attempted},\n      \"failed\": {bad},\n      \"end_to_end\": {{{}\n      }},\n      \"per_layer\": {{{}\n      }}\n    }}",
            w.name,
            untraced.file_section(),
            traced.file_section()
        ));
    }
    let path = args.out_dir.join(format!("results-seed{}.json", args.seed));
    std::fs::write(
        &path,
        format!(
            "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
            args.seed,
            run::json_number(args.seconds),
            sections.join(",\n")
        ),
    )?;
    println!(
        "ops_failed {failed} in total; results in {}",
        path.display()
    );
    Ok(failed)
}

fn run_one(w: &'static spec::Workload, args: &Args) -> std::io::Result<u64> {
    let report = if args.traced {
        run_traced(w, args.seed, args.seconds, &args.out_dir)?
    } else {
        run_untraced(w, args.seed, args.seconds)
    };
    report.print();
    println!("{}", report.result_line());
    Ok(report.tally.failed)
}

fn main_inner(args: &[String]) -> Result<bool, String> {
    let benchmark = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args else {
            return Err("compare takes two result files".to_string());
        };
        return compare::compare(&benchmark, &read_json(a)?, &read_json(b)?);
    }
    let args = parse_args(args, &benchmark)?;
    let failed = match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
    .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{run_cell, SliceSpec, Tracer};
    use crate::run::Report;
    use crate::spec::Scheme;
    use std::time::Duration;

    fn listed(benchmark: &Json, key: &str) -> Vec<(String, String)> {
        benchmark
            .get(key)
            .unwrap()
            .items()
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(metrics: Vec<(String, &'static str)>) -> Vec<(String, String)> {
        metrics
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect()
    }

    #[test]
    fn names_and_units_equal_benchmark_json() {
        let benchmark = Json::parse(BENCHMARK_JSON).unwrap();
        assert_eq!(
            listed(&benchmark, "end_to_end"),
            owned(spec::end_to_end_metrics())
        );
        assert_eq!(
            listed(&benchmark, "per_layer"),
            owned(spec::per_layer_metrics())
        );
        let workloads: Vec<_> = listed(&benchmark, "workloads")
            .into_iter()
            .map(|w| w.0)
            .collect();
        let ours: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);

        let valid = |name: &str| {
            !name.is_empty()
                && name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut names: Vec<String> = ours.iter().map(|n| n.to_string()).collect();
        names.extend(spec::end_to_end_metrics().into_iter().map(|m| m.0));
        names.extend(spec::per_layer_metrics().into_iter().map(|m| m.0));
        assert!(names.iter().all(|n| valid(n)), "{names:?}");
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn reports_list_the_metrics_of_the_spec_in_order() {
        let w = &spec::WORKLOADS[3];
        let names =
            |r: &Report| -> Vec<String> { r.metrics.iter().map(|m| m.name.clone()).collect() };
        let spec_names = |m: Vec<(String, &'static str)>| -> Vec<String> {
            m.into_iter().map(|m| m.0).collect()
        };

        let untraced = run_untraced(w, 1, 0.5);
        assert_eq!(names(&untraced), spec_names(spec::end_to_end_metrics()));
        assert_eq!(untraced.tally.failed, 0);
        assert!(
            untraced.metrics.iter().all(|m| m.value > 0.0),
            "an end-to-end metric is 0"
        );

        let out = std::env::temp_dir().join(format!("scot-benchmark-test-{}", std::process::id()));
        let traced = run_traced(w, 1, 0.5, &out).unwrap();
        assert_eq!(names(&traced), spec_names(spec::per_layer_metrics()));
        assert_eq!(traced.tally.failed, 0);
        let file = std::fs::read_to_string(out.join("trace-hashmap-wo.json")).unwrap();
        std::fs::remove_dir_all(&out).unwrap();
        let file = Json::parse(&file).unwrap();
        assert_eq!(
            file.get("schemes").unwrap().fields().len(),
            Scheme::ALL.len()
        );

        // Both result lines parse and carry exactly the four keys.
        for report in [&untraced, &traced] {
            let line = Json::parse(&report.result_line()).unwrap();
            let keys: Vec<_> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                line.get("metrics").unwrap().fields().len(),
                report.metrics.len()
            );
        }
    }

    #[test]
    fn smoke_every_workload_under_every_scheme() {
        let mut tracer = Tracer::new();
        for w in &spec::WORKLOADS {
            for scheme in Scheme::ALL {
                let slices = [false, true].map(|traced| SliceSpec {
                    traced,
                    duration: Duration::from_millis(50),
                    max_ops: 100_000,
                });
                tracer.samples.clear();
                let cell = run_cell(w, scheme, 9, 0, &slices, &mut tracer);
                assert_eq!(cell.tally.failed, 0, "{} {}", w.name, scheme.name());
                assert!(cell.slices.iter().all(|s| s.ops > 0));
                assert!(!tracer.samples.is_empty());
                assert!(tracer.samples.iter().all(trace::Sample::is_ordered));
            }
        }
    }
}
