//! `compare <a.json> <b.json>`: two result files of `run.sh`, metric by
//! metric, against the bounds `/BENCHMARK.json` fixes.

use crate::json::Json;
use crate::stats::{median, quartiles, spread};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The median of `b` is worse than that of `a` by more than the bound.
    Worse,
    /// Neither: a side's own spread is wider than the bound, and the runs of
    /// `b` are not all better than the runs of `a`.
    Unresolved,
}

/// `higher` says which direction is better; `bound` is a share of `a`'s median.
pub fn judge(a: &[f64], b: &[f64], higher: bool, bound: f64) -> Verdict {
    let sign = if higher { 1.0 } else { -1.0 };
    let (ma, mb) = (median(a), median(b));
    if sign * (ma - mb) > bound * ma.abs() {
        return Verdict::Worse;
    }
    let best_a = a.iter().map(|v| sign * v).fold(f64::MIN, f64::max);
    let worst_b = b.iter().map(|v| sign * v).fold(f64::MAX, f64::min);
    if (spread(a) > bound || spread(b) > bound) && worst_b <= best_a {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

fn samples(file: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let items = file
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("samples")?
        .items();
    Some(items.iter().filter_map(Json::as_f64).collect())
}

/// Prints the table; `Ok(true)` when no metric is `worse`.
pub fn compare(benchmark: &Json, a: &Json, b: &Json) -> Result<bool, String> {
    let mut clean = true;
    println!(
        "{:<11} {:<20} {:>13} {:>22} {:>13} {:>22} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "median a",
        "quartiles a",
        "median b",
        "quartiles b",
        "delta",
        "bound"
    );
    for workload in benchmark.get("workloads").map_or(&[][..], Json::items) {
        let workload = workload.get("name").and_then(Json::as_str).unwrap_or("");
        for metric in benchmark.get("end_to_end").map_or(&[][..], Json::items) {
            let name = metric.get("name").and_then(Json::as_str).unwrap_or("");
            let higher = metric.get("better").and_then(Json::as_str) == Some("higher");
            let bound = metric
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("BENCHMARK.json: {name} has no bound"))?;
            let sa = samples(a, workload, name)
                .filter(|s| !s.is_empty())
                .ok_or_else(|| format!("first file: no samples for {workload} {name}"))?;
            let sb = samples(b, workload, name)
                .filter(|s| !s.is_empty())
                .ok_or_else(|| format!("second file: no samples for {workload} {name}"))?;
            let verdict = judge(&sa, &sb, higher, bound);
            clean &= verdict != Verdict::Worse;
            let (ma, mb) = (median(&sa), median(&sb));
            let (qa, qb) = (quartiles(&sa), quartiles(&sb));
            println!(
                "{workload:<11} {name:<20} {ma:>13.4} {:>22} {mb:>13.4} {:>22} {:>+7.1}% {:>5.0}%  {}",
                format!("{:.4}..{:.4}", qa.0, qa.1),
                format!("{:.4}..{:.4}", qb.0, qb.1),
                100.0 * (mb - ma) / ma.abs(),
                100.0 * bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_direction_and_bound() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.5];
        let b_low = [88.0, 89.0, 87.0, 88.0, 88.5];
        assert_eq!(judge(&a, &b_low, true, 0.10), Verdict::Worse);
        assert_eq!(judge(&a, &b_low, false, 0.10), Verdict::Ok);
        assert_eq!(judge(&a, &b_low, true, 0.15), Verdict::Ok);
        assert_eq!(judge(&b_low, &a, false, 0.10), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = [100.0, 80.0, 120.0, 70.0, 130.0, 100.0, 95.0];
        assert_eq!(judge(&noisy, &noisy, true, 0.10), Verdict::Unresolved);
        let all_better = [140.0, 150.0, 135.0, 180.0, 131.0];
        assert_eq!(judge(&noisy, &all_better, true, 0.10), Verdict::Ok);
        assert_eq!(judge(&noisy, &all_better, false, 0.10), Verdict::Worse);
    }
}
