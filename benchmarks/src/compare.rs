//! `bench compare A B`: two sets of result files, one verdict per workload
//! and end-to-end metric, by the bounds fixed in `BENCHMARK.json`.
//!
//! A set is a directory of result files as `--repeat N --set NAME` writes
//! them. A is the parent (or the first of two sets of one commit), B the
//! change. Medians and quartiles, never means; a metric whose own spread
//! is wider than its bound is reported as unresolved, not as unchanged.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::stats::{median, quartiles};

/// One end-to-end metric of the contract.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// The contract file, as far as the harness needs it.
#[derive(Debug, Clone)]
pub struct Contract {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Gate>,
    pub per_layer: Vec<String>,
    pub run_seconds: f64,
}

impl Contract {
    pub fn load(path: &Path) -> Result<Contract, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Contract::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Contract, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("no `{key}` list"))
        };
        let name_of = |v: &Json| {
            v.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or("entry without a name")
        };
        let end_to_end = list("end_to_end")?
            .iter()
            .map(|m| {
                Ok(Gate {
                    name: name_of(m)?,
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                    bound: m
                        .get("bound")
                        .and_then(Json::as_f64)
                        .ok_or("end_to_end entry without a bound")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Contract {
            workloads: list("workloads")?
                .iter()
                .map(name_of)
                .collect::<Result<_, _>>()?,
            end_to_end,
            per_layer: list("per_layer")?
                .iter()
                .map(name_of)
                .collect::<Result<_, _>>()?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("no `run_seconds`")?,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Unresolved,
    Regressed,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Quartile distance over median; infinite when it cannot be taken.
fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, _, q3]) if median(values) != 0.0 => (q3 - q1) / median(values).abs(),
        _ => f64::INFINITY,
    }
}

/// Judge `b` against `a` for one metric.
///
/// * regressed — b's median is worse than a's by more than the bound;
/// * improved — b wins at least nine tenths of the index-wise pairs (ties
///   count for neither side) and the medians differ by more than the
///   distance between a's own quartiles;
/// * unresolved — either set's quartile distance is wider than the bound,
///   unless every run of b reads better than every run of a;
/// * unchanged — otherwise.
pub fn judge(a: &[f64], b: &[f64], gate: &Gate) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    let sign = if gate.higher_is_better { 1.0 } else { -1.0 };
    let better = |x: f64, y: f64| sign * (x - y) > 0.0; // x better than y
    let (ma, mb) = (median(a), median(b));
    let worse_by = sign * (ma - mb) / ma.abs().max(f64::MIN_POSITIVE);
    if worse_by > gate.bound {
        return Verdict::Regressed;
    }
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| better(b[i], a[i])).count();
    let iqr_a = quartiles(a).map_or(f64::INFINITY, |[q1, _, q3]| q3 - q1);
    if better(mb, ma) && wins * 10 >= pairs * 9 && (mb - ma).abs() > iqr_a {
        return Verdict::Improved;
    }
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if (spread(a) > gate.bound || spread(b) > gate.bound) && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// `workload → metric → values` (in file-name order) plus
/// `workload → failed operations` of one set directory.
type SetData = (
    BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    BTreeMap<String, u64>,
);

fn load_set(dir: &Path) -> Result<SetData, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut metrics: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut failed: BTreeMap<String, u64> = BTreeMap::new();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let Some(workload) = doc
            .get("manifest")
            .and_then(|m| m.get("workload"))
            .and_then(Json::as_str)
        else {
            continue; // not a result file
        };
        *failed.entry(workload.to_string()).or_default() +=
            doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let per_workload = metrics.entry(workload.to_string()).or_default();
        for (name, m) in doc.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                per_workload.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok((metrics, failed))
}

fn fmt_q(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, q2, q3]) => format!("{q2:>12.4} [{q1:.4}, {q3:.4}]"),
        None => format!("{:>12.4} [n={}]", median(values), values.len()),
    }
}

/// Print the comparison; `Ok(true)` when nothing regressed.
pub fn compare(contract: &Contract, a_dir: &Path, b_dir: &Path) -> Result<bool, String> {
    let (a, a_failed) = load_set(a_dir)?;
    let (b, b_failed) = load_set(b_dir)?;
    let mut clean = true;
    println!("A = {}\nB = {}", a_dir.display(), b_dir.display());
    for workload in &contract.workloads {
        let (Some(wa), Some(wb)) = (a.get(workload), b.get(workload)) else {
            println!("\n{workload}: missing from one of the sets");
            continue;
        };
        println!("\n{workload}");
        println!(
            "  {:<20} {:<5} {:>6}  {:<40} {:<40} {:>8} {:>8}  verdict",
            "metric",
            "unit",
            "bound",
            "A median [q1, q3]",
            "B median [q1, q3]",
            "B vs A",
            "spread A"
        );
        for gate in &contract.end_to_end {
            let (Some(va), Some(vb)) = (wa.get(&gate.name), wb.get(&gate.name)) else {
                continue; // measured in traced runs only
            };
            let verdict = judge(va, vb, gate);
            clean &= verdict != Verdict::Regressed;
            println!(
                "  {:<20} {:<5} {:>5.0}%  {:<40} {:<40} {:>+7.2}% {:>7.2}%  {}",
                gate.name,
                gate.unit,
                gate.bound * 100.0,
                fmt_q(va),
                fmt_q(vb),
                (median(vb) / median(va) - 1.0) * 100.0,
                spread(va) * 100.0,
                verdict.label()
            );
        }
        // Any increase in failed operations is a regression, whatever else moved.
        let (fa, fb) = (
            a_failed.get(workload).copied().unwrap_or(0),
            b_failed.get(workload).copied().unwrap_or(0),
        );
        let verdict = if fb > fa { "regressed" } else { "unchanged" };
        clean &= fb <= fa;
        println!(
            "  {:<20} {:<5} {:>6}  {fa:<40} {fb:<40} {:>8} {:>8}  {verdict}",
            "failed operations", "count", "any", "", ""
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(higher: bool, bound: f64) -> Gate {
        Gate {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        let lower = gate(false, 0.10);
        // Same distribution: unchanged.
        assert_eq!(judge(&a, &a, &lower), Verdict::Unchanged);
        // 20% slower on a lower-is-better metric with a 10% bound.
        let slow: Vec<f64> = a.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&a, &slow, &lower), Verdict::Regressed);
        // The same numbers on a higher-is-better metric are a gain.
        assert_eq!(judge(&a, &slow, &gate(true, 0.10)), Verdict::Improved);
        // 5% slower: inside the bound, outside the noise — unchanged, not regressed.
        let bit_slow: Vec<f64> = a.iter().map(|v| v * 1.05).collect();
        assert_eq!(judge(&a, &bit_slow, &lower), Verdict::Unchanged);
        // 5% faster on every pair, by more than A's own quartile distance.
        let fast: Vec<f64> = a.iter().map(|v| v * 0.95).collect();
        assert_eq!(judge(&a, &fast, &lower), Verdict::Improved);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy_a = [100.0, 140.0, 80.0, 120.0, 90.0];
        let noisy_b = [105.0, 85.0, 130.0, 95.0, 118.0];
        let g = gate(false, 0.10);
        assert_eq!(judge(&noisy_a, &noisy_b, &g), Verdict::Unresolved);
        // Every run of B below every run of A: resolved despite the spread.
        let clear_b = [50.0, 70.0, 40.0, 60.0, 45.0];
        assert_eq!(judge(&noisy_a, &clear_b, &g), Verdict::Improved);
        assert_eq!(judge(&[], &noisy_b, &g), Verdict::Unresolved);
    }

    #[test]
    fn contract_parses_gates_and_names() {
        let c = Contract::parse(
            r#"{"command":["bash","benchmarks/run.sh"],"paths":["benchmarks"],"run_seconds":18,
                "workloads":[{"name":"w1","why":"x"},{"name":"w2","why":"y"}],
                "end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25},
                              {"name":"tps","unit":"1/s","better":"higher","bound":0.1}],
                "per_layer":[{"name":"a.b","unit":"us","better":"lower"}]}"#,
        )
        .unwrap();
        assert_eq!(c.workloads, ["w1", "w2"]);
        assert_eq!(c.end_to_end.len(), 2);
        assert!(c.end_to_end[1].higher_is_better && !c.end_to_end[0].higher_is_better);
        assert_eq!(c.per_layer, ["a.b"]);
        assert_eq!(c.run_seconds, 18.0);
        assert!(Contract::parse("{}").is_err());
    }
}
