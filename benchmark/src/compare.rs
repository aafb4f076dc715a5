//! `compare`: parent vs change, per (end-to-end metric, workload).
//!
//! Each directory holds one saved stdout per run, named
//! `<workload>.<tag>` (for example `city-serial.seed3.txt`); a file in the
//! parent directory and the same-named file in the change directory form
//! a pair. Rows follow the rule of the choosing-metrics guide:
//!
//! * **improved**: at least 10 pairs, the change wins at least 9 in 10 of
//!   them (ties count for neither), and the medians differ by more than
//!   the parent's interquartile range;
//! * **regressed**: the change's median is worse than the parent's by more
//!   than the metric's bound;
//! * **unresolved**: the spread (IQR over median) of either side exceeds
//!   the bound, unless every change run beats every parent run;
//! * **unchanged**: otherwise.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Json};
use crate::stats::{median, quartiles, relative_iqr};

/// Pairs a gain needs.
const MIN_PAIRS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// One `end_to_end` entry of `BENCHMARK.json`.
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Judge paired runs (`parent[i]` pairs with `change[i]`).
pub fn verdict(parent: &[f64], change: &[f64], b: &Bound) -> Verdict {
    let better = |c: f64, p: f64| if b.lower_is_better { c < p } else { c > p };
    let n = parent.len().min(change.len());
    let wins = parent.iter().zip(change).filter(|&(&p, &c)| better(c, p)).count();
    let (pm, cm) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let gain = if b.lower_is_better { pm - cm } else { cm - pm };
    if n >= MIN_PAIRS && wins * 10 >= n * 9 && gain > q3 - q1 {
        return Verdict::Improved;
    }
    if -gain > b.bound * pm.abs() {
        return Verdict::Regressed;
    }
    let every_run_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if relative_iqr(parent).max(relative_iqr(change)) > b.bound && !every_run_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// `end_to_end` bounds from `BENCHMARK.json`.
pub fn load_bounds(spec: &Json) -> Result<Vec<Bound>, String> {
    spec.get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .as_array()
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m.get("name").and_then(Json::as_str).ok_or("metric without a name")?.into(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// The `metrics` object of a run's last stdout line, by file name.
fn load_runs(dir: &Path) -> Result<BTreeMap<String, BTreeMap<String, f64>>, String> {
    let mut runs = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let last = text.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or_default();
        let line = json::parse(last).map_err(|e| format!("{}: {e}", path.display()))?;
        let metrics = line
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{}: last line has no metrics", path.display()))?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default().to_string();
        runs.insert(name, metrics);
    }
    Ok(runs)
}

/// `compare --parent <dir> --change <dir> [--spec BENCHMARK.json]`.
/// Exits 1 when any row regressed.
pub fn main(args: &[String]) -> Result<bool, String> {
    let mut parent = None;
    let mut change = None;
    let mut spec = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--parent" => parent = Some(value.clone()),
            "--change" => change = Some(value.clone()),
            "--spec" => spec = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let (parent, change) = parent.zip(change).ok_or("--parent and --change are required")?;
    let text = std::fs::read_to_string(&spec).map_err(|e| format!("{spec}: {e}"))?;
    let bounds = load_bounds(&json::parse(&text)?)?;
    let parent_runs = load_runs(Path::new(&parent))?;
    let change_runs = load_runs(Path::new(&change))?;

    // (workload, index into `bounds`) -> parent values and change values,
    // paired by file name.
    let mut table: BTreeMap<(String, usize), [Vec<f64>; 2]> = BTreeMap::new();
    for (file, p) in &parent_runs {
        let Some(c) = change_runs.get(file) else { continue };
        let workload = file.split('.').next().unwrap_or_default();
        for (i, b) in bounds.iter().enumerate() {
            if let (Some(&pv), Some(&cv)) = (p.get(&b.name), c.get(&b.name)) {
                let [ps, cs] = table.entry((workload.to_string(), i)).or_default();
                ps.push(pv);
                cs.push(cv);
            }
        }
    }
    println!(
        "{:<14} {:<16} {:>5} {:>26} {:>26} {:>8}  verdict",
        "workload", "metric", "pairs", "parent median [q1, q3]", "change median [q1, q3]", "delta"
    );
    let side = |x: &[f64]| {
        let (q1, q3) = quartiles(x);
        format!("{:.4} [{:.4}, {:.4}]", median(x), q1, q3)
    };
    let mut regressed = false;
    for ((workload, i), [p, c]) in &table {
        let b = &bounds[*i];
        let v = verdict(p, c, b);
        regressed |= v == Verdict::Regressed;
        let delta = median(c) / median(p) - 1.0;
        println!(
            "{workload:<14} {:<16} {:>5} {:>26} {:>26} {:>+7.2}%  {v:?}",
            b.name,
            p.len(),
            side(p),
            side(c),
            delta * 100.0
        );
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound { name: "latency_ms_p50".into(), lower_is_better: true, bound }
    }

    #[test]
    fn same_runs_are_unchanged() {
        let p: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        assert_eq!(verdict(&p, &p, &lower(0.05)), Verdict::Unchanged);
    }

    #[test]
    fn consistent_clear_gain_is_improved() {
        let p: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let c: Vec<f64> = p.iter().map(|x| x - 10.0).collect();
        assert_eq!(verdict(&p, &c, &lower(0.05)), Verdict::Improved);
        // Nine pairs are too few to claim a gain.
        assert_eq!(verdict(&p[..9], &c[..9], &lower(0.05)), Verdict::Unchanged);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let b = Bound { name: "ops_per_s".into(), lower_is_better: false, bound: 0.05 };
        let p = vec![10.0; 10];
        let c = vec![8.0; 10];
        assert_eq!(verdict(&p, &c, &b), Verdict::Regressed);
        assert_eq!(verdict(&c, &p, &b), Verdict::Improved);
    }

    #[test]
    fn worse_beyond_the_bound_is_regressed() {
        let p: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let slightly: Vec<f64> = p.iter().map(|x| x * 1.03).collect();
        let much: Vec<f64> = p.iter().map(|x| x * 1.10).collect();
        assert_eq!(verdict(&p, &slightly, &lower(0.05)), Verdict::Unchanged);
        assert_eq!(verdict(&p, &much, &lower(0.05)), Verdict::Regressed);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let p = vec![80.0, 120.0, 90.0, 110.0, 100.0, 70.0, 130.0, 95.0, 105.0, 100.0];
        let c: Vec<f64> = p.iter().rev().copied().collect();
        assert_eq!(verdict(&p, &c, &lower(0.05)), Verdict::Unresolved);
        // ...unless every change run beats every parent run.
        let c: Vec<f64> = p.iter().map(|x| x - 100.0).collect();
        assert_ne!(verdict(&p, &c, &lower(0.05)), Verdict::Unresolved);
        // A median worse by more than the bound is a regression, however
        // wide the spread.
        let c: Vec<f64> = p.iter().map(|x| x * 1.3).collect();
        assert_eq!(verdict(&p, &c, &lower(0.05)), Verdict::Regressed);
    }
}
