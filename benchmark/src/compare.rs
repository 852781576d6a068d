//! `compare A.json B.json`: holds two sets of runs (or two single
//! records) against the catalogue's bounds. Per (metric, workload) it
//! prints better / worse / within-bound / unresolved, holds digests and
//! exact counts to equality, and exits non-zero on any `worse`, any
//! mismatch and any incorrect run.

use crate::harness::{iqr_pct, median};
use crate::metrics::{Better, END_TO_END, EXACT_COUNTS, PER_LAYER};
use acm::obs::json::{parse, JsonValue};
use std::process::ExitCode;

/// `(workload, traced, record)` rows of a set file or a single record.
fn records(doc: &JsonValue) -> Vec<(String, bool, &JsonValue)> {
    let mut out = Vec::new();
    if let Some(JsonValue::Obj(workloads)) = doc.get("workloads") {
        for (name, entry) in workloads {
            for (key, traced) in [("untraced", false), ("traced", true)] {
                if let Some(rec) = entry.get(key) {
                    out.push((name.clone(), traced, rec));
                }
            }
        }
    } else if let Some(name) = doc.get("workload").and_then(JsonValue::as_str) {
        let traced = doc
            .get("traced")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false);
        out.push((name.to_string(), traced, doc));
    }
    out
}

fn metric(rec: &JsonValue, name: &str) -> Option<f64> {
    rec.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn floats(rec: &JsonValue, key: &str) -> Vec<f64> {
    rec.get(key)
        .and_then(JsonValue::as_array)
        .map(|xs| xs.iter().filter_map(JsonValue::as_f64).collect())
        .unwrap_or_default()
}

/// Run-to-run spread of a metric as a share of its value, from the
/// evidence a record carries: the block rates for the time metrics, the
/// repeated set-ups for `setup_s`. Memory has none.
fn noise(rec: &JsonValue, name: &str) -> f64 {
    match name {
        "setup_s" => {
            let s = floats(rec, "setups_s");
            if s.len() < 2 {
                return 0.0;
            }
            let (lo, hi) = s
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            (hi - lo) / median(&mut s.clone())
        }
        "peak_rss_mb" => 0.0,
        _ => {
            let n = iqr_pct(&floats(rec, "block_rates")) / 100.0;
            if n.is_finite() {
                n
            } else {
                0.0
            }
        }
    }
}

/// Signed relative change of `b` against `a`, positive = worse.
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn verdict(a: f64, b: f64, better: Better, bound: f64, noise: f64) -> &'static str {
    let w = worsening(a, b, better);
    if w > bound {
        "worse"
    } else if w < -bound {
        "better"
    } else if noise > bound {
        "unresolved"
    } else {
        "within-bound"
    }
}

pub fn main(path_a: &str, path_b: &str) -> ExitCode {
    let load = |p: &str| -> Result<JsonValue, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (ra, rb) = (records(&a), records(&b));
    let mut bad = 0usize;
    let mut pairs = 0usize;
    for (name, traced, rec_a) in &ra {
        let Some((_, _, rec_b)) = rb.iter().find(|(n, t, _)| n == name && t == traced) else {
            continue;
        };
        pairs += 1;
        let kind = if *traced { "traced" } else { "untraced" };
        println!("== {name} ({kind})");
        for (side, rec) in [("A", rec_a), ("B", rec_b)] {
            if rec.get("correct").and_then(JsonValue::as_bool) != Some(true) {
                println!("  {side} is not a correct run");
                bad += 1;
            }
        }
        let seed = |r: &JsonValue| r.get("stamp").and_then(|s| s.get("seed")?.as_u64());
        let digest = |r: &JsonValue| {
            Some((
                r.get("digest_ops")?.as_u64()?,
                r.get("digest")?.as_str()?.to_string(),
            ))
        };
        if seed(rec_a) == seed(rec_b) {
            match (digest(rec_a), digest(rec_b)) {
                (Some((na, _)), Some((nb, _))) if na != nb => {
                    println!("  digest: not comparable (prefix lengths differ)");
                }
                (Some(x), Some(y)) if x == y => println!("  digest: identical"),
                _ => {
                    println!("  digest: DIFFERENT — outputs changed");
                    bad += 1;
                }
            }
            for key in EXACT_COUNTS {
                let count = |r: &JsonValue| r.get("counts").and_then(|c| c.get(key)?.as_u64());
                if let (Some(x), Some(y)) = (count(rec_a), count(rec_b)) {
                    if x != y {
                        println!("  count {key}: {x} vs {y} — DIFFERENT");
                        bad += 1;
                    }
                }
            }
        } else {
            println!("  seeds differ: digests and counts not compared");
        }
        let defs: &[_] = if *traced { &PER_LAYER } else { &END_TO_END };
        for def in defs {
            let (Some(x), Some(y)) = (metric(rec_a, def.name), metric(rec_b, def.name)) else {
                println!("  {:<40} not measurable here", def.name);
                continue;
            };
            let change = if x == 0.0 { 0.0 } else { (y - x) / x * 100.0 };
            match def.bound {
                Some(bound) => {
                    let n = noise(rec_a, def.name).max(noise(rec_b, def.name));
                    let v = verdict(x, y, def.better, bound, n);
                    println!(
                        "  {:<40} {x:>14.4} -> {y:>14.4} {:<5} {change:>+7.2}%  {v} (bound {:.0}%, spread {:.1}%)",
                        def.name,
                        def.unit,
                        bound * 100.0,
                        n * 100.0
                    );
                    if v == "worse" {
                        bad += 1;
                    }
                }
                None => println!(
                    "  {:<40} {x:>14.4} -> {y:>14.4} {:<5} {change:>+7.2}%",
                    def.name, def.unit
                ),
            }
        }
    }
    if pairs == 0 {
        eprintln!("error: the two files share no (workload, traced) record");
        return ExitCode::from(2);
    }
    if bad == 0 {
        println!("agree: no metric worse than its bound, digests and counts identical");
        ExitCode::SUCCESS
    } else {
        println!("{bad} finding(s): worse metrics, changed outputs or incorrect runs");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_noise() {
        assert_eq!(verdict(100.0, 112.0, Better::Lower, 0.10, 0.0), "worse");
        assert_eq!(verdict(100.0, 88.0, Better::Lower, 0.10, 0.0), "better");
        assert_eq!(verdict(100.0, 88.0, Better::Higher, 0.10, 0.0), "worse");
        assert_eq!(
            verdict(100.0, 105.0, Better::Higher, 0.10, 0.02),
            "within-bound"
        );
        assert_eq!(
            verdict(100.0, 105.0, Better::Higher, 0.10, 0.2),
            "unresolved"
        );
    }
}
