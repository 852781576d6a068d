//! The repo benchmark: five workloads measured from outside the program.
//!
//! ```text
//! acm-benchmark run [--workload W] [--seed S] [--seconds N] [--traced] [--set NAME]
//! acm-benchmark run --workload W --seed S --seconds N --trace <0|1>
//! acm-benchmark compare A.json B.json
//! ```
//!
//! The first form runs every workload (or `W`) as its own child process of
//! this binary, so `peak_rss_mb` is per workload, prints every metric by
//! name with its unit and writes `benchmark/out/<set>.json`. The second is
//! one measuring run in this process — what `BENCHMARK.json` names as the
//! command; its last line of output is the result object. See README.md.

mod compare;
mod harness;
mod kernels;
mod metrics;
mod run;
mod workloads;

#[cfg(test)]
mod contract;

use acm::obs::json::{parse, JsonObject};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Default seed of a set of runs.
const DEFAULT_SEED: u64 = 11;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    traced: bool,
    set: String,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS as f64,
        trace: None,
        traced: false,
        set: "set".into(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if workloads::spec(&w).is_none() {
                    return Err(format!("unknown workload {w}"));
                }
                out.workload = Some(w);
            }
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                out.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                });
            }
            "--traced" => out.traced = true,
            "--set" => {
                out.set = value("a name")?;
                if !out
                    .set
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                {
                    return Err("--set takes letters, digits, _ . -".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.trace.is_some() && out.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    Ok(out)
}

/// `benchmark/out` of the checkout the command runs from.
fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

fn record_path(workload: &str, traced: bool) -> PathBuf {
    out_dir().join(format!("{workload}.trace{}.json", u8::from(traced)))
}

/// Outputs are a convenience for people and `compare`; the result line
/// does not depend on them, so a read-only checkout only warns.
fn write_out(path: &std::path::Path, text: &str) {
    let done = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(path, text));
    if let Err(e) = done {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// One measuring run in this process.
fn run_one(workload: &str, seed: u64, seconds: f64, traced: bool) -> ExitCode {
    let spec = workloads::spec(workload).expect("validated by parse_run");
    let record = if traced {
        run::run_traced(spec, seed, seconds)
    } else {
        run::run_untraced(spec, seed, seconds)
    };
    record.print_table();
    write_out(&record_path(workload, traced), &record.to_json());
    if let Some(spans) = &record.spans_jsonl {
        write_out(&out_dir().join(format!("{workload}.spans.jsonl")), spans);
    }
    println!("{}", record.result_line());
    ExitCode::SUCCESS
}

/// Every selected workload as a child process of this binary; the
/// children's records are gathered into `out/<set>.json`.
fn run_set(args: &RunArgs) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut set = JsonObject::new();
    set.field_str("set", &args.set);
    let mut workloads_json = JsonObject::new();
    let mut ok = true;
    for spec in workloads::SPECS
        .iter()
        .filter(|s| args.workload.as_deref().is_none_or(|w| w == s.name))
    {
        let mut entry = JsonObject::new();
        for traced in [false, true] {
            if traced && !args.traced {
                continue;
            }
            // `status` waits for the child to end.
            let status = Command::new(&exe)
                .args(["run", "--workload", spec.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .status();
            let key = if traced { "traced" } else { "untraced" };
            match status {
                Ok(s) if s.success() => {
                    match std::fs::read_to_string(record_path(spec.name, traced)) {
                        Ok(text) => {
                            ok &= parse(&text)
                                .ok()
                                .and_then(|rec| rec.get("correct")?.as_bool())
                                .unwrap_or(false);
                            entry.field_raw(key, text.trim());
                        }
                        Err(e) => {
                            eprintln!("{}: no record: {e}", spec.name);
                            ok = false;
                        }
                    }
                }
                other => {
                    eprintln!("{}: child failed: {other:?}", spec.name);
                    ok = false;
                }
            }
        }
        workloads_json.field_raw(spec.name, &entry.finish());
    }
    set.field_raw("workloads", &workloads_json.finish());
    let path = out_dir().join(format!("{}.json", args.set));
    write_out(&path, &set.finish());
    println!("wrote {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let run_args = match parse_run(&args[1..]) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            // Core honesty: numbers from a debug build or an
            // oversubscribed pool are not measurements.
            if cfg!(debug_assertions) {
                eprintln!("error: built without --release; refusing to measure");
                return ExitCode::from(2);
            }
            let (width, nproc) = (run::exec_width(), acm::exec::available_threads());
            if width > nproc {
                eprintln!("error: exec width {width} exceeds the {nproc} cores present");
                return ExitCode::from(2);
            }
            match (&run_args.workload, run_args.trace) {
                (Some(w), Some(traced)) => run_one(w, run_args.seed, run_args.seconds, traced),
                _ => run_set(&run_args),
            }
        }
        Some("compare") if args.len() == 3 => compare::main(&args[1], &args[2]),
        _ => {
            eprintln!(
                "usage: acm-benchmark run [--workload W] [--seed S] [--seconds N] [--traced] [--set NAME]\n       \
                 acm-benchmark run --workload W --seed S --seconds N --trace <0|1>\n       \
                 acm-benchmark compare A.json B.json"
            );
            ExitCode::from(2)
        }
    }
}
