//! `servebench` — the closed-loop serving benchmark of `xtree-server`.
//!
//! Runs the real daemon (or a 2-shard router) in-process and drives it
//! over TCP through the public `Client`:
//!
//! ```text
//! servebench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! servebench --smoke
//! ```
//!
//! Without `--workload` every workload runs in turn, each in a child
//! process. `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer ledger of a traced replay. The last line of a workload's
//! standard output is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`; the line before it is the raw record (`host_cores`, every
//! set-up time, the values behind the metrics), which is also appended to
//! `out/raw.jsonl`. A wrong answer exits 1, a run that could not finish
//! exits 2 without a result.
//! `--smoke` runs every workload at a tiny size, both ways, and checks
//! the metric names against `BENCHMARK.json`.

mod bench;
mod check;
mod deploy;
mod plan;
mod sys;
mod trace;

use bench::{Outcome, Size};
use plan::{Plan, Workload};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use xtree_json::Value;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1991;
/// Timed-window length used when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 25.0;

struct Args {
    /// `None` runs every workload, each in a child process of its own.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => {
                let w =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                args.workload = Some(w);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad(()))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad(()))?;
                if !(args.seconds >= 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds must be in 0..=600, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(args)
}

/// Where runs leave their raw records and span logs.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The contract's result line.
fn result_line(o: &Outcome) -> Value {
    let mut metrics = Value::object();
    for &(name, unit, value) in &o.metrics {
        metrics.set(
            name,
            Value::object()
                .with("value", Value::Float(value))
                .with("unit", unit),
        );
    }
    Value::object()
        .with("correct", o.correct)
        .with("attempted", o.attempted)
        .with("failed", o.failed)
        .with("metrics", metrics)
}

/// Everything needed to recompute the metrics' spread later.
/// `host_cores` is what the process could use before it pinned itself to
/// `pinned_core` (-1: not pinned).
fn raw_record(w: Workload, args: &Args, host: (usize, Option<usize>), o: &Outcome) -> Value {
    let (host_cores, pinned) = host;
    let mut raw = Value::object()
        .with("workload", w.name())
        .with("seed", args.seed)
        .with("trace", u8::from(args.trace))
        .with("seconds", Value::Float(args.seconds))
        .with("host_cores", host_cores)
        .with("pinned_core", pinned.map_or(-1, |c| c as i64));
    for &(name, _, value) in &o.metrics {
        raw.set(name, Value::Float(value));
    }
    for &(name, value) in &o.notes {
        raw.set(name, Value::Float(value));
    }
    for (name, values) in &o.series {
        raw.set(
            name,
            Value::Array(values.iter().map(|&v| Value::Float(v)).collect()),
        );
    }
    Value::object().with("raw", raw)
}

fn run_one(plan: &Plan, trace: bool, seconds: f64, size: &Size) -> Result<Outcome, String> {
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    if trace {
        let spans = out.join(format!("spans-{}.jsonl", plan.workload.name()));
        trace::run(plan, size, &spans)
    } else {
        bench::run(plan, size, seconds)
    }
}

fn append_raw(line: &str) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_dir().join("raw.jsonl"))?;
    writeln!(f, "{line}")
}

/// A metric name as the benchmark contract allows it.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `(name, unit)` list of one metric section of `BENCHMARK.json`.
fn declared(doc: &Value, section: &str) -> Result<Vec<(String, String)>, String> {
    doc.get(section)
        .as_array()
        .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?
        .iter()
        .map(|m| match (m.get("name").as_str(), m.get("unit").as_str()) {
            (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
            _ => Err(format!("{section} entry without name or unit")),
        })
        .collect()
}

/// Every workload at a tiny size, untraced and traced; fails on a wrong
/// answer, a failed request, or a metric missing from the output,
/// undeclared, or badly named.
fn smoke() -> Result<(), String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = xtree_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(&doc, section)?;
        for w in Workload::ALL {
            let o = run_one(&Plan::new(w, DEFAULT_SEED), trace, 0.0, &Size::smoke())?;
            let line = xtree_json::to_string(&result_line(&o));
            let back = xtree_json::from_str(&line).map_err(|e| format!("result line: {e:?}"))?;
            let metrics = back.get("metrics");
            let Value::Object(got) = metrics else {
                return Err(format!("{}: metrics is not an object", w.name()));
            };
            if !o.correct || o.failed > 0 {
                return Err(format!("{} ({section}): {:?}", w.name(), o.problem));
            }
            let names: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
            for (name, unit) in &want {
                if !valid_name(name) {
                    return Err(format!("metric name {name:?} breaks the name rule"));
                }
                if metrics.get(name).get("unit").as_str() != Some(unit.as_str()) {
                    return Err(format!(
                        "{}: {section} metric {name} ({unit}) missing",
                        w.name()
                    ));
                }
            }
            if names.len() != want.len() {
                return Err(format!(
                    "{}: emitted {names:?}, declared {want:?}",
                    w.name()
                ));
            }
            println!("smoke {} {section}: {} metrics ok", w.name(), names.len());
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return match smoke() {
            Ok(()) => {
                println!("smoke passed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("servebench smoke: {e}");
                ExitCode::from(1)
            }
        };
    }
    match args.workload {
        Some(w) => run_in_process(w, &args),
        None => run_each(&args),
    }
}

/// Runs one workload in this process, pinned to one core, and prints its
/// raw record and result line.
fn run_in_process(w: Workload, args: &Args) -> ExitCode {
    let host_cores = sys::host_cores();
    // Before any thread starts, so the whole deployment inherits it.
    let pinned = sys::pin_to_one_core();
    let plan = Plan::new(w, args.seed);
    let o = match run_one(&plan, args.trace, args.seconds, &Size::full(w)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("servebench {}: {e}", w.name());
            return ExitCode::from(2);
        }
    };
    let raw = xtree_json::to_string(&raw_record(w, args, (host_cores, pinned), &o));
    if let Err(e) = append_raw(&raw) {
        eprintln!("servebench: raw record not saved: {e}");
    }
    println!("{raw}");
    println!("{}", xtree_json::to_string(&result_line(&o)));
    match &o.problem {
        Some(p) => {
            eprintln!("servebench {}: wrong answer: {p}", w.name());
            ExitCode::from(1)
        }
        None => ExitCode::SUCCESS,
    }
}

/// Runs every workload in turn, each in a child process of this binary
/// so that one workload's memory peak does not carry into the next
/// one's `peak_rss_mib`. Exits with the worst child's code.
fn run_each(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("servebench: cannot locate this binary: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = 0u8;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        let code = match status {
            Ok(s) => s.code().map_or(2, |c| u8::try_from(c).unwrap_or(2)),
            Err(e) => {
                eprintln!("servebench {}: {e}", w.name());
                2
            }
        };
        worst = worst.max(code);
    }
    ExitCode::from(worst)
}
