//! The command line.
//!
//! ```text
//! dcdb-benchmark --workload W --seed N --seconds S --trace 0|1   one run
//! dcdb-benchmark all   --seed N [--runs K] [--out FILE]           every workload, one set
//! dcdb-benchmark diff  BASE.json NEW.json                         apply the bounds
//! dcdb-benchmark agree --seed N [--runs K]                        two sets, must agree
//! ```
//!
//! `BENCHMARK.json` is read from the current directory: run from the
//! repository root.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::json::{self, Value};
use crate::proc;
use crate::report::{self, BenchSpec};
use crate::run::{self, Options};
use crate::workload;

const SPEC_FILE: &str = "BENCHMARK.json";
const DEFAULT_OUT_DIR: &str = "benchmark/out";
/// `--quick`: a smoke run that only shows every metric gets printed.
const QUICK_SECONDS: f64 = 3.0;

/// Exit codes: a wrong answer or lost reading, bad usage.
const EXIT_INCORRECT: u8 = 1;
const EXIT_USAGE: u8 = 64;
/// Runs per workload a set may discard because their generator ran late
/// before the host counts as too disturbed to measure on.
const MAX_DISCARDED: usize = 2;

struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut flags = BTreeMap::new();
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        match a.strip_prefix("--") {
            Some("quick") => {
                flags.insert("quick".to_string(), "1".to_string());
            }
            Some(name) => {
                let value = args.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.insert(name.to_string(), value);
            }
            None => positional.push(a),
        }
    }
    Ok(Args { positional, flags })
}

impl Args {
    fn number(&self, name: &str) -> Result<Option<f64>, String> {
        match self.flags.get(name) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| format!("--{name} {v:?} is not a number")),
        }
    }

    fn seed(&self) -> Result<u64, String> {
        Ok(self.number("seed")?.unwrap_or(1.0) as u64)
    }

    fn workload(&self) -> Result<&str, String> {
        self.flags.get("workload").map(String::as_str).ok_or_else(|| "--workload is missing".into())
    }

    fn seconds(&self, spec: Option<&BenchSpec>) -> Result<f64, String> {
        if self.flags.contains_key("quick") {
            return Ok(QUICK_SECONDS);
        }
        match (self.number("seconds")?, spec) {
            (Some(s), _) if s > 0.0 => Ok(s),
            (Some(_), _) => Err("--seconds must be positive".into()),
            (None, Some(spec)) => Ok(spec.run_seconds),
            (None, None) => Err("--seconds is missing".into()),
        }
    }

    fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.flags.get("out-dir").map_or(DEFAULT_OUT_DIR, String::as_str))
    }
}

pub fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let result = match args.positional.first().map(String::as_str) {
        None => cmd_run(&args),
        Some("setup") => cmd_setup(&args),
        Some("all") => cmd_all(&args).map(|_| ExitCode::SUCCESS),
        Some("diff") => cmd_diff(&args),
        Some("agree") => cmd_agree(&args),
        Some(other) => return usage(&format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("dcdb-benchmark: {e}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("dcdb-benchmark: {problem}");
    eprintln!(
        "usage: dcdb-benchmark --workload W --seed N --seconds S --trace 0|1 [--out-dir DIR]"
    );
    eprintln!("       dcdb-benchmark all --seed N [--runs K] [--seconds S | --quick] [--out FILE]");
    eprintln!("       dcdb-benchmark diff BASE.json NEW.json");
    eprintln!("       dcdb-benchmark agree --seed N [--runs K] [--seconds S | --quick]");
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("workloads: {}", names.join(", "));
    ExitCode::from(EXIT_USAGE)
}

fn other(e: String) -> io::Error {
    io::Error::other(e)
}

/// One run of one workload: table on standard error, result file under the
/// out directory, and the one-line result last on standard output.
fn cmd_run(args: &Args) -> io::Result<ExitCode> {
    let workload = args.workload().map_err(other)?;
    let opts = Options {
        workload: workload.to_string(),
        seed: args.seed().map_err(other)?,
        seconds: args.seconds(None).map_err(other)?,
        trace: match args.flags.get("trace").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(other(format!("--trace {v:?} is not 0 or 1"))),
        },
        out_dir: args.out_dir(),
    };
    let outcome = run::run(&opts)?;
    eprint!("{}", report::table(workload, &outcome));
    std::fs::create_dir_all(&opts.out_dir)?;
    let kind = if opts.trace { "layers" } else { "result" };
    std::fs::write(opts.out_dir.join(format!("{workload}.{kind}.json")), outcome.detail.pretty())?;
    if !outcome.valid {
        eprintln!(
            "dcdb-benchmark: INVALID: the generator started more than 1 % of the paced phase's \
             ticks over half a period late; these numbers measure the host, not dcdb.  The \
             result file says so, and `all` and `agree` discard the run"
        );
    }
    println!("{}", report::contract_line(&outcome));
    Ok(if outcome.correct { ExitCode::SUCCESS } else { ExitCode::from(EXIT_INCORRECT) })
}

/// What a run starts for its extra set-ups (see `run::setup`): one set-up in
/// this process, the seconds it took on standard output.
fn cmd_setup(args: &Args) -> io::Result<ExitCode> {
    let (workload, seed) = (args.workload().map_err(other)?, args.seed().map_err(other)?);
    println!("{}", run::setup_only(workload, seed)?);
    Ok(ExitCode::SUCCESS)
}

/// Run one workload in a child process, so that its peak memory and CPU
/// time are its own; returns the result file it wrote.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> io::Result<Value> {
    let status = Command::new(std::env::current_exe()?)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir)
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(other(format!("{workload} (trace {}) exited with {status}", trace as u8)));
    }
    let kind = if trace { "layers" } else { "result" };
    let text = std::fs::read_to_string(out_dir.join(format!("{workload}.{kind}.json")))?;
    json::parse(&text).map_err(other)
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn count_lines(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                count_lines(&path)
            } else if path.extension().is_some_and(|x| x == "rs") {
                std::fs::read_to_string(&path).map_or(0, |s| s.lines().count() as u64)
            } else {
                0
            }
        })
        .sum()
}

/// Lines of Rust under `crates/<name>/src`, per crate.
fn loc_per_crate() -> Value {
    let mut crates: Vec<(String, Value)> = std::fs::read_dir("crates")
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().is_dir())
        .map(|e| {
            let lines = count_lines(&e.path().join("src"));
            (e.file_name().to_string_lossy().into_owned(), Value::Num(lines as f64))
        })
        .collect();
    crates.sort_by(|a, b| a.0.cmp(&b.0));
    Value::Obj(crates)
}

fn field(doc: &Value, path: &[&str]) -> Value {
    path.iter().try_fold(doc, |v, k| v.get(k)).cloned().unwrap_or(Value::Null)
}

/// Every workload, `runs` untraced runs and one traced run each, as one set.
fn collect_set(
    spec: &BenchSpec,
    seed: u64,
    seconds: f64,
    runs: usize,
    out_dir: &Path,
) -> io::Result<Value> {
    let mut workloads = Vec::new();
    for name in &spec.workloads {
        let mut results = Vec::new();
        let mut discarded = 0;
        while results.len() < runs {
            eprintln!("-- {name}: untraced run {} of {runs}", results.len() + 1);
            let result = child_run(name, seed, seconds, false, out_dir)?;
            if field(&result, &["valid"]) != Value::Bool(false) {
                results.push(result);
            } else if discarded < MAX_DISCARDED {
                eprintln!("-- {name}: invalid (late generator), discarded");
                discarded += 1;
            } else {
                return Err(other(format!(
                    "{name}: the generator ran late in {} runs",
                    discarded + 1
                )));
            }
        }
        eprintln!("-- {name}: traced run");
        let layers = child_run(name, seed, seconds, true, out_dir)?;
        let last = results.last().ok_or_else(|| other("--runs must be at least 1".into()))?;

        let end_to_end = spec.end_to_end.iter().map(|m| {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| field(r, &["metrics", &m.name, "value"]).as_f64())
                .collect();
            let (median, spread) = report::summarize(&values);
            let entry = Value::obj([
                ("value", Value::Num(median)),
                ("unit", Value::str(&m.unit)),
                ("better", Value::str(&m.better)),
                ("bound", m.bound.map_or(Value::Null, Value::Num)),
                ("samples", field(last, &["metrics", &m.name, "samples"])),
                ("spread", spread.map_or(Value::Null, Value::Num)),
                ("runs", Value::Arr(values.into_iter().map(Value::Num).collect())),
            ]);
            (m.name.clone(), entry)
        });
        let per_layer = spec.per_layer.iter().map(|m| {
            let entry = Value::obj([
                ("value", field(&layers, &["metrics", &m.name, "value"])),
                ("unit", Value::str(&m.unit)),
                ("better", Value::str(&m.better)),
                ("samples", field(&layers, &["metrics", &m.name, "samples"])),
            ]);
            (m.name.clone(), entry)
        });
        let sum = |key: &str| -> f64 {
            results.iter().chain([&layers]).filter_map(|r| field(r, &[key]).as_f64()).sum()
        };
        workloads.push((
            name.clone(),
            Value::obj([
                ("config", field(last, &["config"])),
                ("attempted", Value::Num(sum("attempted"))),
                ("failed", Value::Num(sum("failed"))),
                ("invalid_runs_discarded", Value::Num(discarded as f64)),
                ("ops_last_run", field(last, &["ops"])),
                ("generator_last_run", field(last, &["generator"])),
                ("end_to_end", Value::Obj(end_to_end.collect())),
                ("per_layer", Value::Obj(per_layer.collect())),
            ]),
        ));
    }
    Ok(Value::obj([
        ("schema", Value::str("dcdb-benchmark-set/1")),
        ("git_rev", Value::str(git_rev())),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("runs_per_workload", Value::Num(runs as f64)),
        (
            "host",
            Value::obj([
                ("available_parallelism", Value::Num(proc::available_parallelism() as f64)),
                ("host_cpus", Value::Num(proc::host_cpus() as f64)),
            ]),
        ),
        ("loc_per_crate", loc_per_crate()),
        ("workloads", Value::Obj(workloads)),
    ]))
}

fn set_args(args: &Args) -> io::Result<(BenchSpec, u64, f64, usize)> {
    let spec = BenchSpec::load(Path::new(SPEC_FILE))?;
    let seed = args.seed().map_err(other)?;
    let seconds = args.seconds(Some(&spec)).map_err(other)?;
    let runs = args.number("runs").map_err(other)?.unwrap_or(1.0).max(1.0) as usize;
    Ok((spec, seed, seconds, runs))
}

fn print_set(set: &Value) {
    for (name, w) in field(set, &["workloads"]).as_obj().unwrap_or(&[]) {
        println!(
            "== {name} ==  attempted {} failed {}",
            field(w, &["attempted"]).compact(),
            field(w, &["failed"]).compact()
        );
        for group in ["end_to_end", "per_layer"] {
            for (metric, m) in field(w, &[group]).as_obj().unwrap_or(&[]) {
                let value = field(m, &["value"]).as_f64().unwrap_or(f64::NAN);
                let unit = field(m, &["unit"]);
                let samples = field(m, &["samples"])
                    .as_f64()
                    .map_or(String::new(), |n| format!("  (n = {n})"));
                let spread = field(m, &["spread"])
                    .as_f64()
                    .map_or(String::new(), |s| format!("  spread {:.1} %", s * 100.0));
                println!(
                    "  {metric:<46} {value:>16.4} {}{samples}{spread}",
                    unit.as_str().unwrap_or("")
                );
            }
        }
    }
}

fn cmd_all(args: &Args) -> io::Result<Value> {
    let (spec, seed, seconds, runs) = set_args(args)?;
    let set = collect_set(&spec, seed, seconds, runs, &args.out_dir())?;
    let default_out = args.out_dir().join("set.json");
    let out = args.flags.get("out").map_or(default_out, PathBuf::from);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&out, set.pretty())?;
    print_set(&set);
    eprintln!("set written to {}", out.display());
    Ok(set)
}

fn cmd_diff(args: &Args) -> io::Result<ExitCode> {
    let [_, base, new] = args.positional.as_slice() else {
        return Err(other("diff needs two set files".into()));
    };
    let spec = BenchSpec::load(Path::new(SPEC_FILE))?;
    let load = |p: &String| -> io::Result<Value> {
        json::parse(&std::fs::read_to_string(p)?).map_err(|e| other(format!("{p}: {e}")))
    };
    let rows = report::diff(&spec, &load(base)?, &load(new)?);
    print!("{}", report::diff_table(&rows));
    Ok(if report::passes(&rows) { ExitCode::SUCCESS } else { ExitCode::from(EXIT_INCORRECT) })
}

/// Two sets of the same code must agree within the bounds, each taken as
/// the baseline of the other.
fn cmd_agree(args: &Args) -> io::Result<ExitCode> {
    let (spec, seed, seconds, runs) = set_args(args)?;
    let dir = args.out_dir();
    let mut sets = Vec::new();
    for label in ["a", "b"] {
        eprintln!("==== set {label} ====");
        let set = collect_set(&spec, seed, seconds, runs, &dir)?;
        std::fs::write(dir.join(format!("agree-{label}.json")), set.pretty())?;
        sets.push(set);
    }
    let forward = report::diff(&spec, &sets[0], &sets[1]);
    let backward = report::diff(&spec, &sets[1], &sets[0]);
    println!("b against a:\n{}", report::diff_table(&forward));
    println!("a against b:\n{}", report::diff_table(&backward));
    let agree = report::passes(&forward) && report::passes(&backward);
    println!("{}", if agree { "the two sets agree" } else { "the two sets DISAGREE" });
    Ok(if agree { ExitCode::SUCCESS } else { ExitCode::from(EXIT_INCORRECT) })
}
