//! A `--quick` smoke run of the real binary: every workload, untraced and
//! traced, must print exactly the metric names `BENCHMARK.json` lists — each
//! once — with a correct result.  (Quick runs are too short for their
//! numbers to mean anything; only names, units and correctness are checked.)

use std::path::{Path, PathBuf};
use std::process::Command;

use dcdb_benchmark::json::{self, Value};
use dcdb_benchmark::report::BenchSpec;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository")
        .to_path_buf()
}

fn quick_run(workload: &str, trace: bool, out_dir: &Path) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_dcdb-benchmark"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "11", "--quick"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir)
        .output()
        .expect("run dcdb-benchmark");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} trace={trace} failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

#[test]
fn quick_runs_print_every_listed_metric_exactly_once() {
    let spec = BenchSpec::load(&repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    for workload in &spec.workloads {
        for (trace, listed) in [(false, &spec.end_to_end), (true, &spec.per_layer)] {
            let result = quick_run(workload, trace, &out_dir);
            let keys: Vec<&str> =
                result.as_obj().expect("an object").iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{workload} trace={trace}");
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0);

            let printed = result.get("metrics").and_then(Value::as_obj).expect("metrics");
            let mut names: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(names.len(), before, "{workload} trace={trace}: a metric printed twice");
            let mut want: Vec<&str> = listed.iter().map(|m| m.name.as_str()).collect();
            want.sort_unstable();
            assert_eq!(
                names, want,
                "{workload} trace={trace}: printed names differ from BENCHMARK.json"
            );

            for m in listed.iter() {
                assert!(
                    !m.name.is_empty()
                        && m.name
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                    "bad metric name {:?}",
                    m.name
                );
                let got =
                    result.get("metrics").and_then(|ms| ms.get(&m.name)).expect("listed metric");
                assert_eq!(
                    got.get("unit").and_then(Value::as_str),
                    Some(m.unit.as_str()),
                    "{}",
                    m.name
                );
                let value = got.get("value").and_then(Value::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{workload}: {} = {value:?}", m.name);
            }
        }
        // the traced run leaves its spans behind
        let spans = std::fs::read_to_string(out_dir.join(format!("{workload}.trace.json")))
            .expect("span file");
        let spans = json::parse(&spans).expect("span file is JSON");
        assert!(spans.get("spans").and_then(Value::as_arr).is_some_and(|s| !s.is_empty()));
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn a_bare_directory_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_dcdb-benchmark"))
        .args(["--workload", "no_such_workload", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("run dcdb-benchmark");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
