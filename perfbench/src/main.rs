//! The repository benchmark: three workloads over the FTBAR scheduler and
//! its daemon, end-to-end metrics with tracing off (`--trace 0`) and
//! per-layer metrics from a separate traced run (`--trace 1`).
//!
//! ```text
//! bash perfbench/run.sh --workload <compile|serve-cold|serve-edit> \
//!     --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Metric names, units and directions come from `BENCHMARK.json` at the
//! repository root; a run that does not produce exactly the declared set
//! fails. The last line of standard output is the JSON result. See
//! `perfbench/README.md` for the workloads, the metric definitions and the
//! layer map.

mod compile;
mod daemon;
mod serve;
mod stats;
mod streams;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

use serde::Value;

/// Parsed command line.
pub struct Opts {
    /// Workload name, as declared in `BENCHMARK.json`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// Traced run: report per-layer metrics.
    pub trace: bool,
    /// Tiny inputs and a short window, to check the plumbing quickly.
    pub smoke: bool,
    /// The `ftbar-cli` binary the serve workloads spawn.
    pub daemon: Option<PathBuf>,
    /// Where sockets and span files go.
    pub out_dir: PathBuf,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Every output checked and every reply verified.
    pub correct: bool,
    /// Requests (or schedule calls) attempted in the measured window.
    pub attempted: u64,
    /// Attempts that did not produce a verified, successful answer.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// A metric declared in `BENCHMARK.json`.
struct Declared {
    name: String,
    unit: String,
    better: String,
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
        daemon: None,
        out_dir: PathBuf::from(".bench_out"),
    };
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value("--workload")?,
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                opts.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--smoke" => opts.smoke = true,
            "--daemon" => opts.daemon = Some(PathBuf::from(value("--daemon")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(opts)
}

/// The `end_to_end` or `per_layer` metrics and the workload names declared
/// in `BENCHMARK.json`.
fn declared(path: &str, trace: bool) -> Result<(Vec<Declared>, Vec<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let field = |item: &Value, key: &str| -> Result<String, String> {
        item.get(key)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or(format!("{path}: entry without `{key}`"))
    };
    let section = if trace { "per_layer" } else { "end_to_end" };
    let mut metrics = Vec::new();
    for item in v.get(section).and_then(Value::as_array).unwrap_or(&[]) {
        metrics.push(Declared {
            name: field(item, "name")?,
            unit: field(item, "unit")?,
            better: field(item, "better")?,
        });
    }
    let mut workloads = Vec::new();
    for item in v.get("workloads").and_then(Value::as_array).unwrap_or(&[]) {
        workloads.push(field(item, "name")?);
    }
    Ok((metrics, workloads))
}

fn run(opts: &Opts) -> Result<(Outcome, Vec<Declared>), String> {
    let (declared, workloads) = declared("BENCHMARK.json", opts.trace)?;
    if !workloads.contains(&opts.workload) {
        return Err(format!(
            "unknown workload `{}` (declared: {})",
            opts.workload,
            workloads.join(", ")
        ));
    }
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("creating {}: {e}", opts.out_dir.display()))?;
    let outcome = match opts.workload.as_str() {
        "compile" => compile::run(opts)?,
        "serve-cold" => serve::run(opts, serve::Mix::Cold)?,
        "serve-edit" => serve::run(opts, serve::Mix::Edit)?,
        other => return Err(format!("workload `{other}` has no implementation")),
    };
    // The declared set is the contract: every metric, nothing else.
    let produced: Vec<&String> = outcome.metrics.keys().collect();
    let mut expected: Vec<&String> = declared.iter().map(|d| &d.name).collect();
    expected.sort();
    if produced != expected {
        return Err(format!(
            "metric set differs from BENCHMARK.json: produced {produced:?}, declared {expected:?}"
        ));
    }
    if let Some((name, v)) = outcome.metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric {name} is not finite: {v}"));
    }
    Ok((outcome, declared))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (outcome, declared) = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            return ExitCode::from(1);
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    let mut metrics = Vec::new();
    for d in &declared {
        let v = outcome.metrics[&d.name];
        println!(
            "metric {:<40} {v:>14.6} {:<6} ({} is better)",
            d.name, d.unit, d.better
        );
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            serde_json::to_string(d.name.as_str()).expect("strings serialize"),
            json_number(v),
            serde_json::to_string(d.unit.as_str()).expect("strings serialize"),
        ));
    }
    if opts.smoke {
        println!(
            "smoke: all {} declared metrics printed with their units",
            declared.len()
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// `f` over `items` on two threads (the host's CPUs), results in item
/// order. Verification runs outside the measured window, so it may use
/// both.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return mine;
                        };
                        mine.push((i, f(item)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker thread panicked"))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// A finite `f64` as a JSON number with every digit `{}` gives it.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_keeps_item_order() {
        let items: Vec<u64> = (0..100).collect();
        assert_eq!(
            par_map(&items, |x| x * 2),
            (0..100).map(|x| x * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(1.25), "1.25");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
    }

    /// Smoke mode end to end on the in-process workload: every declared
    /// metric, in both modes, comes out with a finite value.
    #[test]
    fn compile_smoke_reports_every_declared_metric() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        std::env::set_current_dir(&root).unwrap();
        for trace in [false, true] {
            let opts = Opts {
                workload: "compile".into(),
                seed: 3,
                seconds: 0.05,
                trace,
                smoke: true,
                daemon: None,
                out_dir: root.join(".bench_out"),
            };
            let (outcome, declared) = run(&opts).unwrap();
            assert!(outcome.correct, "smoke outputs must verify");
            assert_eq!(outcome.failed, 0);
            for d in &declared {
                assert!(!d.unit.is_empty(), "{} has no unit", d.name);
                assert!(outcome.metrics[&d.name].is_finite());
            }
        }
    }
}
