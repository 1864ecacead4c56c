//! `cloudscope-e2e`: the repository's end-to-end benchmark.
//!
//! ```text
//! cloudscope-e2e run --workload <name> [--seed N] [--seconds S] [--trace 0|1 | --traced] [--smoke]
//! cloudscope-e2e all [--seed N] [--seconds S] [--runs N] [--smoke] [--out <file.json>]
//! cloudscope-e2e compare <a.json> <b.json>
//! cloudscope-e2e manifest
//! ```
//!
//! `run` executes one workload in this process and prints, as its last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `all` runs every workload, untraced then traced, one
//! child process per run, prints every metric by name with its unit and
//! exits non-zero if any output check failed. `compare` applies the
//! bounds of `BENCHMARK.json` to two result files written by `all`.
//! `manifest` prints `BENCHMARK.json`.

mod alloc;
mod compare;
mod host;
mod json;
mod metrics;
mod pipeline;
mod run;
mod trace;
mod workloads;

use json::Json;
use run::Plan;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage:
  cloudscope-e2e run --workload <name> [--seed N] [--seconds S] [--trace 0|1 | --traced] [--smoke]
  cloudscope-e2e all [--seed N] [--seconds S] [--runs N] [--smoke] [--out <file.json>]
  cloudscope-e2e compare <a.json> <b.json>
  cloudscope-e2e manifest
workloads: batch_resident, ooc_fits, ooc_spill, stream_ingest";

/// Options shared by `run` and `all`.
#[derive(Debug, Default)]
struct Options {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    runs: usize,
    out: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        runs: 1,
        ..Options::default()
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let bad = |what: &str, v: &str| format!("{flag}: {v:?} is not {what}");
        match flag.as_str() {
            "--workload" => opts.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                opts.seed = Some(v.parse().map_err(|_| bad("an unsigned integer", &v))?);
            }
            "--seconds" => {
                let v = value()?;
                let seconds: f64 = v.parse().map_err(|_| bad("a number", &v))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(bad("a non-negative number", &v));
                }
                opts.seconds = Some(seconds);
            }
            "--trace" => {
                opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad("0 or 1", v)),
                }
            }
            "--traced" => opts.traced = true,
            "--smoke" => opts.smoke = true,
            "--runs" => {
                let v = value()?;
                opts.runs = v.parse().map_err(|_| bad("a count", &v))?;
            }
            "--out" => opts.out = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

impl Options {
    fn seconds(&self) -> f64 {
        // A smoke run wants every span once, not a steady measurement.
        let default = if self.smoke {
            0.0
        } else {
            metrics::RUN_SECONDS as f64
        };
        self.seconds.unwrap_or(default)
    }
}

fn cmd_run(opts: &Options) -> Result<bool, String> {
    let plan = Plan {
        workload: opts.workload.clone().ok_or("run needs --workload <name>")?,
        seed: opts.seed,
        seconds: opts.seconds(),
        traced: opts.traced,
        smoke: opts.smoke,
    };
    let report = run::run(&plan)?;
    report.print_table();
    let dir = run::out_dir();
    let suffix = if plan.traced { "-traced" } else { "" };
    let path = dir.join(format!("result-{}{suffix}.json", plan.workload));
    std::fs::write(&path, report.to_json().pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("{}", report.result_line());
    Ok(report.correct)
}

/// Runs every workload `--runs` times untraced and once traced, each in
/// a child process of its own, and gathers the result files into one.
fn cmd_all(opts: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut all_correct = true;
    let mut records = Vec::new();
    for workload in &workloads::WORKLOADS {
        for (traced, repeats) in [(false, opts.runs.max(1)), (true, 1)] {
            for _ in 0..repeats {
                let mut child = std::process::Command::new(&exe);
                child
                    .args(["run", "--workload", workload.name])
                    .args(["--seconds", &opts.seconds().to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }]);
                if let Some(seed) = opts.seed {
                    child.args(["--seed", &seed.to_string()]);
                }
                if opts.smoke {
                    child.arg("--smoke");
                }
                // The child's table goes straight to this terminal; its
                // record comes back through the result file. A stale
                // record must not stand in for a child that died
                // before writing its own.
                let suffix = if traced { "-traced" } else { "" };
                let path = run::out_dir().join(format!("result-{}{suffix}.json", workload.name));
                let _ = std::fs::remove_file(&path);
                let status = child
                    .status()
                    .map_err(|e| format!("starting {}: {e}", exe.display()))?;
                all_correct &= status.success();
                if path.exists() {
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("reading {}: {e}", path.display()))?;
                    records.push(json::parse(&text)?);
                }
            }
        }
    }
    let out = opts
        .out
        .clone()
        .map_or_else(|| run::out_dir().join("all.json"), std::path::PathBuf::from);
    let doc = Json::Obj(vec![("runs".into(), Json::Arr(records))]);
    std::fs::write(&out, doc.pretty()).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("# wrote {}", out.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_options(rest).and_then(|o| cmd_run(&o)),
        Some((cmd, rest)) if cmd == "all" => parse_options(rest).and_then(|o| cmd_all(&o)),
        Some((cmd, [a, b])) if cmd == "compare" => compare::compare(a, b),
        Some((cmd, [])) if cmd == "manifest" => {
            print!("{}", metrics::manifest().pretty());
            Ok(true)
        }
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
