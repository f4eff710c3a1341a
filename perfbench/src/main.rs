//! # perfbench — the served system's benchmark
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Stands up the workload's served system (`pc-serve` over real sockets;
//! the `pc_serve::router` front-end over in-process shards for
//! `cluster_scatter`), drives it from seeded inputs, checks every answer,
//! and prints each metric by name and unit. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of the separate traced run with `--trace 1`. A wrong answer
//! exits nonzero. `perfbench/spec.json` records the workload and metric
//! definitions.
//!
//! Scratch data lives under `.perfbench-data/` in the working directory
//! and is removed before exit.

mod check;
mod conn;
mod load;
mod quantile;
mod spec;
mod timed;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use pc_bench::Json;

use crate::workloads::Workload;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload static_hot|static_cold|mixed_durable|cluster_scatter \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let v = val()?;
                workload =
                    Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}\n{USAGE}"))?);
            }
            "--seed" => {
                seed = Some(
                    val()?
                        .parse::<u64>()
                        .map_err(|e| format!("bad --seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = val()?
                    .parse::<f64>()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} out of [1, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?} (want 0 or 1)")),
                })
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        }),
        _ => Err(format!("missing a flag\n{USAGE}")),
    }
}

/// Threads the host can run at once.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Client connections and load threads: at most one per hardware thread.
pub fn connections() -> usize {
    hardware_threads().clamp(1, 2)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// A run's result: the metrics by name with their units, and the counts.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Empty when every answer checked out.
    pub wrong: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.wrong.is_empty())),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|&(name, value, unit)| {
                            (
                                name.to_string(),
                                Json::obj(vec![
                                    ("value", Json::Num(value)),
                                    ("unit", Json::Str(unit.into())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Scratch directory for this run's data files, inside the working
/// directory.
fn data_dir(args: &Args) -> PathBuf {
    PathBuf::from(".perfbench-data").join(format!(
        "{}-{}-{}",
        args.workload.params().name,
        args.seed,
        std::process::id()
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = data_dir(&args);
    let result = if args.trace {
        traced::run(&args, &dir)
    } else {
        timed::run(&args, &dir)
    }
    .and_then(|out| spec::check_names(&out.metrics, args.trace).map(|()| out));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench-data");
    match result {
        Ok(out) => {
            for w in &out.wrong {
                eprintln!("perfbench: WRONG ANSWER: {w}");
            }
            println!("{}", out.to_json());
            if out.wrong.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
