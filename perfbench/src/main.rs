//! AllHands benchmark: one command per workload, printing every metric by
//! name and unit and checking the program's outputs on the way.
//!
//! ```text
//! allhands-perfbench --workload <build|restart|ask|serve_mixed> --seed <n>
//!                    --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with every recorder
//! disabled. `--trace 1` repeats the measured loop untraced, then traced
//! (`RecorderMode::Enabled`), and prints the per-layer metrics instead.
//! Human-readable report lines come first; the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! Scratch state (journals, the server socket) lives under `.bench_run/`
//! in the working directory and is removed before exit.

mod ask;
mod build;
mod layers;
mod restart;
mod serve;
mod stats;

use layers::Layers;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// What a run was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Scratch directory for this run, removed at exit.
    pub dir: PathBuf,
}

impl Ctx {
    /// A fresh, empty scratch subdirectory.
    pub fn scratch(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.dir.join(name);
        remove_dir(&dir)?;
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// Remove a directory tree if it exists.
pub fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("remove {}: {e}", dir.display())),
    }
}

/// A workload's result: operation accounting, gate outcomes, the
/// end-to-end figures every workload reports, the workload's own named
/// figures, and (traced runs only) the per-layer metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate violations; any entry fails the run.
    pub violations: Vec<String>,
    /// Median of the repeated set-ups.
    pub setup_s: f64,
    /// Work completed per second (what counts as work is per workload).
    pub throughput_per_s: f64,
    /// Median latency of the workload's user-facing operation.
    pub p50_ms: f64,
    /// Tail latency of that operation (p95; p99 for serve_mixed reads).
    pub tail_ms: f64,
    /// The workload's own named figures: (name, value, unit).
    pub named: Vec<(&'static str, f64, &'static str)>,
    pub layers: Layers,
}

impl Outcome {
    /// Record a gate check; `false` adds the violation.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// Highest resident set size of this process so far, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        dir: PathBuf::from(".bench_run").join(format!("{}-{}", args.workload, std::process::id())),
    };
    let run: fn(&Ctx) -> Result<Outcome, String> = match args.workload.as_str() {
        "build" => build::run,
        "restart" => restart::run,
        "ask" => ask::run,
        "serve_mixed" => serve::run,
        other => {
            eprintln!("perfbench: unknown workload {other:?} (build, restart, ask, serve_mixed)");
            std::process::exit(2);
        }
    };
    let result = run(&ctx);
    let cleanup = remove_dir(&ctx.dir);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if let Err(e) = cleanup {
        eprintln!("perfbench: {e}");
    }
    let rss = peak_rss_mb();

    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        allhands::par::max_threads()
    );
    for (name, value, unit) in &out.named {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    for v in &out.violations {
        println!("  GATE FAILED: {v}");
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        for (name, value, unit) in out.layers.rows() {
            println!("  {name:<36} {value:>14.4} {unit}");
        }
        out.layers.rows().collect()
    } else {
        vec![
            ("setup_s", out.setup_s, "s"),
            ("peak_rss_mb", rss, "MB"),
            ("throughput_per_s", out.throughput_per_s, "1/s"),
            ("p50_ms", out.p50_ms, "ms"),
            ("tail_ms", out.tail_ms, "ms"),
        ]
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = out.violations.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
