//! `restart`: an analyst reopening a structured, checkpointed corpus.
//! Closed loop of `recover_latest()` restarts over the journal the `build`
//! cycle leaves behind (~2,400 documents, two checkpoints, two deltas past
//! the newest one).

use crate::build::{Inputs, CHECKPOINTS};
use crate::layers::{self, Layers, Traces};
use crate::stats::{median, percentile, ratio};
use crate::{Ctx, Outcome};
use allhands::prelude::*;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Journals restarted in rotation, one per set-up.
const SETUPS: usize = 3;

struct Journaled {
    dir: PathBuf,
    /// The frame after the last ingest batch, before any restart.
    frame: DataFrame,
}

fn set_up(ctx: &Ctx, inputs: &Inputs, i: usize) -> Result<Journaled, String> {
    let dir = ctx.scratch(&format!("journal-{i}"))?;
    let (mut ah, mut frame) = inputs
        .analyze(&dir, CHECKPOINTS, RecorderMode::Disabled)
        .map_err(|e| e.to_string())?;
    for batch in &inputs.stream {
        frame = ah.ingest(batch).map_err(|e| e.to_string())?.frame;
    }
    Ok(Journaled { dir, frame })
}

struct Restart {
    ms: f64,
    report: RunReport,
}

fn measure(
    inputs: &Inputs,
    journals: &[Journaled],
    mode: RecorderMode,
    seconds: Duration,
    out: &mut Outcome,
) -> Vec<Restart> {
    let start = Instant::now();
    let mut restarts = Vec::new();
    while restarts.is_empty() || start.elapsed() < seconds {
        let j = &journals[restarts.len() % journals.len()];
        out.attempted += 1;
        let t = Instant::now();
        let res = inputs.recover(&j.dir, CHECKPOINTS, mode.clone());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match res {
            Ok((ah, frame)) => {
                out.gate(frame == j.frame, || {
                    format!(
                        "restart: the frame recovered from {} differs from the pre-restart frame",
                        j.dir.display()
                    )
                });
                restarts.push(Restart {
                    ms,
                    report: ah.run_report(),
                });
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("restart: recover failed: {e}");
                restarts.push(Restart {
                    ms,
                    report: RunReport::empty(),
                });
            }
        }
    }
    restarts
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = Inputs::generate(ctx.seed);
    let mut setups = Vec::new();
    let mut journals = Vec::new();
    for i in 0..SETUPS {
        let t = Instant::now();
        journals.push(set_up(ctx, &inputs, i)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    out.setup_s = median(&setups);

    let restarts = measure(
        &inputs,
        &journals,
        RecorderMode::Disabled,
        ctx.seconds,
        &mut out,
    );
    let ms: Vec<f64> = restarts.iter().map(|r| r.ms).collect();
    let docs = inputs.total_docs() as f64;
    out.throughput_per_s = median(&ms.iter().map(|m| docs * 1e3 / m).collect::<Vec<_>>());
    out.p50_ms = median(&ms);
    out.tail_ms = percentile(&ms, 95.0);
    out.named = vec![
        ("restarts", ms.len() as f64, "count"),
        ("restart_s", out.p50_ms / 1e3, "s"),
        ("restart_p95_s", out.tail_ms / 1e3, "s"),
        ("restored_docs_per_s", out.throughput_per_s, "1/s"),
    ];

    if ctx.trace {
        let traced = measure(
            &inputs,
            &journals,
            RecorderMode::Enabled,
            ctx.seconds,
            &mut out,
        );
        let mut l = Layers::default();
        let n = traced.len() as f64;
        let traced_ms: Vec<f64> = traced.iter().map(|r| r.ms).collect();
        let t = Traces(traced.into_iter().map(|r| r.report).collect());
        l.set("core.recover.ms", median(&traced_ms));
        // Opening (reading and verifying) the journal, timed on its own.
        let open_ms: Vec<f64> = journals
            .iter()
            .map(|j| {
                let t = Instant::now();
                let opened = allhands::journal::Journal::open(&j.dir);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                out.gate(opened.is_ok(), || {
                    format!("restart: cannot open {}", j.dir.display())
                });
                ms
            })
            .collect();
        l.set("journal.open_ms", median(&open_ms));
        l.set(
            "recover.delta_replays",
            ratio(t.counter("recover.delta_replays"), n),
        );
        layers::fill_ingest(&mut l, &t);
        layers::fill_bookkeeping(
            &mut l,
            &t,
            traced_ms.iter().sum(),
            0.0,
            n,
            median(&ms),
            median(&traced_ms),
        );
        out.layers = l;
    }
    Ok(out)
}
