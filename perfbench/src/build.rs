//! `build`: one analyst structuring a corpus. Closed loop, one process,
//! journaled. Each cycle runs a cold `analyze` over ~2,000 GoogleStoreApp
//! documents, a stream of 40-document `ingest` batches with automatic
//! checkpoints and compaction, then a restart with `recover_latest()`.

use crate::layers::{self, Layers, Traces};
use crate::stats::{median, percentile, ratio};
use crate::{Ctx, Outcome};
use allhands::core::{IclClassifier, IclConfig};
use allhands::datasets::{generate_n, DatasetKind};
use allhands::journal::Journal;
use allhands::llm::{ModelSpec, SimLlm};
use allhands::prelude::*;
use allhands::serve::Corpus;
use std::path::Path;
use std::time::{Duration, Instant};

pub const DOCS: usize = 2_000;
pub const BATCH_DOCS: usize = 40;
/// Not a multiple of the checkpoint cadence, so a restart restores the
/// newest checkpoint and replays the deltas after it.
pub const BATCHES: usize = 10;
/// Cycles per measured window: three take about 15 s on a 2-core host
/// and give the ingest percentiles 30 batches. A fixed count gives every
/// run the same samples; `--seconds` only stops a new cycle from starting.
const CYCLES: usize = 3;
/// Set-ups timed for the median.
const SETUPS: usize = 5;
pub const CHECKPOINTS: CheckpointPolicy = CheckpointPolicy {
    every_n_batches: 4,
    keep_last_k: 2,
};

/// The generated inputs: the corpus and the ingest stream that follows it.
pub struct Inputs {
    pub corpus: Corpus,
    pub stream: Vec<Vec<String>>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let corpus = Corpus::synthetic(DOCS, seed);
        let stream_docs = generate_n(
            DatasetKind::GoogleStoreApp,
            BATCH_DOCS * BATCHES,
            seed ^ 0x5eed_57ea,
        );
        let stream = stream_docs
            .chunks(BATCH_DOCS)
            .map(|c| c.iter().map(|r| r.text.clone()).collect())
            .collect();
        Inputs { corpus, stream }
    }

    pub fn total_docs(&self) -> usize {
        self.corpus.texts.len() + self.stream.iter().map(Vec::len).sum::<usize>()
    }

    fn builder(&self, policy: CheckpointPolicy, mode: RecorderMode) -> AllHandsBuilder {
        AllHands::builder(ModelTier::Gpt4)
            .checkpoints(policy)
            .recorder(mode)
    }

    /// Cold `analyze` into a fresh journal at `dir`.
    pub fn analyze(
        &self,
        dir: &Path,
        policy: CheckpointPolicy,
        mode: RecorderMode,
    ) -> Result<(AllHands, DataFrame), AllHandsError> {
        let c = &self.corpus;
        self.builder(policy, mode)
            .journal(JournalMode::Fresh(dir.to_path_buf()))
            .analyze(&c.texts, &c.labeled, &c.predefined)
    }

    /// Restart from the journal at `dir`: newest checkpoint plus deltas.
    pub fn recover(
        &self,
        dir: &Path,
        policy: CheckpointPolicy,
        mode: RecorderMode,
    ) -> Result<(AllHands, DataFrame), AllHandsError> {
        let c = &self.corpus;
        self.builder(policy, mode)
            .journal(JournalMode::Continue(dir.to_path_buf()))
            .recover_latest()
            .analyze(&c.texts, &c.labeled, &c.predefined)
    }
}

/// One cycle's timings and outputs.
struct Cycle {
    analyze_s: f64,
    batch_ms: Vec<f64>,
    restart_s: f64,
    /// Frame after the last batch, and after the restart.
    before: Option<DataFrame>,
    after: Option<DataFrame>,
    journal_bytes: u64,
    reports: Vec<RunReport>,
}

impl Cycle {
    fn timed_ms(&self) -> f64 {
        (self.analyze_s + self.restart_s) * 1e3 + self.batch_ms.iter().sum::<f64>()
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn cycle(inputs: &Inputs, dir: &Path, mode: &RecorderMode, out: &mut Outcome) -> Cycle {
    let mut c = Cycle {
        analyze_s: 0.0,
        batch_ms: Vec::with_capacity(BATCHES),
        restart_s: 0.0,
        before: None,
        after: None,
        journal_bytes: 0,
        reports: Vec::new(),
    };
    crate::remove_dir(dir).expect("build: clear the journal directory");
    out.attempted += 1;
    let t = Instant::now();
    let built = inputs.analyze(dir, CHECKPOINTS, mode.clone());
    c.analyze_s = t.elapsed().as_secs_f64();
    let mut ah = match built {
        Ok((ah, _)) => ah,
        Err(e) => {
            out.failed += 1;
            eprintln!("build: analyze failed: {e}");
            return c;
        }
    };
    for batch in &inputs.stream {
        out.attempted += 1;
        let t = Instant::now();
        let res = ah.ingest(batch);
        c.batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match res {
            Ok(rep) => c.before = Some(rep.frame),
            Err(e) => {
                out.failed += 1;
                eprintln!("build: ingest failed: {e}");
            }
        }
    }
    c.reports.push(ah.run_report());
    drop(ah);
    c.journal_bytes = dir_bytes(dir);

    out.attempted += 1;
    let t = Instant::now();
    let restarted = inputs.recover(dir, CHECKPOINTS, mode.clone());
    c.restart_s = t.elapsed().as_secs_f64();
    match restarted {
        Ok((ah, frame)) => {
            c.reports.push(ah.run_report());
            c.after = Some(frame);
        }
        Err(e) => {
            out.failed += 1;
            eprintln!("build: restart failed: {e}");
        }
    }
    out.gate(c.before.is_some() && c.before == c.after, || {
        "build: the restarted frame differs from the pre-restart frame".into()
    });
    c
}

/// Run `CYCLES` cycles, or fewer once `seconds` is spent.
fn measure(
    inputs: &Inputs,
    dir: &Path,
    mode: RecorderMode,
    seconds: Duration,
    out: &mut Outcome,
) -> Vec<Cycle> {
    let start = Instant::now();
    let mut cycles: Vec<Cycle> = Vec::new();
    while cycles.len() < CYCLES && (cycles.is_empty() || start.elapsed() < seconds) {
        cycles.push(cycle(inputs, dir, &mode, out));
    }
    cycles
}

/// The restarted state must also equal a scratch replay of a WAL-only
/// journal (same inputs, no checkpoints).
fn wal_only_gate(
    ctx: &Ctx,
    inputs: &Inputs,
    expected: Option<&DataFrame>,
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = ctx.scratch("wal-only")?;
    let none = CheckpointPolicy {
        every_n_batches: 0,
        ..CHECKPOINTS
    };
    let (mut ah, _) = inputs
        .analyze(&dir, none.clone(), RecorderMode::Disabled)
        .map_err(|e| e.to_string())?;
    for batch in &inputs.stream {
        ah.ingest(batch).map_err(|e| e.to_string())?;
    }
    drop(ah);
    let (_ah, replayed) = inputs
        .recover(&dir, none, RecorderMode::Disabled)
        .map_err(|e| e.to_string())?;
    out.gate(Some(&replayed) == expected, || {
        "build: the restarted frame differs from a WAL-only scratch replay".into()
    });
    Ok(())
}

/// Open a fresh journal at `dir` with its run header, then fit the ICL
/// classifier on the labeled demonstrations.
fn set_up(inputs: &Inputs, dir: &Path, seed: u64) -> Result<(), String> {
    let mut journal = Journal::open(dir).map_err(|e| e.to_string())?;
    journal
        .ensure_run(&format!("perfbench-build-{seed}"))
        .map_err(|e| e.to_string())?;
    let labeled = &inputs.corpus.labeled;
    let mut labels: Vec<String> = Vec::new();
    for ex in labeled {
        if !labels.contains(&ex.label) {
            labels.push(ex.label.clone());
        }
    }
    let llm = SimLlm::new(ModelSpec::for_tier(ModelTier::Gpt4));
    let classifier = IclClassifier::fit(&llm, labeled, &labels, IclConfig::default());
    std::hint::black_box(classifier);
    Ok(())
}

fn median_of(cycles: &[Cycle], f: impl Fn(&Cycle) -> f64) -> f64 {
    median(&cycles.iter().map(f).collect::<Vec<_>>())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = Inputs::generate(ctx.seed);
    // Set-up is what a cold `analyze` does before it classifies its first
    // document, as standalone calls.
    let mut setups = Vec::new();
    for i in 0..SETUPS {
        let dir = ctx.scratch(&format!("setup-{i}"))?;
        let t = Instant::now();
        set_up(&inputs, &dir, ctx.seed)?;
        setups.push(t.elapsed().as_secs_f64());
        crate::remove_dir(&dir)?;
    }
    out.setup_s = median(&setups);
    let dir = ctx.dir.join("journal");

    let cycles = measure(&inputs, &dir, RecorderMode::Disabled, ctx.seconds, &mut out);
    let stream_docs = (inputs.total_docs() - DOCS) as f64;
    let batch_ms: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.batch_ms.iter().copied())
        .collect();
    out.throughput_per_s = median_of(&cycles, |c| ratio(DOCS as f64, c.analyze_s));
    out.p50_ms = median(&batch_ms);
    out.tail_ms = percentile(&batch_ms, 95.0);
    out.named = vec![
        ("cycles", cycles.len() as f64, "count"),
        ("build_docs_per_s", out.throughput_per_s, "1/s"),
        (
            "ingest_docs_per_s",
            median_of(&cycles, |c| {
                ratio(stream_docs * 1e3, c.batch_ms.iter().sum())
            }),
            "1/s",
        ),
        ("ingest_p50_ms", out.p50_ms, "ms"),
        ("ingest_p95_ms", out.tail_ms, "ms"),
        ("restart_s", median_of(&cycles, |c| c.restart_s), "s"),
    ];
    let last_after = cycles.last().and_then(|c| c.after.clone());
    wal_only_gate(ctx, &inputs, last_after.as_ref(), &mut out)?;

    if ctx.trace {
        let traced = measure(&inputs, &dir, RecorderMode::Enabled, ctx.seconds, &mut out);
        out.layers = layers_of(&inputs, &cycles, &traced);
    }
    Ok(out)
}

fn layers_of(inputs: &Inputs, untraced: &[Cycle], traced: &[Cycle]) -> Layers {
    let mut l = Layers::default();
    let n = traced.len() as f64;
    let t = Traces(
        traced
            .iter()
            .flat_map(|c| c.reports.iter().cloned())
            .collect(),
    );
    layers::fill_pipeline(&mut l, &t, n, n);
    l.set(
        "journal.bytes_per_doc",
        median(
            &traced
                .iter()
                .map(|c| c.journal_bytes as f64)
                .collect::<Vec<_>>(),
        ) / inputs.total_docs() as f64,
    );
    l.set("core.recover.ms", median_of(traced, |c| c.restart_s * 1e3));

    // Thread scaling: one cold analyze at one thread against the untraced
    // multi-threaded median.
    let c = &inputs.corpus;
    let t1 = Instant::now();
    let single = allhands::par::with_threads(1, || {
        AllHands::builder(ModelTier::Gpt4).analyze(&c.texts, &c.labeled, &c.predefined)
    });
    let single_s = t1.elapsed().as_secs_f64();
    if single.is_ok() {
        l.set(
            "par.build_speedup",
            ratio(single_s, median_of(untraced, |c| c.analyze_s)),
        );
    }

    // Embedding cost per text, timed around `SentenceEmbedder::embed`.
    let mut embedder = allhands::embed::SentenceEmbedder::new(
        allhands::llm::ModelSpec::for_tier(ModelTier::Gpt4).embed,
    );
    embedder.fit(&c.texts);
    let t_embed = Instant::now();
    for text in &c.texts {
        std::hint::black_box(embedder.embed(std::hint::black_box(text)));
    }
    l.set(
        "embed.ms_per_text",
        t_embed.elapsed().as_secs_f64() * 1e3 / c.texts.len() as f64,
    );

    let timed: f64 = traced.iter().map(Cycle::timed_ms).sum();
    layers::fill_bookkeeping(
        &mut l,
        &t,
        timed,
        0.0,
        n,
        median_of(untraced, Cycle::timed_ms),
        median_of(traced, Cycle::timed_ms),
    );
    l
}
