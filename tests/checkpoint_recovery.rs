//! Checkpoint store, journal compaction, and point-in-time recovery.
//!
//! The contracts under test:
//!
//! - Checkpointing + compaction are observationally invisible: a journaled
//!   stream with an aggressive `CheckpointPolicy` produces transcripts
//!   byte-identical to an unjournaled run, at 1 and 8 threads, clean and
//!   under 30% chaos — and a compacted journal replays byte-identically.
//! - Killing the run at every checkpoint/compaction seam (mid-write,
//!   pre-rename, mid-truncate, post-truncate-pre-reanchor, …) leaves a
//!   journal that resumes to the exact reference transcript.
//! - `recover_at(batch)` / `recover_latest()` restore the nearest
//!   checkpoint at or below the target and replay surviving deltas
//!   forward, matching the uninterrupted run's frames byte-for-byte.
//! - Flipping or truncating bytes at arbitrary offsets in checkpoint
//!   files or the compacted WAL always degrades recovery to the previous
//!   durable state — it never errors and never diverges.
//! - Checkpoints store the document index as its layout only (no
//!   vectors, well under 1 KiB per row), and a session restored from one
//!   serves bit-identical `search_similar` hits — retracted rows and
//!   auto-retrained partitions included.
//! - A live journal directory is exclusive: a second session gets a typed
//!   `Locked` error instead of interleaved appends.

use allhands::core::InjectedCrash;
use allhands::datasets::{generate_n, DatasetKind};
use allhands::journal::Journal;
use allhands::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The thread override and the panic hook are process-global; serialize
/// the tests in this binary.
static GLOBAL_GUARD: Mutex<()> = Mutex::new(());

const QUESTIONS: [&str; 2] = [
    "How many feedback entries are there?",
    "Which topic appears most frequently?",
];

fn corpus() -> (Vec<String>, Vec<LabeledExample>, Vec<String>) {
    let records = generate_n(DatasetKind::GoogleStoreApp, 20, 23);
    let texts: Vec<String> = records.iter().map(|r| r.text.clone()).collect();
    let labeled: Vec<LabeledExample> = records
        .iter()
        .take(12)
        .map(|r| LabeledExample { text: r.text.clone(), label: r.label.clone() })
        .collect();
    let predefined = vec!["bug".to_string(), "crash".to_string()];
    (texts, labeled, predefined)
}

/// Three ingest batches: familiar feedback, then two themed novel batches
/// that overflow the pending pool so the flush coins topics.
fn batches() -> Vec<Vec<String>> {
    let familiar: Vec<String> =
        generate_n(DatasetKind::GoogleStoreApp, 6, 101).iter().map(|r| r.text.clone()).collect();
    let battery: Vec<String> = [
        "battery drains overnight even when idle",
        "phone gets hot and battery dies fast since update",
        "battery usage doubled after the last version",
        "standby battery drain is terrible now",
        "charging takes forever and battery drains quickly",
        "battery drain while the app runs in background",
    ]
    .map(String::from)
    .to_vec();
    let dark_mode: Vec<String> = [
        "dark mode please my eyes hurt at night",
        "would love a dark mode option",
        "please add dark mode theme",
        "night theme dark mode when",
        "the white background burns please dark mode",
        "dark mode dark mode dark mode",
    ]
    .map(String::from)
    .to_vec();
    vec![familiar, battery, dark_mode]
}

/// Small pending pool so the themed batches flush; aggressive index
/// staleness so auto-retraining fires inside the stream.
fn tuned(mut config: AllHandsConfig) -> AllHandsConfig {
    config.ingest.pending_threshold = 6;
    config.ingest.ivf_partition_docs = 8;
    config.ingest.ivf_staleness = 0.2;
    config
}

fn with_policy(mut config: AllHandsConfig, every: usize, keep: usize) -> AllHandsConfig {
    config.checkpoint = CheckpointPolicy { every_n_batches: every, keep_last_k: keep };
    config
}

fn chaos_config() -> AllHandsConfig {
    tuned(AllHandsConfig { resilience: ResilienceConfig::chaos(7, 0.3), ..Default::default() })
}

fn with_crash(mut config: AllHandsConfig, point: u64) -> AllHandsConfig {
    config.resilience.fault = config.resilience.fault.with_crash_at(point);
    config
}

/// Fresh scratch directory under the cargo-managed tmpdir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("checkpoint-recovery-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("stale scratch dir");
    }
    dir
}

/// Full transcript of an analyze + ingest-stream + QA session, for
/// bit-exact comparison (checkpoint policy must not change a byte of it).
fn render_transcript(ah: &mut AllHands, frame: &DataFrame) -> String {
    let mut out = String::new();
    out.push_str(&frame.to_table_string(100));
    for (i, batch) in batches().iter().enumerate() {
        let rep = ah.ingest(batch).expect("ingest must degrade, not fail");
        out.push_str(&format!(
            "\n=== batch {i}: new={} assigned={} routed={} flushed={} coined={:?} retrained={}\n",
            rep.new_rows, rep.assigned, rep.routed_pending, rep.flushed, rep.coined, rep.retrained
        ));
        out.push_str(&rep.frame.to_table_string(100));
    }
    out.push_str(&tail_transcript(ah, None));
    out
}

/// The session tail — optional final frame, the QA answers, degradation
/// notes, and the injected-fault count. A recovered session must
/// reproduce this byte-for-byte.
fn tail_transcript(ah: &mut AllHands, frame: Option<&DataFrame>) -> String {
    let mut out = String::new();
    if let Some(frame) = frame {
        out.push_str(&frame.to_table_string(100));
    }
    for q in QUESTIONS {
        let r = ah.ask(q).expect("ask failed");
        assert!(r.error.is_none(), "question {q:?} errored: {:?}", r.error);
        out.push_str("\n=== ");
        out.push_str(q);
        out.push('\n');
        out.push_str(&r.render());
        for note in &r.degradation {
            out.push_str(&format!("[degraded] {note}\n"));
        }
    }
    for d in ah.resilience().degradations() {
        out.push_str(&format!("[{}] {}\n", d.stage, d.note));
    }
    out.push_str(&format!("injected-faults: {}\n", ah.resilience().injected()));
    out
}

/// Unjournaled reference run.
fn transcript_plain(config: AllHandsConfig) -> String {
    let (texts, labeled, predefined) = corpus();
    let (mut ah, frame) = AllHands::builder(ModelTier::Gpt4)
        .config(config)
        .analyze(&texts, &labeled, &predefined)
        .expect("pipeline must degrade, not fail");
    render_transcript(&mut ah, &frame)
}

/// Journaled run (fresh or resuming). Returns the transcript plus the
/// number of crash points passed.
fn transcript_journaled(config: AllHandsConfig, dir: &Path) -> (String, u64) {
    let (texts, labeled, predefined) = corpus();
    let (mut ah, frame) = AllHands::builder(ModelTier::Gpt4)
        .config(config)
        .journal(JournalMode::Continue(dir.to_path_buf()))
        .analyze(&texts, &labeled, &predefined)
        .expect("journaled pipeline must degrade, not fail");
    let out = render_transcript(&mut ah, &frame);
    (out, ah.resilience().crash_points_passed())
}

/// Run a journaled stream configured to crash, swallow the injected crash
/// (silencing the default hook's backtrace spam), and return it.
fn run_crashing(config: AllHandsConfig, dir: &Path) -> InjectedCrash {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = catch_unwind(AssertUnwindSafe(|| transcript_journaled(config, dir)));
    std::panic::set_hook(prev);
    match result {
        Ok(_) => panic!("run configured to crash completed instead"),
        Err(payload) => match payload.downcast::<InjectedCrash>() {
            Ok(crash) => *crash,
            Err(other) => panic!(
                "expected an injected crash, got another panic: {:?}",
                other.downcast_ref::<String>()
            ),
        },
    }
}

/// Frame tables after analyze (index 0) and after each ingest batch
/// (index b+1), from an unjournaled run — the point-in-time targets
/// recovery must hit byte-for-byte.
fn prefix_frames(config: AllHandsConfig) -> Vec<String> {
    let (texts, labeled, predefined) = corpus();
    let (mut ah, frame) = AllHands::builder(ModelTier::Gpt4)
        .config(config)
        .analyze(&texts, &labeled, &predefined)
        .unwrap();
    let mut frames = vec![frame.to_table_string(100)];
    for batch in batches() {
        frames.push(ah.ingest(&batch).unwrap().frame.to_table_string(100));
    }
    frames
}

/// Seed a checkpointed journal: analyze + all batches (+ questions when
/// asked for), then drop the session so the lock releases.
fn seed_journal(config: AllHandsConfig, dir: &Path, ask: bool) -> String {
    let (texts, labeled, predefined) = corpus();
    let (mut ah, frame) = AllHands::builder(ModelTier::Gpt4)
        .config(config)
        .journal(JournalMode::Continue(dir.to_path_buf()))
        .analyze(&texts, &labeled, &predefined)
        .unwrap();
    let mut last = frame;
    for batch in batches() {
        last = ah.ingest(&batch).unwrap().frame;
    }
    if ask {
        for q in QUESTIONS {
            let r = ah.ask(q).expect("ask failed");
            assert!(r.error.is_none());
        }
    }
    last.to_table_string(100)
}

/// Point-in-time recovery over an existing journal; returns the session
/// and the recovered frame's table rendering.
fn recover(
    config: AllHandsConfig,
    dir: &Path,
    point: Option<usize>,
) -> Result<(AllHands, String), AllHandsError> {
    let (texts, labeled, predefined) = corpus();
    let mut b = AllHands::builder(ModelTier::Gpt4)
        .config(config)
        .journal(JournalMode::Continue(dir.to_path_buf()))
        .recorder(RecorderMode::Enabled);
    b = match point {
        Some(k) => b.recover_at(k),
        None => b.recover_latest(),
    };
    let (ah, frame) = b.analyze(&texts, &labeled, &predefined)?;
    Ok((ah, frame.to_table_string(100)))
}

#[test]
fn checkpointing_is_observationally_invisible_and_compacted_journals_replay() {
    let _g = GLOBAL_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let clean = || tuned(AllHandsConfig::default());
    for (tag, config) in [("clean", clean as fn() -> AllHandsConfig), ("chaos", chaos_config)] {
        for threads in [1usize, 8] {
            let reference = allhands::par::with_threads(threads, || transcript_plain(config()));
            let dir = scratch_dir(&format!("invis-{tag}-t{threads}"));
            let (journaled, _) = allhands::par::with_threads(threads, || {
                transcript_journaled(with_policy(config(), 1, 2), &dir)
            });
            assert_eq!(
                reference, journaled,
                "checkpointing changed observable output ({tag}, t={threads})"
            );
            // The journal really was checkpointed and compacted: the WAL
            // prefix up to the oldest retained checkpoint is gone.
            let j = Journal::open(&dir).unwrap();
            assert!(j.has_checkpoints(), "no checkpoint files survived ({tag})");
            assert!(
                j.len() < 4 + QUESTIONS.len(),
                "WAL holds {} entries — compaction never truncated it",
                j.len()
            );
            assert!(j.find("stage1", "labels").is_none(), "stage snapshots survived compaction");
            drop(j);
            // A fresh session over the compacted journal reproduces the
            // whole transcript byte-for-byte (dropped records recompute
            // deterministically, surviving ones replay).
            let (replayed, _) = allhands::par::with_threads(threads, || {
                transcript_journaled(with_policy(config(), 1, 2), &dir)
            });
            assert_eq!(
                reference, replayed,
                "compacted journal replay diverged ({tag}, t={threads})"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn checkpoint_observability_counters_and_spans() {
    let _g = GLOBAL_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let (texts, labeled, predefined) = corpus();
    let dir = scratch_dir("obs");
    let (mut ah, _frame) = AllHands::builder(ModelTier::Gpt4)
        .config(with_policy(tuned(AllHandsConfig::default()), 1, 2))
        .journal(JournalMode::Continue(dir.clone()))
        .recorder(RecorderMode::Enabled)
        .analyze(&texts, &labeled, &predefined)
        .unwrap();
    for batch in batches() {
        ah.ingest(&batch).unwrap();
    }
    let report = ah.run_report();
    assert_eq!(report.counter("journal.checkpoint.writes"), 3);
    assert_eq!(report.counter("journal.compact.runs"), 3);
    assert!(report.counter("journal.compact.entries_dropped") >= 1);
    assert!(report.counter("journal.compact.bytes_reclaimed") >= 1);
    assert!(report.counter("journal.checkpoint.bytes") >= 1);
    assert!(
        report.span_paths().iter().any(|p| p == "ingest > batch[0] > checkpoint"),
        "checkpoint span missing: {:?}",
        report.span_paths()
    );
    drop(ah);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_at_every_checkpoint_and_compaction_seam_recovers_byte_identical() {
    let _g = GLOBAL_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let clean = || tuned(AllHandsConfig::default());
    for (tag, config) in [("clean", clean as fn() -> AllHandsConfig), ("chaos", chaos_config)] {
        for threads in [1usize, 8] {
            let policy = |c| with_policy(c, 2, 1);
            let reference = allhands::par::with_threads(threads, || transcript_plain(config()));
            let dir = scratch_dir(&format!("seam-ref-{tag}-t{threads}"));
            let (journaled, points) = allhands::par::with_threads(threads, || {
                transcript_journaled(policy(config()), &dir)
            });
            assert_eq!(reference, journaled, "journaling changed output ({tag}, t={threads})");
            std::fs::remove_dir_all(&dir).ok();
            // 4 stage points + 2 per batch + 2 per question + 9 seams for
            // the single every-2-batches checkpoint boundary (4 checkpoint
            // write seams + 5 compaction seams).
            let expected = 4 + 2 * batches().len() as u64 + 2 * QUESTIONS.len() as u64 + 9;
            assert_eq!(points, expected, "crash-point schedule shifted ({tag}, t={threads})");
            // The 9 seams sit immediately after `ingest:b00001:committed`:
            // points 0..=7 are the stage + batch-0/1 points.
            for crash_at in 8..17 {
                let dir = scratch_dir(&format!("seam-{tag}-t{threads}-p{crash_at}"));
                let crash = allhands::par::with_threads(threads, || {
                    run_crashing(with_crash(policy(config()), crash_at), &dir)
                });
                assert_eq!(crash.point, crash_at, "crashed at the wrong point ({tag})");
                let (resumed, _) = allhands::par::with_threads(threads, || {
                    transcript_journaled(policy(config()), &dir)
                });
                assert_eq!(
                    reference, resumed,
                    "resume after crash at seam {} ({:?}) diverged ({tag}, t={threads})",
                    crash_at, crash.name
                );
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
}

#[test]
fn recover_at_restores_each_batch_boundary_byte_identically() {
    let _g = GLOBAL_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    // The durability policy is part of the run fingerprint, so recovery
    // must re-state the policy the journal was written under.
    let config = || with_policy(tuned(AllHandsConfig::default()), 1, 8);
    let frames = prefix_frames(config());
    // every=1, keep=8: every batch boundary has its own durable checkpoint.
    let dir = scratch_dir("pit");
    seed_journal(config(), &dir, false);
    for k in 0..batches().len() {
        let (ah, frame) = recover(config(), &dir, Some(k)).expect("recover_at must succeed");
        assert_eq!(
            frame,
            frames[k + 1],
            "recover_at({k}) diverged from the uninterrupted run's frame"
        );
        assert_eq!(ah.ingested_batches(), k + 1);
        drop(ah);
    }
    let (mut ah, frame) = recover(config(), &dir, None).expect("recover_latest must succeed");
    assert_eq!(frame, frames[batches().len()], "recover_latest diverged");
    // The recovered session stays live: it answers questions and ingests.
    let r = ah.ask(QUESTIONS[0]).expect("ask failed");
    assert!(r.error.is_none());
    let rep = ah.ingest(&batches()[0]).unwrap();
    assert_eq!(rep.batch, batches().len());
    drop(ah);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_replays_forward_from_the_nearest_checkpoint() {
    let _g = GLOBAL_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let config = || with_policy(tuned(AllHandsConfig::default()), 2, 8);
    let frames = prefix_frames(config());
    // every=2, keep=8: one checkpoint at batch 1; batch 2 is reachable only
    // by restoring it and replaying the surviving delta forward; batch 0's
    // delta was compacted away, so that point in time is gone.
    let dir = scratch_dir("forward");
    seed_journal(config(), &dir, false);

    let (ah, frame) = recover(config(), &dir, Some(1)).expect("checkpointed batch must recover");
    assert_eq!(frame, frames[2], "direct checkpoint restore diverged");
    assert_eq!(ah.run_report().counter("recover.delta_replays"), 0);
    drop(ah);

    let (ah, frame) = recover(config(), &dir, Some(2)).expect("forward replay must recover");
    assert_eq!(frame, frames[3], "checkpoint + delta replay diverged");
    assert_eq!(ah.run_report().counter("recover.delta_replays"), 1);
    drop(ah);

    let err = match recover(config(), &dir, Some(0)) {
        Ok(_) => panic!("batch 0 was compacted away; recover_at(0) must error"),
        Err(e) => e.to_string(),
    };
    assert!(err.contains("no surviving delta"), "unexpected error: {err}");

    let err = match recover(config(), &dir, Some(7)) {
        Ok(_) => panic!("batch 7 never ran; recover_at(7) must error"),
        Err(e) => e.to_string(),
    };
    assert!(err.contains("beyond"), "unexpected error: {err}");
    std::fs::remove_dir_all(&dir).ok();

    // And recovery without a journal is a typed error, not a silent no-op.
    let (texts, labeled, predefined) = corpus();
    let err = match AllHands::builder(ModelTier::Gpt4)
        .config(config())
        .recover_latest()
        .analyze(&texts, &labeled, &predefined)
    {
        Ok(_) => panic!("recover without a journal must error"),
        Err(e) => e.to_string(),
    };
    assert!(err.contains("requires a journal"), "unexpected error: {err}");
}

#[test]
fn recovery_is_byte_identical_across_threads_and_chaos() {
    let _g = GLOBAL_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let clean = || tuned(AllHandsConfig::default());
    for (tag, config) in [("clean", clean as fn() -> AllHandsConfig), ("chaos", chaos_config)] {
        for threads in [1usize, 8] {
            let dir = scratch_dir(&format!("rec-{tag}-t{threads}"));
            // Seed a checkpointed session, asking the questions live, and
            // capture its tail (final frame + answers + degradations).
            let reference = allhands::par::with_threads(threads, || {
                let (texts, labeled, predefined) = corpus();
                let (mut ah, frame) = AllHands::builder(ModelTier::Gpt4)
                    .config(with_policy(config(), 1, 2))
                    .journal(JournalMode::Continue(dir.clone()))
                    .analyze(&texts, &labeled, &predefined)
                    .unwrap();
                let mut last = frame;
                for batch in batches() {
                    last = ah.ingest(&batch).unwrap().frame;
                }
                tail_transcript(&mut ah, Some(&last))
            });
            // Recover the same session from its checkpoints and re-ask:
            // the tail must match byte-for-byte (answers replay from the
            // surviving QA records, state from checkpoint + deltas).
            let recovered = allhands::par::with_threads(threads, || {
                let (texts, labeled, predefined) = corpus();
                let (mut ah, frame) = AllHands::builder(ModelTier::Gpt4)
                    .config(with_policy(config(), 1, 2))
                    .journal(JournalMode::Continue(dir.clone()))
                    .recover_latest()
                    .analyze(&texts, &labeled, &predefined)
                    .unwrap();
                tail_transcript(&mut ah, Some(&frame))
            });
            assert_eq!(
                reference, recovered,
                "recovered session tail diverged ({tag}, t={threads})"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn checkpoints_store_the_index_layout_and_restore_identical_search_hits() {
    let _g = GLOBAL_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    // every=3: the only checkpoint lands after the last batch, so the
    // recovered index comes from its layout with no delta replayed. One
    // probed partition makes the hits depend on the partitioning itself.
    let config = || {
        let mut config = with_policy(tuned(AllHandsConfig::default()), 3, 1);
        config.ingest.ivf_nprobe = 1;
        config
    };
    let (texts, labeled, predefined) = corpus();
    let dir = scratch_dir("layout");
    let retracted = 3u64;
    let queries: Vec<String> = [
        texts[retracted as usize].clone(),
        texts[7].clone(),
        "battery drains overnight".to_string(),
        "please add a dark mode".to_string(),
    ]
    .to_vec();
    let search_all = |ah: &mut AllHands| -> Vec<Vec<(u64, u32)>> {
        queries
            .iter()
            .map(|q| {
                let hits = ah.search_similar(q, 10).expect("search_similar failed");
                hits.into_iter().map(|(id, score)| (id, score.to_bits())).collect()
            })
            .collect()
    };

    let (mut ah, _frame) = AllHands::builder(ModelTier::Gpt4)
        .config(config())
        .journal(JournalMode::Continue(dir.clone()))
        .analyze(&texts, &labeled, &predefined)
        .unwrap();
    let mut retrained = false;
    for (i, batch) in batches().iter().enumerate() {
        retrained |= ah.ingest(batch).unwrap().retrained;
        if i == 0 {
            assert!(ah.retract(retracted).unwrap(), "row {retracted} was not indexed");
        }
    }
    assert!(retrained, "the index never auto-retrained before the checkpoint");
    let live = search_all(&mut ah);
    assert!(
        live[0].iter().all(|&(id, _)| id != retracted),
        "the live session still returns the retracted row"
    );
    let rows = texts.len() + batches().iter().map(Vec::len).sum::<usize>();
    drop(ah);

    let j = Journal::open(&dir).unwrap();
    let newest = j.checkpoints().last().expect("no checkpoint written");
    assert_eq!(newest.marker, batches().len() as u64);
    let partitions = match &newest.payload["doc_index"]["partitions"] {
        serde_json::Value::Array(p) => p.clone(),
        other => panic!("checkpoint has no document-index layout: {other:?}"),
    };
    let mut indexed = 0;
    for record in partitions.iter().flat_map(|p| match p {
        serde_json::Value::Array(records) => records.clone(),
        other => panic!("malformed partition: {other:?}"),
    }) {
        let serde_json::Value::Object(fields) = &record else {
            panic!("malformed index record: {record:?}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["id", "metadata"], "index record carries more than its layout");
        indexed += 1;
    }
    assert_eq!(indexed, rows - 1, "layout should hold every row but the retracted one");
    let file = dir.join(format!("ckpt-{:010}.json", newest.marker));
    let bytes = std::fs::metadata(&file).unwrap().len() as usize;
    assert!(bytes < 1024 * rows, "checkpoint is {bytes} B for {rows} rows");
    drop(j);

    let (mut ah, _frame) = recover(config(), &dir, None).expect("recover_latest must succeed");
    assert_eq!(ah.run_report().counter("recover.delta_replays"), 0);
    assert_eq!(search_all(&mut ah), live, "restored index serves different hits");
    drop(ah);
    std::fs::remove_dir_all(&dir).ok();
}

/// Deterministic xorshift64* for the corruption fuzz offsets.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x.max(1);
    x
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    }
}

/// Flip one byte (even rounds) or truncate (odd rounds) at a seeded
/// offset of `path`.
fn corrupt_file(path: &Path, rng: &mut u64, round: usize) {
    let mut bytes = std::fs::read(path).unwrap();
    if bytes.is_empty() {
        return;
    }
    let off = (xorshift(rng) as usize) % bytes.len();
    if round % 2 == 0 {
        bytes[off] ^= 0x20 | (1 << (xorshift(rng) % 8)) as u8;
        std::fs::write(path, &bytes).unwrap();
    } else {
        bytes.truncate(off);
        std::fs::write(path, &bytes).unwrap();
    }
}

#[test]
fn corruption_always_degrades_to_a_durable_checkpoint() {
    let _g = GLOBAL_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let config = || with_policy(tuned(AllHandsConfig::default()), 1, 2);
    let frames = prefix_frames(config());
    let full = &frames[batches().len()];
    // Pristine compacted journal: checkpoints at batches 2 and 3 (keep=2)
    // plus the surviving batch-3 delta in the WAL.
    let pristine = scratch_dir("fuzz-pristine");
    seed_journal(config(), &pristine, false);
    let targets: Vec<PathBuf> = {
        let mut files: Vec<PathBuf> = std::fs::read_dir(&pristine)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.is_file())
            .collect();
        files.sort();
        files
    };
    assert!(targets.len() >= 3, "expected WAL + 2 checkpoints, found {targets:?}");

    // Single-file corruption at arbitrary offsets: the redundant pair of
    // checkpoints plus the delta chain means recovery always reaches the
    // full state — whichever artifact is damaged, another path covers it.
    let mut rng = 0x1234_5678_9abc_def0u64;
    for round in 0..24 {
        let fuzz = scratch_dir("fuzz-work");
        copy_dir(&pristine, &fuzz);
        let victim = &targets[(xorshift(&mut rng) as usize) % targets.len()];
        let victim = fuzz.join(victim.file_name().unwrap());
        corrupt_file(&victim, &mut rng, round);
        let (ah, frame) = recover(config(), &fuzz, None).unwrap_or_else(|e| {
            panic!(
                "round {round}: corrupting {:?} made recovery error instead of degrade: {e}",
                victim.file_name()
            )
        });
        assert_eq!(
            &frame,
            full,
            "round {round}: single-file corruption of {:?} diverged",
            victim.file_name()
        );
        drop(ah);
        std::fs::remove_dir_all(&fuzz).ok();
    }

    // Newest checkpoint AND the WAL corrupted: recovery falls back to the
    // older durable checkpoint — the batch-2 state — with a degradation
    // note, never an error.
    let fuzz = scratch_dir("fuzz-double");
    copy_dir(&pristine, &fuzz);
    let mut ckpts: Vec<PathBuf> = std::fs::read_dir(&fuzz)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("ckpt-"))
        .collect();
    ckpts.sort();
    let newest = ckpts.last().unwrap().clone();
    corrupt_file(&newest, &mut rng, 0);
    corrupt_file(&fuzz.join("allhands.journal"), &mut rng, 0);
    let (ah, frame) = recover(config(), &fuzz, None)
        .expect("double corruption must degrade to the older checkpoint, not error");
    assert_eq!(frame, frames[2], "fallback did not land on the older durable checkpoint");
    assert_eq!(ah.ingested_batches(), 2, "fallback restored the wrong batch count");
    drop(ah);
    std::fs::remove_dir_all(&fuzz).ok();

    // Every artifact corrupted: recovery degrades all the way to a clean
    // deterministic re-run of the pipeline over the provided inputs.
    let fuzz = scratch_dir("fuzz-total");
    copy_dir(&pristine, &fuzz);
    for t in &targets {
        corrupt_file(&fuzz.join(t.file_name().unwrap()), &mut rng, 0);
    }
    let (_ah, frame) = recover(config(), &fuzz, None)
        .expect("total corruption must fall back to a fresh pipeline run");
    assert_eq!(frame, frames[0], "total-corruption fallback diverged from a fresh run");
    std::fs::remove_dir_all(&fuzz).ok();
    std::fs::remove_dir_all(&pristine).ok();
}

#[test]
fn live_journal_directory_is_exclusive() {
    let _g = GLOBAL_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let (texts, labeled, predefined) = corpus();
    let dir = scratch_dir("lock");
    let (ah, _frame) = AllHands::builder(ModelTier::Gpt4)
        .journal(JournalMode::Continue(dir.clone()))
        .analyze(&texts, &labeled, &predefined)
        .unwrap();
    let err = match AllHands::builder(ModelTier::Gpt4)
        .journal(JournalMode::Continue(dir.clone()))
        .analyze(&texts, &labeled, &predefined)
    {
        Ok(_) => panic!("second session on a live journal must be refused"),
        Err(e) => e.to_string(),
    };
    assert!(err.contains("locked"), "unexpected error: {err}");
    drop(ah);
    // Once the holder is gone the directory opens (and replays) normally.
    let (_ah, _frame) = AllHands::builder(ModelTier::Gpt4)
        .journal(JournalMode::Continue(dir.clone()))
        .analyze(&texts, &labeled, &predefined)
        .expect("released lock must reopen");
    drop(_ah);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_tail_recovery_is_visible_in_the_run_report() {
    let _g = GLOBAL_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let (texts, labeled, predefined) = corpus();
    let dir = scratch_dir("torn");
    let (ah, _frame) = AllHands::builder(ModelTier::Gpt4)
        .journal(JournalMode::Continue(dir.clone()))
        .analyze(&texts, &labeled, &predefined)
        .unwrap();
    drop(ah);
    // Tear the final record mid-line, as a crash between write and fsync
    // would.
    let wal = dir.join("allhands.journal");
    let len = std::fs::metadata(&wal).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    f.set_len(len - 7).unwrap();
    drop(f);
    let (ah, _frame) = AllHands::builder(ModelTier::Gpt4)
        .journal(JournalMode::Continue(dir.clone()))
        .recorder(RecorderMode::Enabled)
        .analyze(&texts, &labeled, &predefined)
        .expect("torn tail must recover, not fail");
    let report = ah.run_report();
    assert_eq!(report.counter("journal.torn_tail_recovered"), 1);
    assert!(report.counter("journal.dropped_entries") >= 1);
    drop(ah);
    std::fs::remove_dir_all(&dir).ok();
}
