//! AllHands — "Ask Me Anything" analytics on large-scale verbatim feedback.
//!
//! The paper's framework in three stages, each reproduced here:
//!
//! 1. **Feedback classification** ([`classification`]): in-context-learning
//!    classification with demonstration retrieval from a vector database
//!    (paper Sec. 3.2) — no fine-tuning, any label set.
//! 2. **Abstractive topic modeling** ([`topic_modeling`]): progressive ICL
//!    topic summarization with optional human-in-the-loop refinement
//!    (Sec. 3.3): reviewer filtering, agglomerative clustering +
//!    re-summarization, BARTScore-filtered retrieval augmentation, and a
//!    second modeling round.
//! 3. **QA agent** (re-exported from `allhands-agent`): natural-language
//!    questions → code → multi-modal answers (Sec. 3.4).
//!
//! The [`AllHands`] facade wires the stages together: feed it raw feedback
//! texts (plus a labeled sample for classification), get a structured
//! [`DataFrame`] and an interactive [`ask`](AllHands::ask) interface.
//!
//! # Quickstart
//!
//! ```
//! use allhands_core::{AllHands, AllHandsConfig};
//! use allhands_dataframe::{Column, DataFrame};
//! use allhands_llm::ModelTier;
//!
//! // A tiny structured feedback frame (normally produced by the pipeline).
//! let frame = DataFrame::new(vec![
//!     Column::from_strs("text", &["app crashes daily", "love the update"]),
//!     Column::from_f64s("sentiment", &[-0.8, 0.9]),
//!     Column::from_str_lists("topics", vec![vec!["crash".into()], vec!["praise".into()]]),
//! ]).unwrap();
//!
//! let mut allhands = AllHands::from_frame(ModelTier::Gpt4, frame, AllHandsConfig::default());
//! let response = allhands.ask("How many feedback entries are there?").unwrap();
//! assert!(response.error.is_none());
//! ```

pub mod classification;
pub mod topic_modeling;

pub use classification::{DemoIndex, IclClassifier, IclConfig};
pub use topic_modeling::{AbstractiveTopicModeler, TopicModelingConfig, TopicModelingResult};

pub use allhands_agent::{AgentConfig, AnswerRecord, QaAgent, Response, ResponseItem};
pub use allhands_journal::{
    vfs::{FaultVfs, IoFaultKind, IoFaultPlan, RealVfs, Vfs},
    BootstrapBundle, Journal, JournalError, TailEntry,
};
pub use allhands_obs::{Recorder, RunReport, SpanGuard};
pub use allhands_resilience::{
    AllHandsError, DegradationEvent, FaultPlan, Head, InjectedCrash, QuarantineRecord,
    ResilienceConfig, ResilienceCtx, ResilienceSnapshot, ResilienceStats, RetryPolicy,
};

use allhands_classify::LabeledExample;
use allhands_dataframe::{Column, DataFrame};
use allhands_embed::Embedding;
use allhands_llm::{ModelSpec, ModelTier, SimLlm};
use allhands_vectordb::{IvfIndex, IvfState, Record, VectorIndex};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Stage-1 journal snapshot: the classified labels plus the resilience
/// state at commit time, so a resumed run replays the fault schedule from
/// exactly where the original left off.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Stage1Snapshot {
    predicted: Vec<String>,
    resilience: ResilienceSnapshot,
}

/// Stage-2 journal snapshot: the full topic-modeling result.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Stage2Snapshot {
    result: TopicModelingResult,
    resilience: ResilienceSnapshot,
}

/// Per-question journal snapshot: everything needed to restore the agent's
/// session (bindings, history) and re-render the answer byte-identically.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct QaSnapshot {
    record: AnswerRecord,
    resilience: ResilienceSnapshot,
}

/// One row whose topics were rewritten by a pending-pool flush.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TopicRewrite {
    row: u64,
    topics: Vec<String>,
}

/// Per-batch ingest journal delta: everything needed to replay the batch
/// byte-identically without re-running classification or re-summarization.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct IngestSnapshot {
    /// The batch texts themselves, so point-in-time recovery can replay
    /// this delta without the caller re-feeding the batch.
    texts: Vec<String>,
    /// Stage-1 labels for the batch rows, in batch order.
    predicted: Vec<String>,
    /// Final topics of the batch rows (post-flush, if one fired).
    topics: Vec<Vec<String>>,
    /// The full topic list after this batch (grows append-only).
    topic_list: Vec<String>,
    /// Row ids still pending re-summarization after this batch.
    pending: Vec<u64>,
    /// Earlier rows whose topics this batch's flush rewrote.
    rewrites: Vec<TopicRewrite>,
    assigned: u64,
    routed: u64,
    flushed: u64,
    coined: Vec<String>,
    resilience: ResilienceSnapshot,
}

/// Full-session checkpoint payload: everything point-in-time recovery
/// needs to rebuild an [`AllHands`] without the WAL prefix the matching
/// compaction dropped. Row embeddings, the demonstration pool, and
/// sentiments are deliberately absent — they are recomputed
/// deterministically from the texts (the embedder is stateless), keeping
/// checkpoints proportional to the structured state, not the vectors. The
/// document index is stored as its layout only and refilled from the
/// re-embedded rows on restore.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CheckpointState {
    texts: Vec<String>,
    row_labels: Vec<String>,
    doc_topics: Vec<Vec<String>>,
    topic_list: Vec<String>,
    /// Row ids pending re-summarization at checkpoint time.
    pending: Vec<u64>,
    /// Ingest batches applied at checkpoint time (= the checkpoint marker).
    batches: u64,
    /// Questions asked at checkpoint time.
    asked: u64,
    /// The full answer history, so a recovered agent keeps its session
    /// bindings and conversation context.
    answers: Vec<AnswerRecord>,
    resilience: ResilienceSnapshot,
    /// The incremental document index's layout (centroids, per-partition
    /// row ids in storage order, retrain counters), if it was built. `None`
    /// preserves the lazy build-on-first-use behavior across recovery.
    doc_index: Option<IvfState>,
}

fn jerr(e: JournalError) -> AllHandsError {
    match e {
        // A read-only trip is its own category: callers must be able to
        // distinguish "durability is gone, queries still work" from a
        // generic pipeline failure.
        JournalError::ReadOnly(m) => AllHandsError::ReadOnly(m),
        e => AllHandsError::Pipeline(format!("journal: {e}")),
    }
}

/// Digest of the durability policy fixed at construction —
/// [`IngestConfig`] plus [`CheckpointPolicy`] — folded into the run
/// fingerprint so the journal header pins the policy: resuming a journal
/// under a different assignment threshold or checkpoint cadence would
/// replay deltas that were cut at different boundaries, so it is refused
/// as a [`JournalError::RunMismatch`] instead of silently diverging.
fn policy_digest(config: &AllHandsConfig) -> String {
    let i = &config.ingest;
    let c = &config.checkpoint;
    format!(
        "assign={:?};pending={};nprobe={};pdocs={};stale={:?};ckpt_every={};ckpt_keep={}",
        i.assign_threshold,
        i.pending_threshold,
        i.ivf_nprobe,
        i.ivf_partition_docs,
        i.ivf_staleness,
        c.every_n_batches,
        c.keep_last_k
    )
}

/// Content fingerprint of a pipeline run's inputs — tier, corpus, labeled
/// demonstrations, predefined topics, durability policy. Deliberately
/// excludes the fault plan: a resumed run passes `crash_at = None` but must
/// match the crashed run's journal header.
fn run_fingerprint(
    tier: ModelTier,
    texts: &[String],
    labeled_sample: &[LabeledExample],
    predefined_topics: &[String],
    policy: &str,
) -> String {
    let tier_label = format!("{tier:?}");
    // Each collection is framed by a section tag and its element count;
    // without the framing, the flat length-prefixed parts would let inputs
    // shifted across collection boundaries (e.g. the last text moved into
    // the first labeled example) collide on the same fingerprint.
    let texts_count = (texts.len() as u64).to_le_bytes();
    let labeled_count = (labeled_sample.len() as u64).to_le_bytes();
    let topics_count = (predefined_topics.len() as u64).to_le_bytes();
    let mut parts: Vec<&[u8]> =
        vec![b"tier", tier_label.as_bytes(), b"texts", &texts_count];
    for t in texts {
        parts.push(t.as_bytes());
    }
    parts.push(b"labeled");
    parts.push(&labeled_count);
    for ex in labeled_sample {
        parts.push(ex.text.as_bytes());
        parts.push(ex.label.as_bytes());
    }
    parts.push(b"topics");
    parts.push(&topics_count);
    for t in predefined_topics {
        parts.push(t.as_bytes());
    }
    parts.push(b"policy");
    parts.push(policy.as_bytes());
    allhands_journal::fingerprint(parts)
}

/// How a run's write-ahead journal is attached.
#[derive(Debug, Clone)]
pub enum JournalMode {
    /// Open or create the journal under the directory; committed snapshots
    /// from an earlier (possibly crashed) run with the same inputs replay
    /// instead of recomputing. This is the classic `analyze_journaled` /
    /// `resume` behavior.
    Continue(PathBuf),
    /// Require a brand-new journal: the run errors if the directory already
    /// holds committed entries, so a fresh run can never silently consume a
    /// stale journal.
    Fresh(PathBuf),
}

impl JournalMode {
    fn dir(&self) -> &Path {
        match self {
            JournalMode::Continue(d) | JournalMode::Fresh(d) => d,
        }
    }
}

/// How observability is attached to a run.
#[derive(Debug, Clone, Default)]
pub enum RecorderMode {
    /// No recording: every instrumentation site is a single branch.
    #[default]
    Disabled,
    /// Record into a fresh [`Recorder`], retrievable afterwards via
    /// [`AllHands::recorder`] / [`AllHands::run_report`].
    Enabled,
    /// Record into a caller-provided handle (e.g. one shared across runs).
    Custom(Recorder),
}

impl RecorderMode {
    fn build(&self) -> Recorder {
        match self {
            RecorderMode::Disabled => Recorder::disabled(),
            RecorderMode::Enabled => Recorder::new(),
            RecorderMode::Custom(rec) => rec.clone(),
        }
    }
}

/// A point-in-time recovery target, counted in ingest batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverPoint {
    /// Restore to the state immediately after the 0-based batch ordinal
    /// was ingested. Errors if the journal's checkpoints + delta records
    /// cannot reach that batch.
    Batch(usize),
    /// Restore to the newest state the journal can reach.
    Latest,
}

/// Typed per-run options, grouped so the facade entry point stays one
/// method as options accrete.
#[derive(Clone, Default)]
pub struct AnalyzeOptions {
    /// Crash-safe journaling (`None` = unjournaled).
    pub journal: Option<JournalMode>,
    /// Metrics/tracing recording (disabled by default).
    pub recorder: RecorderMode,
    /// Point-in-time recovery target (`None` = run / resume normally).
    /// Requires a journal.
    pub recover: Option<RecoverPoint>,
    /// Storage backend for the journal (`None` = the real filesystem).
    /// Lets tests thread a [`FaultVfs`] under every journal I/O.
    pub vfs: Option<Arc<dyn Vfs>>,
    /// Follower bootstrap: install this leader-exported bundle into the
    /// (required, empty) journal before running. Requires a journal mode;
    /// recovery defaults to [`RecoverPoint::Latest`] so the session comes
    /// up holding the leader's state.
    pub bootstrap: Option<BootstrapBundle>,
    /// Read-replica mode: the session serves `ask` / `search_similar` but
    /// refuses `ingest`/`retract` and never journals its own answers — the
    /// only writes to its journal are replicated leader lines applied via
    /// [`AllHands::apply_tail`], keeping the WAL byte-identical to the
    /// leader's. Requires a journal mode.
    pub replica: bool,
}

impl std::fmt::Debug for AnalyzeOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalyzeOptions")
            .field("journal", &self.journal)
            .field("recorder", &self.recorder)
            .field("recover", &self.recover)
            .field("vfs", &self.vfs.as_ref().map(|_| "<dyn Vfs>"))
            .field("bootstrap", &self.bootstrap)
            .field("replica", &self.replica)
            .finish()
    }
}

/// Builder for an [`AllHands`] run — the single entry point replacing the
/// old `analyze` / `analyze_journaled` / `resume` triplet.
///
/// ```
/// use allhands_core::{AllHands, RecorderMode};
/// use allhands_classify::LabeledExample;
/// use allhands_llm::ModelTier;
///
/// let texts = vec!["the app crashes daily".to_string(), "love it".to_string()];
/// let labeled = vec![
///     LabeledExample { text: "crash report".into(), label: "informative".into() },
///     LabeledExample { text: "nice love it".into(), label: "non-informative".into() },
/// ];
/// let (mut ah, frame) = AllHands::builder(ModelTier::Gpt4)
///     .recorder(RecorderMode::Enabled)
///     .analyze(&texts, &labeled, &["crash".into()])
///     .unwrap();
/// assert_eq!(frame.n_rows(), 2);
/// assert!(ah.ask("How many feedback entries are there?").unwrap().error.is_none());
/// assert!(ah.run_report().counter("qa.questions") >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct AllHandsBuilder {
    tier: ModelTier,
    config: AllHandsConfig,
    options: AnalyzeOptions,
}

impl AllHandsBuilder {
    /// Replace the stage configuration (defaults otherwise).
    pub fn config(mut self, config: AllHandsConfig) -> Self {
        self.config = config;
        self
    }

    /// Replace the incremental-ingestion settings. The durability policy is
    /// fixed at construction: it is folded into the run fingerprint the
    /// journal header records, so a journal can only be resumed under the
    /// policy that produced it.
    pub fn ingest_config(mut self, ingest: IngestConfig) -> Self {
        self.config.ingest = ingest;
        self
    }

    /// Replace the checkpoint/compaction retention policy. Like
    /// [`ingest_config`](Self::ingest_config), fixed at construction and
    /// recorded (via the run fingerprint) in the journal header.
    pub fn checkpoints(mut self, policy: CheckpointPolicy) -> Self {
        self.config.checkpoint = policy;
        self
    }

    /// Build a read replica: the session serves `ask` / `search_similar`
    /// but refuses `ingest`/`retract` with [`AllHandsError::ReadOnly`], and
    /// never journals its own answers — its journal only ever receives
    /// replicated leader lines via [`AllHands::apply_tail`], so the WAL
    /// stays byte-identical to the leader's suffix. Combine with
    /// [`bootstrap`](Self::bootstrap) for a first start, or
    /// [`recover_latest`](Self::recover_latest) to reopen an existing
    /// replica journal. Requires a journal mode.
    pub fn replica(mut self) -> Self {
        self.options.replica = true;
        self
    }

    /// Replace the full option set at once.
    pub fn options(mut self, options: AnalyzeOptions) -> Self {
        self.options = options;
        self
    }

    /// Attach a crash-safe write-ahead journal.
    pub fn journal(mut self, mode: JournalMode) -> Self {
        self.options.journal = Some(mode);
        self
    }

    /// Attach observability.
    pub fn recorder(mut self, mode: RecorderMode) -> Self {
        self.options.recorder = mode;
        self
    }

    /// Point-in-time recovery: restore the state immediately after ingest
    /// batch `batch` (0-based) from the journal's checkpoints and delta
    /// records — the nearest checkpoint at or below the target is restored
    /// and the remaining deltas replay forward. Requires
    /// [`JournalMode::Continue`]; [`analyze`](Self::analyze) errors if the
    /// journal cannot reach the requested batch.
    pub fn recover_at(mut self, batch: usize) -> Self {
        self.options.recover = Some(RecoverPoint::Batch(batch));
        self
    }

    /// Point-in-time recovery to the newest state the journal can reach
    /// (all checkpointed batches plus every surviving delta record).
    pub fn recover_latest(mut self) -> Self {
        self.options.recover = Some(RecoverPoint::Latest);
        self
    }

    /// Replace the journal's storage backend (defaults to the real
    /// filesystem). Primarily for fault-injection tests: pass an
    /// `Arc<FaultVfs>` to exercise every journal I/O seam.
    pub fn vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.options.vfs = Some(vfs);
        self
    }

    /// Bootstrap a follower from a leader-exported bundle (see
    /// [`AllHands::export_bootstrap`]): the bundle's checkpoint + WAL
    /// suffix are verified (hash chain + run fingerprint) and installed
    /// into the journal, which must be empty. Requires a journal mode;
    /// unless an explicit recovery point is set, recovery defaults to
    /// [`RecoverPoint::Latest`] so the new session replays the installed
    /// state immediately.
    pub fn bootstrap(mut self, bundle: BootstrapBundle) -> Self {
        self.options.bootstrap = Some(bundle);
        self
    }

    /// Run the full three-stage pipeline on raw texts. See
    /// [`AllHands::builder`] for the contract details.
    pub fn analyze(
        self,
        texts: &[String],
        labeled_sample: &[LabeledExample],
        predefined_topics: &[String],
    ) -> Result<(AllHands, DataFrame), AllHandsError> {
        let recorder = self.options.recorder.build();
        if self.options.bootstrap.is_some() && self.options.journal.is_none() {
            return Err(AllHandsError::Pipeline(
                "bootstrap requires a journal: attach JournalMode::Continue(dir) (pointing at an empty directory) before bootstrap(bundle)"
                    .to_string(),
            ));
        }
        if self.options.replica && self.options.journal.is_none() {
            return Err(AllHandsError::Pipeline(
                "replica requires a journal: attach JournalMode::Continue(dir) before replica()"
                    .to_string(),
            ));
        }
        let journal = match &self.options.journal {
            None => None,
            Some(mode) => {
                let mut journal = match &self.options.vfs {
                    None => Journal::open(mode.dir()).map_err(jerr)?,
                    Some(vfs) => {
                        Journal::open_with(mode.dir(), Arc::clone(vfs)).map_err(jerr)?
                    }
                };
                if matches!(mode, JournalMode::Fresh(_))
                    && (!journal.is_empty() || journal.has_checkpoints())
                {
                    return Err(AllHandsError::Pipeline(format!(
                        "journal: JournalMode::Fresh requires an empty journal, but {} already holds {} entr{} and {} checkpoint(s)",
                        journal.path().display(),
                        journal.len(),
                        if journal.len() == 1 { "y" } else { "ies" },
                        journal.checkpoints().len()
                    )));
                }
                journal.set_recorder(recorder.clone());
                if let Some(bundle) = &self.options.bootstrap {
                    journal.bootstrap_from(bundle).map_err(jerr)?;
                }
                journal
                    .ensure_run(&run_fingerprint(
                        self.tier,
                        texts,
                        labeled_sample,
                        predefined_topics,
                        &policy_digest(&self.config),
                    ))
                    .map_err(jerr)?;
                Some(journal)
            }
        };
        // A bootstrapped follower should come up holding the leader's
        // state, so an unset recovery point defaults to Latest.
        let recover = match (self.options.recover, &self.options.bootstrap) {
            (None, Some(_)) => Some(RecoverPoint::Latest),
            (point, _) => point,
        };
        let replica = self.options.replica;
        let built = match (recover, journal) {
            (Some(point), Some(journal)) => AllHands::run_recovery(
                self.tier,
                texts,
                labeled_sample,
                predefined_topics,
                self.config,
                journal,
                recorder,
                point,
            ),
            (Some(_), None) => Err(AllHandsError::Pipeline(
                "recover requires a journal: attach JournalMode::Continue(dir) before recover_at / recover_latest"
                    .to_string(),
            )),
            (None, journal) => AllHands::run_pipeline(
                self.tier,
                texts,
                labeled_sample,
                predefined_topics,
                self.config,
                journal,
                recorder,
            ),
        };
        built.map(|(mut ah, frame)| {
            ah.replica = replica;
            (ah, frame)
        })
    }

    /// Build directly over an already-structured feedback frame, skipping
    /// the structuralization pipeline. Journaling options are not used on
    /// this path (there is no pipeline run to journal); the recorder is.
    pub fn from_frame(self, frame: DataFrame) -> AllHands {
        let recorder = self.options.recorder.build();
        let mut llm = SimLlm::new(ModelSpec::for_tier(self.tier));
        llm.set_recorder(recorder.clone());
        let mut agent = QaAgent::new(llm, frame, self.config.agent.clone());
        let resilience = Arc::new(ResilienceCtx::with_recorder(
            self.config.resilience,
            recorder.clone(),
        ));
        agent.set_resilience(Arc::clone(&resilience));
        AllHands {
            tier: self.tier,
            config: self.config,
            agent,
            resilience,
            journal: None,
            asked: 0,
            answers: Vec::new(),
            recorder,
            qa_span: None,
            ingest: None,
            ingest_span: None,
            replica: false,
            reads_served: 0,
        }
    }
}

/// Everything that went sideways during a run: quarantined (poison-pill)
/// documents and degradation notes. The `Display` impl renders the exact
/// human-readable report the old `String`-returning API produced.
#[derive(Debug, Clone)]
pub struct QuarantineReport {
    /// Dead-lettered documents, in quarantine order.
    pub quarantined: Vec<QuarantineRecord>,
    /// Degradation notes, in occurrence order.
    pub degradations: Vec<DegradationEvent>,
}

impl QuarantineReport {
    /// True when nothing was quarantined and nothing degraded.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && self.degradations.is_empty()
    }

    /// Number of quarantined documents.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.len()
    }

    /// Number of degradation notes.
    pub fn degradation_count(&self) -> usize {
        self.degradations.len()
    }
}

impl std::fmt::Display for QuarantineReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return write!(f, "clean run: no documents quarantined, no degradations");
        }
        writeln!(
            f,
            "degraded run: {} document(s) quarantined, {} degradation note(s)",
            self.quarantined.len(),
            self.degradations.len()
        )?;
        for q in &self.quarantined {
            writeln!(f, "  [{}] doc {}: {}", q.stage, q.doc_id, q.payload)?;
        }
        for d in &self.degradations {
            writeln!(f, "  ({}) {}", d.stage, d.note)?;
        }
        Ok(())
    }
}

/// Incremental-ingestion settings ([`AllHands::ingest`]).
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Minimum cosine similarity between a new document and an existing
    /// topic's embedding for direct assignment; below it the document is
    /// provisionally `"others"` and routed to the pending pool.
    pub assign_threshold: f32,
    /// Pending-pool size that triggers one bounded re-summarization round.
    pub pending_threshold: usize,
    /// Probe width for the incremental document index.
    pub ivf_nprobe: usize,
    /// Target documents per IVF partition when (re)training the document
    /// index; partition count is clamped to `[2, 64]`.
    pub ivf_partition_docs: usize,
    /// Staleness ratio (mutations since train ÷ len) past which the
    /// document index auto-retrains.
    pub ivf_staleness: f32,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            assign_threshold: 0.15,
            pending_threshold: 12,
            ivf_nprobe: 4,
            ivf_partition_docs: 64,
            ivf_staleness: 0.5,
        }
    }
}

/// What one [`AllHands::ingest`] batch did.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// 0-based batch ordinal.
    pub batch: usize,
    /// Rows this batch appended.
    pub new_rows: usize,
    /// Documents attached to an existing topic by embedding similarity.
    pub assigned: usize,
    /// Documents routed to the pending pool (provisionally `"others"`).
    pub routed_pending: usize,
    /// Pending documents re-summarized by this batch's flush (0 = no flush).
    pub flushed: usize,
    /// Topics the flush coined, in discovery order.
    pub coined: Vec<String>,
    /// Whether the document index auto-retrained during this batch.
    pub retrained: bool,
    /// Whether the batch replayed from the journal.
    pub replayed: bool,
    /// The full structured frame after this batch.
    pub frame: DataFrame,
}

/// What one [`AllHands::apply_tail`] call applied to a replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailReport {
    /// Replicated WAL lines installed.
    pub applied: usize,
    /// Ingest deltas among them, applied through snapshot replay.
    pub ingest_batches: usize,
    /// QA answer records among them, restored into the agent session.
    pub answers: usize,
    /// The replica journal's next seq after the apply.
    pub next_seq: u64,
    /// The replica journal's chain head after the apply — equal to the
    /// leader's at the same seq iff the histories are byte-identical.
    pub chain_head: String,
}

/// Pipeline state retained after `analyze` so later [`AllHands::ingest`]
/// batches extend the run instead of recomputing it.
struct IngestState {
    /// The pipeline LLM, kept alive so its embedder and memo caches keep
    /// amortizing across batches.
    llm: SimLlm,
    labeled_sample: Vec<LabeledExample>,
    labels: Vec<String>,
    /// The fitted demonstration pool. `None` on resumed runs whose stage 1
    /// replayed (never fit one); refit lazily at the first live batch.
    demos: Option<Arc<DemoIndex>>,
    topic_list: Vec<String>,
    /// Cached row embeddings aligned with `texts`, backfilled on demand;
    /// feeds both topic-centroid assignment and the document index.
    row_embeds: Vec<Embedding>,
    /// Incremental document index over all rows, built at first use.
    doc_index: Option<IvfIndex>,
    /// Row ids below the assignment threshold, awaiting the next flush.
    pending: Vec<usize>,
    texts: Vec<String>,
    row_labels: Vec<String>,
    sentiments: Vec<f64>,
    doc_topics: Vec<Vec<String>>,
    /// Batches ingested so far — the ordinal half of each journal key.
    batches: usize,
}

/// Automatic checkpoint cadence and retention, driven from
/// [`AllHands::ingest`] on journaled runs. Disabled by default so
/// un-checkpointed runs behave exactly as before (same journal contents,
/// same crash-point schedule).
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Write a checkpoint — and compact the journal behind it — after
    /// every N ingest batches. `0` disables automatic checkpointing.
    pub every_n_batches: usize,
    /// Checkpoints each compaction retains (clamped to at least 1). The
    /// journal keeps delta records back to the *oldest* retained
    /// checkpoint, so a later-corrupted newest checkpoint still leaves a
    /// recoverable older one.
    pub keep_last_k: usize,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        Self { every_n_batches: 0, keep_last_k: 2 }
    }
}

/// Facade configuration.
#[derive(Debug, Clone, Default)]
pub struct AllHandsConfig {
    /// Classification stage settings.
    pub icl: IclConfig,
    /// Topic modeling stage settings.
    pub topics: TopicModelingConfig,
    /// QA agent settings.
    pub agent: AgentConfig,
    /// Incremental ingestion settings.
    pub ingest: IngestConfig,
    /// Checkpoint + compaction retention (off by default).
    pub checkpoint: CheckpointPolicy,
    /// Resilience settings shared by all three stages (fault injection off
    /// by default — the default pipeline behaves exactly as if no
    /// resilience layer existed).
    pub resilience: ResilienceConfig,
}

/// The AllHands framework: one LLM tier driving all three stages.
pub struct AllHands {
    tier: ModelTier,
    config: AllHandsConfig,
    agent: QaAgent,
    /// The run-wide resilience context, shared across stages.
    resilience: Arc<ResilienceCtx>,
    /// Write-ahead journal when built with a [`JournalMode`]; `None` for
    /// unjournaled runs.
    journal: Option<Journal>,
    /// Questions asked so far — the ordinal half of each QA journal key.
    asked: usize,
    /// Answer records accumulated on journaled runs, in ask order — the QA
    /// history a checkpoint carries so a recovered agent keeps its session.
    answers: Vec<AnswerRecord>,
    /// The run-wide observability recorder (disabled unless requested).
    recorder: Recorder,
    /// The `qa` span, opened lazily at the first [`ask`](AllHands::ask) and
    /// held open so every `question[i]` nests under one `qa` root.
    qa_span: Option<SpanGuard>,
    /// Retained pipeline state enabling [`ingest`](AllHands::ingest);
    /// `None` when built from a pre-structured frame.
    ingest: Option<IngestState>,
    /// The `ingest` span, opened lazily at the first ingest batch and held
    /// open so every `batch[i]` nests under one `ingest` root. Closed when
    /// QA starts (and vice versa), so interleaved ask/ingest sequences
    /// produce sibling roots instead of nesting one family in the other.
    ingest_span: Option<SpanGuard>,
    /// Read-replica mode (see [`AllHandsBuilder::replica`]): `ask` serves
    /// without journaling, `ingest`/`retract` are refused, and state
    /// advances only through [`apply_tail`](AllHands::apply_tail).
    replica: bool,
    /// Replica-served reads, counted separately from `asked` (which stays
    /// the replicated QA ordinal so checkpoints converge with the leader's).
    reads_served: usize,
}

impl AllHands {
    /// Start building a run: pick a tier, then chain
    /// [`config`](AllHandsBuilder::config), [`journal`](AllHandsBuilder::journal),
    /// and [`recorder`](AllHandsBuilder::recorder) before calling
    /// [`analyze`](AllHandsBuilder::analyze) (full pipeline) or
    /// [`from_frame`](AllHandsBuilder::from_frame) (pre-structured data).
    ///
    /// The stages share one resilience context built from
    /// [`AllHandsConfig::resilience`]: under fault injection, classification
    /// falls back to a lexical prior, topic modeling skips refinement, and
    /// the QA agent answers partially — the pipeline degrades rather than
    /// failing, and every degradation is recorded on the context
    /// ([`AllHands::resilience`]). Errors that cannot be degraded around
    /// (e.g. inconsistent pipeline columns) are returned, never panicked.
    ///
    /// With [`JournalMode`] attached, each stage boundary is snapshotted to
    /// a write-ahead journal; a run that crashed part-way replays committed
    /// stages byte-identically on the next `Continue` run with the same
    /// inputs (the journal header pins a content fingerprint — resuming
    /// against different inputs is an error, never silent reuse). Later
    /// [`ask`](AllHands::ask) calls are journaled too.
    pub fn builder(tier: ModelTier) -> AllHandsBuilder {
        AllHandsBuilder {
            tier,
            config: AllHandsConfig::default(),
            options: AnalyzeOptions::default(),
        }
    }

    /// Build directly over an already-structured feedback frame (columns
    /// like `text`, `sentiment`, `topics`, …). Use
    /// [`AllHands::builder`]`.analyze(..)` to run the full structuralization
    /// pipeline first.
    pub fn from_frame(tier: ModelTier, frame: DataFrame, config: AllHandsConfig) -> Self {
        Self::builder(tier).config(config).from_frame(frame)
    }

    fn run_pipeline(
        tier: ModelTier,
        texts: &[String],
        labeled_sample: &[LabeledExample],
        predefined_topics: &[String],
        config: AllHandsConfig,
        mut journal: Option<Journal>,
        recorder: Recorder,
    ) -> Result<(Self, DataFrame), AllHandsError> {
        recorder.set_meta("tier", tier.name());
        recorder.set_meta("corpus_docs", &texts.len().to_string());
        recorder.set_meta("labeled_examples", &labeled_sample.len().to_string());
        recorder.set_meta("journaled", if journal.is_some() { "true" } else { "false" });
        let pipeline_span = recorder.span("pipeline");
        let mut llm = SimLlm::new(ModelSpec::for_tier(tier));
        llm.set_recorder(recorder.clone());
        let llm = llm;
        let resilience = Arc::new(ResilienceCtx::with_recorder(
            config.resilience,
            recorder.clone(),
        ));
        if let Some(j) = &mut journal {
            // Checkpoint/compaction seams participate in the same seeded
            // crash schedule as the stage boundaries.
            j.set_crash_hook(resilience.crash_hook());
        }

        // Stage 1: classification.
        let labels = distinct_labels(labeled_sample);
        let replayed = match &journal {
            Some(j) => j.lookup::<Stage1Snapshot>("stage1", "labels").map_err(jerr)?,
            None => None,
        };
        // The fitted demonstration pool, kept for incremental ingestion.
        // Stays `None` on the replay path: a resumed run only refits it if
        // a live ingest batch actually needs it.
        let mut demo_index: Option<Arc<DemoIndex>> = None;
        let predicted: Vec<String> = match replayed {
            Some(snap) => {
                recorder.incr("pipeline.stage_replays");
                resilience.restore(&snap.resilience);
                snap.predicted
            }
            None => {
                resilience.crash_point("stage1:start");
                let mut demos = DemoIndex::fit(&llm, labeled_sample, &labels, &config.icl);
                demos.set_recorder(recorder.clone());
                let demos = Arc::new(demos);
                demo_index = Some(Arc::clone(&demos));
                let classifier = IclClassifier::from_demos(&llm, demos, config.icl.clone())
                    .with_resilience(Arc::clone(&resilience));
                // Batch classification: per-text work runs data-parallel with
                // output byte-identical to classifying each text in order (see
                // `IclClassifier::classify_batch` for the determinism contract).
                let predicted: Vec<String> = classifier.classify_batch(texts);
                if let Some(j) = &mut journal {
                    let snap = Stage1Snapshot {
                        predicted: predicted.clone(),
                        resilience: resilience.snapshot(),
                    };
                    j.append("stage1", "labels", &snap).map_err(jerr)?;
                }
                resilience.crash_point("stage1:committed");
                predicted
            }
        };

        // Stage 2: abstractive topic modeling (+HITLR).
        let replayed = match &journal {
            Some(j) => j.lookup::<Stage2Snapshot>("stage2", "topics").map_err(jerr)?,
            None => None,
        };
        let result = match replayed {
            Some(snap) => {
                recorder.incr("pipeline.stage_replays");
                resilience.restore(&snap.resilience);
                snap.result
            }
            None => {
                resilience.crash_point("stage2:start");
                let modeler = AbstractiveTopicModeler::new(&llm, config.topics.clone())
                    .with_resilience(Arc::clone(&resilience));
                let result = modeler.run(texts, predefined_topics);
                if let Some(j) = &mut journal {
                    let snap =
                        Stage2Snapshot { result: result.clone(), resilience: resilience.snapshot() };
                    j.append("stage2", "topics", &snap).map_err(jerr)?;
                }
                resilience.crash_point("stage2:committed");
                result
            }
        };

        // Sentiment estimation: lexical valence via the text substrate.
        let sentiments: Vec<f64> = texts.iter().map(|t| estimate_sentiment(t)).collect();

        let frame = build_frame(texts, &predicted, &sentiments, &result.doc_topics)?;

        let mut agent = QaAgent::new(
            SimLlm::new(ModelSpec::for_tier(tier)),
            frame.clone(),
            config.agent.clone(),
        );
        agent.set_resilience(Arc::clone(&resilience));
        let ingest = IngestState {
            llm,
            labeled_sample: labeled_sample.to_vec(),
            labels,
            demos: demo_index,
            topic_list: result.topic_list,
            row_embeds: Vec::new(),
            doc_index: None,
            pending: Vec::new(),
            texts: texts.to_vec(),
            row_labels: predicted,
            sentiments,
            doc_topics: result.doc_topics,
            batches: 0,
        };
        drop(pipeline_span);
        Ok((
            AllHands {
                tier,
                config,
                agent,
                resilience,
                journal,
                asked: 0,
                answers: Vec::new(),
                recorder,
                qa_span: None,
                ingest: Some(ingest),
                ingest_span: None,
                replica: false,
                reads_served: 0,
            },
            frame,
        ))
    }

    /// Point-in-time recovery: restore the nearest checkpoint at or below
    /// the target batch, then replay the surviving delta records forward.
    /// Falls back to the ordinary pipeline path (which itself replays any
    /// surviving stage snapshots) when no usable checkpoint exists — a
    /// fully corrupt checkpoint set degrades, it never errors.
    #[allow(clippy::too_many_arguments)]
    fn run_recovery(
        tier: ModelTier,
        texts: &[String],
        labeled_sample: &[LabeledExample],
        predefined_topics: &[String],
        config: AllHandsConfig,
        journal: Journal,
        recorder: Recorder,
        point: RecoverPoint,
    ) -> Result<(Self, DataFrame), AllHandsError> {
        let rec = recorder.clone();
        let _recover_span = rec.span("recover");
        let decode_span = rec.span("decode");
        // Catalogue the surviving ingest deltas by batch ordinal (the
        // `b{idx:05}` key prefix); a later record for the same ordinal
        // (possible after an overlapping resume) wins. Undecodable deltas
        // are skipped, not fatal — recovery works from what is durable.
        let mut deltas: std::collections::BTreeMap<usize, IngestSnapshot> =
            std::collections::BTreeMap::new();
        for e in journal.entries() {
            if e.stage != "ingest" {
                continue;
            }
            let Some(ord) = e.key.get(1..6).and_then(|s| s.parse::<usize>().ok()) else {
                continue;
            };
            match allhands_journal::decode::<IngestSnapshot>(&e.payload) {
                Ok(snap) => {
                    deltas.insert(ord, snap);
                }
                Err(_) => recorder.incr("recover.undecodable_deltas"),
            }
        }
        // Decodable checkpoints stamped with this run's fingerprint, in
        // marker order. A checkpoint that no longer decodes (schema drift,
        // partial damage below the hash's radar) is skipped the same way a
        // hash-corrupt one was at open. Decoding is lazy and newest-first:
        // checkpoint payloads carry the full session state, and only the one
        // actually restored should pay the decode — older siblings exist
        // purely as fallbacks.
        let fp =
            run_fingerprint(tier, texts, labeled_sample, predefined_topics, &policy_digest(&config));
        let mut candidates: Vec<&allhands_journal::CheckpointRecord> = Vec::new();
        for c in journal.checkpoints() {
            if c.fingerprint != fp {
                recorder.incr("recover.foreign_checkpoints");
                continue;
            }
            candidates.push(c);
        }
        // Newest decodable checkpoint (walking back over drifted ones) —
        // its marker bounds what checkpoints alone can recover.
        let mut newest: Option<(u64, CheckpointState)> = None;
        for c in candidates.iter().rev() {
            match allhands_journal::decode::<CheckpointState>(&c.payload) {
                Ok(state) => {
                    newest = Some((c.marker, state));
                    break;
                }
                Err(_) => recorder.incr("recover.undecodable_checkpoints"),
            }
        }
        let available = std::cmp::max(
            deltas.keys().next_back().map_or(0, |&o| o + 1),
            newest.as_ref().map_or(0, |&(m, _)| m as usize),
        );
        let target = match point {
            RecoverPoint::Latest => available,
            RecoverPoint::Batch(k) => {
                if k + 1 > available {
                    return Err(AllHandsError::Pipeline(format!(
                        "recover: batch {k} is beyond this journal's coverage \
                         ({available} batch(es) recoverable)"
                    )));
                }
                k + 1
            }
        };
        // The newest decodable checkpoint serves unless the requested point
        // predates it; then walk further back, decoding only what the walk
        // actually visits. (If nothing decoded above, every candidate was
        // already tried — don't re-decode them here.)
        let walk_back = newest.as_ref().is_some_and(|&(m, _)| m as usize > target);
        let mut best = newest.filter(|&(m, _)| m as usize <= target);
        if walk_back {
            for c in candidates.iter().rev().filter(|c| c.marker as usize <= target) {
                match allhands_journal::decode::<CheckpointState>(&c.payload) {
                    Ok(state) => {
                        best = Some((c.marker, state));
                        break;
                    }
                    Err(_) => recorder.incr("recover.undecodable_checkpoints"),
                }
            }
        }
        drop(decode_span);
        let (mut ah, mut frame, mut applied) = match best {
            Some((marker, state)) => {
                let (ah, frame) = Self::restore_from_checkpoint(
                    tier,
                    config,
                    journal,
                    recorder,
                    labeled_sample,
                    state,
                    marker,
                )?;
                (ah, frame, marker as usize)
            }
            None => {
                let (ah, frame) = Self::run_pipeline(
                    tier,
                    texts,
                    labeled_sample,
                    predefined_topics,
                    config,
                    Some(journal),
                    recorder,
                )?;
                (ah, frame, 0)
            }
        };
        while applied < target {
            let Some(snap) = deltas.remove(&applied) else {
                match point {
                    RecoverPoint::Batch(_) => {
                        return Err(AllHandsError::Pipeline(format!(
                            "recover: no surviving delta record for batch {applied}; \
                             nearest recoverable state holds {applied} batch(es)"
                        )));
                    }
                    RecoverPoint::Latest => {
                        ah.resilience.note_degradation(
                            "recover",
                            format!(
                                "delta record for batch {applied} missing; \
                                 recovered {applied} of {target} batch(es)"
                            ),
                        );
                        break;
                    }
                }
            };
            let _delta_span = rec.span(&format!("delta[{applied}]"));
            frame = ah.replay_delta(applied, snap)?;
            applied += 1;
        }
        ah.recorder.set_meta("recovered_batches", &applied.to_string());
        Ok((ah, frame))
    }

    /// Rebuild a live session from one decoded checkpoint. Everything the
    /// checkpoint omits — sentiments, row embeddings, the demonstration
    /// pool, the document index's vectors — is recomputed deterministically
    /// from the restored texts, so the rebuilt session is byte-identical to
    /// the one that wrote the checkpoint. Row embedding stays lazy when the
    /// checkpoint has no document index.
    fn restore_from_checkpoint(
        tier: ModelTier,
        config: AllHandsConfig,
        mut journal: Journal,
        recorder: Recorder,
        labeled_sample: &[LabeledExample],
        state: CheckpointState,
        marker: u64,
    ) -> Result<(Self, DataFrame), AllHandsError> {
        let mut llm = SimLlm::new(ModelSpec::for_tier(tier));
        check_checkpoint(&state, marker, llm.embedder().dims())?;
        recorder.set_meta("tier", tier.name());
        recorder.set_meta("journaled", "true");
        recorder.set_meta("recovered_from_checkpoint", &marker.to_string());
        llm.set_recorder(recorder.clone());
        let llm = llm;
        let resilience = Arc::new(ResilienceCtx::with_recorder(
            config.resilience,
            recorder.clone(),
        ));
        resilience.restore(&state.resilience);
        journal.set_crash_hook(resilience.crash_hook());
        let frame_span = recorder.span("frame");
        let sentiments: Vec<f64> = state.texts.iter().map(|t| estimate_sentiment(t)).collect();
        let frame = build_frame(&state.texts, &state.row_labels, &sentiments, &state.doc_topics)?;
        let mut agent = QaAgent::new(
            SimLlm::new(ModelSpec::for_tier(tier)),
            frame.clone(),
            config.agent.clone(),
        );
        agent.set_resilience(Arc::clone(&resilience));
        for record in &state.answers {
            agent.restore_answer(record.clone());
        }
        drop(frame_span);
        let mut ingest = IngestState {
            llm,
            labeled_sample: labeled_sample.to_vec(),
            labels: distinct_labels(labeled_sample),
            demos: None,
            topic_list: state.topic_list,
            row_embeds: Vec::new(),
            doc_index: None,
            pending: state.pending.iter().map(|&r| r as usize).collect(),
            texts: state.texts,
            row_labels: state.row_labels,
            sentiments,
            doc_topics: state.doc_topics,
            batches: state.batches as usize,
        };
        if let Some(layout) = state.doc_index {
            // Every indexed row was inserted as `row_embeds[row]`, so
            // re-embedding the rows once refills the layout bit for bit.
            let rows = ingest.texts.len();
            {
                let _embed_span = recorder.span("embed");
                backfill_row_embeds(&mut ingest, &recorder, rows);
            }
            let _index_span = recorder.span("rebuild_index");
            let mut idx =
                IvfIndex::from_state(layout, |id| ingest.row_embeds.get(id as usize).cloned());
            idx.set_recorder(recorder.clone());
            ingest.doc_index = Some(idx);
        }
        Ok((
            AllHands {
                tier,
                config,
                agent,
                resilience,
                journal: Some(journal),
                asked: state.asked as usize,
                answers: state.answers,
                recorder,
                qa_span: None,
                ingest: Some(ingest),
                ingest_span: None,
                replica: false,
                reads_served: 0,
            },
            frame,
        ))
    }

    /// Apply one catalogued ingest delta during point-in-time recovery:
    /// the snapshot carries its own batch texts, so no caller re-feed is
    /// needed. Mirrors the journal-replay path of [`ingest`](Self::ingest).
    fn replay_delta(
        &mut self,
        batch_idx: usize,
        snap: IngestSnapshot,
    ) -> Result<DataFrame, AllHandsError> {
        let rec = self.recorder.clone();
        let cfg = self.config.ingest.clone();
        let Some(ing) = self.ingest.as_mut() else {
            return Err(AllHandsError::Pipeline(
                "recover: no ingestion state to replay a delta into".to_string(),
            ));
        };
        self.resilience.restore(&snap.resilience);
        rec.incr("recover.delta_replays");
        let batch = snap.texts.clone();
        let report = apply_ingest_snapshot(ing, &batch, snap, &rec, &cfg, batch_idx)?;
        ing.batches = batch_idx + 1;
        self.agent.set_frame(report.frame.clone());
        Ok(report.frame)
    }

    /// The LLM tier in use.
    pub fn tier(&self) -> ModelTier {
        self.tier
    }

    /// Ingest batches applied so far (live, replayed, or recovered); 0 on
    /// [`from_frame`](AllHands::from_frame) sessions.
    pub fn ingested_batches(&self) -> usize {
        self.ingest.as_ref().map_or(0, |i| i.batches)
    }

    /// The run-wide resilience context: degradation notes, breaker states,
    /// retry statistics.
    pub fn resilience(&self) -> &Arc<ResilienceCtx> {
        &self.resilience
    }

    /// The configuration.
    pub fn config(&self) -> &AllHandsConfig {
        &self.config
    }

    /// Ask a natural-language question about the feedback.
    ///
    /// On a journaled run (built with a [`JournalMode`]) each committed
    /// answer is snapshotted; a resumed run re-asking the same question
    /// sequence replays recorded answers (restoring the agent's session
    /// bindings and history) instead of recomputing them.
    ///
    /// Errors are storage-shaped, never answer-shaped: an answer that could
    /// not be *computed* still comes back `Ok` with the failure inside
    /// [`Response::error`] (the agent degrades, it does not throw), while
    /// the journal tripping into read-only mode **during this ask's
    /// append** returns [`AllHandsError::ReadOnly`] — the answer was served
    /// from memory but was never made durable, mirroring
    /// [`ingest`](Self::ingest)'s mid-batch convention. A session *already*
    /// in read-only mode keeps serving `Ok` answers (bounded-staleness
    /// reads survive storage degradation; the lost durability is noted
    /// once). On a replica session the question is answered from the
    /// replicated state and nothing is journaled.
    pub fn ask(&mut self, question: &str) -> Result<Response, AllHandsError> {
        if self.qa_span.is_none() {
            self.ingest_span = None;
            self.qa_span = Some(self.recorder.span("qa"));
        }
        if self.replica {
            // Replica sessions never journal their own answers — the
            // leader's QA entries arrive via `apply_tail`, and a local
            // append would fork the replicated hash chain. `asked` stays
            // the replicated QA ordinal; served reads count separately.
            let n = self.reads_served;
            self.reads_served += 1;
            let _question_span = self.recorder.span(&format!("read[{n}]"));
            self.recorder.incr("qa.replica_reads");
            return Ok(self.agent.ask(question));
        }
        let idx = self.asked;
        self.asked += 1;
        let _question_span = self.recorder.span(&format!("question[{idx}]"));
        let Some(journal) = &mut self.journal else {
            return Ok(self.agent.ask(question));
        };
        let key =
            format!("q{:03}:{}", idx, allhands_journal::fingerprint([question.as_bytes()]));
        match journal.lookup::<QaSnapshot>("qa", &key) {
            Ok(Some(snap)) => {
                self.resilience.restore(&snap.resilience);
                self.answers.push(snap.record.clone());
                return Ok(self.agent.restore_answer(snap.record));
            }
            Ok(None) => {}
            Err(e) => {
                // A corrupt QA snapshot is not worth failing the question
                // over: recompute the answer and note the degradation.
                self.resilience
                    .note_degradation("qa-agent", format!("journal replay failed ({e}); recomputing"));
            }
        }
        if let Some(reason) = journal.read_only_reason().map(str::to_string) {
            // Already read-only: keep answering (bounded-staleness reads
            // survive storage degradation), skip the doomed append, and
            // note the lost durability once rather than on every question.
            self.resilience.note_degradation_once(
                "qa-agent",
                &format!("journal is read-only ({reason}); answers no longer crash-safe"),
            );
            let response = self.agent.ask(question);
            let record = self.agent.record_answer(question, &response);
            self.answers.push(record);
            return Ok(response);
        }
        self.resilience.crash_point(&format!("qa:{key}:start"));
        let response = self.agent.ask(question);
        let record = self.agent.record_answer(question, &response);
        self.answers.push(record.clone());
        let snap = QaSnapshot { record, resilience: self.resilience.snapshot() };
        match journal.append("qa", &key, &snap) {
            Ok(()) => self.resilience.crash_point(&format!("qa:{key}:committed")),
            Err(JournalError::ReadOnly(m)) => {
                // The storage layer tripped read-only during this append.
                // The answer stays applied in memory, but the caller gets
                // the typed error: this answer was never made durable.
                self.resilience.note_degradation(
                    "qa-agent",
                    format!(
                        "journal tripped read-only ({m}); answer served from memory, not crash-safe"
                    ),
                );
                return Err(AllHandsError::ReadOnly(m));
            }
            Err(e) => {
                // The answer is still good — it is just not crash-safe.
                self.resilience
                    .note_degradation("qa-agent", format!("journal append failed ({e}); answer not crash-safe"));
            }
        }
        Ok(response)
    }

    /// Structured summary of everything that went sideways this run:
    /// quarantined (poison-pill) documents and degradation notes. The
    /// report's `Display` renders the familiar human-readable text (a
    /// single "clean" line when nothing went wrong), so existing
    /// `.to_string()` call sites keep their output byte-identical.
    pub fn quarantine_report(&self) -> QuarantineReport {
        QuarantineReport {
            quarantined: self.resilience.quarantined(),
            degradations: self.resilience.degradations(),
        }
    }

    /// The observability recorder for this run (disabled unless the run was
    /// built with [`RecorderMode::Enabled`] or a custom recorder).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Snapshot the run's observability state — counters, histograms, span
    /// tree, meta — as a [`RunReport`]. Spans still open (e.g. the `qa`
    /// root) appear with `duration_ms: null`.
    pub fn run_report(&self) -> RunReport {
        self.recorder.report()
    }

    /// The write-ahead journal backing this run, if journaled.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Export a follower-bootstrap bundle covering everything this
    /// session's journal holds: the newest checkpoint plus the WAL suffix
    /// past it, hash-sealed (see [`Journal::export_bootstrap`]). Feed it to
    /// `AllHands::builder(..).journal(..).bootstrap(bundle)` on an empty
    /// directory to bring up a byte-identical follower. Errors on an
    /// unjournaled session.
    pub fn export_bootstrap(&self) -> Result<BootstrapBundle, AllHandsError> {
        let Some(j) = self.journal.as_ref() else {
            return Err(AllHandsError::Pipeline(
                "export_bootstrap requires a journaled session (builder().journal(..))"
                    .to_string(),
            ));
        };
        j.export_bootstrap(j.next_seq()).map_err(jerr)
    }

    /// Ingest one batch of new feedback texts into the analyzed state.
    ///
    /// Stage 1 classifies only the new documents, re-using the
    /// demonstration pool fitted during
    /// [`analyze`](AllHandsBuilder::analyze). Stage 2 assigns each document
    /// to an existing topic by embedding similarity; documents below
    /// [`IngestConfig::assign_threshold`] are provisionally `"others"` and
    /// join a pending pool that triggers one bounded re-summarization round
    /// when it reaches [`IngestConfig::pending_threshold`] — rewriting
    /// those rows' topics and possibly coining new ones. The incremental
    /// document index absorbs the batch, auto-retraining once its
    /// staleness ratio passes [`IngestConfig::ivf_staleness`].
    ///
    /// On a journaled run each batch boundary writes a delta record; a
    /// crashed stream resumed with the same batch sequence replays
    /// committed batches byte-identically. The QA agent's frame is rebound
    /// after every batch, so later [`ask`](AllHands::ask) calls see all
    /// ingested rows.
    ///
    /// Errors on an [`AllHands::from_frame`] session: there is no pipeline
    /// state to ingest into.
    pub fn ingest(&mut self, batch: &[String]) -> Result<IngestReport, AllHandsError> {
        // Replicas take writes only from the leader's replicated journal
        // lines (`apply_tail`); a locally-ingested batch would fork the
        // replicated hash chain.
        if self.replica {
            return Err(AllHandsError::ReadOnly(
                "replica session: ingest goes to the leader; this session serves reads and applies replicated deltas"
                    .to_string(),
            ));
        }
        // A read-only (storage-degraded) journal refuses new state up
        // front: nothing is classified, nothing is applied, and the caller
        // gets the typed error. Queries (`ask`, `search_similar`) keep
        // serving the state already in memory.
        if let Some(reason) =
            self.journal.as_ref().and_then(|j| j.read_only_reason().map(str::to_string))
        {
            self.resilience.note_degradation_once(
                "ingest",
                &format!("journal is read-only (degraded): {reason}; batch refused"),
            );
            return Err(AllHandsError::ReadOnly(reason));
        }
        let Some(ing) = self.ingest.as_mut() else {
            return Err(AllHandsError::Pipeline(
                "ingest requires a pipeline-built session (builder().analyze(..)); \
                 from_frame sessions carry no ingestion state"
                    .to_string(),
            ));
        };
        if self.ingest_span.is_none() {
            self.qa_span = None;
            self.ingest_span = Some(self.recorder.span("ingest"));
        }
        let rec = self.recorder.clone();
        let cfg = self.config.ingest.clone();
        let batch_idx = ing.batches;
        ing.batches += 1;
        let _batch_span = rec.span(&format!("batch[{batch_idx}]"));
        rec.incr("ingest.batches");
        rec.add("ingest.docs", batch.len() as u64);
        let key = format!(
            "b{batch_idx:05}:{}",
            allhands_journal::fingerprint(batch.iter().map(|t| t.as_bytes()))
        );

        // Replay: a committed delta record restores the batch without
        // re-running classification or re-summarization.
        let replayed = match &self.journal {
            Some(j) => j.lookup::<IngestSnapshot>("ingest", &key).map_err(jerr)?,
            None => None,
        };
        if let Some(snap) = replayed {
            rec.incr("ingest.replays");
            let _replay_span = rec.span("replay");
            self.resilience.restore(&snap.resilience);
            let report = apply_ingest_snapshot(ing, batch, snap, &rec, &cfg, batch_idx)?;
            self.agent.set_frame(report.frame.clone());
            self.maybe_checkpoint(batch_idx);
            return Ok(report);
        }
        if self.journal.is_some() {
            self.resilience.crash_point(&format!("ingest:{key}:start"));
        }

        // Stage 1: classify only the new documents against the retained
        // demonstration pool.
        let demos = match &ing.demos {
            Some(d) => Arc::clone(d),
            None => {
                // Resumed run whose one-shot stage 1 replayed: fit lazily.
                let mut d =
                    DemoIndex::fit(&ing.llm, &ing.labeled_sample, &ing.labels, &self.config.icl);
                d.set_recorder(rec.clone());
                let d = Arc::new(d);
                ing.demos = Some(Arc::clone(&d));
                d
            }
        };
        let predicted: Vec<String> =
            IclClassifier::from_demos(&ing.llm, demos, self.config.icl.clone())
                .with_resilience(Arc::clone(&self.resilience))
                .classify_batch(batch);

        // Stage 2: similarity assignment against the existing topic list.
        let start_row = ing.texts.len();
        for (i, text) in batch.iter().enumerate() {
            ing.texts.push(text.clone());
            ing.row_labels.push(predicted[i].clone());
            ing.sentiments.push(estimate_sentiment(text));
        }
        let routed = {
            let _assign_span = rec.span("assign");
            backfill_row_embeds(ing, &rec, ing.texts.len());
            // Batch-static centroids: every document in the batch is scored
            // against the same targets, computed from the pre-batch state a
            // replayed run restores exactly — so assignment never depends on
            // within-batch order or on float drift from incremental updates.
            let centroids = topic_centroids(ing, start_row);
            let mut routed = 0usize;
            for row in start_row..ing.texts.len() {
                let emb = &ing.row_embeds[row];
                let mut best: Option<(usize, f32)> = None;
                for (j, c) in centroids.iter().enumerate() {
                    let Some(c) = c else { continue };
                    let s = emb.cosine(c);
                    // Strictly-greater under `total_cmp`: the first topic
                    // wins ties and a NaN similarity never wins.
                    let better = match best {
                        None => true,
                        Some((_, b)) => s.total_cmp(&b) == std::cmp::Ordering::Greater,
                    };
                    if better {
                        best = Some((j, s));
                    }
                }
                match best {
                    Some((j, s)) if s >= cfg.assign_threshold => {
                        ing.doc_topics.push(vec![ing.topic_list[j].clone()]);
                    }
                    _ => {
                        ing.pending.push(row);
                        ing.doc_topics.push(vec!["others".to_string()]);
                        routed += 1;
                    }
                }
            }
            routed
        };
        rec.add("ingest.assigned", (batch.len() - routed) as u64);
        rec.add("ingest.routed_pending", routed as u64);

        // Flush: one bounded re-summarization round over the pending pool.
        let mut rewrites: Vec<TopicRewrite> = Vec::new();
        let mut coined: Vec<String> = Vec::new();
        let mut flushed = 0usize;
        if ing.pending.len() >= cfg.pending_threshold {
            let _flush_span = rec.span("resummarize");
            rec.incr("ingest.flushes");
            let pending_rows = std::mem::take(&mut ing.pending);
            flushed = pending_rows.len();
            let pending_texts: Vec<String> =
                pending_rows.iter().map(|&r| ing.texts[r].clone()).collect();
            let before = ing.topic_list.len();
            let modeler = AbstractiveTopicModeler::new(&ing.llm, self.config.topics.clone())
                .with_resilience(Arc::clone(&self.resilience));
            let (new_topics, degraded, quarantined) =
                modeler.assign_pending(&pending_texts, &mut ing.topic_list, &ing.texts);
            coined = ing.topic_list[before..].to_vec();
            rec.add("ingest.coined", coined.len() as u64);
            if degraded > 0 {
                self.resilience.note_degradation_once(
                    "ingest",
                    &format!(
                        "re-summarization degraded for {degraded} pending document(s); kept \"others\""
                    ),
                );
            }
            if quarantined > 0 {
                self.resilience.note_degradation_once(
                    "ingest",
                    &format!(
                        "{quarantined} pending document(s) quarantined during re-summarization"
                    ),
                );
            }
            for (k, &row) in pending_rows.iter().enumerate() {
                ing.doc_topics[row] = new_topics[k].clone();
                rewrites.push(TopicRewrite { row: row as u64, topics: new_topics[k].clone() });
            }
        }

        // Index maintenance: the incremental document index absorbs the
        // batch, auto-retraining past the staleness threshold.
        let retrained = {
            let _index_span = rec.span("index");
            let batch_embeds: Vec<Embedding> = ing.row_embeds[start_row..].to_vec();
            let doc_index = ensure_doc_index(ing, &rec, &cfg, start_row);
            let before = doc_index.train_count();
            for (i, emb) in batch_embeds.into_iter().enumerate() {
                doc_index.insert(Record::new((start_row + i) as u64, emb));
            }
            doc_index.train_count() > before
        };
        rec.add("ingest.indexed", batch.len() as u64);

        // Journal delta: the batch boundary is the crash-consistency point.
        let snap = IngestSnapshot {
            texts: batch.to_vec(),
            predicted,
            topics: ing.doc_topics[start_row..].to_vec(),
            topic_list: ing.topic_list.clone(),
            pending: ing.pending.iter().map(|&r| r as u64).collect(),
            rewrites,
            assigned: (batch.len() - routed) as u64,
            routed: routed as u64,
            flushed: flushed as u64,
            coined: coined.clone(),
            resilience: self.resilience.snapshot(),
        };
        let mut readonly_trip: Option<String> = None;
        if let Some(j) = &mut self.journal {
            match j.append("ingest", &key, &snap) {
                Ok(()) => self.resilience.crash_point(&format!("ingest:{key}:committed")),
                Err(JournalError::ReadOnly(m)) => {
                    // The storage layer tripped read-only mid-batch. The
                    // batch stays applied in memory (queries keep serving
                    // it) but the caller gets the typed error: the batch
                    // was never made durable and re-feeding it after the
                    // storage is healthy again is the caller's move.
                    self.resilience.note_degradation(
                        "ingest",
                        format!(
                            "journal tripped read-only ({m}); batch applied in memory only, not crash-safe"
                        ),
                    );
                    readonly_trip = Some(m);
                }
                Err(e) => {
                    // The batch is still applied — it is just not crash-safe.
                    self.resilience.note_degradation(
                        "ingest",
                        format!("journal append failed ({e}); batch not crash-safe"),
                    );
                }
            }
        }

        let frame = build_frame(&ing.texts, &ing.row_labels, &ing.sentiments, &ing.doc_topics)?;
        self.agent.set_frame(frame.clone());
        if let Some(m) = readonly_trip {
            return Err(AllHandsError::ReadOnly(m));
        }
        self.maybe_checkpoint(batch_idx);
        Ok(IngestReport {
            batch: batch_idx,
            new_rows: batch.len(),
            assigned: batch.len() - routed,
            routed_pending: routed,
            flushed,
            coined,
            retrained,
            replayed: false,
            frame,
        })
    }

    /// Write a checkpoint (and compact the journal behind it) when the
    /// retention policy marks this batch ordinal as a boundary. Failures
    /// degrade — the batch stays applied, it is just not yet
    /// checkpoint-covered — but injected crash panics from the seeded
    /// seams propagate, exactly like the stage-boundary crash points.
    fn maybe_checkpoint(&mut self, batch_idx: usize) {
        let policy = self.config.checkpoint.clone();
        if policy.every_n_batches == 0 || (batch_idx + 1) % policy.every_n_batches != 0 {
            return;
        }
        if self.journal.is_none() {
            return;
        }
        let Some(ing) = self.ingest.as_ref() else { return };
        let state = CheckpointState {
            texts: ing.texts.clone(),
            row_labels: ing.row_labels.clone(),
            doc_topics: ing.doc_topics.clone(),
            topic_list: ing.topic_list.clone(),
            pending: ing.pending.iter().map(|&r| r as u64).collect(),
            batches: ing.batches as u64,
            asked: self.asked as u64,
            answers: self.answers.clone(),
            resilience: self.resilience.snapshot(),
            doc_index: ing.doc_index.as_ref().map(IvfIndex::to_state),
        };
        let _span = self.recorder.span("checkpoint");
        let marker = (batch_idx + 1) as u64;
        let keep = policy.keep_last_k.max(1);
        let j = self.journal.as_mut().expect("journal presence checked above");
        if let Err(e) = j.checkpoint(marker, &state).and_then(|()| j.compact(keep).map(|_| ())) {
            self.resilience.note_degradation(
                "checkpoint",
                format!("checkpoint at batch {batch_idx} failed ({e}); journal left uncompacted"),
            );
        }
    }

    /// Top-`k` rows most similar to `text` in the incremental document
    /// index, as `(row id, cosine score)` pairs, best first. Builds the
    /// index on first use. Requires a pipeline-built session.
    pub fn search_similar(
        &mut self,
        text: &str,
        k: usize,
    ) -> Result<Vec<(u64, f32)>, AllHandsError> {
        let cfg = self.config.ingest.clone();
        let Some(ing) = self.ingest.as_mut() else {
            return Err(AllHandsError::Pipeline(
                "search_similar requires a pipeline-built session (builder().analyze(..))"
                    .to_string(),
            ));
        };
        let query = ing.llm.embedder().embed(text);
        let rows = ing.texts.len();
        let index = ensure_doc_index(ing, &self.recorder, &cfg, rows);
        Ok(index.search(&query, k).into_iter().map(|h| (h.id, h.score)).collect())
    }

    /// Force-build the incremental document index now (it is otherwise
    /// built lazily at the first [`search_similar`](Self::search_similar)
    /// or ingest batch), so later
    /// [`search_similar_prepared`](Self::search_similar_prepared) calls can
    /// serve with `&self` only — e.g. many reader threads sharing one
    /// session behind an `RwLock` read guard. Deterministic: seeding from
    /// the same row state builds the same index whether it happens here or
    /// lazily.
    pub fn prepare_search(&mut self) -> Result<(), AllHandsError> {
        let cfg = self.config.ingest.clone();
        let Some(ing) = self.ingest.as_mut() else {
            return Err(AllHandsError::Pipeline(
                "prepare_search requires a pipeline-built session (builder().analyze(..))"
                    .to_string(),
            ));
        };
        let rows = ing.texts.len();
        ensure_doc_index(ing, &self.recorder, &cfg, rows);
        Ok(())
    }

    /// The `&self` half of the read-path borrow split: top-`k` rows most
    /// similar to `text`, requiring the document index to already exist
    /// (call [`prepare_search`](Self::prepare_search) once, or ingest a
    /// batch). Unlike [`search_similar`](Self::search_similar) this never
    /// mutates, so concurrent readers can share the session.
    pub fn search_similar_prepared(
        &self,
        text: &str,
        k: usize,
    ) -> Result<Vec<(u64, f32)>, AllHandsError> {
        let Some(ing) = self.ingest.as_ref() else {
            return Err(AllHandsError::Pipeline(
                "search_similar requires a pipeline-built session (builder().analyze(..))"
                    .to_string(),
            ));
        };
        let Some(index) = ing.doc_index.as_ref() else {
            return Err(AllHandsError::Pipeline(
                "search index not built yet: call prepare_search() (or ingest a batch) first"
                    .to_string(),
            ));
        };
        let query = ing.llm.embedder().embed(text);
        Ok(index.search(&query, k).into_iter().map(|h| (h.id, h.score)).collect())
    }

    /// Whether this session is a read replica (see
    /// [`AllHandsBuilder::replica`]).
    pub fn is_replica(&self) -> bool {
        self.replica
    }

    /// The journal's replication cursor position as `(next_seq,
    /// chain_head)`, if journaled. Two sessions at the same position hold
    /// byte-identical WAL histories — the convergence check replication
    /// tests assert.
    pub fn chain_position(&self) -> Option<(u64, String)> {
        self.journal.as_ref().map(|j| j.chain_position())
    }

    /// The run fingerprint the journal is bound to, if journaled and
    /// established.
    pub fn run_fingerprint(&self) -> Option<&str> {
        self.journal.as_ref().and_then(|j| j.run_fingerprint())
    }

    /// Replica catch-up: verify and install a slice of the leader's WAL
    /// suffix (from [`Journal::tail_after`] on the leader), then apply each
    /// entry to the in-memory state — ingest deltas replay through the same
    /// snapshot-application path recovery uses (the snapshot carries its
    /// own batch texts), QA entries restore the agent's answer history, and
    /// the header verifies the run fingerprint. Entries must arrive in
    /// chain order starting at this session's `next_seq`; anything else is
    /// refused before touching the journal file, so a failed stream leaves
    /// the replica at a clean entry boundary to resume from.
    ///
    /// The replica's own checkpoint policy applies as batches land, so a
    /// long-lived follower compacts its journal on the same cadence as the
    /// leader.
    pub fn apply_tail(&mut self, entries: &[allhands_journal::TailEntry]) -> Result<TailReport, AllHandsError> {
        if self.journal.is_none() {
            return Err(AllHandsError::Pipeline(
                "apply_tail requires a journaled session (builder().journal(..))".to_string(),
            ));
        }
        let mut ingest_batches = 0usize;
        let mut answers = 0usize;
        for te in entries {
            let entry = self
                .journal
                .as_mut()
                .expect("journal presence checked above")
                .append_raw(&te.line)
                .map_err(jerr)?;
            match entry.stage.as_str() {
                // The fingerprint was verified against the established run
                // by `append_raw`; nothing to apply.
                "header" => {}
                "ingest" => {
                    let ord = entry
                        .key
                        .get(1..6)
                        .and_then(|s| s.parse::<usize>().ok())
                        .ok_or_else(|| {
                            AllHandsError::Pipeline(format!(
                                "replication: malformed ingest key {:?} at seq {}",
                                entry.key, entry.seq
                            ))
                        })?;
                    let snap: IngestSnapshot =
                        allhands_journal::decode(&entry.payload).map_err(|e| {
                            AllHandsError::Pipeline(format!(
                                "replication: undecodable ingest delta at seq {}: {e}",
                                entry.seq
                            ))
                        })?;
                    let rec = self.recorder.clone();
                    let cfg = self.config.ingest.clone();
                    let Some(ing) = self.ingest.as_mut() else {
                        return Err(AllHandsError::Pipeline(
                            "replication: no ingestion state to apply a delta into".to_string(),
                        ));
                    };
                    if ord != ing.batches {
                        return Err(AllHandsError::Pipeline(format!(
                            "replication: batch {ord} arrived out of order (expected {})",
                            ing.batches
                        )));
                    }
                    self.resilience.restore(&snap.resilience);
                    let batch = snap.texts.clone();
                    let report = apply_ingest_snapshot(ing, &batch, snap, &rec, &cfg, ord)?;
                    ing.batches = ord + 1;
                    self.agent.set_frame(report.frame.clone());
                    rec.incr("replica.batches_applied");
                    ingest_batches += 1;
                    self.maybe_checkpoint(ord);
                }
                "qa" => {
                    let idx = entry
                        .key
                        .get(1..4)
                        .and_then(|s| s.parse::<usize>().ok())
                        .ok_or_else(|| {
                            AllHandsError::Pipeline(format!(
                                "replication: malformed qa key {:?} at seq {}",
                                entry.key, entry.seq
                            ))
                        })?;
                    let snap: QaSnapshot =
                        allhands_journal::decode(&entry.payload).map_err(|e| {
                            AllHandsError::Pipeline(format!(
                                "replication: undecodable qa snapshot at seq {}: {e}",
                                entry.seq
                            ))
                        })?;
                    self.resilience.restore(&snap.resilience);
                    self.answers.push(snap.record.clone());
                    let _ = self.agent.restore_answer(snap.record);
                    self.asked = self.asked.max(idx + 1);
                    self.recorder.incr("replica.answers_applied");
                    answers += 1;
                }
                // `stage1`/`stage2` snapshots only exist below any bundle's
                // export point, and anything else is foreign: neither can
                // be applied incrementally.
                other => {
                    return Err(AllHandsError::Pipeline(format!(
                        "replication: stage {other:?} at seq {} cannot be applied incrementally; re-bootstrap the replica",
                        entry.seq
                    )));
                }
            }
        }
        let (next_seq, chain_head) = self
            .journal
            .as_ref()
            .expect("journal presence checked above")
            .chain_position();
        Ok(TailReport {
            applied: entries.len(),
            ingest_batches,
            answers,
            next_seq,
            chain_head,
        })
    }

    /// Remove one row's vector from the incremental document index (e.g. a
    /// user deletion request): similarity search stops returning it, while
    /// the structured frame keeps the row. Returns whether the id was
    /// present. Not journaled — a resumed run rebuilds the index with the
    /// row present until `retract` is called again.
    pub fn retract(&mut self, id: u64) -> Result<bool, AllHandsError> {
        if self.replica {
            return Err(AllHandsError::ReadOnly(
                "replica session: retract goes to the leader; this session serves reads only"
                    .to_string(),
            ));
        }
        let cfg = self.config.ingest.clone();
        let Some(ing) = self.ingest.as_mut() else {
            return Err(AllHandsError::Pipeline(
                "retract requires a pipeline-built session (builder().analyze(..))".to_string(),
            ));
        };
        let rows = ing.texts.len();
        let index = ensure_doc_index(ing, &self.recorder, &cfg, rows);
        Ok(index.remove(id))
    }

    /// Register a custom analysis plugin available to generated code.
    pub fn register_plugin(&mut self, name: &str, f: allhands_query::plugins::PluginFn) {
        self.agent.register_plugin(name, f);
    }

    /// Access the underlying QA agent.
    pub fn agent_mut(&mut self) -> &mut QaAgent {
        &mut self.agent
    }
}

/// Distinct labels of the labeled sample, in first-appearance order — the
/// label vocabulary both the one-shot pipeline and a recovered session
/// classify against.
fn distinct_labels(labeled_sample: &[LabeledExample]) -> Vec<String> {
    let mut seen = Vec::new();
    for ex in labeled_sample {
        if !seen.contains(&ex.label) {
            seen.push(ex.label.clone());
        }
    }
    seen
}

/// Build the structured feedback frame: one row per text. Shared by the
/// one-shot pipeline and the ingest path so both produce byte-identical
/// tables for the same rows.
fn build_frame(
    texts: &[String],
    labels: &[String],
    sentiments: &[f64],
    doc_topics: &[Vec<String>],
) -> Result<DataFrame, AllHandsError> {
    let frame = DataFrame::new(vec![
        Column::from_i64s("id", &(0..texts.len() as i64).collect::<Vec<_>>()),
        Column::from_strings("text", texts.to_vec()),
        Column::from_strings("label", labels.to_vec()),
        Column::from_f64s("sentiment", sentiments),
        Column::from_str_lists("topics", doc_topics.to_vec()),
        Column::from_i64s(
            "text_len",
            &texts.iter().map(|t| t.chars().count() as i64).collect::<Vec<_>>(),
        ),
    ])?;
    Ok(frame)
}

/// Refuse a checkpoint whose parts disagree before any of it is used: one
/// label and topic row per text, pending row ids in range, and a
/// document-index layout of the session's dimensionality that places each
/// of its row ids — all below the row count — exactly once.
fn check_checkpoint(
    state: &CheckpointState,
    marker: u64,
    dims: usize,
) -> Result<(), AllHandsError> {
    let inconsistent = |detail: String| {
        AllHandsError::Pipeline(format!(
            "recover: checkpoint {marker} is internally inconsistent ({detail})"
        ))
    };
    let rows = state.texts.len();
    if state.row_labels.len() != rows || state.doc_topics.len() != rows {
        return Err(inconsistent(format!(
            "{rows} text(s), {} label(s), {} topic row(s)",
            state.row_labels.len(),
            state.doc_topics.len()
        )));
    }
    if let Some(&row) = state.pending.iter().find(|&&r| r >= rows as u64) {
        return Err(inconsistent(format!("pending row {row} of {rows} text(s)")));
    }
    let Some(layout) = &state.doc_index else { return Ok(()) };
    if layout.dims != dims as u64 {
        return Err(inconsistent(format!(
            "{}-dim document index for {dims}-dim embeddings",
            layout.dims
        )));
    }
    let mut placed = vec![false; rows];
    for r in layout.partitions.iter().flatten() {
        match usize::try_from(r.id).ok().and_then(|row| placed.get_mut(row)) {
            Some(seen) if !*seen => *seen = true,
            Some(_) => return Err(inconsistent(format!("document index repeats row {}", r.id))),
            None => {
                return Err(inconsistent(format!(
                    "document index holds row {} of {rows} text(s)",
                    r.id
                )))
            }
        }
    }
    Ok(())
}

/// Ensure every row before `upto` has a cached embedding, computing the
/// missing tail data-parallel (deterministic across thread counts).
fn backfill_row_embeds(ing: &mut IngestState, rec: &Recorder, upto: usize) {
    if ing.row_embeds.len() >= upto {
        return;
    }
    let missing = &ing.texts[ing.row_embeds.len()..upto];
    let embs: Vec<Embedding> =
        allhands_par::par_map_indexed_recorded(rec, "ingest.embed", missing, |_, t| {
            ing.llm.embedder().embed(t)
        });
    ing.row_embeds.extend(embs);
}

/// Per-topic assignment targets for the first `upto` rows: the mean
/// embedding of a topic's member rows, or the topic label's own embedding
/// while it has no members yet. `"others"` is never a target (`None`) —
/// landing there is exactly what routes a document to the pending pool.
///
/// Centroids are recomputed from row state each batch rather than updated
/// incrementally: the same `(doc_topics, row_embeds)` state yields the
/// same centroids whether it was reached live or by journal replay, so a
/// resumed run's later batches assign byte-identically.
fn topic_centroids(ing: &IngestState, upto: usize) -> Vec<Option<Embedding>> {
    let dims = ing.llm.embedder().dims();
    let mut sums: Vec<Embedding> = vec![Embedding::zeros(dims); ing.topic_list.len()];
    let mut counts = vec![0usize; ing.topic_list.len()];
    for (row, topics) in ing.doc_topics.iter().take(upto).enumerate() {
        for t in topics {
            if let Some(j) = ing.topic_list.iter().position(|x| x == t) {
                sums[j].add_scaled(&ing.row_embeds[row], 1.0);
                counts[j] += 1;
            }
        }
    }
    ing.topic_list
        .iter()
        .zip(sums)
        .zip(counts)
        .map(|((t, sum), n)| {
            if t == "others" {
                None
            } else if n == 0 {
                Some(ing.llm.embedder().embed(t))
            } else {
                let inv = 1.0 / n as f32;
                let mut values = sum.into_vec();
                for v in &mut values {
                    *v *= inv;
                }
                Some(Embedding::new(values))
            }
        })
        .collect()
}

/// Build the incremental document index on first use: embed and insert all
/// rows before `seed_rows` (the current batch is inserted by the caller),
/// train one partition per [`IngestConfig::ivf_partition_docs`] (clamped to
/// `[2, 64]`), and arm the staleness-ratio auto-retrain.
fn ensure_doc_index<'i>(
    ing: &'i mut IngestState,
    rec: &Recorder,
    cfg: &IngestConfig,
    seed_rows: usize,
) -> &'i mut IvfIndex {
    if ing.doc_index.is_none() {
        backfill_row_embeds(ing, rec, seed_rows);
        let mut idx = IvfIndex::new(ing.llm.embedder().dims(), cfg.ivf_nprobe.max(1));
        idx.set_recorder(rec.clone());
        idx.set_retrain_policy(Some(cfg.ivf_staleness));
        for (i, emb) in ing.row_embeds[..seed_rows].iter().enumerate() {
            idx.insert(Record::new(i as u64, emb.clone()));
        }
        idx.train((seed_rows / cfg.ivf_partition_docs.max(1)).clamp(2, 64));
        ing.doc_index = Some(idx);
    }
    ing.doc_index.as_mut().expect("document index built above")
}

/// Apply a committed ingest delta record: append the batch rows with the
/// recorded labels and topics, apply flush rewrites to earlier rows,
/// restore the topic list and pending pool, and feed the document index
/// the same insert sequence the live run performed (so auto-retrains fire
/// at the same points and the index structure matches).
fn apply_ingest_snapshot(
    ing: &mut IngestState,
    batch: &[String],
    snap: IngestSnapshot,
    rec: &Recorder,
    cfg: &IngestConfig,
    batch_idx: usize,
) -> Result<IngestReport, AllHandsError> {
    if snap.predicted.len() != batch.len() || snap.topics.len() != batch.len() {
        return Err(AllHandsError::Pipeline(format!(
            "journal: ingest snapshot for batch {batch_idx} holds {} label(s) / {} topic row(s) \
             for a {}-document batch",
            snap.predicted.len(),
            snap.topics.len(),
            batch.len()
        )));
    }
    let start_row = ing.texts.len();
    for (i, text) in batch.iter().enumerate() {
        ing.texts.push(text.clone());
        ing.row_labels.push(snap.predicted[i].clone());
        ing.sentiments.push(estimate_sentiment(text));
        ing.doc_topics.push(snap.topics[i].clone());
    }
    for rw in &snap.rewrites {
        let row = rw.row as usize;
        match ing.doc_topics.get_mut(row) {
            Some(slot) => *slot = rw.topics.clone(),
            None => {
                return Err(AllHandsError::Pipeline(format!(
                    "journal: ingest snapshot for batch {batch_idx} rewrites nonexistent row {row}"
                )))
            }
        }
    }
    ing.topic_list = snap.topic_list;
    ing.pending = snap.pending.iter().map(|&r| r as usize).collect();
    backfill_row_embeds(ing, rec, ing.texts.len());
    // Same insert sequence as the live run, so auto-retrains fire at the
    // same points and the rebuilt index structure matches.
    let retrained = {
        let batch_embeds: Vec<Embedding> = ing.row_embeds[start_row..].to_vec();
        let doc_index = ensure_doc_index(ing, rec, cfg, start_row);
        let before = doc_index.train_count();
        for (i, emb) in batch_embeds.into_iter().enumerate() {
            doc_index.insert(Record::new((start_row + i) as u64, emb));
        }
        doc_index.train_count() > before
    };
    let frame = build_frame(&ing.texts, &ing.row_labels, &ing.sentiments, &ing.doc_topics)?;
    Ok(IngestReport {
        batch: batch_idx,
        new_rows: batch.len(),
        assigned: snap.assigned as usize,
        routed_pending: snap.routed as usize,
        flushed: snap.flushed as usize,
        coined: snap.coined,
        retrained,
        replayed: true,
        frame,
    })
}

/// Lexical sentiment estimate in [-1, 1], blending a valence lexicon with
/// emoji valence — the lightweight "sentiment feature extraction" the
/// structured frame carries.
pub fn estimate_sentiment(text: &str) -> f64 {
    const POSITIVE: &[&str] = &[
        "love", "great", "amazing", "awesome", "fantastic", "excellent", "perfect",
        "wonderful", "smooth", "fast", "helpful", "thanks", "good", "nice", "keep",
    ];
    const NEGATIVE: &[&str] = &[
        "crash", "crashes", "bug", "broken", "error", "terrible", "awful", "worst",
        "horrible", "slow", "lag", "annoying", "hate", "bad", "wrong", "issue",
        "problem", "fails", "useless", "irrelevant", "suck", "sucks",
    ];
    let tokens = allhands_text::light_preprocess(text);
    let mut score = 0.0f64;
    let mut hits = 0usize;
    for tok in &tokens {
        if POSITIVE.contains(&tok.as_str()) {
            score += 1.0;
            hits += 1;
        } else if NEGATIVE.contains(&tok.as_str()) {
            score -= 1.0;
            hits += 1;
        }
    }
    for e in allhands_text::extract_emoji(text) {
        let v = allhands_text::emoji::emoji_valence(e) as f64;
        if v != 0.0 {
            score += v;
            hits += 1;
        }
    }
    if hits == 0 {
        0.0
    } else {
        (score / hits as f64).clamp(-1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_fingerprint_distinguishes_collection_boundaries() {
        let tier = ModelTier::Gpt35;
        let ex = |t: &str, l: &str| LabeledExample { text: t.into(), label: l.into() };
        // Identical flat byte sequence (t1, t2, e1, l1), three different
        // collection splits — every pair must fingerprint differently.
        let pol = policy_digest(&AllHandsConfig::default());
        let a = run_fingerprint(tier, &["t1".into(), "t2".into()], &[ex("e1", "l1")], &[], &pol);
        let b = run_fingerprint(tier, &["t1".into()], &[ex("t2", "e1")], &["l1".into()], &pol);
        let c = run_fingerprint(
            tier,
            &["t1".into(), "t2".into()],
            &[],
            &["e1".into(), "l1".into()],
            &pol,
        );
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        // And it stays deterministic for identical inputs.
        let a2 =
            run_fingerprint(tier, &["t1".into(), "t2".into()], &[ex("e1", "l1")], &[], &pol);
        assert_eq!(a, a2);
    }

    #[test]
    fn run_fingerprint_pins_the_durability_policy() {
        let tier = ModelTier::Gpt35;
        let texts = vec!["t1".to_string()];
        let base = policy_digest(&AllHandsConfig::default());
        let changed_cfg = AllHandsConfig {
            checkpoint: CheckpointPolicy { every_n_batches: 2, keep_last_k: 2 },
            ..AllHandsConfig::default()
        };
        let changed = policy_digest(&changed_cfg);
        assert_ne!(base, changed);
        assert_ne!(
            run_fingerprint(tier, &texts, &[], &[], &base),
            run_fingerprint(tier, &texts, &[], &[], &changed)
        );
    }

    #[test]
    fn checkpoint_with_a_bad_index_layout_is_refused() {
        let dims = 4;
        let mut idx = IvfIndex::new(dims, 1);
        for row in 0..3u64 {
            idx.insert(Record::new(row, Embedding::new(vec![row as f32 + 1.0, 0.0, 0.0, 1.0])));
        }
        let state = |doc_index: IvfState| CheckpointState {
            texts: (0..3).map(|i| format!("row {i}")).collect(),
            row_labels: vec!["bug".to_string(); 3],
            doc_topics: vec![vec!["crash".to_string()]; 3],
            topic_list: vec!["crash".to_string()],
            pending: vec![2],
            batches: 4,
            asked: 0,
            answers: Vec::new(),
            resilience: ResilienceCtx::new(ResilienceConfig::default()).snapshot(),
            doc_index: Some(doc_index),
        };
        assert!(check_checkpoint(&state(idx.to_state()), 4, dims).is_ok());

        let with_ids = |ids: [u64; 3]| {
            let mut layout = idx.to_state();
            for (r, id) in layout.partitions[0].iter_mut().zip(ids) {
                r.id = id;
            }
            layout
        };
        let mut pending_past_end = state(idx.to_state());
        pending_past_end.pending = vec![3];
        for (case, bad) in [
            ("past the last row", state(with_ids([0, 3, 2]))),
            ("far past the last row", state(with_ids([0, 1, u64::MAX]))),
            ("repeated", state(with_ids([0, 1, 0]))),
            ("wrong dims", state(IvfIndex::new(dims + 1, 1).to_state())),
            ("pending past the end", pending_past_end),
        ] {
            let err = check_checkpoint(&bad, 4, dims).expect_err(case).to_string();
            assert!(err.contains("checkpoint 4 is internally inconsistent"), "{case}: {err}");
        }
    }

    #[test]
    fn sentiment_signs() {
        assert!(estimate_sentiment("I love this great app 😍") > 0.5);
        assert!(estimate_sentiment("terrible crash bug 😡") < -0.5);
        assert_eq!(estimate_sentiment("the weather outside"), 0.0);
    }

    #[test]
    fn full_pipeline_smoke() {
        let texts: Vec<String> = (0..30)
            .map(|i| {
                if i % 2 == 0 {
                    format!("the app crashes with an error code {i}")
                } else {
                    format!("love the new look, great update {i}")
                }
            })
            .collect();
        let labeled: Vec<LabeledExample> = (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    LabeledExample {
                        text: format!("crash error report number {i}"),
                        label: "informative".into(),
                    }
                } else {
                    LabeledExample {
                        text: format!("nice great love it {i}"),
                        label: "non-informative".into(),
                    }
                }
            })
            .collect();
        let predefined = vec!["crash".to_string(), "praise".to_string()];
        let (mut ah, frame) = AllHands::builder(ModelTier::Gpt4)
            .recorder(RecorderMode::Enabled)
            .analyze(&texts, &labeled, &predefined)
            .unwrap();
        assert_eq!(frame.n_rows(), 30);
        for col in ["text", "label", "sentiment", "topics", "text_len"] {
            assert!(frame.has_column(col), "missing {col}");
        }
        let r = ah.ask("How many feedback entries are there?").expect("ask failed");
        assert!(r.error.is_none(), "{:?}", r.error);
        let report = ah.run_report();
        assert!(report.counter("classify.docs") >= 30);
        assert_eq!(report.counter("qa.questions"), 1);
        assert!(report.span_paths().iter().any(|p| p == "pipeline > classify"));
    }
}
