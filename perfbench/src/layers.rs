//! Per-layer metrics of a traced run, and the helpers that read them out
//! of the program's own `RunReport`s.
//!
//! Every workload prints the whole table; a layer the workload leaves
//! idle reads 0.

use crate::stats::ratio;
use allhands::obs::{RunReport, SpanNode};
use std::collections::BTreeMap;

/// Every per-layer metric: (name, unit). Ratios and counts are per unit of
/// work (per cycle, batch, question, search, ...), so they do not depend on
/// how many iterations fit in the measured window.
pub const METRICS: &[(&str, &str)] = &[
    ("classify.ms", "ms"),
    ("classify.ms_per_doc", "ms"),
    ("llm.classify.calls_per_doc", "count"),
    ("par.probe_prefix_ms.classify", "ms"),
    ("topics.ms", "ms"),
    ("topics.round.ms", "ms"),
    ("topics.hac.ms", "ms"),
    ("llm.summarize.calls", "count"),
    ("embed.ms_per_text", "ms"),
    ("vectordb.flat.scanned_per_search", "count"),
    ("vectordb.ivf.search_ms", "ms"),
    ("vectordb.ivf.scanned_per_search", "count"),
    ("vectordb.ivf_auto_retrains", "count"),
    ("vectordb.prepare_search_ms", "ms"),
    ("journal.appends", "count"),
    ("journal.fsyncs", "count"),
    ("journal.bytes_per_doc", "B"),
    ("journal.open_ms", "ms"),
    ("journal.checkpoint.ms", "ms"),
    ("journal.checkpoint.bytes", "B"),
    ("journal.compact.bytes_reclaimed", "B"),
    ("core.ingest.assign_ms", "ms"),
    ("core.ingest.index_ms", "ms"),
    ("core.ingest.resummarize_ms", "ms"),
    ("core.ingest.checkpoint_ms", "ms"),
    ("core.recover.ms", "ms"),
    ("recover.delta_replays", "count"),
    ("core.apply_tail.ms_per_batch", "ms"),
    ("agent.plan.ms", "ms"),
    ("agent.codegen.ms", "ms"),
    ("agent.execute.ms", "ms"),
    ("qa.attempts_per_question", "count"),
    ("qa.reflections", "count"),
    ("query.execute.ms", "ms"),
    ("query.plan.cache.hit_rate", "ratio"),
    ("query.exec.fallback", "count"),
    ("query.plan.rows.pruned", "count"),
    ("serve.queue_depth.max", "count"),
    ("serve.replication_lag.p99", "count"),
    ("serve.reads_skew", "ratio"),
    ("serve.drain_ms", "ms"),
    ("serve.generator_late_ms", "ms"),
    ("par.build_speedup", "ratio"),
    ("unattributed_ms", "ms"),
    ("tracing_overhead_pct", "%"),
];

/// Span names that mark a layer boundary. A layer's time is the summed
/// duration of its outermost spans; whatever the timed public calls spend
/// outside them is `unattributed_ms`.
const LAYER_SPANS: &[&str] = &[
    "classify",
    "topics",
    "assign",
    "index",
    "resummarize",
    "checkpoint",
    "recover",
    "plan",
    "codegen",
    "execute",
    "reflect",
];

/// The per-layer metric table of one run.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            METRICS.iter().any(|(n, _)| *n == name),
            "per-layer metric {name} is not in METRICS"
        );
        self.0.insert(name, value);
    }

    /// (name, value, unit) for every metric in table order, 0 when unset.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        METRICS
            .iter()
            .map(|&(name, unit)| (name, self.0.get(name).copied().unwrap_or(0.0), unit))
    }
}

/// The `RunReport`s of one traced window, read as one.
#[derive(Default)]
pub struct Traces(pub Vec<RunReport>);

/// A span name without its `[i]` ordinal.
fn base(name: &str) -> &str {
    name.split('[').next().unwrap_or(name)
}

fn walk<'a>(
    nodes: &'a [SpanNode],
    path: &mut Vec<&'a str>,
    f: &mut impl FnMut(&[&str], &SpanNode) -> bool,
) {
    for n in nodes {
        path.push(base(&n.name));
        if f(path, n) {
            walk(&n.children, path, f);
        }
        path.pop();
    }
}

impl Traces {
    /// A deterministic or volatile counter, summed over every report.
    pub fn counter(&self, key: &str) -> f64 {
        self.0
            .iter()
            .map(|r| r.counter(key) + r.volatile_counters.get(key).copied().unwrap_or(0))
            .sum::<u64>() as f64
    }

    /// (total ms, count) of the spans whose base-name path ends with
    /// `suffix`, e.g. `["ingest", "batch", "assign"]`.
    pub fn spans(&self, suffix: &[&str]) -> (f64, usize) {
        let mut total = 0.0;
        let mut count = 0;
        for r in &self.0 {
            walk(&r.spans, &mut Vec::new(), &mut |path, node| {
                if path.ends_with(suffix) {
                    total += node.duration_ms.unwrap_or(0.0);
                    count += 1;
                }
                true
            });
        }
        (total, count)
    }

    /// Mean duration of the spans matching `suffix`.
    pub fn mean_span_ms(&self, suffix: &[&str]) -> f64 {
        let (total, count) = self.spans(suffix);
        ratio(total, count as f64)
    }

    /// Summed duration of the outermost layer spans (see `LAYER_SPANS`).
    pub fn layer_ms(&self) -> f64 {
        let mut total = 0.0;
        for r in &self.0 {
            walk(&r.spans, &mut Vec::new(), &mut |path, node| {
                let is_layer = path.last().is_some_and(|n| LAYER_SPANS.contains(n));
                if is_layer {
                    total += node.duration_ms.unwrap_or(0.0);
                }
                !is_layer
            });
        }
        total
    }

    /// Mean of a histogram (deterministic or volatile) over every report.
    pub fn hist_mean(&self, key: &str) -> f64 {
        let (mut sum, mut count) = (0u64, 0u64);
        for r in &self.0 {
            for h in [r.histograms.get(key), r.volatile_histograms.get(key)]
                .into_iter()
                .flatten()
            {
                sum += h.sum;
                count += h.count;
            }
        }
        ratio(sum as f64, count as f64)
    }
}

/// Fill the layers every journaled `analyze` + `ingest` + restart
/// sequence exercises. `cycles` counts the analyze runs in `t`, `restarts`
/// the recoveries.
pub fn fill_pipeline(l: &mut Layers, t: &Traces, cycles: f64, restarts: f64) {
    l.set(
        "classify.ms",
        ratio(t.spans(&["pipeline", "classify"]).0, cycles),
    );
    l.set(
        "topics.ms",
        ratio(t.spans(&["pipeline", "topics"]).0, cycles),
    );
    l.set("topics.round.ms", t.mean_span_ms(&["topics", "round"]));
    l.set("topics.hac.ms", t.mean_span_ms(&["topics", "hac"]));
    l.set(
        "llm.summarize.calls",
        ratio(t.counter("llm.summarize.calls"), cycles),
    );
    l.set(
        "vectordb.flat.scanned_per_search",
        ratio(
            t.counter("vectordb.scanned.flat"),
            t.counter("vectordb.searches.flat"),
        ),
    );
    l.set(
        "recover.delta_replays",
        ratio(t.counter("recover.delta_replays"), restarts),
    );
    fill_ingest(l, t);
}

/// Ingest-path layers: per-batch phase times, journal activity per batch,
/// and the document index.
pub fn fill_ingest(l: &mut Layers, t: &Traces) {
    // Classification of every document, by `analyze` and by `ingest`.
    let docs = t.counter("classify.docs");
    let classify_ms = t.spans(&["pipeline", "classify"]).0 + t.spans(&["batch", "classify"]).0;
    l.set("classify.ms_per_doc", ratio(classify_ms, docs));
    l.set(
        "llm.classify.calls_per_doc",
        ratio(t.counter("llm.classify.calls"), docs),
    );
    l.set(
        "par.probe_prefix_ms.classify",
        t.hist_mean("par.probe_prefix_ms.classify"),
    );

    let batches = t.counter("ingest.batches");
    let per_batch = |phase: &str| ratio(t.spans(&["ingest", "batch", phase]).0, batches);
    l.set("core.ingest.assign_ms", per_batch("assign"));
    l.set("core.ingest.index_ms", per_batch("index"));
    l.set("core.ingest.resummarize_ms", per_batch("resummarize"));
    l.set("core.ingest.checkpoint_ms", per_batch("checkpoint"));
    for key in [
        "journal.appends",
        "journal.fsyncs",
        "vectordb.ivf_auto_retrains",
    ] {
        l.set(key, ratio(t.counter(key), batches));
    }
    let writes = t.counter("journal.checkpoint.writes");
    l.set(
        "journal.checkpoint.ms",
        ratio(t.spans(&["ingest", "batch", "checkpoint"]).0, writes),
    );
    l.set(
        "journal.checkpoint.bytes",
        ratio(t.counter("journal.checkpoint.bytes"), writes),
    );
    l.set(
        "journal.compact.bytes_reclaimed",
        ratio(
            t.counter("journal.compact.bytes_reclaimed"),
            t.counter("journal.compact.runs"),
        ),
    );
    l.set(
        "vectordb.ivf.scanned_per_search",
        ratio(
            t.counter("vectordb.scanned.ivf"),
            t.counter("vectordb.searches.ivf"),
        ),
    );
}

/// QA layers, per question asked.
pub fn fill_qa(l: &mut Layers, t: &Traces) {
    let questions = t.counter("qa.questions");
    let per_q = |v: f64| ratio(v, questions);
    l.set("agent.plan.ms", per_q(t.spans(&["plan"]).0));
    l.set("agent.codegen.ms", per_q(t.spans(&["codegen"]).0));
    l.set("agent.execute.ms", per_q(t.spans(&["execute"]).0));
    l.set("qa.attempts_per_question", per_q(t.counter("qa.attempts")));
    l.set("qa.reflections", per_q(t.counter("qa.reflections")));
    let hits = t.counter("query.plan.cache.hits");
    l.set(
        "query.plan.cache.hit_rate",
        ratio(hits, hits + t.counter("query.plan.cache.misses")),
    );
    l.set(
        "query.exec.fallback",
        per_q(t.counter("query.exec.fallback")),
    );
    l.set(
        "query.plan.rows.pruned",
        per_q(t.counter("query.plan.rows.pruned")),
    );
}

/// `unattributed_ms` per unit of work and `tracing_overhead_pct`.
/// `timed_ms` is the summed duration of the timed public calls of the
/// traced window, `extra_attributed_ms` the part of it the benchmark timed
/// around calls the program opens no span for.
pub fn fill_bookkeeping(
    l: &mut Layers,
    t: &Traces,
    timed_ms: f64,
    extra_attributed_ms: f64,
    units: f64,
    untraced_ms_per_unit: f64,
    traced_ms_per_unit: f64,
) {
    let unattributed = (timed_ms - t.layer_ms() - extra_attributed_ms).max(0.0);
    l.set("unattributed_ms", ratio(unattributed, units));
    l.set(
        "tracing_overhead_pct",
        ratio(
            traced_ms_per_unit - untraced_ms_per_unit,
            untraced_ms_per_unit,
        ) * 100.0,
    );
}
