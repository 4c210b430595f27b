//! `serve_mixed`: an analyst team reading a corpus while new feedback
//! replicates into it. Writes are 40-document `ingest` batches on a leader
//! session; each is shipped to a replica through the journal tail
//! (`tail_after` → `apply_tail` + `prepare_search`, what a follower's
//! applier does), and between writes the replica serves reads, `ask` and
//! `search(k=10)` in turn.
//!
//! The end-to-end figures come from that replication path driven in
//! process, one step after another, over a fixed number of rounds: they
//! measure the sequential cost of replicating and reading, not contention
//! between the two. Through `Server`/`ServeClient` on a 2-core host,
//! sub-millisecond reads are dominated by thread wake-ups: read p50 varied
//! 1.0–2.1 ms and read p99 26–153 ms between runs of the same build.
//!
//! Every run then drives the shipped server (`ServeOptions::default()`: 2
//! followers, queue 32, checkpoints off) with a closed-loop writer and an
//! open-loop reader on two connections, so replication competes with reads
//! on the follower lock, and gates on every follower converging to the
//! leader. Its latencies and `serve.*` metrics are reported, not gated.
//!
//! Checkpoints stay off because the server breaks replication at its first
//! automatic checkpoint: `ingest` compacts the leader journal before the
//! writer thread reads the tail, so the replication cursor falls behind the
//! oldest retained entry (`tail cursor .. predates the oldest retained
//! entry .. (compacted)`). Checkpointed restart is measured by `build` and
//! `restart` instead.

use crate::layers::{self, Traces};
use crate::stats::{median, percentile, ratio};
use crate::{Ctx, Outcome};
use allhands::datasets::{generate_n, questions_for, DatasetKind};
use allhands::prelude::*;
use allhands::serve::{Corpus, ServeClient, ServeOptions, Server};
use serde_json::Value;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const CORPUS_DOCS: usize = 400;
const BATCH_DOCS: usize = 40;
const SEARCH_K: usize = 10;
/// Open-loop read rate of the server run (reads per second): about a third
/// of the ~280 reads/s one closed-loop reader reached against a single
/// follower while a writer ran, on a 2-core host.
const READ_RATE: f64 = 100.0;
/// Write batches the server run's closed-loop writer sends.
const SERVER_BATCHES: usize = 30;
/// Reads per write in the in-process rounds: what the server run's reader
/// completes per batch its closed-loop writer lands (see NOTES.md; every
/// run reports its own figure as `server_reads_per_write`).
const READS_PER_WRITE: usize = 4;
/// Rounds (one write and the reads after it) per leader/replica pair.
const ROUNDS: usize = 90;
/// Fresh leader/replica pairs, each running `ROUNDS` from the same corpus.
/// A pair stops early once it has spent its share of `--seconds`.
const PAIRS: u32 = 3;
/// The paper questions a read asks: those that only need the columns a
/// structured corpus has (text, label, sentiment, topics, text_len).
const READ_QUESTIONS: [(DatasetKind, &[u32]); 3] = [
    (DatasetKind::GoogleStoreApp, &[1, 6, 7, 19]),
    (DatasetKind::ForumPost, &[6, 10, 11]),
    (DatasetKind::MSearch, &[5, 9, 16]),
];

/// Read `i` is an `ask` when odd and a search when even: the two kinds in
/// equal shares, reported apart.
fn is_ask(i: usize) -> bool {
    i % 2 == 1
}

struct Inputs {
    corpus: Corpus,
    batches: Vec<Vec<String>>,
    questions: Vec<&'static str>,
    queries: Vec<String>,
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        let docs = generate_n(
            DatasetKind::GoogleStoreApp,
            BATCH_DOCS * ROUNDS.max(SERVER_BATCHES),
            seed ^ 0x0057_12ea,
        );
        let batches = docs
            .chunks(BATCH_DOCS)
            .map(|c| c.iter().map(|r| r.text.clone()).collect())
            .collect();
        let queries = generate_n(DatasetKind::GoogleStoreApp, 64, seed ^ 0x5ea2_c4e5)
            .into_iter()
            .map(|r| r.text)
            .collect();
        let questions = READ_QUESTIONS
            .iter()
            .flat_map(|&(kind, ids)| {
                questions_for(kind)
                    .into_iter()
                    .filter(|q| ids.contains(&q.id))
            })
            .map(|q| q.text)
            .collect();
        Inputs {
            corpus: Corpus::synthetic(CORPUS_DOCS, seed),
            batches,
            questions,
            queries,
        }
    }
}

fn num(v: &Value) -> f64 {
    match v {
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        Value::F64(x) => *x,
        _ => 0.0,
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        _ => "",
    }
}

/// Upper bound of the log2 bucket holding the histogram's p99.
fn hist_p99(h: &Value) -> f64 {
    let Value::Object(buckets) = &h["buckets"] else {
        return 0.0;
    };
    let mut counts: Vec<(u32, f64)> = buckets
        .iter()
        .filter_map(|(k, n)| Some((k.strip_prefix("2^")?.parse().ok()?, num(n))))
        .collect();
    counts.sort_by_key(|&(b, _)| b);
    let total: f64 = counts.iter().map(|&(_, n)| n).sum();
    let mut seen = 0.0;
    for (b, n) in counts {
        seen += n;
        if seen >= 0.99 * total {
            let upper = if b == 0 {
                0.0
            } else {
                ((1u64 << b) - 1) as f64
            };
            return upper.min(num(&h["max"]));
        }
    }
    0.0
}

/// Everything one server run measured.
struct ServerRun {
    ingest_ms: Vec<f64>,
    reads: Reads,
    drain_ms: f64,
    metrics: Value,
}

/// Closed loop: each batch is sent once its predecessor is acknowledged.
/// Returns (ack latencies, attempted, failed).
fn writer(socket: &Path, inputs: &Inputs) -> Result<(Vec<f64>, u64, u64), String> {
    let mut client = ServeClient::connect(socket).map_err(|e| e.to_string())?;
    let (mut ms, mut attempted, mut failed) = (Vec::new(), 0, 0);
    for batch in &inputs.batches[..SERVER_BATCHES] {
        attempted += 1;
        let t = Instant::now();
        match client.ingest(batch) {
            Ok(s) if s.new_rows == batch.len() as u64 => ms.push(t.elapsed().as_secs_f64() * 1e3),
            Ok(s) => {
                failed += 1;
                eprintln!(
                    "serve_mixed: ingest appended {} of {} rows",
                    s.new_rows,
                    batch.len()
                );
            }
            Err(e) => {
                failed += 1;
                eprintln!("serve_mixed: ingest failed: {e}");
            }
        }
    }
    Ok((ms, attempted, failed))
}

/// What the reader saw: latencies from due time per read kind, and how
/// late the generator sent each read.
#[derive(Default)]
struct Reads {
    ask_ms: Vec<f64>,
    search_ms: Vec<f64>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Open loop until the writer is `done`: read `i` is due at
/// `start + i / READ_RATE`; its latency runs from then, so a stall also
/// counts against the reads queued behind it.
fn reader(
    socket: &Path,
    inputs: &Inputs,
    start: Instant,
    done: &AtomicBool,
) -> Result<Reads, String> {
    let mut client = ServeClient::connect(socket).map_err(|e| e.to_string())?;
    let mut r = Reads::default();
    for i in 0usize.. {
        let due = start + Duration::from_secs_f64(i as f64 / READ_RATE);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if done.load(Ordering::Acquire) {
            break;
        }
        r.late_ms
            .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        r.attempted += 1;
        let n = i / 2;
        let ok = if is_ask(i) {
            match client.ask(inputs.questions[n % inputs.questions.len()]) {
                Ok(reply) => reply.error.is_none(),
                Err(e) => {
                    eprintln!("serve_mixed: ask failed: {e}");
                    false
                }
            }
        } else {
            match client.search(&inputs.queries[n % inputs.queries.len()], SEARCH_K) {
                Ok(hits) => !hits.is_empty() && hits.len() <= SEARCH_K,
                Err(e) => {
                    eprintln!("serve_mixed: search failed: {e}");
                    false
                }
            }
        };
        let ms = Instant::now().duration_since(due).as_secs_f64() * 1e3;
        if is_ask(i) {
            &mut r.ask_ms
        } else {
            &mut r.search_ms
        }
        .push(ms);
        r.failed += u64::from(!ok);
    }
    Ok(r)
}

/// After the writer stops: every follower drains to the leader's head with
/// the leader's chain and fingerprint, and replication is not broken.
fn convergence_gate(client: &mut ServeClient, out: &mut Outcome) -> Result<f64, String> {
    let t = Instant::now();
    let status = client
        .wait_replicated(Duration::from_secs(60))
        .map_err(|e| e.to_string())?;
    let drain_ms = t.elapsed().as_secs_f64() * 1e3;
    let leader = &status["leader"];
    let Value::Array(followers) = &status["followers"] else {
        return Err("status has no followers array".into());
    };
    for f in followers {
        let same = text(&f["chain"]) == text(&leader["chain"])
            && text(&f["fingerprint"]) == text(&leader["fingerprint"])
            && num(&f["seq"]) == num(&leader["seq"]);
        out.gate(same, || {
            format!("serve_mixed: follower diverged from leader: {f} vs {leader}")
        });
    }
    out.gate(status["broken"] == Value::Null, || {
        format!("serve_mixed: replication broken: {}", status["broken"])
    });
    Ok(drain_ms)
}

/// The shipped server under a closed-loop writer of `SERVER_BATCHES`
/// batches and an open-loop reader that runs while the writer does, then
/// the convergence gate.
fn serve_once(ctx: &Ctx, inputs: &Inputs, out: &mut Outcome) -> Result<ServerRun, String> {
    let socket = ctx.dir.join("s.sock");
    let data = ctx.scratch("server")?;
    let server = Server::start(&socket, &data, &inputs.corpus, ServeOptions::default())
        .map_err(|e| e.to_string())?;
    let done = AtomicBool::new(false);
    let start = Instant::now();
    let (w, r) = std::thread::scope(|s| {
        let w = s.spawn(|| {
            let res = writer(&socket, inputs);
            done.store(true, Ordering::Release);
            res
        });
        let r = s.spawn(|| reader(&socket, inputs, start, &done));
        (w.join(), r.join())
    });
    let (ingest_ms, w_attempted, w_failed) = w.map_err(|_| "writer thread panicked")??;
    let mut reads = r.map_err(|_| "reader thread panicked")??;

    let mut client = ServeClient::connect(&socket).map_err(|e| e.to_string())?;
    let drain_ms = convergence_gate(&mut client, out)?;
    if client.status().map_err(|e| e.to_string())?["broken"] != Value::Null {
        // Reads may have come from a replica that stopped replicating.
        reads.failed = reads.attempted;
    }
    let metrics = client.metrics().map_err(|e| e.to_string())?["report"].clone();
    client.shutdown().map_err(|e| e.to_string())?;
    server.run_until_shutdown();
    out.attempted += w_attempted + reads.attempted;
    out.failed += w_failed + reads.failed;
    Ok(ServerRun {
        ingest_ms,
        reads,
        drain_ms,
        metrics,
    })
}

/// The server run's report lines and `serve.*` layer metrics.
fn report_server(run: &ServerRun, out: &mut Outcome) {
    let reads = &run.reads;
    let read_ms = [reads.ask_ms.as_slice(), reads.search_ms.as_slice()].concat();
    out.named.extend([
        ("server_read_rate_per_s", READ_RATE, "1/s"),
        (
            "server_reads_per_write",
            ratio(reads.attempted as f64, SERVER_BATCHES as f64),
            "count",
        ),
        ("server_read_p50_ms", median(&read_ms), "ms"),
        ("server_read_p99_ms", percentile(&read_ms, 99.0), "ms"),
        ("server_ingest_p50_ms", median(&run.ingest_ms), "ms"),
    ]);
    let l = &mut out.layers;
    let vol = &run.metrics["volatile"];
    l.set(
        "serve.queue_depth.max",
        num(&vol["histograms"]["serve.queue_depth"]["max"]),
    );
    l.set(
        "serve.replication_lag.p99",
        hist_p99(&vol["histograms"]["serve.replication_lag"]),
    );
    let per_replica: Vec<f64> = match &vol["counters"] {
        Value::Object(m) => m
            .iter()
            .filter(|(k, _)| k.starts_with("serve.reads.replica"))
            .map(|(_, v)| num(v))
            .collect(),
        _ => Vec::new(),
    };
    let mean = ratio(per_replica.iter().sum(), per_replica.len() as f64);
    l.set(
        "serve.reads_skew",
        ratio(per_replica.iter().copied().fold(0.0, f64::max), mean),
    );
    l.set("serve.drain_ms", run.drain_ms);
    l.set("serve.generator_late_ms", percentile(&reads.late_ms, 99.0));
}

/// A leader session and a replica bootstrapped from its export.
struct Pair {
    leader: AllHands,
    replica: AllHands,
}

impl Pair {
    fn start(dir: &Path, inputs: &Inputs, mode: &RecorderMode) -> Result<Pair, String> {
        let err = |e: AllHandsError| e.to_string();
        let c = &inputs.corpus;
        let builder = || AllHands::builder(ModelTier::Gpt4).recorder(mode.clone());
        let (leader, _) = builder()
            .journal(JournalMode::Fresh(dir.join("leader")))
            .analyze(&c.texts, &c.labeled, &c.predefined)
            .map_err(err)?;
        let bundle = leader.export_bootstrap().map_err(err)?;
        let (mut replica, _) = builder()
            .journal(JournalMode::Continue(dir.join("replica")))
            .bootstrap(bundle)
            .replica()
            .analyze(&c.texts, &c.labeled, &c.predefined)
            .map_err(err)?;
        replica.prepare_search().map_err(err)?;
        Ok(Pair { leader, replica })
    }

    /// Ship everything the leader appended since the replica's head.
    fn replicate(&mut self, run: &mut PairRun) -> Result<(), String> {
        let err = |e: AllHandsError| e.to_string();
        let (cursor, _) = self
            .replica
            .chain_position()
            .ok_or("replica is not journaled")?;
        let tail = self
            .leader
            .journal()
            .ok_or("leader is not journaled")?
            .tail_after(cursor)
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        self.replica.apply_tail(&tail).map_err(err)?;
        run.apply_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        self.replica.prepare_search().map_err(err)?;
        run.prepare_ms.push(t.elapsed().as_secs_f64() * 1e3);
        Ok(())
    }
}

/// What one pair measured.
#[derive(Default)]
struct PairRun {
    /// Per write: leader `ingest` plus shipping it to the replica.
    write_ms: Vec<f64>,
    ingest_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    prepare_ms: Vec<f64>,
    ask_ms: Vec<f64>,
    search_ms: Vec<f64>,
    /// Per round: one write and the reads after it.
    round_ms: Vec<f64>,
    docs: f64,
    reports: Vec<RunReport>,
}

/// Closed loop of `ROUNDS` rounds, or fewer once `cap` is spent: one write,
/// shipped to the replica, then `READS_PER_WRITE` reads of the replica.
fn drive(
    pair: &mut Pair,
    inputs: &Inputs,
    cap: Duration,
    out: &mut Outcome,
) -> Result<PairRun, String> {
    let mut run = PairRun::default();
    let start = Instant::now();
    for (round, batch) in inputs.batches[..ROUNDS].iter().enumerate() {
        if round > 0 && start.elapsed() >= cap {
            eprintln!("serve_mixed: pair stopped after {round} of {ROUNDS} rounds");
            break;
        }
        let t_round = Instant::now();
        out.attempted += 1;
        let t = Instant::now();
        match pair.leader.ingest(batch) {
            Ok(rep) if rep.new_rows == batch.len() => run.docs += batch.len() as f64,
            Ok(rep) => {
                out.failed += 1;
                eprintln!(
                    "serve_mixed: ingest appended {} of {} rows",
                    rep.new_rows,
                    batch.len()
                );
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("serve_mixed: ingest failed: {e}");
            }
        }
        run.ingest_ms.push(t.elapsed().as_secs_f64() * 1e3);
        pair.replicate(&mut run)?;
        run.write_ms.push(t.elapsed().as_secs_f64() * 1e3);
        for i in round * READS_PER_WRITE..(round + 1) * READS_PER_WRITE {
            let n = i / 2;
            out.attempted += 1;
            let t = Instant::now();
            let ok = if is_ask(i) {
                let res = pair
                    .replica
                    .ask(inputs.questions[n % inputs.questions.len()]);
                run.ask_ms.push(t.elapsed().as_secs_f64() * 1e3);
                matches!(res, Ok(r) if r.error.is_none())
            } else {
                let query = &inputs.queries[n % inputs.queries.len()];
                let res = pair.replica.search_similar_prepared(query, SEARCH_K);
                run.search_ms.push(t.elapsed().as_secs_f64() * 1e3);
                matches!(res, Ok(hits) if !hits.is_empty() && hits.len() <= SEARCH_K)
            };
            out.failed += u64::from(!ok);
        }
        run.round_ms.push(t_round.elapsed().as_secs_f64() * 1e3);
    }
    // The replica must hold exactly the leader's history.
    let same = pair.replica.chain_position() == pair.leader.chain_position()
        && pair.replica.run_fingerprint() == pair.leader.run_fingerprint();
    out.gate(same, || {
        format!(
            "serve_mixed: replica at {:?} diverged from leader at {:?}",
            pair.replica.chain_position(),
            pair.leader.chain_position()
        )
    });
    run.reports = vec![pair.leader.run_report(), pair.replica.run_report()];
    Ok(run)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = Inputs::generate(ctx.seed);
    let cap = ctx.seconds / PAIRS;
    let mut setups = Vec::new();
    let mut runs = Vec::new();
    for i in 0..PAIRS {
        let dir = ctx.scratch(&format!("pair-{i}"))?;
        let t = Instant::now();
        let mut pair = Pair::start(&dir, &inputs, &RecorderMode::Disabled)?;
        setups.push(t.elapsed().as_secs_f64());
        runs.push(drive(&mut pair, &inputs, cap, &mut out)?);
    }
    out.setup_s = median(&setups);
    let pooled = |f: fn(&PairRun) -> &Vec<f64>| {
        runs.iter()
            .flat_map(|r| f(r).iter().copied())
            .collect::<Vec<f64>>()
    };
    let ask_ms = pooled(|r| &r.ask_ms);
    let search_ms = pooled(|r| &r.search_ms);
    let write_ms = pooled(|r| &r.write_ms);
    let docs: f64 = runs.iter().map(|r| r.docs).sum();
    out.throughput_per_s = ratio(docs * 1e3, write_ms.iter().sum());
    out.p50_ms = median(&search_ms);
    out.tail_ms = percentile(&ask_ms, 95.0);
    out.named = vec![
        ("writes", write_ms.len() as f64, "count"),
        ("replicated_docs_per_s", out.throughput_per_s, "1/s"),
        ("ingest_p50_ms", median(&pooled(|r| &r.ingest_ms)), "ms"),
        ("apply_p50_ms", median(&pooled(|r| &r.apply_ms)), "ms"),
        ("searches", search_ms.len() as f64, "count"),
        ("search_p50_ms", out.p50_ms, "ms"),
        ("search_p99_ms", percentile(&search_ms, 99.0), "ms"),
        ("asks", ask_ms.len() as f64, "count"),
        ("ask_p50_ms", median(&ask_ms), "ms"),
        ("ask_p95_ms", out.tail_ms, "ms"),
    ];

    let server = serve_once(ctx, &inputs, &mut out)?;
    report_server(&server, &mut out);
    if ctx.trace {
        traced_layers(ctx, &inputs, &pooled(|r| &r.round_ms), &mut out)?;
    }
    Ok(out)
}

/// One traced pair, capped like each untraced one: every layer but
/// `serve.*`.
fn traced_layers(
    ctx: &Ctx,
    inputs: &Inputs,
    untraced_round_ms: &[f64],
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = ctx.scratch("pair-traced")?;
    let mut pair = Pair::start(&dir, inputs, &RecorderMode::Enabled)?;
    let traced = drive(&mut pair, inputs, ctx.seconds / PAIRS, out)?;
    let t = Traces(traced.reports);
    let l = &mut out.layers;
    layers::fill_ingest(l, &t);
    layers::fill_qa(l, &t);
    l.set("vectordb.ivf.search_ms", median(&traced.search_ms));
    l.set("vectordb.prepare_search_ms", median(&traced.prepare_ms));
    l.set("core.apply_tail.ms_per_batch", median(&traced.apply_ms));
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    layers::fill_bookkeeping(
        l,
        &t,
        sum(&traced.round_ms),
        sum(&traced.prepare_ms) + sum(&traced.search_ms),
        traced.round_ms.len() as f64,
        median(untraced_round_ms),
        median(&traced.round_ms),
    );
    Ok(())
}
