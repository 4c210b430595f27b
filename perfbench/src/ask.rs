//! `ask`: one analyst asking the paper's 90 questions (Tables 5–7) of the
//! three Table-1 corpora at paper size. Closed loop, in process; each round
//! asks all 90 in a seeded order, one round per second of the run's
//! `--seconds`, so a run does the same asks whatever the program's speed.

use crate::layers::{self, Layers, Traces};
use crate::stats::{median, percentile, ratio};
use crate::{Ctx, Outcome};
use allhands::agent::AgentConfig;
use allhands::datasets::{dataset_frame, generate, questions_for, DatasetKind, QuestionSpec};
use allhands::eval::{gold_outputs, judge};
use allhands::prelude::*;
use allhands::query::{QueryEngine, RtValue, Session};
use std::collections::BTreeMap;
use std::time::Instant;

/// Judged correctness of an answer that matches the reference output.
const MATCH: f64 = 5.0;
/// Session builds timed for set-up.
const SETUPS: usize = 7;
/// A run stops early, and says so, once its rounds take this many times
/// `--seconds`: a guard for the run's time limit, not a measuring window.
const CAP: u32 = 3;
/// Questions whose answer missed the reference output (judged below 5) on
/// at least one seed tried when the benchmark was written (1–38, and 45
/// in an earlier check): 14 to 18 per seed, 18 in all. GoogleStoreApp q26
/// and q30, ForumPost q27 and q29 and MSearch q29 missed on some seeds
/// only. A miss on any other question fails the run; a miss is not a
/// failed ask, so `failed` does not depend on the seed.
const KNOWN_MISMATCHES: [(DatasetKind, &[u32]); 3] = [
    (DatasetKind::GoogleStoreApp, &[4, 6, 14, 15, 21, 26, 28, 30]),
    (DatasetKind::ForumPost, &[8, 13, 14, 18, 27, 29, 30]),
    (DatasetKind::MSearch, &[13, 29, 30]),
];

/// One corpus with its session and the questions asked of it.
struct Corpus {
    kind: DatasetKind,
    frame: DataFrame,
    questions: Vec<QuestionSpec>,
    gold: Vec<Vec<RtValue>>,
}

/// SplitMix64: the seeded question order.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

fn sessions(frames: Vec<DataFrame>, mode: &RecorderMode) -> Vec<AllHands> {
    frames
        .into_iter()
        .map(|frame| {
            AllHands::builder(ModelTier::Gpt4)
                .recorder(mode.clone())
                .from_frame(frame)
        })
        .collect()
}

fn frames(corpora: &[Corpus]) -> Vec<DataFrame> {
    corpora.iter().map(|c| c.frame.clone()).collect()
}

fn render(shown: &[RtValue]) -> String {
    shown
        .iter()
        .map(RtValue::render)
        .collect::<Vec<_>>()
        .join("\n")
}

/// One judged answer, kept from the first round for the engine gate.
struct Answer {
    corpus: usize,
    question: usize,
    code: String,
    shown: String,
}

struct Window {
    latency_ms: Vec<f64>,
    /// Questions answered per second of ask time, one entry per round.
    round_rate: Vec<f64>,
    correctness: Vec<f64>,
    /// Answered asks whose answer did not match the reference.
    mismatched: u64,
    first_round: Vec<Answer>,
    reports: Vec<RunReport>,
}

/// Ask `rounds` rounds of all questions, each in a seeded order. Every
/// answer is judged against the reference program's output, and a question
/// must be judged the same each time it is asked.
fn measure(
    ctx: &Ctx,
    corpora: &[Corpus],
    mode: RecorderMode,
    rounds: usize,
    out: &mut Outcome,
) -> Window {
    let mut ahs = sessions(frames(corpora), &mode);
    let mut order: Vec<(usize, usize)> = corpora
        .iter()
        .enumerate()
        .flat_map(|(c, corpus)| (0..corpus.questions.len()).map(move |q| (c, q)))
        .collect();
    let mut rng = Rng(ctx.seed);
    let mut judged: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let mut w = Window {
        latency_ms: Vec::new(),
        round_rate: Vec::new(),
        correctness: Vec::new(),
        mismatched: 0,
        first_round: Vec::new(),
        reports: Vec::new(),
    };
    let start = Instant::now();
    for round in 0..rounds {
        if round > 0 && start.elapsed() >= ctx.seconds * CAP {
            eprintln!("ask: stopped after {round} of {rounds} rounds");
            break;
        }
        rng.shuffle(&mut order);
        let mut round_ms = 0.0;
        for &(c, q) in &order {
            let corpus = &corpora[c];
            let spec = &corpus.questions[q];
            out.attempted += 1;
            let t = Instant::now();
            let res = ahs[c].ask(spec.text);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            w.latency_ms.push(ms);
            round_ms += ms;
            let resp = match res {
                Ok(resp) => resp,
                Err(e) => {
                    out.failed += 1;
                    eprintln!("ask: {} q{} failed: {e}", corpus.kind.name(), spec.id);
                    continue;
                }
            };
            // A given-up ask (`Response::error`) is a failed operation. An
            // answer must match the reference program's output (judged 5)
            // unless its question is a known mismatch.
            if resp.error.is_some() {
                out.failed += 1;
            }
            let score = judge(spec, &resp, &corpus.gold[q]).correctness;
            w.correctness.push(score);
            if score < MATCH {
                w.mismatched += 1;
                let known = KNOWN_MISMATCHES
                    .iter()
                    .any(|&(kind, ids)| kind == corpus.kind && ids.contains(&spec.id));
                out.gate(known, || {
                    format!(
                        "ask: {} q{} no longer matches its reference output (judged {score})",
                        corpus.kind.name(),
                        spec.id
                    )
                });
            }
            let first = *judged.entry((c, q)).or_insert(score);
            out.gate(first == score, || {
                format!(
                    "ask: {} q{} judged {score} after {first} earlier in the run",
                    corpus.kind.name(),
                    spec.id
                )
            });
            if round == 0 && resp.error.is_none() && !resp.code.is_empty() {
                w.first_round.push(Answer {
                    corpus: c,
                    question: q,
                    code: resp.code,
                    shown: render(&resp.shown),
                });
            }
        }
        w.round_rate.push(ratio(order.len() as f64 * 1e3, round_ms));
    }
    w.reports = ahs.iter().map(AllHands::run_report).collect();
    w
}

/// Re-run each first-round program in a fresh session under both query
/// engines: both must render exactly what the agent showed. Returns the
/// mean vectorized `Session::execute` time in ms.
fn engine_gate(corpora: &[Corpus], answers: &[Answer], out: &mut Outcome) -> f64 {
    let mut vectorized_ms = Vec::with_capacity(answers.len());
    for a in answers {
        let corpus = &corpora[a.corpus];
        for engine in [QueryEngine::Vectorized, QueryEngine::RowWise] {
            let mut session = Session::new(AgentConfig::default().limits);
            session.set_engine(engine);
            session.bind_frame("feedback", corpus.frame.clone());
            let t = Instant::now();
            let cell = session.execute(&a.code);
            if engine == QueryEngine::Vectorized {
                vectorized_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            let same = cell.error.is_none() && render(&cell.shown) == a.shown;
            out.gate(same, || {
                format!(
                    "ask: {} q{} renders differently under {engine:?} (error {:?})",
                    corpus.kind.name(),
                    corpus.questions[a.question].id,
                    cell.error
                )
            });
        }
    }
    median(&vectorized_ms)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let corpora: Vec<Corpus> = DatasetKind::all()
        .into_iter()
        .map(|kind| {
            let frame = dataset_frame(kind, &generate(kind, ctx.seed));
            let questions = questions_for(kind);
            let gold = questions.iter().map(|q| gold_outputs(q, &frame)).collect();
            Corpus {
                kind,
                frame,
                questions,
                gold,
            }
        })
        .collect();
    // Set-up is building a session over each corpus (`from_frame`): a few
    // milliseconds, so repeated for a steady median. The first build in a
    // process is the slowest.
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let frames = frames(&corpora);
        let t = Instant::now();
        let ahs = sessions(frames, &RecorderMode::Disabled);
        setups.push(t.elapsed().as_secs_f64());
        drop(ahs);
    }
    out.setup_s = median(&setups);

    let rounds = ctx.seconds.as_secs() as usize;
    let w = measure(ctx, &corpora, RecorderMode::Disabled, rounds, &mut out);
    let execute_ms = engine_gate(&corpora, &w.first_round, &mut out);
    let asks = w.latency_ms.len() as f64;
    out.throughput_per_s = median(&w.round_rate);
    out.p50_ms = median(&w.latency_ms);
    out.tail_ms = percentile(&w.latency_ms, 95.0);
    let correctness = ratio(w.correctness.iter().sum(), w.correctness.len() as f64);
    out.named = vec![
        ("asks", asks, "count"),
        ("ask_p50_ms", out.p50_ms, "ms"),
        ("ask_p95_ms", out.tail_ms, "ms"),
        ("asks_per_s", out.throughput_per_s, "1/s"),
        ("answer_correctness", correctness, "1-5"),
        (
            "mismatched_per_round",
            ratio(w.mismatched as f64, w.round_rate.len() as f64),
            "count",
        ),
    ];

    if ctx.trace {
        let traced = measure(ctx, &corpora, RecorderMode::Enabled, rounds, &mut out);
        let mut l = Layers::default();
        let t = Traces(traced.reports);
        layers::fill_qa(&mut l, &t);
        l.set("query.execute.ms", execute_ms);
        let n = traced.latency_ms.len() as f64;
        let timed: f64 = traced.latency_ms.iter().sum();
        let untraced_ms = w.latency_ms.iter().sum::<f64>();
        layers::fill_bookkeeping(
            &mut l,
            &t,
            timed,
            0.0,
            n,
            ratio(untraced_ms, asks),
            ratio(timed, n),
        );
        out.layers = l;
    }
    Ok(out)
}
