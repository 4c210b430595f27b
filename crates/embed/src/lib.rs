//! Deterministic sentence-embedding substrate for AllHands.
//!
//! Stands in for the sentence-transformer the paper uses for demonstration
//! retrieval, topic clustering, and coherence scoring. The embedder maps a
//! sentence to a dense unit vector by pooling deterministic pseudo-random
//! token directions (random indexing) weighted by smooth inverse frequency
//! (SIF, Arora et al. 2017), optionally augmented with word bigrams and
//! character n-grams for typo and cross-lingual robustness.
//!
//! Properties the rest of the workspace relies on:
//! - **Deterministic**: same text, same config → bit-identical vector.
//! - **Similarity-preserving**: texts sharing (sub)tokens land close in
//!   cosine space; paraphrases of the same complaint cluster together.
//! - **Tiered**: [`EmbedderConfig`] controls dimensionality and feature
//!   richness, which is how the simulated GPT-4 sees a better space than
//!   the simulated GPT-3.5.
//!
//! # Example
//!
//! ```
//! use allhands_embed::{SentenceEmbedder, EmbedderConfig};
//!
//! let embedder = SentenceEmbedder::new(EmbedderConfig::default());
//! let a = embedder.embed("the app crashes on startup");
//! let b = embedder.embed("app crashing at launch");
//! let c = embedder.embed("please add a dark mode theme");
//! assert!(a.cosine(&b) > a.cosine(&c));
//! ```

pub mod hashing;
pub mod vector;

pub use hashing::{hash64, mix64};
pub use vector::{dot_slices, norm_slice, sq_dist_slices, Embedding};

use allhands_obs::Recorder;
use hashing::{fnv_extend, FNV_OFFSET};
use allhands_text::{detect_language, light_preprocess, Language};
use std::collections::HashMap;

/// Configuration for [`SentenceEmbedder`].
#[derive(Debug, Clone)]
pub struct EmbedderConfig {
    /// Output dimensionality.
    pub dims: usize,
    /// Include adjacent-word bigram features.
    pub use_bigrams: bool,
    /// Include character n-gram features of this size (0 disables). Gives
    /// typo robustness and cross-lingual subword overlap.
    pub char_ngram: usize,
    /// Weight of character-n-gram features relative to word features.
    pub char_weight: f32,
    /// SIF smoothing constant `a` in `a / (a + p(w))`.
    pub sif_a: f32,
    /// Seed namespace: embedders with different seeds produce unrelated
    /// spaces (used to decorrelate model tiers).
    pub seed: u64,
}

impl Default for EmbedderConfig {
    fn default() -> Self {
        EmbedderConfig {
            dims: 256,
            use_bigrams: true,
            char_ngram: 3,
            char_weight: 0.3,
            sif_a: 1e-3,
            seed: 0x5EED_A114_A4D5,
        }
    }
}

impl EmbedderConfig {
    /// A compact, word-only configuration (the "small model" tier).
    pub fn small() -> Self {
        EmbedderConfig { dims: 128, use_bigrams: false, char_ngram: 0, ..Self::default() }
    }

    /// A rich configuration (the "large model" tier).
    pub fn large() -> Self {
        EmbedderConfig { dims: 512, char_ngram: 3, ..Self::default() }
    }
}

/// Deterministic sentence embedder. See crate docs.
#[derive(Debug, Clone)]
pub struct SentenceEmbedder {
    config: EmbedderConfig,
    /// Corpus unigram frequencies for SIF weighting (token → probability);
    /// empty until [`SentenceEmbedder::fit`] is called, in which case all
    /// tokens get uniform weight.
    unigram: HashMap<String, f64>,
    /// Observability sink (disabled by default). Embed computes are counted
    /// as **volatile** metrics: cache layers above ([`EmbedMemo`], the gloss
    /// cache) race on misses, so the raw compute count is thread-dependent.
    rec: Recorder,
}

impl SentenceEmbedder {
    /// Create an embedder with the given configuration (unfitted: uniform
    /// token weights until [`fit`](Self::fit) is called).
    pub fn new(config: EmbedderConfig) -> Self {
        assert!(config.dims > 0, "embedding dims must be positive");
        SentenceEmbedder { config, unigram: HashMap::new(), rec: Recorder::disabled() }
    }

    /// Route embed metrics into `rec` (see the `rec` field for why they are
    /// volatile).
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.rec = rec;
    }

    /// The recorder metrics flow into (possibly disabled).
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// The configured output dimensionality.
    pub fn dims(&self) -> usize {
        self.config.dims
    }

    /// The configuration this embedder was built with.
    pub fn config(&self) -> &EmbedderConfig {
        &self.config
    }

    /// Estimate corpus unigram probabilities for SIF weighting. Calling
    /// `fit` sharpens the space (frequent filler words get down-weighted)
    /// but is optional.
    pub fn fit<S: AsRef<str>>(&mut self, corpus: &[S]) {
        let mut counts: HashMap<String, u64> = HashMap::new();
        let mut total = 0u64;
        for doc in corpus {
            for tok in light_preprocess(doc.as_ref()) {
                *counts.entry(tok).or_insert(0) += 1;
                total += 1;
            }
        }
        if total == 0 {
            return;
        }
        self.unigram = counts
            .into_iter()
            .map(|(t, c)| (t, c as f64 / total as f64))
            .collect();
    }

    /// SIF weight for a token: `a / (a + p(w))`, 1.0 when unfitted.
    fn sif_weight(&self, token: &str) -> f32 {
        match self.unigram.get(token) {
            Some(&p) => {
                let a = self.config.sif_a as f64;
                (a / (a + p)) as f32
            }
            None => 1.0,
        }
    }

    /// Add a feature's pseudo-random direction into `acc` with `weight`.
    fn add_feature(&self, acc: &mut [f32], feature: &str, weight: f32) {
        add_direction(acc, hash64(feature) ^ self.config.seed, weight);
    }

    /// Call `f(fnv_hash, weight)` for every feature of `tokens`, in the
    /// order their directions are summed: each token, then its char
    /// n-grams, and after all tokens the bigrams. Hashes are streamed over
    /// the feature's bytes, so no feature string is built.
    fn for_each_feature(&self, tokens: &[String], mut f: impl FnMut(u64, f32)) {
        let n = self.config.char_ngram;
        let mut utf8 = [0u8; 4];
        for tok in tokens {
            let w = self.sif_weight(tok);
            f(hash64(tok), w);
            if n == 0 || tok.starts_with('<') {
                continue;
            }
            // Windows of `n` chars over `<tok>`; a bounded word shorter
            // than `n` is one feature on its own.
            let grams = (tok.chars().count() + 3).saturating_sub(n).max(1);
            let gw = w * self.config.char_weight / grams as f32;
            let mut window = std::iter::once('<').chain(tok.chars()).chain(std::iter::once('>'));
            for _ in 0..grams {
                let h = window
                    .clone()
                    .take(n)
                    .fold(FNV_OFFSET, |h, c| fnv_extend(h, c.encode_utf8(&mut utf8).as_bytes()));
                f(h, gw);
                window.next();
            }
        }
        if self.config.use_bigrams {
            for pair in tokens.windows(2) {
                let h = fnv_extend(FNV_OFFSET, pair[0].as_bytes());
                f(fnv_extend(fnv_extend(h, b"+"), pair[1].as_bytes()), 0.5);
            }
        }
    }

    /// Embed a sentence into a unit vector. Empty/degenerate input yields
    /// the zero vector (cosine with anything = 0).
    ///
    /// Features are summed four at a time: their splitmix chains
    /// advance in lockstep and each accumulator element takes their
    /// contributions in feature order, so every float addition happens in
    /// the same order as one feature at a time and the bits are identical.
    pub fn embed(&self, text: &str) -> Embedding {
        self.rec.vincr("embed.computes");
        let tokens = light_preprocess(text);
        let mut acc = vec![0.0f32; self.config.dims];
        if tokens.is_empty() {
            return Embedding::new(acc);
        }
        let seed = self.config.seed;
        let mut lanes = [(0u64, 0.0f32); LANES];
        let mut filled = 0;
        self.for_each_feature(&tokens, |h, w| {
            if w == 0.0 {
                return;
            }
            lanes[filled] = (h ^ seed, w);
            filled += 1;
            if filled == LANES {
                add_directions(&mut acc, &lanes);
                filled = 0;
            }
        });
        for &(state, w) in &lanes[..filled] {
            add_direction(&mut acc, state, w);
        }
        let inv = 1.0 / tokens.len() as f32;
        for v in &mut acc {
            *v *= inv;
        }
        let mut e = Embedding::new(acc);
        e.normalize();
        e
    }

    /// Embed a batch of texts.
    pub fn embed_batch<S: AsRef<str>>(&self, texts: &[S]) -> Vec<Embedding> {
        texts.iter().map(|t| self.embed(t.as_ref())).collect()
    }
}

/// Map a u32 to [-1, 1).
fn to_unit(x: u32) -> f32 {
    (x as f32 / u32::MAX as f32) * 2.0 - 1.0
}

/// Features whose directions [`SentenceEmbedder::embed`] sums together.
const LANES: usize = 4;

/// Add `weight` times the pseudo-random direction seeded by `state` into
/// `acc`: `dims` values in [-1, 1] from a splitmix chain, two per 64-bit
/// output.
fn add_direction(acc: &mut [f32], mut state: u64, weight: f32) {
    if weight == 0.0 {
        return;
    }
    let mut pairs = acc.chunks_exact_mut(2);
    for pair in &mut pairs {
        state = mix64(state);
        pair[0] += weight * to_unit(state as u32);
        pair[1] += weight * to_unit((state >> 32) as u32);
    }
    if let [last] = pairs.into_remainder() {
        *last += weight * to_unit(mix64(state) as u32);
    }
}

/// [`add_direction`] for [`LANES`] features at once. The chains are
/// independent, so they overlap in the pipeline; each element still adds
/// the lanes' terms one after another in lane order, which is the order
/// `add_direction` called per lane would add them.
fn add_directions(acc: &mut [f32], lanes: &[(u64, f32); LANES]) {
    let mut state = lanes.map(|(s, _)| s);
    let weight = lanes.map(|(_, w)| w);
    let mut pairs = acc.chunks_exact_mut(2);
    for pair in &mut pairs {
        state = state.map(mix64);
        let (mut lo, mut hi) = (pair[0], pair[1]);
        for l in 0..LANES {
            lo += weight[l] * to_unit(state[l] as u32);
        }
        for l in 0..LANES {
            hi += weight[l] * to_unit((state[l] >> 32) as u32);
        }
        pair[0] = lo;
        pair[1] = hi;
    }
    if let [last] = pairs.into_remainder() {
        state = state.map(mix64);
        for l in 0..LANES {
            *last += weight[l] * to_unit(state[l] as u32);
        }
    }
}

/// A memoizing view over a [`SentenceEmbedder`]: identical input text is
/// embedded once and served from a cache thereafter.
///
/// The embedder is pure (same text → bit-identical vector), so memoization
/// is observationally invisible — outputs cannot change, only redundant
/// work disappears. Hot loops that repeatedly embed the same strings (label
/// glosses per classification call, the topic list per document in
/// progressive topic modeling) hold one `EmbedMemo` for the loop's
/// lifetime. Thread-safe: the cache is split into [`MEMO_SHARDS`]
/// independently-locked shards keyed by the text's hash, so a memo shared
/// by a parallel scoring loop serves hits from different shards without
/// contending on one global mutex (the single-mutex version was a measured
/// scaling bottleneck for batch classification); concurrent misses on the
/// same key simply compute the same bits twice and agree.
#[derive(Debug)]
pub struct EmbedMemo<'a> {
    embedder: &'a SentenceEmbedder,
    shards: [std::sync::Mutex<HashMap<String, Embedding>>; MEMO_SHARDS],
}

/// Lock shards in the memo cache. Power of two so the shard pick is a mask.
const MEMO_SHARDS: usize = 8;

impl<'a> EmbedMemo<'a> {
    /// Wrap an embedder with an empty cache.
    pub fn new(embedder: &'a SentenceEmbedder) -> Self {
        EmbedMemo { embedder, shards: std::array::from_fn(|_| std::sync::Mutex::new(HashMap::new())) }
    }

    /// The underlying embedder.
    pub fn embedder(&self) -> &'a SentenceEmbedder {
        self.embedder
    }

    fn shard(&self, key: &str) -> std::sync::MutexGuard<'_, HashMap<String, Embedding>> {
        let idx = (hash64(key) as usize) & (MEMO_SHARDS - 1);
        match self.shards[idx].lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Embed `text`, reusing the cached vector when available.
    pub fn embed(&self, text: &str) -> Embedding {
        if let Some(hit) = self.shard(text).get(text) {
            // Hit/miss splits are volatile: two threads can race the same
            // key and both miss, so the split depends on the interleaving.
            self.embedder.rec.vincr("embed.memo.hits");
            return hit.clone();
        }
        self.embedder.rec.vincr("embed.memo.misses");
        // Compute outside the lock: long embeds must not serialize other
        // threads' cache hits. A racing miss computes identical bits.
        let fresh = self.embedder.embed(text);
        self.shard(text).entry(text.to_string()).or_insert(fresh).clone()
    }

    /// Cache an embedding under an arbitrary `key`, computing it with
    /// `build` on the first miss. For callers that embed a *derived* form
    /// of the key (e.g. a stemmed phrase) and want to skip recomputing the
    /// derivation as well. `build` must be deterministic in `key`.
    pub fn embed_keyed(&self, key: &str, build: impl FnOnce(&SentenceEmbedder) -> Embedding) -> Embedding {
        if let Some(hit) = self.shard(key).get(key) {
            self.embedder.rec.vincr("embed.memo.hits");
            return hit.clone();
        }
        self.embedder.rec.vincr("embed.memo.misses");
        let fresh = build(self.embedder);
        self.shard(key).entry(key.to_string()).or_insert(fresh).clone()
    }

    /// Number of distinct texts cached so far.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| match s.lock() {
            Ok(g) => g.len(),
            Err(p) => p.into_inner().len(),
        }).sum()
    }

    /// True when nothing has been cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A multilingual embedder: routes text through diacritic folding and adds a
/// language tag feature, so that translations of the same complaint overlap
/// via shared char-n-grams and cognates while languages remain separable.
///
/// Stands in for XLM-R-style multilingual encoders.
#[derive(Debug, Clone)]
pub struct MultilingualEmbedder {
    inner: SentenceEmbedder,
    /// How strongly the detected-language feature pulls same-language texts
    /// together (0 disables).
    pub lang_weight: f32,
}

impl MultilingualEmbedder {
    /// Create a multilingual embedder; `config.char_ngram` should be ≥ 3
    /// for useful cross-lingual overlap.
    pub fn new(mut config: EmbedderConfig) -> Self {
        if config.char_ngram == 0 {
            config.char_ngram = 3;
        }
        MultilingualEmbedder { inner: SentenceEmbedder::new(config), lang_weight: 0.2 }
    }

    /// Output dimensionality.
    pub fn dims(&self) -> usize {
        self.inner.dims()
    }

    /// Fit SIF weights on a corpus (diacritics folded).
    pub fn fit<S: AsRef<str>>(&mut self, corpus: &[S]) {
        let folded: Vec<String> = corpus
            .iter()
            .map(|s| allhands_text::fold_diacritics(s.as_ref()))
            .collect();
        self.inner.fit(&folded);
    }

    /// Embed with diacritic folding and a language feature.
    pub fn embed(&self, text: &str) -> Embedding {
        let folded = allhands_text::fold_diacritics(text);
        let mut e = self.inner.embed(&folded);
        let lang = detect_language(text);
        if self.lang_weight > 0.0 && lang != Language::Other {
            let mut lang_dir = vec![0.0f32; self.inner.dims()];
            self.inner
                .add_feature(&mut lang_dir, &format!("<lang:{lang}>"), self.lang_weight);
            e.add_scaled(&Embedding::new(lang_dir), 1.0);
            e.normalize();
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let e = SentenceEmbedder::new(EmbedderConfig::default());
        assert_eq!(e.embed("hello world").as_slice(), e.embed("hello world").as_slice());
    }

    #[test]
    fn unit_norm() {
        let e = SentenceEmbedder::new(EmbedderConfig::default());
        let v = e.embed("some text here");
        assert!((v.norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_is_zero() {
        let e = SentenceEmbedder::new(EmbedderConfig::default());
        assert_eq!(e.embed("").norm(), 0.0);
        assert_eq!(e.embed("!!!").norm(), 0.0);
    }

    #[test]
    fn similar_texts_closer() {
        let e = SentenceEmbedder::new(EmbedderConfig::default());
        let a = e.embed("the app crashes when I open it");
        let b = e.embed("app crashed after opening");
        let c = e.embed("beautiful sunset photography filter");
        assert!(a.cosine(&b) > a.cosine(&c) + 0.1);
    }

    #[test]
    fn typo_robustness_via_char_ngrams() {
        let with = SentenceEmbedder::new(EmbedderConfig { char_ngram: 3, ..Default::default() });
        let without = SentenceEmbedder::new(EmbedderConfig { char_ngram: 0, ..Default::default() });
        let sim_with = with.embed("crashing").cosine(&with.embed("crashhing"));
        let sim_without = without.embed("crashing").cosine(&without.embed("crashhing"));
        assert!(sim_with > sim_without);
    }

    #[test]
    fn fit_downweights_frequent_tokens() {
        let mut e = SentenceEmbedder::new(EmbedderConfig::default());
        let corpus: Vec<String> = (0..50)
            .map(|i| format!("filler filler filler topic{}", i % 5))
            .collect();
        e.fit(&corpus);
        assert!(e.sif_weight("filler") < e.sif_weight("topic0"));
        assert_eq!(e.sif_weight("unseen-token"), 1.0);
    }

    #[test]
    fn different_seeds_different_spaces() {
        let a = SentenceEmbedder::new(EmbedderConfig { seed: 1, ..Default::default() });
        let b = SentenceEmbedder::new(EmbedderConfig { seed: 2, ..Default::default() });
        let va = a.embed("hello world");
        let vb = b.embed("hello world");
        assert!(va.cosine(&vb).abs() < 0.5);
    }

    #[test]
    fn multilingual_translations_overlap() {
        let m = MultilingualEmbedder::new(EmbedderConfig::large());
        // Cognate-heavy pair: "results incorrect" / "resultados incorrectos".
        let en = m.embed("the results are incorrect");
        let es = m.embed("los resultados son incorrectos");
        let unrelated = m.embed("brilliant camera zoom feature");
        assert!(en.cosine(&es) > en.cosine(&unrelated));
    }

    #[test]
    fn batch_matches_single() {
        let e = SentenceEmbedder::new(EmbedderConfig::small());
        let batch = e.embed_batch(&["a b c", "d e f"]);
        assert_eq!(batch[0].as_slice(), e.embed("a b c").as_slice());
        assert_eq!(batch.len(), 2);
    }

    #[test]
    #[should_panic(expected = "dims must be positive")]
    fn zero_dims_panics() {
        SentenceEmbedder::new(EmbedderConfig { dims: 0, ..Default::default() });
    }

    /// The embedder configurations of the two `ModelSpec` tiers
    /// (`allhands-llm` depends on this crate, so they are restated here).
    fn gpt35_tier() -> EmbedderConfig {
        EmbedderConfig { dims: 256, use_bigrams: true, char_ngram: 0, ..Default::default() }
    }

    fn gpt4_tier() -> EmbedderConfig {
        EmbedderConfig { dims: 512, use_bigrams: true, char_ngram: 3, ..Default::default() }
    }

    /// FNV-1a over the little-endian bits of every component.
    fn bits_digest(e: &Embedding) -> u64 {
        e.as_slice().iter().fold(FNV_OFFSET, |h, v| fnv_extend(h, &v.to_bits().to_le_bytes()))
    }

    #[test]
    fn golden_digests() {
        // Pinned output bits: any change to tokenization, hashing, the
        // direction stream or the order of float additions shows up here.
        const TEXTS: [&str; 4] = [
            "the app crashes on startup",
            "Please add a dark mode!!! 😡 see https://example.com 42 times",
            "los resultados son incorrectos",
            "a",
        ];
        let got: Vec<Vec<u64>> = [gpt35_tier(), gpt4_tier()]
            .into_iter()
            .map(|config| {
                let e = SentenceEmbedder::new(config);
                TEXTS.iter().map(|t| bits_digest(&e.embed(t))).collect()
            })
            .collect();
        assert_eq!(got, [GOLDEN_GPT35, GOLDEN_GPT4], "{got:#018x?}");
    }

    const GOLDEN_GPT35: [u64; 4] =
        [0x5c52_d844_683e_117b, 0x4776_87a0_2830_ebd8, 0x98a4_955b_6699_7f6f, 0xe71c_59a8_cad7_4bd9];
    const GOLDEN_GPT4: [u64; 4] =
        [0x60d5_090d_488c_fcbc, 0xa3f3_7daf_6541_4baa, 0x658e_2989_5345_483e, 0x4673_6834_6bab_d7f1];

    /// The one-feature-at-a-time direction sum the lane kernel replaced.
    fn reference_add_feature(e: &SentenceEmbedder, acc: &mut [f32], feature: &str, weight: f32) {
        if weight == 0.0 {
            return;
        }
        let mut state = hash64(feature) ^ e.config.seed;
        let mut i = 0;
        while i < acc.len() {
            state = mix64(state);
            let lo = (state & 0xFFFF_FFFF) as u32;
            let hi = (state >> 32) as u32;
            acc[i] += weight * to_unit(lo);
            if i + 1 < acc.len() {
                acc[i + 1] += weight * to_unit(hi);
            }
            i += 2;
        }
    }

    /// The embed the lane kernel replaced, kept as the reference it must
    /// match bit for bit.
    fn reference_embed(e: &SentenceEmbedder, text: &str) -> Embedding {
        let tokens = light_preprocess(text);
        let mut acc = vec![0.0f32; e.config.dims];
        if tokens.is_empty() {
            return Embedding::new(acc);
        }
        for tok in &tokens {
            let w = e.sif_weight(tok);
            reference_add_feature(e, &mut acc, tok, w);
            if e.config.char_ngram > 0 && !tok.starts_with('<') {
                let grams = allhands_text::char_ngrams(tok, e.config.char_ngram);
                let gw = w * e.config.char_weight / grams.len().max(1) as f32;
                for g in &grams {
                    reference_add_feature(e, &mut acc, g, gw);
                }
            }
        }
        if e.config.use_bigrams {
            for pair in tokens.windows(2) {
                reference_add_feature(e, &mut acc, &format!("{}+{}", pair[0], pair[1]), 0.5);
            }
        }
        let inv = 1.0 / tokens.len() as f32;
        for v in &mut acc {
            *v *= inv;
        }
        let mut out = Embedding::new(acc);
        out.normalize();
        out
    }

    /// Generated feedback from all three corpora plus degenerate and
    /// unusual inputs.
    fn kernel_texts() -> Vec<String> {
        use allhands_datasets::{generate_n, DatasetKind};
        let mut texts: Vec<String> = [
            "", "!!!", "a", "ab", "a b", "ab cd e", "I", "😡", "😡😡 app 😡",
            "see https://example.com/path?q=1 now", "42", "version 3.14 broke 7 things",
            "搜索结果不准确", "naïve café über straße", "x y z w v", "crashhhhhhhhhhhhing",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        for kind in [DatasetKind::GoogleStoreApp, DatasetKind::ForumPost, DatasetKind::MSearch] {
            texts.extend(generate_n(kind, 60, 7).into_iter().map(|r| r.text));
        }
        texts
    }

    fn assert_matches_reference(e: &SentenceEmbedder, texts: &[String], what: &str) {
        for t in texts {
            let got: Vec<u32> = e.embed(t).as_slice().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> =
                reference_embed(e, t).as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{what}: bits differ for {t:?}");
        }
    }

    #[test]
    fn lane_kernel_matches_reference_bits() {
        let texts = kernel_texts();
        let mut configs = vec![
            ("small", EmbedderConfig::small()),
            ("default", EmbedderConfig::default()),
            ("large", EmbedderConfig::large()),
            ("gpt35", gpt35_tier()),
            ("gpt4", gpt4_tier()),
            ("char_weight 0", EmbedderConfig { char_weight: 0.0, ..gpt4_tier() }),
        ];
        for dims in [1, 3, 7, 130] {
            configs.push(("odd dims", EmbedderConfig { dims, ..Default::default() }));
        }
        for char_ngram in [0, 2, 3, 4, 6] {
            configs.push(("char_ngram", EmbedderConfig { char_ngram, ..Default::default() }));
        }
        for (what, config) in configs {
            let mut e = SentenceEmbedder::new(config);
            assert_matches_reference(&e, &texts, what);
            e.fit(&texts);
            assert_matches_reference(&e, &texts, &format!("{what}, fitted"));
        }
    }

    #[test]
    fn kernel_texts_cover_every_lane_remainder() {
        // The scalar tail handles 1-3 leftover features; every remainder
        // must occur under a char-n-gram tier and a word-only one.
        let texts = kernel_texts();
        for config in [gpt4_tier(), EmbedderConfig::small()] {
            let e = SentenceEmbedder::new(config);
            let mut seen = [false; LANES];
            for t in &texts {
                let mut n = 0;
                e.for_each_feature(&light_preprocess(t), |_, w| n += usize::from(w != 0.0));
                seen[n % LANES] = true;
            }
            assert_eq!(seen, [true; LANES]);
        }
    }

    #[test]
    fn feature_hashes_match_feature_strings() {
        let e = SentenceEmbedder::new(EmbedderConfig { char_ngram: 4, ..Default::default() });
        let tokens: Vec<String> = ["ab", "não", "<url>"].iter().map(|s| s.to_string()).collect();
        let mut got = Vec::new();
        e.for_each_feature(&tokens, |h, _| got.push(h));
        let want: Vec<u64> =
            ["ab", "<ab>", "não", "<não", "não>", "<url>", "ab+não", "não+<url>"].map(hash64).to_vec();
        assert_eq!(got, want);
    }

    #[test]
    fn memo_matches_direct_and_caches() {
        let e = SentenceEmbedder::new(EmbedderConfig::default());
        let memo = EmbedMemo::new(&e);
        assert!(memo.is_empty());
        let a = memo.embed("the app crashes");
        assert_eq!(a.as_slice(), e.embed("the app crashes").as_slice());
        let b = memo.embed("the app crashes");
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(memo.len(), 1);
        memo.embed("different text");
        assert_eq!(memo.len(), 2);
    }
}
