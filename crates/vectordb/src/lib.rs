//! In-memory vector database for AllHands.
//!
//! The paper stores sentence-transformer embeddings of labeled feedback in a
//! vector database and retrieves the top-K most similar samples (cosine
//! similarity) to build in-context-learning prompts (Sec. 3.2), and again
//! during human-in-the-loop topic refinement (Sec. 3.3.2).
//!
//! Two index types with one API:
//! - [`FlatIndex`]: exact brute-force scan — the correctness baseline.
//! - [`IvfIndex`]: inverted-file index over k-means partitions — the
//!   realistic accuracy/latency trade-off, probing `nprobe` nearest
//!   partitions.
//!
//! Both support metadata key/value filtering at query time (e.g. restrict
//! retrieval to demonstrations from one dataset or label).
//!
//! Storage is columnar: vectors live in a contiguous cache-aligned arena
//! (see [`arena`](crate::arena) module docs) with precomputed norms and
//! scalar-quantized i8 codes. Large scans prune candidates with the cheap
//! integer kernel and rescore exactly, so results — ids, order, and score
//! bits — are always identical to a brute-force f32 scan.
//!
//! # Example
//!
//! ```
//! use allhands_vectordb::{FlatIndex, Record, VectorIndex};
//! use allhands_embed::Embedding;
//!
//! let mut index = FlatIndex::new(4);
//! index.insert(Record::new(0, Embedding::new(vec![1.0, 0.0, 0.0, 0.0]))
//!     .with_meta("label", "bug"));
//! index.insert(Record::new(1, Embedding::new(vec![0.0, 1.0, 0.0, 0.0]))
//!     .with_meta("label", "praise"));
//!
//! let hits = index.search(&Embedding::new(vec![0.9, 0.1, 0.0, 0.0]), 1);
//! assert_eq!(hits[0].id, 0);
//! ```

mod arena;
pub mod kmeans;

pub use arena::{QUANT_MIN_DIMS, QUANT_MIN_ROWS};
pub use kmeans::{kmeans, KMeansResult};

#[cfg(test)]
pub(crate) use arena::PAR_SCAN_THRESHOLD;
use arena::RowPool;

use allhands_embed::Embedding;
use allhands_obs::Recorder;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A stored record: id, embedding, and optional string metadata.
#[derive(Debug, Clone)]
pub struct Record {
    /// Caller-assigned identifier (e.g. feedback row index).
    pub id: u64,
    /// The embedding vector.
    pub vector: Embedding,
    /// Arbitrary key/value metadata used for filtered search.
    pub metadata: HashMap<String, String>,
}

impl Record {
    /// Create a record with empty metadata.
    pub fn new(id: u64, vector: Embedding) -> Self {
        Record { id, vector, metadata: HashMap::new() }
    }

    /// Builder-style metadata attachment.
    pub fn with_meta(mut self, key: &str, value: &str) -> Self {
        self.metadata.insert(key.to_string(), value.to_string());
        self
    }
}

/// One search hit: record id and cosine similarity score.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Id of the matching record.
    pub id: u64,
    /// Cosine similarity to the query, in [-1, 1].
    pub score: f32,
}

/// A metadata predicate: all listed key/value pairs must match exactly.
#[derive(Debug, Clone, Default)]
pub struct Filter {
    conditions: Vec<(String, String)>,
}

impl Filter {
    /// The empty filter (matches everything).
    pub fn none() -> Self {
        Filter::default()
    }

    /// Require `key == value`.
    pub fn must(mut self, key: &str, value: &str) -> Self {
        self.conditions.push((key.to_string(), value.to_string()));
        self
    }

    /// Does `record` satisfy all conditions?
    pub fn matches(&self, record: &Record) -> bool {
        self.matches_meta(&record.metadata)
    }

    /// Does a bare metadata map satisfy all conditions? (The columnar scan
    /// path filters on metadata without materializing a [`Record`].)
    pub fn matches_meta(&self, metadata: &HashMap<String, String>) -> bool {
        self.conditions.iter().all(|(k, v)| metadata.get(k).is_some_and(|rv| rv == v))
    }

    /// True when the filter has no conditions.
    pub fn is_empty(&self) -> bool {
        self.conditions.is_empty()
    }
}

/// Common interface of the vector indexes.
pub trait VectorIndex {
    /// Insert one record. Panics on dimension mismatch.
    fn insert(&mut self, record: Record);

    /// Exact or approximate top-`k` cosine search.
    fn search(&self, query: &Embedding, k: usize) -> Vec<SearchResult> {
        self.search_filtered(query, k, &Filter::none())
    }

    /// Top-`k` search restricted to records matching `filter`.
    fn search_filtered(&self, query: &Embedding, k: usize, filter: &Filter) -> Vec<SearchResult>;

    /// Number of stored records.
    fn len(&self) -> usize;

    /// True when empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch a record by id, reconstructed (owned) from columnar storage.
    fn get(&self, id: u64) -> Option<Record>;

    /// Remove a record by id; returns whether it existed. Removal is a
    /// mutation like insert: on [`IvfIndex`] it counts toward the staleness
    /// ratio that triggers automatic retraining.
    fn remove(&mut self, id: u64) -> bool;
}

/// Heap entry ordered worst-first (lower score, then larger id, compares
/// `Greater`), so the max-heap root is always the weakest survivor and
/// `pop` evicts it. Because record ids are unique, `(score desc, id asc)`
/// is a total order and k-selection matches a full stable sort exactly.
struct HeapEntry(SearchResult);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // `total_cmp`, not `partial_cmp(..).unwrap_or(Equal)`: a NaN score
        // (e.g. a zero-norm or NaN-bearing vector) must still occupy one
        // fixed place in the order — treating it as equal to everything
        // makes the heap's result depend on insertion order.
        other
            .0
            .score
            .total_cmp(&self.0.score)
            .then_with(|| self.0.id.cmp(&other.0.id))
    }
}

/// Keep the best `k` results from a scored candidate stream, ties broken by
/// ascending id for determinism. O(n log k) bounded-heap selection instead
/// of a full O(n log n) sort — `k` is tiny (demo retrieval asks for ~4-24)
/// while the candidate pool is the whole index.
pub(crate) fn top_k(candidates: Vec<SearchResult>, k: usize) -> Vec<SearchResult> {
    if k == 0 {
        return Vec::new();
    }
    let mut heap = std::collections::BinaryHeap::with_capacity(k + 1);
    for c in candidates {
        heap.push(HeapEntry(c));
        if heap.len() > k {
            heap.pop();
        }
    }
    // Ascending by worst-first Ord = best-first output.
    heap.into_sorted_vec().into_iter().map(|e| e.0).collect()
}

/// Exact brute-force index over one columnar row pool.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    dims: usize,
    pool: RowPool,
    by_id: HashMap<u64, usize>,
    rec: Recorder,
    quant: bool,
}

impl FlatIndex {
    /// Create an empty index for `dims`-dimensional vectors.
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "dims must be positive");
        FlatIndex {
            dims,
            pool: RowPool::new(dims),
            by_id: HashMap::new(),
            rec: Recorder::disabled(),
            quant: true,
        }
    }

    /// Attach a metrics recorder (counts searches and scanned records).
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.rec = rec;
    }

    /// Enable/disable the quantized candidate-pruning scan (on by default).
    /// Results are byte-identical either way — this is a speed toggle, used
    /// by the benches to A/B the exact and quantized paths.
    pub fn set_quantization(&mut self, enabled: bool) {
        self.quant = enabled;
    }

    /// Iterate all records (owned; reconstructed from columnar storage).
    pub fn iter(&self) -> impl Iterator<Item = Record> + '_ {
        (0..self.pool.len()).map(|slot| self.pool.record(slot))
    }
}

impl VectorIndex for FlatIndex {
    fn insert(&mut self, record: Record) {
        assert_eq!(record.vector.dims(), self.dims, "dimension mismatch");
        if let Some(&pos) = self.by_id.get(&record.id) {
            self.pool.fill(pos, record); // upsert in place
        } else {
            self.by_id.insert(record.id, self.pool.len());
            self.pool.push(record);
        }
    }

    fn search_filtered(&self, query: &Embedding, k: usize, filter: &Filter) -> Vec<SearchResult> {
        assert_eq!(query.dims(), self.dims, "dimension mismatch");
        self.rec.incr("vectordb.searches.flat");
        self.rec.add("vectordb.scanned.flat", self.pool.len() as u64);
        self.rec.observe("vectordb.pool_size", self.pool.len() as u64);
        self.pool.scan_top_k(query, k, filter, self.quant, &self.rec)
    }

    fn len(&self) -> usize {
        self.pool.len()
    }

    fn get(&self, id: u64) -> Option<Record> {
        self.by_id.get(&id).map(|&pos| self.pool.record(pos))
    }

    fn remove(&mut self, id: u64) -> bool {
        match self.by_id.remove(&id) {
            Some(pos) => {
                if let Some(moved) = self.pool.swap_remove(pos) {
                    self.by_id.insert(moved, pos);
                }
                true
            }
            None => false,
        }
    }
}

/// One serialized metadata pair. The serde derive shim has no tuple
/// support, and emitting pairs sorted by key keeps the serialized form
/// deterministic regardless of `HashMap` iteration order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetaPair {
    /// Metadata key.
    pub key: String,
    /// Metadata value.
    pub value: String,
}

/// Serialized slot of one stored [`Record`]: its id and metadata. The
/// vector is not part of the state — the caller supplies it by id at
/// [`IvfIndex::from_state`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordState {
    /// Caller-assigned identifier.
    pub id: u64,
    /// Metadata pairs, sorted by key.
    pub metadata: Vec<MetaPair>,
}

/// Serialized layout of an [`IvfIndex`] — centroids, each partition's
/// record ids and metadata *in storage order* (offsets are load-bearing:
/// `by_id` indexes into them), and the retrain-policy counters. Record
/// vectors are left out: callers that can recompute them (journal
/// checkpoints re-embed the row texts) hand them back by id. Restoring
/// the layout with the same vectors and continuing to mutate produces
/// byte-identical behavior to the original index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IvfState {
    /// Vector dimensionality.
    pub dims: u64,
    /// Partitions probed per query.
    pub nprobe: u64,
    /// K-means seed.
    pub seed: u64,
    /// Partition centroids (empty = untrained).
    pub centroids: Vec<Embedding>,
    /// Per-partition records, inner order preserved.
    pub partitions: Vec<Vec<RecordState>>,
    /// Partition count requested by the last `train` call.
    pub target_partitions: u64,
    /// Mutations since the last training.
    pub mutations: u64,
    /// Auto-retrain staleness threshold (`None` = manual only).
    pub retrain_staleness: Option<f32>,
    /// Completed k-means trainings.
    pub trains: u64,
}

/// Inverted-file (IVF) index: records are partitioned by k-means over a
/// training sample; queries probe the `nprobe` nearest partitions.
///
/// Until [`IvfIndex::train`] is called (or before `train_threshold` records
/// exist), searches fall back to an exact scan, so the index is always
/// correct — training only changes the speed/recall trade-off.
#[derive(Debug, Clone)]
pub struct IvfIndex {
    dims: usize,
    /// Partition centroids (empty = untrained).
    centroids: Vec<Embedding>,
    /// Per-partition columnar record storage.
    partitions: Vec<RowPool>,
    /// id → (partition, slot)
    by_id: HashMap<u64, (usize, usize)>,
    /// Number of partitions to probe at query time.
    pub nprobe: usize,
    seed: u64,
    rec: Recorder,
    /// Partition count requested by the last [`train`](IvfIndex::train)
    /// call — remembered even when that call no-opped (too few records), so
    /// a later flood of inserts can still trigger the deferred training.
    /// `0` until `train` is first called: auto-retrain never second-guesses
    /// an index nobody asked to train.
    target_partitions: usize,
    /// Inserts + removes since the last `train` call (upserts count once).
    mutations: usize,
    /// Auto-retrain when `mutations / len` reaches this ratio
    /// (`None` = manual training only).
    retrain_staleness: Option<f32>,
    /// Completed k-means trainings (manual and automatic).
    trains: u64,
    /// Quantized candidate pruning on the scan path (on by default).
    quant: bool,
}

impl IvfIndex {
    /// Staleness ratio past which a trained-or-armed index automatically
    /// retrains (see [`IvfIndex::set_retrain_policy`]).
    pub const DEFAULT_RETRAIN_STALENESS: f32 = 0.5;

    /// Create an untrained IVF index.
    pub fn new(dims: usize, nprobe: usize) -> Self {
        assert!(dims > 0, "dims must be positive");
        IvfIndex {
            dims,
            centroids: Vec::new(),
            partitions: vec![RowPool::new(dims)],
            by_id: HashMap::new(),
            nprobe: nprobe.max(1),
            seed: 42,
            rec: Recorder::disabled(),
            target_partitions: 0,
            mutations: 0,
            retrain_staleness: Some(Self::DEFAULT_RETRAIN_STALENESS),
            trains: 0,
            quant: true,
        }
    }

    /// Attach a metrics recorder (counts searches and scanned records).
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.rec = rec;
    }

    /// Enable/disable the quantized candidate-pruning scan (on by default).
    /// Results are byte-identical either way.
    pub fn set_quantization(&mut self, enabled: bool) {
        self.quant = enabled;
    }

    /// Snapshot the index layout for serialization (see [`IvfState`]).
    pub fn to_state(&self) -> IvfState {
        let ser_slot = |p: &RowPool, slot: usize| {
            let mut metadata: Vec<MetaPair> = p
                .meta(slot)
                .iter()
                .map(|(key, value)| MetaPair { key: key.clone(), value: value.clone() })
                .collect();
            metadata.sort_by(|a, b| a.key.cmp(&b.key));
            RecordState { id: p.id(slot), metadata }
        };
        IvfState {
            dims: self.dims as u64,
            nprobe: self.nprobe as u64,
            seed: self.seed,
            centroids: self.centroids.clone(),
            partitions: self
                .partitions
                .iter()
                .map(|p| (0..p.len()).map(|slot| ser_slot(p, slot)).collect())
                .collect(),
            target_partitions: self.target_partitions as u64,
            mutations: self.mutations as u64,
            retrain_staleness: self.retrain_staleness,
            trains: self.trains,
        }
    }

    /// Rebuild an index from a serialized layout, taking each record's
    /// vector from `vector_of(id)`. Records it has no vector for (or one of
    /// the wrong dimensionality) are dropped. The recorder starts disabled
    /// — reattach one with [`set_recorder`](Self::set_recorder).
    pub fn from_state(
        state: IvfState,
        mut vector_of: impl FnMut(u64) -> Option<Embedding>,
    ) -> IvfIndex {
        let dims = (state.dims as usize).max(1);
        let mut centroids = state.centroids;
        let mut record_partitions: Vec<Vec<Record>> = state
            .partitions
            .into_iter()
            .map(|p| {
                p.into_iter()
                    .filter_map(|r| {
                        let vector = vector_of(r.id).filter(|v| v.dims() == dims)?;
                        let metadata = r.metadata.into_iter().map(|m| (m.key, m.value)).collect();
                        Some(Record { id: r.id, vector, metadata })
                    })
                    .collect()
            })
            .collect();
        // Defensive repair of inconsistent snapshots: `assign` indexes
        // partitions by centroid position, so a count mismatch would panic.
        // Collapse to the untrained-but-correct single-partition layout.
        if centroids.len() != record_partitions.len() && !centroids.is_empty() {
            centroids.clear();
            record_partitions = vec![record_partitions.into_iter().flatten().collect()];
        }
        if record_partitions.is_empty() {
            record_partitions = vec![Vec::new()];
        }
        let partitions: Vec<RowPool> = record_partitions
            .into_iter()
            .map(|records| {
                let mut pool = RowPool::new(dims);
                for r in records {
                    pool.push(r);
                }
                pool
            })
            .collect();
        let mut idx = IvfIndex {
            dims,
            centroids,
            partitions,
            by_id: HashMap::new(),
            nprobe: (state.nprobe as usize).max(1),
            seed: state.seed,
            rec: Recorder::disabled(),
            target_partitions: state.target_partitions as usize,
            mutations: state.mutations as usize,
            retrain_staleness: state.retrain_staleness,
            trains: state.trains,
            quant: true,
        };
        idx.rebuild_id_map();
        idx
    }

    /// Train `n_partitions` k-means centroids on the current contents and
    /// re-assign every record. With fewer records than partitions the
    /// partitioning itself no-ops, but the request is remembered: once
    /// enough inserts accumulate, the staleness-ratio auto-retrain performs
    /// the deferred training with the same partition count.
    pub fn train(&mut self, n_partitions: usize) {
        self.target_partitions = n_partitions;
        self.mutations = 0;
        let all: Vec<Record> =
            self.partitions.iter_mut().flat_map(RowPool::take_records).collect();
        // Records with non-finite coordinates sit out k-means: a NaN
        // distance poisons the k-means++ seeding weights (`gen_range(0.0..NaN)`).
        // They are stored afterwards wherever `assign` deterministically
        // routes them (all-NaN distances tie-break to partition 0).
        let (finite, rest): (Vec<Record>, Vec<Record>) = all
            .into_iter()
            .partition(|r| r.vector.as_slice().iter().all(|v| v.is_finite()));
        if finite.len() < n_partitions || n_partitions < 2 {
            let mut pool = RowPool::new(self.dims);
            for r in finite.into_iter().chain(rest) {
                pool.push(r);
            }
            self.centroids.clear();
            self.partitions = vec![pool];
            self.rebuild_id_map();
            return;
        }
        let vectors: Vec<&Embedding> = finite.iter().map(|r| &r.vector).collect();
        let result = kmeans(&vectors, n_partitions, 20, self.seed);
        self.centroids = result.centroids;
        self.partitions = (0..self.centroids.len()).map(|_| RowPool::new(self.dims)).collect();
        for (record, &part) in finite.into_iter().zip(&result.assignments) {
            self.partitions[part].push(record);
        }
        for record in rest {
            let part = self.assign(&record.vector);
            self.partitions[part].push(record);
        }
        self.rebuild_id_map();
        self.trains += 1;
        self.rec.incr("vectordb.ivf_trains");
    }

    /// Fraction of the index mutated (inserted/removed) since the last
    /// `train` call; 0 for an empty index.
    pub fn staleness(&self) -> f32 {
        if self.by_id.is_empty() {
            0.0
        } else {
            self.mutations as f32 / self.by_id.len() as f32
        }
    }

    /// Inserts + removes since the last `train` call.
    pub fn mutations_since_train(&self) -> usize {
        self.mutations
    }

    /// Completed k-means trainings, manual and automatic.
    pub fn train_count(&self) -> u64 {
        self.trains
    }

    /// Set the staleness ratio that triggers automatic retraining
    /// (`None` disables it). The retrain re-runs k-means with the partition
    /// count of the last `train` call, so it only ever fires on an index
    /// whose owner asked for training at least once.
    pub fn set_retrain_policy(&mut self, staleness: Option<f32>) {
        self.retrain_staleness = staleness;
    }

    /// Retrain if armed (a `train` call happened), enough records exist for
    /// the requested partition count, and the staleness ratio has been
    /// reached. Called after every mutation.
    fn maybe_retrain(&mut self) {
        let Some(threshold) = self.retrain_staleness else { return };
        if self.target_partitions < 2 || self.by_id.len() < self.target_partitions {
            return;
        }
        if self.staleness() >= threshold {
            self.rec.incr("vectordb.ivf_auto_retrains");
            self.train(self.target_partitions);
        }
    }

    fn rebuild_id_map(&mut self) {
        self.by_id.clear();
        for (p, partition) in self.partitions.iter().enumerate() {
            for o in 0..partition.len() {
                self.by_id.insert(partition.id(o), (p, o));
            }
        }
    }

    /// Which partition should `vector` live in?
    ///
    /// `(distance asc, partition index asc)` is a total order (`total_cmp`
    /// handles NaN distances; the index breaks exact ties), so assignment
    /// agrees with the probe ranking in `search_filtered`. Without the
    /// explicit tie-break the two diverge: `min_by` keeps the *last* of
    /// equal minima while a stable sort keeps the *first*, so a record at a
    /// point equidistant from two centroids would be stored in one
    /// partition but probed in the other — unreachable at `nprobe = 1`.
    fn assign(&self, vector: &Embedding) -> usize {
        if self.centroids.is_empty() {
            return 0;
        }
        self.centroids
            .iter()
            .enumerate()
            .map(|(i, c)| (i, vector.sq_dist(c)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Is the index trained (partitioned)?
    pub fn is_trained(&self) -> bool {
        !self.centroids.is_empty()
    }

    /// Number of partitions (1 when untrained).
    pub fn n_partitions(&self) -> usize {
        self.partitions.len()
    }
}

impl VectorIndex for IvfIndex {
    fn insert(&mut self, record: Record) {
        assert_eq!(record.vector.dims(), self.dims, "dimension mismatch");
        // Upsert: the new vector may belong to a different partition than
        // the old one, so remove the stale entry first.
        if let Some(&(p, o)) = self.by_id.get(&record.id) {
            if let Some(moved) = self.partitions[p].swap_remove(o) {
                self.by_id.insert(moved, (p, o));
            }
            self.by_id.remove(&record.id);
        }
        let part = self.assign(&record.vector);
        self.by_id.insert(record.id, (part, self.partitions[part].len()));
        self.partitions[part].push(record);
        self.mutations += 1;
        self.maybe_retrain();
    }

    fn search_filtered(&self, query: &Embedding, k: usize, filter: &Filter) -> Vec<SearchResult> {
        assert_eq!(query.dims(), self.dims, "dimension mismatch");
        let probe: Vec<usize> = if self.centroids.is_empty() {
            (0..self.partitions.len()).collect()
        } else {
            // Rank partitions by centroid distance, probe the nearest nprobe.
            let mut ranked: Vec<(usize, f32)> = self
                .centroids
                .iter()
                .enumerate()
                .map(|(i, c)| (i, query.sq_dist(c)))
                .collect();
            // Same total order as `assign`: distance asc, partition index
            // asc. `total_cmp` keeps NaN distances from collapsing the
            // ranking into insertion-order noise.
            ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            ranked.into_iter().take(self.nprobe).map(|(i, _)| i).collect()
        };
        let scanned: usize = probe.iter().map(|&p| self.partitions[p].len()).sum();
        self.rec.incr("vectordb.searches.ivf");
        self.rec.add("vectordb.scanned.ivf", scanned as u64);
        self.rec.observe("vectordb.pool_size", scanned as u64);
        // Per-partition top-k merged by one more top-k pass: the probed
        // partitions are disjoint, so this equals a top-k over their
        // concatenation under the `(score desc, id asc)` total order.
        let mut partials = Vec::new();
        for p in probe {
            partials.extend(self.partitions[p].scan_top_k(query, k, filter, self.quant, &self.rec));
        }
        top_k(partials, k)
    }

    fn len(&self) -> usize {
        self.by_id.len()
    }

    fn get(&self, id: u64) -> Option<Record> {
        self.by_id.get(&id).map(|&(p, o)| self.partitions[p].record(o))
    }

    fn remove(&mut self, id: u64) -> bool {
        match self.by_id.remove(&id) {
            Some((p, o)) => {
                if let Some(moved) = self.partitions[p].swap_remove(o) {
                    self.by_id.insert(moved, (p, o));
                }
                self.mutations += 1;
                self.maybe_retrain();
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec2(x: f32, y: f32) -> Embedding {
        Embedding::new(vec![x, y])
    }

    #[test]
    fn flat_exact_topk() {
        let mut idx = FlatIndex::new(2);
        idx.insert(Record::new(0, vec2(1.0, 0.0)));
        idx.insert(Record::new(1, vec2(0.0, 1.0)));
        idx.insert(Record::new(2, vec2(0.7, 0.7)));
        let hits = idx.search(&vec2(1.0, 0.1), 2);
        assert_eq!(hits[0].id, 0);
        assert_eq!(hits[1].id, 2);
    }

    #[test]
    fn flat_upsert_and_remove() {
        let mut idx = FlatIndex::new(2);
        idx.insert(Record::new(7, vec2(1.0, 0.0)));
        idx.insert(Record::new(7, vec2(0.0, 1.0))); // upsert
        assert_eq!(idx.len(), 1);
        let hits = idx.search(&vec2(0.0, 1.0), 1);
        assert!(hits[0].score > 0.99);
        assert!(idx.remove(7));
        assert!(!idx.remove(7));
        assert!(idx.is_empty());
    }

    #[test]
    fn metadata_filter() {
        let mut idx = FlatIndex::new(2);
        idx.insert(Record::new(0, vec2(1.0, 0.0)).with_meta("label", "bug"));
        idx.insert(Record::new(1, vec2(0.99, 0.01)).with_meta("label", "praise"));
        let f = Filter::none().must("label", "praise");
        let hits = idx.search_filtered(&vec2(1.0, 0.0), 5, &f);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 1);
    }

    #[test]
    fn ivf_untrained_equals_flat() {
        let mut flat = FlatIndex::new(2);
        let mut ivf = IvfIndex::new(2, 1);
        for i in 0..20u64 {
            let v = vec2((i as f32).cos(), (i as f32).sin());
            flat.insert(Record::new(i, v.clone()));
            ivf.insert(Record::new(i, v));
        }
        let q = vec2(0.5, 0.5);
        assert_eq!(flat.search(&q, 5), ivf.search(&q, 5));
    }

    #[test]
    fn ivf_trained_high_recall_with_enough_probes() {
        let mut ivf = IvfIndex::new(2, 4);
        let mut flat = FlatIndex::new(2);
        for i in 0..200u64 {
            let angle = i as f32 * 0.031_415;
            let v = vec2(angle.cos(), angle.sin());
            ivf.insert(Record::new(i, v.clone()));
            flat.insert(Record::new(i, v));
        }
        ivf.train(4);
        assert!(ivf.is_trained());
        assert_eq!(ivf.len(), 200);
        let q = vec2(0.9, 0.43);
        let exact: Vec<u64> = flat.search(&q, 10).into_iter().map(|r| r.id).collect();
        let approx: Vec<u64> = ivf.search(&q, 10).into_iter().map(|r| r.id).collect();
        let recall = approx.iter().filter(|id| exact.contains(id)).count();
        assert!(recall >= 8, "recall {recall}/10 too low");
    }

    #[test]
    fn ivf_insert_after_training_routes_to_partition() {
        let mut ivf = IvfIndex::new(2, 1);
        for i in 0..50u64 {
            let v = if i % 2 == 0 { vec2(1.0, 0.0) } else { vec2(-1.0, 0.0) };
            ivf.insert(Record::new(i, v));
        }
        ivf.train(2);
        ivf.insert(Record::new(100, vec2(0.95, 0.05)));
        let hits = ivf.search(&vec2(1.0, 0.0), 1);
        // Nearest record to (1,0) must be findable with nprobe=1.
        assert!(hits[0].score > 0.99);
        assert!(ivf.get(100).is_some());
    }

    #[test]
    fn ties_break_by_id() {
        let mut idx = FlatIndex::new(2);
        idx.insert(Record::new(5, vec2(1.0, 0.0)));
        idx.insert(Record::new(3, vec2(1.0, 0.0)));
        let hits = idx.search(&vec2(1.0, 0.0), 2);
        assert_eq!(hits[0].id, 3);
    }

    #[test]
    fn ivf_state_roundtrip_preserves_structure_and_behavior() {
        let mut idx = IvfIndex::new(2, 2);
        let mut vectors: HashMap<u64, Embedding> = HashMap::new();
        let mut insert = |idx: &mut IvfIndex, r: Record| {
            vectors.insert(r.id, r.vector.clone());
            idx.insert(r);
        };
        for i in 0..12u64 {
            let angle = i as f32 * 0.5;
            insert(
                &mut idx,
                Record::new(i, vec2(angle.cos(), angle.sin()))
                    .with_meta("label", if i % 2 == 0 { "even" } else { "odd" })
                    .with_meta("src", "test"),
            );
        }
        idx.train(3);
        insert(&mut idx, Record::new(12, vec2(0.1, 0.9)));
        idx.remove(3);

        let state = idx.to_state();
        // JSON round trip: what a journal checkpoint actually stores — the
        // layout and metadata, never the vectors.
        let json = serde_json::to_string(&state).unwrap();
        assert!(!json.contains("vector"), "vectors leaked into the layout: {json}");
        let state2: IvfState = serde_json::from_str(&json).unwrap();
        assert_eq!(state, state2);

        let restored = IvfIndex::from_state(state2, |id| vectors.get(&id).cloned());
        assert_eq!(restored.to_state(), state);
        assert_eq!(restored.len(), idx.len());
        assert_eq!(restored.train_count(), idx.train_count());
        assert_eq!(restored.mutations_since_train(), idx.mutations_since_train());
        // Identical structure ⇒ identical search results, filtered ones
        // included (the metadata round-tripped)…
        let q = vec2(0.6, 0.8);
        assert_eq!(restored.search(&q, 5), idx.search(&q, 5));
        let odd = Filter::none().must("label", "odd").must("src", "test");
        assert_eq!(restored.search_filtered(&q, 5, &odd), idx.search_filtered(&q, 5, &odd));
        assert_eq!(restored.get(5).unwrap().metadata, idx.get(5).unwrap().metadata);
        // …and identical behavior under further mutations (auto-retrain
        // counters continue from the restored values).
        let mut a = idx.clone();
        let mut b = restored;
        for i in 20..40u64 {
            let angle = i as f32 * 0.31;
            a.insert(Record::new(i, vec2(angle.sin(), angle.cos())));
            b.insert(Record::new(i, vec2(angle.sin(), angle.cos())));
        }
        assert_eq!(a.train_count(), b.train_count());
        assert_eq!(a.search(&q, 8), b.search(&q, 8));
    }

    #[test]
    fn ivf_state_drops_records_without_a_usable_vector() {
        let mut idx = IvfIndex::new(2, 1);
        for i in 0..6u64 {
            idx.insert(Record::new(i, vec2(i as f32, 1.0)));
        }
        let restored = IvfIndex::from_state(idx.to_state(), |id| match id {
            2 => None,
            4 => Some(Embedding::new(vec![1.0, 2.0, 3.0])),
            _ => Some(vec2(id as f32, 1.0)),
        });
        assert_eq!(restored.len(), 4);
        assert!(restored.get(2).is_none() && restored.get(4).is_none());
        assert_eq!(restored.search(&vec2(5.0, 1.0), 1)[0].id, 5);
    }

    #[test]
    fn ivf_state_repairs_inconsistent_partition_layout() {
        let mut idx = IvfIndex::new(2, 1);
        for i in 0..6u64 {
            idx.insert(Record::new(i, vec2(i as f32, 1.0)));
        }
        idx.train(2);
        let mut state = idx.to_state();
        // Simulate a snapshot whose partition list lost a bucket: the
        // restore must not leave `assign` pointing past the end.
        state.partitions.pop();
        let restored = IvfIndex::from_state(state, |id| Some(vec2(id as f32, 1.0)));
        assert!(restored.len() <= 6);
        let hits = restored.search(&vec2(2.0, 1.0), 3);
        assert!(!hits.is_empty());
    }

    #[test]
    fn k_larger_than_len() {
        let mut idx = FlatIndex::new(2);
        idx.insert(Record::new(0, vec2(1.0, 0.0)));
        assert_eq!(idx.search(&vec2(1.0, 0.0), 10).len(), 1);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn insert_wrong_dims_panics() {
        let mut idx = FlatIndex::new(3);
        idx.insert(Record::new(0, vec2(1.0, 0.0)));
    }

    /// The seed's full-sort selection, kept verbatim as the oracle the
    /// heap-based `top_k` must match.
    fn top_k_by_sort(mut candidates: Vec<SearchResult>, k: usize) -> Vec<SearchResult> {
        candidates.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        candidates.truncate(k);
        candidates
    }

    #[test]
    fn heap_top_k_matches_full_sort_on_random_inputs() {
        use rand::Rng;
        use rand_chacha::rand_core::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        for round in 0..50 {
            let n = rng.gen_range(0..400usize);
            // Coarse score grid so exact ties (same score, different id)
            // occur constantly and exercise the id tie-break.
            let candidates: Vec<SearchResult> = (0..n)
                .map(|id| SearchResult {
                    id: id as u64,
                    score: rng.gen_range(0..20) as f32 / 20.0,
                })
                .collect();
            for k in [0usize, 1, 3, 10, n, n + 7] {
                assert_eq!(
                    top_k(candidates.clone(), k),
                    top_k_by_sort(candidates.clone(), k),
                    "round={round} n={n} k={k}"
                );
            }
        }
    }

    /// A pool big enough to trip the parallel shard scan must return
    /// byte-identical hits at every thread count, for both index types.
    #[test]
    fn parallel_scan_identical_across_thread_counts() {
        use rand::Rng;
        use rand_chacha::rand_core::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let n = PAR_SCAN_THRESHOLD + 1500;
        let mut flat = FlatIndex::new(4);
        let mut ivf = IvfIndex::new(4, 2);
        for i in 0..n as u64 {
            let v = Embedding::new((0..4).map(|_| rng.gen_range(-1.0f32..1.0)).collect());
            let label = if i % 3 == 0 { "bug" } else { "other" };
            flat.insert(Record::new(i, v.clone()).with_meta("label", label));
            ivf.insert(Record::new(i, v).with_meta("label", label));
        }
        ivf.train(8);
        let query = Embedding::new(vec![0.3, -0.2, 0.9, 0.1]);
        let filter = Filter::none().must("label", "bug");
        let serial = allhands_par::with_threads(1, || {
            (
                flat.search(&query, 12),
                flat.search_filtered(&query, 12, &filter),
                ivf.search(&query, 12),
            )
        });
        for threads in [2usize, 4, 8] {
            let parallel = allhands_par::with_threads(threads, || {
                (
                    flat.search(&query, 12),
                    flat.search_filtered(&query, 12, &filter),
                    ivf.search(&query, 12),
                )
            });
            assert_eq!(serial, parallel, "threads={threads}");
        }
        // And the parallel shard path agrees with a plain full sort over
        // the pre-refactor representation (owned records, per-row cosine):
        // the golden before/after-arena equality check.
        let oracle = top_k_by_sort(
            flat.iter()
                .map(|r| SearchResult { id: r.id, score: query.cosine(&r.vector) })
                .collect(),
            12,
        );
        assert_eq!(serial.0, oracle);
    }

    /// The quantized candidate-pruning scan must be invisible: hits are
    /// byte-identical to the exact path — across ties, NaN rows, filters,
    /// serial and sharded scans, for both index types.
    #[test]
    fn quantized_scan_matches_exact_scan_bitwise() {
        use rand::Rng;
        use rand_chacha::rand_core::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(41);
        let dims = 16;
        let n = PAR_SCAN_THRESHOLD + 900; // sharded scan, quant engaged
        let mut flat = FlatIndex::new(dims);
        let mut ivf = IvfIndex::new(dims, 3);
        for i in 0..n as u64 {
            let v = Embedding::new((0..dims).map(|_| rng.gen_range(-2.0f32..2.0)).collect());
            let label = if i % 4 == 0 { "bug" } else { "other" };
            flat.insert(Record::new(i, v.clone()).with_meta("label", label));
            ivf.insert(Record::new(i, v).with_meta("label", label));
        }
        // Exact ties and degenerate rows ride along.
        for id in [90_000u64, 90_001, 90_002] {
            let v = Embedding::new(vec![0.25; dims]);
            flat.insert(Record::new(id, v.clone()));
            ivf.insert(Record::new(id, v));
        }
        let mut nan_vals = vec![0.1f32; dims];
        nan_vals[3] = f32::NAN;
        flat.insert(Record::new(91_000, Embedding::new(nan_vals.clone())));
        ivf.insert(Record::new(91_000, Embedding::new(nan_vals)));
        flat.insert(Record::new(92_000, Embedding::zeros(dims)));
        ivf.insert(Record::new(92_000, Embedding::zeros(dims)));
        ivf.train(6);
        let mut flat_exact = flat.clone();
        flat_exact.set_quantization(false);
        let mut ivf_exact = ivf.clone();
        ivf_exact.set_quantization(false);
        let filter = Filter::none().must("label", "bug");
        let queries = [
            Embedding::new((0..dims).map(|_| rng.gen_range(-2.0f32..2.0)).collect()),
            Embedding::new(vec![0.25; dims]), // exactly a tied row
            Embedding::zeros(dims),           // degenerate query: quant disabled
            Embedding::new((0..dims).map(|d| if d == 0 { 1000.0 } else { 1e-5 }).collect()),
        ];
        for (qi, q) in queries.iter().enumerate() {
            for k in [1usize, 7, 40] {
                for threads in [1usize, 4] {
                    allhands_par::with_threads(threads, || {
                        assert_same_hits(
                            &flat_exact.search(q, k),
                            &flat.search(q, k),
                            &format!("flat q{qi} k{k} t{threads}"),
                        );
                        assert_same_hits(
                            &flat_exact.search_filtered(q, k, &filter),
                            &flat.search_filtered(q, k, &filter),
                            &format!("flat+filter q{qi} k{k} t{threads}"),
                        );
                        assert_same_hits(
                            &ivf_exact.search(q, k),
                            &ivf.search(q, k),
                            &format!("ivf q{qi} k{k} t{threads}"),
                        );
                    });
                }
            }
        }
    }

    /// Regression: a record exactly equidistant from two centroids must be
    /// stored in the same partition the probe ranking visits first.
    /// Before the `total_cmp` + index tie-break, `assign` used `min_by`
    /// (keeps the LAST of equal minima) while the probe used a stable sort
    /// (keeps the FIRST), so the record landed in one partition and
    /// `nprobe = 1` probed the other — an unreachable vector.
    #[test]
    fn equidistant_centroid_assignment_matches_probe_order() {
        let mut ivf = IvfIndex::new(2, 1);
        for i in 0..25u64 {
            ivf.insert(Record::new(i, vec2(1.0, 0.0)));
        }
        for i in 25..50u64 {
            ivf.insert(Record::new(i, vec2(-1.0, 0.0)));
        }
        ivf.train(2);
        assert_eq!(ivf.n_partitions(), 2);
        // (0, 1) is exactly sq_dist 2.0 from both centroids (1,0), (-1,0).
        ivf.insert(Record::new(100, vec2(0.0, 1.0)));
        let hits = ivf.search(&vec2(0.0, 1.0), 1);
        assert_eq!(hits[0].id, 100, "equidistant record probed in the wrong partition");
        assert!(hits[0].score > 0.99);
    }

    /// Bitwise hit comparison: `SearchResult` equality via `PartialEq`
    /// rejects NaN == NaN, which is exactly the case these fixtures pin.
    fn assert_same_hits(a: &[SearchResult], b: &[SearchResult], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}: lengths differ");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.id, y.id, "{ctx}");
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "{ctx} id {}", x.id);
        }
    }

    /// NaN-bearing vectors must not destabilize assignment or ranking:
    /// searches stay deterministic and keep matching the flat oracle.
    #[test]
    fn nan_vectors_keep_total_order_and_match_flat() {
        let mut flat = FlatIndex::new(2);
        // nprobe >= partition count: IVF probes everything, so any result
        // difference can only come from ordering, not from recall.
        let mut ivf = IvfIndex::new(2, 8);
        for i in 0..60u64 {
            let angle = i as f32 * 0.1;
            let v = vec2(angle.cos(), angle.sin());
            flat.insert(Record::new(i, v.clone()));
            ivf.insert(Record::new(i, v));
        }
        ivf.train(4);
        let poisoned = vec2(f32::NAN, 0.5);
        flat.insert(Record::new(500, poisoned.clone()));
        ivf.insert(Record::new(500, poisoned));
        assert!(ivf.get(500).is_some(), "NaN vector must still be stored and retrievable");
        for (qi, q) in [vec2(1.0, 0.2), vec2(-0.3, 0.9), vec2(f32::NAN, 1.0)].iter().enumerate() {
            let f = flat.search(q, 5);
            let v = ivf.search(q, 5);
            assert_same_hits(&f, &v, &format!("query {qi}"));
            // Total order ⇒ repeat searches are byte-identical.
            let again = ivf.search(q, 5);
            assert_same_hits(&v, &again, &format!("query {qi} repeat"));
        }
        // A NaN vector can survive a retrain: it sits out k-means and is
        // routed deterministically afterwards.
        ivf.train(4);
        assert!(ivf.get(500).is_some());
        assert_same_hits(&flat.search(&vec2(1.0, 0.2), 5), &ivf.search(&vec2(1.0, 0.2), 5), "post-retrain");
    }

    /// Regression for `IvfIndex::remove`: removing a non-tail record
    /// swap-removes the partition tail into its slot, and the moved
    /// record's `by_id` offset must follow it (the stale-offset case).
    #[test]
    fn ivf_remove_non_tail_fixes_moved_offset() {
        let mut ivf = IvfIndex::new(2, 1);
        // One partition (untrained): offsets are insertion order.
        for i in 0..5u64 {
            let angle = i as f32;
            ivf.insert(Record::new(i, vec2(angle.cos(), angle.sin())));
        }
        assert!(ivf.remove(1)); // tail record 4 swaps into offset 1
        assert!(!ivf.remove(1), "second remove of the same id must be a no-op");
        assert_eq!(ivf.len(), 4);
        assert!(ivf.get(1).is_none(), "removed record still resolvable");
        let moved = ivf.get(4).expect("moved tail record lost");
        assert_eq!(moved.id, 4);
        assert!((moved.vector.as_slice()[0] - (4.0f32).cos()).abs() < 1e-6);
        // And on a trained index, through the trait object.
        let mut trained = IvfIndex::new(2, 2);
        for i in 0..40u64 {
            let v = if i % 2 == 0 { vec2(1.0, i as f32 * 0.01) } else { vec2(-1.0, i as f32 * 0.01) };
            trained.insert(Record::new(i, v));
        }
        trained.train(2);
        let index: &mut dyn VectorIndex = &mut trained;
        assert!(index.remove(0));
        assert!(index.get(0).is_none());
        assert_eq!(index.len(), 39);
        for i in 1..40u64 {
            assert_eq!(index.get(i).expect("survivor lost").id, i);
        }
        assert!(index.search(&vec2(1.0, 0.0), 40).iter().all(|h| h.id != 0));
    }

    /// Upsert where the new vector stays in the *same* partition as the old
    /// one: `swap_remove` moves the partition tail into the vacated slot,
    /// then the re-insert appends — every offset in `by_id` must survive.
    #[test]
    fn ivf_upsert_same_partition_keeps_offsets_consistent() {
        let mut ivf = IvfIndex::new(2, 1);
        for i in 0..10u64 {
            ivf.insert(Record::new(i, vec2(1.0, i as f32 * 0.01)));
        }
        for i in 10..20u64 {
            ivf.insert(Record::new(i, vec2(-1.0, i as f32 * 0.01)));
        }
        ivf.train(2);
        // id 3 was not the tail of its partition; its replacement vector is
        // still nearest the (1, 0) centroid, so the round trip stays inside
        // one partition.
        ivf.insert(Record::new(3, vec2(0.9, 0.1)));
        assert_eq!(ivf.len(), 20);
        for i in 0..20u64 {
            let r = ivf.get(i).unwrap_or_else(|| panic!("id {i} lost after upsert"));
            assert_eq!(r.id, i, "by_id offset for id {i} points at the wrong record");
        }
        let hit = &ivf.search(&vec2(0.9, 0.1), 1)[0];
        assert_eq!(hit.id, 3);
        assert!(hit.score > 0.999);
    }

    /// Regression: `train` on too few records used to no-op and forget the
    /// request entirely, so an index "trained" on 3 records never
    /// partitioned no matter how many inserts followed. The request is now
    /// remembered and the staleness-ratio auto-retrain performs it.
    #[test]
    fn noop_train_arms_deferred_retraining() {
        let mut ivf = IvfIndex::new(2, 2);
        for i in 0..3u64 {
            ivf.insert(Record::new(i, vec2(i as f32, 1.0)));
        }
        ivf.train(8); // 3 < 8: partitioning no-ops, request remembered
        assert!(!ivf.is_trained());
        assert_eq!(ivf.n_partitions(), 1);
        assert_eq!(ivf.train_count(), 0);
        for i in 3..1003u64 {
            let angle = i as f32 * 0.006;
            ivf.insert(Record::new(i, vec2(angle.cos(), angle.sin())));
        }
        assert!(ivf.is_trained(), "insert flood never triggered the deferred training");
        assert_eq!(ivf.n_partitions(), 8);
        assert!(ivf.train_count() >= 1);
        // Every retrain resets the mutation counter, so the final staleness
        // sits below the trigger ratio.
        assert!(ivf.staleness() < IvfIndex::DEFAULT_RETRAIN_STALENESS);
    }

    /// `set_retrain_policy(None)` turns the automation off.
    #[test]
    fn retrain_policy_none_disables_auto_retraining() {
        let mut ivf = IvfIndex::new(2, 2);
        ivf.set_retrain_policy(None);
        for i in 0..3u64 {
            ivf.insert(Record::new(i, vec2(i as f32, 1.0)));
        }
        ivf.train(8);
        for i in 3..1003u64 {
            ivf.insert(Record::new(i, vec2((i as f32).cos(), (i as f32).sin())));
        }
        assert!(!ivf.is_trained());
        assert_eq!(ivf.train_count(), 0);
        assert!(ivf.staleness() > 0.9);
    }

    /// Acceptance fixture: a seeded (insert, upsert, remove) stream with
    /// auto-retrains firing along the way — plus NaN and exactly-tied
    /// vectors — must keep IVF search results identical to a FlatIndex
    /// oracle fed the same mutations (nprobe covers all partitions, so
    /// the comparison isolates ordering and bookkeeping, not recall).
    #[test]
    fn ivf_matches_flat_oracle_through_mutation_sequences() {
        use rand::Rng;
        use rand_chacha::rand_core::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        let mut flat = FlatIndex::new(3);
        let mut ivf = IvfIndex::new(3, 64);
        let rand_vec = |rng: &mut rand_chacha::ChaCha8Rng| {
            Embedding::new((0..3).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        };
        for i in 0..300u64 {
            let v = rand_vec(&mut rng);
            flat.insert(Record::new(i, v.clone()));
            ivf.insert(Record::new(i, v));
        }
        ivf.train(6);
        // Exactly-tied vectors (identical bytes, distinct ids) and a NaN
        // record ride along through the whole stream.
        for id in [800u64, 801, 802] {
            let v = Embedding::new(vec![0.5, -0.5, 0.5]);
            flat.insert(Record::new(id, v.clone()));
            ivf.insert(Record::new(id, v));
        }
        let nan = Embedding::new(vec![f32::NAN, 0.1, 0.2]);
        flat.insert(Record::new(900, nan.clone()));
        ivf.insert(Record::new(900, nan));
        let mut next_id = 301u64;
        let mut live: Vec<u64> = (0..300).chain([800, 801, 802, 900]).collect();
        for step in 0..600 {
            match rng.gen_range(0..3usize) {
                0 => {
                    let v = rand_vec(&mut rng);
                    flat.insert(Record::new(next_id, v.clone()));
                    ivf.insert(Record::new(next_id, v));
                    live.push(next_id);
                    next_id += 1;
                }
                1 => {
                    let id = live[rng.gen_range(0..live.len())];
                    let v = rand_vec(&mut rng);
                    flat.insert(Record::new(id, v.clone()));
                    ivf.insert(Record::new(id, v));
                }
                _ => {
                    let id = live.swap_remove(rng.gen_range(0..live.len()));
                    assert_eq!(flat.remove(id), ivf.remove(id), "step {step} id {id}");
                }
            }
            assert_eq!(flat.len(), ivf.len(), "step {step}");
            if step % 50 == 0 {
                let q = rand_vec(&mut rng);
                assert_same_hits(&flat.search(&q, 12), &ivf.search(&q, 12), &format!("step {step}"));
            }
        }
        assert!(ivf.train_count() >= 2, "mutation stream should have auto-retrained");
        for (qi, q) in [
            Embedding::new(vec![0.5, -0.5, 0.5]),
            Embedding::new(vec![f32::NAN, 0.0, 0.0]),
            rand_vec(&mut rng),
        ]
        .iter()
        .enumerate()
        {
            assert_same_hits(&flat.search(q, 20), &ivf.search(q, 20), &format!("final query {qi}"));
        }
    }
}
