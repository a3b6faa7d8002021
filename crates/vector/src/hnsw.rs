//! Hierarchical Navigable Small World graphs (Malkov & Yashunin, 2018).
//!
//! The approximate nearest-neighbour algorithm UniAsk's vector-search
//! module runs inside Azure AI Search, implemented from scratch:
//!
//! * nodes are inserted at a geometrically distributed maximum layer
//!   (`ml = 1/ln(M)`);
//! * each layer is a navigable proximity graph with at most `M`
//!   neighbours per node (`2M` on layer 0);
//! * queries greedily descend from the top layer's entry point and run
//!   a best-first beam search (`ef_search`) on layer 0.
//!
//! Similarity is the dot product of L2-normalized vectors, i.e. cosine.
//!
//! # SQ8 scalar quantization
//!
//! With [`HnswParams::sq8`] (the default), every stored vector is also
//! kept as per-dimension affine `u8` codes in one contiguous arena:
//! `x[d] ≈ min[d] + code[d] · step[d]`. Graph traversal then scores
//! candidates through [`crate::distance::dot_i32_u8`] — the query is
//! folded into fixed-point integer weights once per search — so the hot
//! loop touches 1 byte/dimension instead of 4 and runs on exact integer
//! accumulators. The final layer-0 beam is *re-ranked with the
//! full-precision `f32` vectors*, so the returned top-k is exactly the
//! best of the visited candidates; quantization can only affect which
//! candidates get visited (recall, bounded by tests), never how the
//! survivors are ordered. Construction always uses full precision: the
//! graph is identical with quantization on or off.
//!
//! The codebook is fitted with a slack margin and refitted (all codes
//! rebuilt) when an insert falls outside the covered range, so the code
//! arena is always a function of the insertion history — deterministic,
//! and carried verbatim by a snapshot.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::distance::{dot, dot_i32_u8, normalize};
use crate::{Neighbor, VectorIndex};

/// HNSW construction/search parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HnswParams {
    /// Max neighbours per node on layers ≥ 1 (layer 0 allows `2·m`).
    pub m: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
    /// Beam width during search (raised to `k` when smaller).
    pub ef_search: usize,
    /// RNG seed for layer assignment (determinism).
    pub seed: u64,
    /// Use the diversity heuristic of Malkov & Yashunin's Algorithm 4
    /// when selecting neighbours (instead of plain nearest-M). The
    /// heuristic keeps a candidate only when it is closer to the base
    /// point than to every already-selected neighbour, which spreads
    /// edges across clusters and improves recall on clustered data.
    pub heuristic_selection: bool,
    /// Traverse the graph on SQ8 quantized codes (integer kernel) and
    /// re-rank the final beam with full-precision `f32`. Switched off
    /// for good by the first insert whose dimension differs from the
    /// quantized vectors'.
    pub sq8: bool,
}

impl Default for HnswParams {
    fn default() -> Self {
        HnswParams {
            m: 16,
            ef_construction: 128,
            ef_search: 64,
            seed: 0x9e37_79b9,
            heuristic_selection: false,
            sq8: true,
        }
    }
}

// ------------------------------------------------------------ SQ8

/// Fraction of each dimension's observed range added as slack on both
/// sides of the codebook, so small drifts don't force a refit.
const SQ8_SLACK: f32 = 0.125;
/// Absolute floor of the slack margin (also guarantees `step > 0`).
const SQ8_MIN_SLACK: f32 = 1e-3;

/// Per-dimension affine codebook: `x ≈ min[d] + code · step[d]`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Sq8Codebook {
    pub(crate) min: Vec<f32>,
    pub(crate) step: Vec<f32>,
}

impl Sq8Codebook {
    /// Fit over `vectors` (all of dimension `dim`) with slack margins.
    fn fit<'a>(vectors: impl Iterator<Item = &'a [f32]>, dim: usize) -> Self {
        let mut lo = vec![f32::INFINITY; dim];
        let mut hi = vec![f32::NEG_INFINITY; dim];
        for v in vectors {
            for d in 0..dim {
                lo[d] = lo[d].min(v[d]);
                hi[d] = hi[d].max(v[d]);
            }
        }
        let mut min = Vec::with_capacity(dim);
        let mut step = Vec::with_capacity(dim);
        for d in 0..dim {
            let (l, h) = if lo[d] <= hi[d] {
                (lo[d], hi[d])
            } else {
                (0.0, 0.0)
            };
            let pad = (SQ8_SLACK * (h - l)).max(SQ8_MIN_SLACK);
            min.push(l - pad);
            step.push(((h + pad) - (l - pad)) / 255.0);
        }
        Sq8Codebook { min, step }
    }

    /// Whether `v` falls inside the covered range on every dimension.
    fn covers(&self, v: &[f32]) -> bool {
        v.iter().enumerate().all(|(d, &x)| {
            let upper = self.min[d] + self.step[d] * 255.0;
            x >= self.min[d] && x <= upper
        })
    }

    /// Append the codes of `v` to `out`.
    fn encode_into(&self, v: &[f32], out: &mut Vec<u8>) {
        for (d, &x) in v.iter().enumerate() {
            let code = ((x - self.min[d]) / self.step[d]).round();
            out.push(code.clamp(0.0, 255.0) as u8);
        }
    }
}

/// Quantization state: the codebook plus one contiguous code arena
/// (row `i` at `codes[i*dim..(i+1)*dim]`, parallel to `nodes`).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Sq8State {
    pub(crate) codebook: Sq8Codebook,
    pub(crate) dim: usize,
    pub(crate) codes: Vec<u8>,
}

impl Sq8State {
    #[inline]
    fn row(&self, i: usize) -> &[u8] {
        &self.codes[i * self.dim..(i + 1) * self.dim]
    }
}

/// A query folded against a codebook: fixed-point integer weights for
/// the `u8` kernel plus the affine constant, so that
/// `sim ≈ k0 + (Σ w[d]·code[d]) · descale`.
struct Sq8Query {
    w: Vec<i32>,
    k0: f64,
    descale: f64,
}

impl Sq8Query {
    fn prepare(codebook: &Sq8Codebook, q: &[f32]) -> Self {
        let dim = q.len();
        let mut k0 = 0.0f64;
        let mut t = Vec::with_capacity(dim);
        let mut max_abs = 0.0f64;
        for (d, &qd) in q.iter().enumerate() {
            k0 += f64::from(qd) * f64::from(codebook.min[d]);
            let td = f64::from(qd) * f64::from(codebook.step[d]);
            max_abs = max_abs.max(td.abs());
            t.push(td);
        }
        if max_abs == 0.0 {
            return Sq8Query {
                w: vec![0; dim],
                k0,
                descale: 0.0,
            };
        }
        // Scale so |w| ≤ 2^21: 255·dim·2^21 stays far below i64 range
        // and w far below i32 range.
        let s = ((f64::from(1u32 << 21) / max_abs).log2().floor() as i32).clamp(0, 40);
        let scale = 2.0f64.powi(s);
        let w = t.iter().map(|&td| (td * scale).round() as i32).collect();
        Sq8Query {
            w,
            k0,
            descale: 2.0f64.powi(-s),
        }
    }

    #[inline]
    fn sim(&self, codes: &[u8]) -> f32 {
        (self.k0 + dot_i32_u8(&self.w, codes) as f64 * self.descale) as f32
    }
}

/// Internal node: vector, external id, per-layer adjacency.
#[derive(Debug)]
pub(crate) struct Node {
    pub(crate) id: u32,
    pub(crate) vector: Vec<f32>,
    /// `neighbors[l]` = adjacency at layer `l`; `len() == level + 1`.
    pub(crate) neighbors: Vec<Vec<u32>>,
}

/// Max-heap entry ordered by similarity.
#[derive(Debug, PartialEq)]
struct Candidate {
    sim: f32,
    node: u32,
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.sim
            .partial_cmp(&other.sim)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap entry (reverse ordering) for the result set.
#[derive(Debug, PartialEq)]
struct RevCandidate(Candidate);

impl Eq for RevCandidate {}

impl Ord for RevCandidate {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.cmp(&self.0)
    }
}

impl PartialOrd for RevCandidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// An HNSW approximate nearest-neighbour index.
///
/// ```
/// use uniask_vector::{Hnsw, HnswParams, VectorIndex};
///
/// let mut index = Hnsw::new(HnswParams::default());
/// index.add(7, vec![1.0, 0.0]);
/// index.add(9, vec![0.0, 1.0]);
/// let hits = index.search(&[0.9, 0.1], 1);
/// assert_eq!(hits[0].id, 7);
/// ```
#[derive(Debug)]
pub struct Hnsw {
    pub(crate) params: HnswParams,
    pub(crate) nodes: Vec<Node>,
    pub(crate) entry_point: Option<u32>,
    pub(crate) max_level: usize,
    pub(crate) rng: ChaCha8Rng,
    /// `1 / ln(M)` — the level-assignment multiplier from the paper.
    pub(crate) ml: f64,
    /// Quantization state; `None` until the first insert (or when
    /// quantization is off/disabled).
    pub(crate) sq8: Option<Sq8State>,
}

/// Resident-memory breakdown of an HNSW index.
#[derive(Debug, Clone, Copy, Default)]
pub struct VectorMemoryStats {
    /// Bytes held by the full-precision `f32` vectors.
    pub vectors_f32_bytes: usize,
    /// Bytes held by the SQ8 code arena (0 when quantization is off).
    pub codes_bytes: usize,
    /// Bytes held by the adjacency lists.
    pub graph_bytes: usize,
    /// Whether quantized traversal is active.
    pub quantized: bool,
}

impl VectorMemoryStats {
    /// Bytes the *traversal* hot loop touches per candidate set: codes
    /// plus graph when quantized, vectors plus graph otherwise.
    pub fn traversal_bytes(&self) -> usize {
        if self.quantized {
            self.codes_bytes + self.graph_bytes
        } else {
            self.vectors_f32_bytes + self.graph_bytes
        }
    }

    /// `f32 vector bytes / code bytes` — 0.0 when not quantized.
    pub fn compression_ratio(&self) -> f64 {
        if self.codes_bytes == 0 {
            0.0
        } else {
            self.vectors_f32_bytes as f64 / self.codes_bytes as f64
        }
    }
}

impl Hnsw {
    /// Create an empty index.
    pub fn new(params: HnswParams) -> Self {
        let ml = 1.0 / (params.m.max(2) as f64).ln();
        Hnsw {
            rng: ChaCha8Rng::seed_from_u64(params.seed),
            params,
            nodes: Vec::new(),
            entry_point: None,
            max_level: 0,
            ml,
            sq8: None,
        }
    }

    /// Construction parameters.
    pub fn params(&self) -> &HnswParams {
        &self.params
    }

    /// Ids of the stored vectors, in insertion order.
    pub fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.nodes.iter().map(|n| n.id)
    }

    /// A fresh index over the vectors whose id `keep` accepts,
    /// re-inserted in their original order: the graph a new index
    /// with these parameters builds from the same inserts.
    pub fn rebuilt(&self, keep: impl Fn(u32) -> bool) -> Hnsw {
        let mut fresh = Hnsw::new(self.params);
        for node in self.nodes.iter().filter(|n| keep(n.id)) {
            fresh.insert(node.id, node.vector.clone());
        }
        fresh
    }

    /// Whether quantized traversal is currently active.
    pub fn is_quantized(&self) -> bool {
        self.params.sq8 && self.sq8.is_some()
    }

    /// Resident-memory breakdown (vectors, codes, adjacency).
    pub fn memory_stats(&self) -> VectorMemoryStats {
        let mut vectors_f32_bytes = 0usize;
        let mut graph_bytes = 0usize;
        for node in &self.nodes {
            vectors_f32_bytes += node.vector.capacity() * std::mem::size_of::<f32>();
            for layer in &node.neighbors {
                graph_bytes += layer.capacity() * std::mem::size_of::<u32>();
            }
        }
        let codes_bytes = self.sq8.as_ref().map_or(0, |s| s.codes.capacity());
        VectorMemoryStats {
            vectors_f32_bytes,
            codes_bytes,
            graph_bytes,
            quantized: self.is_quantized(),
        }
    }

    /// Maintain the SQ8 arena for the vector just pushed (the last node).
    fn sq8_note_insert(&mut self) {
        if !self.params.sq8 {
            return;
        }
        enum Action {
            Disable,
            Append,
            Refit,
        }
        let internal = self.nodes.len() - 1;
        let dim = self.nodes[internal].vector.len();
        let action = match &self.sq8 {
            Some(state) if state.dim != dim => Action::Disable,
            Some(state) if state.codebook.covers(&self.nodes[internal].vector) => Action::Append,
            _ => Action::Refit,
        };
        match action {
            Action::Disable => {
                // Mixed dimensionality: quantized traversal is off for
                // good (full-precision search still works).
                self.params.sq8 = false;
                self.sq8 = None;
            }
            Action::Append => {
                let state = self.sq8.as_mut().expect("state present");
                let Sq8State {
                    codebook, codes, ..
                } = state;
                codebook.encode_into(&self.nodes[internal].vector, codes);
            }
            Action::Refit => self.sq8_refit(dim),
        }
    }

    /// Refit the codebook over every stored vector and rebuild the code
    /// arena for them.
    fn sq8_refit(&mut self, dim: usize) {
        let codebook = Sq8Codebook::fit(self.nodes.iter().map(|n| n.vector.as_slice()), dim);
        let mut codes = Vec::with_capacity(self.nodes.len() * dim);
        for node in &self.nodes {
            codebook.encode_into(&node.vector, &mut codes);
        }
        self.sq8 = Some(Sq8State {
            codebook,
            dim,
            codes,
        });
    }

    fn sample_level(&mut self) -> usize {
        let u: f64 = self.rng.gen::<f64>().max(f64::MIN_POSITIVE);
        (-u.ln() * self.ml).floor() as usize
    }

    #[inline]
    fn sim(&self, a: usize, q: &[f32]) -> f32 {
        dot(&self.nodes[a].vector, q)
    }

    /// Greedy best-first beam search on one layer, scoring with the
    /// full-precision kernel.
    fn search_layer(&self, query: &[f32], entry: u32, ef: usize, layer: usize) -> Vec<Candidate> {
        self.search_layer_scored(|i| self.sim(i, query), entry, ef, layer)
    }

    /// Greedy best-first beam search on one layer under an arbitrary
    /// scoring function (full-precision or quantized). Returns up to
    /// `ef` candidates, best first.
    fn search_layer_scored<F: Fn(usize) -> f32>(
        &self,
        score: F,
        entry: u32,
        ef: usize,
        layer: usize,
    ) -> Vec<Candidate> {
        let mut visited = vec![false; self.nodes.len()];
        let mut candidates: BinaryHeap<Candidate> = BinaryHeap::new();
        let mut results: BinaryHeap<RevCandidate> = BinaryHeap::new();
        let entry_sim = score(entry as usize);
        visited[entry as usize] = true;
        candidates.push(Candidate {
            sim: entry_sim,
            node: entry,
        });
        results.push(RevCandidate(Candidate {
            sim: entry_sim,
            node: entry,
        }));
        while let Some(best) = candidates.pop() {
            let worst_result = results.peek().map(|r| r.0.sim).unwrap_or(f32::MIN);
            if best.sim < worst_result && results.len() >= ef {
                break;
            }
            let node = &self.nodes[best.node as usize];
            if layer < node.neighbors.len() {
                for &nb in &node.neighbors[layer] {
                    if visited[nb as usize] {
                        continue;
                    }
                    visited[nb as usize] = true;
                    let s = score(nb as usize);
                    let worst = results.peek().map(|r| r.0.sim).unwrap_or(f32::MIN);
                    if results.len() < ef || s > worst {
                        candidates.push(Candidate { sim: s, node: nb });
                        results.push(RevCandidate(Candidate { sim: s, node: nb }));
                        if results.len() > ef {
                            results.pop();
                        }
                    }
                }
            }
        }
        let mut out: Vec<Candidate> = results.into_iter().map(|r| r.0).collect();
        out.sort_by(|a, b| b.cmp(a));
        out
    }

    /// Simple neighbour selection: keep the `m` most similar candidates.
    fn select_neighbors(mut cands: Vec<Candidate>, m: usize) -> Vec<u32> {
        cands.sort_by(|a, b| b.cmp(a));
        cands.truncate(m);
        cands.into_iter().map(|c| c.node).collect()
    }

    /// Algorithm 4: diversity-aware neighbour selection. A candidate is
    /// selected only when it is more similar to the query point than to
    /// any neighbour selected so far.
    fn select_neighbors_heuristic(&self, mut cands: Vec<Candidate>, m: usize) -> Vec<u32> {
        cands.sort_by(|a, b| b.cmp(a));
        let mut selected: Vec<u32> = Vec::with_capacity(m);
        for cand in &cands {
            if selected.len() >= m {
                break;
            }
            let cand_vec = &self.nodes[cand.node as usize].vector;
            let dominated = selected
                .iter()
                .any(|&sel| dot(&self.nodes[sel as usize].vector, cand_vec) > cand.sim);
            if !dominated {
                selected.push(cand.node);
            }
        }
        // Backfill with the nearest skipped candidates when the
        // diversity rule under-fills (keeps connectivity).
        if selected.len() < m {
            for cand in &cands {
                if selected.len() >= m {
                    break;
                }
                if !selected.contains(&cand.node) {
                    selected.push(cand.node);
                }
            }
        }
        selected
    }

    fn select(&self, cands: Vec<Candidate>, m: usize) -> Vec<u32> {
        if self.params.heuristic_selection {
            self.select_neighbors_heuristic(cands, m)
        } else {
            Self::select_neighbors(cands, m)
        }
    }

    fn max_degree(&self, layer: usize) -> usize {
        if layer == 0 {
            self.params.m * 2
        } else {
            self.params.m
        }
    }

    /// Prune `node`'s adjacency at `layer` back to the degree bound,
    /// keeping the most similar neighbours.
    fn shrink_neighbors(&mut self, node: u32, layer: usize) {
        let bound = self.max_degree(layer);
        let current = self.nodes[node as usize].neighbors[layer].clone();
        if current.len() <= bound {
            return;
        }
        let base = self.nodes[node as usize].vector.clone();
        let cands: Vec<Candidate> = current
            .iter()
            .map(|&nb| Candidate {
                sim: dot(&self.nodes[nb as usize].vector, &base),
                node: nb,
            })
            .collect();
        self.nodes[node as usize].neighbors[layer] = self.select(cands, bound);
    }

    /// Descend from the top layer to layer 1 under `score`, returning
    /// the layer-0 entry point.
    fn descend<F: Fn(usize) -> f32>(&self, score: &F, mut ep: u32) -> u32 {
        let mut layer = self.max_level;
        while layer > 0 {
            let best = self.search_layer_scored(score, ep, 1, layer);
            if let Some(b) = best.first() {
                ep = b.node;
            }
            layer -= 1;
        }
        ep
    }

    /// Full-precision search, ignoring any quantization state — the
    /// reference path quantized traversal is measured against.
    pub fn search_full_precision(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        let Some(ep) = self.entry_point else {
            return Vec::new();
        };
        if k == 0 {
            return Vec::new();
        }
        let mut q = query.to_vec();
        normalize(&mut q);
        let score = |i: usize| self.sim(i, &q);
        let ep = self.descend(&score, ep);
        let ef = self.params.ef_search.max(k);
        let cands = self.search_layer_scored(score, ep, ef, 0);
        cands
            .into_iter()
            .take(k)
            .map(|c| Neighbor {
                id: self.nodes[c.node as usize].id,
                similarity: c.sim,
            })
            .collect()
    }

    /// The raw layer-0 candidate beam for `query` under the *active*
    /// scorer (quantized when on), best first, `ef` wide — external
    /// ids with traversal similarities, before any re-ranking.
    /// Diagnostics and equivalence tests; `search` is the product path.
    pub fn traversal_beam(&self, query: &[f32], ef: usize) -> Vec<Neighbor> {
        let Some(ep) = self.entry_point else {
            return Vec::new();
        };
        let mut q = query.to_vec();
        normalize(&mut q);
        let cands = match (self.params.sq8, &self.sq8) {
            (true, Some(state)) if state.dim == q.len() => {
                let sq = Sq8Query::prepare(&state.codebook, &q);
                let score = |i: usize| sq.sim(state.row(i));
                let ep = self.descend(&score, ep);
                self.search_layer_scored(score, ep, ef.max(1), 0)
            }
            _ => {
                let score = |i: usize| self.sim(i, &q);
                let ep = self.descend(&score, ep);
                self.search_layer_scored(score, ep, ef.max(1), 0)
            }
        };
        cands
            .into_iter()
            .map(|c| Neighbor {
                id: self.nodes[c.node as usize].id,
                similarity: c.sim,
            })
            .collect()
    }

    /// Exactly re-rank a traversal beam with full-precision `f32`
    /// similarities: descending similarity, ties by ascending external
    /// id. Returns the top `k`.
    fn rerank_full_precision(&self, beam: Vec<Candidate>, q: &[f32], k: usize) -> Vec<Neighbor> {
        let mut exact: Vec<Neighbor> = beam
            .into_iter()
            .map(|c| Neighbor {
                id: self.nodes[c.node as usize].id,
                similarity: self.sim(c.node as usize, q),
            })
            .collect();
        exact.sort_by(|a, b| {
            b.similarity
                .partial_cmp(&a.similarity)
                .unwrap_or(Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        exact.truncate(k);
        exact
    }
}

impl Hnsw {
    /// Insert an already normalized vector.
    fn insert(&mut self, id: u32, vector: Vec<f32>) {
        let level = self.sample_level();
        let internal = self.nodes.len() as u32;
        self.nodes.push(Node {
            id,
            vector,
            neighbors: vec![Vec::new(); level + 1],
        });
        self.sq8_note_insert();
        let Some(mut ep) = self.entry_point else {
            self.entry_point = Some(internal);
            self.max_level = level;
            return;
        };
        let query = self.nodes[internal as usize].vector.clone();
        // Phase 1: greedy descent through layers above `level`.
        let mut layer = self.max_level;
        while layer > level {
            let best = self.search_layer(&query, ep, 1, layer);
            if let Some(b) = best.first() {
                ep = b.node;
            }
            layer -= 1;
        }
        // Phase 2: connect on layers min(level, max_level)..=0.
        let mut l = level.min(self.max_level);
        loop {
            let cands = self.search_layer(&query, ep, self.params.ef_construction, l);
            if let Some(b) = cands.first() {
                ep = b.node;
            }
            let selected = self.select(
                cands.into_iter().filter(|c| c.node != internal).collect(),
                self.params.m,
            );
            for &nb in &selected {
                self.nodes[internal as usize].neighbors[l].push(nb);
                if l < self.nodes[nb as usize].neighbors.len() {
                    self.nodes[nb as usize].neighbors[l].push(internal);
                    self.shrink_neighbors(nb, l);
                }
            }
            if l == 0 {
                break;
            }
            l -= 1;
        }
        if level > self.max_level {
            self.max_level = level;
            self.entry_point = Some(internal);
        }
    }
}

impl VectorIndex for Hnsw {
    fn add(&mut self, id: u32, mut vector: Vec<f32>) {
        normalize(&mut vector);
        self.insert(id, vector);
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        let Some(ep) = self.entry_point else {
            return Vec::new();
        };
        if k == 0 {
            return Vec::new();
        }
        let mut q = query.to_vec();
        normalize(&mut q);
        let ef = self.params.ef_search.max(k);
        match (self.params.sq8, &self.sq8) {
            (true, Some(state)) if state.dim == q.len() => {
                // Quantized traversal: the integer kernel steers the
                // beam, full precision decides the final order.
                let sq = Sq8Query::prepare(&state.codebook, &q);
                let score = |i: usize| sq.sim(state.row(i));
                let ep = self.descend(&score, ep);
                let beam = self.search_layer_scored(score, ep, ef, 0);
                self.rerank_full_precision(beam, &q, k)
            }
            _ => {
                let score = |i: usize| self.sim(i, &q);
                let ep = self.descend(&score, ep);
                let cands = self.search_layer_scored(score, ep, ef, 0);
                cands
                    .into_iter()
                    .take(k)
                    .map(|c| Neighbor {
                        id: self.nodes[c.node as usize].id,
                        similarity: c.sim,
                    })
                    .collect()
            }
        }
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use rand::Rng;

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut v: Vec<f32> = (0..dim).map(|_| rng.gen::<f32>() - 0.5).collect();
                normalize(&mut v);
                v
            })
            .collect()
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = Hnsw::new(HnswParams::default());
        assert!(idx.search(&[1.0, 0.0], 3).is_empty());
        assert_eq!(idx.len(), 0);
    }

    #[test]
    fn rebuilt_equals_a_fresh_build_of_the_kept_inserts() {
        // Unnormalized inputs: the rebuild must reuse the stored
        // vectors, not normalize them a second time.
        let vectors: Vec<Vec<f32>> = random_vectors(120, 16, 5)
            .into_iter()
            .map(|v| v.iter().map(|x| x * 3.0).collect())
            .collect();
        let keep = |id: u32| id % 3 != 1;
        let mut full = Hnsw::new(HnswParams::default());
        let mut fresh = Hnsw::new(HnswParams::default());
        for (i, v) in vectors.iter().enumerate() {
            full.add(i as u32, v.clone());
            if keep(i as u32) {
                fresh.add(i as u32, v.clone());
            }
        }
        let rebuilt = full.rebuilt(keep);
        assert_eq!(
            rebuilt.ids().collect::<Vec<_>>(),
            fresh.ids().collect::<Vec<_>>()
        );
        assert_eq!(
            crate::snapshot::encode(&rebuilt),
            crate::snapshot::encode(&fresh)
        );
    }

    #[test]
    fn single_element() {
        let mut idx = Hnsw::new(HnswParams::default());
        idx.add(42, vec![1.0, 0.0]);
        let hits = idx.search(&[1.0, 0.0], 5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 42);
        assert!((hits[0].similarity - 1.0).abs() < 1e-6);
    }

    #[test]
    fn finds_the_true_nearest_on_small_sets() {
        let vectors = random_vectors(200, 16, 11);
        let mut hnsw = Hnsw::new(HnswParams::default());
        let mut flat = FlatIndex::new();
        for (i, v) in vectors.iter().enumerate() {
            hnsw.add(i as u32, v.clone());
            flat.add(i as u32, v.clone());
        }
        let queries = random_vectors(20, 16, 99);
        for q in &queries {
            let exact = flat.search(q, 1)[0].id;
            let approx = hnsw.search(q, 1)[0].id;
            assert_eq!(exact, approx, "top-1 must match exhaustive search");
        }
    }

    #[test]
    fn recall_at_10_is_high() {
        let vectors = random_vectors(1000, 24, 5);
        let mut hnsw = Hnsw::new(HnswParams::default());
        let mut flat = FlatIndex::new();
        for (i, v) in vectors.iter().enumerate() {
            hnsw.add(i as u32, v.clone());
            flat.add(i as u32, v.clone());
        }
        let queries = random_vectors(50, 24, 123);
        let mut hit = 0usize;
        let mut total = 0usize;
        for q in &queries {
            let exact: Vec<u32> = flat.search(q, 10).into_iter().map(|n| n.id).collect();
            let approx: Vec<u32> = hnsw.search(q, 10).into_iter().map(|n| n.id).collect();
            total += exact.len();
            hit += approx.iter().filter(|id| exact.contains(id)).count();
        }
        let recall = hit as f64 / total as f64;
        assert!(recall > 0.9, "recall@10 too low: {recall}");
    }

    #[test]
    fn results_are_sorted_by_similarity() {
        let vectors = random_vectors(100, 8, 3);
        let mut hnsw = Hnsw::new(HnswParams::default());
        for (i, v) in vectors.iter().enumerate() {
            hnsw.add(i as u32, v.clone());
        }
        let hits = hnsw.search(&vectors[0], 10);
        for w in hits.windows(2) {
            assert!(w[0].similarity >= w[1].similarity);
        }
    }

    #[test]
    fn construction_is_deterministic() {
        let vectors = random_vectors(150, 8, 77);
        let build = || {
            let mut h = Hnsw::new(HnswParams::default());
            for (i, v) in vectors.iter().enumerate() {
                h.add(i as u32, v.clone());
            }
            h.search(&vectors[3], 5)
                .into_iter()
                .map(|n| n.id)
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn external_ids_are_preserved() {
        let mut hnsw = Hnsw::new(HnswParams::default());
        hnsw.add(1000, vec![1.0, 0.0]);
        hnsw.add(2000, vec![0.0, 1.0]);
        let hits = hnsw.search(&[0.0, 1.0], 1);
        assert_eq!(hits[0].id, 2000);
    }

    #[test]
    fn degree_bounds_are_respected() {
        let vectors = random_vectors(300, 8, 9);
        let params = HnswParams {
            m: 4,
            ..Default::default()
        };
        let mut hnsw = Hnsw::new(params);
        for (i, v) in vectors.iter().enumerate() {
            hnsw.add(i as u32, v.clone());
        }
        for node in &hnsw.nodes {
            for (l, nbs) in node.neighbors.iter().enumerate() {
                let bound = if l == 0 { 8 } else { 4 };
                assert!(
                    nbs.len() <= bound,
                    "layer {l} degree {} > {bound}",
                    nbs.len()
                );
            }
        }
    }

    #[test]
    fn duplicate_vectors_are_all_findable() {
        let mut hnsw = Hnsw::new(HnswParams::default());
        for i in 0..5 {
            hnsw.add(i, vec![1.0, 0.0, 0.0]);
        }
        let hits = hnsw.search(&[1.0, 0.0, 0.0], 5);
        assert_eq!(hits.len(), 5);
    }
}

#[cfg(test)]
mod sq8_tests {
    use super::*;
    use crate::flat::FlatIndex;
    use rand::Rng;

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut v: Vec<f32> = (0..dim).map(|_| rng.gen::<f32>() - 0.5).collect();
                normalize(&mut v);
                v
            })
            .collect()
    }

    #[test]
    fn codebook_covers_fitted_vectors_with_slack() {
        let vectors = random_vectors(50, 8, 1);
        let cb = Sq8Codebook::fit(vectors.iter().map(|v| v.as_slice()), 8);
        for v in &vectors {
            assert!(cb.covers(v));
        }
        // Slack absorbs small drift beyond the observed range.
        let mut nudged = vectors[0].clone();
        nudged[0] += 5e-4;
        assert!(cb.covers(&nudged));
    }

    #[test]
    fn codes_reconstruct_within_half_step() {
        let vectors = random_vectors(30, 16, 2);
        let cb = Sq8Codebook::fit(vectors.iter().map(|v| v.as_slice()), 16);
        let mut codes = Vec::new();
        for v in &vectors {
            cb.encode_into(v, &mut codes);
        }
        for (i, v) in vectors.iter().enumerate() {
            for d in 0..16 {
                let code = codes[i * 16 + d];
                let reconstructed = cb.min[d] + f32::from(code) * cb.step[d];
                assert!(
                    (reconstructed - v[d]).abs() <= cb.step[d] * 0.5 + 1e-6,
                    "dim {d} off by {}",
                    (reconstructed - v[d]).abs()
                );
            }
        }
    }

    #[test]
    fn out_of_range_insert_triggers_refit() {
        let mut h = Hnsw::new(HnswParams::default());
        // Unit vectors along +axes: coordinates in [0, 1].
        h.add(0, vec![1.0, 0.0]);
        h.add(1, vec![0.0, 1.0]);
        let before = h.sq8.as_ref().unwrap().codebook.clone();
        // A vector with strongly negative coordinates breaks coverage.
        h.add(2, vec![-1.0, 0.0]);
        let state = h.sq8.as_ref().unwrap();
        assert_ne!(state.codebook, before, "refit must widen the codebook");
        assert_eq!(state.codes.len(), 3 * 2, "arena rebuilt for all rows");
        assert!(state.codebook.covers(&h.nodes[2].vector));
    }

    #[test]
    fn mixed_dimensions_disable_quantization_permanently() {
        let mut h = Hnsw::new(HnswParams::default());
        h.add(0, vec![1.0, 0.0]);
        assert!(h.is_quantized());
        // A mismatched vector would trip the f32 kernel's dimension
        // assertion during graph insertion, so plant the node and run
        // the insert-time quantization step on it directly.
        h.nodes.push(Node {
            id: 1,
            vector: vec![1.0, 0.0, 0.0],
            neighbors: vec![Vec::new()],
        });
        h.sq8_note_insert();
        assert!(!h.is_quantized());
        assert!(!h.params.sq8);
        assert!(h.sq8.is_none());
        // A later same-dimension insert doesn't resurrect the state.
        h.nodes.push(Node {
            id: 2,
            vector: vec![0.0, 1.0],
            neighbors: vec![Vec::new()],
        });
        h.sq8_note_insert();
        assert!(!h.params.sq8);
        assert!(h.sq8.is_none());
    }

    #[test]
    fn quantized_search_reranks_with_full_precision_sims() {
        let vectors = random_vectors(300, 16, 42);
        let mut h = Hnsw::new(HnswParams::default());
        for (i, v) in vectors.iter().enumerate() {
            h.add(i as u32, v.clone());
        }
        assert!(h.is_quantized());
        let mut q = random_vectors(1, 16, 7)[0].clone();
        normalize(&mut q);
        let hits = h.search(&q, 10);
        // Every returned similarity is the exact f32 dot against the
        // stored (re-normalized) vector, not the quantized approximation.
        for hit in &hits {
            let exact = dot(&h.nodes[hit.id as usize].vector, &q);
            assert_eq!(
                hit.similarity.to_bits(),
                exact.to_bits(),
                "id {} similarity must be full precision",
                hit.id
            );
        }
        // And the list is the exact re-rank of the traversal beam.
        let ef = h.params.ef_search.max(10);
        let beam = h.traversal_beam(&q, ef);
        let mut expected: Vec<Neighbor> = beam
            .iter()
            .map(|n| Neighbor {
                id: n.id,
                similarity: dot(&h.nodes[n.id as usize].vector, &q),
            })
            .collect();
        expected.sort_by(|a, b| {
            b.similarity
                .partial_cmp(&a.similarity)
                .unwrap_or(Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        expected.truncate(10);
        assert_eq!(hits, expected, "search must be the beam's exact re-rank");
    }

    #[test]
    fn quantized_recall_close_to_full_precision() {
        let vectors = random_vectors(800, 24, 9);
        let mut h = Hnsw::new(HnswParams::default());
        let mut flat = FlatIndex::new();
        for (i, v) in vectors.iter().enumerate() {
            h.add(i as u32, v.clone());
            flat.add(i as u32, v.clone());
        }
        let queries = random_vectors(30, 24, 1234);
        let (mut hit_q, mut hit_f, mut total) = (0usize, 0usize, 0usize);
        for q in &queries {
            let exact: Vec<u32> = flat.search(q, 10).into_iter().map(|n| n.id).collect();
            let quant: Vec<u32> = h.search(q, 10).into_iter().map(|n| n.id).collect();
            let full: Vec<u32> = h
                .search_full_precision(q, 10)
                .into_iter()
                .map(|n| n.id)
                .collect();
            total += exact.len();
            hit_q += quant.iter().filter(|id| exact.contains(id)).count();
            hit_f += full.iter().filter(|id| exact.contains(id)).count();
        }
        let recall_q = hit_q as f64 / total as f64;
        let recall_f = hit_f as f64 / total as f64;
        assert!(recall_q >= 0.85, "quantized recall@10 floor: {recall_q}");
        assert!(
            recall_q >= recall_f - 0.05,
            "quantized recall {recall_q} trails full precision {recall_f} by > 0.05"
        );
    }

    #[test]
    fn memory_stats_report_compression() {
        let vectors = random_vectors(200, 32, 3);
        let mut h = Hnsw::new(HnswParams::default());
        for (i, v) in vectors.iter().enumerate() {
            h.add(i as u32, v.clone());
        }
        let stats = h.memory_stats();
        assert!(stats.quantized);
        assert!(stats.codes_bytes >= 200 * 32);
        assert!(
            stats.vectors_f32_bytes >= 4 * stats.codes_bytes.min(200 * 32),
            "f32 arena must dominate codes: {stats:?}"
        );
        assert!(stats.compression_ratio() >= 2.0, "{stats:?}");
        assert!(stats.traversal_bytes() < stats.vectors_f32_bytes + stats.graph_bytes);
    }
}

#[cfg(test)]
mod heuristic_tests {
    use super::*;
    use crate::distance::normalize;
    use crate::flat::FlatIndex;
    use rand::Rng;

    /// Clustered data: the regime where Algorithm 4's diversity rule
    /// pays off (plain nearest-M gets trapped inside one cluster).
    fn clustered_vectors(n: usize, dim: usize, clusters: usize) -> Vec<Vec<f32>> {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let centers: Vec<Vec<f32>> = (0..clusters)
            .map(|_| {
                let mut c: Vec<f32> = (0..dim).map(|_| rng.gen::<f32>() - 0.5).collect();
                normalize(&mut c);
                c
            })
            .collect();
        (0..n)
            .map(|i| {
                let mut v: Vec<f32> = centers[i % clusters]
                    .iter()
                    .map(|x| x + 0.08 * (rng.gen::<f32>() - 0.5))
                    .collect();
                normalize(&mut v);
                v
            })
            .collect()
    }

    fn recall_at_10(params: HnswParams, vectors: &[Vec<f32>], queries: &[Vec<f32>]) -> f64 {
        let mut hnsw = Hnsw::new(params);
        let mut flat = FlatIndex::new();
        for (i, v) in vectors.iter().enumerate() {
            hnsw.add(i as u32, v.clone());
            flat.add(i as u32, v.clone());
        }
        let mut hit = 0usize;
        let mut total = 0usize;
        for q in queries {
            let exact: Vec<u32> = flat.search(q, 10).into_iter().map(|n| n.id).collect();
            let approx: Vec<u32> = hnsw.search(q, 10).into_iter().map(|n| n.id).collect();
            total += exact.len();
            hit += approx.iter().filter(|id| exact.contains(id)).count();
        }
        hit as f64 / total as f64
    }

    #[test]
    fn heuristic_selection_does_not_hurt_recall_on_clustered_data() {
        let vectors = clustered_vectors(800, 16, 8);
        let queries = clustered_vectors(40, 16, 8);
        // Stress the graph with a small M so selection policy matters.
        let base = HnswParams {
            m: 4,
            ef_construction: 32,
            ef_search: 24,
            ..Default::default()
        };
        let plain = recall_at_10(base, &vectors, &queries);
        let heuristic = recall_at_10(
            HnswParams {
                heuristic_selection: true,
                ..base
            },
            &vectors,
            &queries,
        );
        assert!(
            heuristic + 0.03 >= plain,
            "heuristic selection regressed recall: {heuristic} vs {plain}"
        );
        assert!(heuristic > 0.6, "recall floor: {heuristic}");
    }

    #[test]
    fn heuristic_graphs_respect_degree_bounds_and_roundtrip() {
        let vectors = clustered_vectors(200, 8, 4);
        let params = HnswParams {
            m: 4,
            heuristic_selection: true,
            ..Default::default()
        };
        let mut h = Hnsw::new(params);
        for (i, v) in vectors.iter().enumerate() {
            h.add(i as u32, v.clone());
        }
        for node in &h.nodes {
            for (l, nbs) in node.neighbors.iter().enumerate() {
                let bound = if l == 0 { 8 } else { 4 };
                assert!(nbs.len() <= bound);
            }
        }
        // The flag survives a snapshot round trip.
        let restored = crate::snapshot::decode(&crate::snapshot::encode(&h)).unwrap();
        assert!(restored.params().heuristic_selection);
        let q = &vectors[3];
        assert_eq!(
            h.search(q, 5).iter().map(|n| n.id).collect::<Vec<_>>(),
            restored
                .search(q, 5)
                .iter()
                .map(|n| n.id)
                .collect::<Vec<_>>()
        );
    }
}
