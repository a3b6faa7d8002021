//! Full-text search execution.
//!
//! The [`Searcher`] runs an analyzed query against every searchable
//! field of an [`InvertedIndex`], scoring each field with Okapi BM25 and
//! combining the per-field scores under a [`ScoringProfile`] — the
//! mechanism behind the paper's title-boost experiments (Table 3B,
//! multiplicative weight `T ∈ {5, 50, 500}` on title matches).
//!
//! ## Top-k pruned evaluation (Block-Max MaxScore)
//!
//! [`Searcher::search`] runs a document-at-a-time engine with
//! MaxScore-style pruning: every `(field, term)` pair becomes a scorer
//! carrying a cached BM25 upper bound, candidates are drawn only from
//! *essential* posting lists (those whose bounds could still lift a
//! document into the current top-k), and per-document scoring abandons
//! early once the remaining bounds cannot beat the k-th best score.
//! Liveness and filters are folded into one pre-computed [`DocSet`], so
//! tombstoned or filtered-out documents are never scored at all.
//!
//! On top of the global bounds, the engine exploits the per-block
//! metadata of the compressed posting layout (see `inverted.rs`): once
//! the heap is full, each candidate is first bounded by the sum of its
//! scorers' *current-block* upper bounds (block `max_tf` / `min_len`
//! reached by a shallow, decode-free seek). When even that refined sum
//! cannot beat `theta`, every document up to the nearest block boundary
//! (the minimum `last_doc` over the scorers' current blocks) is
//! provably outside the top-k, and the essential cursors jump straight
//! past the boundary — galloping over block headers instead of
//! documents, never decoding the skipped blocks. When the block-level
//! sum *can* beat `theta`, the per-scorer block bounds still replace
//! the global ones in the early-abandonment test, which is strictly
//! tighter.
//!
//! [`Searcher::search_exhaustive`] keeps the straightforward
//! term-at-a-time path as the reference implementation; the pruned
//! engine returns **byte-identical** hits (same `(doc, score)` pairs in
//! the same score-desc / doc-asc order). Two invariants make this hold
//! bit-for-bit rather than merely approximately:
//!
//! 1. every candidate document accumulates contributions in the same
//!    canonical scorer order (schema field order × query term order)
//!    that the exhaustive path uses, so surviving documents see the
//!    identical sequence of floating-point additions, and
//! 2. pruning decisions only ever compare against *padded* upper
//!    bounds ([`crate::bm25::UPPER_BOUND_PAD`]), so rounding can never
//!    abandon a document that exhaustive evaluation would keep.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

use crate::bm25::{idf, term_score, term_upper_bound, Bm25Params};
use crate::doc::{DocId, DocSet};
use crate::error::IndexError;
use crate::filter::Filter;
use crate::inverted::{InvertedIndex, PostingCursor};
use crate::schema::Schema;

/// Relative weights of searchable fields when combining BM25 scores.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScoringProfile {
    /// `(field, weight)` pairs; fields not listed get weight 1.0.
    pub weights: Vec<(String, f64)>,
}

impl ScoringProfile {
    /// The neutral profile: every field weighted 1.0.
    pub fn neutral() -> Self {
        Self::default()
    }

    /// Boost matches on the `title` field by `t` (Table 3B).
    pub fn title_boost(t: f64) -> Self {
        ScoringProfile {
            weights: vec![("title".to_string(), t)],
        }
    }

    /// Weight for `field`.
    pub fn weight(&self, field: &str) -> f64 {
        self.weights
            .iter()
            .find(|(f, _)| f == field)
            .map(|(_, w)| *w)
            .unwrap_or(1.0)
    }

    /// Resolve the weight of every searchable field once, in schema
    /// declaration order. The query engine calls this a single time per
    /// query instead of scanning `weights` per field.
    pub fn resolve<'a>(&self, schema: &'a Schema) -> Vec<(&'a str, f64)> {
        schema
            .searchable_fields()
            .map(|f| (f, self.weight(f)))
            .collect()
    }
}

/// A search hit: document id plus relevance score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredDoc {
    /// The matching document.
    pub doc: DocId,
    /// Combined BM25 relevance score.
    pub score: f64,
}

/// Corpus-wide statistics injected into a segment-local search so a
/// multi-segment engine scores with the exact IDF and average length a
/// single merged index would use (see
/// [`Searcher::search_terms_pinned`]). A plain container: the caller —
/// who alone can see every segment and its tombstone overlays — sums
/// the integers and performs the one float division per field.
#[derive(Debug, Clone, Default)]
pub struct PinnedStats {
    /// Corpus-wide live document count.
    pub doc_count: usize,
    avg_len: HashMap<String, f64>,
    df: HashMap<(String, String), usize>,
}

impl PinnedStats {
    /// Stats for a corpus of `doc_count` live documents.
    pub fn new(doc_count: usize) -> Self {
        PinnedStats {
            doc_count,
            ..Self::default()
        }
    }

    /// Record the corpus-wide BM25 average length of `field`. Must be
    /// computed as `total_len as f64 / f64::from(docs_with_field)`
    /// over the summed live integers (0.0 when no live document has
    /// the field) — the same branch a single [`InvertedIndex`] takes —
    /// for bitwise score equality.
    pub fn set_avg_len(&mut self, field: &str, avg_len: f64) {
        self.avg_len.insert(field.to_string(), avg_len);
    }

    /// Record the corpus-wide live document frequency of `term` in
    /// `field`.
    pub fn set_df(&mut self, field: &str, term: &str, df: usize) {
        self.df.insert((field.to_string(), term.to_string()), df);
    }

    fn avg_len(&self, field: &str) -> f64 {
        self.avg_len.get(field).copied().unwrap_or(0.0)
    }

    fn df(&self, field: &str, term: &str) -> usize {
        // Allocation-free would need a borrowed pair key; query-time
        // lookups here are O(fields × terms) per query, so the two
        // owned strings are noise next to posting traversal.
        self.df
            .get(&(field.to_string(), term.to_string()))
            .copied()
            .unwrap_or(0)
    }
}

/// One `(field, term)` scoring stream: a cursor over a block-compressed
/// posting list plus the per-query constants needed to turn a
/// `(tf, doc_len)` posting into a weighted BM25 contribution, and the
/// cached upper bound on that contribution over all live documents.
struct Scorer<'a> {
    cursor: PostingCursor<'a>,
    doc_len: &'a [u32],
    weight: f64,
    /// Query frequency of the term (duplicate query terms accumulate
    /// here instead of spawning duplicate scorers).
    qf: f64,
    idf: f64,
    avg_len: f64,
    ub: f64,
    /// Cache key of the block `cached_block_ub` was computed for.
    cached_block: usize,
    /// Padded upper bound over the cached block.
    cached_block_ub: f64,
}

impl Scorer<'_> {
    /// The weighted contribution of the posting under the cursor. Both
    /// engines call exactly this, so per-posting arithmetic is
    /// identical. The cursor must be positioned on a document.
    #[inline]
    fn contribution(&mut self, params: Bm25Params) -> f64 {
        let doc = self.cursor.current().expect("cursor is positioned");
        let tf = f64::from(self.cursor.current_tf());
        let dl = f64::from(self.doc_len.get(doc as usize).copied().unwrap_or(0));
        self.weight * term_score(params, self.idf, tf, dl, self.avg_len) * self.qf
    }

    /// Padded upper bound on this scorer's contribution anywhere inside
    /// the cursor's current block (0.0 when exhausted). Because the
    /// block's `max_tf`/`min_len` dominate every posting in the block
    /// and [`term_score`] is monotone in `tf` and antitone in `doc_len`,
    /// this dominates — and is never larger than — the global `ub`.
    #[inline]
    fn block_ub(&mut self, params: Bm25Params) -> f64 {
        let Some((max_tf, min_len, _)) = self.cursor.block_info() else {
            return 0.0;
        };
        let key = self.cursor.block_key();
        if key != self.cached_block {
            self.cached_block = key;
            self.cached_block_ub = self.weight
                * term_upper_bound(
                    params,
                    self.idf,
                    f64::from(max_tf),
                    f64::from(min_len),
                    self.avg_len,
                )
                * self.qf;
        }
        self.cached_block_ub
    }
}

/// Bounded top-k heap entry, ordered so the heap's maximum is the
/// *worst* current hit: lowest score first, then largest doc id (a tie
/// on score is lost by the later — larger — document, matching the
/// score-desc / doc-asc result order).
#[derive(Debug, Clone, Copy)]
struct WorstFirst {
    score: f64,
    doc: u32,
}

impl PartialEq for WorstFirst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for WorstFirst {}

impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then(self.doc.cmp(&other.doc))
    }
}

/// The scorers whose bounds exceed the maximal non-essential prefix:
/// documents appearing only in the other (non-essential) lists cannot
/// beat `theta` and are never even surfaced as candidates.
fn essential_after(by_ub: &[usize], prefix_ub: &[f64], theta: f64) -> Vec<usize> {
    let skip = prefix_ub.partition_point(|&cum| cum <= theta);
    by_ub[skip..].to_vec()
}

/// Executes full-text queries against an [`InvertedIndex`].
#[derive(Debug, Clone, Default)]
pub struct Searcher {
    /// BM25 parameters (defaults match Lucene/Azure).
    pub params: Bm25Params,
}

impl Searcher {
    /// Create a searcher with default BM25 parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Search `index` for `query`, returning at most `n` hits sorted by
    /// descending score (ties broken by ascending [`DocId`] so results
    /// are fully deterministic). Runs the top-k pruned engine.
    pub fn search(
        &self,
        index: &InvertedIndex,
        query: &str,
        n: usize,
        profile: &ScoringProfile,
        filter: Option<&Filter>,
    ) -> Result<Vec<ScoredDoc>, IndexError> {
        let terms = index.analyze_query(query);
        self.search_terms(index, &terms, n, profile, filter)
    }

    /// [`Searcher::search`] with the exhaustive reference engine.
    pub fn search_exhaustive(
        &self,
        index: &InvertedIndex,
        query: &str,
        n: usize,
        profile: &ScoringProfile,
        filter: Option<&Filter>,
    ) -> Result<Vec<ScoredDoc>, IndexError> {
        let terms = index.analyze_query(query);
        self.search_terms_exhaustive(index, &terms, n, profile, filter)
    }

    /// Search with pre-analyzed query terms (top-k pruned engine).
    pub fn search_terms(
        &self,
        index: &InvertedIndex,
        terms: &[String],
        n: usize,
        profile: &ScoringProfile,
        filter: Option<&Filter>,
    ) -> Result<Vec<ScoredDoc>, IndexError> {
        let Some(scorers) = self.prepare(index, terms, n, profile) else {
            return Ok(Vec::new());
        };
        let candidates = Self::candidates(index, filter)?;
        // Negative field weights make contributions non-monotone, which
        // breaks the MaxScore bound; take the reference path instead.
        if scorers.iter().any(|s| s.weight < 0.0) {
            return Ok(self.evaluate_exhaustive(scorers, &candidates, n));
        }
        Ok(self.evaluate_pruned(scorers, &candidates, n))
    }

    /// Search with pre-analyzed query terms, scoring every matching
    /// live document (the reference engine the pruned path is proven
    /// against).
    pub fn search_terms_exhaustive(
        &self,
        index: &InvertedIndex,
        terms: &[String],
        n: usize,
        profile: &ScoringProfile,
        filter: Option<&Filter>,
    ) -> Result<Vec<ScoredDoc>, IndexError> {
        let Some(scorers) = self.prepare(index, terms, n, profile) else {
            return Ok(Vec::new());
        };
        let candidates = Self::candidates(index, filter)?;
        Ok(self.evaluate_exhaustive(scorers, &candidates, n))
    }

    /// Search one segment of a multi-segment index with *corpus-wide*
    /// statistics injected. `stats` carries the global live document
    /// count, per-field global average lengths and per-`(field, term)`
    /// global document frequencies; contributions are therefore
    /// computed with exactly the IDF and `avg_len` a single merged
    /// index would use, so per-document scores are bit-identical to
    /// the single-structure engine and a cross-segment merge by
    /// `(score desc, global id asc)` reproduces its top-k. Upper
    /// bounds stay segment-local (`max_tf`/`min_len` of the local
    /// posting lists) — tighter than the global ones and still safe,
    /// so Block-Max MaxScore pruning keeps working per segment.
    /// `extra_deleted` removes overlay-tombstoned local docs from the
    /// candidate set without mutating the sealed segment.
    #[allow(clippy::too_many_arguments)]
    pub fn search_terms_pinned(
        &self,
        index: &InvertedIndex,
        terms: &[String],
        n: usize,
        profile: &ScoringProfile,
        filter: Option<&Filter>,
        extra_deleted: Option<&DocSet>,
        stats: &PinnedStats,
    ) -> Result<Vec<ScoredDoc>, IndexError> {
        let Some(scorers) = self.prepare_pinned(index, terms, n, profile, stats) else {
            return Ok(Vec::new());
        };
        let mut candidates = Self::candidates(index, filter)?;
        if let Some(extra) = extra_deleted {
            for doc in extra.iter() {
                candidates.remove(doc);
            }
        }
        if scorers.iter().any(|s| s.weight < 0.0) {
            return Ok(self.evaluate_exhaustive(scorers, &candidates, n));
        }
        Ok(self.evaluate_pruned(scorers, &candidates, n))
    }

    /// [`Searcher::prepare`] against injected corpus-wide statistics.
    /// Query terms fold by *string* in first-occurrence order — the
    /// same canonical order `prepare` derives from its term-id fold,
    /// because interning is injective — and a scorer is emitted only
    /// for `(field, term)` pairs with postings in *this* segment. A
    /// pair that is live elsewhere but absent here would contribute to
    /// no local document, so skipping it preserves each document's
    /// floating-point accumulation sequence exactly.
    fn prepare_pinned<'a>(
        &self,
        index: &'a InvertedIndex,
        terms: &[String],
        n: usize,
        profile: &ScoringProfile,
        stats: &PinnedStats,
    ) -> Option<Vec<Scorer<'a>>> {
        if terms.is_empty() || n == 0 || stats.doc_count == 0 {
            return None;
        }
        let mut qterms: Vec<(&str, f64)> = Vec::with_capacity(terms.len());
        let mut seen: HashMap<&str, usize> = HashMap::with_capacity(terms.len());
        for term in terms {
            match seen.entry(term.as_str()) {
                std::collections::hash_map::Entry::Occupied(e) => qterms[*e.get()].1 += 1.0,
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(qterms.len());
                    qterms.push((term.as_str(), 1.0));
                }
            }
        }
        if qterms.is_empty() {
            return None;
        }
        let weights = profile.resolve(index.schema());
        let mut scorers = Vec::with_capacity(weights.len() * qterms.len());
        for (field_name, weight) in weights {
            if weight == 0.0 {
                continue;
            }
            let Some(field) = index.fields.get(field_name) else {
                continue;
            };
            let avg_len = stats.avg_len(field_name);
            for &(term, qf) in &qterms {
                let global_df = stats.df(field_name, term);
                if global_df == 0 {
                    continue;
                }
                let Some(tid) = index.dict.lookup(term) else {
                    continue;
                };
                let Some(list) = field.postings.get(&tid) else {
                    continue;
                };
                if list.live_df == 0 {
                    continue;
                }
                let term_idf = idf(stats.doc_count, global_df);
                let ub = weight
                    * term_upper_bound(
                        self.params,
                        term_idf,
                        f64::from(list.max_tf),
                        f64::from(list.min_len),
                        avg_len,
                    )
                    * qf;
                scorers.push(Scorer {
                    cursor: list.cursor(),
                    doc_len: &field.doc_len,
                    weight,
                    qf,
                    idf: term_idf,
                    avg_len,
                    ub,
                    cached_block: usize::MAX,
                    cached_block_ub: 0.0,
                });
            }
        }
        Some(scorers)
    }

    /// Build the per-query scorer set in canonical order: searchable
    /// fields in schema order, unique query terms in first-occurrence
    /// order. Field weights are resolved once, query terms are interned
    /// once (duplicates fold into a query frequency), and each scorer
    /// picks up the posting list's incrementally maintained statistics —
    /// live document frequency for the IDF and `(max_tf, min_len)` for
    /// the MaxScore upper bound — without touching postings or
    /// tombstones. Returns `None` when the query trivially has no hits.
    fn prepare<'a>(
        &self,
        index: &'a InvertedIndex,
        terms: &[String],
        n: usize,
        profile: &ScoringProfile,
    ) -> Option<Vec<Scorer<'a>>> {
        if terms.is_empty() || n == 0 {
            return None;
        }
        let doc_count = index.doc_count();
        if doc_count == 0 {
            return None;
        }
        let mut qterms: Vec<(u32, f64)> = Vec::with_capacity(terms.len());
        let mut seen: HashMap<u32, usize> = HashMap::with_capacity(terms.len());
        for term in terms {
            // Terms outside the dictionary match nothing in any field.
            let Some(tid) = index.dict.lookup(term) else {
                continue;
            };
            match seen.entry(tid) {
                std::collections::hash_map::Entry::Occupied(e) => qterms[*e.get()].1 += 1.0,
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(qterms.len());
                    qterms.push((tid, 1.0));
                }
            }
        }
        if qterms.is_empty() {
            return None;
        }
        let weights = profile.resolve(index.schema());
        let mut scorers = Vec::with_capacity(weights.len() * qterms.len());
        for (field_name, weight) in weights {
            if weight == 0.0 {
                continue;
            }
            let Some(field) = index.fields.get(field_name) else {
                continue;
            };
            let avg_len = field.avg_len();
            for &(tid, qf) in &qterms {
                let Some(list) = field.postings.get(&tid) else {
                    continue;
                };
                if list.live_df == 0 {
                    continue;
                }
                let term_idf = idf(doc_count, list.live_df as usize);
                let ub = weight
                    * term_upper_bound(
                        self.params,
                        term_idf,
                        f64::from(list.max_tf),
                        f64::from(list.min_len),
                        avg_len,
                    )
                    * qf;
                scorers.push(Scorer {
                    cursor: list.cursor(),
                    doc_len: &field.doc_len,
                    weight,
                    qf,
                    idf: term_idf,
                    avg_len,
                    ub,
                    cached_block: usize::MAX,
                    cached_block_ub: 0.0,
                });
            }
        }
        Some(scorers)
    }

    /// The candidate set: live documents passing `filter`. Computed
    /// once per query so the scoring loops never consult tombstones or
    /// re-evaluate filter trees (filter push-down).
    fn candidates(index: &InvertedIndex, filter: Option<&Filter>) -> Result<DocSet, IndexError> {
        let mut candidates = DocSet::full(index.next_id);
        for doc in index.deleted.iter() {
            candidates.remove(doc);
        }
        if let Some(f) = filter {
            f.validate(index.schema())?;
            for id in 0..index.next_id {
                let doc = DocId(id);
                if candidates.contains(doc) && !f.matches(index, doc)? {
                    candidates.remove(doc);
                }
            }
        }
        Ok(candidates)
    }

    /// Reference engine: score every candidate posting term-at-a-time,
    /// then sort and truncate.
    fn evaluate_exhaustive(
        &self,
        mut scorers: Vec<Scorer<'_>>,
        candidates: &DocSet,
        n: usize,
    ) -> Vec<ScoredDoc> {
        let params = self.params;
        let mut scores: HashMap<u32, f64> = HashMap::new();
        for scorer in &mut scorers {
            while let Some(doc) = scorer.cursor.current() {
                if candidates.contains(DocId(doc)) {
                    *scores.entry(doc).or_insert(0.0) += scorer.contribution(params);
                }
                scorer.cursor.advance();
            }
        }
        let mut hits: Vec<ScoredDoc> = scores
            .into_iter()
            .filter(|&(_, score)| score > 0.0)
            .map(|(doc, score)| ScoredDoc {
                doc: DocId(doc),
                score,
            })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(Ordering::Equal)
                .then(a.doc.cmp(&b.doc))
        });
        hits.truncate(n);
        hits
    }

    /// Document-at-a-time evaluation with a bounded top-k heap and
    /// Block-Max MaxScore pruning. See the module docs for the two
    /// invariants that keep this byte-identical to
    /// [`Self::evaluate_exhaustive`].
    fn evaluate_pruned(
        &self,
        mut scorers: Vec<Scorer<'_>>,
        candidates: &DocSet,
        k: usize,
    ) -> Vec<ScoredDoc> {
        let params = self.params;
        let s_count = scorers.len();
        // suffix_ub[i] bounds what scorers i.. can still add to a
        // document's score (canonical order).
        let mut suffix_ub = vec![0.0f64; s_count + 1];
        for i in (0..s_count).rev() {
            suffix_ub[i] = scorers[i].ub + suffix_ub[i + 1];
        }
        // Upper-bound-ascending view and its prefix sums, for the
        // essential/non-essential partition.
        let mut by_ub: Vec<usize> = (0..s_count).collect();
        by_ub.sort_by(|&a, &b| scorers[a].ub.total_cmp(&scorers[b].ub).then(a.cmp(&b)));
        let mut prefix_ub = Vec::with_capacity(s_count);
        let mut cum = 0.0f64;
        for &i in &by_ub {
            cum += scorers[i].ub;
            prefix_ub.push(cum);
        }

        let mut heap: BinaryHeap<WorstFirst> = BinaryHeap::with_capacity(k + 1);
        // A hit must *strictly* beat theta to enter the top-k: DAAT
        // visits documents in ascending id, so a score tie is always
        // lost by the newcomer (larger id). Starts at 0.0 because
        // zero-score hits are dropped.
        let mut theta = 0.0f64;
        let mut essential = essential_after(&by_ub, &prefix_ub, theta);
        // blk_suffix[i] = Σ_{j ≥ i} current-block bound of scorer j,
        // recomputed per candidate while the heap is full.
        let mut blk_suffix = vec![0.0f64; s_count + 1];

        loop {
            // Next candidate: smallest current doc on any essential list.
            let mut next: Option<u32> = None;
            for &e in &essential {
                if let Some(d) = scorers[e].cursor.current() {
                    next = Some(next.map_or(d, |m| m.min(d)));
                }
            }
            let Some(doc) = next else {
                break;
            };
            let full = heap.len() == k;
            if full {
                // Block-Max step. Shallow-seek every scorer to the block
                // that could contain `doc` (header comparisons only) and
                // sum the per-block bounds. For any document d in
                // [doc, boundary] — boundary being the smallest current
                // block `last_doc` — each scorer's posting for d, if
                // any, still lies in that same block, so blk_suffix[0]
                // dominates d's full score.
                let mut boundary = u32::MAX;
                for i in (0..s_count).rev() {
                    let scorer = &mut scorers[i];
                    scorer.cursor.shallow_seek(doc);
                    blk_suffix[i] = blk_suffix[i + 1] + scorer.block_ub(params);
                    if let Some((_, _, last)) = scorer.cursor.block_info() {
                        boundary = boundary.min(last);
                    }
                }
                if blk_suffix[0] <= theta {
                    // The whole range [doc, boundary] misses the top-k:
                    // jump every essential cursor past the boundary
                    // without decoding the skipped blocks.
                    let jump = boundary.max(doc).saturating_add(1);
                    for &e in &essential {
                        scorers[e].cursor.seek(jump);
                    }
                    continue;
                }
            }
            let mut score = 0.0f64;
            let mut abandoned = false;
            if candidates.contains(DocId(doc)) {
                // Canonical-order accumulation with early abandonment:
                // the moment the score so far plus everything the
                // remaining scorers could add cannot beat theta, the
                // document provably misses the top-k. With a full heap
                // the per-block suffix bounds just computed for `doc`
                // replace the global ones — strictly tighter.
                for i in 0..s_count {
                    if full && score + blk_suffix[i] <= theta {
                        abandoned = true;
                        break;
                    }
                    let scorer = &mut scorers[i];
                    scorer.cursor.seek(doc);
                    if scorer.cursor.current() == Some(doc) {
                        score += scorer.contribution(params);
                    }
                }
            } else {
                abandoned = true;
            }
            // Consume `doc` on the essential frontier so DAAT advances.
            for &e in &essential {
                let scorer = &mut scorers[e];
                scorer.cursor.seek(doc);
                if scorer.cursor.current() == Some(doc) {
                    scorer.cursor.advance();
                }
            }
            if !abandoned && score > theta && score > 0.0 {
                if heap.len() == k {
                    heap.pop();
                }
                heap.push(WorstFirst { score, doc });
                if heap.len() == k {
                    let worst = heap.peek().expect("heap is non-empty").score;
                    if worst > theta {
                        theta = worst;
                        essential = essential_after(&by_ub, &prefix_ub, theta);
                    }
                }
            }
        }

        let mut hits: Vec<ScoredDoc> = heap
            .into_iter()
            .map(|e| ScoredDoc {
                doc: DocId(e.doc),
                score: e.score,
            })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(Ordering::Equal)
                .then(a.doc.cmp(&b.doc))
        });
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::IndexDocument;
    use crate::schema::Schema;

    fn index_with(docs: &[(&str, &str)]) -> InvertedIndex {
        let mut idx = InvertedIndex::new(Schema::uniask_chunk_schema());
        for (title, content) in docs {
            idx.add(
                &IndexDocument::new()
                    .with_text("title", *title)
                    .with_text("content", *content),
            )
            .unwrap();
        }
        idx
    }

    /// `PinnedStats` mirroring one index's own live statistics for a
    /// query: the pinned path under these must equal the plain path
    /// bitwise (the single-segment degenerate case of the segmented
    /// engine's equivalence contract).
    fn own_stats(idx: &InvertedIndex, terms: &[String]) -> PinnedStats {
        let mut stats = PinnedStats::new(idx.doc_count());
        for field in idx.posting_fields() {
            let (total_len, docs_with_field) = idx.field_len_stats(field);
            let avg = if docs_with_field == 0 {
                0.0
            } else {
                total_len as f64 / f64::from(docs_with_field)
            };
            stats.set_avg_len(field, avg);
            for term in terms {
                stats.set_df(field, term, idx.term_df(field, term) as usize);
            }
        }
        stats
    }

    #[test]
    fn pinned_path_matches_plain_path_on_a_single_index() {
        let mut idx = index_with(&[
            ("Mutuo casa", "informazioni sul mutuo per la casa e i tassi"),
            ("Bonifico SEPA", "come eseguire un bonifico SEPA estero"),
            ("Carta di credito", "limiti della carta di credito"),
            ("Bonifico estero", "bonifico estero con bic e iban"),
        ]);
        idx.delete(DocId(2)).unwrap();
        let searcher = Searcher::new();
        for query in [
            "bonifico estero",
            "mutuo",
            "carta carta bonifico",
            "assente",
        ] {
            let terms = idx.analyze_query(query);
            let stats = own_stats(&idx, &terms);
            for k in 1..=5 {
                let plain = searcher
                    .search_terms(&idx, &terms, k, &ScoringProfile::neutral(), None)
                    .unwrap();
                let pinned = searcher
                    .search_terms_pinned(
                        &idx,
                        &terms,
                        k,
                        &ScoringProfile::neutral(),
                        None,
                        None,
                        &stats,
                    )
                    .unwrap();
                assert_eq!(plain.len(), pinned.len(), "query `{query}` k={k}");
                for (a, b) in plain.iter().zip(&pinned) {
                    assert_eq!(a.doc, b.doc, "query `{query}` k={k}");
                    assert_eq!(
                        a.score.to_bits(),
                        b.score.to_bits(),
                        "score not bitwise identical: query `{query}` k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn pinned_path_extra_deleted_matches_real_deletes() {
        // Tombstoning a doc via the overlay parameter must yield the
        // same results as deleting it from the index, given stats that
        // already account for the removal.
        let build = || {
            index_with(&[
                ("Bonifico SEPA", "come eseguire un bonifico SEPA estero"),
                ("Bonifico estero", "bonifico estero con bic e iban"),
                ("Carta", "limiti della carta di credito"),
            ])
        };
        let searcher = Searcher::new();
        let mut hard = build();
        hard.delete(DocId(1)).unwrap();
        let soft = build();
        let mut overlay = DocSet::default();
        overlay.insert(DocId(1));
        for query in ["bonifico estero", "carta"] {
            let terms = soft.analyze_query(query);
            // Global stats = the post-delete truth (from the hard-
            // deleted twin, whose integers the overlay bookkeeping
            // reproduces).
            let stats = own_stats(&hard, &terms);
            let expected = searcher
                .search_terms(&hard, &terms, 10, &ScoringProfile::neutral(), None)
                .unwrap();
            let got = searcher
                .search_terms_pinned(
                    &soft,
                    &terms,
                    10,
                    &ScoringProfile::neutral(),
                    None,
                    Some(&overlay),
                    &stats,
                )
                .unwrap();
            assert_eq!(expected.len(), got.len(), "query `{query}`");
            for (a, b) in expected.iter().zip(&got) {
                assert_eq!((a.doc, a.score.to_bits()), (b.doc, b.score.to_bits()));
            }
        }
    }

    #[test]
    fn relevant_document_ranks_first() {
        let idx = index_with(&[
            ("Mutuo casa", "informazioni sul mutuo per la casa e i tassi"),
            (
                "Bonifico SEPA",
                "come eseguire un bonifico SEPA verso estero",
            ),
            (
                "Carta di credito",
                "limiti della carta di credito aziendale",
            ),
        ]);
        let hits = Searcher::new()
            .search(
                &idx,
                "bonifico estero",
                10,
                &ScoringProfile::neutral(),
                None,
            )
            .unwrap();
        assert_eq!(hits[0].doc, DocId(1));
    }

    #[test]
    fn morphological_variants_match() {
        let idx = index_with(&[("Bonifici", "esecuzione dei bonifici esteri")]);
        let hits = Searcher::new()
            .search(
                &idx,
                "bonifico estero",
                10,
                &ScoringProfile::neutral(),
                None,
            )
            .unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn no_match_returns_empty() {
        let idx = index_with(&[("a", "contenuto banale")]);
        let hits = Searcher::new()
            .search(
                &idx,
                "argomento inesistente",
                10,
                &ScoringProfile::neutral(),
                None,
            )
            .unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn stopword_only_query_returns_empty() {
        let idx = index_with(&[("a", "contenuto")]);
        let hits = Searcher::new()
            .search(&idx, "il la per che", 10, &ScoringProfile::neutral(), None)
            .unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn n_limits_results() {
        let idx = index_with(&[
            ("t", "parola comune"),
            ("t", "parola comune"),
            ("t", "parola comune"),
        ]);
        let hits = Searcher::new()
            .search(&idx, "parola", 2, &ScoringProfile::neutral(), None)
            .unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn title_boost_promotes_title_matches() {
        let idx = index_with(&[
            (
                "Altro argomento",
                "bonifico bonifico bonifico bonifico contenuto dettagliato",
            ),
            ("Bonifico", "testo generico senza ripetizioni utili"),
        ]);
        let neutral = Searcher::new()
            .search(&idx, "bonifico", 10, &ScoringProfile::neutral(), None)
            .unwrap();
        let boosted = Searcher::new()
            .search(
                &idx,
                "bonifico",
                10,
                &ScoringProfile::title_boost(50.0),
                None,
            )
            .unwrap();
        // Without boost, the tf-heavy content doc wins; with a title
        // boost of 50, the title match wins.
        assert_eq!(neutral[0].doc, DocId(0));
        assert_eq!(boosted[0].doc, DocId(1));
    }

    #[test]
    fn deleted_documents_are_not_returned() {
        let mut idx = index_with(&[("t", "termine raro"), ("t", "termine raro")]);
        idx.delete(DocId(0)).unwrap();
        let hits = Searcher::new()
            .search(&idx, "raro", 10, &ScoringProfile::neutral(), None)
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, DocId(1));
    }

    #[test]
    fn filter_restricts_results() {
        let mut idx = InvertedIndex::new(Schema::uniask_chunk_schema());
        for (i, domain) in ["Pagamenti", "Governance"].iter().enumerate() {
            idx.add(
                &IndexDocument::new()
                    .with_text("title", format!("doc {i}"))
                    .with_text("content", "argomento condiviso")
                    .with_tags("domain", vec![domain.to_string()]),
            )
            .unwrap();
        }
        let f = Filter::eq("domain", "governance");
        let hits = Searcher::new()
            .search(
                &idx,
                "argomento condiviso",
                10,
                &ScoringProfile::neutral(),
                Some(&f),
            )
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, DocId(1));
    }

    #[test]
    fn invalid_filter_is_rejected_up_front() {
        let idx = index_with(&[("t", "contenuto")]);
        let f = Filter::eq("title", "t");
        // Even a query with no matches validates its filter.
        assert!(Searcher::new()
            .search(&idx, "contenuto", 10, &ScoringProfile::neutral(), Some(&f))
            .is_err());
        assert!(Searcher::new()
            .search_exhaustive(&idx, "contenuto", 10, &ScoringProfile::neutral(), Some(&f))
            .is_err());
    }

    #[test]
    fn results_are_deterministic_under_ties() {
        let idx = index_with(&[("t", "uguale testo"), ("t", "uguale testo")]);
        for _ in 0..5 {
            let hits = Searcher::new()
                .search(&idx, "uguale", 10, &ScoringProfile::neutral(), None)
                .unwrap();
            assert_eq!(hits[0].doc, DocId(0));
            assert_eq!(hits[1].doc, DocId(1));
        }
    }

    #[test]
    fn zero_n_returns_empty() {
        let idx = index_with(&[("t", "x y z")]);
        let hits = Searcher::new()
            .search(&idx, "x", 0, &ScoringProfile::neutral(), None)
            .unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn resolve_covers_searchable_fields_in_schema_order() {
        let schema = Schema::uniask_chunk_schema();
        let profile = ScoringProfile::title_boost(7.0);
        let resolved = profile.resolve(&schema);
        assert_eq!(
            resolved,
            vec![("title", 7.0), ("content", 1.0), ("summary", 1.0)]
        );
    }

    #[test]
    fn duplicate_query_terms_fold_into_query_frequency() {
        let idx = index_with(&[("t", "gatto cane"), ("t", "cane")]);
        let searcher = Searcher::new();
        let terms = vec!["gatt".to_string(), "can".to_string(), "gatt".to_string()];
        let once = searcher
            .search_terms(
                &idx,
                &["gatt".to_string(), "can".to_string()],
                10,
                &ScoringProfile::neutral(),
                None,
            )
            .unwrap();
        let twice = searcher
            .search_terms(&idx, &terms, 10, &ScoringProfile::neutral(), None)
            .unwrap();
        // The duplicated term doubles its contribution…
        assert!(twice[0].score > once[0].score);
        // …identically in both engines.
        let exhaustive = searcher
            .search_terms_exhaustive(&idx, &terms, 10, &ScoringProfile::neutral(), None)
            .unwrap();
        assert_eq!(twice, exhaustive);
    }

    #[test]
    fn negative_weight_falls_back_to_exhaustive() {
        let idx = index_with(&[
            ("bonifico", "testo generico"),
            ("altro", "bonifico bonifico qui"),
        ]);
        let profile = ScoringProfile {
            weights: vec![("title".into(), -1.0)],
        };
        let pruned = Searcher::new()
            .search(&idx, "bonifico", 10, &profile, None)
            .unwrap();
        let exhaustive = Searcher::new()
            .search_exhaustive(&idx, "bonifico", 10, &profile, None)
            .unwrap();
        assert_eq!(pruned, exhaustive);
        // The title-penalized doc 0 keeps only its (positive) content
        // score if any; hits must all be strictly positive.
        assert!(pruned.iter().all(|h| h.score > 0.0));
    }

    /// Tiny deterministic xorshift generator so the randomized
    /// equivalence sweep below runs with zero dependencies.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    /// Randomized sweep pinning pruned == exhaustive bit-for-bit over
    /// corpora with skewed term distributions, deletions, filters,
    /// boosts and every k in 1..=N+2. A larger seeded version lives
    /// in `tests/properties.rs`; this one is dependency-free.
    #[test]
    fn pruned_matches_exhaustive_on_random_corpora() {
        let vocab = [
            "bonifico", "carta", "mutuo", "conto", "prestito", "estero", "limite", "sepa",
            "prelievo", "ricarica", "tasso", "rata", "blocco", "valuta", "deposito",
        ];
        let domains = ["Pagamenti", "Carte", "Crediti"];
        let searcher = Searcher::new();
        let mut rng = XorShift(0x9E3779B97F4A7C15);
        for round in 0..30 {
            let mut idx = InvertedIndex::new(Schema::uniask_chunk_schema());
            let ndocs = 3 + rng.below(25);
            for _ in 0..ndocs {
                let title_len = 1 + rng.below(3);
                let content_len = 1 + rng.below(12);
                let pick = |rng: &mut XorShift, n: usize| -> String {
                    // Skew: low vocab ids are much more frequent.
                    (0..n)
                        .map(|_| {
                            let cap = 1 + rng.below(vocab.len());
                            vocab[rng.below(cap)]
                        })
                        .collect::<Vec<_>>()
                        .join(" ")
                };
                let title = pick(&mut rng, title_len);
                let content = pick(&mut rng, content_len);
                let domain = domains[rng.below(domains.len())];
                idx.add(
                    &IndexDocument::new()
                        .with_text("title", title)
                        .with_text("content", content)
                        .with_tags("domain", vec![domain.to_string()]),
                )
                .unwrap();
            }
            // Tombstone a random third of the corpus.
            for id in 0..ndocs {
                if rng.below(3) == 0 {
                    idx.delete(DocId(id as u32)).unwrap();
                }
            }
            let profile = match round % 3 {
                0 => ScoringProfile::neutral(),
                1 => ScoringProfile::title_boost(50.0),
                _ => ScoringProfile::title_boost(5.0),
            };
            let filter = match round % 4 {
                0 => None,
                _ => Some(Filter::eq("domain", domains[rng.below(domains.len())])),
            };
            for _ in 0..6 {
                let qlen = 1 + rng.below(4);
                let query = (0..qlen)
                    .map(|_| vocab[rng.below(vocab.len())])
                    .collect::<Vec<_>>()
                    .join(" ");
                for k in 1..=ndocs + 2 {
                    let pruned = searcher
                        .search(&idx, &query, k, &profile, filter.as_ref())
                        .unwrap();
                    let exhaustive = searcher
                        .search_exhaustive(&idx, &query, k, &profile, filter.as_ref())
                        .unwrap();
                    assert_eq!(
                        pruned, exhaustive,
                        "divergence: round {round} query `{query}` k={k}"
                    );
                }
            }
        }
    }
}
