//! Hybrid Search with Semantic reranking (HSS).
//!
//! The production retrieval algorithm: full-text BM25 over the chunk
//! index (n = 50) in parallel with vector search over *two* vector
//! fields — the title embedding and the content embedding (K = 15
//! each) — merged with Reciprocal Rank Fusion (c = 60) and re-scored
//! with the semantic reranker. Component flags expose the Table 2
//! ablations (text-only / vector-only).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use uniask_index::doc::{DocId, IndexDocument};
use uniask_index::inverted::InvertedIndex;
use uniask_index::schema::Schema;
use uniask_index::searcher::{ScoringProfile, Searcher};
use uniask_index::store::DocumentStore;
use uniask_vector::embedding::Embedder;
use uniask_vector::hnsw::{Hnsw, HnswParams};
use uniask_vector::VectorIndex;

use crate::cache::{CacheConfig, CacheStats, QueryCache};
use crate::fault::{ResilientSearch, SearchFaultHook, SearchStage, StageMask};
use crate::reranker::{ChunkConcepts, PreparedQuery, SemanticReranker};
use crate::rrf::{rrf_fuse, RrfFused};

/// A vector graph is rebuilt from its live vectors once more than
/// `1 / RECLAIM_DEAD_FRACTION` of its nodes belong to removed chunks.
/// Checked on the delete path only, so the rebuild points are a
/// function of the mutation history: WAL replay rebuilds at the same
/// message an uninterrupted run did.
const RECLAIM_DEAD_FRACTION: usize = 5;

/// A chunk ready for indexing (output of the indexing service).
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkRecord {
    /// Id of the source KB document.
    pub parent_doc: String,
    /// Chunk ordinal within the document.
    pub ordinal: usize,
    /// Document title.
    pub title: String,
    /// Chunk text.
    pub content: String,
    /// LLM-generated summary of the whole document.
    pub summary: String,
    /// Editor domain tag.
    pub domain: String,
    /// Editor topic tag.
    pub topic: String,
    /// Editor section tag.
    pub section: String,
    /// Keywords (editor tags plus any LLM enrichment).
    pub keywords: Vec<String>,
}

/// Hybrid-search configuration (paper defaults).
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Documents retrieved by the text component (paper: n = 50).
    pub text_n: usize,
    /// Neighbours per vector field (paper: K = 15).
    pub vector_k: usize,
    /// RRF constant (Azure default 60).
    pub rrf_c: f64,
    /// Size of the final fused ranking (paper: 50).
    pub final_n: usize,
    /// Enable the full-text component.
    pub use_text: bool,
    /// Enable the vector components.
    pub use_vector: bool,
    /// Enable semantic reranking.
    pub use_reranker: bool,
    /// Scoring profile for the text component (title boosting).
    pub profile: ScoringProfile,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            text_n: 50,
            vector_k: 15,
            rrf_c: 60.0,
            final_n: 50,
            use_text: true,
            use_vector: true,
            use_reranker: true,
            profile: ScoringProfile::neutral(),
        }
    }
}

impl HybridConfig {
    /// Text-search-only ablation (Table 2).
    pub fn text_only() -> Self {
        HybridConfig {
            use_vector: false,
            use_reranker: false,
            ..Default::default()
        }
    }

    /// Vector-search-only ablation (Table 2).
    pub fn vector_only() -> Self {
        HybridConfig {
            use_text: false,
            use_reranker: false,
            ..Default::default()
        }
    }

    /// Stable 64-bit fingerprint over every result-affecting field,
    /// used as part of the query-cache key.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.text_n.hash(&mut h);
        self.vector_k.hash(&mut h);
        self.rrf_c.to_bits().hash(&mut h);
        self.final_n.hash(&mut h);
        (self.use_text, self.use_vector, self.use_reranker).hash(&mut h);
        for (field, weight) in &self.profile.weights {
            field.hash(&mut h);
            weight.to_bits().hash(&mut h);
        }
        h.finish()
    }
}

/// A retrieval hit.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Internal chunk id.
    pub chunk: DocId,
    /// Source KB document id.
    pub parent_doc: String,
    /// Document title.
    pub title: String,
    /// Chunk content.
    pub content: String,
    /// Final relevance score (RRF + weighted semantic score).
    pub score: f64,
}

/// Per-chunk metadata kept alongside the indexes. A removed chunk
/// keeps only its `parent_doc`.
#[derive(Debug, Default)]
pub(crate) struct ChunkMeta {
    pub(crate) parent_doc: String,
    pub(crate) title: String,
    pub(crate) content: String,
    /// Reranker concepts, analysed on the chunk's first rerank; never
    /// persisted.
    pub(crate) concepts: OnceLock<ChunkConcepts>,
    /// Whether the chunk has a node in the title / content graph (an
    /// all-zero embedding is not inserted).
    pub(crate) in_title_graph: bool,
    pub(crate) in_content_graph: bool,
}

/// The chunk search index: inverted index + two vector fields + store.
pub struct SearchIndex {
    pub(crate) inverted: InvertedIndex,
    pub(crate) store: DocumentStore,
    pub(crate) title_vectors: Hnsw,
    pub(crate) content_vectors: Hnsw,
    pub(crate) embedder: Arc<dyn Embedder>,
    pub(crate) reranker: SemanticReranker,
    pub(crate) chunks: Vec<ChunkMeta>,
    pub(crate) searcher: Searcher,
    /// Live flags per chunk (tombstones for updated/removed documents).
    /// A removed chunk's graph nodes stay until the next reclaim, so
    /// vector hits are filtered.
    pub(crate) live: Vec<bool>,
    /// parent document id → chunk ids (for document replacement).
    pub(crate) by_parent: std::collections::HashMap<String, Vec<u32>>,
    pub(crate) tombstones: usize,
    /// Nodes of removed chunks still in the title / content graph.
    pub(crate) title_dead: usize,
    pub(crate) content_dead: usize,
    /// Optional query-result cache (see [`crate::cache`]).
    pub(crate) cache: Option<QueryCache>,
    /// Mutation counter: bumped on every add/remove so cached results
    /// computed against an older index state are invalidated instead of
    /// served as ghosts.
    pub(crate) generation: AtomicU64,
    /// Optional fault hook probed by [`SearchIndex::search_resilient`]
    /// before each pipeline stage (chaos testing, health checks).
    pub(crate) fault_hook: Option<Arc<dyn SearchFaultHook>>,
}

impl std::fmt::Debug for SearchIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchIndex")
            .field("chunks", &self.chunks.len())
            .finish()
    }
}

impl SearchIndex {
    /// Create an empty index using the UniAsk chunk schema.
    pub fn new(embedder: Arc<dyn Embedder>, reranker: SemanticReranker) -> Self {
        Self::with_hnsw_params(embedder, reranker, HnswParams::default())
    }

    /// Create with custom ANN parameters (K-sweep experiments).
    pub fn with_hnsw_params(
        embedder: Arc<dyn Embedder>,
        reranker: SemanticReranker,
        params: HnswParams,
    ) -> Self {
        SearchIndex {
            inverted: InvertedIndex::new(Schema::uniask_chunk_schema()),
            store: DocumentStore::new(),
            title_vectors: Hnsw::new(params),
            content_vectors: Hnsw::new(HnswParams {
                seed: params.seed ^ 0x5EED,
                ..params
            }),
            embedder,
            reranker,
            chunks: Vec::new(),
            searcher: Searcher::new(),
            live: Vec::new(),
            by_parent: std::collections::HashMap::new(),
            tombstones: 0,
            title_dead: 0,
            content_dead: 0,
            cache: None,
            generation: AtomicU64::new(0),
            fault_hook: None,
        }
    }

    /// Install (or replace) the stage fault hook consulted by
    /// [`SearchIndex::search_resilient`]. `None` removes it.
    pub fn set_fault_hook(&mut self, hook: Option<Arc<dyn SearchFaultHook>>) {
        self.fault_hook = hook;
    }

    /// Enable the sharded query-result cache (disabled by default).
    /// Safe to call on a populated index; an existing cache is
    /// replaced, dropping its entries and counters.
    pub fn enable_cache(&mut self, config: CacheConfig) {
        self.cache = Some(QueryCache::new(config));
    }

    /// Drop the query-result cache.
    pub fn disable_cache(&mut self) {
        self.cache = None;
    }

    /// Cache counters, when the cache is enabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(QueryCache::stats)
    }

    /// The current mutation generation (cache-invalidation epoch).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    fn bump_generation(&mut self) {
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of live (non-removed) chunks.
    pub fn len(&self) -> usize {
        self.chunks.len() - self.tombstones
    }

    /// Remove every chunk of `parent_doc` (document update/deletion in
    /// the ingestion flow). Returns the number of chunks removed.
    ///
    /// The removed rows keep only their parent id. When this leaves
    /// more than a fifth of either vector graph dead, both graphs are
    /// rebuilt from the live vectors.
    pub fn remove_document(&mut self, parent_doc: &str) -> usize {
        let Some(chunk_ids) = self.by_parent.remove(parent_doc) else {
            return 0;
        };
        let mut removed = 0;
        for id in chunk_ids {
            if self.live.get(id as usize).copied().unwrap_or(false) {
                self.live[id as usize] = false;
                let _ = self.inverted.delete(DocId(id));
                self.store.remove(DocId(id));
                let meta = &mut self.chunks[id as usize];
                self.title_dead += usize::from(meta.in_title_graph);
                self.content_dead += usize::from(meta.in_content_graph);
                *meta = ChunkMeta {
                    parent_doc: std::mem::take(&mut meta.parent_doc),
                    ..ChunkMeta::default()
                };
                self.tombstones += 1;
                removed += 1;
            }
        }
        if removed > 0 {
            if self.title_dead * RECLAIM_DEAD_FRACTION > self.title_vectors.len()
                || self.content_dead * RECLAIM_DEAD_FRACTION > self.content_vectors.len()
            {
                self.reclaim_vectors();
            }
            self.bump_generation();
        }
        removed
    }

    /// Rebuild both vector graphs over the live chunks' vectors, in
    /// their original insertion order.
    fn reclaim_vectors(&mut self) {
        let live = &self.live;
        self.title_vectors = self.title_vectors.rebuilt(|id| live[id as usize]);
        self.content_vectors = self.content_vectors.rebuilt(|id| live[id as usize]);
        self.title_dead = 0;
        self.content_dead = 0;
    }

    /// Derive the live chunks' graph flags and each graph's dead count
    /// from the graphs (a snapshot stores neither).
    pub(crate) fn count_graph_nodes(&mut self) {
        let live = |id: u32| self.live.get(id as usize).copied().unwrap_or(false);
        self.title_dead = 0;
        for id in self.title_vectors.ids() {
            match self.chunks.get_mut(id as usize) {
                Some(meta) if live(id) => meta.in_title_graph = true,
                _ => self.title_dead += 1,
            }
        }
        self.content_dead = 0;
        for id in self.content_vectors.ids() {
            match self.chunks.get_mut(id as usize) {
                Some(meta) if live(id) => meta.in_content_graph = true,
                _ => self.content_dead += 1,
            }
        }
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The embedder (query side must reuse it).
    pub fn embedder(&self) -> &Arc<dyn Embedder> {
        &self.embedder
    }

    /// Add a chunk whose embeddings were computed externally (the
    /// parallel bulk-ingest path: workers embed, one writer indexes).
    /// The vectors must come from this index's embedder.
    pub fn add_chunk_with_vectors(
        &mut self,
        record: &ChunkRecord,
        title_vector: Vec<f32>,
        content_vector: Vec<f32>,
    ) -> DocId {
        let doc = IndexDocument::new()
            .with_text("title", record.title.clone())
            .with_text("content", record.content.clone())
            .with_text("summary", record.summary.clone())
            .with_tags("domain", vec![record.domain.clone()])
            .with_tags("topic", vec![record.topic.clone()])
            .with_tags("section", vec![record.section.clone()])
            .with_tags("keywords", record.keywords.clone());
        let id = self
            .inverted
            .add(&doc)
            .expect("chunk schema fields are always valid");
        self.store.put(self.inverted.schema(), id, &doc);
        debug_assert_eq!(id.as_usize(), self.chunks.len(), "ids are dense");
        let in_title_graph = title_vector.iter().any(|&x| x != 0.0);
        if in_title_graph {
            self.title_vectors.add(id.0, title_vector);
        }
        let in_content_graph = content_vector.iter().any(|&x| x != 0.0);
        if in_content_graph {
            self.content_vectors.add(id.0, content_vector);
        }
        self.chunks.push(ChunkMeta {
            parent_doc: record.parent_doc.clone(),
            title: record.title.clone(),
            content: record.content.clone(),
            concepts: OnceLock::new(),
            in_title_graph,
            in_content_graph,
        });
        self.live.push(true);
        self.by_parent
            .entry(record.parent_doc.clone())
            .or_default()
            .push(id.0);
        self.bump_generation();
        id
    }

    /// Add a chunk to all index structures, embedding its title and
    /// content with this index's embedder.
    pub fn add_chunk(&mut self, record: &ChunkRecord) -> DocId {
        let title_vector = self.embedder.embed(&record.title);
        let content_vector = self.embedder.embed(&record.content);
        self.add_chunk_with_vectors(record, title_vector, content_vector)
    }

    /// Run hybrid search for `query`.
    ///
    /// When the query-result cache is enabled, this is the cached entry
    /// point: a repeat `(query, config)` pair under an unchanged index
    /// is served from the cache without touching the component indexes.
    pub fn search(&self, query: &str, config: &HybridConfig) -> Vec<SearchHit> {
        if let Some(cache) = &self.cache {
            let generation = self.generation.load(Ordering::Relaxed);
            let fingerprint = config.fingerprint();
            if let Some(hits) = cache.get(query, fingerprint, generation) {
                return hits;
            }
            let hits = self.search_uncached(query, config);
            cache.put(query, fingerprint, generation, &hits);
            return hits;
        }
        self.search_uncached(query, config)
    }

    /// Answer several queries in one call, amortizing the vector leg:
    /// every cache-missing query is embedded through a single
    /// [`Embedder::embed_batch`] call before the per-query fusion runs.
    ///
    /// Results are byte-identical to issuing [`SearchIndex::search`]
    /// once per query — the query cache is consulted and filled with
    /// the same keys, and batched embeddings are bit-identical to
    /// unbatched ones — so the serving front-end can batch whatever a
    /// window happens to admit without changing any answer.
    pub fn search_batch(&self, queries: &[String], config: &HybridConfig) -> Vec<Vec<SearchHit>> {
        let generation = self.generation.load(Ordering::Relaxed);
        let fingerprint = config.fingerprint();
        let mut out: Vec<Option<Vec<SearchHit>>> = vec![None; queries.len()];
        let mut misses: Vec<usize> = Vec::new();
        if let Some(cache) = &self.cache {
            for (i, query) in queries.iter().enumerate() {
                match cache.get(query, fingerprint, generation) {
                    Some(hits) => out[i] = Some(hits),
                    None => misses.push(i),
                }
            }
        } else {
            misses.extend(0..queries.len());
        }
        let vectors: Vec<Option<Vec<f32>>> = if config.use_vector {
            let texts: Vec<&str> = misses.iter().map(|&i| queries[i].as_str()).collect();
            self.embedder
                .embed_batch(&texts)
                .into_iter()
                .map(Some)
                .collect()
        } else {
            vec![None; misses.len()]
        };
        for (vector, &i) in vectors.iter().zip(&misses) {
            let hits = self.search_with_vector(&queries[i], vector.as_deref(), config);
            if let Some(cache) = &self.cache {
                cache.put(&queries[i], fingerprint, generation, &hits);
            }
            out[i] = Some(hits);
        }
        out.into_iter()
            .map(|hits| hits.expect("every query is either a cache hit or a miss"))
            .collect()
    }

    fn search_uncached(&self, query: &str, config: &HybridConfig) -> Vec<SearchHit> {
        let query_vector = if config.use_vector {
            Some(self.embedder.embed(query))
        } else {
            None
        };
        self.search_with_vector(query, query_vector.as_deref(), config)
    }

    /// Hybrid search with an externally supplied query vector (used by
    /// the MQ2 expansion variant, which averages several embeddings).
    /// Never consults the query cache: the supplied vector need not be
    /// the embedding of `text_query`.
    pub fn search_with_vector(
        &self,
        text_query: &str,
        query_vector: Option<&[f32]>,
        config: &HybridConfig,
    ) -> Vec<SearchHit> {
        let healthy = StageMask::default();
        let rankings = self.collect_rankings(text_query, query_vector, config, healthy);
        let fused = rrf_fuse(&rankings, config.rrf_c);
        self.finalize_hits(text_query, fused, config, healthy)
    }

    /// Hybrid search that tolerates partial pipeline outages.
    ///
    /// Every enabled stage is probed through the installed fault hook
    /// first. With no hook, or with all probes healthy, this is exactly
    /// [`SearchIndex::search`] (including the query cache). When probes
    /// fail, only the surviving legs run and the result carries the
    /// failure mask — and the query cache is bypassed in *both*
    /// directions: a degraded ranking must never be served for, or
    /// stored under, the healthy key.
    pub fn search_resilient(&self, query: &str, config: &HybridConfig) -> ResilientSearch {
        let failed = self.probe_stages(query, config);
        if !failed.any() {
            return ResilientSearch {
                hits: self.search(query, config),
                failed,
            };
        }
        let vector_wanted = config.use_vector && !(failed.title_vector && failed.content_vector);
        let query_vector = vector_wanted.then(|| self.embedder.embed(query));
        let rankings = self.collect_rankings(query, query_vector.as_deref(), config, failed);
        let fused = rrf_fuse(&rankings, config.rrf_c);
        ResilientSearch {
            hits: self.finalize_hits(query, fused, config, failed),
            failed,
        }
    }

    /// Probe each enabled stage through the fault hook. No hook → all
    /// healthy. Stages disabled in `config` are not probed (their fault
    /// counters must not advance for calls that would never run them).
    fn probe_stages(&self, query: &str, config: &HybridConfig) -> StageMask {
        let mut failed = StageMask::default();
        let Some(hook) = &self.fault_hook else {
            return failed;
        };
        if config.use_text {
            failed.text = hook.before_stage(SearchStage::Text, query).is_err();
        }
        if config.use_vector {
            failed.title_vector = hook.before_stage(SearchStage::TitleVector, query).is_err();
            failed.content_vector = hook
                .before_stage(SearchStage::ContentVector, query)
                .is_err();
        }
        if config.use_reranker {
            failed.reranker = hook.before_stage(SearchStage::Reranker, query).is_err();
        }
        failed
    }

    /// The BM25 leg: chunk ids, best first.
    ///
    /// `Searcher::search` runs the top-k pruned MaxScore engine; it is
    /// byte-identical to exhaustive evaluation, so RRF fusion sees the
    /// exact ranking the 110-query equivalence suite was pinned on.
    pub(crate) fn text_leg(&self, text_query: &str, config: &HybridConfig) -> Vec<u32> {
        self.searcher
            .search(
                &self.inverted,
                text_query,
                config.text_n,
                &config.profile,
                None,
            )
            .unwrap_or_default()
            .into_iter()
            .map(|h| h.doc.0)
            .collect()
    }

    /// One vector-field leg: live chunk ids, best first. `dead` is the
    /// graph's count of nodes of removed chunks.
    fn vector_leg(
        &self,
        field: &Hnsw,
        dead: usize,
        query_vector: &[f32],
        config: &HybridConfig,
    ) -> Vec<u32> {
        // Over-fetch to compensate for the dead nodes.
        let fetch = config.vector_k + dead.min(config.vector_k * 3);
        field
            .search(query_vector, fetch)
            .into_iter()
            .filter(|n| self.live[n.id as usize])
            .take(config.vector_k)
            .map(|n| n.id)
            .collect()
    }

    /// Run the enabled retrieval legs, skipping those marked in
    /// `failed`. The returned rankings are always in the fixed order
    /// text, title-vector, content-vector, so RRF fusion depends only
    /// on which legs ran.
    fn collect_rankings(
        &self,
        text_query: &str,
        query_vector: Option<&[f32]>,
        config: &HybridConfig,
        failed: StageMask,
    ) -> Vec<Vec<u32>> {
        let mut rankings: Vec<Vec<u32>> = Vec::with_capacity(3);
        if config.use_text && !failed.text {
            rankings.push(self.text_leg(text_query, config));
        }
        if let Some(qv) =
            query_vector.filter(|qv| config.use_vector && qv.iter().any(|&x| x != 0.0))
        {
            if !failed.title_vector {
                rankings.push(self.vector_leg(&self.title_vectors, self.title_dead, qv, config));
            }
            if !failed.content_vector {
                rankings.push(self.vector_leg(
                    &self.content_vectors,
                    self.content_dead,
                    qv,
                    config,
                ));
            }
        }
        rankings
    }

    /// The chunk's reranker concepts, analysed on first use.
    fn chunk_concepts<'a>(&self, meta: &'a ChunkMeta) -> &'a ChunkConcepts {
        meta.concepts
            .get_or_init(|| self.reranker.chunk_concepts(&meta.title, &meta.content))
    }

    /// Score one fused candidate (RRF score plus the weighted reranker
    /// score when `query` is given).
    fn scored_hit(&self, fused: &RrfFused<u32>, query: Option<&PreparedQuery>) -> SearchHit {
        let meta = &self.chunks[fused.id as usize];
        let mut score = fused.score;
        if let Some(query) = query {
            score += self.reranker.weight
                * self
                    .reranker
                    .score_prepared(query, self.chunk_concepts(meta));
        }
        SearchHit {
            chunk: DocId(fused.id),
            parent_doc: meta.parent_doc.clone(),
            title: meta.title.clone(),
            content: meta.content.clone(),
            score,
        }
    }

    /// Truncate the fused ranking to `final_n`, apply semantic
    /// reranking unless it is disabled in `config` or marked in
    /// `failed`, and sort.
    fn finalize_hits(
        &self,
        text_query: &str,
        fused: Vec<RrfFused<u32>>,
        config: &HybridConfig,
        failed: StageMask,
    ) -> Vec<SearchHit> {
        let rerank = config.use_reranker && !failed.reranker;
        let candidates = &fused[..fused.len().min(config.final_n)];
        let query = rerank.then(|| {
            // Candidates first: the query lookup never interns, so only
            // concepts of already analysed chunks can match.
            for f in candidates {
                self.chunk_concepts(&self.chunks[f.id as usize]);
            }
            self.reranker.prepare_query(text_query)
        });
        let mut hits: Vec<SearchHit> = candidates
            .iter()
            .map(|f| self.scored_hit(f, query.as_ref()))
            .collect();
        if rerank {
            hits.sort_by(|a, b| {
                b.score
                    .partial_cmp(&a.score)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.chunk.cmp(&b.chunk))
            });
        }
        hits
    }

    /// Hybrid search deduplicated to source documents: each parent
    /// document appears once, at the rank of its best chunk. This is
    /// the ranking the IR metrics evaluate (ground truth is per
    /// document). Deduplication borrows the parent-doc ids from the
    /// chunk table instead of cloning a `String` per hit.
    pub fn search_documents(&self, query: &str, config: &HybridConfig) -> Vec<SearchHit> {
        let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
        self.search(query, config)
            .into_iter()
            .filter(|h| seen.insert(self.chunks[h.chunk.as_usize()].parent_doc.as_str()))
            .collect()
    }

    /// Fuse several per-query chunk rankings into one (MQ1 multi-query
    /// search). Rankings are fused in query order.
    pub fn multi_query_search(&self, queries: &[String], config: &HybridConfig) -> Vec<SearchHit> {
        let per_query: Vec<Vec<u32>> = queries
            .iter()
            .map(|q| {
                self.search(q, config)
                    .into_iter()
                    .map(|h| h.chunk.0)
                    .collect()
            })
            .collect();
        let fused = rrf_fuse(&per_query, config.rrf_c);
        fused
            .into_iter()
            .take(config.final_n)
            .map(|f| {
                let meta = &self.chunks[f.id as usize];
                SearchHit {
                    chunk: DocId(f.id),
                    parent_doc: meta.parent_doc.clone(),
                    title: meta.title.clone(),
                    content: meta.content.clone(),
                    score: f.score,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniask_vector::embedding::SyntheticEmbedder;

    fn chunk(parent: &str, title: &str, content: &str) -> ChunkRecord {
        ChunkRecord {
            parent_doc: parent.to_string(),
            ordinal: 0,
            title: title.to_string(),
            content: content.to_string(),
            summary: String::new(),
            domain: "D".into(),
            topic: "T".into(),
            section: "S".into(),
            keywords: vec![],
        }
    }

    fn index() -> SearchIndex {
        let embedder = Arc::new(SyntheticEmbedder::new(64, 9));
        let mut idx = SearchIndex::new(embedder, SemanticReranker::default());
        idx.add_chunk(&chunk(
            "kb/1",
            "Bonifico estero",
            "Il bonifico verso paesi esteri richiede il codice BIC della banca beneficiaria.",
        ));
        idx.add_chunk(&chunk(
            "kb/2",
            "Mutuo prima casa",
            "Il mutuo prima casa prevede un tasso agevolato per i clienti giovani.",
        ));
        idx.add_chunk(&chunk(
            "kb/3",
            "Blocco carta",
            "La carta smarrita si blocca immediatamente dal numero verde.",
        ));
        idx
    }

    #[test]
    fn relevant_chunk_ranks_first() {
        let idx = index();
        let hits = idx.search("bonifico estero", &HybridConfig::default());
        assert_eq!(hits[0].parent_doc, "kb/1");
    }

    #[test]
    fn text_only_and_vector_only_both_work() {
        let idx = index();
        let t = idx.search("mutuo casa", &HybridConfig::text_only());
        let v = idx.search("mutuo casa", &HybridConfig::vector_only());
        assert_eq!(t[0].parent_doc, "kb/2");
        assert_eq!(v[0].parent_doc, "kb/2");
    }

    #[test]
    fn empty_index_returns_nothing() {
        let embedder = Arc::new(SyntheticEmbedder::new(64, 9));
        let idx = SearchIndex::new(embedder, SemanticReranker::default());
        assert!(idx.search("qualsiasi", &HybridConfig::default()).is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn final_n_limits_results() {
        let idx = index();
        let cfg = HybridConfig {
            final_n: 1,
            ..Default::default()
        };
        assert_eq!(idx.search("carta bonifico mutuo", &cfg).len(), 1);
    }

    #[test]
    fn document_dedup_keeps_best_chunk() {
        let embedder = Arc::new(SyntheticEmbedder::new(64, 9));
        let mut idx = SearchIndex::new(embedder, SemanticReranker::default());
        idx.add_chunk(&chunk("kb/1", "Bonifico", "il bonifico è descritto qui"));
        idx.add_chunk(&chunk(
            "kb/1",
            "Bonifico",
            "seconda parte della pagina sul bonifico",
        ));
        idx.add_chunk(&chunk("kb/2", "Altro", "testo senza relazione"));
        let doc_hits = idx.search_documents("bonifico", &HybridConfig::default());
        let parents: Vec<&str> = doc_hits.iter().map(|h| h.parent_doc.as_str()).collect();
        assert_eq!(parents.iter().filter(|p| **p == "kb/1").count(), 1);
    }

    #[test]
    fn reranker_promotes_semantic_matches() {
        let embedder = Arc::new(SyntheticEmbedder::new(64, 9));
        let mut idx = SearchIndex::new(embedder, SemanticReranker::default());
        // Chunk A: repeats the term (wins pure BM25 tf). Chunk B: covers
        // both query concepts exactly once.
        idx.add_chunk(&chunk(
            "kb/a",
            "Carta",
            "carta carta carta carta carta informazioni varie generiche",
        ));
        idx.add_chunk(&chunk(
            "kb/b",
            "Blocco carta",
            "per bloccare la carta chiamare il numero verde",
        ));
        let without = HybridConfig {
            use_reranker: false,
            ..Default::default()
        };
        let with = HybridConfig::default();
        let plain = idx.search("bloccare carta", &without);
        let reranked = idx.search("bloccare carta", &with);
        // With reranking, full-coverage kb/b must be first.
        assert_eq!(reranked[0].parent_doc, "kb/b");
        // Scores strictly increase when reranker adds signal.
        assert!(reranked[0].score >= plain[0].score);
    }

    #[test]
    fn multi_query_search_fuses_rankings() {
        let idx = index();
        let queries = vec!["bonifico estero".to_string(), "carta smarrita".to_string()];
        let hits = idx.multi_query_search(&queries, &HybridConfig::default());
        let parents: Vec<&str> = hits.iter().map(|h| h.parent_doc.as_str()).collect();
        assert!(parents.contains(&"kb/1"));
        assert!(parents.contains(&"kb/3"));
    }

    #[test]
    fn stopword_only_query_yields_empty() {
        let idx = index();
        let hits = idx.search("il la per di", &HybridConfig::default());
        assert!(hits.is_empty());
    }

    #[test]
    fn search_is_deterministic() {
        let idx = index();
        let a = idx.search("bonifico", &HybridConfig::default());
        let b = idx.search("bonifico", &HybridConfig::default());
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod removal_tests {
    use super::*;
    use crate::reranker::SemanticReranker;
    use uniask_vector::embedding::SyntheticEmbedder;

    fn record(parent: &str, title: &str, content: &str) -> ChunkRecord {
        ChunkRecord {
            parent_doc: parent.to_string(),
            ordinal: 0,
            title: title.to_string(),
            content: content.to_string(),
            summary: String::new(),
            domain: "D".into(),
            topic: "T".into(),
            section: "S".into(),
            keywords: vec![],
        }
    }

    #[test]
    fn removed_document_disappears_from_results() {
        let embedder = Arc::new(SyntheticEmbedder::new(64, 3));
        let mut idx = SearchIndex::new(embedder, SemanticReranker::default());
        idx.add_chunk(&record(
            "kb/old",
            "Bonifico estero",
            "istruzioni bonifico estero",
        ));
        idx.add_chunk(&record("kb/other", "Mutuo", "istruzioni mutuo"));
        assert_eq!(idx.len(), 2);
        let before = idx.search("bonifico estero", &HybridConfig::default());
        assert_eq!(before[0].parent_doc, "kb/old");
        assert_eq!(idx.remove_document("kb/old"), 1);
        assert_eq!(idx.len(), 1);
        let after = idx.search("bonifico estero", &HybridConfig::default());
        assert!(after.iter().all(|h| h.parent_doc != "kb/old"));
    }

    #[test]
    fn replacing_a_document_serves_new_content() {
        let embedder = Arc::new(SyntheticEmbedder::new(64, 3));
        let mut idx = SearchIndex::new(embedder, SemanticReranker::default());
        idx.add_chunk(&record(
            "kb/x",
            "Vecchio titolo",
            "contenuto originale della pagina",
        ));
        idx.remove_document("kb/x");
        idx.add_chunk(&record(
            "kb/x",
            "Nuovo titolo",
            "contenuto aggiornato della pagina",
        ));
        let hits = idx.search("contenuto aggiornato", &HybridConfig::default());
        assert_eq!(hits[0].title, "Nuovo titolo");
    }

    #[test]
    fn removing_unknown_document_is_zero() {
        let embedder = Arc::new(SyntheticEmbedder::new(64, 3));
        let mut idx = SearchIndex::new(embedder, SemanticReranker::default());
        assert_eq!(idx.remove_document("kb/none"), 0);
    }
}

impl SearchIndex {
    /// Facet counts of `hits` over a filterable field (the frontend's
    /// domain/topic/section navigation).
    pub fn facets(
        &self,
        hits: &[SearchHit],
        field: &str,
    ) -> Result<uniask_index::facets::FacetCounts, uniask_index::error::IndexError> {
        let ids: Vec<DocId> = hits.iter().map(|h| h.chunk).collect();
        uniask_index::facets::facet_counts(&self.inverted, &ids, field)
    }
}

#[cfg(test)]
mod facet_tests {
    use super::*;
    use crate::reranker::SemanticReranker;
    use uniask_vector::embedding::SyntheticEmbedder;

    #[test]
    fn facets_over_search_hits() {
        let embedder = Arc::new(SyntheticEmbedder::new(64, 3));
        let mut idx = SearchIndex::new(embedder, SemanticReranker::default());
        for (i, domain) in ["Pagamenti", "Pagamenti", "Carte"].iter().enumerate() {
            idx.add_chunk(&ChunkRecord {
                parent_doc: format!("kb/{i}"),
                ordinal: 0,
                title: "Bonifico".into(),
                content: "testo sul bonifico condiviso".into(),
                summary: String::new(),
                domain: domain.to_string(),
                topic: "T".into(),
                section: "S".into(),
                keywords: vec![],
            });
        }
        let hits = idx.search("bonifico", &HybridConfig::default());
        let facets = idx.facets(&hits, "domain").unwrap();
        assert_eq!(facets.counts["Pagamenti"], 2);
        assert_eq!(facets.counts["Carte"], 1);
        assert!(idx.facets(&hits, "title").is_err(), "non-filterable field");
    }
}

impl SearchIndex {
    /// Parse the search-box syntax (`domain:Pagamenti bonifico`) and
    /// run a filtered hybrid search: the text component applies the
    /// filter natively, the vector components over-fetch and filter
    /// their hits against the chunk tags.
    pub fn search_box(&self, input: &str, config: &HybridConfig) -> Vec<SearchHit> {
        let parsed = uniask_index::query_parser::parse_query(input);
        let Some(filter) = parsed.filter else {
            return self.search(input, config);
        };
        let text_query = if parsed.text.is_empty() {
            input
        } else {
            &parsed.text
        };

        let mut rankings: Vec<Vec<u32>> = Vec::with_capacity(3);
        if config.use_text {
            // The filter is pushed down into the query engine's
            // candidate bitset (and validated against the schema up
            // front — `unwrap_or_default` maps a filter on a
            // non-filterable field to an empty text leg).
            let hits = self
                .searcher
                .search(
                    &self.inverted,
                    text_query,
                    config.text_n,
                    &config.profile,
                    Some(&filter),
                )
                .unwrap_or_default();
            rankings.push(hits.into_iter().map(|h| h.doc.0).collect());
        }
        if config.use_vector {
            let qv = self.embedder.embed(text_query);
            if qv.iter().any(|&x| x != 0.0) {
                for (field, dead) in [
                    (&self.title_vectors, self.title_dead),
                    (&self.content_vectors, self.content_dead),
                ] {
                    let fetch = config.vector_k * 4 + dead.min(config.vector_k * 3);
                    rankings.push(
                        field
                            .search(&qv, fetch)
                            .into_iter()
                            .filter(|n| {
                                self.live[n.id as usize]
                                    && filter.matches(&self.inverted, DocId(n.id)).unwrap_or(false)
                            })
                            .take(config.vector_k)
                            .map(|n| n.id)
                            .collect(),
                    );
                }
            }
        }
        let fused = crate::rrf::rrf_fuse(&rankings, config.rrf_c);
        self.finalize_hits(text_query, fused, config, StageMask::default())
    }
}

#[cfg(test)]
mod search_box_tests {
    use super::*;
    use crate::reranker::SemanticReranker;
    use uniask_vector::embedding::SyntheticEmbedder;

    fn index() -> SearchIndex {
        let embedder = Arc::new(SyntheticEmbedder::new(64, 3));
        let mut idx = SearchIndex::new(embedder, SemanticReranker::default());
        for (i, (domain, content)) in [
            ("Pagamenti", "il bonifico estero richiede il codice bic"),
            ("Carte", "il bonifico da carta prepagata ha limiti dedicati"),
            ("Pagamenti", "la domiciliazione si attiva dal portale"),
        ]
        .iter()
        .enumerate()
        {
            idx.add_chunk(&ChunkRecord {
                parent_doc: format!("kb/{i}"),
                ordinal: 0,
                title: format!("Documento {i}"),
                content: content.to_string(),
                summary: String::new(),
                domain: domain.to_string(),
                topic: "T".into(),
                section: "S".into(),
                keywords: vec![],
            });
        }
        idx
    }

    #[test]
    fn filter_restricts_both_components() {
        let idx = index();
        let all = idx.search_box("bonifico", &HybridConfig::default());
        assert!(all.iter().any(|h| h.parent_doc == "kb/1"));
        let filtered = idx.search_box("domain:Pagamenti bonifico", &HybridConfig::default());
        assert!(!filtered.is_empty());
        for h in &filtered {
            assert_ne!(h.parent_doc, "kb/1", "Carte document must be filtered out");
        }
    }

    #[test]
    fn negated_filter_works() {
        let idx = index();
        let hits = idx.search_box("-domain:Pagamenti bonifico", &HybridConfig::default());
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| h.parent_doc == "kb/1"));
    }

    #[test]
    fn no_filter_falls_back_to_plain_search() {
        let idx = index();
        let a = idx.search_box("bonifico estero", &HybridConfig::default());
        let b = idx.search("bonifico estero", &HybridConfig::default());
        assert_eq!(a, b);
    }
}

// ------------------------------------------------------------------
// Accessors used by the explain module (crate-public surface kept
// minimal: read-only views of the component structures).
impl SearchIndex {
    /// Parent document of `chunk`, if the id is valid.
    pub(crate) fn chunk_meta(&self, chunk: DocId) -> Option<String> {
        self.chunks
            .get(chunk.as_usize())
            .map(|m| m.parent_doc.clone())
    }

    /// The title-vector component.
    pub(crate) fn title_vector_index(&self) -> &dyn uniask_vector::VectorIndex {
        &self.title_vectors
    }

    /// The content-vector component.
    pub(crate) fn content_vector_index(&self) -> &dyn uniask_vector::VectorIndex {
        &self.content_vectors
    }

    /// Raw semantic-reranker score for (query, chunk), computed the
    /// way [`SearchIndex::search`] computes it.
    pub(crate) fn reranker_score(&self, query: &str, chunk: DocId) -> Option<f64> {
        let concepts = self.chunk_concepts(self.chunks.get(chunk.as_usize())?);
        let query = self.reranker.prepare_query(query);
        Some(self.reranker.score_prepared(&query, concepts))
    }

    /// The reranker's calibration weight.
    pub(crate) fn reranker_weight(&self) -> f64 {
        self.reranker.weight
    }
}

/// Size/health statistics of a [`SearchIndex`] (the numbers an
/// operations dashboard tracks per partition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Live chunks.
    pub live_chunks: usize,
    /// Removed chunks (their rows stay in the chunk table).
    pub tombstones: usize,
    /// Distinct source documents.
    pub documents: usize,
    /// Nodes in the title graph, removed chunks' included until the
    /// next reclaim.
    pub title_vectors: usize,
    /// Nodes in the content graph, likewise.
    pub content_vectors: usize,
    /// Embedding dimension.
    pub embedding_dim: usize,
}

impl SearchIndex {
    /// Current size/health statistics.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            live_chunks: self.len(),
            tombstones: self.tombstones,
            documents: self.by_parent.len(),
            title_vectors: self.title_vectors.len(),
            content_vectors: self.content_vectors.len(),
            embedding_dim: self.embedder.dim(),
        }
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use crate::reranker::SemanticReranker;
    use uniask_vector::embedding::SyntheticEmbedder;

    #[test]
    fn stats_track_additions_and_removals() {
        let embedder = Arc::new(SyntheticEmbedder::new(32, 3));
        let mut idx = SearchIndex::new(embedder, SemanticReranker::default());
        for i in 0..6 {
            idx.add_chunk(&ChunkRecord {
                parent_doc: format!("kb/{i}"),
                ordinal: 0,
                title: format!("Documento {i}"),
                content: "contenuto della pagina".into(),
                summary: String::new(),
                domain: "D".into(),
                topic: "T".into(),
                section: "S".into(),
                keywords: vec![],
            });
        }
        let s = idx.stats();
        assert_eq!(s.live_chunks, 6);
        assert_eq!(s.documents, 6);
        assert_eq!(s.tombstones, 0);
        assert_eq!(s.embedding_dim, 32);
        assert_eq!(s.title_vectors, 6);
        idx.remove_document("kb/0");
        let s = idx.stats();
        assert_eq!(s.live_chunks, 5);
        assert_eq!(s.tombstones, 1);
        assert_eq!(s.documents, 5);
        // One dead node in six is under the reclaim threshold: the
        // graphs keep it (filtered at search time).
        assert_eq!((s.title_vectors, s.content_vectors), (6, 6));
        idx.remove_document("kb/1");
        let s = idx.stats();
        assert_eq!(s.live_chunks, 4);
        assert_eq!(s.tombstones, 2);
        // Two in six is over it: both graphs are rebuilt from the live
        // vectors.
        assert_eq!((s.title_vectors, s.content_vectors), (4, 4));
    }
}

#[cfg(test)]
mod reclaim_tests {
    use super::*;
    use crate::reranker::SemanticReranker;
    use uniask_vector::embedding::SyntheticEmbedder;

    const TOPICS: [&str; 5] = ["bonifico", "mutuo", "carta", "conto", "prestito"];

    fn record(i: usize, version: usize) -> ChunkRecord {
        let term = TOPICS[i % TOPICS.len()];
        ChunkRecord {
            parent_doc: format!("kb/{i}"),
            ordinal: 0,
            title: format!("Scheda {term} {i}"),
            content: format!("istruzioni {term} per la pratica {i} versione {version}"),
            summary: String::new(),
            domain: "D".into(),
            topic: "T".into(),
            section: "S".into(),
            keywords: vec![],
        }
    }

    /// 20 pages; every fourth has an all-zero title vector, so the two
    /// graphs hold different id sets.
    fn index() -> SearchIndex {
        let embedder = Arc::new(SyntheticEmbedder::new(32, 7));
        let mut idx = SearchIndex::new(embedder, SemanticReranker::default());
        for i in 0..20 {
            add(&mut idx, &record(i, 0));
        }
        idx
    }

    fn add(idx: &mut SearchIndex, record: &ChunkRecord) {
        let i: usize = record.parent_doc[3..].parse().unwrap();
        let title = if i.is_multiple_of(4) {
            vec![0.0; idx.embedder.dim()]
        } else {
            idx.embedder.embed(&record.title)
        };
        let content = idx.embedder.embed(&record.content);
        idx.add_chunk_with_vectors(record, title, content);
    }

    fn live_ids_with(idx: &SearchIndex, in_graph: impl Fn(&ChunkMeta) -> bool) -> Vec<u32> {
        (0..idx.chunks.len() as u32)
            .filter(|&id| idx.live[id as usize] && in_graph(&idx.chunks[id as usize]))
            .collect()
    }

    fn assert_no_dead_hits(idx: &SearchIndex) {
        for term in TOPICS {
            for config in [HybridConfig::default(), HybridConfig::vector_only()] {
                for hit in idx.search(term, &config) {
                    assert!(idx.live[hit.chunk.as_usize()], "dead chunk {:?}", hit.chunk);
                }
            }
        }
    }

    #[test]
    fn crossing_the_threshold_leaves_exactly_the_live_vectors() {
        let mut idx = index();
        let mut reclaimed = false;
        for (round, i) in (0..12).enumerate() {
            let before = idx.title_vectors.len() + idx.content_vectors.len();
            idx.remove_document(&format!("kb/{i}"));
            add(&mut idx, &record(i, 1));
            assert_no_dead_hits(&idx);
            if idx.title_vectors.len() + idx.content_vectors.len() <= before {
                reclaimed = true;
                assert_eq!((idx.title_dead, idx.content_dead), (0, 0), "round {round}");
                assert_eq!(
                    idx.title_vectors.ids().collect::<Vec<_>>(),
                    live_ids_with(&idx, |m| m.in_title_graph)
                );
                assert_eq!(
                    idx.content_vectors.ids().collect::<Vec<_>>(),
                    live_ids_with(&idx, |m| m.in_content_graph)
                );
            }
            assert!(idx.title_dead * RECLAIM_DEAD_FRACTION <= idx.title_vectors.len());
            assert!(idx.content_dead * RECLAIM_DEAD_FRACTION <= idx.content_vectors.len());
        }
        assert!(
            reclaimed,
            "twelve re-upserts of twenty pages must cross a fifth"
        );
        // Removed rows keep only their parent id.
        let dead = idx.live.iter().position(|&l| !l).unwrap();
        let meta = &idx.chunks[dead];
        assert!(meta.title.is_empty() && meta.content.is_empty());
        assert!(meta.concepts.get().is_none());
    }

    /// A snapshot without its mutation generation and checksum trailer
    /// (a restored index resumes one generation past the saved one).
    fn state(snapshot: &[u8]) -> &[u8] {
        &snapshot[14..snapshot.len() - 8]
    }

    #[test]
    fn reclaim_points_survive_a_snapshot_round_trip() {
        let mut idx = index();
        // Two re-upserts: dead nodes exist, no reclaim yet.
        for i in 0..2 {
            idx.remove_document(&format!("kb/{i}"));
            add(&mut idx, &record(i, 1));
        }
        assert!(idx.content_dead > 0);
        let snapshot = idx.save();
        let mut restored =
            SearchIndex::load(&snapshot, idx.embedder.clone(), SemanticReranker::default())
                .unwrap();
        assert_eq!(
            state(&restored.save()),
            state(&snapshot),
            "save → load → save"
        );
        assert_eq!(
            (restored.title_dead, restored.content_dead),
            (idx.title_dead, idx.content_dead)
        );
        // The restored index reclaims at the same removal as the
        // original: their snapshots agree after every step.
        for i in 2..12 {
            for index in [&mut idx, &mut restored] {
                index.remove_document(&format!("kb/{i}"));
                add(index, &record(i, 1));
            }
            let snapshot = idx.save();
            assert_eq!(state(&restored.save()), state(&snapshot), "after kb/{i}");
            let reloaded =
                SearchIndex::load(&snapshot, idx.embedder.clone(), SemanticReranker::default())
                    .unwrap();
            assert_eq!(state(&reloaded.save()), state(&snapshot));
        }
        assert_no_dead_hits(&restored);
    }
}

#[cfg(test)]
mod concurrency_tests {
    use super::*;
    use crate::reranker::SemanticReranker;
    use uniask_vector::embedding::SyntheticEmbedder;

    fn chunk(parent: &str, title: &str, content: &str) -> ChunkRecord {
        ChunkRecord {
            parent_doc: parent.to_string(),
            ordinal: 0,
            title: title.to_string(),
            content: content.to_string(),
            summary: String::new(),
            domain: "D".into(),
            topic: "T".into(),
            section: "S".into(),
            keywords: vec![],
        }
    }

    fn seeded_index(n: usize) -> SearchIndex {
        let embedder = Arc::new(SyntheticEmbedder::new(64, 9));
        let mut idx = SearchIndex::new(embedder, SemanticReranker::default());
        let topics = [
            (
                "bonifico",
                "Il bonifico richiede il codice IBAN del beneficiario",
            ),
            ("mutuo", "Il mutuo prima casa prevede un tasso agevolato"),
            ("carta", "La carta smarrita si blocca dal numero verde"),
            ("conto", "Il conto corrente si apre online con lo SPID"),
            ("prestito", "Il prestito personale copre spese impreviste"),
        ];
        for i in 0..n {
            let (term, body) = topics[i % topics.len()];
            idx.add_chunk(&chunk(
                &format!("kb/{i}"),
                &format!("Scheda {term} {i}"),
                &format!("{body} (variante {i})"),
            ));
        }
        idx
    }

    fn sample_queries() -> Vec<&'static str> {
        vec![
            "bonifico estero iban",
            "mutuo tasso agevolato",
            "carta smarrita blocco",
            "conto corrente online",
            "prestito personale",
            "bonifico mutuo carta",
        ]
    }

    #[test]
    fn cache_returns_same_results_and_counts_hits() {
        let mut cached = seeded_index(30);
        cached.enable_cache(CacheConfig::default());
        let plain = seeded_index(30);
        let cfg = HybridConfig::default();
        for q in sample_queries() {
            let first = cached.search(q, &cfg);
            let second = cached.search(q, &cfg);
            assert_eq!(first, second, "cached repeat must be identical");
            assert_eq!(first, plain.search(q, &cfg), "cache on/off must agree");
        }
        let stats = cached.cache_stats().expect("cache enabled");
        assert_eq!(stats.hits, sample_queries().len() as u64);
        assert_eq!(stats.misses, sample_queries().len() as u64);
    }

    #[test]
    fn cache_invalidated_by_add_and_remove() {
        let mut idx = seeded_index(10);
        idx.enable_cache(CacheConfig::default());
        let cfg = HybridConfig::default();
        let before = idx.search("bonifico", &cfg);
        assert!(!before.is_empty());

        idx.add_chunk(&chunk(
            "kb/new",
            "Bonifico istantaneo bonifico",
            "Il bonifico istantaneo accredita il bonifico in pochi secondi",
        ));
        let after_add = idx.search("bonifico", &cfg);
        assert!(
            after_add.iter().any(|h| h.parent_doc == "kb/new"),
            "new document must be visible after add_chunk"
        );
        assert_ne!(before, after_add);

        idx.remove_document("kb/new");
        let after_remove = idx.search("bonifico", &cfg);
        assert!(
            after_remove.iter().all(|h| h.parent_doc != "kb/new"),
            "removed document must not be served from the cache"
        );
        assert!(idx.cache_stats().expect("cache enabled").invalidations >= 1);
    }

    #[test]
    fn concurrent_searches_are_stable() {
        let mut idx = seeded_index(30);
        idx.enable_cache(CacheConfig::default());
        let queries = sample_queries();
        let cfg = HybridConfig::default();
        let expected: Vec<Vec<SearchHit>> = queries.iter().map(|q| idx.search(q, &cfg)).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let idx = &idx;
                let queries = &queries;
                let cfg = &cfg;
                let expected = &expected;
                scope.spawn(move || {
                    for _ in 0..5 {
                        for (q, want) in queries.iter().zip(expected) {
                            assert_eq!(&idx.search(q, cfg), want);
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn generation_advances_only_on_mutation() {
        let mut idx = seeded_index(5);
        let g0 = idx.generation();
        let _ = idx.search("bonifico", &HybridConfig::default());
        assert_eq!(idx.generation(), g0, "search must not bump the generation");
        idx.add_chunk(&chunk("kb/x", "Nuovo", "contenuto nuovo"));
        assert!(idx.generation() > g0);
        let g1 = idx.generation();
        assert_eq!(idx.remove_document("kb/assente"), 0);
        assert_eq!(idx.generation(), g1, "no-op removal must not bump");
        assert!(idx.remove_document("kb/x") > 0);
        assert!(idx.generation() > g1);
    }
}

#[cfg(test)]
mod resilience_tests {
    use super::*;
    use crate::fault::StageFault;
    use std::sync::atomic::AtomicBool;

    use uniask_vector::embedding::SyntheticEmbedder;

    /// Per-stage kill switches, flippable mid-test.
    #[derive(Debug, Default)]
    struct ScriptedHook {
        text: AtomicBool,
        title: AtomicBool,
        content: AtomicBool,
        reranker: AtomicBool,
    }

    impl SearchFaultHook for ScriptedHook {
        fn before_stage(&self, stage: SearchStage, _query: &str) -> Result<(), StageFault> {
            let down = match stage {
                SearchStage::Text => &self.text,
                SearchStage::TitleVector => &self.title,
                SearchStage::ContentVector => &self.content,
                SearchStage::Reranker => &self.reranker,
            };
            if down.load(Ordering::Relaxed) {
                Err(StageFault {
                    stage,
                    reason: "scripted outage".into(),
                })
            } else {
                Ok(())
            }
        }
    }

    fn chunk(parent: &str, title: &str, content: &str) -> ChunkRecord {
        ChunkRecord {
            parent_doc: parent.to_string(),
            ordinal: 0,
            title: title.to_string(),
            content: content.to_string(),
            summary: String::new(),
            domain: "D".into(),
            topic: "T".into(),
            section: "S".into(),
            keywords: vec![],
        }
    }

    fn populated_index() -> SearchIndex {
        let embedder = Arc::new(SyntheticEmbedder::new(64, 9));
        let mut idx = SearchIndex::new(embedder, SemanticReranker::default());
        idx.add_chunk(&chunk(
            "kb/1",
            "Bonifico estero",
            "Il bonifico verso paesi esteri richiede il codice BIC della banca beneficiaria.",
        ));
        idx.add_chunk(&chunk(
            "kb/2",
            "Mutuo prima casa",
            "Il mutuo prima casa prevede un tasso agevolato per i clienti giovani.",
        ));
        idx.add_chunk(&chunk(
            "kb/3",
            "Blocco carta",
            "La carta smarrita si blocca immediatamente dal numero verde.",
        ));
        idx
    }

    #[test]
    fn healthy_hook_matches_plain_search() {
        let mut idx = populated_index();
        let cfg = HybridConfig::default();
        let plain = idx.search("bonifico estero", &cfg);
        idx.set_fault_hook(Some(Arc::new(ScriptedHook::default())));
        let resilient = idx.search_resilient("bonifico estero", &cfg);
        assert!(!resilient.is_degraded());
        assert_eq!(resilient.hits, plain);
    }

    #[test]
    fn vector_outage_falls_back_to_bm25() {
        let mut idx = populated_index();
        let cfg = HybridConfig::default();
        let bm25_only = idx.search(
            "mutuo casa",
            &HybridConfig {
                use_vector: false,
                ..cfg.clone()
            },
        );
        let hook = Arc::new(ScriptedHook::default());
        hook.title.store(true, Ordering::Relaxed);
        hook.content.store(true, Ordering::Relaxed);
        idx.set_fault_hook(Some(hook));
        let degraded = idx.search_resilient("mutuo casa", &cfg);
        assert!(degraded.failed.vector());
        assert!(!degraded.failed.text);
        assert!(!degraded.hits.is_empty(), "BM25 backbone still answers");
        assert_eq!(
            degraded.hits, bm25_only,
            "vector outage degrades to exactly the text-only ranking"
        );
    }

    #[test]
    fn reranker_outage_skips_reranking_only() {
        let mut idx = populated_index();
        let cfg = HybridConfig::default();
        let unreranked = idx.search(
            "bloccare carta",
            &HybridConfig {
                use_reranker: false,
                ..cfg.clone()
            },
        );
        let hook = Arc::new(ScriptedHook::default());
        hook.reranker.store(true, Ordering::Relaxed);
        idx.set_fault_hook(Some(hook));
        let degraded = idx.search_resilient("bloccare carta", &cfg);
        assert!(degraded.failed.reranker);
        assert_eq!(degraded.hits, unreranked);
    }

    /// The cache-poisoning guard: a degraded (BM25-only) ranking must
    /// never be stored under — or served for — the healthy hybrid key.
    #[test]
    fn degraded_results_bypass_the_query_cache() {
        let mut idx = populated_index();
        idx.enable_cache(CacheConfig::default());
        let cfg = HybridConfig::default();
        let hook = Arc::new(ScriptedHook::default());
        idx.set_fault_hook(Some(Arc::clone(&hook) as Arc<dyn SearchFaultHook>));

        // Healthy query populates the cache.
        let healthy = idx.search_resilient("bonifico estero", &cfg);
        assert!(!healthy.is_degraded());
        let after_healthy = idx.cache_stats().unwrap();
        assert_eq!(after_healthy.misses, 1);
        assert_eq!(after_healthy.entries, 1);

        // Vector outage: same query, degraded pipeline. The cache must
        // see no traffic at all — no hit served, nothing stored.
        hook.title.store(true, Ordering::Relaxed);
        hook.content.store(true, Ordering::Relaxed);
        let degraded = idx.search_resilient("bonifico estero", &cfg);
        assert!(degraded.failed.vector());
        let after_degraded = idx.cache_stats().unwrap();
        assert_eq!(
            after_degraded.hits, 0,
            "degraded query must not read the cache"
        );
        assert_eq!(
            after_degraded.misses, 1,
            "degraded query must not count as a miss"
        );
        assert_eq!(
            after_degraded.entries, 1,
            "degraded result must not be stored"
        );

        // Back to healthy: the original cached ranking is served intact.
        hook.title.store(false, Ordering::Relaxed);
        hook.content.store(false, Ordering::Relaxed);
        let recovered = idx.search_resilient("bonifico estero", &cfg);
        assert!(!recovered.is_degraded());
        assert_eq!(recovered.hits, healthy.hits);
        assert_eq!(idx.cache_stats().unwrap().hits, 1);
    }
}
