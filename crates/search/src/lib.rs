//! # uniask-search
//!
//! UniAsk's retrieval module (Section 4): the hybrid search algorithm
//! that combines full-text BM25 search (n = 50) with vector search over
//! the title and content embeddings (K = 15 per field), merges the
//! rankings with Reciprocal Rank Fusion (c = 60) and adds a semantic
//! reranking score — plus the retrieval variants evaluated in Tables
//! 2–4: component ablations, query expansion (QGA / MQ1 / MQ2), title
//! boosting, and LLM keyword enrichment of the index.

pub mod cache;
pub mod enrichment;
pub mod expansion;
pub mod explain;
pub mod fault;
pub mod hybrid;
pub mod persistence;
pub mod reranker;
pub mod rrf;
pub mod segmented;

pub use cache::{CacheConfig, CacheStats, QueryCache};
pub use enrichment::{enrich_chunk, Enrichment};
pub use expansion::{ExpandedSearch, QueryExpansion};
pub use explain::{Explanation, RankContribution};
pub use fault::{ResilientSearch, SearchFaultHook, SearchStage, StageFault, StageMask};
pub use hybrid::{ChunkRecord, HybridConfig, IndexStats, SearchHit, SearchIndex};
pub use persistence::PersistError;
pub use reranker::{ChunkConcepts, PreparedQuery, SemanticReranker};
pub use rrf::{rrf_fuse, RrfFused};
pub use segmented::{
    spawn_merger, MergePolicy, MergeWorker, OracleIndex, SegmentedConfig, SegmentedSearchIndex,
    SegmentedStats,
};
