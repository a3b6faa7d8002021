//! System configuration.

use uniask_index::searcher::ScoringProfile;
use uniask_llm::model::SimLlmConfig;
use uniask_search::cache::CacheConfig;
use uniask_search::enrichment::Enrichment;
use uniask_search::hybrid::HybridConfig;

/// Full configuration of a UniAsk deployment.
#[derive(Debug, Clone)]
pub struct UniAskConfig {
    /// Retrieval configuration (HSS parameters).
    pub hybrid: HybridConfig,
    /// Context chunks passed to the LLM (paper: m = 4).
    pub context_chunks: usize,
    /// Simulated LLM behaviour.
    pub llm: SimLlmConfig,
    /// ROUGE-L guardrail threshold (paper: 0.15).
    pub rouge_threshold: f64,
    /// Embedding dimension.
    pub embedding_dim: usize,
    /// Chunk token budget (paper: 512).
    pub chunk_max_tokens: usize,
    /// Index enrichment strategy (Table 4 variants).
    pub enrichment: Enrichment,
    /// Summary sentences generated per document during indexing.
    pub summary_sentences: usize,
    /// Enable the knowledge-store fact-check guardrail (§11 future
    /// work; off in the paper's production configuration).
    pub enable_fact_check: bool,
    /// Query-result cache sizing; `None` disables the cache. Results
    /// are identical either way — the cache only changes latency.
    pub query_cache: Option<CacheConfig>,
    /// Global seed.
    pub seed: u64,
}

impl Default for UniAskConfig {
    fn default() -> Self {
        UniAskConfig {
            hybrid: HybridConfig::default(),
            context_chunks: 4,
            llm: SimLlmConfig::default(),
            rouge_threshold: 0.15,
            embedding_dim: 128,
            chunk_max_tokens: 512,
            enrichment: Enrichment::None,
            summary_sentences: 2,
            enable_fact_check: false,
            query_cache: Some(CacheConfig::default()),
            seed: 0xBA5E_BA11,
        }
    }
}

impl UniAskConfig {
    /// Production defaults with a custom title-boost profile (Table 3B).
    pub fn with_title_boost(t: f64) -> Self {
        UniAskConfig {
            hybrid: HybridConfig {
                profile: ScoringProfile::title_boost(t),
                ..HybridConfig::default()
            },
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = UniAskConfig::default();
        assert_eq!(c.context_chunks, 4);
        assert_eq!(c.hybrid.text_n, 50);
        assert_eq!(c.hybrid.vector_k, 15);
        assert_eq!(c.hybrid.rrf_c, 60.0);
        assert_eq!(c.rouge_threshold, 0.15);
        assert_eq!(c.chunk_max_tokens, 512);
    }

    #[test]
    fn title_boost_profile_is_applied() {
        let c = UniAskConfig::with_title_boost(50.0);
        assert_eq!(c.hybrid.profile.weight("title"), 50.0);
        assert_eq!(c.hybrid.profile.weight("content"), 1.0);
    }
}
