//! Search explanations.
//!
//! Hybrid rankings are hard to debug: a chunk can surface through the
//! text ranking, either vector ranking, or any combination, and the
//! semantic reranker re-sorts on top. `explain` decomposes the final
//! score of one (query, chunk) pair into its parts — the tool the team
//! needed when analyzing pilot feedback ("the cited documents had
//! strong overlap with other documents, which caused confusion").

use uniask_index::doc::DocId;
use uniask_vector::VectorIndex;

use crate::hybrid::{HybridConfig, SearchIndex};

/// Contribution of one ranking to a fused score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankContribution {
    /// 1-based rank in that component's list (None = not retrieved).
    pub rank: Option<usize>,
    /// `1/(rank + c)` when ranked, else 0.
    pub rrf_score: f64,
}

/// The decomposed score of a (query, chunk) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// The chunk being explained.
    pub chunk: DocId,
    /// Source document.
    pub parent_doc: String,
    /// Text-search (BM25) contribution.
    pub text: RankContribution,
    /// Title-vector contribution.
    pub title_vector: RankContribution,
    /// Content-vector contribution.
    pub content_vector: RankContribution,
    /// Raw semantic-reranker score in [0, 1].
    pub semantic_score: f64,
    /// Reranker weight applied.
    pub semantic_weight: f64,
    /// The final fused score.
    pub total: f64,
}

impl Explanation {
    /// Render as an indented human-readable block.
    pub fn render(&self) -> String {
        let part = |name: &str, c: &RankContribution| match c.rank {
            Some(r) => format!("  {name:<16} rank {r:>3}  → rrf {:.5}\n", c.rrf_score),
            None => format!("  {name:<16} (not retrieved)\n"),
        };
        let mut out = format!("chunk {} ({})\n", self.chunk.0, self.parent_doc);
        out.push_str(&part("text (BM25)", &self.text));
        out.push_str(&part("title vector", &self.title_vector));
        out.push_str(&part("content vector", &self.content_vector));
        out.push_str(&format!(
            "  {:<16} {:.3} × weight {:.2} = {:.5}\n",
            "semantic",
            self.semantic_score,
            self.semantic_weight,
            self.semantic_score * self.semantic_weight
        ));
        out.push_str(&format!("  {:<16} {:.5}\n", "TOTAL", self.total));
        out
    }
}

impl SearchIndex {
    /// Explain how `chunk` scores for `query` under `config`.
    ///
    /// Returns `None` when the chunk id is out of range.
    pub fn explain(&self, query: &str, chunk: DocId, config: &HybridConfig) -> Option<Explanation> {
        let meta = self.chunk_meta(chunk)?;
        let contribution = |rank: Option<usize>| RankContribution {
            rank,
            rrf_score: rank.map(|r| 1.0 / (r as f64 + config.rrf_c)).unwrap_or(0.0),
        };

        // Text ranking position.
        let text_rank = if config.use_text {
            self.text_leg(query, config)
                .iter()
                .position(|&d| d == chunk.0)
                .map(|i| i + 1)
        } else {
            None
        };
        // Vector ranking positions.
        let (title_rank, content_rank) = if config.use_vector {
            let qv = self.embedder().embed(query);
            if qv.iter().any(|&x| x != 0.0) {
                let pos = |index: &dyn VectorIndex| {
                    index
                        .search(&qv, config.vector_k)
                        .iter()
                        .position(|n| n.id == chunk.0)
                        .map(|i| i + 1)
                };
                (
                    pos(self.title_vector_index()),
                    pos(self.content_vector_index()),
                )
            } else {
                (None, None)
            }
        } else {
            (None, None)
        };

        let text = contribution(text_rank);
        let title_vector = contribution(title_rank);
        let content_vector = contribution(content_rank);
        let (semantic_score, semantic_weight) = if config.use_reranker {
            (self.reranker_score(query, chunk)?, self.reranker_weight())
        } else {
            (0.0, 0.0)
        };
        let total = text.rrf_score
            + title_vector.rrf_score
            + content_vector.rrf_score
            + semantic_score * semantic_weight;
        Some(Explanation {
            chunk,
            parent_doc: meta,
            text,
            title_vector,
            content_vector,
            semantic_score,
            semantic_weight,
            total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::ChunkRecord;
    use crate::reranker::SemanticReranker;
    use std::sync::Arc;
    use uniask_vector::embedding::SyntheticEmbedder;

    fn index() -> SearchIndex {
        let embedder = Arc::new(SyntheticEmbedder::new(64, 3));
        let mut idx = SearchIndex::new(embedder, SemanticReranker::default());
        idx.add_chunk(&ChunkRecord {
            parent_doc: "kb/1".into(),
            ordinal: 0,
            title: "Bonifico estero".into(),
            content: "il bonifico estero richiede il codice bic della banca".into(),
            summary: String::new(),
            domain: "Pagamenti".into(),
            topic: "T".into(),
            section: "S".into(),
            keywords: vec![],
        });
        idx.add_chunk(&ChunkRecord {
            parent_doc: "kb/2".into(),
            ordinal: 0,
            title: "Mutuo".into(),
            content: "requisiti del mutuo agevolato per i giovani".into(),
            summary: String::new(),
            domain: "Crediti".into(),
            topic: "T".into(),
            section: "S".into(),
            keywords: vec![],
        });
        idx
    }

    #[test]
    fn explanation_total_matches_the_search_score() {
        let idx = index();
        let config = HybridConfig::default();
        let hits = idx.search("bonifico estero", &config);
        let top = &hits[0];
        let ex = idx.explain("bonifico estero", top.chunk, &config).unwrap();
        assert!(
            (ex.total - top.score).abs() < 1e-9,
            "{} vs {}",
            ex.total,
            top.score
        );
        assert_eq!(ex.parent_doc, top.parent_doc);
    }

    #[test]
    fn relevant_chunk_ranks_in_every_component() {
        let idx = index();
        let config = HybridConfig::default();
        let ex = idx.explain("bonifico estero", DocId(0), &config).unwrap();
        assert_eq!(ex.text.rank, Some(1));
        assert_eq!(ex.title_vector.rank, Some(1));
        assert_eq!(ex.content_vector.rank, Some(1));
        assert!(ex.semantic_score > 0.9);
    }

    #[test]
    fn irrelevant_chunk_shows_absences() {
        let idx = index();
        let config = HybridConfig::default();
        let ex = idx.explain("bonifico estero", DocId(1), &config).unwrap();
        assert_eq!(
            ex.text.rank, None,
            "mutuo chunk must not match the text query"
        );
        assert_eq!(ex.text.rrf_score, 0.0);
    }

    #[test]
    fn out_of_range_chunk_is_none() {
        let idx = index();
        assert!(idx
            .explain("x", DocId(99), &HybridConfig::default())
            .is_none());
    }

    #[test]
    fn render_is_readable() {
        let idx = index();
        let ex = idx
            .explain("bonifico estero", DocId(0), &HybridConfig::default())
            .unwrap();
        let page = ex.render();
        assert!(page.contains("text (BM25)"));
        assert!(page.contains("TOTAL"));
        assert!(page.contains("kb/1"));
    }

    #[test]
    fn ablated_components_contribute_zero() {
        let idx = index();
        let ex = idx
            .explain("bonifico estero", DocId(0), &HybridConfig::text_only())
            .unwrap();
        assert_eq!(ex.title_vector.rank, None);
        assert_eq!(ex.semantic_weight, 0.0);
        assert!((ex.total - ex.text.rrf_score).abs() < 1e-12);
    }
}
