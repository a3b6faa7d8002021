//! Semantic reranking.
//!
//! Azure AI Search adds "a semantic reranking score, obtained with a
//! proprietary multi-lingual, deep-learning model from Bing and
//! Microsoft Research, based on multi-task learning". The model is
//! closed; this simulated cross-encoder preserves its role: an
//! *interaction* score computed on the (query, chunk) pair — concept
//! coverage of the query in the chunk, with a title-affinity bonus —
//! rather than a similarity of independent encodings. Scores are in
//! `[0, 1]` and are added to the RRF score with a calibration weight.
//!
//! Two ways to score, bit-identical by construction. [`SemanticReranker::score`]
//! works from strings and re-analyses both sides on every call; it is
//! the reference. The serving path analyses a chunk once into a
//! [`ChunkConcepts`] (interned, sorted concept ids, memoised by the
//! index), the query once per search into a [`PreparedQuery`], and
//! scores with [`SemanticReranker::score_prepared`]: the same integer
//! counts through the same expression.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use uniask_text::analyzer::{Analyzer, ItalianAnalyzer};
use uniask_text::concepts::{IdentityNormalizer, TermNormalizer};

/// A chunk's concepts as interned ids, each list sorted and
/// deduplicated: the title's, and the title's ∪ the content's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkConcepts {
    title: Box<[u32]>,
    any: Box<[u32]>,
}

/// A query's concepts in analysis order, duplicates kept (each
/// occurrence counts toward coverage, as in [`SemanticReranker::score`]).
/// `None` marks a concept no analysed chunk holds: it counts toward the
/// denominator but cannot match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedQuery {
    ids: Vec<Option<u32>>,
}

/// Simulated multi-task cross-encoder.
pub struct SemanticReranker {
    analyzer: ItalianAnalyzer,
    normalizer: Arc<dyn TermNormalizer>,
    /// Concept → id for every concept of every chunk analysed so far.
    /// Only [`SemanticReranker::chunk_concepts`] inserts; query lookups
    /// never do, so queries cannot grow it.
    interner: RwLock<HashMap<String, u32>>,
    /// Weight of the reranker score when added to the RRF score. The
    /// RRF top score is ≈ `3/(1+c)` ≈ 0.05 for c = 60, so the default
    /// keeps the two signals comparable.
    pub weight: f64,
}

impl std::fmt::Debug for SemanticReranker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SemanticReranker")
            .field("weight", &self.weight)
            .finish()
    }
}

impl Default for SemanticReranker {
    fn default() -> Self {
        Self::new(Arc::new(IdentityNormalizer))
    }
}

impl SemanticReranker {
    /// Create a reranker with a concept normalizer (the production
    /// system passes the corpus synonym table).
    pub fn new(normalizer: Arc<dyn TermNormalizer>) -> Self {
        SemanticReranker {
            analyzer: ItalianAnalyzer::new(),
            normalizer,
            interner: RwLock::new(HashMap::new()),
            weight: 0.05,
        }
    }

    fn concepts(&self, text: &str) -> Vec<String> {
        self.analyzer
            .analyze(text)
            .into_iter()
            .map(|t| self.normalizer.normalize(&t))
            .collect()
    }

    /// Score a (query, title, content) pair in `[0, 1]`.
    ///
    /// 0.75 · (fraction of query concepts covered by the chunk) +
    /// 0.25 · (fraction covered by the title alone).
    pub fn score(&self, query: &str, title: &str, content: &str) -> f64 {
        let q = self.concepts(query);
        if q.is_empty() {
            return 0.0;
        }
        let t = self.concepts(title);
        let c = self.concepts(content);
        let covered_any = q
            .iter()
            .filter(|qc| t.iter().any(|x| x == *qc) || c.iter().any(|x| x == *qc))
            .count() as f64;
        let covered_title = q.iter().filter(|qc| t.iter().any(|x| x == *qc)).count() as f64;
        let n = q.len() as f64;
        0.75 * covered_any / n + 0.25 * covered_title / n
    }

    /// Analyse a chunk once, interning its concepts.
    pub fn chunk_concepts(&self, title: &str, content: &str) -> ChunkConcepts {
        let title = self.concepts(title);
        let content = self.concepts(content);
        let mut interner = self.interner.write();
        let mut intern = |concept: String| {
            let next = u32::try_from(interner.len()).expect("fewer than 2^32 concepts");
            *interner.entry(concept).or_insert(next)
        };
        let mut title: Vec<u32> = title.into_iter().map(&mut intern).collect();
        let mut any: Vec<u32> = content.into_iter().map(intern).collect();
        drop(interner);
        title.sort_unstable();
        title.dedup();
        any.extend_from_slice(&title);
        any.sort_unstable();
        any.dedup();
        ChunkConcepts {
            title: title.into(),
            any: any.into(),
        }
    }

    /// Analyse a query once. Prepare it *after* the chunks it will be
    /// scored against have been through [`SemanticReranker::chunk_concepts`]:
    /// a concept interned later would not match here.
    pub fn prepare_query(&self, query: &str) -> PreparedQuery {
        let concepts = self.concepts(query);
        let interner = self.interner.read();
        PreparedQuery {
            ids: concepts.iter().map(|c| interner.get(c).copied()).collect(),
        }
    }

    /// [`SemanticReranker::score`] from prepared concepts: bit for bit
    /// the same `f64`.
    pub fn score_prepared(&self, query: &PreparedQuery, chunk: &ChunkConcepts) -> f64 {
        if query.ids.is_empty() {
            return 0.0;
        }
        let (mut covered_any, mut covered_title) = (0usize, 0usize);
        for id in query.ids.iter().flatten() {
            covered_any += usize::from(chunk.any.binary_search(id).is_ok());
            covered_title += usize::from(chunk.title.binary_search(id).is_ok());
        }
        let n = query.ids.len() as f64;
        0.75 * covered_any as f64 / n + 0.25 * covered_title as f64 / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_coverage_scores_one() {
        let r = SemanticReranker::default();
        let s = r.score(
            "bonifico estero",
            "Bonifico estero",
            "come eseguire il bonifico estero",
        );
        assert!((s - 1.0).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn no_coverage_scores_zero() {
        let r = SemanticReranker::default();
        assert_eq!(
            r.score("mutuo casa", "Stampanti", "configurazione periferiche"),
            0.0
        );
    }

    #[test]
    fn title_match_beats_content_only_match() {
        let r = SemanticReranker::default();
        let title_hit = r.score("bonifico", "Bonifico SEPA", "testo generico della pagina");
        let content_hit = r.score("bonifico", "Pagina generica", "il bonifico si esegue così");
        assert!(title_hit > content_hit);
    }

    #[test]
    fn partial_coverage_is_fractional() {
        let r = SemanticReranker::default();
        let s = r.score(
            "bonifico estero urgente",
            "Bonifico",
            "bonifico verso estero",
        );
        assert!(s > 0.3 && s < 1.0, "got {s}");
    }

    #[test]
    fn empty_query_scores_zero() {
        let r = SemanticReranker::default();
        assert_eq!(r.score("", "t", "c"), 0.0);
        assert_eq!(r.score("il la di", "t", "c"), 0.0);
    }

    #[test]
    fn synonym_normalizer_bridges_paraphrase() {
        struct Syn;
        impl TermNormalizer for Syn {
            fn normalize(&self, term: &str) -> String {
                if term == "massimal" {
                    "limit".into()
                } else {
                    term.into()
                }
            }
        }
        let plain = SemanticReranker::default();
        let syn = SemanticReranker::new(Arc::new(Syn));
        let q = "massimale carta";
        let title = "Limite carta";
        let content = "il limite della carta è fissato";
        assert!(syn.score(q, title, content) > plain.score(q, title, content));
    }
}
