//! # uniask-bench
//!
//! Shared harness for the paper-reproduction binaries (one per table
//! and figure).
//!
//! [`Experiment::setup`] builds everything the evaluation section
//! needs: the synthetic KB at the requested scale, the two query
//! datasets with their validation/test splits, the fully ingested
//! UniAsk system, and the previous-generation baseline engine.

use std::sync::Arc;

use uniask_core::app::UniAsk;
use uniask_core::config::UniAskConfig;
use uniask_corpus::generator::CorpusGenerator;
use uniask_corpus::kb::KnowledgeBase;
use uniask_corpus::prev_engine::PrevEngine;
use uniask_corpus::questions::{Dataset, DatasetSplit, QuestionGenerator};
use uniask_corpus::scale::CorpusScale;
use uniask_corpus::vocab::Vocabulary;
use uniask_eval::runner::EvalQuery;

/// A fully prepared experimental environment.
pub struct Experiment {
    /// The knowledge base.
    pub kb: KnowledgeBase,
    /// Shared vocabulary.
    pub vocab: Arc<Vocabulary>,
    /// Human dataset split.
    pub human: DatasetSplit,
    /// Keyword dataset split.
    pub keyword: DatasetSplit,
    /// The ingested UniAsk system.
    pub uniask: UniAsk,
    /// The previous-generation baseline.
    pub prev: PrevEngine,
    /// Scale used.
    pub scale: CorpusScale,
    /// Seed used.
    pub seed: u64,
}

impl Experiment {
    /// Build the environment at `scale` with `seed`, using `config`
    /// (the embedding dimension is overridden from the scale).
    pub fn setup_with_config(scale: CorpusScale, seed: u64, mut config: UniAskConfig) -> Self {
        let kb = CorpusGenerator::new(scale, seed).generate();
        let vocab = Arc::new(Vocabulary::new());
        let qgen = QuestionGenerator::new(&kb, &vocab, seed ^ 0x0DD);
        let human = qgen
            .human_dataset(scale.human_questions)
            .split(seed ^ 0x5917);
        let keyword = qgen
            .keyword_dataset(scale.keyword_queries)
            .split(seed ^ 0x5917);
        config.embedding_dim = scale.embedding_dim;
        config.seed = seed;
        let mut uniask = UniAsk::new(config);
        uniask.ingest_parallel(&kb, 0);
        let prev = PrevEngine::build(&kb);
        Experiment {
            kb,
            vocab,
            human,
            keyword,
            uniask,
            prev,
            scale,
            seed,
        }
    }

    /// Default-config environment.
    pub fn setup(scale: CorpusScale, seed: u64) -> Self {
        Self::setup_with_config(scale, seed, UniAskConfig::default())
    }
}

/// Convert a query dataset into eval-runner queries.
pub fn eval_queries(dataset: &Dataset) -> Vec<EvalQuery> {
    dataset
        .queries
        .iter()
        .map(|q| EvalQuery {
            text: q.text.clone(),
            relevant: q.relevant.clone(),
        })
        .collect()
}

/// Parse the common CLI flags of the repro binaries:
/// `--full` (paper scale), `--tiny` (CI scale), `--seed N`.
pub fn parse_scale_args() -> (CorpusScale, u64) {
    let args: Vec<String> = std::env::args().collect();
    let mut scale = CorpusScale::small();
    if args.iter().any(|a| a == "--full") {
        scale = CorpusScale::paper();
    } else if args.iter().any(|a| a == "--tiny") {
        scale = CorpusScale::tiny();
    }
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);
    (scale, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_builds_everything() {
        let exp = Experiment::setup(CorpusScale::tiny(), 42);
        assert_eq!(exp.kb.documents.len(), CorpusScale::tiny().documents);
        assert!(!exp.human.test.queries.is_empty());
        assert!(!exp.keyword.test.queries.is_empty());
        assert!(exp.uniask.index().len() >= exp.kb.documents.len());
        assert_eq!(exp.prev.doc_count(), exp.kb.documents.len());
    }

    #[test]
    fn eval_queries_preserve_ground_truth() {
        let exp = Experiment::setup(CorpusScale::tiny(), 42);
        let qs = eval_queries(&exp.human.test);
        assert_eq!(qs.len(), exp.human.test.queries.len());
        assert!(qs.iter().all(|q| !q.relevant.is_empty()));
    }
}
