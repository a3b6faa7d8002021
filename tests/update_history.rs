//! Update history must not cost answer quality.
//!
//! A knowledge base re-saves pages daily; each re-save is an upsert
//! that tombstones the page's chunks and indexes them again. The dead
//! copies sit at distance ≈ 0 from the live ones, so while they stay
//! in the vector graphs they crowd the vector legs' beams and MRR
//! decays round after round. The index rebuilds its graphs once more
//! than a fifth of their nodes are dead; this suite pins that rounds
//! of unchanged re-upserts leave retrieval quality where it started.

use uniask::core::app::UniAsk;
use uniask::core::config::UniAskConfig;
use uniask::core::ingestion::IngestMessage;
use uniask::corpus::generator::CorpusGenerator;
use uniask::corpus::questions::QuestionGenerator;
use uniask::corpus::scale::CorpusScale;
use uniask::corpus::vocab::Vocabulary;
use uniask::eval::runner::{EvalQuery, EvalRunner};
use uniask::search::hybrid::HybridConfig;

const ROUNDS: usize = 6;

fn mrr(app: &UniAsk, queries: &[EvalQuery], config: &HybridConfig) -> f64 {
    EvalRunner::new()
        .run(queries, |q| {
            app.index()
                .search_documents(q, config)
                .into_iter()
                .map(|h| h.parent_doc)
                .collect()
        })
        .metrics
        .mrr
}

#[test]
fn unchanged_re_upserts_keep_mrr_within_a_hundredth_of_round_zero() {
    let scale = CorpusScale::tiny();
    let kb = CorpusGenerator::new(scale, 42).generate();
    let vocab = Vocabulary::new();
    let queries: Vec<EvalQuery> = QuestionGenerator::new(&kb, &vocab, 42)
        .human_dataset(scale.human_questions)
        .queries
        .into_iter()
        .map(|q| EvalQuery {
            text: q.text,
            relevant: q.relevant,
        })
        .collect();
    let mut app = UniAsk::new(UniAskConfig {
        embedding_dim: 64,
        ..UniAskConfig::default()
    });
    app.ingest(&kb);
    let configs = [HybridConfig::default(), HybridConfig::vector_only()];
    let round0: Vec<f64> = configs.iter().map(|c| mrr(&app, &queries, c)).collect();
    let chunks = app.index().stats().live_chunks;
    for round in 1..=ROUNDS {
        for doc in &kb.documents {
            app.apply_update(IngestMessage::Upsert(doc.clone()));
        }
        let stats = app.index().stats();
        assert_eq!(stats.live_chunks, chunks);
        assert_eq!(stats.tombstones, round * chunks, "every page re-indexed");
        assert!(
            stats.content_vectors * 4 <= chunks * 5,
            "round {round}: {} content nodes for {chunks} live chunks",
            stats.content_vectors
        );
        for (config, &base) in configs.iter().zip(&round0) {
            let now = mrr(&app, &queries, config);
            assert!(
                (now - base).abs() <= 0.01,
                "round {round}, use_text={}: mrr {now:.4} vs {base:.4} at round 0",
                config.use_text
            );
        }
    }
}
