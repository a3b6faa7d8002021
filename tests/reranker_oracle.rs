//! The reranker's serving path against its string oracle.
//!
//! `SemanticReranker::score` re-analyses the query and the chunk on
//! every call. The index instead scores from per-chunk concept ids
//! memoised on first use and a query analysed once per search
//! (`chunk_concepts`, `prepare_query`, `score_prepared`). Every score
//! must be the oracle's `f64`, bit for bit, so the retrieval metrics
//! cannot move.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use uniask::core::app::UniAsk;
use uniask::core::config::UniAskConfig;
use uniask::corpus::generator::CorpusGenerator;
use uniask::corpus::questions::QuestionGenerator;
use uniask::corpus::scale::CorpusScale;
use uniask::corpus::vocab::{SynonymNormalizer, Vocabulary};
use uniask::search::hybrid::{HybridConfig, SearchHit};
use uniask::search::SemanticReranker;
use uniask::text::concepts::{IdentityNormalizer, TermNormalizer};

struct Env {
    app: UniAsk,
    /// Human questions, then keyword queries.
    questions: Vec<String>,
}

fn env() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(|| {
        let scale = CorpusScale::tiny();
        let kb = CorpusGenerator::new(scale, 42).generate();
        let vocab = Vocabulary::new();
        let qgen = QuestionGenerator::new(&kb, &vocab, 42);
        let questions = qgen
            .human_dataset(scale.human_questions)
            .queries
            .into_iter()
            .chain(qgen.keyword_dataset(scale.keyword_queries).queries)
            .map(|q| q.text)
            .collect();
        let mut app = UniAsk::new(UniAskConfig {
            embedding_dim: 64,
            ..UniAskConfig::default()
        });
        app.ingest(&kb);
        Env { app, questions }
    })
}

/// The normalizer `UniAsk` wires into its reranker.
fn corpus_normalizer() -> Arc<dyn TermNormalizer> {
    Arc::new(SynonymNormalizer::new(Arc::new(Vocabulary::new())))
}

fn unreranked() -> HybridConfig {
    HybridConfig {
        use_reranker: false,
        ..HybridConfig::default()
    }
}

/// Score `query` against every chunk the way the index does (chunks
/// first, then the query) and check each against the string `oracle`,
/// which must share `prepared`'s normalizer. Returns the number of
/// pairs checked.
fn check(
    prepared: &SemanticReranker,
    oracle: &SemanticReranker,
    query: &str,
    chunks: &[(String, String)],
) -> usize {
    let concepts: Vec<_> = chunks
        .iter()
        .map(|(title, content)| prepared.chunk_concepts(title, content))
        .collect();
    let q = prepared.prepare_query(query);
    for ((title, content), c) in chunks.iter().zip(&concepts) {
        let want = oracle.score(query, title, content);
        let got = prepared.score_prepared(&q, c);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "`{query}` on `{title}`: {got} vs {want}"
        );
    }
    chunks.len()
}

fn title_and_content(hits: &[SearchHit]) -> Vec<(String, String)> {
    hits.iter()
        .map(|h| (h.title.clone(), h.content.clone()))
        .collect()
}

#[test]
fn prepared_scores_match_the_oracle_on_every_fused_candidate() {
    let e = env();
    let prepared = SemanticReranker::new(corpus_normalizer());
    let oracle = SemanticReranker::new(corpus_normalizer());
    let mut pairs = 0;
    for question in &e.questions {
        let candidates = e.app.index().search(question, &unreranked());
        pairs += check(
            &prepared,
            &oracle,
            question,
            &title_and_content(&candidates),
        );
    }
    assert!(pairs >= 1000, "only {pairs} (question, candidate) pairs");
}

#[test]
fn served_scores_are_rrf_plus_the_weighted_oracle() {
    let e = env();
    let oracle = SemanticReranker::new(corpus_normalizer());
    let mut fractional = 0;
    for question in &e.questions {
        let rrf: HashMap<_, f64> = e
            .app
            .index()
            .search(question, &unreranked())
            .into_iter()
            .map(|h| (h.chunk, h.score))
            .collect();
        let served = e.app.index().search(question, &HybridConfig::default());
        assert_eq!(served.len(), rrf.len());
        for hit in &served {
            let semantic = oracle.score(question, &hit.title, &hit.content);
            fractional += usize::from(semantic > 0.0 && semantic < 1.0);
            let want = rrf[&hit.chunk] + oracle.weight * semantic;
            assert_eq!(hit.score.to_bits(), want.to_bits(), "`{question}`");
        }
    }
    assert!(fractional > 100, "the mix must exercise partial coverage");
}

#[test]
fn edge_cases_match_the_oracle() {
    let e = env();
    let mut chunks = title_and_content(
        &e.app
            .index()
            .search("Come si esegue un bonifico estero?", &unreranked()),
    );
    chunks.extend(
        [
            ("Bonifico estero", "come eseguire il bonifico estero"),
            ("Limite carta", "il limite della carta è fissato"),
            ("", ""),
            ("il la di", "per con su"),
        ]
        .map(|(t, c)| (t.to_string(), c.to_string())),
    );
    let queries = [
        "",
        "il la di per con",
        "bonifico bonifico estero bonifico",
        "massimale carta carta",
        "xilofono bonifico",
        "xilofono",
    ];
    for normalizer in [corpus_normalizer(), Arc::new(IdentityNormalizer) as _] {
        let prepared = SemanticReranker::new(Arc::clone(&normalizer));
        let oracle = SemanticReranker::new(normalizer);
        for query in queries {
            check(&prepared, &oracle, query, &chunks);
        }
        // Nothing above interned "xilofon": the query keeps it in the
        // denominator without matching, and lookups did not add it.
        let q = prepared.prepare_query("xilofono bonifico");
        let c = prepared.chunk_concepts("Bonifico", "bonifico");
        assert_eq!(prepared.score_prepared(&q, &c), 0.5);
    }
}
