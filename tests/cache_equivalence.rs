//! Query-cache equivalence: the query-result cache must return results
//! byte-identical to uncached search, over a seeded query mix of 100+
//! human questions and keyword queries.

use uniask::core::app::UniAsk;
use uniask::core::config::UniAskConfig;
use uniask::corpus::generator::CorpusGenerator;
use uniask::corpus::questions::QuestionGenerator;
use uniask::corpus::scale::CorpusScale;
use uniask::corpus::vocab::Vocabulary;
use uniask::search::cache::CacheConfig;
use uniask::search::hybrid::HybridConfig;

fn build(query_cache: Option<CacheConfig>) -> UniAsk {
    let kb = CorpusGenerator::new(CorpusScale::tiny(), 42).generate();
    let mut app = UniAsk::new(UniAskConfig {
        embedding_dim: 64,
        query_cache,
        ..Default::default()
    });
    app.ingest(&kb);
    app
}

/// 70 natural-language questions + 40 keyword queries, seeded.
fn queries() -> Vec<String> {
    let kb = CorpusGenerator::new(CorpusScale::tiny(), 42).generate();
    let vocab = Vocabulary::new();
    let gen = QuestionGenerator::new(&kb, &vocab, 7);
    let mut queries: Vec<String> = gen
        .human_dataset(70)
        .queries
        .into_iter()
        .map(|q| q.text)
        .collect();
    queries.extend(gen.keyword_dataset(40).queries.into_iter().map(|q| q.text));
    assert!(queries.len() >= 100, "equivalence needs 100+ queries");
    queries
}

#[test]
fn cached_repeats_match_uncached_and_register_hits() {
    let cached = build(Some(CacheConfig {
        shards: 8,
        // Large enough that the 110-query sweep never evicts.
        capacity_per_shard: 256,
    }));
    let plain = build(None);
    let config = HybridConfig::default();
    let queries = queries();
    for q in &queries {
        // First pass populates, second pass must hit and agree.
        let first = cached.index().search(q, &config);
        let second = cached.index().search(q, &config);
        assert_eq!(first, second, "cache repeat diverged on {q:?}");
        assert_eq!(
            first,
            plain.index().search(q, &config),
            "cache on/off diverged on {q:?}"
        );
    }
    let stats = cached.index().cache_stats().expect("cache enabled");
    assert!(
        stats.hits >= queries.len() as u64,
        "every repeat should hit: {stats:?}"
    );
}

#[test]
fn document_ranking_unaffected_by_cache() {
    let cached = build(Some(CacheConfig::default()));
    let plain = build(None);
    let config = HybridConfig::default();
    for q in queries().into_iter().take(40) {
        let base: Vec<String> = plain
            .index()
            .search_documents(&q, &config)
            .into_iter()
            .map(|h| h.parent_doc)
            .collect();
        let with_cache: Vec<String> = cached
            .index()
            .search_documents(&q, &config)
            .into_iter()
            .map(|h| h.parent_doc)
            .collect();
        assert_eq!(base, with_cache, "document ranking diverged on {q:?}");
    }
}
