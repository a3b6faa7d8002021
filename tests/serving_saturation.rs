//! Serving saturation end-to-end: drive the admission-controlled
//! front-end through an overload ramp on the simulated clock and
//! assert the load-shedding contract.
//!
//! * The run completes without panicking, and every admitted request
//!   is accounted for: full-quality, shed (degraded but answered), or
//!   expired — nothing vanishes.
//! * Under overload the system sheds — and sheds *bulk first* (the
//!   overload rung never touches interactive traffic).
//! * Interactive p99 stays bounded: deadlines turn queue explosions
//!   into early sheds instead of unbounded waits.
//! * Shed answers are BM25-only, flagged degraded, and bypass the
//!   query cache in both directions (PR 3 discipline).
//! * The same seed reproduces identical admission/shed counts.
//!
//! The default run uses the committed seed; CI fans out further via
//! the `UNIASK_TEST_SEED` environment variable.

#[path = "support/seeds.rs"]
mod seeds;

use std::sync::Arc;

use uniask::core::serving::{
    Priority, SearchIndexEngine, ServingConfig, ServingEngine, ServingFrontend, ServingLoadTest,
    ServingLoadTestConfig,
};
use uniask::search::cache::CacheConfig;
use uniask::search::hybrid::{ChunkRecord, HybridConfig, SearchIndex};
use uniask::search::reranker::SemanticReranker;
use uniask::vector::embedding::SyntheticEmbedder;

/// The seeds every run replays; `UNIASK_TEST_SEED=<n>` appends one more.
fn serving_seeds() -> Vec<u64> {
    seeds::seeds(&[ServingLoadTestConfig::default().seed])
}

fn smoke(seed: u64) -> ServingLoadTestConfig {
    ServingLoadTestConfig {
        seed,
        ..ServingLoadTestConfig::saturation_smoke()
    }
}

#[test]
fn overload_ramp_sheds_bulk_first_and_bounds_interactive_latency() {
    for seed in serving_seeds() {
        let report = ServingLoadTest::new(smoke(seed)).run();
        let c = &report.counters;
        println!(
            "seed {seed}: {} arrivals, {} admitted, {} rejected, {} expired, {} shed \
             (overload {}, deadline {}, llm {}), interactive p99 {:.2}s",
            report.total_arrivals,
            c.admitted(),
            c.rejected(),
            c.expired(),
            c.shed(),
            c.shed_overload,
            c.shed_deadline,
            c.shed_llm,
            report.interactive.p99_latency_secs,
        );

        // Conservation: every admitted request is answered or expired.
        assert_eq!(
            c.completed_interactive + c.completed_bulk + c.shed() + c.expired(),
            c.admitted(),
            "seed {seed}: requests must not vanish"
        );
        assert_eq!(
            report.total_arrivals as u64,
            c.admitted() + c.rejected(),
            "seed {seed}: every arrival is admitted or explicitly rejected"
        );

        // The ramp is hot enough to exercise the whole ladder.
        assert!(c.shed() > 0, "seed {seed}: the overload ramp must shed");
        assert!(
            c.shed_overload > 0,
            "seed {seed}: queue depth must cross shed_depth"
        );
        assert!(
            c.rejected() > 0,
            "seed {seed}: bounded queues must reject at saturation"
        );

        // Bulk sheds first: the overload rung is bulk-only by contract.
        assert!(
            c.shed_bulk >= c.shed_overload,
            "seed {seed}: overload sheds land on bulk"
        );
        assert!(
            c.shed_bulk > 0,
            "seed {seed}: bulk must shed under overload"
        );

        // Interactive latency stays bounded: the 8 s deadline plus one
        // batch of compute plus the LLM leg, with slack.
        assert!(
            report.interactive.p99_latency_secs < 15.0,
            "seed {seed}: interactive p99 {} must stay bounded",
            report.interactive.p99_latency_secs
        );
        assert!(
            report.interactive.max_latency_secs < 20.0,
            "seed {seed}: interactive max {} must stay bounded",
            report.interactive.max_latency_secs
        );
    }
}

#[test]
fn same_seed_reproduces_identical_admission_and_shed_counts() {
    for seed in serving_seeds() {
        let a = ServingLoadTest::new(smoke(seed)).run();
        let b = ServingLoadTest::new(smoke(seed)).run();
        assert_eq!(a.counters, b.counters, "seed {seed}: counters must replay");
        assert_eq!(a.total_arrivals, b.total_arrivals);
        assert_eq!(a.interactive, b.interactive, "seed {seed}");
        assert_eq!(a.bulk, b.bulk, "seed {seed}");
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

fn search_index() -> SearchIndex {
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
fn shed_answers_are_degraded_bm25_only_and_bypass_the_cache() {
    let mut idx = search_index();
    idx.enable_cache(CacheConfig::default());
    let engine = SearchIndexEngine::new(&idx, HybridConfig::default());
    let query = "bonifico estero bic";

    // The shed path answers without touching the query cache at all.
    let before = idx.cache_stats().expect("cache enabled");
    let shed = engine.serve_shed(query);
    let after = idx.cache_stats().expect("cache enabled");
    assert_eq!(before, after, "shed must not read or write the cache");
    assert!(shed.degradation.is_degraded(), "shed answers carry flags");
    assert!(
        shed.degradation.vector_leg,
        "no vector leg on the shed path"
    );
    assert!(
        shed.degradation.llm_fallback,
        "no generation on the shed path"
    );
    assert!(!shed.hits.is_empty(), "shed still answers");

    // The hits are exactly the BM25-only ranking.
    let bm25 = HybridConfig {
        use_vector: false,
        use_reranker: false,
        ..HybridConfig::default()
    };
    assert_eq!(shed.hits, idx.search_with_vector(query, None, &bm25));

    // Full service through the same engine does use the cache — and a
    // degraded answer was never stored under the healthy key.
    let full = engine.serve_batch(&[query.to_string()]);
    assert!(!full[0].degradation.is_degraded());
    assert_ne!(full[0].hits, shed.hits, "degraded ranking differs");
    let stats = idx.cache_stats().expect("cache enabled");
    assert_eq!(stats.misses, 1, "full service computed and cached");
    let again = engine.serve_batch(&[query.to_string()]);
    assert_eq!(again[0].hits, full[0].hits);
    let stats = idx.cache_stats().expect("cache enabled");
    assert_eq!(stats.hits, 1, "repeat served from cache, not recomputed");
}

#[test]
fn frontend_drives_the_real_search_index() {
    let idx = search_index();
    let engine = SearchIndexEngine::new(&idx, HybridConfig::default());
    let mut front = ServingFrontend::new(ServingConfig::default(), &engine);
    front
        .submit("carta smarrita blocco", Priority::Interactive, 0.0)
        .unwrap();
    front
        .submit("mutuo prima casa tasso", Priority::Bulk, 0.0)
        .unwrap();
    let at = front.next_dispatch_at(0.0).expect("work queued");
    let outcome = front.dispatch(at);
    assert_eq!(outcome.completed.len(), 2);
    for done in &outcome.completed {
        assert!(done.shed.is_none(), "a quiet server serves full quality");
        assert!(
            !done.answer.hits.is_empty(),
            "real hits from the real index"
        );
        assert!(!done.answer.degradation.is_degraded());
    }
}
