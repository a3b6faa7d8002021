//! Segment-equivalence suite: the segmented, epoch-pinned engine must
//! answer **byte-identically** to the single-structure [`OracleIndex`]
//! across seeded ingest/delete/merge interleavings, merge policies,
//! seal thresholds, retrieval configurations, and mid-merge queries —
//! top-k membership, order, score bits, and facet counts alike.
//!
//! The interleaving seed is extendable from the outside: the CI
//! `segments` job runs this suite under a seed × merge-policy matrix
//! via `UNIASK_TEST_SEED` / `SEG_EQUIV_POLICY`.
//!
//! The concurrency test at the bottom is the ThreadSanitizer target:
//! one writer ingests/deletes/commits while a background merger
//! compacts and reader threads query pinned snapshots.

#[path = "../../../tests/support/seeds.rs"]
mod seeds;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use uniask_search::hybrid::{ChunkRecord, HybridConfig, SearchHit};
use uniask_search::reranker::SemanticReranker;
use uniask_search::segmented::{
    spawn_merger, MergePolicy, OracleIndex, SegmentedConfig, SegmentedSearchIndex,
};
use uniask_vector::embedding::{Embedder, SyntheticEmbedder};

/// Deterministic xorshift64* stream — the suite must stay free of
/// external crates so it runs in minimal environments and under TSan.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

const TERMS: &[&str] = &[
    "bonifico",
    "iban",
    "mutuo",
    "tasso",
    "carta",
    "smarrita",
    "conto",
    "corrente",
    "prestito",
    "rata",
    "filiale",
    "sportello",
    "estratto",
    "saldo",
    "commissione",
];

const DOMAINS: &[&str] = &["retail", "imprese", "private"];
const TOPICS: &[&str] = &["pagamenti", "finanziamenti", "carte", "conti"];

fn make_doc(rng: &mut XorShift, serial: usize) -> Vec<ChunkRecord> {
    let parent = format!("kb/doc/{serial}");
    let title_term = TERMS[rng.below(TERMS.len())];
    let chunks = 1 + rng.below(3);
    (0..chunks)
        .map(|ordinal| {
            let a = TERMS[rng.below(TERMS.len())];
            let b = TERMS[rng.below(TERMS.len())];
            let c = TERMS[rng.below(TERMS.len())];
            ChunkRecord {
                parent_doc: parent.clone(),
                ordinal,
                title: format!("Scheda {title_term} {serial}"),
                content: format!("Il {a} con {b} richiede {c} (doc {serial} parte {ordinal})"),
                summary: format!("{a} {b}"),
                domain: DOMAINS[rng.below(DOMAINS.len())].to_string(),
                topic: TOPICS[rng.below(TOPICS.len())].to_string(),
                section: format!("sezione-{}", rng.below(4)),
                keywords: vec![a.to_string(), c.to_string()],
            }
        })
        .collect()
}

fn queries() -> Vec<String> {
    let mut qs: Vec<String> = TERMS.chunks(2).map(|pair| pair.join(" ")).collect();
    qs.push("bonifico mutuo carta conto".into());
    qs.push("termine inesistente xyzzy".into());
    qs
}

fn configs() -> Vec<HybridConfig> {
    vec![
        HybridConfig::default(),
        HybridConfig::text_only(),
        HybridConfig::vector_only(),
        HybridConfig {
            use_reranker: false,
            ..HybridConfig::default()
        },
    ]
}

fn assert_hits_bitwise(a: &[SearchHit], b: &[SearchHit], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: hit count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.chunk, y.chunk, "{context}: chunk id");
        assert_eq!(x.parent_doc, y.parent_doc, "{context}: parent");
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{context}: score bits for chunk {:?}",
            x.chunk
        );
    }
}

fn assert_engines_equal(seg: &SegmentedSearchIndex, oracle: &OracleIndex, context: &str) {
    for (ci, cfg) in configs().iter().enumerate() {
        for q in queries() {
            let got = seg.search(&q, cfg);
            let want = oracle.search(&q, cfg);
            assert_hits_bitwise(&got, &want, &format!("{context} cfg#{ci} query {q:?}"));
            for field in ["domain", "topic"] {
                let fg = seg.facets(&got, field).expect("segmented facets");
                let fw = oracle.facets(&want, field).expect("oracle facets");
                assert_eq!(
                    fg.counts, fw.counts,
                    "{context} facets on {field} for {q:?}"
                );
            }
        }
    }
}

/// Cheaper probe for intermediate publish points: default config only.
fn assert_engines_equal_quick(seg: &SegmentedSearchIndex, oracle: &OracleIndex, context: &str) {
    let cfg = HybridConfig::default();
    for q in queries().into_iter().take(4) {
        let got = seg.search(&q, &cfg);
        let want = oracle.search(&q, &cfg);
        assert_hits_bitwise(&got, &want, &format!("{context} query {q:?}"));
    }
}

fn policies() -> Vec<(MergePolicy, &'static str)> {
    let mut all = vec![
        (MergePolicy::Never, "never"),
        (MergePolicy::Aggressive, "aggressive"),
        (MergePolicy::Tiered { fanout: 2 }, "tiered2"),
        (MergePolicy::Tiered { fanout: 4 }, "tiered4"),
    ];
    // CI matrix hook: restrict to one policy when requested.
    if let Ok(only) = std::env::var("SEG_EQUIV_POLICY") {
        all.retain(|(_, name)| *name == only);
        assert!(!all.is_empty(), "unknown SEG_EQUIV_POLICY {only:?}");
    }
    all
}

/// Drive one seeded interleaving of upserts, deletes, commits and
/// explicit merges through both engines, checking equivalence at every
/// publish point.
fn run_interleaving(seed: u64, policy: MergePolicy, seal_threshold: usize) {
    let context = format!("seed={seed} policy={policy:?} seal={seal_threshold}");
    let embedder = Arc::new(SyntheticEmbedder::new(48, 7));
    let seg = SegmentedSearchIndex::new(
        Arc::clone(&embedder) as Arc<dyn Embedder>,
        SemanticReranker::default(),
        SegmentedConfig {
            seal_threshold,
            merge_policy: policy,
        },
    );
    let mut oracle = OracleIndex::new(embedder, SemanticReranker::default());

    let mut rng = XorShift::new(seed);
    let mut live_parents: Vec<String> = Vec::new();
    let mut serial = 0usize;
    for step in 0..60 {
        match rng.below(10) {
            // Deletes are rarer than ingest, as in the production KB.
            0 | 1 if !live_parents.is_empty() => {
                let victim = live_parents.swap_remove(rng.below(live_parents.len()));
                let a = seg.remove_document(&victim);
                let b = oracle.remove_document(&victim);
                assert_eq!(a, b, "{context}: removed chunk count for {victim}");
            }
            2 => {
                seg.commit();
                assert_engines_equal_quick(&seg, &oracle, &format!("{context} step {step} commit"));
            }
            3 => {
                // Merging never changes committed answers. (Commit
                // first: the oracle has no notion of an unpublished
                // buffer, so only published state is comparable.)
                seg.commit();
                seg.merge_once();
                assert_engines_equal_quick(&seg, &oracle, &format!("{context} step {step} merge"));
            }
            _ => {
                let records = make_doc(&mut rng, serial);
                serial += 1;
                live_parents.push(records[0].parent_doc.clone());
                for r in &records {
                    seg.add_chunk(r);
                    oracle.add_chunk(r);
                }
            }
        }
    }
    seg.commit();
    assert_engines_equal(&seg, &oracle, &format!("{context} final"));
    let merges = seg.merge_to_quiescence();
    assert_engines_equal(
        &seg,
        &oracle,
        &format!("{context} quiescent ({merges} merges)"),
    );
}

#[test]
fn seeded_interleavings_match_oracle_bitwise() {
    for seed in seeds::seeds(&[11, 29, 47]) {
        for (policy, _) in policies() {
            for seal in [3, 8] {
                run_interleaving(seed, policy, seal);
            }
        }
    }
}

#[test]
fn queries_between_merge_steps_never_waver() {
    // Many tiny segments with tombstones, merged down one step at a
    // time; the published answer must be frozen across every step.
    let embedder = Arc::new(SyntheticEmbedder::new(48, 7));
    let seg = SegmentedSearchIndex::new(
        Arc::clone(&embedder) as Arc<dyn Embedder>,
        SemanticReranker::default(),
        SegmentedConfig {
            seal_threshold: 2,
            merge_policy: MergePolicy::Aggressive,
        },
    );
    let mut oracle = OracleIndex::new(embedder, SemanticReranker::default());
    let mut rng = XorShift::new(0xFEED);
    for serial in 0..24 {
        for r in make_doc(&mut rng, serial) {
            seg.add_chunk(&r);
            oracle.add_chunk(&r);
        }
        if serial % 5 == 0 && serial > 0 {
            let victim = format!("kb/doc/{}", serial - 1);
            assert_eq!(
                seg.remove_document(&victim),
                oracle.remove_document(&victim)
            );
        }
    }
    seg.commit();
    let cfg = HybridConfig::default();
    let frozen: Vec<Vec<SearchHit>> = queries().iter().map(|q| seg.search(q, &cfg)).collect();
    let mut steps = 0;
    while seg.merge_once() {
        steps += 1;
        for (q, want) in queries().iter().zip(&frozen) {
            let got = seg.search(q, &cfg);
            assert_hits_bitwise(&got, want, &format!("merge step {steps} query {q:?}"));
        }
        assert!(steps < 100, "merge must reach quiescence");
    }
    assert!(steps >= 1, "the aggressive policy must have merged");
    assert_engines_equal(&seg, &oracle, "after quiescence");
}

/// The ThreadSanitizer target: concurrent ingest + background merge +
/// epoch-pinned readers. Readers must never observe torn state — every
/// result set is internally ordered, scores are finite, and parents
/// come from the set of documents ever ingested. Afterwards the final
/// state must still match an oracle replay of the writer's op log.
#[test]
fn concurrent_ingest_merge_and_reads_are_race_free() {
    let embedder = Arc::new(SyntheticEmbedder::new(32, 5));
    let seg = Arc::new(SegmentedSearchIndex::new(
        Arc::clone(&embedder) as Arc<dyn Embedder>,
        SemanticReranker::default(),
        SegmentedConfig {
            seal_threshold: 3,
            merge_policy: MergePolicy::Tiered { fanout: 2 },
        },
    ));
    let merger = spawn_merger(&seg, Duration::from_millis(1));
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..3)
        .map(|r| {
            let seg = Arc::clone(&seg);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let cfg = HybridConfig::default();
                let qs = queries();
                let mut observed = 0usize;
                let mut last_epoch = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let epoch = seg.epoch();
                    assert!(epoch >= last_epoch, "epochs must be monotone");
                    last_epoch = epoch;
                    let hits = seg.search(&qs[(r + observed) % qs.len()], &cfg);
                    for pair in hits.windows(2) {
                        assert!(
                            pair[0].score >= pair[1].score,
                            "reader {r}: results must stay ordered"
                        );
                    }
                    for h in &hits {
                        assert!(h.score.is_finite(), "reader {r}: torn score");
                        assert!(h.parent_doc.starts_with("kb/doc/"), "reader {r}: torn hit");
                    }
                    observed += 1;
                }
                observed
            })
        })
        .collect();

    // Writer: seeded op log, replayed into the oracle afterwards.
    let mut rng = XorShift::new(0xC0FFEE);
    let mut oracle = OracleIndex::new(embedder, SemanticReranker::default());
    let mut live_parents: Vec<String> = Vec::new();
    for serial in 0..40 {
        if rng.below(6) == 0 && !live_parents.is_empty() {
            let victim = live_parents.swap_remove(rng.below(live_parents.len()));
            seg.remove_document(&victim);
            oracle.remove_document(&victim);
        }
        let records = make_doc(&mut rng, serial);
        live_parents.push(records[0].parent_doc.clone());
        for r in &records {
            seg.add_chunk(r);
            oracle.add_chunk(r);
        }
        if serial % 4 == 0 {
            seg.commit();
        }
    }
    seg.commit();

    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        let observed = reader.join().expect("reader must not panic");
        assert!(observed > 0, "readers must have made progress");
    }
    merger.stop();
    seg.merge_to_quiescence();
    assert_engines_equal(&seg, &oracle, "post-concurrency state");
}
