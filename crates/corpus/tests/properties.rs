//! Seeded-loop property tests of the corpus generator and datasets: the
//! ground-truth contract must hold for every seed, not just the ones
//! the experiments use.

#[path = "../../../tests/support/cases.rs"]
mod cases;

use cases::check;
use rand::Rng;
use uniask_corpus::generator::CorpusGenerator;
use uniask_corpus::prev_engine::PrevEngine;
use uniask_corpus::questions::QuestionGenerator;
use uniask_corpus::scale::CorpusScale;
use uniask_corpus::vocab::Vocabulary;

const CASES: u64 = 12;

fn small_scale() -> CorpusScale {
    CorpusScale {
        documents: 120,
        human_questions: 25,
        keyword_queries: 15,
        embedding_dim: 32,
    }
}

#[test]
fn corpus_invariants_hold_for_any_seed() {
    check(CASES, |rng| {
        let seed = rng.gen_range(0u64..10_000);
        let kb = CorpusGenerator::new(small_scale(), seed).generate();
        assert_eq!(kb.documents.len(), 120);
        // Unique ids, non-empty taxonomy, parseable HTML with a title.
        let mut ids = std::collections::HashSet::new();
        for d in &kb.documents {
            assert!(ids.insert(d.id.clone()), "duplicate id {}", d.id);
            assert!(!d.title.is_empty());
            assert!(!d.domain.is_empty() && !d.topic.is_empty() && !d.section.is_empty());
            let parsed = uniask_text::html::parse_html(&d.html);
            assert_eq!(&parsed.title, &d.title);
            assert!(!parsed.paragraphs.is_empty());
            assert!(d.fact_id > 0);
        }
    });
}

#[test]
fn ground_truth_always_resolves() {
    check(CASES, |rng| {
        let seed = rng.gen_range(0u64..10_000);
        let kb = CorpusGenerator::new(small_scale(), seed).generate();
        let vocab = Vocabulary::new();
        let qgen = QuestionGenerator::new(&kb, &vocab, seed ^ 0xF00D);
        for ds in [qgen.human_dataset(25), qgen.keyword_dataset(15)] {
            for q in &ds.queries {
                assert!(!q.relevant.is_empty(), "query {} lacks ground truth", q.id);
                for doc_id in &q.relevant {
                    assert!(
                        kb.get(doc_id).is_some(),
                        "ground-truth doc {doc_id} missing"
                    );
                }
                assert!(!q.text.trim().is_empty());
            }
        }
    });
}

#[test]
fn splits_partition_the_dataset() {
    check(CASES, |rng| {
        let seed = rng.gen_range(0u64..10_000);
        let kb = CorpusGenerator::new(small_scale(), seed).generate();
        let vocab = Vocabulary::new();
        let ds = QuestionGenerator::new(&kb, &vocab, seed).human_dataset(25);
        let split = ds.split(seed ^ 0x51);
        assert_eq!(
            split.validation.queries.len() + split.test.queries.len(),
            ds.queries.len()
        );
        let val_ids: std::collections::HashSet<&String> =
            split.validation.queries.iter().map(|q| &q.id).collect();
        for q in &split.test.queries {
            assert!(
                !val_ids.contains(&q.id),
                "query {} leaked across the split",
                q.id
            );
        }
    });
}

#[test]
fn prev_engine_keyword_coverage_beats_nl_coverage() {
    check(CASES, |rng| {
        let seed = rng.gen_range(0u64..5_000);
        let kb = CorpusGenerator::new(small_scale(), seed).generate();
        let vocab = Vocabulary::new();
        let engine = PrevEngine::build(&kb);
        let qgen = QuestionGenerator::new(&kb, &vocab, seed);
        let served = |queries: &[uniask_corpus::questions::QueryRecord]| {
            queries
                .iter()
                .filter(|q| !engine.search(&q.text, 50).is_empty())
                .count() as f64
                / queries.len().max(1) as f64
        };
        let nl = served(&qgen.human_dataset(25).queries);
        let kw = served(&qgen.keyword_dataset(15).queries);
        // The core Table 1 mechanism, for every seed: the old engine
        // serves keyword traffic far better than NL questions.
        assert!(kw >= nl, "keyword coverage {kw} below NL coverage {nl}");
        assert!(kw > 0.6, "keyword coverage collapsed: {kw}");
    });
}
