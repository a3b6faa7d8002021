//! Seeded-loop property tests of the inverted index and BM25.

#[path = "../../../tests/support/cases.rs"]
mod cases;

use std::sync::Arc;

use cases::{check, string_of, vec_of, LOWER};
use rand::seq::SliceRandom;
use rand::Rng;
use uniask_index::bm25::{idf, term_score, Bm25Params};
use uniask_index::codec::{decode, encode};
use uniask_index::doc::IndexDocument;
use uniask_index::filter::Filter;
use uniask_index::inverted::InvertedIndex;
use uniask_index::schema::Schema;
use uniask_index::searcher::{ScoringProfile, Searcher};
use uniask_text::analyzer::ItalianAnalyzer;

/// 1–39 random lowercase words of 3–10 letters.
fn words(rng: &mut impl Rng) -> String {
    vec_of(rng, 1..40, |rng| string_of(rng, LOWER, 3..=10)).join(" ")
}

/// 1–`max_words` words from a small closed vocabulary, so query terms
/// actually collide with document terms (fully random words would
/// almost never match).
fn vocab_text(rng: &mut impl Rng, max_words: usize) -> String {
    const VOCAB: [&str; 12] = [
        "bonifico", "carta", "mutuo", "conto", "prestito", "estero", "limite", "sepa", "prelievo",
        "ricarica", "tasso", "rata",
    ];
    vec_of(rng, 1..max_words + 1, |rng| {
        *VOCAB.choose(rng).expect("non-empty")
    })
    .join(" ")
}

fn content_index(texts: &[String]) -> (InvertedIndex, Vec<uniask_index::doc::DocId>) {
    let mut index = InvertedIndex::new(Schema::uniask_chunk_schema());
    let ids = texts
        .iter()
        .map(|t| {
            index
                .add(&IndexDocument::new().with_text("content", t.clone()))
                .expect("valid schema")
        })
        .collect();
    (index, ids)
}

#[test]
fn idf_is_positive_and_antitone() {
    check(48, |rng| {
        let n = rng.gen_range(1usize..100_000);
        let (df_a, df_b) = (rng.gen_range(1usize..1000), rng.gen_range(1usize..1000));
        if df_a > n || df_b > n {
            return;
        }
        let (lo, hi) = if df_a <= df_b {
            (df_a, df_b)
        } else {
            (df_b, df_a)
        };
        assert!(idf(n, lo) >= idf(n, hi), "idf must not increase with df");
        assert!(idf(n, hi) > 0.0, "Lucene idf is strictly positive");
    });
}

#[test]
fn term_score_is_bounded_by_saturation() {
    check(48, |rng| {
        let tf = rng.gen_range(0.0f64..1000.0);
        let doc_len = rng.gen_range(0.0f64..10_000.0);
        let avg = rng.gen_range(0.1f64..1000.0);
        let params = Bm25Params::default();
        let i = 2.0;
        let s = term_score(params, i, tf, doc_len, avg);
        assert!(s >= 0.0);
        assert!(
            s <= i * (params.k1 + 1.0) + 1e-9,
            "score above the saturation asymptote"
        );
    });
}

#[test]
fn term_score_is_monotone_in_tf() {
    check(48, |rng| {
        let tf = rng.gen_range(0.5f64..100.0);
        let delta = rng.gen_range(0.1f64..10.0);
        let doc_len = rng.gen_range(1.0f64..500.0);
        let params = Bm25Params::default();
        let lo = term_score(params, 1.5, tf, doc_len, 100.0);
        let hi = term_score(params, 1.5, tf + delta, doc_len, 100.0);
        assert!(hi >= lo, "tf {tf} delta {delta} doc_len {doc_len}");
    });
}

#[test]
fn every_document_is_findable_by_its_own_content() {
    check(48, |rng| {
        let texts = vec_of(rng, 1..20, words);
        let (index, ids) = content_index(&texts);
        let searcher = Searcher::new();
        for (i, t) in texts.iter().enumerate() {
            let hits = searcher
                .search(&index, t, texts.len(), &ScoringProfile::neutral(), None)
                .expect("search ok");
            // Querying a document's full text must return it (terms all
            // survive analysis because they are ≥3 alphabetic chars —
            // unless every word is an Italian stop word, which the
            // 3-10 char [a-z] generator makes vanishingly unlikely but
            // possible, so we check containment only when hits exist).
            if !hits.is_empty() {
                assert!(
                    hits.iter().any(|h| h.doc == ids[i]),
                    "document {i} not found by its own text"
                );
            }
        }
    });
}

#[test]
fn scores_are_sorted_and_results_deterministic() {
    check(48, |rng| {
        let (texts, query) = (vec_of(rng, 1..15, words), words(rng));
        let (index, _) = content_index(&texts);
        let searcher = Searcher::new();
        let run = || {
            searcher
                .search(&index, &query, 50, &ScoringProfile::neutral(), None)
                .expect("ok")
        };
        let (a, b) = (run(), run());
        assert_eq!(&a, &b, "search must be deterministic");
        for w in a.windows(2) {
            assert!(w[0].score >= w[1].score, "results must be score-sorted");
        }
        for h in &a {
            assert!(h.score > 0.0, "zero-score hits must be dropped");
        }
    });
}

#[test]
fn deleting_a_document_removes_it_from_all_results() {
    check(48, |rng| {
        let texts = vec_of(rng, 2..12, words);
        let (mut index, ids) = content_index(&texts);
        let victim = ids[0];
        index.delete(victim).expect("delete ok");
        let searcher = Searcher::new();
        for t in &texts {
            let hits = searcher
                .search(&index, t, 50, &ScoringProfile::neutral(), None)
                .expect("ok");
            assert!(
                hits.iter().all(|h| h.doc != victim),
                "tombstoned doc resurfaced"
            );
        }
    });
}

#[test]
fn title_boost_never_changes_the_result_set_only_the_order() {
    check(48, |rng| {
        let (texts, query) = (vec_of(rng, 1..10, words), words(rng));
        let boost = rng.gen_range(1.0f64..100.0);
        let mut index = InvertedIndex::new(Schema::uniask_chunk_schema());
        for (i, t) in texts.iter().enumerate() {
            index
                .add(
                    &IndexDocument::new()
                        .with_text("title", format!("titolo {i}"))
                        .with_text("content", t.clone()),
                )
                .expect("ok");
        }
        let matches = |profile: ScoringProfile| {
            let hits = Searcher::new().search(&index, &query, 50, &profile, None);
            let mut docs: Vec<u32> = hits.expect("ok").iter().map(|h| h.doc.0).collect();
            docs.sort_unstable();
            docs
        };
        assert_eq!(
            matches(ScoringProfile::neutral()),
            matches(ScoringProfile::title_boost(boost)),
            "boosting reweights, it must not add/remove matches"
        );
    });
}

/// The pruned top-k engine is byte-identical to exhaustive evaluation —
/// same hits, same scores, same order — across random corpora,
/// deletions, filters, boosts and k.
#[test]
fn pruned_topk_matches_exhaustive() {
    check(64, |rng| {
        let docs = vec_of(rng, 1..25, |rng| {
            (
                vocab_text(rng, 3),
                vocab_text(rng, 14),
                rng.gen_range(0usize..3),
            )
        });
        let delete_mask: Vec<bool> = (0..25).map(|_| rng.gen()).collect();
        let query = vocab_text(rng, 4);
        let boost = *[1.0f64, 5.0, 50.0].choose(rng).expect("non-empty");
        let filter_domain = rng.gen::<bool>().then(|| rng.gen_range(0usize..3));
        let k = rng.gen_range(1usize..30);

        let domains = ["Pagamenti", "Carte", "Crediti"];
        let mut index = InvertedIndex::new(Schema::uniask_chunk_schema());
        let mut ids = Vec::new();
        for (title, content, dom) in &docs {
            ids.push(
                index
                    .add(
                        &IndexDocument::new()
                            .with_text("title", title.clone())
                            .with_text("content", content.clone())
                            .with_tags("domain", vec![domains[*dom].to_string()]),
                    )
                    .expect("valid schema"),
            );
        }
        for (id, &kill) in ids.iter().zip(&delete_mask) {
            if kill {
                index.delete(*id).expect("delete ok");
            }
        }
        let profile = ScoringProfile::title_boost(boost);
        let filter = filter_domain.map(|d| Filter::eq("domain", domains[d]));
        let searcher = Searcher::new();
        let pruned = searcher
            .search(&index, &query, k, &profile, filter.as_ref())
            .expect("pruned search ok");
        let exhaustive = searcher
            .search_exhaustive(&index, &query, k, &profile, filter.as_ref())
            .expect("exhaustive search ok");
        // PartialEq on ScoredDoc compares f64 scores exactly: this is a
        // bit-for-bit assertion, not an epsilon comparison.
        assert_eq!(pruned, exhaustive);
    });
}

/// Snapshot-roundtripping an index must not perturb the pruned
/// engine: cached statistics survive the codec bit-for-bit.
#[test]
fn pruned_topk_survives_codec_roundtrip() {
    check(64, |rng| {
        let docs = vec_of(rng, 1..12, |rng| vocab_text(rng, 10));
        let (query, k) = (vocab_text(rng, 3), rng.gen_range(1usize..15));
        let (index, _) = content_index(&docs);
        let restored =
            decode(&encode(&index), Arc::new(ItalianAnalyzer::new())).expect("roundtrip");
        let searcher = Searcher::new();
        let a = searcher
            .search(&index, &query, k, &ScoringProfile::neutral(), None)
            .expect("ok");
        let b = searcher
            .search(&restored, &query, k, &ScoringProfile::neutral(), None)
            .expect("ok");
        assert_eq!(a, b);
    });
}

#[test]
fn codec_decode_never_panics_on_arbitrary_bytes() {
    check(128, |rng| {
        let data = vec_of(rng, 0..512, |rng| rng.gen::<u8>());
        // Arbitrary bytes must yield a typed error, never a panic or
        // a bogus "successful" index (the checksum makes accidental
        // success astronomically unlikely).
        let _ = decode(&data, Arc::new(ItalianAnalyzer::new()));
    });
}

#[test]
fn codec_truncations_of_valid_snapshots_fail_cleanly() {
    check(128, |rng| {
        let cut = rng.gen_range(0usize..100);
        let (idx, _) = content_index(&["alcune parole da indicizzare".to_string()]);
        let snapshot = encode(&idx);
        let len = snapshot.len();
        let keep = len.saturating_sub(cut % len.max(1) + 1);
        assert!(
            decode(&snapshot[..keep], Arc::new(ItalianAnalyzer::new())).is_err(),
            "cut {cut}"
        );
    });
}
