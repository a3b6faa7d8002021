//! Seeded-loop property tests of the text substrate.

#[path = "../../../tests/support/cases.rs"]
mod cases;

use cases::{check, string_of, vec_of, DIGITS, LOWER};
use rand::Rng;
use uniask_text::analyzer::{Analyzer, ItalianAnalyzer, KeywordAnalyzer};
use uniask_text::html::parse_html;
use uniask_text::rouge::{lcs_length, rouge_l, rouge_l_tokens};
use uniask_text::splitter::{RecursiveCharacterTextSplitter, TextSplitter};
use uniask_text::stemmer::italian_stem;
use uniask_text::tokenizer::{split_sentences, tokenize};
use uniask_text::tokens::approx_token_count;

const CASES: u64 = 64;

/// Lowercase Italian letters, accented vowels included.
fn italian_letters() -> String {
    format!("{LOWER}àèìòù")
}

/// Arbitrary Italian-ish text: up to 59 space-joined parts, each a word
/// over a small accented alphabet, a number or a punctuation mark.
fn italian_text(rng: &mut impl Rng) -> String {
    let letters = italian_letters();
    vec_of(rng, 0..60, |rng| match rng.gen_range(0..3) {
        0 => string_of(rng, &letters, 1..=12),
        1 => string_of(rng, DIGITS, 1..=5),
        _ => string_of(rng, ".,;!?", 1..=1),
    })
    .join(" ")
}

#[test]
fn tokenizer_offsets_are_consistent() {
    check(CASES, |rng| {
        let text = italian_text(rng);
        for tok in tokenize(&text) {
            assert_eq!(&text[tok.start..tok.end], tok.text);
            assert!(tok.start < tok.end);
            assert!(tok.text.chars().all(char::is_alphanumeric));
        }
    });
}

#[test]
fn tokens_never_overlap_and_are_ordered() {
    check(CASES, |rng| {
        let text = italian_text(rng);
        let mut last_end = 0usize;
        for tok in tokenize(&text) {
            assert!(tok.start >= last_end, "text {text:?}");
            last_end = tok.end;
        }
    });
}

#[test]
fn stemming_never_grows_words() {
    check(CASES, |rng| {
        let word = string_of(rng, &italian_letters(), 1..=20);
        let stem = italian_stem(&word);
        assert!(
            stem.chars().count() <= word.chars().count() + 1,
            "stem `{stem}` longer than `{word}`"
        );
        assert!(!stem.is_empty(), "empty stem of `{word}`");
    });
}

#[test]
fn analysis_is_case_invariant() {
    // Index/query symmetry: the same content typed in any casing
    // produces the same terms (the UAT "special cases" rely on it).
    let property = |text: &str| {
        let analyzer = ItalianAnalyzer::new();
        assert_eq!(
            analyzer.analyze(text),
            analyzer.analyze(&text.to_uppercase())
        );
    };
    property("èaaaàò"); // failed once
    check(CASES, |rng| property(&italian_text(rng)));
}

#[test]
fn keyword_analyzer_is_lossless_lowercase() {
    check(CASES, |rng| {
        let text = italian_text(rng);
        let analyzer = KeywordAnalyzer::new();
        let terms = analyzer.analyze(&text);
        let raw: Vec<String> = tokenize(&text).map(|t| t.text.to_lowercase()).collect();
        assert_eq!(terms, raw);
    });
}

#[test]
fn rouge_is_bounded_and_self_identical() {
    check(CASES, |rng| {
        let (a, b) = (italian_text(rng), italian_text(rng));
        let s = rouge_l(&a, &b);
        assert!((0.0..=1.0 + 1e-9).contains(&s.precision));
        assert!((0.0..=1.0 + 1e-9).contains(&s.recall));
        assert!((0.0..=1.0 + 1e-9).contains(&s.f_measure));
        if !a.trim().is_empty() && tokenize(&a).next().is_some() {
            let self_score = rouge_l(&a, &a);
            assert!((self_score.f_measure - 1.0).abs() < 1e-9, "text {a:?}");
        }
    });
}

#[test]
fn lcs_is_symmetric_and_bounded() {
    check(CASES, |rng| {
        let a = vec_of(rng, 0..30, |rng| rng.gen_range(0u8..5));
        let b = vec_of(rng, 0..30, |rng| rng.gen_range(0u8..5));
        let l = lcs_length(&a, &b);
        assert_eq!(l, lcs_length(&b, &a));
        assert!(l <= a.len().min(b.len()));
        // LCS against itself is the full length.
        assert_eq!(lcs_length(&a, &a), a.len());
    });
}

#[test]
fn rouge_tokens_subsequence_has_full_recall() {
    check(CASES, |rng| {
        let reference = vec_of(rng, 1..25, |rng| rng.gen_range(0u8..6));
        let mask = vec_of(rng, 1..25, |rng| rng.gen::<bool>());
        // Any subsequence of the reference achieves precision 1.
        let candidate: Vec<u8> = reference
            .iter()
            .zip(mask.iter().chain(std::iter::repeat(&true)))
            .filter(|(_, keep)| **keep)
            .map(|(v, _)| *v)
            .collect();
        if !candidate.is_empty() {
            let s = rouge_l_tokens(&candidate, &reference);
            assert!((s.precision - 1.0).abs() < 1e-9);
        }
    });
}

#[test]
fn splitter_preserves_all_tokens() {
    check(CASES, |rng| {
        let (text, budget) = (italian_text(rng), rng.gen_range(8usize..64));
        let splitter = RecursiveCharacterTextSplitter::new(budget);
        let chunks = splitter.split(&text);
        let original: Vec<String> = tokenize(&text).map(|t| t.text.to_string()).collect();
        let mut rejoined: Vec<String> = Vec::new();
        for c in &chunks {
            rejoined.extend(tokenize(&c.text).map(|t| t.text.to_string()));
        }
        // Chunking is lossless at the token level (order preserved).
        assert_eq!(original, rejoined, "budget {budget}");
    });
}

#[test]
fn splitter_ordinals_are_dense() {
    check(CASES, |rng| {
        let (text, budget) = (italian_text(rng), rng.gen_range(8usize..64));
        let splitter = RecursiveCharacterTextSplitter::new(budget);
        for (i, c) in splitter.split(&text).iter().enumerate() {
            assert_eq!(c.ordinal, i);
        }
    });
}

#[test]
fn token_count_is_subadditive_under_concat() {
    check(CASES, |rng| {
        let (a, b) = (italian_text(rng), italian_text(rng));
        let joined = format!("{a} {b}");
        let total = approx_token_count(&joined);
        assert!(total <= approx_token_count(&a) + approx_token_count(&b) + 1);
    });
}

#[test]
fn sentences_cover_all_words() {
    check(CASES, |rng| {
        let text = italian_text(rng);
        let words: usize = tokenize(&text).count();
        let in_sentences: usize = split_sentences(&text)
            .iter()
            .map(|s| tokenize(s).count())
            .sum();
        assert_eq!(words, in_sentences, "text {text:?}");
    });
}

#[test]
fn html_parser_never_panics_and_strips_tags() {
    check(CASES, |rng| {
        let raw = string_of(rng, &format!("{LOWER}<>/&; "), 0..=200);
        let doc = parse_html(&raw);
        for p in &doc.paragraphs {
            assert!(
                !p.text.contains('<') || raw.contains('<'),
                "visible text should not invent angle brackets"
            );
            assert!(!p.text.is_empty(), "raw {raw:?}");
        }
    });
}
