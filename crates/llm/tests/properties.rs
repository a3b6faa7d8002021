//! Seeded-loop property tests of the generation substrate.

#[path = "../../../tests/support/cases.rs"]
mod cases;

use cases::{any_string, check, string_of, vec_of, DIGITS, LOWER};
use rand::Rng;
use uniask_llm::chat::{ChatMessage, ChatRequest};
use uniask_llm::citation::{extract_citations, format_citation, strip_citations};
use uniask_llm::model::{ChatModel, SimLlm, SimLlmConfig};
use uniask_llm::prompt::{ContextChunk, PromptBuilder};
use uniask_llm::rate_limit::TokenBucket;

const CASES: u64 = 48;

#[test]
fn citations_roundtrip() {
    check(CASES, |rng| {
        let keys = vec_of(rng, 0..8, |rng| rng.gen_range(1usize..50));
        let mut text = String::from("Risposta");
        for k in &keys {
            text.push(' ');
            text.push_str(&format_citation(*k));
        }
        let extracted = extract_citations(&text);
        // Every formatted key is recovered (deduplicated, in order).
        let mut expected = Vec::new();
        for k in &keys {
            if !expected.contains(k) {
                expected.push(*k);
            }
        }
        assert_eq!(extracted, expected);
    });
}

#[test]
fn strip_removes_every_wellformed_marker() {
    check(CASES, |rng| {
        let body = string_of(rng, &format!("{LOWER} ."), 0..=60);
        let keys = vec_of(rng, 0..6, |rng| rng.gen_range(1usize..30));
        let mut text = body.clone();
        for k in &keys {
            text.push_str(&format_citation(*k));
            text.push(' ');
        }
        let stripped = strip_citations(&text);
        assert!(
            extract_citations(&stripped).is_empty(),
            "markers survived: {stripped}"
        );
    });
}

#[test]
fn strip_is_idempotent() {
    check(CASES, |rng| {
        let text = string_of(rng, &format!("{LOWER} []_{DIGITS}"), 0..=80);
        let once = strip_citations(&text);
        let twice = strip_citations(&once);
        assert_eq!(once, twice, "text {text:?}");
    });
}

#[test]
fn context_roundtrips_through_the_prompt() {
    check(CASES, |rng| {
        let letters = format!("{LOWER}{} ", LOWER.to_uppercase());
        let titles = vec_of(rng, 1..5, |rng| string_of(rng, &letters, 1..=30));
        let chunks: Vec<ContextChunk> = titles
            .iter()
            .enumerate()
            .map(|(i, t)| ContextChunk {
                key: i + 1,
                title: t.trim().to_string(),
                content: format!("contenuto {i}"),
            })
            .collect();
        let prompt = PromptBuilder::default().system_prompt(&chunks);
        let parsed = SimLlm::parse_context(&prompt);
        assert_eq!(parsed, chunks);
    });
}

#[test]
fn completion_never_panics_and_respects_window() {
    check(CASES, |rng| {
        let question = any_string(rng, 200);
        let llm = SimLlm::new(SimLlmConfig::default());
        let request = ChatRequest::new(vec![ChatMessage::user(question)]);
        // Either a response or a typed error; never a panic.
        let _ = llm.complete(&request);
    });
}

#[test]
fn token_bucket_never_goes_negative_or_above_capacity() {
    check(CASES, |rng| {
        let ops = vec_of(rng, 1..40, |rng| {
            (rng.gen_range(0.0f64..500.0), rng.gen_range(0.0f64..50.0))
        });
        let mut bucket = TokenBucket::new(1000.0, 100.0);
        let mut now = 0.0;
        for (tokens, dt) in ops {
            now += dt;
            let _ = bucket.try_acquire(tokens, now);
            let available = bucket.available(now);
            assert!(
                (0.0..=1000.0 + 1e-9).contains(&available),
                "available {available}"
            );
        }
    });
}

#[test]
fn rate_limit_wait_estimate_is_sufficient() {
    check(CASES, |rng| {
        let first = rng.gen_range(100.0f64..1000.0);
        let second = rng.gen_range(1.0f64..1000.0);
        let mut bucket = TokenBucket::new(1000.0, 50.0);
        bucket
            .try_acquire(first.min(1000.0), 0.0)
            .expect("bucket starts full");
        match bucket.try_acquire(second, 0.0) {
            Ok(()) => {}
            Err(wait) => {
                // Retrying after the advertised wait must succeed.
                assert!(
                    bucket.try_acquire(second, wait + 1e-6).is_ok(),
                    "first {first} second {second} wait {wait}"
                );
            }
        }
    });
}
