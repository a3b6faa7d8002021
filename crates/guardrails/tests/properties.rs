//! Seeded-loop property tests of the guardrail stack: verdicts are total
//! functions — any answer/question string yields a verdict, never a
//! panic, and the chain's precedence is stable.

#[path = "../../../tests/support/cases.rs"]
mod cases;

use cases::{any_string, check, string_of, LOWER};
use uniask_guardrails::chain::{ChainOutcome, GuardrailChain};
use uniask_guardrails::content_filter::ContentFilter;
use uniask_guardrails::fact_check::{extract_claims, FactCheckGuardrail, FactStore};
use uniask_llm::prompt::ContextChunk;

const CASES: u64 = 96;

fn context() -> Vec<ContextChunk> {
    vec![ContextChunk {
        key: 1,
        title: "Bonifico".into(),
        content: "Il bonifico si esegue dalla sezione pagamenti del portale.".into(),
    }]
}

#[test]
fn chain_never_panics_and_is_deterministic() {
    check(CASES, |rng| {
        let answer = any_string(rng, 200);
        let chain = GuardrailChain::new();
        let ctx = context();
        let a = chain.check_answer(&answer, &ctx);
        let b = chain.check_answer(&answer, &ctx);
        assert_eq!(a, b, "answer {answer:?}");
    });
}

#[test]
fn delivered_answers_always_carry_a_valid_citation() {
    check(CASES, |rng| {
        let body = string_of(rng, &format!("{LOWER} "), 0..=80);
        // Whatever the body, appending a valid citation + enough
        // context overlap is the only path to delivery.
        let chain = GuardrailChain::new();
        let ctx = context();
        let uncited = chain.check_answer(&body, &ctx);
        assert!(
            !uncited.delivered(),
            "an uncited answer must never be delivered: {body:?}"
        );
        // And the grounded, cited phrasing always is.
        let grounded =
            format!("Il bonifico si esegue dalla sezione pagamenti del portale [doc_1]. {body}");
        match chain.check_answer(&grounded, &ctx) {
            ChainOutcome::Delivered { .. } => {}
            ChainOutcome::Invalidated { kind, .. } => {
                // Long random tails can dilute ROUGE or look like a
                // clarification; both are legitimate chain verdicts.
                assert!(
                    matches!(
                        kind,
                        uniask_guardrails::verdict::GuardrailKind::Rouge
                            | uniask_guardrails::verdict::GuardrailKind::Clarification
                    ),
                    "unexpected guardrail {kind:?} for body {body:?}"
                );
            }
        }
    });
}

#[test]
fn content_filter_is_total() {
    check(CASES, |rng| {
        let question = any_string(rng, 200);
        let filter = ContentFilter::new();
        let a = filter.check(&question);
        let b = filter.check(&question);
        assert_eq!(a.passed(), b.passed(), "question {question:?}");
    });
}

#[test]
fn claim_extraction_never_panics() {
    check(CASES, |rng| {
        let text = any_string(rng, 300);
        let claims = extract_claims(&text);
        for c in &claims {
            assert!(!c.key.is_empty(), "text {text:?}");
            assert!(!c.value.is_empty(), "text {text:?}");
        }
    });
}

#[test]
fn fact_store_ingest_is_idempotent() {
    check(CASES, |rng| {
        let text = string_of(rng, &format!("{LOWER}à "), 0..=120);
        let mut store = FactStore::new();
        store.ingest(&text);
        let after_one = store.len();
        store.ingest(&text);
        assert_eq!(
            store.len(),
            after_one,
            "re-ingesting the same text must not grow the store: {text:?}"
        );
        let g = FactCheckGuardrail::new(store);
        // The checker is total.
        let _ = g.check(&text);
    });
}
