//! Chaos suite: replay seeded fault plans end-to-end and assert the
//! resilience invariants the layer promises.
//!
//! * No panics, whatever the plan injects.
//! * Never an empty-handed error while BM25 is healthy: every grounded
//!   question gets documents, and an answer or the extractive fallback
//!   — a `ServiceError` is a bug while the text backbone serves.
//! * Convergence: once the faults clear (and breakers cool down), the
//!   system returns byte-identical answers to a control system that
//!   never saw a fault.
//!
//! The default matrix covers three fixed seeds; CI fans out further via
//! the `UNIASK_TEST_SEED` environment variable.

#[path = "support/seeds.rs"]
mod seeds;

use std::sync::Arc;

use uniask::core::app::{GenerationOutcome, UniAsk};
use uniask::core::config::UniAskConfig;
use uniask::core::ingestion::{IngestMessage, IngestionService, POLL_INTERVAL_SECS};
use uniask::core::queue::MessageQueue;
use uniask::core::resilience::{
    FaultKind, FaultPlan, FaultPoint, FaultSpec, ResilienceConfig, ResilienceState,
};
use uniask::corpus::generator::CorpusGenerator;
use uniask::corpus::kb::KnowledgeBase;
use uniask::corpus::scale::CorpusScale;

/// The seeds every run replays; `UNIASK_TEST_SEED=<n>` appends one more.
fn chaos_seeds() -> Vec<u64> {
    seeds::seeds(&[1, 7, 42])
}

fn kb(seed: u64) -> KnowledgeBase {
    CorpusGenerator::new(CorpusScale::tiny(), seed).generate()
}

fn system(kb: &KnowledgeBase) -> UniAsk {
    let mut app = UniAsk::new(UniAskConfig::default());
    app.ingest(kb);
    app
}

/// Grounded questions built from real document titles, so retrieval
/// always has something to serve.
fn grounded_questions(kb: &KnowledgeBase, n: usize) -> Vec<String> {
    kb.documents
        .iter()
        .take(n)
        .map(|d| format!("Come funziona: {}?", d.title))
        .collect()
}

/// The comparable footprint of a response: generation outcome, the
/// document ranking and the context handed to the LLM.
fn footprint(r: &uniask::core::app::AskResponse) -> (GenerationOutcome, Vec<String>, Vec<String>) {
    (
        r.generation.clone(),
        r.documents.iter().map(|d| d.parent_doc.clone()).collect(),
        r.context.iter().map(|c| c.content.clone()).collect(),
    )
}

/// Past every breaker cooldown, with margin.
const COOLDOWN_AND_MARGIN: f64 = 120.0;

#[test]
fn seeded_plans_never_leave_the_user_empty_handed() {
    for seed in chaos_seeds() {
        let kb = kb(21);
        let mut app = system(&kb);
        let plan = Arc::new(FaultPlan::seeded(seed));
        app.inject_faults(Arc::clone(&plan));

        for question in grounded_questions(&kb, 12) {
            let response = app.ask(&question);
            assert!(
                !response.documents.is_empty(),
                "seed {seed}: no documents for {question:?}"
            );
            assert!(
                !matches!(response.generation, GenerationOutcome::ServiceError { .. }),
                "seed {seed}: empty-handed error while BM25 healthy for \
                 {question:?}: {:?} (degradation {:?})",
                response.generation,
                response.degradation
            );
        }
    }
}

#[test]
fn answers_converge_byte_identically_once_faults_clear() {
    for seed in chaos_seeds() {
        let kb = kb(21);
        let control = system(&kb);
        let mut injected = system(&kb);

        let plan = Arc::new(FaultPlan::seeded(seed));
        injected.inject_faults(Arc::clone(&plan));
        let questions = grounded_questions(&kb, 10);

        // Chaos phase: drive the system through the fault windows.
        for question in &questions {
            let _ = injected.ask(question);
        }

        // Recovery: disarm the plan, let every breaker cool down, and
        // close the half-open breakers with one probe request.
        injected.clear_faults();
        injected.advance_clock(COOLDOWN_AND_MARGIN);
        let _ = injected.ask(&questions[0]);

        for question in &questions {
            let healthy = injected.ask(question);
            assert!(
                !healthy.degradation.is_degraded(),
                "seed {seed}: still degraded after recovery: {:?}",
                healthy.degradation
            );
            let reference = control.ask(question);
            assert_eq!(
                footprint(&healthy),
                footprint(&reference),
                "seed {seed}: recovered answer diverges for {question:?}"
            );
        }
    }
}

#[test]
fn vector_outage_degrades_to_bm25_and_flags_it() {
    let kb = kb(21);
    let mut app = system(&kb);
    // Both ANN legs hard-down for their first 50 calls.
    let plan = Arc::new(FaultPlan::new(vec![
        FaultSpec {
            point: FaultPoint::TitleVector,
            from_call: 0,
            to_call: 50,
            kind: FaultKind::Fail,
        },
        FaultSpec {
            point: FaultPoint::ContentVector,
            from_call: 0,
            to_call: 50,
            kind: FaultKind::Fail,
        },
    ]));
    app.inject_faults(plan);

    let question = format!("Come funziona: {}?", kb.documents[0].title);
    let response = app.ask(&question);
    assert!(response.degradation.vector_leg, "outage must be flagged");
    assert!(!response.documents.is_empty(), "BM25 backbone still serves");
    assert!(
        !matches!(response.generation, GenerationOutcome::ServiceError { .. }),
        "vector outage must not fail the query: {:?}",
        response.generation
    );

    // Three straight failures trip the vector breaker; from then on the
    // pipeline pre-narrows to BM25 without even probing the legs.
    let _ = app.ask(&question);
    let _ = app.ask(&question);
    let state = app.resilience();
    assert!(state.vector_breaker.opens() >= 1, "breaker should trip");
    let snap = app.monitoring.snapshot();
    assert!(snap.degraded_queries >= 3);
    assert!(snap.breaker_opens >= 1);
}

#[test]
fn llm_outage_serves_the_extractive_fallback() {
    let kb = kb(21);
    let mut app = system(&kb);
    let plan = Arc::new(FaultPlan::new(vec![FaultSpec {
        point: FaultPoint::LlmComplete,
        from_call: 0,
        to_call: 200,
        kind: FaultKind::Fail,
    }]));
    app.inject_faults(plan);

    let question = format!("Come funziona: {}?", kb.documents[1].title);
    let response = app.ask(&question);
    match &response.generation {
        GenerationOutcome::Fallback { text, citations } => {
            assert!(!text.is_empty());
            assert!(
                !citations.is_empty(),
                "the fallback cites its source chunk: {text:?}"
            );
        }
        other => panic!("expected the extractive fallback, got {other:?}"),
    }
    assert!(response.degradation.llm_fallback);
    assert!(
        response.degradation.llm_retries >= 1,
        "the outage is retried before falling back"
    );
    let snap = app.monitoring.snapshot();
    assert!(snap.llm_fallbacks >= 1);
    assert!(snap.retries >= 1);
    assert_eq!(snap.failed_requests, 0, "a fallback is not a failure");

    // Recovery: cooldown, then the same question gets the real answer.
    app.clear_faults();
    app.advance_clock(COOLDOWN_AND_MARGIN);
    let _probe = app.ask(&question);
    let recovered = app.ask(&question);
    assert!(
        matches!(recovered.generation, GenerationOutcome::Answer { .. }),
        "post-recovery generation should be healthy: {:?}",
        recovered.generation
    );
}

#[test]
fn llm_latency_faults_delay_but_do_not_degrade() {
    let kb = kb(21);
    let mut app = system(&kb);
    let plan = Arc::new(FaultPlan::new(vec![FaultSpec {
        point: FaultPoint::LlmComplete,
        from_call: 0,
        to_call: 3,
        kind: FaultKind::Delay(0.4),
    }]));
    app.inject_faults(plan);

    let question = format!("Come funziona: {}?", kb.documents[2].title);
    let before = app.now();
    let response = app.ask(&question);
    assert!(
        app.now() >= before + 0.4,
        "injected latency must show on the simulated clock"
    );
    assert!(
        !response.degradation.is_degraded(),
        "a slow answer is still a healthy answer: {:?}",
        response.degradation
    );
    assert!(
        !matches!(response.generation, GenerationOutcome::ServiceError { .. }),
        "latency alone must not fail the query"
    );
}

#[test]
fn retry_schedule_is_deterministic_per_seed() {
    // Two identical systems under the same plan retry identically: the
    // jitter comes from the seeded per-request RNG, not entropy.
    let kb = kb(21);
    let run = || {
        let mut app = system(&kb);
        let plan = Arc::new(FaultPlan::new(vec![FaultSpec {
            point: FaultPoint::LlmComplete,
            from_call: 0,
            to_call: 2,
            kind: FaultKind::Fail,
        }]));
        app.inject_faults(plan);
        let question = format!("Come funziona: {}?", kb.documents[0].title);
        let response = app.ask(&question);
        (response.degradation.llm_retries, app.now())
    };
    let (retries_a, clock_a) = run();
    let (retries_b, clock_b) = run();
    assert_eq!(retries_a, 2, "two faulted calls then success");
    assert_eq!(retries_a, retries_b);
    assert_eq!(clock_a, clock_b, "backoff delays must replay exactly");
}

#[test]
fn queue_and_ingest_chaos_loses_no_updates() {
    for seed in chaos_seeds() {
        let kb = kb(33);
        let plan = FaultPlan::seeded(seed ^ 0xD1CE);
        let queue: MessageQueue<IngestMessage> = MessageQueue::new(8);
        let mut ingestion = IngestionService::new();
        let mut app = UniAsk::new(UniAskConfig::default());

        // Poll-and-drain cycles under the plan until the watermark set
        // converges: faulted polls skip, faulted posts defer, a full
        // queue pushes back — but nothing is lost.
        let mut cycle = 0u64;
        while ingestion.messages_posted < kb.documents.len() {
            let now = cycle as f64 * POLL_INTERVAL_SECS;
            ingestion.poll_with_faults(&kb.documents, &queue, now, Some(&plan));
            while let Some(message) = queue.try_receive() {
                app.apply_update(message);
            }
            cycle += 1;
            assert!(cycle < 64, "seed {seed}: ingest did not converge");
        }

        assert_eq!(
            ingestion.messages_posted,
            kb.documents.len(),
            "seed {seed}: every page is eventually delivered exactly once"
        );
        // Everything that was deferred or skipped is visible, and the
        // final index serves the same documents as a fault-free build
        // (delivery *order* may differ — deferred pages arrive late —
        // so the comparison is set-based, not positional).
        let reference = system(&kb);
        assert_eq!(app.index().len(), reference.index().len());
        let target = &kb.documents[0];
        let question = format!("Come funziona: {}?", target.title);
        let chaotic = app.ask(&question);
        let clean = reference.ask(&question);
        for (label, response) in [("chaotic", &chaotic), ("clean", &clean)] {
            assert!(
                response.documents.iter().any(|d| d.parent_doc == target.id),
                "seed {seed}: {label} build must retrieve the queried page"
            );
            assert!(
                !matches!(response.generation, GenerationOutcome::ServiceError { .. }),
                "seed {seed}: {label} build must answer"
            );
        }
    }
}

#[test]
fn seeded_worker_panics_self_heal_without_losing_requests() {
    use uniask::core::clock::SimClock;
    use uniask::core::serving::{Priority, ServingConfig, ServingExecutor, SyntheticEngine};

    // The serving chaos mode: a seeded plan panics worker threads
    // mid-serve. The pool must replace every panicked worker, answer
    // every affected request degraded, and keep serving afterwards.
    for seed in chaos_seeds() {
        let plan = FaultPlan::seeded_worker_panics(seed);
        let engine = SyntheticEngine;
        let clock = SimClock::new();
        let executor = ServingExecutor::new(ServingConfig::default(), &engine, &clock).fault(&plan);
        let (outcomes, report) = executor.run(|handle| {
            let mut outcomes = Vec::new();
            let mut now = 0.0;
            for i in 0..24 {
                let class = if i % 3 == 0 {
                    Priority::Bulk
                } else {
                    Priority::Interactive
                };
                handle.submit(&format!("domanda {i}"), class, now).unwrap();
                if let Some(at) = handle.next_dispatch_at(now) {
                    now = at;
                    clock.set(now);
                    outcomes.extend(handle.step(now).completed);
                }
                // Below the LLM envelope's sustained rate, so the only
                // sheds in this run come from the injected panics.
                now += 0.5;
                clock.set(now);
            }
            while let Some(at) = handle.next_dispatch_at(now) {
                now = at.max(now);
                clock.set(now);
                outcomes.extend(handle.step(now).completed);
            }
            outcomes
        });
        let injected = plan.injected();
        assert!(
            injected > 0,
            "seed {seed}: the seeded windows must fire within 24 requests"
        );
        let c = &report.counters;
        assert_eq!(c.admitted(), 24, "seed {seed}: a quiet queue admits all");
        assert_eq!(
            c.workers_replaced, injected,
            "seed {seed}: one replacement per panic"
        );
        assert_eq!(
            c.shed_panic, injected,
            "seed {seed}: every panicked request is still answered"
        );
        assert_eq!(
            c.completed() + c.shed() + c.expired(),
            c.admitted(),
            "seed {seed}: no request is lost to a panic"
        );
        assert_eq!(
            outcomes.len() + report.drained.len(),
            24 - c.expired() as usize,
            "seed {seed}: every admitted request surfaces exactly once"
        );
        // The pool keeps serving after the last fault window: the tail
        // requests land outside every window (they end by call 14) and
        // must come back full-quality.
        assert!(
            outcomes
                .iter()
                .rev()
                .take(4)
                .all(|done| done.shed.is_none()),
            "seed {seed}: the healed pool serves full quality"
        );
    }
}

#[test]
fn breaker_short_circuits_while_open_then_probes_half_open() {
    let state = ResilienceState::new(ResilienceConfig::default());
    let threshold = state.config.llm_breaker.failure_threshold;
    for i in 0..threshold {
        assert!(state.llm_breaker.allow(i as f64));
        state.llm_breaker.record_failure(i as f64);
    }
    let now = threshold as f64;
    assert!(
        !state.llm_breaker.allow(now),
        "breaker must be open after {threshold} straight failures"
    );
    // Cooldown elapses: exactly one probe is let through, and its
    // success closes the circuit.
    let later = now + state.config.llm_breaker.cooldown_secs + 1.0;
    assert!(state.llm_breaker.allow(later));
    state.llm_breaker.record_success(later);
    assert!(state.llm_breaker.allow(later + 0.1));
    assert_eq!(state.llm_breaker.opens(), 1);
}
