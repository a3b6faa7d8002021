//! Real-thread executor end-to-end: the worker pool must be
//! *observationally identical* to the simulated front-end, and
//! shutdown must never lose an admitted request.
//!
//! * The differential harness replays the same seeded arrival schedule
//!   through the sim front-end and through the executor in stepped
//!   mode, and asserts identical per-request outcomes — ids, classes,
//!   shed reasons, latencies, answers — plus identical counters.
//! * The same harness runs against the real `SearchIndexEngine`, so
//!   the cooperative-cancellation serve path is proven byte-identical
//!   to the batch path under load, not just in unit tests.
//! * The drain-conservation matrix shuts the executor down
//!   mid-saturation across a seed × thread-count grid and proves every
//!   admitted request is settled exactly once: completed, shed, or
//!   expired — nothing vanishes, nothing double-settles.
//! * A wall-clock free-running smoke drives real threads against a
//!   real clock and asserts the serving invariants (conservation, bulk
//!   sheds first, bounded interactive latency).
//! * Injected worker panics (the seeded fault plan) must degrade the
//!   affected requests, replace the workers, and leave admission
//!   behavior untouched.
//! * The drain flush hook runs after the pool has been joined and its
//!   checkpoint makes the next startup replay-free.
//!
//! CI fans the matrix out further via `UNIASK_TEST_SEED` and
//! `EXECUTOR_THREADS`.

#[path = "support/seeds.rs"]
mod seeds;

use std::sync::Arc;

use uniask::core::clock::{Clock, SimClock, WallClock};
use uniask::core::config::UniAskConfig;
use uniask::core::durability::{Durability, DurabilityConfig};
use uniask::core::ingestion::IngestMessage;
use uniask::core::resilience::FaultPlan;
use uniask::core::serving::{
    CompletedRequest, ExecutorConfig, ExecutorHandle, Priority, SearchIndexEngine, ServingArrival,
    ServingConfig, ServingEngine, ServingFrontend, ServingLoadTestConfig, ShedReason,
};
use uniask::corpus::generator::CorpusGenerator;
use uniask::corpus::scale::CorpusScale;
use uniask::search::hybrid::{ChunkRecord, HybridConfig, SearchIndex};
use uniask::search::reranker::SemanticReranker;
use uniask::store::checkpoint::CheckpointConfig;
use uniask::store::vfs::{MemVfs, Vfs};
use uniask::store::wal::WalConfig;
use uniask::vector::embedding::SyntheticEmbedder;

use uniask::core::serving::ServingExecutor;

/// The seeds every run replays; `UNIASK_TEST_SEED=<n>` appends one more.
fn executor_seeds() -> Vec<u64> {
    seeds::seeds(&[ServingLoadTestConfig::default().seed, 7])
}

/// The worker counts every run replays; `EXECUTOR_THREADS=<n>` appends
/// one more.
fn executor_threads() -> Vec<usize> {
    let mut threads = vec![1, 2, 8];
    if let Ok(extra) = std::env::var("EXECUTOR_THREADS") {
        if let Ok(n) = extra.trim().parse::<usize>() {
            if n > 0 && !threads.contains(&n) {
                threads.push(n);
            }
        }
    }
    threads
}

/// A short saturation ramp: hot enough to exercise batching, the shed
/// ladder and queue-full rejection, small enough to replay many times.
fn workload(seed: u64) -> ServingLoadTestConfig {
    ServingLoadTestConfig {
        duration_secs: 30.0,
        seed,
        ..ServingLoadTestConfig::saturation_smoke()
    }
}

/// What one run of a serving stack produced, keyed for comparison.
struct RunTrace {
    outcomes: Vec<CompletedRequest>,
    rejected_ids: Vec<u64>,
    counters: uniask::core::serving::ServingCounters,
}

/// Drive the simulated front-end over the schedule (the sim loop of
/// `ServingLoadTest::run`, with per-request outcomes kept).
fn run_frontend(
    serving: ServingConfig,
    engine: &dyn ServingEngine,
    arrivals: &[ServingArrival],
) -> RunTrace {
    let mut front = ServingFrontend::new(serving, engine);
    let mut outcomes = Vec::new();
    let mut rejected_ids = Vec::new();
    let mut index = 0usize;
    let mut now = 0.0f64;
    loop {
        let pending = arrivals.get(index);
        let dispatch_at = front.next_dispatch_at(now);
        let take_arrival = match (pending, dispatch_at) {
            (None, None) => break,
            (Some(_), None) => true,
            (Some(a), Some(d)) => a.at <= d,
            (None, Some(_)) => false,
        };
        if let (true, Some(arrival)) = (take_arrival, pending) {
            now = arrival.at;
            if front.submit(&arrival.query, arrival.class, now).is_err() {
                // Ids advance on rejection too; reconstruct the id the
                // refused submission consumed.
                let c = front.counters();
                rejected_ids.push(c.admitted() + c.rejected() - 1);
            }
            index += 1;
        } else if let Some(at) = dispatch_at {
            now = at.max(now);
            outcomes.extend(front.dispatch(now).completed);
        }
    }
    RunTrace {
        outcomes,
        rejected_ids,
        counters: front.counters(),
    }
}

/// Drive the executor in stepped mode over the same schedule with the
/// same interleave rule the sim uses.
fn run_stepped(
    handle: &ExecutorHandle<'_>,
    clock: &SimClock,
    arrivals: &[ServingArrival],
) -> (Vec<CompletedRequest>, Vec<u64>) {
    let mut outcomes = Vec::new();
    let mut rejected_ids = Vec::new();
    let mut index = 0usize;
    let mut now = 0.0f64;
    loop {
        let pending = arrivals.get(index);
        let dispatch_at = handle.next_dispatch_at(now);
        let take_arrival = match (pending, dispatch_at) {
            (None, None) => break,
            (Some(_), None) => true,
            (Some(a), Some(d)) => a.at <= d,
            (None, Some(_)) => false,
        };
        if let (true, Some(arrival)) = (take_arrival, pending) {
            now = arrival.at;
            clock.set(now);
            let counters = handle.counters();
            if handle.submit(&arrival.query, arrival.class, now).is_err() {
                rejected_ids.push(counters.admitted() + counters.rejected());
            }
            index += 1;
        } else if let Some(at) = dispatch_at {
            now = at.max(now);
            clock.set(now);
            outcomes.extend(handle.step(now).completed);
        }
    }
    (outcomes, rejected_ids)
}

fn assert_same_trace(seed: u64, workers: usize, sim: &RunTrace, real: &RunTrace) {
    assert_eq!(
        sim.rejected_ids, real.rejected_ids,
        "seed {seed}, {workers} workers: admission must reject identically"
    );
    assert_eq!(
        sim.outcomes.len(),
        real.outcomes.len(),
        "seed {seed}, {workers} workers: same number of answered requests"
    );
    for (s, r) in sim.outcomes.iter().zip(&real.outcomes) {
        assert_eq!(
            s, r,
            "seed {seed}, {workers} workers: request {} must settle identically",
            s.id
        );
    }
    assert_eq!(
        sim.counters, real.counters,
        "seed {seed}, {workers} workers: cumulative counters must match"
    );
}

#[test]
fn stepped_executor_matches_the_sim_frontend_exactly() {
    for seed in executor_seeds() {
        // The full CI smoke ramp: hot enough to reject at the door, so
        // the comparison covers every rung of the ladder.
        let config = ServingLoadTestConfig {
            seed,
            ..ServingLoadTestConfig::saturation_smoke()
        };
        let arrivals = config.arrivals();
        let engine = uniask::core::serving::SyntheticEngine;
        let sim = run_frontend(config.serving, &engine, &arrivals);
        assert!(
            sim.counters.shed() > 0 && sim.counters.rejected() > 0,
            "seed {seed}: the workload must saturate for the comparison to bite"
        );
        for workers in executor_threads() {
            let clock = SimClock::new();
            let executor =
                ServingExecutor::new(config.serving, &engine, &clock).executor(ExecutorConfig {
                    workers,
                    ..ExecutorConfig::default()
                });
            let ((outcomes, rejected_ids), report) =
                executor.run(|handle| run_stepped(handle, &clock, &arrivals));
            assert!(
                report.drained.is_empty(),
                "seed {seed}, {workers} workers: the stepped run settles everything itself"
            );
            let real = RunTrace {
                outcomes,
                rejected_ids,
                counters: report.counters,
            };
            assert_same_trace(seed, workers, &sim, &real);
        }
    }
}

fn small_index() -> SearchIndex {
    let embedder = Arc::new(SyntheticEmbedder::new(32, 9));
    let mut index = SearchIndex::new(embedder, SemanticReranker::default());
    let pages = [
        (
            "kb/1",
            "Blocco carta",
            "La carta smarrita o rubata si blocca immediatamente dal numero verde o dall'app.",
        ),
        (
            "kb/2",
            "Bonifico istantaneo",
            "Il bonifico istantaneo ha un limite giornaliero configurabile dall'home banking.",
        ),
        (
            "kb/3",
            "Conto corrente base",
            "Il conto corrente base ha un canone mensile fisso e operazioni illimitate.",
        ),
        (
            "kb/4",
            "Token home banking",
            "Il token software si attiva dall'app con il codice ricevuto in filiale.",
        ),
        (
            "kb/5",
            "Mutuo prima casa",
            "Il mutuo prima casa richiede busta paga, documento e visura catastale.",
        ),
        (
            "kb/6",
            "Prestito personale",
            "Il tasso del prestito personale dipende dalla durata e dal merito creditizio.",
        ),
        (
            "kb/7",
            "Contestazione addebito",
            "Un addebito sconosciuto si contesta entro tredici mesi dalla data valuta.",
        ),
        (
            "kb/8",
            "Orari filiali",
            "Le filiali osservano orario ridotto nelle settimane centrali di agosto.",
        ),
    ];
    for (parent, title, content) in pages {
        index.add_chunk(&ChunkRecord {
            parent_doc: parent.to_string(),
            ordinal: 0,
            title: title.to_string(),
            content: content.to_string(),
            summary: String::new(),
            domain: "D".into(),
            topic: "T".into(),
            section: "S".into(),
            keywords: vec![],
        });
    }
    index
}

#[test]
fn stepped_executor_matches_the_sim_on_the_real_search_engine() {
    let seed = executor_seeds()[0];
    let config = ServingLoadTestConfig {
        duration_secs: 10.0,
        ..workload(seed)
    };
    let arrivals = config.arrivals();
    let index = small_index();
    let engine = SearchIndexEngine::new(&index, HybridConfig::default());
    let sim = run_frontend(config.serving, &engine, &arrivals);
    let clock = SimClock::new();
    let executor = ServingExecutor::new(config.serving, &engine, &clock);
    let ((outcomes, rejected_ids), report) =
        executor.run(|handle| run_stepped(handle, &clock, &arrivals));
    let real = RunTrace {
        outcomes,
        rejected_ids,
        counters: report.counters,
    };
    assert_same_trace(seed, ExecutorConfig::default().workers, &sim, &real);
    assert!(
        sim.outcomes
            .iter()
            .any(|c| c.shed.is_none() && !c.answer.hits.is_empty()),
        "full-service answers carry real hits"
    );
}

#[test]
fn mid_saturation_drain_loses_no_admitted_request() {
    for seed in executor_seeds() {
        for workers in executor_threads() {
            let config = workload(seed);
            let arrivals = config.arrivals();
            let engine = uniask::core::serving::SyntheticEngine;
            let clock = SimClock::new();
            let executor =
                ServingExecutor::new(config.serving, &engine, &clock).executor(ExecutorConfig {
                    workers,
                    drain_deadline_secs: 0.05,
                    ..ExecutorConfig::default()
                });
            // Stop driving halfway through the schedule — submissions
            // keep pace with dispatch only until then, so the executor
            // shuts down with deep queues the drain has to settle.
            let half = arrivals.len() / 2;
            let (outcomes, report) = executor.run(|handle| {
                let mut outcomes = Vec::new();
                let mut now = 0.0f64;
                for arrival in &arrivals[..half] {
                    while let Some(at) = handle.next_dispatch_at(now) {
                        if at > arrival.at {
                            break;
                        }
                        now = at.max(now);
                        clock.set(now);
                        outcomes.extend(handle.step(now).completed);
                    }
                    now = arrival.at;
                    clock.set(now);
                    let _ = handle.submit(&arrival.query, arrival.class, now);
                }
                outcomes
            });
            assert!(
                !report.drained.is_empty(),
                "seed {seed}, {workers} workers: shutdown really found a backlog"
            );
            let c = &report.counters;
            assert_eq!(
                c.completed() + c.shed() + c.expired(),
                c.admitted(),
                "seed {seed}, {workers} workers: conservation across shutdown"
            );
            // Exactly-once settlement at the id level.
            let mut ids: Vec<u64> = outcomes
                .iter()
                .chain(&report.drained)
                .map(|done| done.id)
                .collect();
            ids.sort_unstable();
            let answered = ids.len();
            ids.dedup();
            assert_eq!(ids.len(), answered, "seed {seed}: no id settles twice");
            assert_eq!(
                answered as u64 + c.expired(),
                c.admitted(),
                "seed {seed}, {workers} workers: every admitted id is answered or expired"
            );
            assert!(
                report.drain_elapsed_secs < 5.0,
                "seed {seed}: drain respects its real-time budget"
            );
        }
    }
}

#[test]
fn free_running_executor_holds_the_serving_invariants_on_a_wall_clock() {
    // Scale the cost model down so the smoke runs in well under a
    // second of real time while still crossing the shed ladder.
    let mut serving = ServingConfig::default();
    serving.service.embed_base_secs = 0.002;
    serving.service.embed_per_query_secs = 0.0005;
    serving.service.hybrid_search_secs = 0.0015;
    serving.service.degraded_search_secs = 0.0002;
    serving.interactive.deadline_secs = 0.5;
    serving.bulk.deadline_secs = 1.0;
    serving.batch_window_secs = 0.005;
    serving.shed_depth = 16;

    let engine = uniask::core::serving::SyntheticEngine;
    let clock = WallClock::new();
    let executor = ServingExecutor::new(serving, &engine, &clock)
        .mode(uniask::core::serving::ExecutorMode::FreeRunning);
    let (submitted, report) = executor.run(|handle| {
        let mut admitted = 0u64;
        let mut rejected = 0u64;
        for i in 0..400u32 {
            let class = if i % 3 == 0 {
                Priority::Bulk
            } else {
                Priority::Interactive
            };
            match handle.submit(&format!("domanda {i}"), class, clock.now()) {
                Ok(_) => admitted += 1,
                Err(_) => rejected += 1,
            }
            if i % 50 == 49 {
                // Breathe so the dispatcher interleaves with arrivals.
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
        (admitted, rejected)
    });
    let (admitted, rejected) = submitted;
    let c = &report.counters;
    assert_eq!(c.admitted(), admitted);
    assert_eq!(c.rejected(), rejected);
    assert_eq!(
        c.completed() + c.shed() + c.expired(),
        c.admitted(),
        "conservation: every admitted request settles"
    );
    assert!(c.completed() > 0, "the pool really served");
    if c.shed_overload > 0 {
        assert!(
            c.shed_bulk >= c.shed_overload,
            "overload sheds land on bulk first"
        );
    }
    // Interactive latency stays bounded: deadline + watchdog grace on
    // the interactive budget, with drain slack.
    let worst_interactive = report
        .drained
        .iter()
        .filter(|done| done.class == Priority::Interactive)
        .map(|done| done.latency_secs)
        .fold(0.0f64, f64::max);
    assert!(
        worst_interactive < 5.0,
        "interactive latency {worst_interactive} must stay bounded"
    );
}

#[test]
fn injected_worker_panics_degrade_but_never_lose_requests() {
    for seed in executor_seeds() {
        let config = workload(seed);
        let arrivals = config.arrivals();
        let engine = uniask::core::serving::SyntheticEngine;
        let clean = run_frontend(config.serving, &engine, &arrivals);

        let plan = FaultPlan::seeded_worker_panics(seed);
        let clock = SimClock::new();
        let executor = ServingExecutor::new(config.serving, &engine, &clock).fault(&plan);
        let ((outcomes, rejected_ids), report) =
            executor.run(|handle| run_stepped(handle, &clock, &arrivals));
        let injected = plan.injected();
        assert!(
            injected > 0,
            "seed {seed}: the plan must fire at least once"
        );
        let c = &report.counters;
        assert_eq!(
            c.workers_replaced, injected,
            "seed {seed}: every panic retires exactly one worker"
        );
        assert_eq!(
            c.shed_panic, injected,
            "seed {seed}: every panicked request is answered degraded"
        );
        assert_eq!(
            c.completed() + c.shed() + c.expired(),
            c.admitted(),
            "seed {seed}: conservation under panics"
        );
        // Panics do not perturb admission: same arrivals admitted and
        // rejected as the clean run.
        assert_eq!(c.admitted(), clean.counters.admitted(), "seed {seed}");
        assert_eq!(rejected_ids, clean.rejected_ids, "seed {seed}");
        let panicked: Vec<&CompletedRequest> = outcomes
            .iter()
            .filter(|done| done.shed == Some(ShedReason::WorkerPanic))
            .collect();
        assert_eq!(panicked.len() as u64, injected);
        for done in panicked {
            assert!(
                done.answer.degradation.is_degraded(),
                "seed {seed}: panic answers carry the degraded flag"
            );
        }
    }
}

#[test]
fn drain_flush_hook_checkpoints_the_ingested_state() {
    let kb = CorpusGenerator::new(
        CorpusScale {
            documents: 4,
            human_questions: 1,
            keyword_queries: 1,
            embedding_dim: 32,
        },
        5,
    )
    .generate();
    let app_config = UniAskConfig {
        embedding_dim: 32,
        ..UniAskConfig::default()
    };
    let durability_config = DurabilityConfig {
        wal: WalConfig {
            dir: "wal".into(),
            segment_max_bytes: 8 * 1024,
        },
        checkpoint: CheckpointConfig {
            dir: "ckpt".into(),
            keep: 2,
        },
        checkpoint_every: 0,
    };
    let vfs = Arc::new(MemVfs::new());
    let (mut app, mut durability, _) = Durability::recover(
        app_config.clone(),
        Arc::clone(&vfs) as Arc<dyn Vfs>,
        durability_config.clone(),
    )
    .unwrap();
    for doc in &kb.documents {
        durability
            .log_and_apply(&mut app, IngestMessage::Upsert(doc.clone()))
            .unwrap();
    }
    let applied = kb.documents.len() as u64;

    let engine = uniask::core::serving::SyntheticEngine;
    let clock = SimClock::new();
    let executor = ServingExecutor::new(ServingConfig::default(), &engine, &clock).flush(Box::new(
        move || durability.flush_on_drain(&mut app).unwrap(),
    ));
    let ((), report) = executor.run(|handle| {
        handle
            .submit("ultima domanda", Priority::Interactive, 0.0)
            .unwrap();
    });
    assert_eq!(
        report.flushed_lsn,
        Some(applied),
        "the hook checkpointed up to the last applied LSN"
    );
    assert_eq!(
        report.counters.completed() + report.counters.shed(),
        1,
        "the backlog was drained before the flush"
    );

    // The checkpoint the hook wrote makes the next startup replay-free.
    let (recovered, _, recovery) = Durability::recover(app_config, vfs, durability_config).unwrap();
    assert_eq!(recovery.wal_records_replayed, 0, "no WAL tail left");
    assert_eq!(recovery.last_lsn, applied);
    assert!(recovered.index().len() >= kb.documents.len());
}
