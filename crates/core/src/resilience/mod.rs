//! Resilience layer: deterministic fault injection and recovery.
//!
//! The paper's pilot and load-test phases are about keeping answers
//! flowing when the LLM endpoint throttles, the vector leg degrades, or
//! ingestion stalls. This module family provides the machinery the
//! query and ingest paths use to survive those partial failures:
//!
//! - [`fault`] — a seeded, replayable [`FaultPlan`] that injects
//!   failures and latency at named fault points across the stack;
//! - [`retry`] — [`RetryPolicy`], jittered exponential backoff on a
//!   seeded RNG and the simulated clock, under a per-request deadline;
//! - [`breaker`] — [`CircuitBreaker`], a per-dependency breaker with
//!   half-open probing after a cooldown;
//! - [`degrade`] — the degradation ladder: vector leg open → BM25-only
//!   results flagged degraded; LLM open or deadline exceeded →
//!   guardrail-approved extractive fallback answer instead of an error.
//!
//! Everything is deterministic: faults, backoff jitter and breaker
//! cooldowns run on seeds and [`crate::clock::SimClock`], so a chaos
//! run replays byte-for-byte (see `tests/chaos.rs` at the workspace
//! root).

pub mod breaker;
pub mod degrade;
pub mod fault;
pub mod retry;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use degrade::{extractive_fallback, Degradation};
pub use fault::{
    FaultKind, FaultPlan, FaultPoint, FaultSpec, InjectedFault, PlanSearchHook, FAULT_POINTS,
};
pub use retry::RetryPolicy;

/// Tunables of the resilience layer. Every [`crate::app::UniAsk`] runs
/// with the defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// Backoff schedule for retryable LLM errors.
    pub retry: RetryPolicy,
    /// Breaker guarding the LLM dependency.
    pub llm_breaker: BreakerConfig,
    /// Breaker guarding the vector-search dependency.
    pub vector_breaker: BreakerConfig,
    /// Per-request budget in simulated seconds: retries stop (and the
    /// degradation ladder takes over) once the next backoff would cross
    /// it.
    pub deadline_secs: f64,
    /// Seed of the per-request backoff jitter.
    pub seed: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            retry: RetryPolicy::default(),
            llm_breaker: BreakerConfig::default(),
            vector_breaker: BreakerConfig::default(),
            deadline_secs: 20.0,
            seed: 0xC1A0_5EED,
        }
    }
}

/// Live resilience state of one assembled system: the per-dependency
/// breakers, the per-request counter seeding backoff jitter, and the
/// currently armed fault plan (if any).
#[derive(Debug)]
pub struct ResilienceState {
    /// The configuration this state was built from.
    pub config: ResilienceConfig,
    /// Breaker guarding the LLM dependency.
    pub llm_breaker: CircuitBreaker,
    /// Breaker guarding the vector-search dependency.
    pub vector_breaker: CircuitBreaker,
    requests: AtomicU64,
    plan: RwLock<Option<Arc<FaultPlan>>>,
}

impl ResilienceState {
    /// Fresh state (breakers closed, no plan armed).
    pub fn new(config: ResilienceConfig) -> Self {
        let llm_breaker = CircuitBreaker::new(config.llm_breaker);
        let vector_breaker = CircuitBreaker::new(config.vector_breaker);
        ResilienceState {
            config,
            llm_breaker,
            vector_breaker,
            requests: AtomicU64::new(0),
            plan: RwLock::new(None),
        }
    }

    /// The armed fault plan, if any.
    pub fn plan(&self) -> Option<Arc<FaultPlan>> {
        self.plan.read().clone()
    }

    /// Arm `plan` (replacing any previous one), or disarm with `None`.
    pub fn set_plan(&self, plan: Option<Arc<FaultPlan>>) {
        *self.plan.write() = plan;
    }

    /// Allocate the next request id (seeds that request's jitter RNG).
    pub fn next_request_id(&self) -> u64 {
        self.requests.fetch_add(1, Ordering::Relaxed)
    }
}
