//! Deterministic fault plans.
//!
//! A [`FaultPlan`] is an immutable script of faults, each pinned to a
//! named [`FaultPoint`] and a window of call ordinals at that point.
//! Components consult the plan through [`FaultPlan::check`], which
//! advances that point's call counter and reports whether this call
//! fails, runs slow, or proceeds — so a plan replays identically for an
//! identical call sequence, no wall clock or global randomness
//! involved. [`FaultPlan::seeded`] derives a whole plan from a single
//! `u64`, which is how the chaos suite explores fault interleavings
//! reproducibly.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use uniask_search::fault::{SearchFaultHook, SearchStage, StageFault};

/// A named point in the stack where faults can be injected.
///
/// Deliberately *not* on the list: the BM25 text leg. It is the
/// always-on backbone the degradation ladder falls back to, mirroring
/// the deployment's posture that full-text search is local and cheap
/// while vectors, the reranker and the LLM are remote dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// The LLM completion call (`UniAsk`'s generation step).
    LlmComplete,
    /// The title-embedding ANN leg of hybrid retrieval.
    TitleVector,
    /// The content-embedding ANN leg of hybrid retrieval.
    ContentVector,
    /// The semantic reranker.
    Reranker,
    /// A message-queue post between ingestion and indexing.
    QueuePost,
    /// An ingestion poll cycle.
    IngestPoll,
    /// A serving-executor worker about to serve a request. Faults here
    /// model worker crashes: the executor promotes them to panics that
    /// its isolation layer must absorb.
    WorkerServe,
}

/// All fault points, in counter order.
pub const FAULT_POINTS: [FaultPoint; 7] = [
    FaultPoint::LlmComplete,
    FaultPoint::TitleVector,
    FaultPoint::ContentVector,
    FaultPoint::Reranker,
    FaultPoint::QueuePost,
    FaultPoint::IngestPoll,
    FaultPoint::WorkerServe,
];

/// The points [`FaultPlan::seeded`] draws from: the original dependency
/// points, *excluding* [`FaultPoint::WorkerServe`]. Worker panics have
/// their own seeded generator ([`FaultPlan::seeded_worker_panics`]) so
/// existing seed matrices replay byte-identically and panic injection
/// is an explicit opt-in.
const SEEDED_POINTS: [FaultPoint; 6] = [
    FaultPoint::LlmComplete,
    FaultPoint::TitleVector,
    FaultPoint::ContentVector,
    FaultPoint::Reranker,
    FaultPoint::QueuePost,
    FaultPoint::IngestPoll,
];

impl FaultPoint {
    fn index(self) -> usize {
        match self {
            FaultPoint::LlmComplete => 0,
            FaultPoint::TitleVector => 1,
            FaultPoint::ContentVector => 2,
            FaultPoint::Reranker => 3,
            FaultPoint::QueuePost => 4,
            FaultPoint::IngestPoll => 5,
            FaultPoint::WorkerServe => 6,
        }
    }

    /// Stable lowercase name (logs, fault reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::LlmComplete => "llm-complete",
            FaultPoint::TitleVector => "title-vector",
            FaultPoint::ContentVector => "content-vector",
            FaultPoint::Reranker => "reranker",
            FaultPoint::QueuePost => "queue-post",
            FaultPoint::IngestPoll => "ingest-poll",
            FaultPoint::WorkerServe => "worker-serve",
        }
    }
}

/// What an armed fault does to a call inside its window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The call fails outright.
    Fail,
    /// The call succeeds after an extra simulated delay (seconds).
    Delay(f64),
    /// The call panics — [`FaultPlan::check`] unwinds instead of
    /// returning. Only meaningful at points whose caller runs under
    /// panic isolation (the serving executor's workers); injecting it
    /// elsewhere would abort the test, which is the correct loud
    /// failure for a mis-targeted plan.
    Panic,
}

/// One scripted fault: calls `from_call..to_call` (0-based, half-open)
/// at `point` behave as `kind`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Where the fault fires.
    pub point: FaultPoint,
    /// First affected call ordinal at that point.
    pub from_call: u64,
    /// One past the last affected call ordinal.
    pub to_call: u64,
    /// Failure or latency.
    pub kind: FaultKind,
}

/// A fault that fired (returned from [`FaultPlan::check`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// The point that failed.
    pub point: FaultPoint,
    /// The call ordinal that hit the fault window.
    pub call: u64,
}

/// An immutable fault script plus its per-point call counters.
#[derive(Debug)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
    counters: [AtomicU64; 7],
    disarmed: AtomicBool,
    injected: AtomicU64,
}

impl FaultPlan {
    /// A plan running `specs`.
    pub fn new(specs: Vec<FaultSpec>) -> Self {
        FaultPlan {
            specs,
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            disarmed: AtomicBool::new(false),
            injected: AtomicU64::new(0),
        }
    }

    /// An empty plan (never faults; useful as a control).
    pub fn none() -> Self {
        Self::new(Vec::new())
    }

    /// Derive a plan from `seed`: two to four faults over the named
    /// points, with short early windows so even a brief chaos run
    /// crosses them, biased towards hard failures over latency.
    pub fn seeded(seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let count = rng.gen_range(2..=4);
        let mut specs = Vec::with_capacity(count);
        for _ in 0..count {
            let point = SEEDED_POINTS[rng.gen_range(0..SEEDED_POINTS.len())];
            let from_call = rng.gen_range(0..4);
            let width = rng.gen_range(1..=6);
            let kind = if rng.gen_bool(0.75) {
                FaultKind::Fail
            } else {
                FaultKind::Delay(rng.gen_range(0.05..0.75))
            };
            specs.push(FaultSpec {
                point,
                from_call,
                to_call: from_call + width,
                kind,
            });
        }
        Self::new(specs)
    }

    /// Derive a worker-panic plan from `seed`: one or two
    /// [`FaultKind::Panic`] windows at [`FaultPoint::WorkerServe`],
    /// each one or two calls wide, inside the first dozen serves. The
    /// chaos suite runs these against the serving executor and asserts
    /// the pool self-heals with no lost requests.
    pub fn seeded_worker_panics(seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let count = rng.gen_range(1..=2);
        let mut specs = Vec::with_capacity(count);
        for _ in 0..count {
            let from_call = rng.gen_range(0..12);
            let width = rng.gen_range(1..=2);
            specs.push(FaultSpec {
                point: FaultPoint::WorkerServe,
                from_call,
                to_call: from_call + width,
                kind: FaultKind::Panic,
            });
        }
        Self::new(specs)
    }

    /// The scripted faults.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Whether the plan (when armed) ever fails `point` outright.
    pub fn targets(&self, point: FaultPoint) -> bool {
        self.specs
            .iter()
            .any(|s| s.point == point && s.kind == FaultKind::Fail)
    }

    /// Consult the plan for the next call at `point`. Advances that
    /// point's call counter even when disarmed, so the ordinals a
    /// recovered system sees line up with a system that never faulted.
    ///
    /// `Ok(delay)` means the call proceeds after `delay` extra
    /// simulated seconds (0.0 for a healthy call); `Err` means it
    /// fails.
    pub fn check(&self, point: FaultPoint) -> Result<f64, InjectedFault> {
        let call = self.counters[point.index()].fetch_add(1, Ordering::Relaxed);
        if self.disarmed.load(Ordering::Relaxed) {
            return Ok(0.0);
        }
        let mut delay = 0.0;
        for spec in &self.specs {
            if spec.point == point && (spec.from_call..spec.to_call).contains(&call) {
                match spec.kind {
                    FaultKind::Fail => {
                        self.injected.fetch_add(1, Ordering::Relaxed);
                        return Err(InjectedFault { point, call });
                    }
                    FaultKind::Delay(extra) => delay += extra,
                    FaultKind::Panic => {
                        self.injected.fetch_add(1, Ordering::Relaxed);
                        panic!("injected panic at {} (call {call})", point.name());
                    }
                }
            }
        }
        if delay > 0.0 {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        Ok(delay)
    }

    /// Disarm the plan: the faults clear, counters keep advancing.
    pub fn clear(&self) {
        self.disarmed.store(true, Ordering::Relaxed);
    }

    /// Re-arm a cleared plan.
    pub fn rearm(&self) {
        self.disarmed.store(false, Ordering::Relaxed);
    }

    /// Whether the plan is currently armed.
    pub fn armed(&self) -> bool {
        !self.disarmed.load(Ordering::Relaxed)
    }

    /// Total faults injected (failures plus delays) so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Calls observed at `point` so far.
    pub fn calls(&self, point: FaultPoint) -> u64 {
        self.counters[point.index()].load(Ordering::Relaxed)
    }
}

/// A [`FaultPlan`] viewed as the search-path fault hook.
#[derive(Debug, Clone)]
pub struct PlanSearchHook(pub Arc<FaultPlan>);

impl SearchFaultHook for PlanSearchHook {
    fn before_stage(&self, stage: SearchStage, _query: &str) -> Result<(), StageFault> {
        let point = match stage {
            // The BM25 backbone has no fault point by design.
            SearchStage::Text => return Ok(()),
            SearchStage::TitleVector => FaultPoint::TitleVector,
            SearchStage::ContentVector => FaultPoint::ContentVector,
            SearchStage::Reranker => FaultPoint::Reranker,
        };
        // Latency injected at a search stage has nowhere to surface
        // (retrieval is not clock-modelled), so only failures matter.
        self.0.check(point).map(|_| ()).map_err(|fault| StageFault {
            stage,
            reason: format!(
                "injected fault at {} (call {})",
                fault.point.name(),
                fault.call
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_fire_on_exact_call_ordinals() {
        let plan = FaultPlan::new(vec![FaultSpec {
            point: FaultPoint::LlmComplete,
            from_call: 1,
            to_call: 3,
            kind: FaultKind::Fail,
        }]);
        assert!(plan.check(FaultPoint::LlmComplete).is_ok()); // call 0
        assert!(plan.check(FaultPoint::LlmComplete).is_err()); // call 1
        assert!(plan.check(FaultPoint::LlmComplete).is_err()); // call 2
        assert!(plan.check(FaultPoint::LlmComplete).is_ok()); // call 3
        assert_eq!(plan.injected(), 2);
        assert_eq!(plan.calls(FaultPoint::LlmComplete), 4);
    }

    #[test]
    fn points_count_independently() {
        let plan = FaultPlan::new(vec![FaultSpec {
            point: FaultPoint::QueuePost,
            from_call: 0,
            to_call: 1,
            kind: FaultKind::Fail,
        }]);
        // Traffic at other points must not consume the queue window.
        for _ in 0..5 {
            assert!(plan.check(FaultPoint::TitleVector).is_ok());
        }
        assert!(plan.check(FaultPoint::QueuePost).is_err());
        assert!(plan.check(FaultPoint::QueuePost).is_ok());
    }

    #[test]
    fn delays_accumulate_and_count_as_injected() {
        let plan = FaultPlan::new(vec![
            FaultSpec {
                point: FaultPoint::LlmComplete,
                from_call: 0,
                to_call: 2,
                kind: FaultKind::Delay(0.5),
            },
            FaultSpec {
                point: FaultPoint::LlmComplete,
                from_call: 1,
                to_call: 2,
                kind: FaultKind::Delay(0.25),
            },
        ]);
        assert_eq!(plan.check(FaultPoint::LlmComplete), Ok(0.5));
        assert_eq!(plan.check(FaultPoint::LlmComplete), Ok(0.75));
        assert_eq!(plan.check(FaultPoint::LlmComplete), Ok(0.0));
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn cleared_plans_stop_faulting_but_keep_counting() {
        let plan = FaultPlan::new(vec![FaultSpec {
            point: FaultPoint::Reranker,
            from_call: 0,
            to_call: 100,
            kind: FaultKind::Fail,
        }]);
        assert!(plan.check(FaultPoint::Reranker).is_err());
        plan.clear();
        assert!(!plan.armed());
        assert!(plan.check(FaultPoint::Reranker).is_ok());
        assert_eq!(plan.calls(FaultPoint::Reranker), 2);
        plan.rearm();
        assert!(plan.check(FaultPoint::Reranker).is_err());
    }

    #[test]
    fn panic_windows_unwind_and_count() {
        let plan = FaultPlan::new(vec![FaultSpec {
            point: FaultPoint::WorkerServe,
            from_call: 0,
            to_call: 1,
            kind: FaultKind::Panic,
        }]);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = plan.check(FaultPoint::WorkerServe);
        }));
        assert!(unwound.is_err(), "the armed window panics");
        assert_eq!(plan.injected(), 1);
        assert!(plan.check(FaultPoint::WorkerServe).is_ok(), "window passed");
        assert_eq!(plan.calls(FaultPoint::WorkerServe), 2);
    }

    #[test]
    fn seeded_worker_panic_plans_target_only_the_worker_point() {
        for seed in 0..16u64 {
            let a = FaultPlan::seeded_worker_panics(seed);
            let b = FaultPlan::seeded_worker_panics(seed);
            assert_eq!(a.specs(), b.specs(), "seed {seed} must replay");
            assert!(!a.specs().is_empty());
            for spec in a.specs() {
                assert_eq!(spec.point, FaultPoint::WorkerServe);
                assert_eq!(spec.kind, FaultKind::Panic);
                assert!(spec.to_call > spec.from_call);
            }
        }
    }

    #[test]
    fn seeded_plans_never_draw_the_worker_point() {
        // The seeded dependency matrix predates panic injection; its
        // plans must replay byte-identically, so the worker point is
        // excluded from the draw.
        for seed in 0..64u64 {
            for spec in FaultPlan::seeded(seed).specs() {
                assert_ne!(spec.point, FaultPoint::WorkerServe);
            }
        }
    }

    #[test]
    fn seeded_plans_are_reproducible_and_distinct() {
        for seed in 0..32u64 {
            let a = FaultPlan::seeded(seed);
            let b = FaultPlan::seeded(seed);
            assert_eq!(a.specs(), b.specs(), "seed {seed} must replay");
            assert!((2..=4).contains(&a.specs().len()));
            for spec in a.specs() {
                assert!(spec.to_call > spec.from_call);
            }
        }
        assert_ne!(
            FaultPlan::seeded(1).specs(),
            FaultPlan::seeded(2).specs(),
            "different seeds should produce different plans"
        );
    }
}
