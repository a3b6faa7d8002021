//! Building the system under test and asking it questions, through the
//! product entry points only. Shared by the `bench` and `trace`
//! binaries so that both measure the same system.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use uniask_core::{Backend, Durability, DurabilityConfig, IngestMessage, UniAsk};
use uniask_corpus::KnowledgeBase;
use uniask_store::vfs::{MemVfs, Vfs};

use crate::checks::{check_ask, observe, Failure, Observed};
use crate::config::{uniask_config, INGEST_WORKERS};
use crate::inputs::{revised_page, LiveOp};

/// Resident set size of this process in MB (`VmRSS`), 0 where
/// `/proc` is not available.
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cold-start build: `UniAsk::new` then `ingest_parallel` over the
/// whole knowledge base. Returns the system, the build's wall seconds
/// and how many documents did not make it into the index.
pub fn build(kb: &KnowledgeBase) -> (UniAsk, f64, usize) {
    let mut app = UniAsk::new(uniask_config());
    let started = Instant::now();
    app.ingest_parallel(kb, INGEST_WORKERS);
    let build_s = started.elapsed().as_secs_f64();
    let missing = unindexed(&app, kb);
    (app, build_s, missing)
}

fn unindexed(app: &UniAsk, kb: &KnowledgeBase) -> usize {
    kb.documents
        .len()
        .saturating_sub(app.index().stats().documents)
}

/// A system on the durable path: recovered from a blank store, built,
/// and checkpointed so that the build itself is durable.
pub struct Durable {
    pub app: UniAsk,
    pub durability: Durability,
    pub vfs: Arc<MemVfs>,
    pub build_s: f64,
    pub unindexed: usize,
}

pub fn build_durable(kb: &KnowledgeBase, config: DurabilityConfig) -> Result<Durable, Failure> {
    let vfs = Arc::new(MemVfs::new());
    let (mut app, mut durability, _) = recover(&vfs, config)?;
    let started = Instant::now();
    app.ingest_parallel(kb, INGEST_WORKERS);
    let build_s = started.elapsed().as_secs_f64();
    durability
        .checkpoint(&mut app)
        .map_err(|e| Failure::DurabilityError(e.to_string()))?;
    let unindexed = unindexed(&app, kb);
    Ok(Durable {
        app,
        durability,
        vfs,
        build_s,
        unindexed,
    })
}

/// `Durability::recover` from `vfs`: newest checkpoint plus WAL tail.
pub fn recover(
    vfs: &Arc<MemVfs>,
    config: DurabilityConfig,
) -> Result<(UniAsk, Durability, uniask_core::RecoveryReport), Failure> {
    let store: Arc<dyn Vfs> = Arc::clone(vfs) as Arc<dyn Vfs>;
    Durability::recover(uniask_config(), store, config)
        .map_err(|e| Failure::DurabilityError(e.to_string()))
}

/// The ingest message a scheduled update stands for (`None` for an ask).
pub fn update_message(kb: &KnowledgeBase, op: LiveOp) -> Option<IngestMessage> {
    match op {
        LiveOp::Ask { .. } => None,
        LiveOp::Upsert { doc, marker } => Some(IngestMessage::Upsert(revised_page(
            &kb.documents[doc],
            marker,
        ))),
        LiveOp::Delete { doc } => Some(IngestMessage::Delete(kb.documents[doc].id.clone())),
    }
}

/// One `Backend::handle_ask`, timed, with a panic caught and counted
/// as a failure. Returns the latency in milliseconds and what came back.
pub fn ask(backend: &Backend, user: &str, question: &str) -> (f64, Result<Observed, Failure>) {
    let started = Instant::now();
    let response = catch_unwind(AssertUnwindSafe(|| backend.handle_ask(user, question)));
    let latency_ms = started.elapsed().as_secs_f64() * 1e3;
    let outcome = match response {
        Ok(response) => {
            let observed = observe(&response);
            check_ask(&observed).map(|()| observed)
        }
        Err(_) => Err(Failure::Panicked),
    };
    (latency_ms, outcome)
}
