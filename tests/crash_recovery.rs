//! Crash-recovery suite: kill the durable ingest pipeline at every
//! injected crash point and prove that recovery restores retrieval
//! state byte-identical to an uninterrupted run.
//!
//! * The sweep test schedules a crash at *every* mutating VFS operation
//!   the reference run performs — mid-WAL-append, mid-checkpoint
//!   temp-write, before the atomic rename, after the rename but before
//!   pruning — under a seeded torn-write model, then restarts, recovers
//!   and re-feeds the unapplied tail.
//! * The named-window test pins the classic crash points explicitly
//!   (power cut before the write, torn write, crash just after).
//! * The bit-rot test corrupts the newest checkpoint on disk and
//!   asserts recovery falls back one manifest generation and replays a
//!   longer WAL tail without losing data.
//! * The reclaim sweep repeats the crash sweep over a script of
//!   re-upserts whose dead vectors cross the index's rebuild threshold
//!   between two checkpoints: recovered and uninterrupted runs must
//!   rebuild the vector graphs at the same message.
//!
//! The default matrix covers two fixed seeds; CI fans out further via
//! the `UNIASK_TEST_SEED` environment variable.

#[path = "support/seeds.rs"]
mod seeds;

use std::sync::Arc;

use uniask::core::app::{AskResponse, GenerationOutcome, UniAsk};
use uniask::core::config::UniAskConfig;
use uniask::core::durability::{Durability, DurabilityConfig};
use uniask::core::ingestion::IngestMessage;
use uniask::corpus::generator::CorpusGenerator;
use uniask::corpus::kb::KbDocument;
use uniask::corpus::scale::CorpusScale;
use uniask::search::hybrid::IndexStats;
use uniask::store::checkpoint::CheckpointConfig;
use uniask::store::vfs::{CrashPlan, MemVfs, Vfs};
use uniask::store::wal::WalConfig;

fn config() -> UniAskConfig {
    UniAskConfig {
        embedding_dim: 32,
        ..UniAskConfig::default()
    }
}

fn durability_config(checkpoint_every: u64) -> DurabilityConfig {
    DurabilityConfig {
        wal: WalConfig {
            dir: "wal".into(),
            // Small segments so the script crosses rotation boundaries.
            segment_max_bytes: 4 * 1024,
        },
        checkpoint: CheckpointConfig {
            dir: "ckpt".into(),
            keep: 2,
        },
        checkpoint_every,
    }
}

fn docs() -> Vec<KbDocument> {
    pages(8)
}

fn pages(n: usize) -> Vec<KbDocument> {
    let kb = CorpusGenerator::new(CorpusScale::tiny(), 11).generate();
    kb.documents.into_iter().take(n).collect()
}

/// The ingest script most of the suite replays: initial upserts, two
/// in-place edits, two deletions — 12 messages total.
fn script() -> Vec<IngestMessage> {
    let docs = docs();
    let mut messages: Vec<IngestMessage> =
        docs.iter().cloned().map(IngestMessage::Upsert).collect();
    for i in [1usize, 4] {
        let mut edited = docs[i].clone();
        edited.last_modified += 1000;
        edited.html = format!("<p>versione rivista di {}</p>", edited.title);
        messages.push(IngestMessage::Upsert(edited));
    }
    messages.push(IngestMessage::Delete(docs[2].id.clone()));
    messages.push(IngestMessage::Delete(docs[6].id.clone()));
    messages
}

/// Eight initial upserts; unchanged re-upserts and a deletion of
/// one-chunk pages, each leaving dead vectors, until the graphs are
/// rebuilt; then the deleted page and two new ones, which add no dead
/// vector — 15 messages.
fn reclaim_script() -> Vec<IngestMessage> {
    let pages = pages(10);
    let mut messages: Vec<IngestMessage> = pages[..8]
        .iter()
        .cloned()
        .map(IngestMessage::Upsert)
        .collect();
    messages.push(IngestMessage::Upsert(pages[1].clone()));
    messages.push(IngestMessage::Upsert(pages[2].clone()));
    messages.push(IngestMessage::Delete(pages[4].id.clone()));
    messages.push(IngestMessage::Upsert(pages[5].clone()));
    for page in [4, 8, 9] {
        messages.push(IngestMessage::Upsert(pages[page].clone()));
    }
    messages
}

fn questions() -> Vec<String> {
    let docs = docs();
    vec![
        format!("Come funziona: {}?", docs[0].title),
        format!("Come funziona: {}?", docs[4].title),
        format!("Come funziona: {}?", docs[7].title),
    ]
}

type Footprint = (GenerationOutcome, Vec<String>, Vec<String>);

fn footprint(r: &AskResponse) -> Footprint {
    (
        r.generation.clone(),
        r.documents.iter().map(|d| d.parent_doc.clone()).collect(),
        r.context.iter().map(|c| c.content.clone()).collect(),
    )
}

/// The answers to every question, plus the index's size counters
/// (live chunks, tombstones, nodes per vector graph).
fn footprints(app: &UniAsk) -> (Vec<Footprint>, IndexStats) {
    (
        questions().iter().map(|q| footprint(&app.ask(q))).collect(),
        app.index().stats(),
    )
}

/// The uninterrupted run of `script` that every crashed run must
/// converge to.
fn uninterrupted(script: fn() -> Vec<IngestMessage>) -> (Vec<Footprint>, IndexStats) {
    let mut app = UniAsk::new(config());
    for message in script() {
        app.apply_update(message);
    }
    footprints(&app)
}

/// [`uninterrupted`] for [`script`] (computed once — the sweep
/// compares against it hundreds of times).
fn expected_footprints() -> &'static (Vec<Footprint>, IndexStats) {
    static EXPECTED: std::sync::OnceLock<(Vec<Footprint>, IndexStats)> = std::sync::OnceLock::new();
    EXPECTED.get_or_init(|| uninterrupted(script))
}

/// Run the full `script` through the durable pipeline on `vfs`,
/// stopping at the first injected crash. Returns how many messages
/// were logged-and-applied before the crash (all of them if none).
fn run_script(
    script: fn() -> Vec<IngestMessage>,
    vfs: &Arc<MemVfs>,
    checkpoint_every: u64,
) -> usize {
    let (mut app, mut durability, _) = Durability::recover(
        config(),
        Arc::clone(vfs) as Arc<dyn Vfs>,
        durability_config(checkpoint_every),
    )
    .expect("recover on a blank or clean store cannot fail");
    let messages = script();
    let total = messages.len();
    for (i, message) in messages.into_iter().enumerate() {
        if durability.log_and_apply(&mut app, message).is_err() {
            return i;
        }
    }
    total
}

/// Restart after a crash, recover, re-feed the unapplied tail of
/// `script`, and assert the answers are byte-identical to `expected`,
/// its uninterrupted run.
fn recover_and_verify(
    script: fn() -> Vec<IngestMessage>,
    expected: &(Vec<Footprint>, IndexStats),
    vfs: &Arc<MemVfs>,
    checkpoint_every: u64,
    context: &str,
) {
    let messages = script();
    let (mut app, mut durability, report) = Durability::recover(
        config(),
        Arc::clone(vfs) as Arc<dyn Vfs>,
        durability_config(checkpoint_every),
    )
    .unwrap_or_else(|e| panic!("recovery failed ({context}): {e}"));
    assert!(
        report.last_lsn as usize <= messages.len(),
        "recovered past the script ({context})"
    );
    // The producer resumes from the first message durability never
    // acknowledged. LSNs start at 1, so `last_lsn` doubles as the
    // count of script messages already inside the recovered state.
    for message in messages.into_iter().skip(report.last_lsn as usize) {
        durability
            .log_and_apply(&mut app, message)
            .unwrap_or_else(|e| panic!("re-feed failed ({context}): {e}"));
    }
    assert_eq!(
        &footprints(&app),
        expected,
        "recovered answers diverge ({context})"
    );
}

#[test]
fn crash_free_durable_run_matches_the_plain_pipeline() {
    let vfs = Arc::new(MemVfs::new());
    assert_eq!(run_script(script, &vfs, 4), script().len());
    let (app, _, report) = Durability::recover(
        config(),
        Arc::clone(&vfs) as Arc<dyn Vfs>,
        durability_config(4),
    )
    .unwrap();
    assert_eq!(report.last_lsn as usize, script().len());
    assert_eq!(&footprints(&app), expected_footprints());
}

#[test]
fn recovery_is_exact_at_every_crash_point() {
    // Count the mutating operations of a clean run once; the sweep
    // then kills the pipeline at each one of them.
    let clean = Arc::new(MemVfs::new());
    assert_eq!(run_script(script, &clean, 4), script().len());
    let total_ops = clean.mutating_ops();
    assert!(total_ops > 20, "expected a rich op trace, got {total_ops}");

    // The seeds every run replays; `UNIASK_TEST_SEED=<n>` appends one more.
    for seed in seeds::seeds(&[1, 7]) {
        // Op ordinals are 0-based: a plan at `total_ops` would sit past
        // the final mutating operation and never fire.
        for op in 0..total_ops {
            let vfs = Arc::new(MemVfs::new());
            vfs.schedule_crash(CrashPlan::seeded(seed, op));
            let applied = run_script(script, &vfs, 4);
            assert!(
                vfs.is_crashed(),
                "crash at op {op} never fired (applied {applied})"
            );
            vfs.restart(seed);
            vfs.clear_crash();
            recover_and_verify(
                script,
                expected_footprints(),
                &vfs,
                4,
                &format!("seed {seed}, crash at op {op}"),
            );
        }
    }
}

#[test]
fn recovery_is_exact_at_every_crash_point_across_a_vector_reclaim() {
    const EVERY: u64 = 5;
    // Replay the script uninterrupted. After a rebuild the graphs hold
    // only live vectors although chunks were removed.
    let mut app = UniAsk::new(config());
    let mut history: Vec<IndexStats> = Vec::new();
    for message in reclaim_script() {
        app.apply_update(message);
        history.push(app.index().stats());
    }
    let no_dead = |s: &IndexStats| s.tombstones > 0 && s.content_vectors == s.live_chunks;
    let rebuild = history
        .iter()
        .position(no_dead)
        .expect("the script must rebuild")
        + 1;
    let checkpoint = rebuild / EVERY as usize * EVERY as usize;
    assert!(
        checkpoint > 0 && rebuild > checkpoint && checkpoint + EVERY as usize <= history.len(),
        "the rebuild (message {rebuild}) must fall strictly between two checkpoints"
    );
    // Recovery from the checkpoint before it must resume the count of
    // dead vectors that checkpoint holds to rebuild at the same message.
    // No later message adds a dead vector, so a recovery that missed
    // the rebuild could not converge through a later one.
    let before = &history[checkpoint - 1];
    assert!(before.content_vectors > before.live_chunks);
    assert!(history[rebuild..].iter().all(no_dead));
    let expected = uninterrupted(reclaim_script);

    let clean = Arc::new(MemVfs::new());
    assert_eq!(
        run_script(reclaim_script, &clean, EVERY),
        reclaim_script().len()
    );
    let total_ops = clean.mutating_ops();
    for seed in seeds::seeds(&[1, 7]) {
        for op in 0..total_ops {
            let vfs = Arc::new(MemVfs::new());
            vfs.schedule_crash(CrashPlan::seeded(seed, op));
            run_script(reclaim_script, &vfs, EVERY);
            assert!(vfs.is_crashed(), "crash at op {op} never fired");
            vfs.restart(seed);
            vfs.clear_crash();
            recover_and_verify(
                reclaim_script,
                &expected,
                &vfs,
                EVERY,
                &format!("reclaim script, seed {seed}, crash at op {op}"),
            );
        }
    }
}

#[test]
fn named_crash_windows_around_a_checkpoint_recover_exactly() {
    // Position the pipeline just before its first automatic checkpoint
    // (message 4 of 12 with checkpoint_every = 4), then detonate at
    // each offset into the checkpoint sequence: WAL append of the
    // triggering message, snapshot temp-write, temp fsync, atomic
    // rename, manifest temp-write/fsync/rename, and the prune after.
    type PlanAt = fn(u64) -> CrashPlan;
    let plans: Vec<(&str, PlanAt)> = vec![
        ("power cut before the op", CrashPlan::before),
        ("torn write", |op| CrashPlan::torn(op, 0.5)),
        ("crash just after the op", CrashPlan::after),
    ];
    let base_ops = {
        // Ops consumed by the three messages before the checkpoint window.
        let vfs = Arc::new(MemVfs::new());
        let (mut app, mut durability, _) = Durability::recover(
            config(),
            Arc::clone(&vfs) as Arc<dyn Vfs>,
            durability_config(4),
        )
        .unwrap();
        for message in script().into_iter().take(3) {
            durability.log_and_apply(&mut app, message).unwrap();
        }
        vfs.mutating_ops()
    };
    for (label, plan) in &plans {
        for offset in 1..=10 {
            let vfs = Arc::new(MemVfs::new());
            vfs.schedule_crash(plan(base_ops + offset));
            run_script(script, &vfs, 4);
            if !vfs.is_crashed() {
                continue; // This offset lies past the window under this plan.
            }
            vfs.restart(0xC0FFEE + offset);
            vfs.clear_crash();
            recover_and_verify(
                script,
                expected_footprints(),
                &vfs,
                4,
                &format!("{label}, offset {offset}"),
            );
        }
    }
}

#[test]
fn torn_final_wal_record_is_discarded_and_refed() {
    // Crash with a torn write on the very last WAL append: recovery
    // must truncate the half-record and the producer re-feeds it.
    let clean = Arc::new(MemVfs::new());
    // Disable checkpoints so the final ops are exactly the last append.
    assert_eq!(run_script(script, &clean, 0), script().len());
    let total_ops = clean.mutating_ops();

    let vfs = Arc::new(MemVfs::new());
    // The last message costs two ops (append + sync); tear the append.
    vfs.schedule_crash(CrashPlan::torn(total_ops - 1, 0.4));
    let applied = run_script(script, &vfs, 0);
    assert!(vfs.is_crashed());
    assert!(
        applied < script().len(),
        "the torn append must fail the final message"
    );
    vfs.restart(99);
    vfs.clear_crash();

    let (_, _, report) = Durability::recover(
        config(),
        Arc::clone(&vfs) as Arc<dyn Vfs>,
        durability_config(0),
    )
    .unwrap();
    assert!(
        (report.last_lsn as usize) < script().len(),
        "the torn final record must not be recovered as applied"
    );
    recover_and_verify(script, expected_footprints(), &vfs, 0, "torn final record");
}

#[test]
fn corrupt_latest_checkpoint_falls_back_one_generation() {
    // Checkpoint every 3 messages: generations at LSN 3/6/9/12, of
    // which the newest two (watermarks 9 and 12) are retained.
    let vfs = Arc::new(MemVfs::new());
    assert_eq!(run_script(script, &vfs, 3), script().len());

    let mut checkpoints: Vec<String> = vfs
        .list("ckpt/")
        .into_iter()
        .filter(|p| p.ends_with(".ckpt"))
        .collect();
    checkpoints.sort();
    assert!(checkpoints.len() >= 2, "need two generations on disk");
    let newest = checkpoints.last().unwrap().clone();
    let len = vfs.len(&newest).expect("checkpoint exists");
    assert!(vfs.flip_byte(&newest, len / 2), "bit rot injected");

    let (app, _, report) = Durability::recover(
        config(),
        Arc::clone(&vfs) as Arc<dyn Vfs>,
        durability_config(3),
    )
    .unwrap();
    assert_eq!(
        report.generations_skipped, 1,
        "the rotted newest generation must be skipped"
    );
    assert!(
        report.wal_records_replayed >= 3,
        "fallback means a longer WAL replay, got {}",
        report.wal_records_replayed
    );
    assert_eq!(report.last_lsn as usize, script().len(), "no data loss");
    assert_eq!(&footprints(&app), expected_footprints());
    let snapshot = app.monitoring.snapshot();
    assert!(snapshot.recovery_generation > 0);
    assert!(snapshot.wal_replays >= 3);
}

#[test]
fn recovered_index_never_revalidates_pre_crash_cache_generations() {
    // Regression (UASX v3): before the fix, restoring a checkpoint
    // reset the index's mutation generation to 0, so any query-cache
    // entry keyed with a small pre-crash generation could be served
    // again after recovery — stale hits resurrecting deleted documents.
    // The generation now travels with the snapshot and recovery resumes
    // strictly past it.
    let vfs = Arc::new(MemVfs::new());
    let pre_crash_generation = {
        let (mut app, mut durability, _) = Durability::recover(
            config(),
            Arc::clone(&vfs) as Arc<dyn Vfs>,
            durability_config(4),
        )
        .unwrap();
        for message in script() {
            durability.log_and_apply(&mut app, message).unwrap();
        }
        // Warm the cache (the default config enables it end-to-end)
        // and prove it actually serves hits pre-crash.
        let _ = footprints(&app);
        let _ = footprints(&app);
        let stats = app.index().cache_stats().expect("cache enabled");
        assert!(stats.hits > 0, "the cache must be live before the crash");
        durability.checkpoint(&mut app).unwrap();
        app.index().generation()
    };
    assert!(pre_crash_generation > 0, "the script mutated the index");

    let (mut app, mut durability, report) = Durability::recover(
        config(),
        Arc::clone(&vfs) as Arc<dyn Vfs>,
        durability_config(4),
    )
    .unwrap();
    assert_eq!(report.wal_records_replayed, 0, "checkpoint covered all");
    assert!(
        app.index().generation() > pre_crash_generation,
        "recovered generation {} must strictly exceed every pre-crash \
         generation {pre_crash_generation}, or old cache keys re-validate",
        app.index().generation()
    );
    assert_eq!(&footprints(&app), expected_footprints());

    // A post-recovery mutation must be visible through the cached path:
    // ask → delete the top document → ask again.
    let question = &questions()[0];
    let before = app.ask(question);
    let victim = before.documents[0].parent_doc.clone();
    durability
        .log_and_apply(&mut app, IngestMessage::Delete(victim.clone()))
        .unwrap();
    let after = app.ask(question);
    assert!(
        after.documents.iter().all(|d| d.parent_doc != victim),
        "stale cached hits served a deleted document after recovery"
    );
}
