//! The four gated workloads. Each sets the system up `setup_repetitions`
//! times (reporting the median as `setup_s`), measures for `seconds`
//! in a closed loop, checks what came back, and reports every
//! end-to-end metric of `report::END_TO_END`.

use std::collections::HashSet;
use std::sync::Barrier;
use std::time::Instant;

use uniask_core::{Backend, DurabilityConfig, UniAsk};
use uniask_eval::metrics::reciprocal_rank;

use crate::checks::{
    check_no_resurrection, check_read_your_writes, check_restart, Failure, Observed, Outcome,
};
use crate::config::{uniask_config, Scale, ASK_CLIENTS, HOT_ROTATION, ZIPF_S};
use crate::inputs::{
    generate, marker_token, Inputs, LiveOp, LiveSchedule, Question, SplitMix64, Zipf,
};
use crate::report::{Metric, RunResult};
use crate::stats::{mean, median, percentile, sorted, window_summaries};
use crate::system::{ask, build, build_durable, recover, rss_mb, update_message};

/// Times a saved index is loaded back (or a store recovered) per
/// build: loading is quick and allocation-bound, so one reading of it
/// does not repeat.
const RESTARTS: usize = 3;

/// Times `live_update` recovers from its store after the restart.
const RECOVERIES: usize = 5;

/// Share of `--seconds` the ask workloads spend measuring latency
/// with one client; the rest measures throughput with `ASK_CLIENTS`.
const LATENCY_SHARE: f64 = 0.6;

/// Consecutive asks summarised together: the fewest that leave ten
/// samples beyond the 95th percentile.
const ASK_WINDOW: usize = 200;

/// Window over which the two-client phase counts completed asks.
const QPS_WINDOW_S: f64 = 0.5;

/// Run one workload by name.
pub fn run(workload: &str, seed: u64, seconds: f64, scale: &Scale) -> RunResult {
    let started = Instant::now();
    let mut run = Run::new(workload, seed, seconds, scale);
    match workload {
        "ask_cold" => run.ask_cold(),
        "ask_hot" => run.ask_hot(),
        "ingest_bulk" => run.ingest_bulk(),
        "live_update" => run.live_update(),
        other => panic!("unknown workload `{other}`"),
    }
    run.finish(started.elapsed().as_secs_f64())
}

/// Retrieval quality over the distinct questions a workload asked,
/// against the generator's ground truth.
#[derive(Default)]
struct Quality {
    human: Vec<f64>,
    keyword: Vec<f64>,
    answered: usize,
    asked: usize,
}

impl Quality {
    /// `gone` are pages deleted since the ground truth was made.
    fn record(&mut self, question: &Question, observed: &Observed, gone: &HashSet<String>) {
        self.asked += 1;
        self.answered += usize::from(observed.outcome == Outcome::Answer);
        let relevant: HashSet<String> = question
            .relevant
            .iter()
            .filter(|id| !gone.contains(*id))
            .cloned()
            .collect();
        if relevant.is_empty() {
            return;
        }
        let rr = reciprocal_rank(&observed.documents, &relevant);
        if question.keyword {
            self.keyword.push(rr);
        } else {
            self.human.push(rr);
        }
    }
}

/// What the timed asks of a run add up to.
#[derive(Default)]
struct AskLog {
    latencies_ms: Vec<f64>,
    /// The ask workloads' two-client phase: asks completed per second
    /// in each window. Empty on the one-client workloads, whose
    /// `ask_qps` is the reciprocal of the mean latency.
    qps_windows: Vec<f64>,
}

/// Per-document cost of the cold-start builds of a run, and what
/// coming back from the saved bytes cost.
#[derive(Default)]
struct BuildLog {
    ms_per_doc: Vec<f64>,
    restart_s: Vec<f64>,
    snapshot_bytes_per_doc: f64,
    rss_mb: f64,
}

struct Run<'a> {
    workload: String,
    seed: u64,
    seconds: f64,
    scale: &'a Scale,
    attempted: u64,
    failures: Vec<Failure>,
    notes: Vec<String>,
    setup_s: Vec<f64>,
    asks: AskLog,
    builds: BuildLog,
    /// `live_update` replaces the build-derived write metrics with its
    /// `log_and_apply` latencies; `write_mean_ms` is then the median
    /// over checkpoint cycles of this many updates.
    live_writes: Option<(Vec<f64>, usize)>,
    quality: Quality,
}

impl<'a> Run<'a> {
    fn new(workload: &str, seed: u64, seconds: f64, scale: &'a Scale) -> Self {
        Run {
            workload: workload.to_string(),
            seed,
            seconds,
            scale,
            attempted: 0,
            failures: Vec::new(),
            notes: Vec::new(),
            setup_s: Vec::new(),
            asks: AskLog::default(),
            builds: BuildLog::default(),
            live_writes: None,
            quality: Quality::default(),
        }
    }

    fn fail_if(&mut self, condition: bool, message: String) {
        self.attempted += 1;
        if condition {
            self.failures.push(Failure::Workload(message));
        }
    }

    /// Record one cold-start build: its per-document cost, documents
    /// that did not get indexed, and (first build of the process only)
    /// the resident set right after it.
    fn record_build(&mut self, inputs: &Inputs, build_s: f64, unindexed: usize) {
        let docs = inputs.kb.documents.len();
        if self.builds.ms_per_doc.is_empty() {
            self.builds.rss_mb = rss_mb();
        }
        self.builds.ms_per_doc.push(build_s * 1e3 / docs as f64);
        self.attempted += docs as u64;
        if unindexed > 0 {
            self.failures.push(Failure::UnindexedDocuments(unindexed));
        }
    }

    /// Save the index, load it back, and record size and load time.
    /// Returns the restored system.
    fn record_restart(&mut self, app: &UniAsk) -> Option<UniAsk> {
        let snapshot = app.save_index();
        let documents = app.index().stats().documents.max(1);
        self.builds.snapshot_bytes_per_doc = snapshot.len() as f64 / documents as f64;
        let mut restored = None;
        for _ in 0..RESTARTS {
            drop(restored.take());
            let started = Instant::now();
            let loaded = UniAsk::from_snapshot(uniask_config(), &snapshot);
            self.builds.restart_s.push(started.elapsed().as_secs_f64());
            self.attempted += 1;
            match loaded {
                Ok(app) => restored = Some(app),
                Err(e) => {
                    self.failures.push(Failure::DurabilityError(e.to_string()));
                    return None;
                }
            }
        }
        restored
    }

    /// Set-up of the two ask workloads: inputs plus a built index,
    /// `setup_repetitions` times; the last one is kept.
    fn setup_built(&mut self) -> (Inputs, UniAsk) {
        let mut kept = None;
        for _ in 0..self.scale.setup_repetitions {
            drop(kept.take()); // free the previous system before building the next
            let started = Instant::now();
            let inputs = generate(self.seed, self.scale);
            let (app, build_s, unindexed) = build(&inputs.kb);
            self.setup_s.push(started.elapsed().as_secs_f64());
            self.record_build(&inputs, build_s, unindexed);
            self.record_restart(&app);
            kept = Some((inputs, app));
        }
        kept.expect("at least one set-up repetition")
    }

    fn warm_up(&mut self, backend: &Backend, inputs: &Inputs) {
        for question in &inputs.warmup {
            let (_, outcome) = ask(backend, "warmup", question);
            self.attempted += 1;
            self.failures.extend(outcome.err());
        }
    }

    /// One ask whose answer is compared later: a failed one is recorded
    /// and stands in as an answer that equals no real one.
    fn probe(&mut self, backend: &Backend, question: &Question) -> (f64, Observed) {
        let (latency_ms, outcome) = ask(backend, "probe", &question.text);
        self.attempted += 1;
        let observed = outcome.unwrap_or_else(|failure| {
            self.failures.push(failure);
            Observed {
                documents: Vec::new(),
                outcome: Outcome::ServiceError,
            }
        });
        (latency_ms, observed)
    }

    /// Cache hits as a share of lookups since `before`.
    fn cache_hit_share(backend: &Backend, before: (u64, u64)) -> f64 {
        let (hits, misses) = cache_counts(backend);
        let (hits, misses) = (hits - before.0, misses - before.1);
        hits as f64 / (hits + misses).max(1) as f64
    }

    /// The measured part of both ask workloads. `keys(client, n)` is
    /// the index of the `n`-th question client `client` asks.
    ///
    /// Latency is measured with one client for `LATENCY_SHARE` of the
    /// time, throughput with `ASK_CLIENTS` for the rest: with both
    /// cores busy the box's latencies wander by over a tenth from
    /// second to second, with one they repeat within a few percent.
    /// The first phase asks at least `first_pass` questions, so that
    /// every question's first answer is on record whatever the time.
    fn measure_asks<K>(
        &mut self,
        backend: &Backend,
        questions: &[&Question],
        first: &mut [Option<Observed>],
        first_pass: usize,
        keys: K,
    ) where
        K: Fn(usize, usize) -> usize + Sync,
    {
        // Phase 1: one client, on this thread.
        let seconds = self.seconds * LATENCY_SHARE;
        let began = Instant::now();
        let mut n = 0;
        while n < first_pass || began.elapsed().as_secs_f64() < seconds {
            let key = keys(0, n);
            let (latency_ms, outcome) = ask(backend, "client-0", &questions[key].text);
            self.asks.latencies_ms.push(latency_ms);
            match outcome {
                Err(failure) => self.failures.push(failure),
                Ok(observed) => match &first[key] {
                    Some(earlier) if *earlier != observed => {
                        self.failures.push(Failure::NotRepeatable)
                    }
                    Some(_) => {}
                    None => first[key] = Some(observed),
                },
            }
            n += 1;
        }
        self.attempted += n as u64;
        let asked = n;

        // Phase 2: all clients; only completion times are kept.
        let seconds = self.seconds - seconds;
        let first = &*first;
        let barrier = Barrier::new(ASK_CLIENTS);
        let logs: Vec<(Vec<f64>, Vec<Failure>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..ASK_CLIENTS)
                .map(|c| {
                    let (barrier, keys) = (&barrier, &keys);
                    scope.spawn(move || {
                        let user = format!("client-{c}");
                        let (mut done_at, mut failures) = (Vec::new(), Vec::new());
                        barrier.wait();
                        let began = Instant::now();
                        // Carry on where phase 1 stopped.
                        let mut n = asked / ASK_CLIENTS;
                        while began.elapsed().as_secs_f64() < seconds {
                            let key = keys(1 + c, n);
                            let (_, outcome) = ask(backend, &user, &questions[key].text);
                            done_at.push(began.elapsed().as_secs_f64());
                            match outcome {
                                Err(failure) => failures.push(failure),
                                Ok(observed) => {
                                    if first[key].as_ref().is_some_and(|f| *f != observed) {
                                        failures.push(Failure::NotRepeatable);
                                    }
                                }
                            }
                            n += 1;
                        }
                        (done_at, failures)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        // Asks completed per second in each whole window, all clients
        // together; `ask_qps` is the median window.
        let windows = (seconds / QPS_WINDOW_S).floor() as usize;
        let mut completed = vec![0usize; windows];
        for (done_at, failures) in logs {
            self.attempted += done_at.len() as u64;
            self.failures.extend(failures);
            for t in done_at {
                if let Some(count) = completed.get_mut((t / QPS_WINDOW_S) as usize) {
                    *count += 1;
                }
            }
        }
        self.asks.qps_windows = completed
            .into_iter()
            .map(|count| count as f64 / QPS_WINDOW_S)
            .collect();
    }

    fn ask_cold(&mut self) {
        let (inputs, app) = self.setup_built();
        let backend = Backend::new(app);
        self.warm_up(&backend, &inputs);

        // Fixed order, again and again. In the two-client phase the
        // clients take alternate questions, so between two asks of the
        // same question lie all the others.
        let questions: Vec<&Question> = inputs.questions.iter().collect();
        let mut first = vec![None; questions.len()];
        let total = questions.len();
        let before = cache_counts(&backend);
        self.measure_asks(
            &backend,
            &questions,
            &mut first,
            total,
            |client, n| match client {
                0 => n % total,
                c => ((c - 1) + n * ASK_CLIENTS) % total,
            },
        );

        let hit_share = Self::cache_hit_share(&backend, before);
        self.notes.push(format!(
            "cache_hit_share={hit_share:.4} distinct_questions={total}"
        ));
        if self.scale.comparable {
            self.fail_if(
                hit_share > 0.01,
                format!("ask_cold hit the cache on {hit_share:.4} of lookups (limit 0.01)"),
            );
        }
        let gone = HashSet::new();
        for (question, observed) in questions.iter().zip(&first) {
            if let Some(observed) = observed {
                self.quality.record(question, observed, &gone);
            }
        }
    }

    fn ask_hot(&mut self) {
        let (inputs, app) = self.setup_built();
        let backend = Backend::new(app);
        self.warm_up(&backend, &inputs);

        // The hot keys fit the cache; one pass fills it and fixes what
        // every later answer must equal.
        let hot: Vec<&Question> = inputs.questions.iter().take(self.scale.hot_keys).collect();
        let gone = HashSet::new();
        let mut first: Vec<Option<Observed>> = Vec::with_capacity(hot.len());
        for question in &hot {
            let (_, outcome) = ask(&backend, "prefill", &question.text);
            self.attempted += 1;
            match outcome {
                Ok(observed) => {
                    self.quality.record(question, &observed, &gone);
                    first.push(Some(observed));
                }
                Err(failure) => {
                    self.failures.push(failure);
                    first.push(None);
                }
            }
        }

        // Each client's draws are a function of (seed, client, n).
        let zipf = Zipf::new(hot.len(), ZIPF_S);
        let seed = self.seed;
        let before = cache_counts(&backend);
        let keys = hot.len();
        self.measure_asks(&backend, &hot, &mut first, 0, |client, n| {
            let stream = seed ^ ((client as u64) << 40) ^ n as u64;
            (zipf.sample(&mut SplitMix64::new(stream)) + n / HOT_ROTATION) % keys
        });

        let hit_share = Self::cache_hit_share(&backend, before);
        self.notes.push(format!(
            "cache_hit_share={hit_share:.4} hot_keys={}",
            hot.len()
        ));
        self.fail_if(
            hit_share < 0.99,
            format!("ask_hot hit the cache on only {hit_share:.4} of lookups (floor 0.99)"),
        );
    }

    fn ingest_bulk(&mut self) {
        // Set-up is generation only: the build is what is measured.
        let mut inputs = None;
        for _ in 0..self.scale.setup_repetitions {
            let started = Instant::now();
            inputs = Some(generate(self.seed, self.scale));
            self.setup_s.push(started.elapsed().as_secs_f64());
        }
        let inputs = inputs.expect("at least one set-up repetition");
        let probes: Vec<&Question> = inputs.questions.iter().take(self.scale.probes).collect();
        let gone = HashSet::new();

        let began = Instant::now();
        let mut builds = 0;
        while builds < self.scale.min_builds || began.elapsed().as_secs_f64() < self.seconds {
            let (app, build_s, unindexed) = build(&inputs.kb);
            self.record_build(&inputs, build_s, unindexed);
            let Some(restored) = self.record_restart(&app) else {
                return;
            };
            // Cold-start asks: the same probes against the built system
            // and the one loaded from its snapshot must agree.
            let built = Backend::new(app);
            let restored = Backend::new(restored);
            let (mut before, mut after) = (Vec::new(), Vec::new());
            for question in &probes {
                for (backend, answers) in [(&built, &mut before), (&restored, &mut after)] {
                    let (latency_ms, observed) = self.probe(backend, question);
                    self.asks.latencies_ms.push(latency_ms);
                    answers.push(observed);
                }
            }
            self.attempted += probes.len() as u64;
            self.failures.extend(check_restart(&before, &after));
            if builds == 0 {
                for (question, observed) in probes.iter().zip(&before) {
                    self.quality.record(question, observed, &gone);
                }
            }
            builds += 1;
        }
        self.notes.push(format!("builds={builds}"));
    }

    fn live_update(&mut self) {
        let durability_config = DurabilityConfig::default();
        let checkpoint_every = durability_config.checkpoint_every;
        let mut kept = None;
        for _ in 0..self.scale.setup_repetitions {
            drop(kept.take());
            let started = Instant::now();
            let inputs = generate(self.seed, self.scale);
            let durable = match build_durable(&inputs.kb, durability_config.clone()) {
                Ok(durable) => durable,
                Err(failure) => {
                    self.failures.push(failure);
                    return;
                }
            };
            self.setup_s.push(started.elapsed().as_secs_f64());
            self.record_build(&inputs, durable.build_s, durable.unindexed);
            kept = Some((inputs, durable));
        }
        let (inputs, durable) = kept.expect("at least one set-up repetition");
        let (vfs, mut durability) = (durable.vfs, durable.durability);
        let mut backend = Backend::new(durable.app);
        self.warm_up(&backend, &inputs);

        // One client: `apply_update` takes `&mut UniAsk`.
        let mut deleted: HashSet<String> = HashSet::new();
        let mut write_ms = Vec::new();
        let (mut upserts, mut deletes) = (0u64, 0u64);
        let min_updates = self.scale.min_checkpoints * checkpoint_every;
        let began = Instant::now();
        for op in LiveSchedule::new(self.seed, inputs.kb.documents.len(), inputs.questions.len()) {
            if began.elapsed().as_secs_f64() >= self.seconds && write_ms.len() as u64 >= min_updates
            {
                break;
            }
            self.attempted += 1;
            match op {
                LiveOp::Ask { question } => {
                    let (latency_ms, outcome) =
                        ask(&backend, "client-0", &inputs.questions[question].text);
                    self.asks.latencies_ms.push(latency_ms);
                    match outcome {
                        Ok(observed) => self
                            .failures
                            .extend(check_no_resurrection(&observed, &deleted).err()),
                        Err(failure) => self.failures.push(failure),
                    }
                }
                update => {
                    let message = update_message(&inputs.kb, update).expect("not an ask");
                    let started = Instant::now();
                    let applied = durability.log_and_apply(backend.app_mut(), message);
                    write_ms.push(started.elapsed().as_secs_f64() * 1e3);
                    if let Err(e) = applied {
                        self.failures.push(Failure::DurabilityError(e.to_string()));
                        continue;
                    }
                    match update {
                        LiveOp::Upsert { doc, marker } => {
                            upserts += 1;
                            // Read-your-writes: not part of the ask latencies
                            // (a one-token query is not what employees type).
                            self.attempted += 1;
                            let (_, outcome) = ask(&backend, "client-0", &marker_token(marker));
                            let page = &inputs.kb.documents[doc].id;
                            self.failures.extend(
                                outcome
                                    .and_then(|observed| check_read_your_writes(&observed, page))
                                    .err(),
                            );
                        }
                        LiveOp::Delete { doc } => {
                            deletes += 1;
                            deleted.insert(inputs.kb.documents[doc].id.clone());
                        }
                        LiveOp::Ask { .. } => unreachable!("asks are handled above"),
                    }
                }
            }
        }
        let updates = upserts + deletes;
        let checkpoints = updates / checkpoint_every.max(1);
        self.notes.push(format!(
            "asks={} upserts={upserts} deletes={deletes} automatic_checkpoints={checkpoints} \
             checkpoint_every={checkpoint_every}",
            self.asks.latencies_ms.len()
        ));
        self.fail_if(
            checkpoints < self.scale.min_checkpoints,
            format!("only {checkpoints} automatic checkpoints"),
        );

        // Fixed probes before the restart...
        let probes: Vec<&Question> = inputs.questions.iter().take(self.scale.probes).collect();
        let mut before = Vec::new();
        for question in &probes {
            let (_, observed) = self.probe(&backend, question);
            self.failures
                .extend(check_no_resurrection(&observed, &deleted).err());
            self.quality.record(question, &observed, &deleted);
            before.push(observed);
        }

        // ...a simulated restart (whatever was not synced is lost)...
        drop(durability);
        drop(backend);
        vfs.restart(self.seed);
        let mut recovered = None;
        for _ in 0..RECOVERIES {
            drop(recovered.take());
            let started = Instant::now();
            let outcome = recover(&vfs, durability_config.clone());
            self.builds.restart_s.push(started.elapsed().as_secs_f64());
            self.attempted += 1;
            match outcome {
                Ok((app, _, report)) => {
                    let expected = updates % checkpoint_every.max(1);
                    self.fail_if(
                        report.wal_records_replayed != expected,
                        format!(
                            "recovery replayed {} WAL records, expected {expected}",
                            report.wal_records_replayed
                        ),
                    );
                    recovered = Some(app);
                }
                Err(failure) => {
                    self.failures.push(failure);
                    return;
                }
            }
        }
        let app = recovered.expect("at least one recovery");
        let documents = app.index().stats().documents.max(1);
        self.builds.snapshot_bytes_per_doc = app.save_index().len() as f64 / documents as f64;

        // ...and the same probes after it.
        let backend = Backend::new(app);
        let after: Vec<Observed> = probes
            .iter()
            .map(|question| self.probe(&backend, question).1)
            .collect();
        self.attempted += probes.len() as u64;
        self.failures.extend(check_restart(&before, &after));
        self.live_writes = Some((write_ms, checkpoint_every.max(1) as usize));
    }

    fn finish(mut self, wall_s: f64) -> RunResult {
        let mut metrics = Vec::new();
        let asks = &self.asks.latencies_ms;
        let (writes, write_cycle) = match self.live_writes.take() {
            Some((latencies_ms, cycle)) => (latencies_ms, Some(cycle)),
            None => (self.builds.ms_per_doc.clone(), None),
        };
        let q = &self.quality;
        // A run cut short by a failure has holes; it reports no metrics.
        let complete = !(asks.is_empty()
            || writes.is_empty()
            || self.setup_s.is_empty()
            || self.builds.restart_s.is_empty()
            || q.human.is_empty()
            || q.keyword.is_empty());
        if complete {
            // Every timing is the median over in-run repetitions: windows
            // of consecutive asks, checkpoint cycles of updates, builds.
            let window_percentile = |p: f64| {
                median(&window_summaries(asks, ASK_WINDOW, |w| {
                    percentile(&sorted(w), p)
                }))
            };
            let ask_qps = if self.asks.qps_windows.is_empty() {
                1e3 / median(&window_summaries(asks, ASK_WINDOW, mean))
            } else {
                median(&self.asks.qps_windows)
            };
            let write_mean = match write_cycle {
                Some(cycle) => median(&window_summaries(&writes, cycle, mean)),
                None => mean(&writes),
            };
            let pooled: Vec<f64> = q.human.iter().chain(&q.keyword).copied().collect();
            self.notes.push(format!(
                "mrr_human={:.4} ({} questions) mrr_keyword={:.4} ({} questions)",
                mean(&q.human),
                q.human.len(),
                mean(&q.keyword),
                q.keyword.len()
            ));
            metrics = vec![
                Metric::new("setup_s", median(&self.setup_s), "s", self.setup_s.len()),
                Metric::new("ask_p50_ms", window_percentile(50.0), "ms", asks.len()),
                Metric::new("ask_p95_ms", window_percentile(95.0), "ms", asks.len()),
                Metric::new("ask_qps", ask_qps, "1/s", asks.len()),
                Metric::new("write_p50_ms", median(&writes), "ms", writes.len()),
                Metric::new("write_mean_ms", write_mean, "ms", writes.len()),
                Metric::new(
                    "restart_s",
                    median(&self.builds.restart_s),
                    "s",
                    self.builds.restart_s.len(),
                ),
                Metric::new(
                    "snapshot_bytes_per_doc",
                    self.builds.snapshot_bytes_per_doc,
                    "B",
                    1,
                ),
                Metric::new("rss_after_build_mb", self.builds.rss_mb, "MB", 1),
                Metric::new("mrr", mean(&pooled), "ratio", pooled.len()),
                Metric::new(
                    "answered_share",
                    q.answered as f64 / q.asked as f64,
                    "ratio",
                    q.asked,
                ),
            ];
        }
        RunResult {
            workload: self.workload,
            attempted: self.attempted,
            failures: self.failures,
            metrics,
            wall_s,
            notes: self.notes,
        }
    }
}

/// Query-cache hits and misses so far.
fn cache_counts(backend: &Backend) -> (u64, u64) {
    backend
        .app()
        .index()
        .cache_stats()
        .map_or((0, 0), |stats| (stats.hits, stats.misses))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::highest_supported_percentile;

    #[test]
    fn an_ask_window_is_the_smallest_that_supports_the_95th_percentile() {
        assert_eq!(highest_supported_percentile(ASK_WINDOW), Some(95.0));
        assert_eq!(highest_supported_percentile(ASK_WINDOW - 1), Some(90.0));
    }
}
