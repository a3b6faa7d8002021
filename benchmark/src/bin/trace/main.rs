//! The traced run: one client, separate from the timed run. It sets
//! the workload's system up once, replays the workload's operations
//! stage by stage (see `stages.rs`), and prints every per-layer metric
//! of BENCHMARK.json. The spans go to
//! `<target dir>/benchmark/trace_<workload>.json`.

mod stages;

use std::collections::BTreeMap;
use std::io::BufWriter;
use std::process::ExitCode;
use std::sync::Barrier;
use std::time::Instant;

use stages::{AskTracer, IngestTracer, UpdateTracer};
use uniask_benchmark::checks::Failure;
use uniask_benchmark::cli;
use uniask_benchmark::config::{
    uniask_config, Scale, ASK_CLIENTS, HOT_ROTATION, INGEST_WORKERS, ZIPF_S,
};
use uniask_benchmark::inputs::{generate, Inputs, LiveOp, LiveSchedule, SplitMix64, Zipf};
use uniask_benchmark::report::{self, Metric, RunResult};
use uniask_benchmark::spans::Recorder;
use uniask_benchmark::stats::{median, percentile, sorted};
use uniask_benchmark::system::{build_durable, recover, update_message};
use uniask_core::{Backend, DurabilityConfig, UniAsk};
use uniask_corpus::KnowledgeBase;
use uniask_store::vfs::{MemVfs, Vfs};

/// Every per-layer metric, in BENCHMARK.json's order: name and unit.
const PER_LAYER: [(&str, &str); 43] = [
    ("guardrails.check_question_us", "us"),
    ("vector.embed_query_us", "us"),
    ("search.hybrid_us", "us"),
    ("search.cache_hit_share", "ratio"),
    ("search.cache_evictions", "count"),
    ("search.text_leg_us", "us"),
    ("search.vector_legs_us", "us"),
    ("search.rrf_fuse_us", "us"),
    ("search.rerank_us", "us"),
    ("search.rerank_candidates", "count"),
    ("llm.prompt_build_us", "us"),
    ("llm.prompt_tokens", "count"),
    ("llm.complete_us", "us"),
    ("guardrails.check_answer_us", "us"),
    ("guardrails.block_share", "ratio"),
    ("core.ask_glue_us", "us"),
    ("core.replay_vs_ask_ratio", "ratio"),
    ("core.backend_overhead_us", "us"),
    ("core.two_client_scaling", "ratio"),
    ("core.ask_p99_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("text.parse_html_us", "us"),
    ("text.analyze_us", "us"),
    ("core.chunk_document_us", "us"),
    ("core.chunks_per_doc", "count"),
    ("vector.embed_chunk_us", "us"),
    ("search.add_chunk_us", "us"),
    ("vector.hnsw_insert_us", "us"),
    ("vector.hnsw_graph_bytes_per_vector", "B"),
    ("vector.hnsw_code_bytes_per_vector", "B"),
    ("core.ingest_parallel_speedup", "ratio"),
    ("core.save_index_ms", "ms"),
    ("core.snapshot_bytes", "B"),
    ("search.remove_document_us", "us"),
    ("search.tombstone_ratio", "ratio"),
    ("core.apply_upsert_us", "us"),
    ("store.wal_append_us", "us"),
    ("store.wal_bytes_per_update", "B"),
    ("core.checkpoint_ms", "ms"),
    ("store.checkpoint_bytes", "B"),
    ("core.checkpoint_share_of_write_time", "ratio"),
    ("core.recover_replayed_records", "count"),
    ("core.read_after_write_ratio", "ratio"),
];

/// Span name -> the per-layer metric its median self time feeds.
const SPAN_METRICS: [(&str, &str); 20] = [
    ("guardrails.check_question", "guardrails.check_question_us"),
    ("vector.embed_query", "vector.embed_query_us"),
    ("search.hybrid", "search.hybrid_us"),
    ("search.text_leg", "search.text_leg_us"),
    ("search.vector_legs", "search.vector_legs_us"),
    ("search.rrf_fuse", "search.rrf_fuse_us"),
    ("search.rerank", "search.rerank_us"),
    ("llm.prompt_build", "llm.prompt_build_us"),
    ("llm.complete", "llm.complete_us"),
    ("guardrails.check_answer", "guardrails.check_answer_us"),
    ("core.ask_replay", "core.ask_glue_us"),
    ("text.parse_html", "text.parse_html_us"),
    ("text.analyze", "text.analyze_us"),
    ("core.chunk_document", "core.chunk_document_us"),
    ("vector.embed_chunk", "vector.embed_chunk_us"),
    ("search.add_chunk", "search.add_chunk_us"),
    ("vector.hnsw_insert", "vector.hnsw_insert_us"),
    ("search.remove_document", "search.remove_document_us"),
    ("core.apply_upsert", "core.apply_upsert_us"),
    ("store.wal_append", "store.wal_append_us"),
];

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) if args.workload != "all" && !args.check => args,
        Ok(_) => {
            eprintln!(
                "the traced run takes one workload and no --check\n{}",
                cli::USAGE
            );
            return ExitCode::from(2);
        }
        Err(message) => {
            eprintln!("{message}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let mut trace = Trace::new(&args.workload, args.seed, args.seconds, &args.scale);
    trace.run();
    let result = trace.finish(started.elapsed().as_secs_f64());
    report::print(&result, &args.scale.describe(args.seed, args.seconds));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct Trace<'a> {
    workload: String,
    seed: u64,
    seconds: f64,
    scale: &'a Scale,
    recorder: Recorder,
    asks: AskTracer,
    /// `Backend::handle_ask` latencies outside the rotation (scaling
    /// phases), for the ungated tail.
    extra_handle_us: Vec<f64>,
    values: BTreeMap<&'static str, (f64, usize)>,
    attempted: u64,
    failures: Vec<Failure>,
    notes: Vec<String>,
}

impl<'a> Trace<'a> {
    fn new(workload: &str, seed: u64, seconds: f64, scale: &'a Scale) -> Self {
        Trace {
            workload: workload.to_string(),
            seed,
            seconds,
            scale,
            recorder: Recorder::default(),
            asks: AskTracer::new(),
            extra_handle_us: Vec::new(),
            values: BTreeMap::new(),
            attempted: 0,
            failures: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, samples));
    }

    fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        if !samples.is_empty() {
            self.set(name, median(samples), samples.len());
        }
    }

    /// How many of the questions the workload draws from.
    fn key_space(&self, inputs: &Inputs) -> usize {
        match self.workload.as_str() {
            "ask_hot" => self.scale.hot_keys,
            "ingest_bulk" => self.scale.probes,
            _ => inputs.questions.len(),
        }
        .min(inputs.questions.len())
    }

    /// The questions the workload asks, in its order: Zipf draws over
    /// the hot keys on `ask_hot`, the probes on `ingest_bulk`, the
    /// whole set in order elsewhere.
    fn question_stream<'i>(&self, inputs: &'i Inputs) -> impl FnMut() -> &'i str {
        let hot = self.workload == "ask_hot";
        let keys = self.key_space(inputs);
        let zipf = Zipf::new(keys, ZIPF_S);
        let mut rng = SplitMix64::new(self.seed ^ 0x5452_4143);
        let mut position = 0;
        move || {
            position += 1;
            let key = if hot {
                (zipf.sample(&mut rng) + position / HOT_ROTATION) % keys
            } else {
                position % keys
            };
            inputs.questions[key].text.as_str()
        }
    }

    /// Rotate direct ask / replay / handle_ask over `next` for `seconds`.
    fn ask_rotation<'q>(
        &mut self,
        backend: &Backend,
        seconds: f64,
        mut next: impl FnMut() -> &'q str,
    ) {
        let began = Instant::now();
        // Whole rotations only, so the three modes see equally many asks.
        while began.elapsed().as_secs_f64() < seconds {
            for _ in 0..3 {
                self.asks.step(&mut self.recorder, backend, next());
                self.attempted += 1;
            }
        }
    }

    /// `ask_qps` at 2 clients over 1 client, each for `seconds`.
    fn client_scaling(&mut self, backend: &Backend, inputs: &Inputs, seconds: f64) {
        let hot = self.workload == "ask_hot";
        let keys = self.key_space(inputs);
        let zipf = Zipf::new(keys, ZIPF_S);
        let mut rates = Vec::new();
        // Carry on in the question order where the rotation stopped, so
        // that `ask_cold` stays cold.
        let mut offset = self.asks.asked();
        for clients in [1, ASK_CLIENTS] {
            let barrier = Barrier::new(clients);
            let seed = self.seed;
            let began = Instant::now();
            let logs: Vec<Vec<f64>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let (barrier, zipf) = (&barrier, &zipf);
                        scope.spawn(move || {
                            let mut rng = SplitMix64::new(seed ^ (0x5343_414C + c as u64));
                            let mut latencies_us = Vec::new();
                            let mut position = offset + c;
                            barrier.wait();
                            let began = Instant::now();
                            while began.elapsed().as_secs_f64() < seconds {
                                position += clients;
                                let key = if hot {
                                    (zipf.sample(&mut rng) + position / HOT_ROTATION) % keys
                                } else {
                                    position % keys
                                };
                                let started = Instant::now();
                                let response =
                                    backend.handle_ask("scaling", &inputs.questions[key].text);
                                latencies_us.push(started.elapsed().as_secs_f64() * 1e6);
                                std::hint::black_box(response);
                            }
                            latencies_us
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect()
            });
            let wall_s = began.elapsed().as_secs_f64();
            let asks: usize = logs.iter().map(Vec::len).sum();
            offset += asks + clients;
            self.attempted += asks as u64;
            rates.push(asks as f64 / wall_s);
            self.extra_handle_us.extend(logs.into_iter().flatten());
        }
        self.set("core.two_client_scaling", rates[1] / rates[0], 2);
    }

    /// The traced run of any workload: its asks first, then its writes.
    /// The workload decides how long each section lasts; the sections
    /// it does not stress still get a short sample (a few hundred pages
    /// of staged ingest, one checkpoint cycle of staged updates), so
    /// that every layer timing is a measurement on every workload.
    fn run(&mut self) {
        let workload = self.workload.clone();
        let live = workload == "live_update";
        let config = DurabilityConfig::default();
        let checkpoint_every = config.checkpoint_every.max(1);
        let inputs = generate(self.seed, self.scale);
        // Checkpoints are replayed as a stage of their own, so the
        // automatic cadence is off.
        let staged = DurabilityConfig {
            checkpoint_every: 0,
            ..config.clone()
        };
        let durable = match build_durable(&inputs.kb, staged) {
            Ok(durable) => durable,
            Err(failure) => return self.failures.push(failure),
        };
        if durable.unindexed > 0 {
            self.failures
                .push(Failure::UnindexedDocuments(durable.unindexed));
        }
        let (vfs, mut durability) = (durable.vfs, durable.durability);
        let mut backend = Backend::new(durable.app);

        let started = Instant::now();
        let snapshot = backend.app().save_index();
        self.set(
            "core.save_index_ms",
            started.elapsed().as_secs_f64() * 1e3,
            1,
        );
        self.set("core.snapshot_bytes", snapshot.len() as f64, 1);
        drop(snapshot);

        // Asks, on the index as built.
        if workload == "ask_hot" {
            for question in inputs.questions.iter().take(self.scale.hot_keys) {
                std::hint::black_box(backend.handle_ask("prefill", &question.text));
            }
        }
        let before = cache_counts(&backend);
        let ask_share = match workload.as_str() {
            "ask_cold" | "ask_hot" => 0.6,
            "ingest_bulk" => 0.2,
            _ => 0.25,
        };
        let next = self.question_stream(&inputs);
        self.ask_rotation(&backend, self.seconds * ask_share, next);
        if !live {
            self.cache_metrics(&backend, before);
        }
        if workload.starts_with("ask_") {
            self.client_scaling(&backend, &inputs, self.seconds * 0.1);
        }
        let pristine_us = std::mem::take(&mut self.asks.handle_us);

        // Updates, replayed stage by stage: on `live_update` the
        // workload's own interleave with asks, elsewhere one checkpoint
        // cycle of updates alone.
        let mut updates = match UpdateTracer::new(checkpoint_every) {
            Ok(updates) => updates,
            Err(failure) => return self.failures.push(failure),
        };
        let questions = inputs.questions.len();
        let mut schedule = LiveSchedule::new(self.seed, inputs.kb.documents.len(), questions);
        let interleave_s = if live { self.seconds * 0.5 } else { 0.0 };
        let began = Instant::now();
        while began.elapsed().as_secs_f64() < interleave_s || updates.updates < checkpoint_every {
            let op = schedule.next().expect("the schedule is endless");
            let Some(message) = update_message(&inputs.kb, op) else {
                if let (true, LiveOp::Ask { question }) = (live, op) {
                    let text = inputs.questions[question].text.as_str();
                    self.asks.step(&mut self.recorder, &backend, text);
                    self.attempted += 1;
                }
                continue;
            };
            self.attempted += 1;
            let outcome =
                updates.update(&mut self.recorder, &mut backend, &mut durability, message);
            self.failures.extend(outcome.err());
        }
        if live {
            self.cache_metrics(&backend, before);
            let live_us = self.asks.handle_us.clone();
            if !(pristine_us.is_empty() || live_us.is_empty()) {
                self.set(
                    "core.read_after_write_ratio",
                    median(&live_us) / median(&pristine_us),
                    live_us.len(),
                );
            }
        }
        self.asks.handle_us.extend(pristine_us);
        self.update_metrics(&updates, &vfs);
        let stats = backend.app().index().stats();
        self.set(
            "search.tombstone_ratio",
            stats.tombstones as f64 / (stats.live_chunks + stats.tombstones).max(1) as f64,
            1,
        );

        // A WAL tail through the real `log_and_apply`, then a restart.
        const TAIL: usize = 20;
        for message in schedule
            .filter_map(|op| update_message(&inputs.kb, op))
            .take(TAIL)
        {
            self.attempted += 1;
            let applied = durability.log_and_apply(backend.app_mut(), message);
            self.failures.extend(
                applied
                    .err()
                    .map(|e| Failure::DurabilityError(e.to_string())),
            );
        }
        drop(durability);
        drop(backend);
        vfs.restart(self.seed);
        self.attempted += 1;
        match recover(&vfs, config) {
            Ok((_, _, report)) => {
                self.set(
                    "core.recover_replayed_records",
                    report.wal_records_replayed as f64,
                    1,
                );
                if report.wal_records_replayed != TAIL as u64 {
                    self.failures.push(Failure::Workload(format!(
                        "recovery replayed {} WAL records, expected {TAIL}",
                        report.wal_records_replayed
                    )));
                }
            }
            Err(failure) => self.failures.push(failure),
        }
        drop(vfs);

        // Bulk ingest, replayed page by page into a scratch index.
        let ingest_share = if workload == "ingest_bulk" { 0.5 } else { 0.05 };
        self.ingest_section(&inputs.kb, self.seconds * ingest_share);
        if workload == "ingest_bulk" {
            self.parallel_speedup(&inputs.kb);
        }
    }

    fn ingest_section(&mut self, kb: &KnowledgeBase, seconds: f64) {
        let mut ingest = IngestTracer::new();
        let began = Instant::now();
        for page in &kb.documents {
            if began.elapsed().as_secs_f64() >= seconds {
                break;
            }
            ingest.ingest(&mut self.recorder, page);
            self.attempted += 1;
        }
        self.set(
            "core.chunks_per_doc",
            ingest.chunks as f64 / ingest.pages.max(1) as f64,
            ingest.pages,
        );
        let (graph, codes) = ingest.hnsw_bytes_per_vector();
        self.set("vector.hnsw_graph_bytes_per_vector", graph, ingest.chunks);
        self.set("vector.hnsw_code_bytes_per_vector", codes, ingest.chunks);
    }

    /// Pages/s at 2 workers over 1 worker on a fixed sample.
    fn parallel_speedup(&mut self, kb: &KnowledgeBase) {
        let sample = KnowledgeBase {
            documents: kb
                .documents
                .iter()
                .take(self.scale.speedup_sample)
                .cloned()
                .collect(),
        };
        let timed_build = |workers: usize| {
            let mut app = UniAsk::new(uniask_config());
            let started = Instant::now();
            app.ingest_parallel(&sample, workers);
            started.elapsed().as_secs_f64()
        };
        let (one, two) = (timed_build(1), timed_build(INGEST_WORKERS));
        self.attempted += 2 * sample.documents.len() as u64;
        self.set(
            "core.ingest_parallel_speedup",
            one / two,
            sample.documents.len(),
        );
    }

    fn update_metrics(&mut self, updates: &UpdateTracer, vfs: &MemVfs) {
        let durations = self.recorder.durations_us();
        let checkpoints = durations
            .get("core.checkpoint")
            .cloned()
            .unwrap_or_default();
        let write_total: f64 = durations
            .get("core.update_replay")
            .map_or(0.0, |all| all.iter().sum());
        if !checkpoints.is_empty() {
            self.set(
                "core.checkpoint_ms",
                median(&checkpoints) / 1e3,
                checkpoints.len(),
            );
            self.set(
                "core.checkpoint_share_of_write_time",
                checkpoints.iter().sum::<f64>() / write_total,
                checkpoints.len(),
            );
        }
        self.set(
            "store.wal_bytes_per_update",
            updates.wal_bytes_per_update(),
            updates.updates as usize,
        );
        let newest_checkpoint = vfs
            .list("ckpt")
            .iter()
            .filter_map(|path| vfs.len(path))
            .max()
            .unwrap_or(0);
        self.set("store.checkpoint_bytes", newest_checkpoint as f64, 1);
    }

    /// Cache counters since `before`, without the verification asks.
    fn cache_metrics(&mut self, backend: &Backend, before: CacheCounts) {
        let now = cache_counts(backend);
        let hits = (now.hits - before.hits).saturating_sub(self.asks.verifications);
        let lookups = hits + (now.misses - before.misses);
        self.set(
            "search.cache_hit_share",
            hits as f64 / lookups.max(1) as f64,
            lookups as usize,
        );
        self.set(
            "search.cache_evictions",
            (now.evictions - before.evictions) as f64,
            lookups as usize,
        );
    }

    fn finish(mut self, wall_s: f64) -> RunResult {
        self.failures.append(&mut self.asks.failures);
        let own = self.recorder.self_times_us();
        for (span, metric) in SPAN_METRICS {
            if let Some(samples) = own.get(span) {
                self.set_median(metric, samples);
            }
        }
        let replays = self
            .recorder
            .durations_us()
            .remove("core.ask_replay")
            .unwrap_or_default();
        let (direct, handle) = (self.asks.direct_us.clone(), self.asks.handle_us.clone());
        if !(replays.is_empty() || direct.is_empty() || handle.is_empty()) {
            let ratio = median(&replays) / median(&direct);
            self.set("core.replay_vs_ask_ratio", ratio, replays.len());
            self.set("trace.overhead_share", ratio - 1.0, replays.len());
            self.set(
                "core.backend_overhead_us",
                median(&handle) - median(&direct),
                handle.len(),
            );
            // The replay is only a fair stand-in for `ask` when it costs
            // about the same; tiny smoke runs are too noisy to judge.
            if self.scale.comparable && !(0.85..=1.15).contains(&ratio) {
                self.failures.push(Failure::Workload(format!(
                    "replay / ask = {ratio:.3}, outside 0.85-1.15: the trace is not valid"
                )));
            }
            let mut tail = handle;
            tail.extend(&self.extra_handle_us);
            self.set(
                "core.ask_p99_ms",
                percentile(&sorted(&tail), 99.0) / 1e3,
                tail.len(),
            );
            self.set(
                "guardrails.block_share",
                self.asks.blocked as f64 / self.asks.replays.max(1) as f64,
                self.asks.replays,
            );
        }
        let (tokens, candidates) = (
            self.asks.prompt_tokens.clone(),
            self.asks.rerank_candidates.clone(),
        );
        self.set_median("llm.prompt_tokens", &tokens);
        self.set_median("search.rerank_candidates", &candidates);
        if let Err(e) = self.write_spans() {
            self.failures.push(Failure::Workload(format!(
                "cannot write the trace file: {e}"
            )));
        }

        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let (value, samples) = self.values.get(name).copied().unwrap_or((0.0, 0));
                Metric::new(name, value, unit, samples)
            })
            .collect();
        self.notes
            .push(format!("spans={}", self.recorder.spans().len()));
        RunResult {
            workload: self.workload,
            attempted: self.attempted,
            failures: self.failures,
            metrics,
            wall_s,
            notes: self.notes,
        }
    }

    fn write_spans(&mut self) -> std::io::Result<()> {
        let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
        let dir = std::path::Path::new(&target).join("benchmark");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace_{}.json", self.workload));
        let mut out = BufWriter::new(std::fs::File::create(&path)?);
        self.recorder.write_json(&mut out)?;
        std::io::Write::flush(&mut out)?;
        self.notes.push(format!("trace_file={}", path.display()));
        Ok(())
    }
}

#[derive(Clone, Copy)]
struct CacheCounts {
    hits: u64,
    misses: u64,
    evictions: u64,
}

fn cache_counts(backend: &Backend) -> CacheCounts {
    let stats = backend.app().index().cache_stats().unwrap_or_default();
    CacheCounts {
        hits: stats.hits,
        misses: stats.misses,
        evictions: stats.evictions,
    }
}
