//! The frozen configuration. Nothing here scales itself at run time:
//! the numbers were calibrated once (see README.md, "Calibration") and
//! every output states them.

use uniask_core::UniAskConfig;
use uniask_corpus::CorpusScale;

/// The paper's embedding dimension (`CorpusScale::paper()`).
pub const EMBEDDING_DIM: usize = 256;

/// Clients of the two ask workloads; the box has two cores.
pub const ASK_CLIENTS: usize = 2;

/// Workers handed to `ingest_parallel`.
pub const INGEST_WORKERS: usize = 2;

/// Share of `live_update` operations that are asks; the rest are
/// durable updates, of which `UPSERT_SHARE` revise a page and the rest
/// delete one.
pub const LIVE_ASK_SHARE: f64 = 0.80;
pub const UPSERT_SHARE: f64 = 0.80;

/// Zipf exponent of the `ask_hot` key popularity.
pub const ZIPF_S: f64 = 1.0;

/// `ask_hot` shifts its popularity ranking by one question every so many
/// asks of a client. Under Zipf(1.0) a handful of questions get half the
/// asks; were they the same for a whole run, the latencies would be those
/// few questions' (their context sizes), and differ from seed to seed by
/// more than any bound. Rotating keeps the skew at every moment and lets
/// every question be the hottest for a while.
pub const HOT_ROTATION: usize = 256;

pub const WORKLOADS: [&str; 4] = ["ask_cold", "ask_hot", "ingest_bulk", "live_update"];

/// Sizes of one benchmark scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub name: &'static str,
    /// Whether results at this scale may be compared with the baseline
    /// in BENCHMARK.json (only the gated scale).
    pub comparable: bool,
    pub documents: usize,
    pub human_questions: usize,
    pub keyword_queries: usize,
    /// Distinct questions `ask_hot` draws from (must fit the cache).
    pub hot_keys: usize,
    /// Fixed probe asks compared across a snapshot load or a recovery.
    pub probes: usize,
    /// Warm-up asks before a timed ask phase, drawn from outside the set.
    pub warmup: usize,
    /// Times the set-up is repeated in a run; `setup_s` is the median.
    pub setup_repetitions: usize,
    /// Fewest builds `ingest_bulk` measures, however short `--seconds`.
    pub min_builds: usize,
    /// Fewest automatic checkpoints `live_update` must cross.
    pub min_checkpoints: u64,
    /// Documents of the `core.ingest_parallel_speedup` sample (traced run).
    pub speedup_sample: usize,
}

impl Scale {
    /// The gated scale: what BENCHMARK.json's baseline was measured at.
    pub const fn gated() -> Self {
        Scale {
            name: "gated",
            comparable: true,
            documents: 3_000,
            human_questions: 1_040,
            keyword_queries: 310,
            hot_keys: 400,
            probes: 200,
            warmup: 200,
            setup_repetitions: 3,
            min_builds: 3,
            min_checkpoints: 12,
            speedup_sample: 1_000,
        }
    }

    /// Finishes in seconds; exercises every code path, compares nothing.
    pub const fn smoke() -> Self {
        Scale {
            name: "smoke",
            comparable: false,
            documents: 300,
            human_questions: 90,
            keyword_queries: 30,
            hot_keys: 40,
            probes: 30,
            warmup: 10,
            setup_repetitions: 1,
            min_builds: 1,
            min_checkpoints: 1,
            speedup_sample: 100,
        }
    }

    /// The paper's corpus (59 308 pages). Not a gated workload: one
    /// build takes minutes.
    pub const fn paper() -> Self {
        Scale {
            name: "paper",
            comparable: false,
            documents: 59_308,
            human_questions: 2_700,
            keyword_queries: 800,
            setup_repetitions: 1,
            min_builds: 1,
            speedup_sample: 2_000,
            ..Scale::gated()
        }
    }

    pub fn corpus(&self) -> CorpusScale {
        CorpusScale {
            documents: self.documents,
            human_questions: self.human_questions,
            keyword_queries: self.keyword_queries,
            embedding_dim: EMBEDDING_DIM,
        }
    }

    /// One line stating every frozen number, printed with each result.
    pub fn describe(&self, seed: u64, seconds: f64) -> String {
        format!(
            "scale={} comparable={} documents={} dim={} human_questions={} keyword_queries={} \
             hot_keys={} probes={} warmup={} setup_repetitions={} ask_clients={} ingest_workers={} \
             live_mix=ask{:.2}/upsert{:.2}/delete{:.2} min_checkpoints={} zipf_s={} seed={} seconds={} \
             config=UniAskConfig::default()+embedding_dim={} nproc={}",
            self.name,
            self.comparable,
            self.documents,
            EMBEDDING_DIM,
            self.human_questions,
            self.keyword_queries,
            self.hot_keys,
            self.probes,
            self.warmup,
            self.setup_repetitions,
            ASK_CLIENTS,
            INGEST_WORKERS,
            LIVE_ASK_SHARE,
            (1.0 - LIVE_ASK_SHARE) * UPSERT_SHARE,
            (1.0 - LIVE_ASK_SHARE) * (1.0 - UPSERT_SHARE),
            self.min_checkpoints,
            ZIPF_S,
            seed,
            seconds,
            EMBEDDING_DIM,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
    }
}

/// `UniAskConfig::default()` (query cache on, 8 shards x 128 entries;
/// `HybridConfig::default()`; no resilience layer, no LLM envelope) at
/// the paper's embedding dimension.
pub fn uniask_config() -> UniAskConfig {
    UniAskConfig {
        embedding_dim: EMBEDDING_DIM,
        ..UniAskConfig::default()
    }
}
