//! The staged replays. `UniAsk::ask`, `ingest_parallel` and
//! `Durability::log_and_apply` are opaque calls, so the traced run
//! replays them stage by stage: each layer's public function is called
//! in the order the product calls it, with the previous stage's output,
//! one span per call. Leg probes are extra sibling calls through public
//! configurations; each includes hit materialisation, so a probe is
//! compared with itself over time, never summed with the others.
//!
//! This file is the only place in the benchmark that names layer
//! internals; a refactor of the layers can break it, not the gated run.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use uniask_benchmark::checks::{observe, Failure, Observed, Outcome};
use uniask_benchmark::config::{uniask_config, EMBEDDING_DIM};
use uniask_benchmark::spans::Recorder;
use uniask_core::durability::encode_message;
use uniask_core::{Backend, Durability, IndexingService, IngestMessage, UniAsk, UniAskConfig};
use uniask_corpus::vocab::{SynonymNormalizer, Vocabulary};
use uniask_corpus::KbDocument;
use uniask_guardrails::chain::{ChainOutcome, GuardrailChain};
use uniask_guardrails::rouge_guard::RougeGuardrail;
use uniask_guardrails::verdict::Verdict;
use uniask_llm::citation::extract_citations;
use uniask_llm::model::ChatModel;
use uniask_llm::prompt::{ContextChunk, PromptBuilder};
use uniask_search::hybrid::{HybridConfig, SearchHit, SearchIndex};
use uniask_search::reranker::SemanticReranker;
use uniask_search::rrf::rrf_fuse;
use uniask_store::vfs::{MemVfs, Vfs};
use uniask_store::wal::{Wal, WalConfig};
use uniask_text::analyzer::{Analyzer, ItalianAnalyzer};
use uniask_text::html::parse_html;
use uniask_vector::embedding::SyntheticEmbedder;
use uniask_vector::hnsw::{Hnsw, HnswParams};
use uniask_vector::VectorIndex;

fn normalizer() -> Arc<SynonymNormalizer> {
    Arc::new(SynonymNormalizer::new(Arc::new(Vocabulary::new())))
}

/// Replays `ask` and times `UniAsk::ask` and `Backend::handle_ask`
/// beside it, one of the three per question in rotation, so that the
/// three see statistically the same questions and never each other's
/// cache entries.
pub struct AskTracer {
    config: UniAskConfig,
    chain: GuardrailChain,
    prompt: PromptBuilder,
    reranker: SemanticReranker,
    text_only: HybridConfig,
    vector_only: HybridConfig,
    step: u64,
    pub direct_us: Vec<f64>,
    pub handle_us: Vec<f64>,
    pub prompt_tokens: Vec<f64>,
    pub rerank_candidates: Vec<f64>,
    pub replays: usize,
    pub blocked: usize,
    /// `ask` calls made only to compare a replay with the real thing;
    /// each is one cache hit that the workload did not cause.
    pub verifications: u64,
    pub failures: Vec<Failure>,
}

impl AskTracer {
    pub fn new() -> Self {
        let config = uniask_config();
        AskTracer {
            chain: GuardrailChain {
                rouge: RougeGuardrail::new(config.rouge_threshold),
                ..GuardrailChain::new()
            },
            prompt: PromptBuilder::new(config.context_chunks),
            reranker: SemanticReranker::new(normalizer()),
            text_only: HybridConfig {
                use_vector: false,
                use_reranker: false,
                ..config.hybrid.clone()
            },
            vector_only: HybridConfig {
                use_text: false,
                use_reranker: false,
                ..config.hybrid.clone()
            },
            config,
            step: 0,
            direct_us: Vec::new(),
            handle_us: Vec::new(),
            prompt_tokens: Vec::new(),
            rerank_candidates: Vec::new(),
            replays: 0,
            blocked: 0,
            verifications: 0,
            failures: Vec::new(),
        }
    }

    /// Questions stepped through so far.
    pub fn asked(&self) -> usize {
        self.step as usize
    }

    /// One question through the next of: `UniAsk::ask`, the staged
    /// replay with its probes, `Backend::handle_ask`.
    pub fn step(&mut self, recorder: &mut Recorder, backend: &Backend, question: &str) {
        let request = self.step;
        self.step += 1;
        match request % 3 {
            0 => {
                let started = Instant::now();
                let response = backend.app().ask(question);
                self.direct_us.push(started.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(response);
            }
            1 => {
                let replayed = self.replay(recorder, backend.app(), request, question);
                // Every fifth replay is compared with the real `ask`
                // (which finds the replay's cache entry).
                if self.replays.is_multiple_of(5) {
                    self.verifications += 1;
                    if observe(&backend.app().ask(question)) != replayed {
                        self.failures.push(Failure::Workload(format!(
                            "the staged replay of `{question}` diverged from ask"
                        )));
                    }
                }
                self.replays += 1;
            }
            _ => {
                let started = Instant::now();
                let response = backend.handle_ask("tracer", question);
                self.handle_us.push(started.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(response);
            }
        }
    }

    /// `ask_direct`, stage by stage. The root span's self time is the
    /// glue: deduplication, context building, clones.
    fn replay(
        &mut self,
        recorder: &mut Recorder,
        app: &UniAsk,
        request: u64,
        question: &str,
    ) -> Observed {
        let hybrid = &self.config.hybrid;
        let root = recorder.enter("core.ask_replay", request);
        let verdict = recorder.time("guardrails.check_question", request, || {
            self.chain.check_question(question)
        });
        let chunk_hits = recorder.time("search.hybrid", request, || {
            app.index().search(question, hybrid)
        });
        let documents = dedup_documents(&chunk_hits);
        let observed = if let Verdict::Blocked { kind, .. } = verdict {
            self.blocked += 1;
            Observed {
                documents: document_ids(&documents),
                outcome: Outcome::Blocked(kind.to_string()),
            }
        } else {
            let context: Vec<ContextChunk> = chunk_hits
                .iter()
                .take(self.config.context_chunks)
                .enumerate()
                .map(|(i, hit)| ContextChunk {
                    key: i + 1,
                    title: hit.title.clone(),
                    content: hit.content.clone(),
                })
                .collect();
            let chat = recorder.time("llm.prompt_build", request, || {
                self.prompt.build(question, &context)
            });
            self.prompt_tokens.push(chat.prompt_tokens() as f64);
            let completion = recorder.time("llm.complete", request, || app.llm().complete(&chat));
            let outcome = match completion {
                Ok(response) => {
                    let checked = recorder.time("guardrails.check_answer", request, || {
                        self.chain.check_answer(&response.message.content, &context)
                    });
                    match checked {
                        ChainOutcome::Delivered { answer } => {
                            std::hint::black_box(extract_citations(&answer));
                            Outcome::Answer
                        }
                        ChainOutcome::Invalidated { kind, .. } => {
                            self.blocked += 1;
                            Outcome::Blocked(kind.to_string())
                        }
                    }
                }
                Err(_) => Outcome::ServiceError,
            };
            std::hint::black_box((question.to_string(), &context));
            Observed {
                documents: document_ids(&documents),
                outcome,
            }
        };
        recorder.exit(root);
        self.probe_legs(recorder, app, request, question, &chunk_hits);
        observed
    }

    /// Sibling probes of the retrieval legs (never through the cache).
    fn probe_legs(
        &mut self,
        recorder: &mut Recorder,
        app: &UniAsk,
        request: u64,
        question: &str,
        chunk_hits: &[SearchHit],
    ) {
        let index = app.index();
        let query_vector = recorder.time("vector.embed_query", request, || {
            index.embedder().embed(question)
        });
        let text = recorder.time("search.text_leg", request, || {
            index.search_with_vector(question, None, &self.text_only)
        });
        let vectors = recorder.time("search.vector_legs", request, || {
            index.search_with_vector(question, Some(&query_vector), &self.vector_only)
        });
        let rankings: Vec<Vec<u32>> = [&text, &vectors]
            .iter()
            .map(|hits| hits.iter().map(|hit| hit.chunk.0).collect())
            .collect();
        let fused = recorder.time("search.rrf_fuse", request, || {
            rrf_fuse(&rankings, self.config.hybrid.rrf_c)
        });
        std::hint::black_box(fused);
        // The hits `search` returned are the fused top `final_n`, so
        // scoring them again is the reranker's work for this question.
        self.rerank_candidates.push(chunk_hits.len() as f64);
        let scores: f64 = recorder.time("search.rerank", request, || {
            chunk_hits
                .iter()
                .map(|hit| self.reranker.score(question, &hit.title, &hit.content))
                .sum()
        });
        std::hint::black_box(scores);
    }
}

fn dedup_documents(chunk_hits: &[SearchHit]) -> Vec<SearchHit> {
    let mut seen: HashSet<&str> = HashSet::new();
    chunk_hits
        .iter()
        .filter(|hit| seen.insert(hit.parent_doc.as_str()))
        .cloned()
        .collect()
}

fn document_ids(documents: &[SearchHit]) -> Vec<String> {
    documents.iter().map(|hit| hit.parent_doc.clone()).collect()
}

/// Replays the bulk-ingest pipeline page by page into a scratch index:
/// chunk, embed, add. Parsing, analysis and a standalone HNSW fed the
/// same content vectors are sibling probes.
pub struct IngestTracer {
    indexing: IndexingService,
    scratch: SearchIndex,
    hnsw: Hnsw,
    pub pages: usize,
    pub chunks: usize,
}

impl IngestTracer {
    pub fn new() -> Self {
        let config = uniask_config();
        let normalizer = normalizer();
        let embedder = Arc::new(SyntheticEmbedder::with_normalizer(
            EMBEDDING_DIM,
            config.seed,
            normalizer.clone(),
        ));
        IngestTracer {
            indexing: IndexingService::new(
                config.chunk_max_tokens,
                config.enrichment,
                config.summary_sentences,
            ),
            scratch: SearchIndex::new(embedder, SemanticReranker::new(normalizer)),
            hnsw: Hnsw::new(HnswParams::default()),
            pages: 0,
            chunks: 0,
        }
    }

    pub fn ingest(&mut self, recorder: &mut Recorder, page: &KbDocument) {
        let request = self.pages as u64;
        self.pages += 1;
        let root = recorder.enter("core.ingest_replay", request);
        let records = recorder.time("core.chunk_document", request, || {
            self.indexing.chunk_document(page)
        });
        let mut content_vectors = Vec::with_capacity(records.len());
        for record in &records {
            let embedder = Arc::clone(self.scratch.embedder());
            let (title_vector, content_vector) =
                recorder.time("vector.embed_chunk", request, || {
                    (
                        embedder.embed(&record.title),
                        embedder.embed(&record.content),
                    )
                });
            content_vectors.push(content_vector.clone());
            recorder.time("search.add_chunk", request, || {
                self.scratch
                    .add_chunk_with_vectors(record, title_vector, content_vector)
            });
        }
        recorder.exit(root);

        let parsed = recorder.time("text.parse_html", request, || parse_html(&page.html));
        std::hint::black_box(parsed);
        for (record, vector) in records.iter().zip(content_vectors) {
            let terms = recorder.time("text.analyze", request, || {
                ItalianAnalyzer::new().analyze(&record.content)
            });
            std::hint::black_box(terms);
            let id = self.chunks as u32;
            self.chunks += 1;
            recorder.time("vector.hnsw_insert", request, || self.hnsw.add(id, vector));
        }
    }

    /// `(graph bytes, code bytes)` per vector of the standalone HNSW.
    pub fn hnsw_bytes_per_vector(&self) -> (f64, f64) {
        let stats = self.hnsw.memory_stats();
        let vectors = self.hnsw.len().max(1) as f64;
        (
            stats.graph_bytes as f64 / vectors,
            stats.codes_bytes as f64 / vectors,
        )
    }
}

/// Replays `Durability::log_and_apply` stage by stage: encode, append
/// to a standalone WAL on its own `MemVfs`, apply without the WAL, and
/// every `checkpoint_every`-th update a `Durability::checkpoint`.
pub struct UpdateTracer {
    wal: Wal,
    wal_vfs: Arc<MemVfs>,
    checkpoint_every: u64,
    pub updates: u64,
}

impl UpdateTracer {
    pub fn new(checkpoint_every: u64) -> Result<Self, Failure> {
        let wal_vfs = Arc::new(MemVfs::new());
        let store: Arc<dyn Vfs> = Arc::clone(&wal_vfs) as Arc<dyn Vfs>;
        let (wal, _) = Wal::open(store, WalConfig::default())
            .map_err(|e| Failure::DurabilityError(e.to_string()))?;
        Ok(UpdateTracer {
            wal,
            wal_vfs,
            checkpoint_every: checkpoint_every.max(1),
            updates: 0,
        })
    }

    pub fn update(
        &mut self,
        recorder: &mut Recorder,
        backend: &mut Backend,
        durability: &mut Durability,
        message: IngestMessage,
    ) -> Result<(), Failure> {
        self.updates += 1;
        let request = self.updates;
        let apply_span = match message {
            IngestMessage::Upsert(_) => "core.apply_upsert",
            IngestMessage::Delete(_) => "search.remove_document",
        };
        let root = recorder.enter("core.update_replay", request);
        let payload = encode_message(&message);
        let appended = recorder.time("store.wal_append", request, || {
            self.wal.append(request, &payload)
        });
        recorder.time(apply_span, request, || {
            backend.app_mut().apply_update(message)
        });
        let checkpointed = if self.updates.is_multiple_of(self.checkpoint_every) {
            recorder
                .time("core.checkpoint", request, || {
                    durability.checkpoint(backend.app_mut())
                })
                .map(drop)
        } else {
            Ok(())
        };
        recorder.exit(root);
        appended.map_err(|e| Failure::DurabilityError(e.to_string()))?;
        checkpointed.map_err(|e| Failure::DurabilityError(e.to_string()))
    }

    /// Bytes the standalone WAL holds per update appended.
    pub fn wal_bytes_per_update(&self) -> f64 {
        let bytes: usize = self
            .wal_vfs
            .list("")
            .iter()
            .filter_map(|path| self.wal_vfs.len(path))
            .sum();
        bytes as f64 / self.updates.max(1) as f64
    }
}
