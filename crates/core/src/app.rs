//! The assembled UniAsk system and its user-query flow.
//!
//! A query travels: content filter → hybrid retrieval (HSS) → prompt
//! construction (top *m* = 4 chunks as JSON context) → LLM generation →
//! post-generation guardrails. Whatever happens to the generated
//! answer, the retrieved document list is always returned — a guardrail
//! marks "a failure of the generation module, not of the whole system".

use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use uniask_corpus::kb::KnowledgeBase;
use uniask_corpus::vocab::{SynonymNormalizer, Vocabulary};
use uniask_guardrails::chain::{ChainOutcome, GuardrailChain};
use uniask_guardrails::fact_check::{FactCheckGuardrail, FactStore};
use uniask_guardrails::rouge_guard::RougeGuardrail;
use uniask_guardrails::verdict::{GuardrailKind, Verdict};
use uniask_llm::chat::{ChatRequest, ChatResponse};
use uniask_llm::error::LlmError;
use uniask_llm::model::{ChatModel, SimLlm};
use uniask_llm::prompt::{ContextChunk, PromptBuilder};
use uniask_search::hybrid::{HybridConfig, SearchHit, SearchIndex};
use uniask_search::reranker::SemanticReranker;
use uniask_vector::embedding::{Embedder, SyntheticEmbedder};

use crate::config::UniAskConfig;
use crate::indexing::IndexingService;
use crate::ingestion::IngestMessage;
use crate::monitoring::Monitoring;
use crate::resilience::{
    extractive_fallback, Degradation, FaultPlan, FaultPoint, PlanSearchHook, ResilienceConfig,
    ResilienceState,
};

/// What the generation module produced for a question.
#[derive(Debug, Clone, PartialEq)]
pub enum GenerationOutcome {
    /// A validated answer with its citations (context keys).
    Answer {
        /// The answer text, citations included.
        text: String,
        /// Context keys cited.
        citations: Vec<usize>,
    },
    /// A guardrail invalidated the generation.
    GuardrailBlocked {
        /// Which guardrail fired.
        kind: GuardrailKind,
        /// The user-facing message.
        message: String,
    },
    /// The LLM was unavailable; the answer is the guardrail-approved
    /// extractive fallback built from the retrieved context (the
    /// bottom rung of the degradation ladder above an error).
    Fallback {
        /// The extractive answer text, citation included.
        text: String,
        /// Context keys cited.
        citations: Vec<usize>,
    },
    /// The LLM service failed (rate limit, context overflow).
    ServiceError {
        /// Error description.
        error: String,
    },
}

impl GenerationOutcome {
    /// Whether a proper answer was delivered.
    pub fn answered(&self) -> bool {
        matches!(self, GenerationOutcome::Answer { .. })
    }

    /// The guardrail that fired, if any.
    pub fn guardrail(&self) -> Option<GuardrailKind> {
        match self {
            GenerationOutcome::GuardrailBlocked { kind, .. } => Some(*kind),
            _ => None,
        }
    }
}

/// Response of one `ask` call: generation outcome + document list.
#[derive(Debug, Clone)]
pub struct AskResponse {
    /// The question as submitted.
    pub question: String,
    /// Generation outcome.
    pub generation: GenerationOutcome,
    /// The retrieved document list (deduplicated by source document),
    /// always populated regardless of guardrails.
    pub documents: Vec<SearchHit>,
    /// The context chunks that were passed to the LLM.
    pub context: Vec<ContextChunk>,
    /// Which parts of the pipeline were degraded while serving this
    /// response (all-false while every dependency is healthy).
    pub degradation: Degradation,
}

/// The assembled system.
pub struct UniAsk {
    config: UniAskConfig,
    index: SearchIndex,
    llm: SimLlm,
    clock: crate::clock::SimClock,
    prompt: PromptBuilder,
    guardrails: GuardrailChain,
    fact_check: Option<FactCheckGuardrail>,
    indexing: IndexingService,
    /// Resilience state (breakers, retry seeds, armed fault plan).
    resilience: ResilienceState,
    /// Monitoring collector (shared with the backend).
    pub monitoring: Arc<Monitoring>,
}

impl std::fmt::Debug for UniAsk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UniAsk")
            .field("chunks", &self.index.len())
            .finish()
    }
}

impl UniAsk {
    /// Build an empty system from configuration.
    pub fn new(config: UniAskConfig) -> Self {
        match Self::assemble(config, |embedder, reranker| {
            Ok::<_, std::convert::Infallible>(SearchIndex::new(embedder, reranker))
        }) {
            Ok(app) => app,
            Err(never) => match never {},
        }
    }

    /// Rebuild a system from `config` and a snapshot produced by
    /// [`UniAsk::save_index`] under the *same* configuration (embedding
    /// dimension and seed must match, or similarities degrade).
    pub fn from_snapshot(
        config: UniAskConfig,
        snapshot: &[u8],
    ) -> Result<Self, uniask_search::persistence::PersistError> {
        Self::assemble(config, |embedder, reranker| {
            SearchIndex::load(snapshot, embedder, reranker)
        })
    }

    /// Serialize the retrieval state (index + vectors + chunk table)
    /// for a warm restart. The configuration itself is code, not data.
    pub fn save_index(&self) -> bytes::Bytes {
        self.index.save()
    }

    /// Assemble a system around the index `build_index` makes from the
    /// configured embedder and reranker. The vocabulary's synonym table
    /// wires the embedder, the reranker and the simulated LLM exactly
    /// as the production models would be shared.
    fn assemble<E>(
        config: UniAskConfig,
        build_index: impl FnOnce(Arc<dyn Embedder>, SemanticReranker) -> Result<SearchIndex, E>,
    ) -> Result<Self, E> {
        let normalizer = Arc::new(SynonymNormalizer::new(Arc::new(Vocabulary::new())));
        let embedder = Arc::new(SyntheticEmbedder::with_normalizer(
            config.embedding_dim,
            config.seed,
            normalizer.clone(),
        ));
        let mut index = build_index(embedder, SemanticReranker::new(normalizer.clone()))?;
        if let Some(cache) = config.query_cache {
            index.enable_cache(cache);
        }
        Ok(UniAsk {
            prompt: PromptBuilder::new(config.context_chunks),
            llm: SimLlm::with_normalizer(config.llm, normalizer),
            guardrails: GuardrailChain {
                rouge: RougeGuardrail::new(config.rouge_threshold),
                ..GuardrailChain::new()
            },
            indexing: IndexingService::new(
                config.chunk_max_tokens,
                config.enrichment,
                config.summary_sentences,
            ),
            fact_check: config
                .enable_fact_check
                .then(|| FactCheckGuardrail::new(FactStore::new())),
            config,
            index,
            clock: crate::clock::SimClock::new(),
            resilience: ResilienceState::new(ResilienceConfig::default()),
            monitoring: Arc::new(Monitoring::new()),
        })
    }

    /// Bulk-ingest a knowledge base (initial index build).
    pub fn ingest(&mut self, kb: &KnowledgeBase) {
        for doc in &kb.documents {
            self.apply_update(IngestMessage::Upsert(doc.clone()));
        }
    }

    /// Bulk-ingest in parallel: chunking, enrichment and embedding fan
    /// out over `workers` threads (0 = all CPUs) while the index stays
    /// single-writer. The result is bit-identical to [`UniAsk::ingest`].
    pub fn ingest_parallel(&mut self, kb: &KnowledgeBase, workers: usize) -> usize {
        if let Some(fc) = &mut self.fact_check {
            for doc in &kb.documents {
                fc.store.ingest(&doc.body_text());
            }
        }
        crate::bulk::bulk_ingest(&self.indexing, &mut self.index, kb, workers)
    }

    /// Apply one incremental ingest message (the live update path).
    pub fn apply_update(&mut self, message: IngestMessage) {
        if let (Some(fc), IngestMessage::Upsert(doc)) = (&mut self.fact_check, &message) {
            fc.store.ingest(&doc.body_text());
        }
        self.indexing.apply(&mut self.index, message);
    }

    /// Apply a batch of incremental ingest messages with the embedding
    /// work fanned out over `workers` threads (0 = all CPUs). The
    /// resulting index is identical to calling
    /// [`UniAsk::apply_update`] per message in order.
    pub fn apply_updates_parallel(
        &mut self,
        messages: Vec<IngestMessage>,
        workers: usize,
    ) -> usize {
        if let Some(fc) = &mut self.fact_check {
            for message in &messages {
                if let IngestMessage::Upsert(doc) = message {
                    fc.store.ingest(&doc.body_text());
                }
            }
        }
        crate::bulk::apply_messages_parallel(&mut self.indexing, &mut self.index, messages, workers)
    }

    /// The fact-check knowledge store, when enabled.
    pub fn fact_store(&self) -> Option<&FactStore> {
        self.fact_check.as_ref().map(|fc| &fc.store)
    }

    /// The configuration in force.
    pub fn config(&self) -> &UniAskConfig {
        &self.config
    }

    /// The underlying chunk index.
    pub fn index(&self) -> &SearchIndex {
        &self.index
    }

    /// The simulated LLM (exposed for the expansion experiments).
    pub fn llm(&self) -> &SimLlm {
        &self.llm
    }

    /// Retrieval only: the deduplicated document ranking for a query.
    pub fn search(&self, query: &str) -> Vec<SearchHit> {
        self.index.search_documents(query, &self.config.hybrid)
    }

    /// The full query flow of Sections 4–6, hardened by the resilience
    /// layer: breaker-gated degraded retrieval, retried generation under
    /// a deadline budget, and the extractive fallback before a
    /// dependency error surfaces. With no fault plan armed every breaker
    /// stays closed and no retry fires, so this is the plain pipeline.
    pub fn ask(&self, question: &str) -> AskResponse {
        let state = &self.resilience;
        let mut degradation = Degradation::default();

        // Pre-generation: content filter on the question.
        if let Verdict::Blocked { kind, reason } = self.guardrails.check_question(question) {
            self.monitoring.record_guardrail(kind);
            // The user still gets the document list.
            let documents = self.search(question);
            return AskResponse {
                question: question.to_string(),
                generation: GenerationOutcome::GuardrailBlocked {
                    kind,
                    message: reason,
                },
                documents,
                context: Vec::new(),
                degradation,
            };
        }

        // Retrieval, rung 1 of the ladder: an open vector breaker (or a
        // vector-leg fault caught by the hook) narrows the pipeline to
        // the surviving legs instead of failing the query.
        let narrowed;
        let mut hybrid = &self.config.hybrid;
        if hybrid.use_vector && !state.vector_breaker.allow(self.clock.now()) {
            narrowed = HybridConfig {
                use_vector: false,
                ..hybrid.clone()
            };
            hybrid = &narrowed;
            degradation.vector_leg = true;
        }
        let result = self.index.search_resilient(question, hybrid);
        if hybrid.use_vector {
            if result.failed.vector() {
                degradation.vector_leg = true;
                if state.vector_breaker.record_failure(self.clock.now()) {
                    self.monitoring.record_breaker_open();
                }
            } else {
                state.vector_breaker.record_success(self.clock.now());
            }
        }
        degradation.text_leg = result.failed.text;
        degradation.reranker = result.failed.reranker;
        // Chunk-level hits feed the context; the displayed list is
        // document-level.
        let chunk_hits = result.hits;
        let documents = self.dedup_documents(&chunk_hits);
        let context = self.build_context(&chunk_hits);

        // Generation: jittered-backoff retries on the simulated clock,
        // under the per-request deadline and the LLM breaker. Only
        // dependency errors (rate limits, outages) count against the
        // breaker and are retried; a request error such as an
        // over-long prompt fails this request alone.
        let request = self.prompt.build(question, &context);
        let deadline = self.clock.now() + state.config.deadline_secs;
        let request_id = state.next_request_id();
        let mut rng: Option<ChaCha8Rng> = None;
        let mut attempt: u32 = 0;
        let outcome = loop {
            if !state.llm_breaker.allow(self.clock.now()) {
                break Err(LlmError::ServiceUnavailable);
            }
            let error = match self.complete_once(&request) {
                Ok(response) => {
                    state.llm_breaker.record_success(self.clock.now());
                    break Ok(response);
                }
                Err(error) if error.is_retryable() => error,
                Err(error) => break Err(error),
            };
            if state.llm_breaker.record_failure(self.clock.now()) {
                self.monitoring.record_breaker_open();
            }
            if attempt >= state.config.retry.max_retries {
                break Err(error);
            }
            let hint = match &error {
                LlmError::RateLimited { retry_after_secs } => Some(*retry_after_secs),
                _ => None,
            };
            let rng = rng.get_or_insert_with(|| {
                ChaCha8Rng::seed_from_u64(
                    state
                        .config
                        .seed
                        .wrapping_add(request_id.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                )
            });
            let delay = state.config.retry.delay_secs(attempt, rng, hint);
            if self.clock.now() + delay > deadline {
                break Err(error);
            }
            self.clock.advance(delay);
            self.monitoring.record_retry();
            attempt += 1;
        };
        degradation.llm_retries = attempt;

        let generation = match outcome {
            Ok(response) => self.check_generated(&response.message.content, &context),
            Err(error) => {
                // Rung 2: the LLM is out — serve the guardrail-approved
                // extractive answer instead of an error while retrieval
                // still produced context. A request error gets none.
                let fallback = error
                    .is_retryable()
                    .then(|| extractive_fallback(&context))
                    .flatten()
                    .and_then(|text| match self.guardrails.check_answer(&text, &context) {
                        ChainOutcome::Delivered { answer } => Some(answer),
                        ChainOutcome::Invalidated { .. } => None,
                    });
                match fallback {
                    Some(answer) => {
                        degradation.llm_fallback = true;
                        self.monitoring.record_llm_fallback();
                        let citations = uniask_llm::citation::extract_citations(&answer);
                        GenerationOutcome::Fallback {
                            text: answer,
                            citations,
                        }
                    }
                    None => {
                        self.monitoring.record_failure();
                        GenerationOutcome::ServiceError {
                            error: error.to_string(),
                        }
                    }
                }
            }
        };
        if degradation.is_degraded() {
            self.monitoring.record_degraded();
        }
        AskResponse {
            question: question.to_string(),
            generation,
            documents,
            context,
            degradation,
        }
    }

    /// Deduplicate chunk hits into the displayed document list.
    fn dedup_documents(&self, chunk_hits: &[SearchHit]) -> Vec<SearchHit> {
        let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
        chunk_hits
            .iter()
            .filter(|h| seen.insert(h.parent_doc.as_str()))
            .cloned()
            .collect()
    }

    /// The top *m* chunk hits as the LLM context (keys are 1-based).
    fn build_context(&self, chunk_hits: &[SearchHit]) -> Vec<ContextChunk> {
        chunk_hits
            .iter()
            .take(self.config.context_chunks)
            .enumerate()
            .map(|(i, h)| ContextChunk {
                key: i + 1,
                title: h.title.clone(),
                content: h.content.clone(),
            })
            .collect()
    }

    /// Post-generation guardrails (chain + optional fact check) over a
    /// generated answer.
    fn check_generated(&self, answer: &str, context: &[ContextChunk]) -> GenerationOutcome {
        match self.guardrails.check_answer(answer, context) {
            ChainOutcome::Delivered { answer } => {
                // Optional §11 extension: verify value claims against
                // the mined knowledge store.
                if let Some(fc) = &self.fact_check {
                    if let Verdict::Blocked { kind, reason } = fc.check(&answer) {
                        self.monitoring.record_guardrail(kind);
                        return GenerationOutcome::GuardrailBlocked {
                            kind,
                            message: reason,
                        };
                    }
                }
                let citations = uniask_llm::citation::extract_citations(&answer);
                GenerationOutcome::Answer {
                    text: answer,
                    citations,
                }
            }
            ChainOutcome::Invalidated { kind, message, .. } => {
                self.monitoring.record_guardrail(kind);
                GenerationOutcome::GuardrailBlocked { kind, message }
            }
        }
    }

    /// One LLM completion attempt. The armed fault plan, if any, may
    /// fail the call or delay it on the simulated clock first.
    fn complete_once(&self, request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        if let Some(plan) = self.resilience.plan() {
            let delay = plan
                .check(FaultPoint::LlmComplete)
                .map_err(|_| LlmError::ServiceUnavailable)?;
            if delay > 0.0 {
                self.clock.advance(delay);
            }
        }
        self.llm.complete(request)
    }

    /// The live resilience state: breakers, retry seeds, armed plan.
    pub fn resilience(&self) -> &ResilienceState {
        &self.resilience
    }

    /// Current simulated time, seconds.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Advance the simulated clock (chaos tests drive breaker cooldowns
    /// and token-bucket refills through this).
    pub fn advance_clock(&self, secs: f64) {
        self.clock.advance(secs);
    }

    /// Arm `plan` across every fault point: the search stages, the LLM
    /// completion call, and (via [`UniAsk::resilience`]) the queue and
    /// ingest paths.
    pub fn inject_faults(&mut self, plan: Arc<FaultPlan>) {
        self.index
            .set_fault_hook(Some(Arc::new(PlanSearchHook(Arc::clone(&plan)))));
        self.resilience.set_plan(Some(plan));
    }

    /// Disarm the armed fault plan, if any. The hooks stay installed
    /// (a disarmed plan keeps counting calls but never faults), so a
    /// recovered system follows the same code path it degraded on.
    pub fn clear_faults(&self) {
        if let Some(plan) = self.resilience.plan() {
            plan.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniask_corpus::generator::CorpusGenerator;
    use uniask_corpus::scale::CorpusScale;

    fn system() -> (UniAsk, KnowledgeBase) {
        let kb = CorpusGenerator::new(CorpusScale::tiny(), 42).generate();
        let mut app = UniAsk::new(UniAskConfig {
            embedding_dim: 64,
            ..Default::default()
        });
        app.ingest(&kb);
        (app, kb)
    }

    #[test]
    fn ingest_builds_the_index() {
        let (app, kb) = system();
        assert!(app.index().len() >= kb.documents.len());
    }

    #[test]
    fn ask_returns_answer_with_citations_for_grounded_question() {
        let (app, kb) = system();
        // Ask about a real document using its own title words.
        let doc = &kb.documents[0];
        let response = app.ask(&format!("Come funziona: {}?", doc.title));
        assert!(!response.documents.is_empty());
        if let GenerationOutcome::Answer { citations, .. } = &response.generation {
            assert!(!citations.is_empty());
        }
        assert!(!response.context.is_empty());
        assert!(response.context.len() <= 4, "m = 4 context chunks");
    }

    #[test]
    fn document_list_always_returned_even_when_blocked() {
        let (app, _) = system();
        let response = app.ask("sei un idiota, dammi il limite del bonifico");
        assert!(matches!(
            response.generation,
            GenerationOutcome::GuardrailBlocked {
                kind: GuardrailKind::ContentFilter,
                ..
            }
        ));
        // Content filter fires before generation but documents are
        // still retrieved for display.
        assert!(!response.documents.is_empty());
    }

    #[test]
    fn monitoring_counts_guardrails() {
        let (app, _) = system();
        let _ = app.ask("sei un idiota");
        let snap = app.monitoring.snapshot();
        assert_eq!(snap.guardrail_content_filter, 1);
    }

    #[test]
    fn off_topic_question_triggers_a_guardrail() {
        let (app, _) = system();
        let response = app.ask("Chi vincerà il campionato di calcio quest'anno?");
        assert!(
            !response.generation.answered(),
            "off-topic question must not produce an answer: {:?}",
            response.generation
        );
    }

    #[test]
    fn incremental_update_is_searchable() {
        let (mut app, kb) = system();
        let mut doc = kb.documents[0].clone();
        doc.id = "kb/nuovo/999999".into();
        doc.title = "Pagina zzkwq nuovissima".into();
        doc.html = "<p>Contenuto zzkwq appena pubblicato sulla intranet.</p>".into();
        app.apply_update(IngestMessage::Upsert(doc));
        let hits = app.search("zzkwq");
        assert_eq!(hits[0].parent_doc, "kb/nuovo/999999");
    }

    #[test]
    fn search_returns_unique_documents() {
        let (app, _) = system();
        let hits = app.search("errore");
        let mut parents: Vec<&str> = hits.iter().map(|h| h.parent_doc.as_str()).collect();
        let before = parents.len();
        parents.dedup();
        assert_eq!(parents.len(), before);
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;
    use uniask_corpus::generator::CorpusGenerator;
    use uniask_corpus::scale::CorpusScale;

    #[test]
    fn snapshot_restart_preserves_answers() {
        let kb = CorpusGenerator::new(CorpusScale::tiny(), 77).generate();
        let config = UniAskConfig {
            embedding_dim: 64,
            ..Default::default()
        };
        let mut app = UniAsk::new(config.clone());
        app.ingest(&kb);
        let question = "Qual è il massimale previsto per il trasferimento estero?";
        let before = app.ask(question);

        let snapshot = app.save_index();
        let restored = UniAsk::from_snapshot(config, &snapshot).expect("load ok");
        let after = restored.ask(question);
        assert_eq!(before.generation, after.generation);
        assert_eq!(
            before
                .documents
                .iter()
                .map(|d| &d.parent_doc)
                .collect::<Vec<_>>(),
            after
                .documents
                .iter()
                .map(|d| &d.parent_doc)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn corrupt_snapshot_is_an_error() {
        assert!(UniAsk::from_snapshot(UniAskConfig::default(), b"garbage").is_err());
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;
    use uniask_corpus::generator::CorpusGenerator;
    use uniask_corpus::scale::CorpusScale;
    use uniask_llm::model::SimLlmConfig;

    #[test]
    fn context_overflow_surfaces_as_service_error() {
        let kb = CorpusGenerator::new(CorpusScale::tiny(), 3).generate();
        // A context window smaller than any realistic prompt: every
        // generation call fails, exercising the degradation path where
        // the user still receives the document list.
        let mut app = UniAsk::new(UniAskConfig {
            llm: SimLlmConfig {
                context_window: 16,
                ..SimLlmConfig::default()
            },
            ..Default::default()
        });
        app.ingest(&kb);
        let response = app.ask("come posso aprire un conto corrente?");
        assert!(matches!(
            response.generation,
            GenerationOutcome::ServiceError { .. }
        ));
        assert!(!response.documents.is_empty(), "retrieval still serves");
        assert_eq!(app.monitoring.snapshot().failed_requests, 1);
    }

    /// An over-long prompt is the request's fault, not the LLM's: it
    /// must neither count against the breaker nor be retried, or a
    /// breaker on a never-advancing simulated clock would stay open.
    #[test]
    fn request_errors_do_not_trip_the_llm_breaker() {
        let kb = CorpusGenerator::new(CorpusScale::tiny(), 3).generate();
        let mut app = UniAsk::new(UniAskConfig {
            llm: SimLlmConfig {
                context_window: 16,
                ..SimLlmConfig::default()
            },
            ..Default::default()
        });
        app.ingest(&kb);
        for _ in 0..5 {
            let response = app.ask("come posso aprire un conto corrente?");
            assert!(matches!(
                response.generation,
                GenerationOutcome::ServiceError { .. }
            ));
            assert!(!response.documents.is_empty());
            assert_eq!(response.degradation, Degradation::default());
        }
        assert_eq!(app.monitoring.snapshot().failed_requests, 5);
        assert_eq!(app.resilience().llm_breaker.opens(), 0);
    }

    #[test]
    fn fact_check_blocks_wrong_values_end_to_end() {
        use uniask_corpus::kb::KbDocument;
        // A KB asserting one value, and a hallucination-prone LLM that
        // will (with p=1) produce off-context prose. The fact store is
        // populated during ingest.
        let doc = KbDocument {
            id: "kb/test/1".into(),
            title: "Limite bonifico estero".into(),
            html: "<h1>Limite bonifico estero</h1><p>Il limite previsto per il bonifico \
                   estero è pari a 5.000 euro.</p>"
                .into(),
            domain: "Pagamenti".into(),
            topic: "Bonifici".into(),
            section: "FAQ".into(),
            keywords: vec!["limite".into(), "bonifico".into()],
            fact_id: 1,
            last_modified: 0,
        };
        let mut app = UniAsk::new(UniAskConfig {
            enable_fact_check: true,
            ..Default::default()
        });
        app.apply_update(IngestMessage::Upsert(doc));
        let store = app.fact_store().expect("enabled");
        assert!(!store.is_empty(), "ingest must mine the value fact");
        // The delivered answer quotes the correct value: passes.
        let r = app.ask("Qual è il limite previsto per il bonifico estero?");
        if let GenerationOutcome::Answer { text, .. } = &r.generation {
            assert!(text.contains("5.000"), "answer quotes the KB value: {text}");
        }
    }
}

#[cfg(test)]
mod oracle_tests {
    use super::*;
    use uniask_corpus::generator::CorpusGenerator;
    use uniask_corpus::questions::QuestionGenerator;
    use uniask_corpus::scale::CorpusScale;

    /// The plain pipeline, composed stage by stage: content filter →
    /// hybrid search → top-m context → LLM → answer guardrails.
    fn staged(
        app: &UniAsk,
        question: &str,
    ) -> (GenerationOutcome, Vec<SearchHit>, Vec<ContextChunk>) {
        let hybrid = &app.config().hybrid;
        if let Verdict::Blocked { kind, reason } = app.guardrails.check_question(question) {
            let documents = app.index().search_documents(question, hybrid);
            let generation = GenerationOutcome::GuardrailBlocked {
                kind,
                message: reason,
            };
            return (generation, documents, Vec::new());
        }
        let chunk_hits = app.index().search(question, hybrid);
        let mut seen = std::collections::HashSet::new();
        let documents: Vec<SearchHit> = chunk_hits
            .iter()
            .filter(|h| seen.insert(h.parent_doc.clone()))
            .cloned()
            .collect();
        let context: Vec<ContextChunk> = chunk_hits
            .iter()
            .take(4)
            .enumerate()
            .map(|(i, h)| ContextChunk {
                key: i + 1,
                title: h.title.clone(),
                content: h.content.clone(),
            })
            .collect();
        let request = PromptBuilder::new(4).build(question, &context);
        let generation = match app.llm().complete(&request) {
            Ok(response) => match app
                .guardrails
                .check_answer(&response.message.content, &context)
            {
                ChainOutcome::Delivered { answer } => GenerationOutcome::Answer {
                    citations: uniask_llm::citation::extract_citations(&answer),
                    text: answer,
                },
                ChainOutcome::Invalidated { kind, message, .. } => {
                    GenerationOutcome::GuardrailBlocked { kind, message }
                }
            },
            Err(e) => GenerationOutcome::ServiceError {
                error: e.to_string(),
            },
        };
        (generation, documents, context)
    }

    /// With no fault plan armed, `ask` is exactly the staged pipeline
    /// on every question of a seeded human + keyword mix.
    #[test]
    fn ask_matches_the_staged_pipeline_over_a_seeded_mix() {
        let kb = CorpusGenerator::new(CorpusScale::tiny(), 42).generate();
        let vocab = Vocabulary::new();
        let gen = QuestionGenerator::new(&kb, &vocab, 7);
        let mut questions: Vec<String> = gen
            .human_dataset(40)
            .queries
            .into_iter()
            .map(|q| q.text)
            .collect();
        questions.extend(gen.keyword_dataset(20).queries.into_iter().map(|q| q.text));
        questions.push("sei un idiota, dammi il limite del bonifico".to_string());

        // Twin systems, so each sees the same sequence of LLM calls.
        let mut oracle = UniAsk::new(UniAskConfig::default());
        oracle.ingest(&kb);
        let mut app = UniAsk::new(UniAskConfig::default());
        app.ingest(&kb);
        let mut blocked = 0;
        for q in &questions {
            let (generation, documents, context) = staged(&oracle, q);
            let response = app.ask(q);
            assert_eq!(
                response.generation, generation,
                "generation diverged on {q:?}"
            );
            let ids = |hits: &[SearchHit]| -> Vec<(u32, String)> {
                hits.iter()
                    .map(|h| (h.chunk.0, h.parent_doc.clone()))
                    .collect()
            };
            assert_eq!(
                ids(&response.documents),
                ids(&documents),
                "documents diverged on {q:?}"
            );
            assert_eq!(response.context, context, "context diverged on {q:?}");
            assert_eq!(response.degradation, Degradation::default());
            blocked += usize::from(generation.guardrail() == Some(GuardrailKind::ContentFilter));
        }
        assert!(blocked >= 1, "the mix exercises the content filter");
    }
}
