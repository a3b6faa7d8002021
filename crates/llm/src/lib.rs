//! # uniask-llm
//!
//! The generation substrate: chat-completion API types mirroring the
//! interface UniAsk uses against `gpt-3.5-turbo`, the paper's prompt
//! construction (general background → JSON-formatted context →
//! repeated answer-validity recommendations), citation formatting and
//! parsing, a deterministic extractive [`SimLlm`] standing in for the
//! hosted model, the LLM-backed document summarizer/keyword extractor
//! used by the indexing service, and the token-bucket rate limiter +
//! hosting-service model exercised by the paper's load test (Figure 2).

pub mod chat;
pub mod citation;
pub mod error;
pub mod model;
pub mod prompt;
pub mod rate_limit;
pub mod service;
pub mod summarize;

pub use chat::{ChatMessage, ChatRequest, ChatResponse, FinishReason, Role, Usage};
pub use citation::{extract_citations, format_citation, strip_citations};
pub use error::LlmError;
pub use model::{ChatModel, MockChatModel, SimLlm, SimLlmConfig};
pub use prompt::{ContextChunk, PromptBuilder};
pub use rate_limit::TokenBucket;
pub use service::{LlmService, LlmServiceConfig};
pub use summarize::{extract_keywords, summarize};
