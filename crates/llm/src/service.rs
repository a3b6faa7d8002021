//! The LLM hosting service model.
//!
//! Wraps a [`ChatModel`] with the operational envelope of the hosted
//! resource: a token-bucket rate limit and a latency model (fixed
//! overhead plus per-token decode time). The load test of Figure 2
//! drives this service on a simulated clock; "the LLM inference is the
//! computationally heaviest and most expensive step", so it is the rate
//! limiter for the whole application.

use parking_lot::Mutex;

use crate::chat::{ChatRequest, ChatResponse};
use crate::error::LlmError;
use crate::model::ChatModel;
use crate::rate_limit::TokenBucket;

/// Operational parameters of the hosted LLM resource.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LlmServiceConfig {
    /// Token-bucket capacity (burst size), in tokens.
    pub bucket_capacity: f64,
    /// Sustained token throughput, tokens/second.
    pub tokens_per_sec: f64,
    /// Fixed request overhead, seconds.
    pub base_latency_secs: f64,
    /// Per completion-token decode time, seconds.
    pub per_token_latency_secs: f64,
}

impl Default for LlmServiceConfig {
    fn default() -> Self {
        // Calibrated so the Figure 2 load test (ramp 1 → 3 req/s of
        // 7 200-token requests over 60 min) produces a small but
        // non-zero failure tail, as in the paper (267 / 7200).
        LlmServiceConfig {
            bucket_capacity: 120_000.0,
            tokens_per_sec: 16_000.0,
            base_latency_secs: 0.35,
            per_token_latency_secs: 0.012,
        }
    }
}

/// Outcome of a timed service call.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedResponse {
    /// The model response.
    pub response: ChatResponse,
    /// Simulated service latency for this request, seconds.
    pub latency_secs: f64,
}

/// A rate-limited, latency-modelled LLM service.
pub struct LlmService<M: ChatModel> {
    model: M,
    config: LlmServiceConfig,
    bucket: Mutex<TokenBucket>,
}

impl<M: ChatModel> LlmService<M> {
    /// Wrap `model` with the service envelope.
    pub fn new(model: M, config: LlmServiceConfig) -> Self {
        LlmService {
            model,
            config,
            bucket: Mutex::new(TokenBucket::new(
                config.bucket_capacity,
                config.tokens_per_sec,
            )),
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The service configuration.
    pub fn config(&self) -> &LlmServiceConfig {
        &self.config
    }

    /// Execute `request` at simulated time `now` (seconds).
    ///
    /// Rate limiting is applied on the *total* token cost of the
    /// request (prompt plus completion), matching how hosted LLM APIs
    /// meter usage.
    pub fn complete_at(&self, request: &ChatRequest, now: f64) -> Result<TimedResponse, LlmError> {
        let prompt_tokens = request.prompt_tokens() as f64;
        // Reserve the prompt cost up front; the completion cost is
        // settled after generation.
        {
            let mut bucket = self.bucket.lock();
            if let Err(wait) = bucket.try_acquire(prompt_tokens, now) {
                return Err(LlmError::RateLimited {
                    retry_after_secs: wait,
                });
            }
        }
        let response = self.model.complete(request)?;
        let completion_tokens = response.usage.completion_tokens as f64;
        {
            let mut bucket = self.bucket.lock();
            // Completion tokens are debited unconditionally (the work
            // was done); this can push the bucket into deficit, delaying
            // subsequent requests — how hosted quotas behave.
            let _ = bucket.try_acquire(completion_tokens, now);
        }
        let latency_secs =
            self.config.base_latency_secs + self.config.per_token_latency_secs * completion_tokens;
        Ok(TimedResponse {
            response,
            latency_secs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chat::{ChatMessage, FinishReason, Usage};

    /// A model that echoes a fixed answer.
    struct FixedModel;

    impl ChatModel for FixedModel {
        fn complete(&self, request: &ChatRequest) -> Result<ChatResponse, LlmError> {
            Ok(ChatResponse {
                message: ChatMessage::assistant("risposta"),
                finish_reason: FinishReason::Stop,
                usage: Usage {
                    prompt_tokens: request.prompt_tokens(),
                    completion_tokens: 10,
                },
            })
        }
    }

    fn request(words: usize) -> ChatRequest {
        let text = vec!["parola"; words].join(" ");
        ChatRequest::new(vec![ChatMessage::user(text)])
    }

    #[test]
    fn within_budget_succeeds_with_latency() {
        let svc = LlmService::new(
            FixedModel,
            LlmServiceConfig {
                bucket_capacity: 1000.0,
                tokens_per_sec: 100.0,
                base_latency_secs: 0.5,
                per_token_latency_secs: 0.01,
            },
        );
        let out = svc.complete_at(&request(10), 0.0).unwrap();
        assert!((out.latency_secs - (0.5 + 0.1)).abs() < 1e-9);
    }

    #[test]
    fn exhausted_bucket_rate_limits() {
        let svc = LlmService::new(
            FixedModel,
            LlmServiceConfig {
                bucket_capacity: 50.0,
                tokens_per_sec: 1.0,
                base_latency_secs: 0.0,
                per_token_latency_secs: 0.0,
            },
        );
        // Two words = 2 prompt tokens + 10 completion each; drain it.
        for i in 0..4 {
            let _ = svc.complete_at(&request(2), f64::from(i) * 0.01);
        }
        let err = svc.complete_at(&request(60), 0.05).unwrap_err();
        assert!(matches!(err, LlmError::RateLimited { .. }));
    }

    #[test]
    fn bucket_recovers_over_time() {
        let svc = LlmService::new(
            FixedModel,
            LlmServiceConfig {
                bucket_capacity: 60.0,
                tokens_per_sec: 10.0,
                base_latency_secs: 0.0,
                per_token_latency_secs: 0.0,
            },
        );
        // request(20) is 40 prompt tokens (+10 completion): drains most
        // of the 60-token bucket.
        svc.complete_at(&request(20), 0.0).unwrap();
        assert!(svc.complete_at(&request(20), 0.01).is_err());
        assert!(svc.complete_at(&request(20), 10.0).is_ok());
    }
}
