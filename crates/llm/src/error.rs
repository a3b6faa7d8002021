//! LLM service errors.

use std::fmt;

/// Errors returned by chat models and the hosting service.
#[derive(Debug, Clone, PartialEq)]
pub enum LlmError {
    /// The request exceeded the service's token rate limit.
    RateLimited {
        /// Seconds until capacity is expected to be available again.
        retry_after_secs: f64,
    },
    /// The prompt exceeded the model's context window.
    ContextTooLong {
        /// Tokens in the submitted prompt.
        got: usize,
        /// The model's limit.
        limit: usize,
    },
    /// The request was rejected by the content filter.
    ContentFiltered,
    /// The (simulated) backend failed transiently.
    ServiceUnavailable,
}

impl LlmError {
    /// Whether this is a dependency failure (rate limit, outage) that a
    /// retry may clear, as opposed to an error in the request itself.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            LlmError::RateLimited { .. } | LlmError::ServiceUnavailable
        )
    }
}

impl fmt::Display for LlmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LlmError::RateLimited { retry_after_secs } => {
                write!(f, "rate limited; retry after {retry_after_secs:.1}s")
            }
            LlmError::ContextTooLong { got, limit } => {
                write!(
                    f,
                    "prompt of {got} tokens exceeds the {limit}-token context window"
                )
            }
            LlmError::ContentFiltered => write!(f, "request blocked by content filter"),
            LlmError::ServiceUnavailable => write!(f, "LLM service unavailable"),
        }
    }
}

impl std::error::Error for LlmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(LlmError::RateLimited {
            retry_after_secs: 2.0
        }
        .to_string()
        .contains("rate limited"));
        assert!(LlmError::ContextTooLong {
            got: 9000,
            limit: 4096
        }
        .to_string()
        .contains("9000"));
    }
}
