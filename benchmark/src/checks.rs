//! What the benchmark checks about every answer. A violation is a
//! failed operation, and any failed operation fails the run.

use std::collections::HashSet;

use uniask_core::{AskResponse, GenerationOutcome};

/// How the generation module ended, without its text.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Outcome {
    Answer,
    /// A guardrail fired (its name). Not a failure: the user still gets
    /// the document list (paper section 6).
    Blocked(String),
    Fallback,
    ServiceError,
}

/// The part of an `AskResponse` that must repeat: document ids in rank
/// order and the outcome. Chunk ids are left out on purpose, since
/// ingest order changes them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Observed {
    pub documents: Vec<String>,
    pub outcome: Outcome,
}

pub fn observe(response: &AskResponse) -> Observed {
    Observed {
        documents: response
            .documents
            .iter()
            .map(|hit| hit.parent_doc.clone())
            .collect(),
        outcome: match &response.generation {
            GenerationOutcome::Answer { .. } => Outcome::Answer,
            GenerationOutcome::GuardrailBlocked { kind, .. } => Outcome::Blocked(kind.to_string()),
            GenerationOutcome::Fallback { .. } => Outcome::Fallback,
            GenerationOutcome::ServiceError { .. } => Outcome::ServiceError,
        },
    }
}

/// Why an operation counts as failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    Panicked,
    ServiceError,
    EmptyDocumentList,
    /// The same question answered differently than before.
    NotRepeatable,
    /// The page just upserted is not at rank 1 for its marker token.
    StaleRead {
        expected: String,
        got: Option<String>,
    },
    /// A deleted page came back in a later answer.
    ResurrectedDelete(String),
    /// Answers differ across a snapshot load or a recovery.
    RestartMismatch {
        probe: usize,
    },
    DurabilityError(String),
    UnindexedDocuments(usize),
    /// A property of the workload itself does not hold.
    Workload(String),
}

/// The checks every ask must pass.
pub fn check_ask(observed: &Observed) -> Result<(), Failure> {
    if observed.outcome == Outcome::ServiceError {
        return Err(Failure::ServiceError);
    }
    if observed.documents.is_empty() {
        return Err(Failure::EmptyDocumentList);
    }
    Ok(())
}

/// Read-your-writes: the marker ask issued right after an upsert must
/// return the upserted page first.
pub fn check_read_your_writes(observed: &Observed, page: &str) -> Result<(), Failure> {
    match observed.documents.first() {
        Some(first) if first == page => Ok(()),
        first => Err(Failure::StaleRead {
            expected: page.to_string(),
            got: first.cloned(),
        }),
    }
}

/// No answer may list a page deleted earlier.
pub fn check_no_resurrection(
    observed: &Observed,
    deleted: &HashSet<String>,
) -> Result<(), Failure> {
    match observed.documents.iter().find(|id| deleted.contains(*id)) {
        Some(id) => Err(Failure::ResurrectedDelete(id.clone())),
        None => Ok(()),
    }
}

/// Probe answers before and after a restart must be identical.
pub fn check_restart(before: &[Observed], after: &[Observed]) -> Vec<Failure> {
    assert_eq!(before.len(), after.len(), "probe sets differ in size");
    before
        .iter()
        .zip(after)
        .enumerate()
        .filter(|(_, (b, a))| b != a)
        .map(|(probe, _)| Failure::RestartMismatch { probe })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(documents: &[&str]) -> Observed {
        Observed {
            documents: documents.iter().map(|d| d.to_string()).collect(),
            outcome: Outcome::Answer,
        }
    }

    #[test]
    fn a_sound_answer_passes_every_check() {
        let observed = answer(&["kb/a/1", "kb/b/2"]);
        assert_eq!(check_ask(&observed), Ok(()));
        assert_eq!(check_read_your_writes(&observed, "kb/a/1"), Ok(()));
        let deleted = HashSet::from(["kb/c/3".to_string()]);
        assert_eq!(check_no_resurrection(&observed, &deleted), Ok(()));
        assert!(check_restart(
            std::slice::from_ref(&observed),
            std::slice::from_ref(&observed)
        )
        .is_empty());
    }

    #[test]
    fn guardrail_blocks_are_not_failures_but_errors_are() {
        let mut observed = answer(&["kb/a/1"]);
        observed.outcome = Outcome::Blocked("rouge".into());
        assert_eq!(check_ask(&observed), Ok(()));
        observed.outcome = Outcome::ServiceError;
        assert_eq!(check_ask(&observed), Err(Failure::ServiceError));
        assert_eq!(check_ask(&answer(&[])), Err(Failure::EmptyDocumentList));
    }

    #[test]
    fn a_wrong_rank_one_is_a_stale_read() {
        let doctored = answer(&["kb/b/2", "kb/a/1"]);
        assert_eq!(
            check_read_your_writes(&doctored, "kb/a/1"),
            Err(Failure::StaleRead {
                expected: "kb/a/1".into(),
                got: Some("kb/b/2".into())
            })
        );
        assert!(check_read_your_writes(&answer(&[]), "kb/a/1").is_err());
    }

    #[test]
    fn a_resurrected_delete_is_flagged() {
        let deleted = HashSet::from(["kb/b/2".to_string()]);
        assert_eq!(
            check_no_resurrection(&answer(&["kb/a/1", "kb/b/2"]), &deleted),
            Err(Failure::ResurrectedDelete("kb/b/2".into()))
        );
    }

    #[test]
    fn a_restart_mismatch_names_the_probe() {
        let before = [answer(&["kb/a/1"]), answer(&["kb/b/2", "kb/c/3"])];
        let mut after = before.clone();
        after[1].documents.swap(0, 1);
        assert_eq!(
            check_restart(&before, &after),
            vec![Failure::RestartMismatch { probe: 1 }]
        );
        after[0].outcome = Outcome::Blocked("citation".into());
        assert_eq!(check_restart(&before, &after).len(), 2);
    }
}
