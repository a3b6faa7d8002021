//! Exhaustive corruption fuzzing of the composite `UASX` snapshot.
//!
//! Flipping any single byte of a saved index, or truncating it at any
//! offset, must yield a load `Err` — never a panic and never a
//! silently accepted (and subtly wrong) retrieval state. The checksum
//! trailer over the whole body is what makes this sweep hold.

use std::sync::Arc;

use uniask_search::hybrid::{ChunkRecord, SearchIndex};
use uniask_search::reranker::SemanticReranker;
use uniask_vector::embedding::SyntheticEmbedder;

fn record(parent: &str, title: &str, content: &str) -> ChunkRecord {
    ChunkRecord {
        parent_doc: parent.to_string(),
        ordinal: 0,
        title: title.to_string(),
        content: content.to_string(),
        summary: format!("sintesi di {title}"),
        domain: "Pagamenti".into(),
        topic: "T".into(),
        section: "S".into(),
        keywords: vec!["kw".into()],
    }
}

fn embedder() -> Arc<SyntheticEmbedder> {
    Arc::new(SyntheticEmbedder::new(16, 9))
}

fn sample_snapshot() -> Vec<u8> {
    let mut idx = SearchIndex::new(embedder(), SemanticReranker::default());
    idx.add_chunk(&record(
        "kb/1",
        "Bonifico estero",
        "il bonifico estero richiede il bic",
    ));
    idx.add_chunk(&record(
        "kb/2",
        "Blocco carta",
        "la carta si blocca dal numero verde",
    ));
    idx.add_chunk(&record("kb/3", "Mutuo", "requisiti del mutuo agevolato"));
    idx.remove_document("kb/3");
    idx.save().to_vec()
}

#[test]
fn baseline_snapshot_loads() {
    let snapshot = sample_snapshot();
    SearchIndex::load(&snapshot, embedder(), SemanticReranker::default())
        .expect("pristine snapshot must load");
}

#[test]
fn every_single_byte_flip_is_rejected() {
    let snapshot = sample_snapshot();
    for offset in 0..snapshot.len() {
        let mut bad = snapshot.clone();
        bad[offset] ^= 0xFF;
        assert!(
            SearchIndex::load(&bad, embedder(), SemanticReranker::default()).is_err(),
            "flip at byte {offset} must not load"
        );
    }
}

#[test]
fn every_truncation_is_rejected() {
    let snapshot = sample_snapshot();
    for cut in 0..snapshot.len() {
        assert!(
            SearchIndex::load(&snapshot[..cut], embedder(), SemanticReranker::default()).is_err(),
            "truncation at byte {cut} must not load"
        );
    }
}
