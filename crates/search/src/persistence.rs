//! Full-index persistence.
//!
//! Composes the inverted-index codec and the two HNSW snapshots with a
//! chunk-metadata table into one buffer, so a deployment can snapshot
//! the whole retrieval state after the initial bulk ingest and restore
//! it at startup (re-embedding 60 k pages is the expensive part of a
//! cold start).
//!
//! The embedder and reranker are code artefacts, not data — the caller
//! supplies them at load time exactly as configured at save time (the
//! embedding seed travels inside the vectors themselves, so a mismatch
//! surfaces immediately as degraded similarity, not corruption).

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use uniask_index::codec as index_codec;
use uniask_index::doc::{DocId, IndexDocument};
use uniask_text::checksum::xxh64;
use uniask_vector::embedding::Embedder;
use uniask_vector::snapshot as vector_snapshot;

use crate::hybrid::{ChunkMeta, SearchIndex};
use crate::reranker::SemanticReranker;

/// Magic bytes of the composite format.
pub const MAGIC: &[u8; 4] = b"UASX";
/// Format version; [`SearchIndex::load`] rejects every other version.
///
/// An XXH64 checksum trailer (seed 0, `uniask_text::checksum`) over the
/// whole body rejects torn or bit-rotted snapshots up front instead of
/// half-parsing them. The mutation generation (cache-invalidation epoch)
/// is persisted so a restored index resumes *past* the saved epoch
/// instead of resetting to 0 — pre-save cache entries can therefore
/// never alias a post-restore index state.
pub const VERSION: u16 = 4;

/// Errors raised while restoring a search-index snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// Not a composite snapshot.
    BadMagic,
    /// Unsupported version.
    UnsupportedVersion(u16),
    /// Buffer ended mid-structure.
    Truncated,
    /// The embedded inverted-index section failed to decode.
    Index(index_codec::CodecError),
    /// A vector section failed to decode.
    Vectors(vector_snapshot::SnapshotError),
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// The checksum trailer does not match the body: the snapshot is
    /// torn or bit-rotted.
    ChecksumMismatch,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "not a UniAsk search-index snapshot"),
            PersistError::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            PersistError::Truncated => write!(f, "search-index snapshot truncated"),
            PersistError::Index(e) => write!(f, "inverted-index section: {e}"),
            PersistError::Vectors(e) => write!(f, "vector section: {e}"),
            PersistError::InvalidUtf8 => write!(f, "snapshot contains invalid UTF-8"),
            PersistError::ChecksumMismatch => {
                write!(f, "snapshot checksum mismatch (torn or corrupted)")
            }
        }
    }
}

impl std::error::Error for PersistError {}

fn put_section(buf: &mut BytesMut, section: &[u8]) {
    buf.put_u64_le(section.len() as u64);
    buf.put_slice(section);
}

fn get_section(buf: &mut Bytes) -> Result<Bytes, PersistError> {
    if buf.remaining() < 8 {
        return Err(PersistError::Truncated);
    }
    let len = buf.get_u64_le() as usize;
    if buf.remaining() < len {
        return Err(PersistError::Truncated);
    }
    Ok(buf.split_to(len))
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String, PersistError> {
    if buf.remaining() < 4 {
        return Err(PersistError::Truncated);
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(PersistError::Truncated);
    }
    String::from_utf8(buf.split_to(len).to_vec()).map_err(|_| PersistError::InvalidUtf8)
}

impl SearchIndex {
    /// Serialize the full retrieval state.
    pub fn save(&self) -> Bytes {
        // The vector sections, most of the bytes, are encoded in place;
        // the small inverted-index section is copied in.
        let index_section = index_codec::encode(&self.inverted);
        let graphs = [&self.title_vectors, &self.content_vectors];
        let graph_lens = graphs.map(vector_snapshot::encoded_len);
        let summary = |i: usize| {
            self.store
                .get(DocId(i as u32))
                .ok()
                .and_then(|d| d.text("summary"))
                .unwrap_or_default()
        };
        let table_len: usize = self
            .chunks
            .iter()
            .enumerate()
            .map(|(i, chunk)| {
                1 + 4 * 4
                    + chunk.parent_doc.len()
                    + chunk.title.len()
                    + chunk.content.len()
                    + summary(i).len()
            })
            .sum();
        let sections_len: usize = 3 * 8 + index_section.len() + graph_lens.iter().sum::<usize>();
        let capacity = 4 + 2 + 8 + sections_len + 4 + table_len + 8;
        let mut buf = BytesMut::with_capacity(capacity);
        buf.put_slice(MAGIC);
        buf.put_u16_le(VERSION);
        // The mutation generation travels with the state it describes,
        // so cache-epoch monotonicity survives a restore.
        buf.put_u64_le(self.generation());
        put_section(&mut buf, &index_section);
        for (graph, len) in graphs.into_iter().zip(graph_lens) {
            buf.put_u64_le(len as u64);
            vector_snapshot::encode_into(graph, &mut buf);
        }
        // Chunk metadata table: per chunk, live flag + parent/title/
        // content + the summary needed to rebuild the document store.
        buf.put_u32_le(self.chunks.len() as u32);
        for (i, chunk) in self.chunks.iter().enumerate() {
            buf.put_u8(u8::from(self.live[i]));
            put_str(&mut buf, &chunk.parent_doc);
            put_str(&mut buf, &chunk.title);
            put_str(&mut buf, &chunk.content);
            put_str(&mut buf, summary(i));
        }
        let checksum = xxh64(&buf, 0);
        buf.put_u64_le(checksum);
        debug_assert_eq!(buf.len(), capacity, "save sized its buffer exactly");
        buf.freeze()
    }

    /// Restore a search index saved with [`SearchIndex::save`].
    ///
    /// `embedder` and `reranker` must match the configuration used at
    /// save time.
    pub fn load(
        snapshot: &[u8],
        embedder: Arc<dyn Embedder>,
        reranker: SemanticReranker,
    ) -> Result<Self, PersistError> {
        let mut buf = Bytes::copy_from_slice(snapshot);
        if buf.remaining() < 6 {
            return Err(PersistError::Truncated);
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = buf.get_u16_le();
        if version != VERSION {
            return Err(PersistError::UnsupportedVersion(version));
        }
        // Verify the trailer before trusting any length field below:
        // a torn write must fail here, not mid-parse.
        if snapshot.len() < 6 + 8 {
            return Err(PersistError::Truncated);
        }
        let body_len = snapshot.len() - 8;
        let stored = u64::from_le_bytes(snapshot[body_len..].try_into().expect("8-byte trailer"));
        if xxh64(&snapshot[..body_len], 0) != stored {
            return Err(PersistError::ChecksumMismatch);
        }
        buf.truncate(body_len - 6);
        if buf.remaining() < 8 {
            return Err(PersistError::Truncated);
        }
        let saved_generation = buf.get_u64_le();
        let index_section = get_section(&mut buf)?;
        let title_section = get_section(&mut buf)?;
        let content_section = get_section(&mut buf)?;
        let inverted = index_codec::decode(
            &index_section,
            Arc::new(uniask_text::analyzer::ItalianAnalyzer::new()),
        )
        .map_err(PersistError::Index)?;
        let title_vectors =
            vector_snapshot::decode(&title_section).map_err(PersistError::Vectors)?;
        let content_vectors =
            vector_snapshot::decode(&content_section).map_err(PersistError::Vectors)?;

        if buf.remaining() < 4 {
            return Err(PersistError::Truncated);
        }
        let nchunks = buf.get_u32_le() as usize;
        let mut chunks = Vec::with_capacity(nchunks);
        let mut live = Vec::with_capacity(nchunks);
        let mut by_parent: std::collections::HashMap<String, Vec<u32>> =
            std::collections::HashMap::new();
        let mut store = uniask_index::store::DocumentStore::new();
        let mut tombstones = 0usize;
        for i in 0..nchunks {
            if !buf.has_remaining() {
                return Err(PersistError::Truncated);
            }
            let is_live = buf.get_u8() == 1;
            let parent_doc = get_str(&mut buf)?;
            let title = get_str(&mut buf)?;
            let content = get_str(&mut buf)?;
            let summary = get_str(&mut buf)?;
            if is_live {
                by_parent
                    .entry(parent_doc.clone())
                    .or_default()
                    .push(i as u32);
                store.put(
                    inverted.schema(),
                    DocId(i as u32),
                    &IndexDocument::new()
                        .with_text("title", title.clone())
                        .with_text("content", content.clone())
                        .with_text("summary", summary),
                );
            } else {
                tombstones += 1;
            }
            live.push(is_live);
            chunks.push(ChunkMeta {
                parent_doc,
                title,
                content,
                ..ChunkMeta::default()
            });
        }
        let mut index = SearchIndex {
            inverted,
            store,
            title_vectors,
            content_vectors,
            embedder,
            reranker,
            chunks,
            searcher: uniask_index::searcher::Searcher::new(),
            live,
            by_parent,
            tombstones,
            title_dead: 0,
            content_dead: 0,
            cache: None,
            // Resume one epoch *past* the saved one: any cache entry
            // produced before the save (generation ≤ saved) can never
            // key-match the restored index, even if a cache object
            // outlives the snapshot round-trip. Pre-fix this reset to
            // 0, silently re-validating pre-save generations.
            generation: std::sync::atomic::AtomicU64::new(saved_generation.saturating_add(1)),
            fault_hook: None,
        };
        index.count_graph_nodes();
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::{ChunkRecord, HybridConfig};
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
        Arc::new(SyntheticEmbedder::new(32, 9))
    }

    fn sample() -> SearchIndex {
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
        idx
    }

    #[test]
    fn roundtrip_preserves_search_results() {
        let original = sample();
        let snapshot = original.save();
        let restored =
            SearchIndex::load(&snapshot, embedder(), SemanticReranker::default()).unwrap();
        assert_eq!(restored.len(), original.len());
        for query in ["bonifico estero", "carta", "mutuo agevolato"] {
            let a = original.search(query, &HybridConfig::default());
            let b = restored.search(query, &HybridConfig::default());
            assert_eq!(a, b, "divergence on `{query}`");
        }
    }

    #[test]
    fn tombstones_survive_and_updates_work_after_load() {
        let snapshot = sample().save();
        let mut restored =
            SearchIndex::load(&snapshot, embedder(), SemanticReranker::default()).unwrap();
        // The removed document stays gone.
        let hits = restored.search("mutuo agevolato", &HybridConfig::default());
        assert!(hits.iter().all(|h| h.parent_doc != "kb/3"));
        // Live updates continue to work.
        restored.remove_document("kb/1");
        restored.add_chunk(&record(
            "kb/1",
            "Bonifico nuovo",
            "istruzioni aggiornate bonifico",
        ));
        let hits = restored.search("bonifico", &HybridConfig::default());
        assert_eq!(hits[0].title, "Bonifico nuovo");
    }

    #[test]
    fn corrupted_snapshot_is_rejected() {
        let snapshot = sample().save();
        let mut bad = snapshot.to_vec();
        bad[40] ^= 0xFF;
        assert!(SearchIndex::load(&bad, embedder(), SemanticReranker::default()).is_err());
        assert!(
            SearchIndex::load(&snapshot[..30], embedder(), SemanticReranker::default()).is_err()
        );
        assert_eq!(
            SearchIndex::load(b"xxxx\x01\x00", embedder(), SemanticReranker::default())
                .unwrap_err(),
            PersistError::BadMagic
        );
    }

    #[test]
    fn save_is_deterministic() {
        assert_eq!(sample().save(), sample().save());
    }

    #[test]
    fn load_resumes_generation_strictly_past_the_saved_epoch() {
        // Regression: pre-fix, `load` reset the mutation generation to
        // 0, so cache entries keyed with pre-save generations would
        // key-match (and be served against) a restored index once the
        // counter wrapped back over the same small values.
        let original = sample();
        let saved_generation = original.generation();
        assert!(saved_generation > 0, "mutations advanced the epoch");
        let restored =
            SearchIndex::load(&original.save(), embedder(), SemanticReranker::default()).unwrap();
        assert_eq!(
            restored.generation(),
            saved_generation + 1,
            "restored index must resume past the saved epoch, not at 0"
        );
    }

    #[test]
    fn stale_cache_entries_cannot_hit_after_restore() {
        use crate::cache::{CacheConfig, QueryCache};
        // Simulate a cache object that outlives a snapshot round-trip:
        // entries stored at pre-save generations must all miss against
        // the restored index's generation.
        let original = sample();
        let cache = QueryCache::new(CacheConfig::default());
        let config = HybridConfig::default();
        let stale_hits = original.search("bonifico estero", &config);
        for g in 0..=original.generation() {
            cache.put("bonifico estero", config.fingerprint(), g, &stale_hits);
        }
        let restored =
            SearchIndex::load(&original.save(), embedder(), SemanticReranker::default()).unwrap();
        assert!(
            cache
                .get(
                    "bonifico estero",
                    config.fingerprint(),
                    restored.generation()
                )
                .is_none(),
            "pre-save cache entry served against a restored index"
        );
    }

    #[test]
    fn version_below_minimum_is_rejected() {
        let snapshot = sample().save();
        for version in [1u16, 2, 3] {
            let mut old = snapshot.to_vec();
            old[4..6].copy_from_slice(&version.to_le_bytes());
            // Re-seal the trailer so the version check (not the checksum)
            // is what rejects it.
            let body_len = old.len() - 8;
            let sum = xxh64(&old[..body_len], 0).to_le_bytes();
            old[body_len..].copy_from_slice(&sum);
            assert_eq!(
                SearchIndex::load(&old, embedder(), SemanticReranker::default()).unwrap_err(),
                PersistError::UnsupportedVersion(version)
            );
        }
    }

    #[test]
    fn body_corruption_reports_checksum_mismatch() {
        let snapshot = sample().save();
        let mut bad = snapshot.to_vec();
        // Flip one payload byte (past magic+version): the trailer must
        // catch it before any section parsing happens.
        bad[64] ^= 0xFF;
        assert_eq!(
            SearchIndex::load(&bad, embedder(), SemanticReranker::default()).unwrap_err(),
            PersistError::ChecksumMismatch
        );
        // Flipping the trailer itself is equally fatal.
        let last = snapshot.len() - 1;
        let mut bad = snapshot.to_vec();
        bad[last] ^= 0xFF;
        assert_eq!(
            SearchIndex::load(&bad, embedder(), SemanticReranker::default()).unwrap_err(),
            PersistError::ChecksumMismatch
        );
    }
}
