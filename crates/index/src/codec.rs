//! Binary index snapshots.
//!
//! Production search services persist their partitions; this module
//! gives the inverted index a compact, versioned, checksummed binary
//! format so a deployment can snapshot after a bulk ingest and restore
//! at startup instead of re-analyzing the whole KB.
//!
//! Layout (all integers little-endian; `v` = LEB128 varint):
//!
//! ```text
//! "UAIX" | version:u16 | next_id:v | live_docs:v
//! schema: nfields:v, then per field: name, attr-bits:u8
//! deleted: count:v, sorted ids delta-encoded:v…
//! fields:  count:v, then per searchable field:
//!          name | nlens:v (id-delta:v, len:v)…   ← non-zero doc lengths
//!          postings: nterms:v, per term:
//!                    term | live_df:v | max_tf:v | min_len:v
//!                    nblocks:v, per sealed block:
//!                      count:v | first-doc-delta:v | span:v
//!                      max_tf:v | min_len:v | doc_bits:u8 | tf_bits:u8
//!                      nwords:v | packed words:u64…
//!                    ntail:v (doc-delta:v, tf:v)…
//!                    [tail_max_tf:v | tail_min_len:v]   ← iff ntail > 0
//! tags:    ndocs:v, per doc: id:v, nvalues:v,
//!          per value: field-name | kind:u8 | payload
//! xxh64 checksum of everything above (seed 0, `uniask_text::checksum`)
//! ```
//!
//! The block-compressed posting layout is persisted *verbatim*: sealed
//! blocks keep their bit-packed words and per-block `max_tf`/`min_len`
//! bounds, so a restored index resumes Block-Max pruning with zero
//! re-packing work (and the snapshot stays as small as the in-memory
//! form). The per-list statistics (`live_df`, `max_tf`, `min_len`) are
//! stored too, so queries run at full pruning power without a warm-up
//! rescan. `total_len` and `docs_with_field` are recomputed from the
//! doc-length table during decode rather than stored.
//!
//! Strings are length-prefixed (varint) UTF-8. Field and term tables
//! are written in sorted order so snapshots are byte-identical for
//! equal indexes (deterministic builds remain deterministic on disk).

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use uniask_text::analyzer::Analyzer;
use uniask_text::checksum::xxh64;

use crate::doc::{DocId, DocSet, FieldValue};
use crate::inverted::{InvertedIndex, PostingBlock, PostingList, BLOCK_SIZE};
use crate::schema::{FieldAttributes, Schema};

/// Magic bytes of the snapshot format.
pub const MAGIC: &[u8; 4] = b"UAIX";
/// Format version; [`decode`] rejects every other version.
pub const VERSION: u16 = 4;

/// Errors raised while decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer does not start with the snapshot magic.
    BadMagic,
    /// The snapshot was written by an unsupported format version.
    UnsupportedVersion(u16),
    /// The payload checksum does not match (truncation/corruption).
    ChecksumMismatch,
    /// The buffer ended mid-structure.
    Truncated,
    /// A string field held invalid UTF-8.
    InvalidUtf8,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a UniAsk index snapshot"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            CodecError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            CodecError::Truncated => write!(f, "snapshot truncated"),
            CodecError::InvalidUtf8 => write!(f, "snapshot contains invalid UTF-8"),
        }
    }
}

impl std::error::Error for CodecError {}

// ------------------------------------------------------------ varint

fn put_varint(buf: &mut BytesMut, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

fn get_varint(buf: &mut Bytes) -> Result<u64, CodecError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(CodecError::Truncated);
        }
        let byte = buf.get_u8();
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift >= 64 {
            return Err(CodecError::Truncated);
        }
    }
}

fn put_str(buf: &mut BytesMut, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String, CodecError> {
    let len = get_varint(buf)? as usize;
    if buf.remaining() < len {
        return Err(CodecError::Truncated);
    }
    let raw = buf.split_to(len);
    String::from_utf8(raw.to_vec()).map_err(|_| CodecError::InvalidUtf8)
}

// ------------------------------------------------------------ encode

/// Serialize an index into a snapshot buffer (current version).
pub fn encode(index: &InvertedIndex) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 * 1024);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    put_varint(&mut buf, u64::from(index.next_id));
    put_varint(&mut buf, index.live_docs as u64);

    // Schema.
    let fields = index.schema().fields();
    put_varint(&mut buf, fields.len() as u64);
    for spec in fields {
        put_str(&mut buf, &spec.name);
        let bits = (spec.attributes.searchable as u8)
            | ((spec.attributes.retrievable as u8) << 1)
            | ((spec.attributes.filterable as u8) << 2);
        buf.put_u8(bits);
    }

    // Deleted set ([`DocSet::iter`] is already ascending).
    put_varint(&mut buf, index.deleted.len() as u64);
    let mut prev = 0u32;
    for doc in index.deleted.iter() {
        put_varint(&mut buf, u64::from(doc.0 - prev));
        prev = doc.0;
    }

    // Searchable field structures, sorted by name for determinism.
    let mut field_names: Vec<&String> = index.fields.keys().collect();
    field_names.sort();
    put_varint(&mut buf, field_names.len() as u64);
    for name in field_names {
        let field = &index.fields[name];
        put_str(&mut buf, name);
        // Non-zero entries of the dense doc-length array.
        let lens: Vec<(u32, u32)> = field
            .doc_len
            .iter()
            .enumerate()
            .filter(|(_, &len)| len != 0)
            .map(|(id, &len)| (id as u32, len))
            .collect();
        put_varint(&mut buf, lens.len() as u64);
        let mut prev = 0u32;
        for (id, len) in lens {
            put_varint(&mut buf, u64::from(id - prev));
            prev = id;
            put_varint(&mut buf, u64::from(len));
        }
        // Postings with cached statistics, sorted by term string.
        let mut terms: Vec<(&str, u32)> = field
            .postings
            .keys()
            .map(|&tid| (index.dict.term(tid), tid))
            .collect();
        terms.sort_unstable();
        put_varint(&mut buf, terms.len() as u64);
        for (term, tid) in terms {
            let list = &field.postings[&tid];
            put_str(&mut buf, term);
            put_varint(&mut buf, u64::from(list.live_df));
            put_varint(&mut buf, u64::from(list.max_tf));
            put_varint(&mut buf, u64::from(list.min_len));
            // Sealed blocks travel packed: header fields plus the raw
            // bit-packed words.
            put_varint(&mut buf, list.blocks.len() as u64);
            let mut prev_last = 0u32;
            for block in &list.blocks {
                put_varint(&mut buf, u64::from(block.count));
                put_varint(&mut buf, u64::from(block.first_doc - prev_last));
                put_varint(&mut buf, u64::from(block.last_doc - block.first_doc));
                put_varint(&mut buf, u64::from(block.max_tf));
                put_varint(&mut buf, u64::from(block.min_len));
                buf.put_u8(block.doc_bits);
                buf.put_u8(block.tf_bits);
                put_varint(&mut buf, block.words.len() as u64);
                for &w in block.words.iter() {
                    buf.put_u64_le(w);
                }
                prev_last = block.last_doc;
            }
            // Tail postings as plain varint pairs (< BLOCK_SIZE of them).
            put_varint(&mut buf, list.tail_docs.len() as u64);
            let mut prev = prev_last;
            for (&doc, &tf) in list.tail_docs.iter().zip(&list.tail_tfs) {
                put_varint(&mut buf, u64::from(doc - prev));
                prev = doc;
                put_varint(&mut buf, u64::from(tf));
            }
            if !list.tail_docs.is_empty() {
                put_varint(&mut buf, u64::from(list.tail_max_tf));
                put_varint(&mut buf, u64::from(list.tail_min_len));
            }
        }
    }

    // Tags.
    let mut tagged: Vec<(u32, &Vec<(String, FieldValue)>)> =
        index.tags.iter().map(|(d, v)| (d.0, v)).collect();
    tagged.sort_by_key(|(d, _)| *d);
    put_varint(&mut buf, tagged.len() as u64);
    for (doc, values) in tagged {
        put_varint(&mut buf, u64::from(doc));
        put_varint(&mut buf, values.len() as u64);
        for (field, value) in values {
            put_str(&mut buf, field);
            match value {
                FieldValue::Text(t) => {
                    buf.put_u8(0);
                    put_str(&mut buf, t);
                }
                FieldValue::Tags(tags) => {
                    buf.put_u8(1);
                    put_varint(&mut buf, tags.len() as u64);
                    for t in tags {
                        put_str(&mut buf, t);
                    }
                }
            }
        }
    }

    // Checksum trailer.
    let checksum = xxh64(&buf, 0);
    buf.put_u64_le(checksum);
    buf.freeze()
}

// ------------------------------------------------------------ decode

/// Restore an index from a snapshot buffer written by [`encode`].
///
/// The analyzer is not serialized (it is a code artefact, not data);
/// the caller supplies the same chain used at indexing time.
pub fn decode(snapshot: &[u8], analyzer: Arc<dyn Analyzer>) -> Result<InvertedIndex, CodecError> {
    if snapshot.len() < MAGIC.len() + 2 + 8 {
        return Err(CodecError::Truncated);
    }
    let (payload, trailer) = snapshot.split_at(snapshot.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    if xxh64(payload, 0) != stored {
        return Err(CodecError::ChecksumMismatch);
    }
    let mut buf = Bytes::copy_from_slice(payload);
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let next_id = get_varint(&mut buf)? as u32;
    let live_docs = get_varint(&mut buf)? as usize;

    // Schema.
    let nfields = get_varint(&mut buf)? as usize;
    let mut schema = Schema::new();
    for _ in 0..nfields {
        let name = get_str(&mut buf)?;
        if !buf.has_remaining() {
            return Err(CodecError::Truncated);
        }
        let bits = buf.get_u8();
        schema = schema.with_field(
            &name,
            FieldAttributes {
                searchable: bits & 1 != 0,
                retrievable: bits & 2 != 0,
                filterable: bits & 4 != 0,
            },
        );
    }
    let mut index = InvertedIndex::with_analyzer(schema, analyzer);
    index.next_id = next_id;
    index.live_docs = live_docs;

    // Deleted set.
    let ndeleted = get_varint(&mut buf)? as usize;
    let mut deleted = DocSet::new();
    let mut prev = 0u32;
    for _ in 0..ndeleted {
        prev += get_varint(&mut buf)? as u32;
        deleted.insert(DocId(prev));
    }
    index.deleted = deleted;

    // Searchable fields.
    let nsearchable = get_varint(&mut buf)? as usize;
    for _ in 0..nsearchable {
        let name = get_str(&mut buf)?;
        let nlens = get_varint(&mut buf)? as usize;
        let mut doc_len: Vec<u32> = vec![0; next_id as usize];
        let mut prev = 0u32;
        for _ in 0..nlens {
            prev += get_varint(&mut buf)? as u32;
            let len = get_varint(&mut buf)? as u32;
            if doc_len.len() <= prev as usize {
                doc_len.resize(prev as usize + 1, 0);
            }
            doc_len[prev as usize] = len;
        }
        let mut total_len = 0u64;
        let mut docs_with_field = 0u32;
        for &len in &doc_len {
            if len != 0 {
                total_len += u64::from(len);
                docs_with_field += 1;
            }
        }

        let nterms = get_varint(&mut buf)? as usize;
        let mut postings = std::collections::HashMap::with_capacity(nterms);
        let mut doc_terms: std::collections::HashMap<u32, Vec<u32>> =
            std::collections::HashMap::new();
        for _ in 0..nterms {
            let term = get_str(&mut buf)?;
            let tid = index.dict.intern(&term);
            let live_df = get_varint(&mut buf)? as u32;
            let max_tf = get_varint(&mut buf)? as u32;
            let min_len = get_varint(&mut buf)? as u32;
            let mut list = decode_blocked_list(&mut buf)?;
            list.live_df = live_df;
            list.max_tf = max_tf;
            list.min_len = min_len;
            // Forward index: live documents only (tombstoned documents
            // already had theirs removed before the snapshot).
            list.for_each(|doc, _| {
                if !index.deleted.contains(DocId(doc)) {
                    doc_terms.entry(doc).or_default().push(tid);
                }
            });
            postings.insert(tid, list);
        }
        let field = index.fields.entry(name).or_default();
        field.postings = postings;
        field.doc_len = doc_len;
        field.doc_terms = doc_terms;
        field.total_len = total_len;
        field.docs_with_field = docs_with_field;
    }

    // Tags.
    let ndocs = get_varint(&mut buf)? as usize;
    for _ in 0..ndocs {
        let doc = DocId(get_varint(&mut buf)? as u32);
        let nvalues = get_varint(&mut buf)? as usize;
        let mut values = Vec::with_capacity(nvalues);
        for _ in 0..nvalues {
            let field = get_str(&mut buf)?;
            if !buf.has_remaining() {
                return Err(CodecError::Truncated);
            }
            let value = match buf.get_u8() {
                0 => FieldValue::Text(get_str(&mut buf)?),
                _ => {
                    let ntags = get_varint(&mut buf)? as usize;
                    let mut tags = Vec::with_capacity(ntags);
                    for _ in 0..ntags {
                        tags.push(get_str(&mut buf)?);
                    }
                    FieldValue::Tags(tags)
                }
            };
            values.push((field, value));
        }
        index.tags.insert(doc, values);
    }
    Ok(index)
}

/// Read one block-compressed posting list (blocks verbatim, tail as
/// varint pairs). Statistics are filled in by the caller.
fn decode_blocked_list(buf: &mut Bytes) -> Result<PostingList, CodecError> {
    let mut list = PostingList::default();
    let nblocks = get_varint(buf)? as usize;
    let mut prev_last = 0u32;
    for i in 0..nblocks {
        let count = get_varint(buf)?;
        if count == 0 || count > BLOCK_SIZE as u64 {
            return Err(CodecError::Truncated);
        }
        let first_delta = get_varint(buf)? as u32;
        if i > 0 && first_delta == 0 {
            return Err(CodecError::Truncated);
        }
        let first_doc = prev_last
            .checked_add(first_delta)
            .ok_or(CodecError::Truncated)?;
        let span = get_varint(buf)? as u32;
        let last_doc = first_doc.checked_add(span).ok_or(CodecError::Truncated)?;
        let max_tf = get_varint(buf)? as u32;
        let min_len = get_varint(buf)? as u32;
        if buf.remaining() < 2 {
            return Err(CodecError::Truncated);
        }
        let doc_bits = buf.get_u8();
        let tf_bits = buf.get_u8();
        if doc_bits > 32 || tf_bits > 32 {
            return Err(CodecError::Truncated);
        }
        let nwords = get_varint(buf)? as usize;
        if buf.remaining() < nwords * 8 {
            return Err(CodecError::Truncated);
        }
        // The packed payload must hold exactly the bits the header
        // promises (tolerating the one partially used trailing word).
        let need_bits =
            (count as usize - 1) * usize::from(doc_bits) + count as usize * usize::from(tf_bits);
        if nwords != need_bits.div_ceil(64) {
            return Err(CodecError::Truncated);
        }
        let mut words = Vec::with_capacity(nwords);
        for _ in 0..nwords {
            words.push(buf.get_u64_le());
        }
        list.blocks.push(PostingBlock {
            first_doc,
            last_doc,
            count: count as u16,
            doc_bits,
            tf_bits,
            max_tf,
            min_len,
            words: words.into_boxed_slice(),
        });
        prev_last = last_doc;
    }
    let ntail = get_varint(buf)? as usize;
    if ntail >= BLOCK_SIZE {
        return Err(CodecError::Truncated);
    }
    let mut prev = prev_last;
    for i in 0..ntail {
        let delta = get_varint(buf)? as u32;
        if (i > 0 || nblocks > 0) && delta == 0 {
            return Err(CodecError::Truncated);
        }
        prev = prev.checked_add(delta).ok_or(CodecError::Truncated)?;
        let tf = get_varint(buf)? as u32;
        if tf == 0 {
            return Err(CodecError::Truncated);
        }
        list.tail_docs.push(prev);
        list.tail_tfs.push(tf);
    }
    if ntail > 0 {
        list.tail_max_tf = get_varint(buf)? as u32;
        list.tail_min_len = get_varint(buf)? as u32;
    }
    Ok(list)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::IndexDocument;
    use crate::searcher::{ScoringProfile, Searcher};
    use uniask_text::analyzer::ItalianAnalyzer;

    fn sample_index() -> InvertedIndex {
        let mut idx = InvertedIndex::new(Schema::uniask_chunk_schema());
        for (title, content, domain) in [
            (
                "Bonifico estero",
                "come eseguire il bonifico verso banche estere",
                "Pagamenti",
            ),
            (
                "Blocco carta",
                "la carta smarrita si blocca dal numero verde",
                "Carte",
            ),
            ("Mutuo giovani", "requisiti del mutuo agevolato", "Crediti"),
        ] {
            idx.add(
                &IndexDocument::new()
                    .with_text("title", title)
                    .with_text("content", content)
                    .with_tags("domain", vec![domain.to_string()]),
            )
            .unwrap();
        }
        idx.delete(DocId(2)).unwrap();
        idx
    }

    #[test]
    fn roundtrip_preserves_search_behaviour() {
        let original = sample_index();
        let snapshot = encode(&original);
        let restored = decode(&snapshot, Arc::new(ItalianAnalyzer::new())).unwrap();
        assert_eq!(restored.doc_count(), original.doc_count());
        assert_eq!(restored.schema(), original.schema());
        let searcher = Searcher::new();
        for query in ["bonifico estero", "carta smarrita", "mutuo", "banche"] {
            let a = searcher
                .search(&original, query, 10, &ScoringProfile::neutral(), None)
                .unwrap();
            let b = searcher
                .search(&restored, query, 10, &ScoringProfile::neutral(), None)
                .unwrap();
            assert_eq!(a, b, "divergence on `{query}`");
        }
    }

    #[test]
    fn roundtrip_preserves_tags_and_tombstones() {
        let original = sample_index();
        let restored = decode(&encode(&original), Arc::new(ItalianAnalyzer::new())).unwrap();
        assert!(restored
            .matches_filter(DocId(0), "domain", "pagamenti")
            .unwrap());
        assert!(!restored.is_live(DocId(2)), "tombstone lost");
        assert!(restored.is_live(DocId(1)));
    }

    #[test]
    fn roundtrip_preserves_cached_statistics() {
        let original = sample_index();
        let restored = decode(&encode(&original), Arc::new(ItalianAnalyzer::new())).unwrap();
        // df of terms both live ("bonific") and fully tombstoned ("mutu").
        assert_eq!(restored.term_df("content", "bonific"), 1);
        assert_eq!(restored.term_df("content", "mutu"), 0);
        for (name, field) in &original.fields {
            let restored_field = &restored.fields[name];
            for (&tid, list) in &field.postings {
                let term = original.dict.term(tid);
                let rtid = restored.dict.lookup(term).unwrap();
                let rlist = &restored_field.postings[&rtid];
                assert_eq!(rlist.live_df, list.live_df, "{name}/{term} live_df");
                assert_eq!(rlist.max_tf, list.max_tf, "{name}/{term} max_tf");
                assert_eq!(rlist.min_len, list.min_len, "{name}/{term} min_len");
                assert_eq!(rlist.decoded(), list.decoded(), "{name}/{term} postings");
                assert_eq!(rlist.blocks, list.blocks, "{name}/{term} packed blocks");
            }
            assert_eq!(
                restored_field.total_len, field.total_len,
                "{name} total_len"
            );
            assert_eq!(
                restored_field.docs_with_field, field.docs_with_field,
                "{name} docs_with_field"
            );
        }
    }

    #[test]
    fn restored_index_supports_further_deletes() {
        let mut restored =
            decode(&encode(&sample_index()), Arc::new(ItalianAnalyzer::new())).unwrap();
        // The rebuilt forward index must support the delete path.
        assert_eq!(restored.term_df("content", "cart"), 1);
        restored.delete(DocId(1)).unwrap();
        assert_eq!(restored.term_df("content", "cart"), 0);
        assert_eq!(restored.doc_count(), 1);
    }

    #[test]
    fn multi_block_lists_roundtrip_verbatim() {
        // Enough repetitions of a shared term to seal posting blocks, so
        // the packed-block persistence path is actually exercised.
        let mut idx = InvertedIndex::new(Schema::uniask_chunk_schema());
        for i in 0..(3 * BLOCK_SIZE + 17) {
            idx.add(
                &IndexDocument::new()
                    .with_text("title", format!("filiale {i}"))
                    .with_text("content", format!("orari sportello filiale numero {i}")),
            )
            .unwrap();
        }
        idx.delete(DocId(5)).unwrap();
        idx.delete(DocId(200)).unwrap();
        let tid = idx.dict.lookup("filial").unwrap();
        let list = &idx.fields["content"].postings[&tid];
        assert!(list.blocks.len() >= 3, "expected sealed blocks");

        let restored = decode(&encode(&idx), Arc::new(ItalianAnalyzer::new())).unwrap();
        let rtid = restored.dict.lookup("filial").unwrap();
        let rlist = &restored.fields["content"].postings[&rtid];
        assert_eq!(
            rlist.blocks, list.blocks,
            "sealed blocks must travel verbatim"
        );
        assert_eq!(rlist.decoded(), list.decoded());
        assert_eq!(rlist.tail_docs, list.tail_docs);
        assert_eq!(rlist.tail_tfs, list.tail_tfs);
        assert_eq!(rlist.tail_max_tf, list.tail_max_tf);
        assert_eq!(rlist.tail_min_len, list.tail_min_len);

        let searcher = Searcher::new();
        let a = searcher
            .search(
                &idx,
                "sportello filiale",
                10,
                &ScoringProfile::neutral(),
                None,
            )
            .unwrap();
        let b = searcher
            .search(
                &restored,
                "sportello filiale",
                10,
                &ScoringProfile::neutral(),
                None,
            )
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn encoding_is_deterministic() {
        let a = encode(&sample_index());
        let b = encode(&sample_index());
        assert_eq!(a, b, "snapshots of equal indexes must be byte-identical");
    }

    #[test]
    fn adding_after_restore_continues_ids() {
        let mut restored =
            decode(&encode(&sample_index()), Arc::new(ItalianAnalyzer::new())).unwrap();
        let id = restored
            .add(&IndexDocument::new().with_text("title", "nuovo documento"))
            .unwrap();
        assert_eq!(id, DocId(3), "id allocation must resume after the snapshot");
    }

    #[test]
    fn corruption_is_detected() {
        let snapshot = encode(&sample_index());
        let mut bad = snapshot.to_vec();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        assert_eq!(
            decode(&bad, Arc::new(ItalianAnalyzer::new())).unwrap_err(),
            CodecError::ChecksumMismatch
        );
    }

    #[test]
    fn truncation_is_detected() {
        let snapshot = encode(&sample_index());
        let truncated = &snapshot[..snapshot.len() / 2];
        assert!(decode(truncated, Arc::new(ItalianAnalyzer::new())).is_err());
        assert_eq!(
            decode(&[], Arc::new(ItalianAnalyzer::new())).unwrap_err(),
            CodecError::Truncated
        );
    }

    #[test]
    fn bad_magic_is_detected() {
        let snapshot = encode(&sample_index());
        let mut bad = snapshot.to_vec();
        bad[0] = b'X';
        // Checksum covers the magic, so either error is acceptable; fix
        // the checksum to isolate the magic check.
        let plen = bad.len() - 8;
        let crc = xxh64(&bad[..plen], 0);
        bad[plen..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode(&bad, Arc::new(ItalianAnalyzer::new())).unwrap_err(),
            CodecError::BadMagic
        );
    }

    #[test]
    fn unsupported_version_is_detected() {
        let snapshot = encode(&sample_index());
        for version in [0u16, 1, 2, 3, 5, 0xFF] {
            let mut bad = snapshot.to_vec();
            bad[4..6].copy_from_slice(&version.to_le_bytes());
            // Re-seal the trailer so the version check (not the
            // checksum) is what rejects it.
            let plen = bad.len() - 8;
            let crc = xxh64(&bad[..plen], 0);
            bad[plen..].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(
                decode(&bad, Arc::new(ItalianAnalyzer::new())).unwrap_err(),
                CodecError::UnsupportedVersion(version),
                "version {version}"
            );
        }
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = BytesMut::new();
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            1 << 20,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            put_varint(&mut buf, v);
        }
        let mut bytes = buf.freeze();
        for expected in [
            0u64,
            1,
            127,
            128,
            300,
            1 << 20,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            assert_eq!(get_varint(&mut bytes).unwrap(), expected);
        }
        assert!(!bytes.has_remaining());
    }

    #[test]
    fn empty_index_roundtrips() {
        let idx = InvertedIndex::new(Schema::uniask_chunk_schema());
        let restored = decode(&encode(&idx), Arc::new(ItalianAnalyzer::new())).unwrap();
        assert_eq!(restored.doc_count(), 0);
    }
}
