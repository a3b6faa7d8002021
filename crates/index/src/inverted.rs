//! The inverted index.
//!
//! One postings structure per *searchable* field ("an inverted index is
//! built for each searchable field"), document length statistics for
//! BM25, filterable tag storage for exact-match filters, and tombstone
//! deletion so the ingestion service can replace updated documents.
//!
//! ## Compact layout
//!
//! Terms are interned once per index into a [`TermDict`] (`term →
//! TermId`); every field keys its postings by the 4-byte [`TermId`]
//! instead of owning a copy of the string. A posting list is a sequence
//! of delta-encoded, bit-packed [`PostingBlock`]s of up to
//! [`BLOCK_SIZE`] postings each, closed by a small uncompressed tail
//! that absorbs appends until it fills and is sealed into the next
//! block. Every block carries its own `max_tf`/`min_len`/`last_doc`
//! metadata, which is what lets the query engine compute *per-block*
//! BM25 upper bounds and skip whole blocks without decoding them
//! (Block-Max MaxScore — see `searcher.rs`). Per-document field lengths
//! live in a dense `Vec<u32>` indexed by [`DocId`]. Each list also
//! carries incrementally maintained global statistics — live document
//! frequency, maximum term frequency and minimum field length — so the
//! query engine can compute BM25 IDFs and MaxScore upper bounds without
//! ever rescanning postings or tombstones at query time.

use std::collections::HashMap;
use std::sync::Arc;

use uniask_text::analyzer::{Analyzer, ItalianAnalyzer, KeywordAnalyzer};

use crate::doc::{DocId, DocSet, FieldValue, IndexDocument};
use crate::error::IndexError;
use crate::schema::Schema;

/// Interned identifier of a term (index-wide, shared across fields).
pub type TermId = u32;

/// Postings per sealed block. 128 keeps a block within two cache lines
/// even at full 32-bit widths and matches the granularity used by
/// block-max evaluation in the literature.
pub(crate) const BLOCK_SIZE: usize = 128;

/// The term dictionary: a bidirectional `term ↔ TermId` intern table.
#[derive(Debug, Default)]
pub(crate) struct TermDict {
    map: HashMap<String, TermId>,
    terms: Vec<String>,
}

impl TermDict {
    /// Intern `term`, returning its stable id.
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.map.get(term) {
            return id;
        }
        let id = self.terms.len() as TermId;
        self.map.insert(term.to_string(), id);
        self.terms.push(term.to_string());
        id
    }

    /// Look up an already-interned term.
    pub fn lookup(&self, term: &str) -> Option<TermId> {
        self.map.get(term).copied()
    }

    /// The surface form of `id`.
    pub fn term(&self, id: TermId) -> &str {
        &self.terms[id as usize]
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Approximate heap bytes held by the intern table.
    pub fn heap_bytes(&self) -> usize {
        let strings: usize = self.terms.iter().map(|t| t.capacity()).sum();
        // Each term is stored twice (map key + table) plus the map/vec
        // entry overhead; 48 bytes/entry approximates the HashMap slot.
        2 * strings + self.terms.len() * (std::mem::size_of::<String>() + 48)
    }
}

/// Number of bits needed to represent `max` (0 for `max == 0`).
#[inline]
fn bits_for(max: u32) -> u8 {
    (32 - max.leading_zeros()) as u8
}

/// LSB-first bit packer over `u64` words.
#[derive(Default)]
struct BitWriter {
    words: Vec<u64>,
    bit: usize,
}

impl BitWriter {
    /// Append the low `bits` bits of `value`.
    fn push(&mut self, value: u64, bits: u8) {
        if bits == 0 {
            return;
        }
        debug_assert!(bits <= 32 && (bits == 64 || value < (1u64 << bits)));
        let word = self.bit / 64;
        let off = self.bit % 64;
        if word >= self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= value << off;
        if off + usize::from(bits) > 64 {
            self.words.push(value >> (64 - off));
        }
        self.bit += usize::from(bits);
    }
}

/// Read `bits` bits starting at bit offset `bit` (LSB-first layout).
#[inline]
fn read_bits(words: &[u64], bit: usize, bits: u8) -> u64 {
    if bits == 0 {
        return 0;
    }
    let word = bit / 64;
    let off = bit % 64;
    let mut v = words[word] >> off;
    if off + usize::from(bits) > 64 {
        v |= words[word + 1] << (64 - off);
    }
    v & ((1u64 << bits) - 1)
}

/// A sealed, immutable run of up to [`BLOCK_SIZE`] postings.
///
/// Documents are stored as bit-packed gaps — `(doc[i] − doc[i−1] − 1)`
/// in `doc_bits` bits each (the first document lives in the header) —
/// followed by the term frequencies as `(tf − 1)` in `tf_bits` bits
/// each. The header keeps everything block-max evaluation needs without
/// decoding: the doc-id range, the block-local maximum term frequency
/// and minimum field length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PostingBlock {
    /// First document id in the block.
    pub first_doc: u32,
    /// Last document id in the block (the skip key).
    pub last_doc: u32,
    /// Number of postings (1..=[`BLOCK_SIZE`]).
    pub count: u16,
    /// Bit width of each packed doc gap.
    pub doc_bits: u8,
    /// Bit width of each packed `tf − 1`.
    pub tf_bits: u8,
    /// Maximum term frequency inside this block.
    pub max_tf: u32,
    /// Minimum field length over documents posted in this block.
    pub min_len: u32,
    /// The packed payload.
    pub words: Box<[u64]>,
}

impl PostingBlock {
    /// Pack parallel `docs`/`tfs` slices (sorted ascending, same length,
    /// `tfs[i] ≥ 1`) into a sealed block carrying the given bounds.
    pub fn pack(docs: &[u32], tfs: &[u32], max_tf: u32, min_len: u32) -> PostingBlock {
        debug_assert!(!docs.is_empty() && docs.len() <= BLOCK_SIZE);
        debug_assert_eq!(docs.len(), tfs.len());
        let max_gap = docs.windows(2).map(|w| w[1] - w[0] - 1).max().unwrap_or(0);
        let doc_bits = bits_for(max_gap);
        let max_tf_m1 = tfs.iter().map(|&t| t - 1).max().unwrap_or(0);
        let tf_bits = bits_for(max_tf_m1);
        let total_bits =
            (docs.len() - 1) * usize::from(doc_bits) + docs.len() * usize::from(tf_bits);
        let mut w = BitWriter {
            words: Vec::with_capacity(total_bits.div_ceil(64)),
            bit: 0,
        };
        for pair in docs.windows(2) {
            w.push(u64::from(pair[1] - pair[0] - 1), doc_bits);
        }
        for &tf in tfs {
            w.push(u64::from(tf - 1), tf_bits);
        }
        PostingBlock {
            first_doc: docs[0],
            last_doc: *docs.last().expect("non-empty block"),
            count: docs.len() as u16,
            doc_bits,
            tf_bits,
            max_tf,
            min_len,
            words: w.words.into_boxed_slice(),
        }
    }

    /// Decode the full block into the scratch buffers.
    pub fn decode_into(&self, docs: &mut Vec<u32>, tfs: &mut Vec<u32>) {
        docs.clear();
        tfs.clear();
        let count = usize::from(self.count);
        docs.reserve(count);
        tfs.reserve(count);
        docs.push(self.first_doc);
        let mut bit = 0;
        let mut prev = self.first_doc;
        for _ in 1..count {
            let gap = read_bits(&self.words, bit, self.doc_bits) as u32;
            bit += usize::from(self.doc_bits);
            prev = prev.wrapping_add(gap).wrapping_add(1);
            docs.push(prev);
        }
        for _ in 0..count {
            tfs.push(read_bits(&self.words, bit, self.tf_bits) as u32 + 1);
            bit += usize::from(self.tf_bits);
        }
    }

    /// Heap bytes of the packed payload.
    pub fn payload_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

/// A block-compressed posting list with incrementally maintained
/// statistics.
///
/// Sealed [`PostingBlock`]s hold exactly [`BLOCK_SIZE`] postings when
/// built through [`PostingList::push`] (the codec may reconstruct
/// shorter blocks); the uncompressed tail buffers at most
/// `BLOCK_SIZE − 1` trailing postings together with its own running
/// `max_tf`/`min_len`, so the tail participates in block-max pruning
/// exactly like a sealed block. Tombstoned documents stay packed and
/// are skipped through the query-time candidate set; `live_df` tracks
/// the live count exactly, while `max_tf`/`min_len` are bounds over
/// *all* postings ever added (deletion may leave them stale, which only
/// loosens — never invalidates — the derived MaxScore bound).
#[derive(Debug, Default)]
pub(crate) struct PostingList {
    /// Sealed compressed blocks, ascending doc-id ranges.
    pub blocks: Vec<PostingBlock>,
    /// Uncompressed tail doc ids (all greater than any sealed doc).
    pub tail_docs: Vec<u32>,
    /// Term frequencies parallel to `tail_docs`.
    pub tail_tfs: Vec<u32>,
    /// Maximum term frequency within the tail.
    pub tail_max_tf: u32,
    /// Minimum field length within the tail.
    pub tail_min_len: u32,
    /// Live (non-tombstoned) document frequency.
    pub live_df: u32,
    /// Maximum term frequency over all postings.
    pub max_tf: u32,
    /// Minimum field length over all posted documents.
    pub min_len: u32,
}

impl PostingList {
    pub(crate) fn push(&mut self, doc: u32, tf: u32, field_len: u32) {
        debug_assert!(
            self.last_doc().is_none_or(|d| d < doc),
            "postings must be appended in ascending doc order"
        );
        debug_assert!(tf >= 1, "a posted term occurs at least once");
        let empty = self.blocks.is_empty() && self.tail_docs.is_empty();
        if empty || field_len < self.min_len {
            self.min_len = field_len;
        }
        if tf > self.max_tf {
            self.max_tf = tf;
        }
        if self.tail_docs.is_empty() || field_len < self.tail_min_len {
            self.tail_min_len = field_len;
        }
        if tf > self.tail_max_tf {
            self.tail_max_tf = tf;
        }
        self.tail_docs.push(doc);
        self.tail_tfs.push(tf);
        self.live_df += 1;
        if self.tail_docs.len() == BLOCK_SIZE {
            self.seal_tail();
        }
    }

    /// Compress the tail into a sealed block.
    fn seal_tail(&mut self) {
        self.blocks.push(PostingBlock::pack(
            &self.tail_docs,
            &self.tail_tfs,
            self.tail_max_tf,
            self.tail_min_len,
        ));
        self.tail_docs.clear();
        self.tail_tfs.clear();
        self.tail_max_tf = 0;
        self.tail_min_len = 0;
    }

    /// Greatest document id in the list.
    pub fn last_doc(&self) -> Option<u32> {
        self.tail_docs
            .last()
            .copied()
            .or_else(|| self.blocks.last().map(|b| b.last_doc))
    }

    /// Total number of postings (including tombstoned ones).
    pub fn len(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| usize::from(b.count))
            .sum::<usize>()
            + self.tail_docs.len()
    }

    /// Visit every `(doc, tf)` pair in ascending doc order.
    pub fn for_each(&self, mut f: impl FnMut(u32, u32)) {
        let mut docs = Vec::with_capacity(BLOCK_SIZE);
        let mut tfs = Vec::with_capacity(BLOCK_SIZE);
        for b in &self.blocks {
            b.decode_into(&mut docs, &mut tfs);
            for (&d, &t) in docs.iter().zip(&tfs) {
                f(d, t);
            }
        }
        for (&d, &t) in self.tail_docs.iter().zip(&self.tail_tfs) {
            f(d, t);
        }
    }

    /// Fully decode into `(docs, tfs)` — tests, codec and diagnostics.
    #[cfg(test)]
    pub fn decoded(&self) -> (Vec<u32>, Vec<u32>) {
        let mut docs = Vec::with_capacity(self.len());
        let mut tfs = Vec::with_capacity(self.len());
        self.for_each(|d, t| {
            docs.push(d);
            tfs.push(t);
        });
        (docs, tfs)
    }

    /// Open a read cursor positioned before the first posting.
    pub fn cursor(&self) -> PostingCursor<'_> {
        PostingCursor {
            list: self,
            block: 0,
            pos: 0,
            decoded: usize::MAX,
            docs: Vec::new(),
            tfs: Vec::new(),
        }
    }

    /// Heap bytes of the compressed representation.
    pub fn packed_bytes(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| std::mem::size_of::<PostingBlock>() + b.payload_bytes())
            .sum::<usize>()
            + self.tail_docs.capacity() * 4
            + self.tail_tfs.capacity() * 4
    }

    /// Bytes the former uncompressed `u32`/`u32` struct-of-arrays
    /// layout would occupy for the same postings.
    pub fn logical_bytes(&self) -> usize {
        self.len() * 8
    }
}

/// A forward-only read cursor over one [`PostingList`].
///
/// The cursor walks sealed blocks lazily: a block is bit-unpacked into
/// the cursor's scratch buffers only when a document *inside* it (past
/// the header-resident `first_doc`) must be inspected. [`Self::shallow_seek`]
/// moves across whole blocks using only the `last_doc` header keys,
/// which is what lets Block-Max MaxScore skip runs of documents without
/// ever paying the decode cost.
#[derive(Debug)]
pub(crate) struct PostingCursor<'a> {
    list: &'a PostingList,
    /// Current block index; `list.blocks.len()` means the tail.
    block: usize,
    /// Position inside the current block/tail.
    pos: usize,
    /// Which block index the scratch buffers currently hold.
    decoded: usize,
    docs: Vec<u32>,
    tfs: Vec<u32>,
}

impl PostingCursor<'_> {
    #[inline]
    fn in_tail(&self) -> bool {
        self.block == self.list.blocks.len()
    }

    #[inline]
    fn ensure_decoded(&mut self) {
        if self.decoded != self.block {
            self.list.blocks[self.block].decode_into(&mut self.docs, &mut self.tfs);
            self.decoded = self.block;
        }
    }

    /// Smallest not-yet-consumed document id, `None` when exhausted.
    #[inline]
    pub fn current(&mut self) -> Option<u32> {
        if self.in_tail() {
            return self.list.tail_docs.get(self.pos).copied();
        }
        if self.pos == 0 {
            return Some(self.list.blocks[self.block].first_doc);
        }
        self.ensure_decoded();
        Some(self.docs[self.pos])
    }

    /// Term frequency at the cursor. Must not be exhausted.
    #[inline]
    pub fn current_tf(&mut self) -> u32 {
        if self.in_tail() {
            return self.list.tail_tfs[self.pos];
        }
        self.ensure_decoded();
        self.tfs[self.pos]
    }

    /// Consume the current document.
    #[inline]
    pub fn advance(&mut self) {
        if self.in_tail() {
            self.pos += 1;
            return;
        }
        self.pos += 1;
        if self.pos >= usize::from(self.list.blocks[self.block].count) {
            self.block += 1;
            self.pos = 0;
        }
    }

    /// `(max_tf, min_len, last_doc)` of the block the cursor sits in
    /// (the tail counts as a block), or `None` when exhausted.
    #[inline]
    pub fn block_info(&self) -> Option<(u32, u32, u32)> {
        if self.in_tail() {
            if self.pos >= self.list.tail_docs.len() {
                return None;
            }
            return Some((
                self.list.tail_max_tf,
                self.list.tail_min_len,
                *self.list.tail_docs.last().expect("non-empty tail"),
            ));
        }
        let b = &self.list.blocks[self.block];
        Some((b.max_tf, b.min_len, b.last_doc))
    }

    /// Stable identity of the current block — cache key for per-block
    /// score bounds (the tail maps to `blocks.len()`).
    #[inline]
    pub fn block_key(&self) -> usize {
        self.block
    }

    /// Gallop over block headers: leave `self.block` at the first block
    /// (from the current one) whose `last_doc ≥ target`, resetting the
    /// in-block position when the block changes. Skipped blocks are
    /// never decoded. Safe to discard a mid-block position here: every
    /// remaining doc in a skipped block is `< target`.
    fn gallop_blocks(&mut self, target: u32) {
        let blocks = &self.list.blocks;
        if self.in_tail() || blocks[self.block].last_doc >= target {
            return;
        }
        let mut lo = self.block; // invariant: blocks[lo].last_doc < target
        let mut step = 1usize;
        let mut hi = lo + step;
        while hi < blocks.len() && blocks[hi].last_doc < target {
            lo = hi;
            step <<= 1;
            hi = lo + step;
        }
        let hi = hi.min(blocks.len());
        let idx = lo + 1 + blocks[lo + 1..hi].partition_point(|b| b.last_doc < target);
        self.block = idx;
        self.pos = 0;
    }

    /// Move at block granularity until the current block may contain
    /// `target` (its `last_doc ≥ target`) without decoding anything.
    /// After the call the cursor's block bounds dominate every document
    /// in `[current, block last_doc]`.
    #[inline]
    pub fn shallow_seek(&mut self, target: u32) {
        self.gallop_blocks(target);
    }

    /// Position the cursor at the first document `≥ target` (no-op when
    /// already there; exhausts when none exists).
    pub fn seek(&mut self, target: u32) {
        match self.current() {
            None => return,
            Some(d) if d >= target => return,
            _ => {}
        }
        self.gallop_blocks(target);
        if self.in_tail() {
            let td = &self.list.tail_docs;
            self.pos += td[self.pos..].partition_point(|&d| d < target);
            return;
        }
        let b = &self.list.blocks[self.block];
        if self.pos == 0 && b.first_doc >= target {
            return;
        }
        let count = usize::from(b.count);
        self.ensure_decoded();
        self.pos += self.docs[self.pos..count].partition_point(|&d| d < target);
        debug_assert!(self.pos < count, "last_doc >= target implies in-block hit");
    }
}

/// Postings and statistics for one searchable field.
#[derive(Debug, Default)]
pub(crate) struct FieldIndex {
    /// Term id → posting list.
    pub postings: HashMap<TermId, PostingList>,
    /// Dense per-document field length in terms (0 = field absent or
    /// document deleted).
    pub doc_len: Vec<u32>,
    /// Forward index: doc → terms it posted, for O(|doc|) deletes.
    pub doc_terms: HashMap<u32, Vec<TermId>>,
    /// Sum of all live field lengths (for the BM25 average).
    pub total_len: u64,
    /// Number of live documents that have this field.
    pub docs_with_field: u32,
}

impl FieldIndex {
    fn add(&mut self, dict: &mut TermDict, doc: DocId, terms: &[String]) {
        if terms.is_empty() {
            return;
        }
        let field_len = terms.len() as u32;
        let mut tf: HashMap<TermId, u32> = HashMap::with_capacity(terms.len());
        for t in terms {
            *tf.entry(dict.intern(t)).or_insert(0) += 1;
        }
        let mut posted: Vec<TermId> = Vec::with_capacity(tf.len());
        for (&tid, &freq) in &tf {
            self.postings
                .entry(tid)
                .or_default()
                .push(doc.0, freq, field_len);
            posted.push(tid);
        }
        self.doc_terms.insert(doc.0, posted);
        if self.doc_len.len() <= doc.as_usize() {
            self.doc_len.resize(doc.as_usize() + 1, 0);
        }
        self.doc_len[doc.as_usize()] = field_len;
        self.total_len += u64::from(field_len);
        self.docs_with_field += 1;
    }

    fn delete(&mut self, doc: DocId) {
        let Some(tids) = self.doc_terms.remove(&doc.0) else {
            return;
        };
        for tid in tids {
            if let Some(list) = self.postings.get_mut(&tid) {
                list.live_df -= 1;
            }
        }
        let len = self.doc_len[doc.as_usize()];
        self.doc_len[doc.as_usize()] = 0;
        self.total_len -= u64::from(len);
        self.docs_with_field -= 1;
    }

    /// Average field length over live documents that have this field.
    pub fn avg_len(&self) -> f64 {
        if self.docs_with_field == 0 {
            0.0
        } else {
            self.total_len as f64 / f64::from(self.docs_with_field)
        }
    }
}

/// Resident-memory accounting for an [`InvertedIndex`] — the counters
/// the tier-1 footprint gate reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexMemoryStats {
    /// Total postings across all fields (tombstones included).
    pub posting_entries: usize,
    /// Heap bytes of the block-compressed posting storage.
    pub postings_packed_bytes: usize,
    /// Bytes the uncompressed `u32`/`u32` layout would need.
    pub postings_logical_bytes: usize,
    /// Bytes of the dense per-document field-length arrays.
    pub doc_len_bytes: usize,
    /// Approximate bytes of the term intern table.
    pub dict_bytes: usize,
}

impl IndexMemoryStats {
    /// Compression ratio of posting storage (logical / packed).
    pub fn compression_ratio(&self) -> f64 {
        if self.postings_packed_bytes == 0 {
            1.0
        } else {
            self.postings_logical_bytes as f64 / self.postings_packed_bytes as f64
        }
    }
}

/// An in-memory inverted index with schema-enforced field attributes.
pub struct InvertedIndex {
    schema: Schema,
    analyzer: Arc<dyn Analyzer>,
    tag_analyzer: KeywordAnalyzer,
    pub(crate) dict: TermDict,
    pub(crate) fields: HashMap<String, FieldIndex>,
    /// Filterable field values per document.
    pub(crate) tags: HashMap<DocId, Vec<(String, FieldValue)>>,
    pub(crate) deleted: DocSet,
    pub(crate) next_id: u32,
    pub(crate) live_docs: usize,
}

impl std::fmt::Debug for InvertedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InvertedIndex")
            .field("docs", &self.live_docs)
            .field("terms", &self.dict.len())
            .field("fields", &self.fields.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl InvertedIndex {
    /// Create an index over `schema` using the Italian analysis chain
    /// (the production configuration).
    pub fn new(schema: Schema) -> Self {
        Self::with_analyzer(schema, Arc::new(ItalianAnalyzer::new()))
    }

    /// Create an index with a custom analyzer (the previous-generation
    /// engine uses [`KeywordAnalyzer`] for raw exact matching).
    pub fn with_analyzer(schema: Schema, analyzer: Arc<dyn Analyzer>) -> Self {
        let mut fields = HashMap::new();
        for name in schema.searchable_fields() {
            fields.insert(name.to_string(), FieldIndex::default());
        }
        InvertedIndex {
            schema,
            analyzer,
            tag_analyzer: KeywordAnalyzer::new(),
            dict: TermDict::default(),
            fields,
            tags: HashMap::new(),
            deleted: DocSet::new(),
            next_id: 0,
            live_docs: 0,
        }
    }

    /// The schema this index enforces.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The analyzer used for searchable fields (query side must match).
    pub fn analyzer(&self) -> &Arc<dyn Analyzer> {
        &self.analyzer
    }

    /// Number of live (non-deleted) documents.
    pub fn doc_count(&self) -> usize {
        self.live_docs
    }

    /// Number of distinct interned terms across all fields.
    pub fn term_count(&self) -> usize {
        self.dict.len()
    }

    /// Whether `doc` exists and has not been deleted.
    pub fn is_live(&self, doc: DocId) -> bool {
        doc.0 < self.next_id && !self.deleted.contains(doc)
    }

    /// Live document frequency of `term` in `field` (0 when the term or
    /// field is unknown). Maintained incrementally on add/delete — this
    /// is the cached value the query engine uses, exposed for tests and
    /// diagnostics.
    pub fn term_df(&self, field: &str, term: &str) -> u32 {
        let Some(tid) = self.dict.lookup(term) else {
            return 0;
        };
        self.fields
            .get(field)
            .and_then(|f| f.postings.get(&tid))
            .map_or(0, |p| p.live_df)
    }

    /// Live `(total_len, docs_with_field)` of a searchable field — the
    /// two integers behind the BM25 average length. Exposed so a
    /// multi-segment engine can sum them across segments and reproduce
    /// the exact `avg_len` division a single index would perform.
    pub fn field_len_stats(&self, field: &str) -> (u64, u32) {
        self.fields
            .get(field)
            .map_or((0, 0), |f| (f.total_len, f.docs_with_field))
    }

    /// Field length (in analyzed terms) of one live document, 0 when
    /// the field is absent or the document deleted.
    pub fn doc_field_len(&self, field: &str, doc: DocId) -> u32 {
        self.fields
            .get(field)
            .and_then(|f| f.doc_len.get(doc.0 as usize))
            .copied()
            .unwrap_or(0)
    }

    /// Distinct terms `doc` posts in `field` (empty when absent or
    /// deleted). Term strings, not ids, so callers outside the crate
    /// can account per-term df deltas — e.g. a tombstone overlay
    /// subtracting a deleted doc's contribution from global stats
    /// without mutating the sealed segment.
    pub fn doc_field_terms(&self, field: &str, doc: DocId) -> Vec<String> {
        self.fields
            .get(field)
            .and_then(|f| f.doc_terms.get(&doc.0))
            .map(|tids| {
                tids.iter()
                    .map(|tid| self.dict.term(*tid).to_string())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Names of searchable fields that currently hold postings.
    pub fn posting_fields(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.fields.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Resident-bytes accounting over posting storage, field lengths
    /// and the term dictionary.
    pub fn memory_stats(&self) -> IndexMemoryStats {
        let mut stats = IndexMemoryStats {
            dict_bytes: self.dict.heap_bytes(),
            ..IndexMemoryStats::default()
        };
        for field in self.fields.values() {
            for list in field.postings.values() {
                stats.posting_entries += list.len();
                stats.postings_packed_bytes += list.packed_bytes();
                stats.postings_logical_bytes += list.logical_bytes();
            }
            stats.doc_len_bytes += field.doc_len.capacity() * 4;
        }
        stats
    }

    /// Add a document, returning its assigned [`DocId`].
    ///
    /// Every field must exist in the schema; searchable fields are
    /// analyzed and posted, filterable fields are stored for exact-match
    /// filtering. Fields that are neither are rejected at schema level.
    pub fn add(&mut self, doc: &IndexDocument) -> Result<DocId, IndexError> {
        // Validate first so a failed add leaves the index untouched.
        for (name, _) in doc.fields() {
            if self.schema.field(name).is_none() {
                return Err(IndexError::UnknownField(name.to_string()));
            }
        }
        let id = DocId(self.next_id);
        self.next_id += 1;
        self.live_docs += 1;
        let mut term_buf: Vec<String> = Vec::new();
        for (name, value) in doc.fields() {
            let spec = self.schema.field(name).expect("validated above");
            if spec.attributes.searchable {
                term_buf.clear();
                self.analyzer.analyze_into(&value.as_text(), &mut term_buf);
                self.fields
                    .get_mut(name)
                    .expect("searchable fields pre-created")
                    .add(&mut self.dict, id, &term_buf);
            }
            if spec.attributes.filterable {
                self.tags
                    .entry(id)
                    .or_default()
                    .push((name.to_string(), value.clone()));
            }
        }
        Ok(id)
    }

    /// Tombstone-delete a document. Postings remain but are skipped at
    /// search time; statistics — including every affected term's cached
    /// live document frequency — are adjusted here, so queries never
    /// rescan tombstones.
    pub fn delete(&mut self, doc: DocId) -> Result<(), IndexError> {
        if doc.0 >= self.next_id || self.deleted.contains(doc) {
            return Err(IndexError::DocNotFound(doc.0));
        }
        self.deleted.insert(doc);
        self.live_docs -= 1;
        for field in self.fields.values_mut() {
            field.delete(doc);
        }
        self.tags.remove(&doc);
        Ok(())
    }

    /// Analyze a query string with this index's analyzer.
    pub fn analyze_query(&self, query: &str) -> Vec<String> {
        self.analyzer.analyze(query)
    }

    /// Filterable values of a document (empty if none).
    pub fn doc_tags(&self, doc: DocId) -> &[(String, FieldValue)] {
        self.tags.get(&doc).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Check an exact-match tag on a *filterable* field.
    pub fn matches_filter(&self, doc: DocId, field: &str, tag: &str) -> Result<bool, IndexError> {
        let spec = self
            .schema
            .field(field)
            .ok_or_else(|| IndexError::UnknownField(field.to_string()))?;
        if !spec.attributes.filterable {
            return Err(IndexError::AttributeViolation {
                field: field.to_string(),
                required: "filterable",
            });
        }
        // Tags are matched on their lower-cased exact surface form.
        let normalized = self.tag_analyzer.analyze(tag).join(" ");
        Ok(self
            .doc_tags(doc)
            .iter()
            .any(|(f, v)| f == field && (v.matches_tag(tag) || v.matches_tag(&normalized))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FieldAttributes;

    fn schema() -> Schema {
        Schema::uniask_chunk_schema()
    }

    fn doc(title: &str, content: &str) -> IndexDocument {
        IndexDocument::new()
            .with_text("title", title)
            .with_text("content", content)
    }

    #[test]
    fn add_assigns_sequential_ids() {
        let mut idx = InvertedIndex::new(schema());
        let a = idx.add(&doc("a", "uno")).unwrap();
        let b = idx.add(&doc("b", "due")).unwrap();
        assert_eq!(a, DocId(0));
        assert_eq!(b, DocId(1));
        assert_eq!(idx.doc_count(), 2);
    }

    #[test]
    fn unknown_field_is_rejected() {
        let mut idx = InvertedIndex::new(schema());
        let bad = IndexDocument::new().with_text("nonexistent", "x");
        assert!(matches!(idx.add(&bad), Err(IndexError::UnknownField(_))));
        assert_eq!(idx.doc_count(), 0);
    }

    #[test]
    fn delete_removes_from_stats() {
        let mut idx = InvertedIndex::new(schema());
        let a = idx.add(&doc("t", "contenuto lungo con parole")).unwrap();
        idx.delete(a).unwrap();
        assert_eq!(idx.doc_count(), 0);
        assert!(!idx.is_live(a));
        assert!(matches!(idx.delete(a), Err(IndexError::DocNotFound(_))));
    }

    #[test]
    fn filters_require_filterable_fields() {
        let mut idx = InvertedIndex::new(schema());
        let d = IndexDocument::new()
            .with_text("title", "x")
            .with_tags("domain", vec!["Pagamenti".into()]);
        let id = idx.add(&d).unwrap();
        assert!(idx.matches_filter(id, "domain", "pagamenti").unwrap());
        assert!(!idx.matches_filter(id, "domain", "governance").unwrap());
        assert!(matches!(
            idx.matches_filter(id, "title", "x"),
            Err(IndexError::AttributeViolation { .. })
        ));
    }

    #[test]
    fn searchable_fields_are_analyzed() {
        let mut idx = InvertedIndex::new(schema());
        idx.add(&doc("Bonifici esteri", "come inviare il bonifico"))
            .unwrap();
        // The Italian chain stems "bonifici"/"bonifico" to the same term.
        assert_eq!(idx.term_df("title", "bonific"), 1);
        assert_eq!(idx.term_df("content", "bonific"), 1);
        // Stop word "il" never indexed.
        assert_eq!(idx.term_df("content", "il"), 0);
        // The term is interned once and shared by both fields.
        let tid = idx.dict.lookup("bonific").unwrap();
        assert_eq!(idx.dict.term(tid), "bonific");
    }

    #[test]
    fn avg_len_tracks_additions_and_deletions() {
        let mut idx = InvertedIndex::new(schema());
        let a = idx.add(&doc("t", "uno due tre quattro")).unwrap();
        idx.add(&doc("t", "uno due")).unwrap();
        let before = idx.fields.get("content").unwrap().avg_len();
        assert!(before > 0.0);
        idx.delete(a).unwrap();
        let after = idx.fields.get("content").unwrap().avg_len();
        assert!(after <= before);
    }

    #[test]
    fn custom_schema_without_searchable_fields() {
        let s = Schema::new().with_field("only_tag", FieldAttributes::filterable_only());
        let mut idx = InvertedIndex::new(s);
        let d = IndexDocument::new().with_tags("only_tag", vec!["a".into()]);
        let id = idx.add(&d).unwrap();
        assert!(idx.matches_filter(id, "only_tag", "a").unwrap());
    }

    #[test]
    fn df_is_maintained_across_add_and_delete() {
        let mut idx = InvertedIndex::new(schema());
        let a = idx.add(&doc("t", "parola rara condivisa")).unwrap();
        let b = idx.add(&doc("t", "parola condivisa")).unwrap();
        assert_eq!(idx.term_df("content", "parol"), 2);
        assert_eq!(idx.term_df("content", "rar"), 1);
        idx.delete(a).unwrap();
        assert_eq!(idx.term_df("content", "parol"), 1);
        assert_eq!(
            idx.term_df("content", "rar"),
            0,
            "df of a fully tombstoned term"
        );
        idx.delete(b).unwrap();
        assert_eq!(idx.term_df("content", "parol"), 0);
    }

    #[test]
    fn df_survives_replace_cycles() {
        let mut idx = InvertedIndex::new(schema());
        let mut id = idx.add(&doc("t", "bonifico estero")).unwrap();
        // Replace the same logical document several times (delete + add),
        // the ingestion service's update pattern.
        for _ in 0..3 {
            idx.delete(id).unwrap();
            id = idx.add(&doc("t", "bonifico estero")).unwrap();
            assert_eq!(idx.term_df("content", "bonific"), 1);
            assert_eq!(idx.term_df("content", "ester"), 1);
        }
        assert_eq!(idx.doc_count(), 1);
        // Tombstoned postings pile up but df stays exact.
        let tid = idx.dict.lookup("bonific").unwrap();
        let list = &idx.fields["content"].postings[&tid];
        assert_eq!(list.len(), 4);
        assert_eq!(list.live_df, 1);
    }

    #[test]
    fn posting_bounds_are_maintained_on_add() {
        let mut idx = InvertedIndex::new(schema());
        idx.add(&doc("t", "gatto gatto gatto cane")).unwrap();
        idx.add(&doc("t", "gatto")).unwrap();
        let tid = idx.dict.lookup("gatt").unwrap();
        let list = &idx.fields["content"].postings[&tid];
        assert_eq!(list.max_tf, 3);
        assert_eq!(list.min_len, 1, "second doc has a single-term field");
        let (docs, tfs) = list.decoded();
        assert!(docs.windows(2).all(|w| w[0] < w[1]), "docs sorted");
        assert_eq!(docs.len(), tfs.len(), "parallel arrays");
    }

    #[test]
    fn lists_seal_into_blocks_and_decode_identically() {
        let mut list = PostingList::default();
        let n = 3 * BLOCK_SIZE + 17;
        let mut docs = Vec::new();
        let mut tfs = Vec::new();
        let mut doc = 0u32;
        for i in 0..n {
            doc += 1 + (i as u32 % 37) * (i as u32 % 3);
            let tf = 1 + (i as u32 % 9);
            docs.push(doc);
            tfs.push(tf);
            list.push(doc, tf, 10 + (i as u32 % 5));
        }
        assert_eq!(list.blocks.len(), 3, "three sealed blocks");
        assert_eq!(list.tail_docs.len(), 17, "remainder stays in the tail");
        assert_eq!(list.len(), n);
        assert_eq!(list.decoded(), (docs.clone(), tfs.clone()));
        // Block metadata is exact per block.
        for b in &list.blocks {
            let mut bd = Vec::new();
            let mut bt = Vec::new();
            b.decode_into(&mut bd, &mut bt);
            assert_eq!(bd.len(), usize::from(b.count));
            assert_eq!(b.first_doc, bd[0]);
            assert_eq!(b.last_doc, *bd.last().unwrap());
            assert_eq!(b.max_tf, bt.iter().copied().max().unwrap());
        }
        // Compression actually bites on this distribution.
        assert!(
            list.packed_bytes() < list.logical_bytes(),
            "packed {} >= logical {}",
            list.packed_bytes(),
            list.logical_bytes()
        );
        // Cursor iteration matches the full decode.
        let mut cur = list.cursor();
        for (i, &d) in docs.iter().enumerate() {
            assert_eq!(cur.current(), Some(d));
            assert_eq!(cur.current_tf(), tfs[i]);
            cur.advance();
        }
        assert_eq!(cur.current(), None);
    }

    #[test]
    fn cursor_seek_matches_linear_scan() {
        let mut list = PostingList::default();
        let docs: Vec<u32> = (0..500u32).map(|i| i * 3 + (i % 2)).collect();
        for (i, &d) in docs.iter().enumerate() {
            list.push(d, 1 + (i as u32 % 4), 8);
        }
        for target in [0u32, 1, 2, 3, 100, 381, 382, 383, 1200, 1495, 1496, 5000] {
            let mut cur = list.cursor();
            cur.seek(target);
            let expect = docs.iter().copied().find(|&d| d >= target);
            assert_eq!(cur.current(), expect, "seek({target})");
        }
        // Monotone multi-seek on one cursor.
        let mut cur = list.cursor();
        for target in [5u32, 5, 130, 384, 384, 385, 1400] {
            cur.seek(target);
            let expect = docs.iter().copied().find(|&d| d >= target);
            assert_eq!(cur.current(), expect, "monotone seek({target})");
        }
    }

    #[test]
    fn shallow_seek_skips_blocks_without_decoding() {
        let mut list = PostingList::default();
        for i in 0..(4 * BLOCK_SIZE as u32) {
            list.push(i * 2, 1, 8);
        }
        let mut cur = list.cursor();
        // Jump into the third block: only header comparisons happen.
        let target = list.blocks[2].first_doc + 2;
        cur.shallow_seek(target);
        assert_eq!(cur.block_key(), 2);
        assert_eq!(cur.decoded, usize::MAX, "no block was decoded");
        let (max_tf, _min_len, last) = cur.block_info().unwrap();
        assert_eq!(max_tf, 1);
        assert!(last >= target);
        // A deep seek afterwards lands exactly.
        cur.seek(target);
        assert_eq!(cur.current(), Some(target));
    }

    #[test]
    fn single_posting_list_stays_in_tail() {
        let mut list = PostingList::default();
        list.push(42, 7, 3);
        assert!(list.blocks.is_empty());
        assert_eq!(list.decoded(), (vec![42], vec![7]));
        let mut cur = list.cursor();
        assert_eq!(cur.block_info(), Some((7, 3, 42)));
        assert_eq!(cur.current(), Some(42));
        cur.advance();
        assert_eq!(cur.current(), None);
        assert_eq!(cur.block_info(), None, "exhausted tail has no bounds");
    }

    #[test]
    fn max_width_block_roundtrips() {
        // Gaps and tfs that need the full 32 bits.
        let docs = vec![0u32, u32::MAX - 1, u32::MAX];
        let tfs = vec![u32::MAX, 1, u32::MAX - 3];
        let block = PostingBlock::pack(&docs, &tfs, u32::MAX, 1);
        assert_eq!(block.doc_bits, 32);
        assert_eq!(block.tf_bits, 32);
        let mut rd = Vec::new();
        let mut rt = Vec::new();
        block.decode_into(&mut rd, &mut rt);
        assert_eq!(rd, docs);
        assert_eq!(rt, tfs);
    }

    #[test]
    fn single_doc_block_roundtrips() {
        let block = PostingBlock::pack(&[9], &[4], 4, 12);
        assert_eq!(block.doc_bits, 0, "no gaps to store");
        let mut rd = Vec::new();
        let mut rt = Vec::new();
        block.decode_into(&mut rd, &mut rt);
        assert_eq!((rd, rt), (vec![9], vec![4]));
    }

    /// Tiny deterministic generator so the sweep below runs without
    /// external dependencies (mirrors the searcher's test idiom).
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    /// Delete-path stats drift sweep: after any interleaving of adds
    /// and deletes, the incrementally maintained live stats must agree
    /// with a from-scratch rebuild of the surviving documents —
    /// exactly for `live_df`, `total_len`, `docs_with_field`,
    /// `doc_count` and (bitwise) `avg_len`; as safe bounds for
    /// `max_tf` (never below the rebuild's) and `min_len` (never
    /// above). These are the invariants the segmented engine's
    /// tombstone overlays lean on.
    #[test]
    fn interleaved_delete_stats_match_fresh_rebuild() {
        let words = [
            "bonifico", "carta", "mutuo", "estero", "filiale", "saldo", "conto", "limite",
            "blocco", "rata",
        ];
        let mut rng = XorShift(0x5EED_CAFE_F00D_0001);
        for _round in 0..40 {
            let mut idx = InvertedIndex::new(schema());
            // Live pool of (id, title, content) surviving so far.
            let mut live: Vec<(DocId, String, String)> = Vec::new();
            let ops = 10 + rng.below(40);
            for _ in 0..ops {
                let delete = !live.is_empty() && rng.below(100) < 35;
                if delete {
                    let victim = rng.below(live.len());
                    let (id, _, _) = live.swap_remove(victim);
                    idx.delete(id).unwrap();
                } else {
                    let pick = |rng: &mut XorShift, n: usize| {
                        (0..n)
                            .map(|_| words[rng.below(words.len())])
                            .collect::<Vec<_>>()
                            .join(" ")
                    };
                    let title_len = 1 + rng.below(3);
                    let title = pick(&mut rng, title_len);
                    let content_len = 1 + rng.below(14);
                    let content = pick(&mut rng, content_len);
                    let id = idx.add(&doc(&title, &content)).unwrap();
                    live.push((id, title, content));
                }
            }

            // From-scratch rebuild of the survivors, in surviving-id
            // order (order is irrelevant for the stats compared here).
            let mut fresh = InvertedIndex::new(schema());
            let mut sorted = live.clone();
            sorted.sort_by_key(|(id, _, _)| id.0);
            for (_, title, content) in &sorted {
                fresh.add(&doc(title, content)).unwrap();
            }

            assert_eq!(idx.doc_count(), fresh.doc_count(), "live doc count drifted");
            for (name, fresh_field) in &fresh.fields {
                let inc_field = idx.fields.get(name).expect("field exists");
                assert_eq!(
                    inc_field.docs_with_field, fresh_field.docs_with_field,
                    "docs_with_field drifted on `{name}`"
                );
                assert_eq!(
                    inc_field.total_len, fresh_field.total_len,
                    "total_len drifted on `{name}`"
                );
                assert_eq!(
                    inc_field.avg_len().to_bits(),
                    fresh_field.avg_len().to_bits(),
                    "avg_len not bitwise identical on `{name}`"
                );
                for (tid, fresh_list) in &fresh_field.postings {
                    let term = fresh.dict.term(*tid);
                    let inc_tid = idx.dict.lookup(term).expect("term interned");
                    let inc_list = inc_field.postings.get(&inc_tid).expect("list exists");
                    assert_eq!(
                        inc_list.live_df, fresh_list.live_df,
                        "live_df drifted for `{name}`/`{term}`"
                    );
                    // max_tf / min_len are pruning bounds: deletes may
                    // leave them loose but never unsafe.
                    assert!(
                        inc_list.max_tf >= fresh_list.max_tf,
                        "max_tf bound unsafe for `{name}`/`{term}`"
                    );
                    assert!(
                        inc_list.min_len <= fresh_list.min_len,
                        "min_len bound unsafe for `{name}`/`{term}`"
                    );
                }
                // Terms fully tombstoned incrementally must report df 0.
                for (tid, inc_list) in &inc_field.postings {
                    let term = idx.dict.term(*tid);
                    if fresh
                        .dict
                        .lookup(term)
                        .and_then(|t| fresh_field.postings.get(&t))
                        .is_none()
                    {
                        assert_eq!(
                            inc_list.live_df, 0,
                            "dead term `{name}`/`{term}` kept live df"
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
#[path = "../../../tests/support/cases.rs"]
mod cases;

#[cfg(test)]
mod block_properties {
    use super::cases::check;
    use super::*;
    use rand::seq::SliceRandom;
    use rand::Rng;

    const CASES: u64 = 96;

    /// Up to a block of sorted unique doc ids with their tfs. Gap
    /// control: small dense gaps, large sparse gaps and occasional
    /// near-max gaps all appear, as do `u32::MAX` tfs.
    fn docs_and_tfs(rng: &mut impl Rng) -> (Vec<u32>, Vec<u32>) {
        let n = rng.gen_range(1..=BLOCK_SIZE);
        let mut docs = Vec::with_capacity(n);
        let mut cur = 0u64;
        for _ in 0..n {
            let gap = match rng.gen_range(0..3) {
                0 => rng.gen_range(1u64..16),
                1 => rng.gen_range(1u64..4096),
                _ => rng.gen_range(1u64..=u64::from(u32::MAX / 256)),
            };
            cur = (cur + gap).min(u64::from(u32::MAX));
            docs.push(cur as u32);
        }
        docs.dedup();
        let tfs = docs
            .iter()
            .map(|_| match rng.gen_range(0..4) {
                0 => rng.gen_range(1u32..4),
                1 => rng.gen_range(1u32..1000),
                _ => *[u32::MAX, u32::MAX - 1].choose(rng).expect("non-empty"),
            })
            .collect();
        (docs, tfs)
    }

    #[test]
    fn pack_decode_is_identity() {
        check(CASES, |rng| {
            let (docs, tfs) = docs_and_tfs(rng);
            let max_tf = tfs.iter().copied().max().unwrap();
            let block = PostingBlock::pack(&docs, &tfs, max_tf, 7);
            let mut rd = Vec::new();
            let mut rt = Vec::new();
            block.decode_into(&mut rd, &mut rt);
            assert_eq!(&rd, &docs);
            assert_eq!(&rt, &tfs);
            assert_eq!(block.first_doc, docs[0]);
            assert_eq!(block.last_doc, *docs.last().unwrap());
            assert_eq!(usize::from(block.count), docs.len());
        });
    }

    #[test]
    fn list_push_decode_is_identity() {
        check(CASES, |rng| {
            let (docs, tfs) = docs_and_tfs(rng);
            let mut list = PostingList::default();
            for (&d, &t) in docs.iter().zip(&tfs) {
                list.push(d, t, rng.gen_range(1u32..100));
            }
            assert_eq!(list.decoded(), (docs.clone(), tfs.clone()));
            assert_eq!(list.len(), docs.len());
            assert_eq!(list.max_tf, tfs.iter().copied().max().unwrap());
        });
    }

    #[test]
    fn cursor_seek_agrees_with_reference() {
        check(CASES, |rng| {
            let (docs, tfs) = docs_and_tfs(rng);
            let mut targets: Vec<u32> = (0..8).map(|_| rng.gen()).collect();
            targets.sort_unstable();
            let mut list = PostingList::default();
            for (&d, &t) in docs.iter().zip(&tfs) {
                list.push(d, t, 5);
            }
            let mut cur = list.cursor();
            for target in targets {
                cur.seek(target);
                let expect = docs.iter().copied().find(|&d| d >= target);
                assert_eq!(cur.current(), expect);
                if expect.is_some() {
                    let pos = docs.iter().position(|&d| Some(d) == expect).unwrap();
                    assert_eq!(cur.current_tf(), tfs[pos]);
                }
            }
        });
    }
}
