//! Binary HNSW snapshots.
//!
//! Embedding a corpus is the most expensive part of index construction
//! (the paper's full KB holds ~60 k pages × two vector fields), so the
//! graph and its vectors are persisted rather than rebuilt. The format
//! mirrors the inverted-index codec: magic, version, payload, XXH64
//! checksum trailer (seed 0, `uniask_text::checksum`).
//!
//! The RNG state for level assignment is serialized too, so an index
//! restored from a snapshot keeps inserting with the *same* level
//! sequence it would have produced uninterrupted — snapshots are
//! transparent to determinism.
//!
//! The SQ8 quantization state travels too: the `sq8` parameter flag,
//! and (when active) the per-dimension codebook plus the code arena
//! verbatim, so a restored index resumes quantized traversal with the
//! exact codes the live index held.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use uniask_text::checksum::xxh64;

use crate::hnsw::{Hnsw, HnswParams, Node, Sq8Codebook, Sq8State};

/// Magic bytes of the vector-snapshot format.
pub const MAGIC: &[u8; 4] = b"UAVX";
/// Format version; [`decode`] rejects every other version.
pub const VERSION: u16 = 3;

/// Errors raised while decoding a vector snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the snapshot magic.
    BadMagic,
    /// Unsupported format version.
    UnsupportedVersion(u16),
    /// Payload checksum mismatch.
    ChecksumMismatch,
    /// Buffer ended mid-structure.
    Truncated,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a UniAsk vector snapshot"),
            SnapshotError::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::ChecksumMismatch => write!(f, "vector snapshot checksum mismatch"),
            SnapshotError::Truncated => write!(f, "vector snapshot truncated"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Exact size of [`encode`]'s output, so a buffer is allocated once.
pub fn encoded_len(index: &Hnsw) -> usize {
    let header = 4 + 2 + 4 * 3 + 8 + 1 + 1 + 4 + 1 + 16 + 4;
    let entry_point = if index.entry_point.is_some() { 4 } else { 0 };
    let nodes: usize = index
        .nodes
        .iter()
        .map(|node| {
            let layers: usize = node.neighbors.iter().map(|l| 4 + l.len() * 4).sum();
            4 + 4 + node.vector.len() * 4 + 2 + layers
        })
        .sum();
    let sq8 = index.sq8.as_ref().map_or(0, |state| {
        4 + (state.codebook.min.len() + state.codebook.step.len()) * 4 + state.codes.len()
    });
    header + entry_point + nodes + 1 + sq8 + 8
}

/// Append `values` as little-endian `f32`s a block at a time: vectors
/// are most of a snapshot's bytes, and a `put_f32_le` call per value
/// costs more than copying the value.
fn put_f32s(buf: &mut BytesMut, values: &[f32]) {
    let mut block = [0u8; 256];
    for chunk in values.chunks(block.len() / 4) {
        for (bytes, value) in block.chunks_exact_mut(4).zip(chunk) {
            bytes.copy_from_slice(&value.to_le_bytes());
        }
        buf.put_slice(&block[..chunk.len() * 4]);
    }
}

/// Serialize an HNSW index.
pub fn encode(index: &Hnsw) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_len(index));
    encode_into(index, &mut buf);
    buf.freeze()
}

/// Append exactly [`encode`]'s bytes to `buf`, so a snapshot embedded in
/// a larger buffer is written in place rather than copied into it.
pub fn encode_into(index: &Hnsw, buf: &mut BytesMut) {
    let start = buf.len();
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    // Parameters.
    let p = index.params;
    buf.put_u32_le(p.m as u32);
    buf.put_u32_le(p.ef_construction as u32);
    buf.put_u32_le(p.ef_search as u32);
    buf.put_u64_le(p.seed);
    buf.put_u8(u8::from(p.heuristic_selection));
    buf.put_u8(u8::from(p.sq8));
    // Graph metadata.
    buf.put_u32_le(index.max_level as u32);
    match index.entry_point {
        Some(ep) => {
            buf.put_u8(1);
            buf.put_u32_le(ep);
        }
        None => buf.put_u8(0),
    }
    // RNG state (ChaCha8 word position suffices for our insert-only use;
    // serialize the full seed + stream position).
    let word_pos = index.rng.get_word_pos();
    buf.put_u128_le(word_pos);
    // Nodes.
    buf.put_u32_le(index.nodes.len() as u32);
    for node in &index.nodes {
        buf.put_u32_le(node.id);
        buf.put_u32_le(node.vector.len() as u32);
        put_f32s(buf, &node.vector);
        buf.put_u16_le(node.neighbors.len() as u16);
        for layer in &node.neighbors {
            buf.put_u32_le(layer.len() as u32);
            for &nb in layer {
                buf.put_u32_le(nb);
            }
        }
    }
    // SQ8 quantization state: codebook + code arena verbatim.
    match &index.sq8 {
        Some(state) => {
            buf.put_u8(1);
            buf.put_u32_le(state.dim as u32);
            put_f32s(buf, &state.codebook.min);
            put_f32s(buf, &state.codebook.step);
            buf.put_slice(&state.codes);
        }
        None => buf.put_u8(0),
    }
    let checksum = xxh64(&buf[start..], 0);
    buf.put_u64_le(checksum);
}

macro_rules! need {
    ($buf:expr, $n:expr) => {
        if $buf.remaining() < $n {
            return Err(SnapshotError::Truncated);
        }
    };
}

/// Restore an HNSW index from a snapshot.
pub fn decode(snapshot: &[u8]) -> Result<Hnsw, SnapshotError> {
    if snapshot.len() < 4 + 2 + 8 {
        return Err(SnapshotError::Truncated);
    }
    let (payload, trailer) = snapshot.split_at(snapshot.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    if xxh64(payload, 0) != stored {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let mut buf = Bytes::copy_from_slice(payload);
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    need!(buf, 4 * 3 + 8 + 1 + 1 + 4 + 1);
    let params = HnswParams {
        m: buf.get_u32_le() as usize,
        ef_construction: buf.get_u32_le() as usize,
        ef_search: buf.get_u32_le() as usize,
        seed: buf.get_u64_le(),
        heuristic_selection: buf.get_u8() == 1,
        sq8: buf.get_u8() == 1,
    };
    let max_level = buf.get_u32_le() as usize;
    let entry_point = if buf.get_u8() == 1 {
        need!(buf, 4);
        Some(buf.get_u32_le())
    } else {
        None
    };
    need!(buf, 16 + 4);
    let word_pos = buf.get_u128_le();
    let nnodes = buf.get_u32_le() as usize;
    let mut nodes = Vec::with_capacity(nnodes);
    for _ in 0..nnodes {
        need!(buf, 8);
        let id = buf.get_u32_le();
        let dim = buf.get_u32_le() as usize;
        need!(buf, dim * 4 + 2);
        let mut vector = Vec::with_capacity(dim);
        for _ in 0..dim {
            vector.push(buf.get_f32_le());
        }
        let nlayers = buf.get_u16_le() as usize;
        let mut neighbors = Vec::with_capacity(nlayers);
        for _ in 0..nlayers {
            need!(buf, 4);
            let count = buf.get_u32_le() as usize;
            need!(buf, count * 4);
            let mut layer = Vec::with_capacity(count);
            for _ in 0..count {
                layer.push(buf.get_u32_le());
            }
            neighbors.push(layer);
        }
        nodes.push(Node {
            id,
            vector,
            neighbors,
        });
    }
    // SQ8 state: codebook + code arena verbatim.
    need!(buf, 1);
    let sq8 = if buf.get_u8() == 1 {
        need!(buf, 4);
        let dim = buf.get_u32_le() as usize;
        if dim > (1 << 24) {
            return Err(SnapshotError::Truncated);
        }
        need!(buf, dim * 8);
        let mut min = Vec::with_capacity(dim);
        for _ in 0..dim {
            min.push(buf.get_f32_le());
        }
        let mut step = Vec::with_capacity(dim);
        for _ in 0..dim {
            step.push(buf.get_f32_le());
        }
        let ncodes = nodes.len() * dim;
        need!(buf, ncodes);
        let mut codes = vec![0u8; ncodes];
        buf.copy_to_slice(&mut codes);
        Some(Sq8State {
            codebook: Sq8Codebook { min, step },
            dim,
            codes,
        })
    } else {
        None
    };
    let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
    rng.set_word_pos(word_pos);
    let ml = 1.0 / (params.m.max(2) as f64).ln();
    Ok(Hnsw {
        params,
        nodes,
        entry_point,
        max_level,
        rng,
        ml,
        sq8,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::normalize;
    use crate::VectorIndex;
    use rand::Rng;

    fn sample(n: usize) -> Hnsw {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut h = Hnsw::new(HnswParams::default());
        for i in 0..n {
            let mut v: Vec<f32> = (0..16).map(|_| rng.gen::<f32>() - 0.5).collect();
            normalize(&mut v);
            h.add(i as u32, v);
        }
        h
    }

    #[test]
    fn roundtrip_preserves_search_results() {
        let original = sample(300);
        let restored = decode(&encode(&original)).unwrap();
        assert_eq!(restored.len(), original.len());
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        for _ in 0..10 {
            let mut q: Vec<f32> = (0..16).map(|_| rng.gen::<f32>() - 0.5).collect();
            normalize(&mut q);
            let a: Vec<u32> = original.search(&q, 10).into_iter().map(|n| n.id).collect();
            let b: Vec<u32> = restored.search(&q, 10).into_iter().map(|n| n.id).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn inserts_after_restore_match_uninterrupted_build() {
        // Build 200 nodes, snapshot, insert 100 more — the result must
        // equal a straight 300-node build (RNG state travels).
        let full = sample(300);
        let mut restored = decode(&encode(&sample(200))).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        // Re-derive the same vector stream, skipping the first 200.
        let all: Vec<Vec<f32>> = (0..300)
            .map(|_| {
                let mut v: Vec<f32> = (0..16).map(|_| rng.gen::<f32>() - 0.5).collect();
                normalize(&mut v);
                v
            })
            .collect();
        for (i, v) in all.into_iter().enumerate().skip(200) {
            restored.add(i as u32, v);
        }
        let mut q = vec![0.3f32; 16];
        normalize(&mut q);
        let a: Vec<u32> = full.search(&q, 10).into_iter().map(|n| n.id).collect();
        let b: Vec<u32> = restored.search(&q, 10).into_iter().map(|n| n.id).collect();
        assert_eq!(a, b, "snapshot must be transparent to determinism");
    }

    #[test]
    fn corruption_and_truncation_detected() {
        let snapshot = encode(&sample(50));
        let mut bad = snapshot.to_vec();
        bad[10] ^= 0x55;
        assert_eq!(decode(&bad).unwrap_err(), SnapshotError::ChecksumMismatch);
        assert!(decode(&snapshot[..20]).is_err());
        assert_eq!(decode(&[]).unwrap_err(), SnapshotError::Truncated);
    }

    #[test]
    fn empty_index_roundtrips() {
        let empty = Hnsw::new(HnswParams::default());
        let restored = decode(&encode(&empty)).unwrap();
        assert!(restored.is_empty());
        assert!(restored.search(&[1.0, 0.0], 3).is_empty());
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(encode(&sample(100)), encode(&sample(100)));
    }

    #[test]
    fn encoded_len_is_exact() {
        let plain = Hnsw::new(HnswParams {
            sq8: false,
            ..Default::default()
        });
        for index in [sample(0), sample(1), sample(150), plain] {
            assert_eq!(encode(&index).len(), encoded_len(&index));
        }
    }

    #[test]
    fn unsupported_version_is_detected() {
        let snapshot = encode(&sample(20));
        for version in [0u16, 1, 2, 4] {
            let mut bad = snapshot.to_vec();
            bad[4..6].copy_from_slice(&version.to_le_bytes());
            // Re-seal the trailer so the version check (not the
            // checksum) is what rejects it.
            let plen = bad.len() - 8;
            let crc = xxh64(&bad[..plen], 0);
            bad[plen..].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(
                decode(&bad).unwrap_err(),
                SnapshotError::UnsupportedVersion(version),
                "version {version}"
            );
        }
    }

    #[test]
    fn v2_roundtrip_carries_quantization_state_verbatim() {
        let original = sample(150);
        assert!(original.is_quantized(), "sample should quantize");
        let restored = decode(&encode(&original)).unwrap();
        assert_eq!(restored.sq8, original.sq8, "codes must travel verbatim");
        assert!(restored.params().sq8);
        // A non-quantized index roundtrips too.
        let mut plain = Hnsw::new(HnswParams {
            sq8: false,
            ..Default::default()
        });
        plain.add(0, vec![1.0, 0.0]);
        let restored = decode(&encode(&plain)).unwrap();
        assert!(!restored.is_quantized());
        assert!(restored.sq8.is_none());
    }
}
