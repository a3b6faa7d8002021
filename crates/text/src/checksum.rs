//! XXH64, the integrity checksum of the UAIX, UAVX and UASX snapshots.
//!
//! XXH64 (Yann Collet, xxHash) reads eight bytes at a time into four
//! independent accumulator lanes, so it hashes at memory speed where a
//! byte-serial hash such as FNV-1a is bound by one multiply per byte.
//! Output matches the reference implementation for every seed.
//!
//! `uniask_store::checksum` carries an identical copy (the store crate
//! has no dependencies); `tests/checksum_agreement.rs` pins the two
//! together.

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

fn merge_round(acc: u64, lane: u64) -> u64 {
    (acc ^ round(0, lane))
        .wrapping_mul(PRIME_1)
        .wrapping_add(PRIME_4)
}

/// XXH64 of `data` under `seed`.
pub fn xxh64(data: &[u8], seed: u64) -> u64 {
    let stripes = data.chunks_exact(32);
    let tail = stripes.remainder();
    let mut hash = if data.len() >= 32 {
        let mut lanes = [
            seed.wrapping_add(PRIME_1).wrapping_add(PRIME_2),
            seed.wrapping_add(PRIME_2),
            seed,
            seed.wrapping_sub(PRIME_1),
        ];
        for stripe in stripes {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = round(*lane, read_u64(&stripe[i * 8..]));
            }
        }
        let mut hash = lanes[0]
            .rotate_left(1)
            .wrapping_add(lanes[1].rotate_left(7))
            .wrapping_add(lanes[2].rotate_left(12))
            .wrapping_add(lanes[3].rotate_left(18));
        for lane in lanes {
            hash = merge_round(hash, lane);
        }
        hash
    } else {
        seed.wrapping_add(PRIME_5)
    };
    hash = hash.wrapping_add(data.len() as u64);

    let mut words = tail.chunks_exact(8);
    for word in &mut words {
        hash = (hash ^ round(0, read_u64(word)))
            .rotate_left(27)
            .wrapping_mul(PRIME_1)
            .wrapping_add(PRIME_4);
    }
    let mut rest = words.remainder();
    if rest.len() >= 4 {
        let half = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        hash = (hash ^ u64::from(half).wrapping_mul(PRIME_1))
            .rotate_left(23)
            .wrapping_mul(PRIME_2)
            .wrapping_add(PRIME_3);
        rest = &rest[4..];
    }
    for &byte in rest {
        hash = (hash ^ u64::from(byte).wrapping_mul(PRIME_5))
            .rotate_left(11)
            .wrapping_mul(PRIME_1);
    }

    hash ^= hash >> 33;
    hash = hash.wrapping_mul(PRIME_2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(PRIME_3);
    hash ^ (hash >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_known_answers() {
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        // 39 bytes: one 32-byte stripe, then a 4-byte word and 3 bytes.
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition", 0),
            0xFBCE_A83C_8A37_8BF1
        );
        assert_eq!(xxh64(b"xxhash", 20_141_025), 0xB559_B98D_844E_0635);
    }

    #[test]
    fn low_half_matches_zstd_frame_checksums() {
        // A zstd frame ends with the low 32 bits of XXH64 (seed 0) of its
        // content; these were read from `zstd --check` output. The lengths
        // reach the 8-byte, 4-byte and 1-byte tail steps with and without
        // a 32-byte stripe before them.
        let pattern = |len: u32| -> Vec<u8> {
            (0..len)
                .map(|i| i.wrapping_mul(2_654_435_761).rotate_right(13) as u8)
                .collect()
        };
        for (len, low) in [(15, 0x71D0_6E31), (47, 0x2108_8B6A), (257, 0x8249_D780)] {
            assert_eq!(xxh64(&pattern(len), 0) as u32, low, "len {len}");
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_hash() {
        let data: Vec<u8> = (0..100u8).map(|i| i.wrapping_mul(37)).collect();
        let clean = xxh64(&data, 0);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut bad = data.clone();
                bad[i] ^= 1 << bit;
                assert_ne!(xxh64(&bad, 0), clean, "byte {i} bit {bit}");
            }
        }
    }
}
