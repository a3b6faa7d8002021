//! Offline stand-in for `rand_chacha::ChaCha8Rng`: the ChaCha stream
//! cipher with 8 rounds, a 64-bit block counter and stream id 0, read
//! as little-endian 32-bit words. `get_word_pos` / `set_word_pos` count
//! words from the start of the stream, as the published crate does.

use rand::{RngCore, SeedableRng};

const BLOCK_WORDS: usize = 16;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaCha8Rng {
    key: [u32; 8],
    /// Position of the next word to hand out, in words from the start.
    pos: u128,
    /// The block `pos` last pointed into, if it has been generated.
    block: [u32; BLOCK_WORDS],
    block_index: Option<u64>,
}

fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl ChaCha8Rng {
    fn generate(&mut self, counter: u64) {
        let mut init = [0u32; 16];
        init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        init[4..12].copy_from_slice(&self.key);
        init[12] = counter as u32;
        init[13] = (counter >> 32) as u32;
        let mut s = init;
        for _ in 0..4 {
            quarter(&mut s, 0, 4, 8, 12);
            quarter(&mut s, 1, 5, 9, 13);
            quarter(&mut s, 2, 6, 10, 14);
            quarter(&mut s, 3, 7, 11, 15);
            quarter(&mut s, 0, 5, 10, 15);
            quarter(&mut s, 1, 6, 11, 12);
            quarter(&mut s, 2, 7, 8, 13);
            quarter(&mut s, 3, 4, 9, 14);
        }
        for (out, (a, b)) in self.block.iter_mut().zip(s.iter().zip(init.iter())) {
            *out = a.wrapping_add(*b);
        }
        self.block_index = Some(counter);
    }

    /// Words consumed since the start of the stream.
    pub fn get_word_pos(&self) -> u128 {
        self.pos
    }

    /// Jump to an absolute word position.
    pub fn set_word_pos(&mut self, word_offset: u128) {
        self.pos = word_offset & ((1u128 << 68) - 1);
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (word, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        ChaCha8Rng {
            key,
            pos: 0,
            block: [0; BLOCK_WORDS],
            block_index: None,
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        let counter = (self.pos / BLOCK_WORDS as u128) as u64;
        if self.block_index != Some(counter) {
            self.generate(counter);
        }
        let word = self.block[(self.pos % BLOCK_WORDS as u128) as usize];
        self.pos = (self.pos + 1) & ((1u128 << 68) - 1);
        word
    }

    fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        (hi << 32) | lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chacha8_zero_key_matches_the_reference_keystream() {
        // First keystream words of ChaCha8, all-zero key and nonce
        // (eSTREAM / draft-strombergson test vector TC1, 8 rounds):
        // 3e 00 ef 2f 89 5f 40 d6 7f 5b b8 e8 1f 09 a5 a1 ...
        let mut rng = ChaCha8Rng::from_seed([0; 32]);
        assert_eq!(rng.next_u32(), u32::from_le_bytes([0x3e, 0x00, 0xef, 0x2f]));
        assert_eq!(rng.next_u32(), u32::from_le_bytes([0x89, 0x5f, 0x40, 0xd6]));
        assert_eq!(rng.next_u32(), u32::from_le_bytes([0x7f, 0x5b, 0xb8, 0xe8]));
        assert_eq!(rng.next_u32(), u32::from_le_bytes([0x1f, 0x09, 0xa5, 0xa1]));
    }

    #[test]
    fn word_pos_round_trips() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..37 {
            a.next_u32();
        }
        let mut b = ChaCha8Rng::seed_from_u64(7);
        b.set_word_pos(a.get_word_pos());
        assert_eq!(a.get_word_pos(), 37);
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
