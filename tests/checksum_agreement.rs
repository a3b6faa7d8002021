//! The snapshot codecs (`uniask_text::checksum`) and the durable store
//! (`uniask_store::checksum`) each carry a copy of XXH64, because the
//! store crate depends on nothing. The two copies must give the same
//! value on every input, or one layer would seal what the other cannot
//! check against a reference.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use uniask::store::checksum::xxh64 as store_xxh64;
use uniask::text::checksum::xxh64 as text_xxh64;

#[path = "support/seeds.rs"]
mod seeds;

fn bytes(rng: &mut ChaCha8Rng, len: usize) -> Vec<u8> {
    let mut data = vec![0u8; len];
    rng.fill_bytes(&mut data);
    data
}

#[test]
fn both_copies_agree_on_every_length_and_a_large_buffer() {
    for seed in seeds::seeds(&[42]) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Every length from empty through eight 32-byte stripes plus a
        // tail, which walks every branch of the tail handling.
        for len in 0..=257 {
            let data = bytes(&mut rng, len);
            let hash_seed = rng.next_u64();
            for s in [0, hash_seed] {
                assert_eq!(
                    text_xxh64(&data, s),
                    store_xxh64(&data, s),
                    "[seed={seed}] len {len} hash seed {s:#x}"
                );
            }
        }
        let large = bytes(&mut rng, 1 << 20);
        assert_eq!(
            text_xxh64(&large, 0),
            store_xxh64(&large, 0),
            "[seed={seed}] 1 MiB"
        );
    }
}
