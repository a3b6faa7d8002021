//! Seeded-loop property tests, `#[path]`-included by every
//! `tests/properties.rs` in the workspace: [`check`] runs a property on
//! independent ChaCha8 streams and tags a failure with the seed and case
//! index that reproduce it; the generators below draw the inputs.
#![allow(dead_code)] // each suite uses a subset of the generators

use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

#[path = "seeds.rs"]
mod seeds;

/// Base seed every property replays; `UNIASK_TEST_SEED` adds one more.
const BASE_SEED: u64 = 0x5EED_CA5E;

pub const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
pub const DIGITS: &str = "0123456789";

/// Runs `property` on `cases` generators per base seed. A panic inside
/// it is re-raised with `[seed=… case=…]` appended to its message.
pub fn check(cases: u64, property: impl Fn(&mut ChaCha8Rng)) {
    for base in seeds::seeds(&[BASE_SEED]) {
        for case in 0..cases {
            let mut rng =
                ChaCha8Rng::seed_from_u64(base ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
                let message = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("property panicked");
                panic!("{message} [seed={base} case={case}]");
            }
        }
    }
}

/// A string of `len` characters drawn uniformly from `alphabet`
/// (the regex `[alphabet]{lo,hi}`).
pub fn string_of(rng: &mut impl Rng, alphabet: &str, len: RangeInclusive<usize>) -> String {
    let alphabet: Vec<char> = alphabet.chars().collect();
    let n = rng.gen_range(len);
    (0..n)
        .map(|_| *alphabet.choose(rng).expect("non-empty alphabet"))
        .collect()
}

/// Up to `max_len` arbitrary characters other than a line feed (the
/// regex `.{0,max_len}`): ASCII, accented Latin, characters that have
/// tripped parsers before, and uniformly drawn Unicode scalar values.
pub fn any_string(rng: &mut impl Rng, max_len: usize) -> String {
    let awkward: Vec<char> =
        "\0\t\r\u{7f}\u{a0}\u{301}\u{200b}\u{202e}\u{feff}\u{fffd}ßİǅ€中😀\u{10ffff}"
            .chars()
            .collect();
    let n = rng.gen_range(0..=max_len);
    (0..n)
        .map(|_| match rng.gen_range(0..4) {
            0 => char::from(rng.gen_range(0x20u8..0x7f)),
            1 => char::from_u32(rng.gen_range(0xc0u32..0x250)).expect("Latin block"),
            2 => *awkward.choose(rng).expect("non-empty"),
            _ => loop {
                match char::from_u32(rng.gen_range(0u32..=0x10_ffff)) {
                    Some('\n') | None => continue,
                    Some(c) => break c,
                }
            },
        })
        .collect()
}

/// `n` independent draws of `item`, `n` uniform in `len`.
pub fn vec_of<T, R: Rng>(
    rng: &mut R,
    len: Range<usize>,
    mut item: impl FnMut(&mut R) -> T,
) -> Vec<T> {
    let n = rng.gen_range(len);
    (0..n).map(|_| item(rng)).collect()
}
