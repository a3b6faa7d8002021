//! Seeded-loop property tests of the vector substrate.

#[path = "../../../tests/support/cases.rs"]
mod cases;

use cases::{check, string_of, vec_of, LOWER};
use rand::seq::SliceRandom;
use rand::Rng;
use uniask_vector::distance::{cosine_similarity, dot, dot_i32_u8, euclidean, normalize};
use uniask_vector::embedding::{Embedder, SyntheticEmbedder};
use uniask_vector::flat::FlatIndex;
use uniask_vector::hnsw::{Hnsw, HnswParams};
use uniask_vector::VectorIndex;

const CASES: u64 = 48;

fn vector(rng: &mut impl Rng, dim: usize) -> Vec<f32> {
    (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Two vectors of one shared dimension drawn from `1..max_dim`.
fn vector_pair(rng: &mut impl Rng, max_dim: usize) -> (Vec<f32>, Vec<f32>) {
    let dim = rng.gen_range(1..max_dim);
    (vector(rng, dim), vector(rng, dim))
}

#[test]
fn normalize_yields_unit_or_zero() {
    check(CASES, |rng| {
        let mut v = vector(rng, 16);
        normalize(&mut v);
        let n = dot(&v, &v).sqrt();
        assert!(n == 0.0 || (n - 1.0).abs() < 1e-4, "norm {n}");
    });
}

#[test]
fn dot_agrees_with_naive_sum() {
    check(CASES, |rng| {
        // The 8-lane kernel changes accumulation order vs. a sequential
        // sum; f32 rounding must stay within tolerance at any length
        // (exercising both the chunks_exact body and the remainder).
        let (a, b) = vector_pair(rng, 96);
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let kernel = dot(&a, &b);
        assert!((kernel - naive).abs() < 1e-3, "dot {kernel} vs {naive}");
    });
}

#[test]
fn euclidean_agrees_with_naive_sum() {
    check(CASES, |rng| {
        // Same lane-reassociation tolerance argument as the dot kernel,
        // for the shared squared-difference path.
        let (a, b) = vector_pair(rng, 96);
        let squares: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        let (kernel, naive) = (euclidean(&a, &b), squares.sqrt());
        assert!(
            (kernel - naive).abs() < 1e-3,
            "euclidean {kernel} vs {naive}"
        );
    });
}

#[test]
fn fused_cosine_agrees_with_three_dot_formula() {
    check(CASES, |rng| {
        // The one-pass kernel must match the composed formula exactly:
        // it folds the same lane arrays in the same order.
        let (a, b) = vector_pair(rng, 96);
        let (na, nb) = (dot(&a, &a).sqrt(), dot(&b, &b).sqrt());
        let expected = if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            (dot(&a, &b) / (na * nb)).clamp(-1.0, 1.0)
        };
        assert_eq!(cosine_similarity(&a, &b).to_bits(), expected.to_bits());
    });
}

#[test]
fn integer_kernel_is_exact_at_any_length() {
    check(CASES, |rng| {
        // i64 accumulation over i32×u8 products can never overflow or
        // round: the widened kernel must equal the naive sum exactly,
        // extreme weights and codes included.
        let dim = rng.gen_range(1usize..200);
        let w: Vec<i32> = (0..dim)
            .map(|_| match rng.gen_range(0..8) {
                0 => *[i32::MIN, i32::MAX, 0, -1].choose(rng).expect("non-empty"),
                _ => rng.gen(),
            })
            .collect();
        let c: Vec<u8> = (0..dim)
            .map(|_| match rng.gen_range(0..8) {
                0 => *[0, u8::MAX].choose(rng).expect("non-empty"),
                _ => rng.gen(),
            })
            .collect();
        let naive: i64 = w
            .iter()
            .zip(&c)
            .map(|(&x, &y)| i64::from(x) * i64::from(y))
            .sum();
        assert_eq!(dot_i32_u8(&w, &c), naive);
    });
}

#[test]
fn cosine_is_bounded_and_symmetric() {
    check(CASES, |rng| {
        let (a, b) = (vector(rng, 12), vector(rng, 12));
        let ab = cosine_similarity(&a, &b);
        let ba = cosine_similarity(&b, &a);
        assert!((-1.0..=1.0).contains(&ab));
        assert!((ab - ba).abs() < 1e-5);
    });
}

#[test]
fn euclidean_satisfies_identity_and_symmetry() {
    check(CASES, |rng| {
        let (a, b) = (vector(rng, 10), vector(rng, 10));
        assert!(euclidean(&a, &a) < 1e-6);
        assert!((euclidean(&a, &b) - euclidean(&b, &a)).abs() < 1e-5);
        assert!(euclidean(&a, &b) >= 0.0);
    });
}

#[test]
fn flat_index_returns_sorted_unique_ids() {
    check(CASES, |rng| {
        let vectors = vec_of(rng, 1..30, |rng| vector(rng, 8));
        let k = rng.gen_range(1usize..10);
        let mut idx = FlatIndex::new();
        for (i, v) in vectors.iter().enumerate() {
            idx.add(i as u32, v.clone());
        }
        let hits = idx.search(&vectors[0], k);
        assert!(hits.len() <= k.min(vectors.len()));
        for w in hits.windows(2) {
            assert!(w[0].similarity >= w[1].similarity);
        }
        let mut ids: Vec<u32> = hits.iter().map(|h| h.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), hits.len(), "duplicate ids in results");
    });
}

#[test]
fn hnsw_returns_subset_of_inserted_ids() {
    check(CASES, |rng| {
        let vectors = vec_of(rng, 1..40, |rng| vector(rng, 8));
        let k = rng.gen_range(1usize..10);
        let mut idx = Hnsw::new(HnswParams::default());
        for (i, v) in vectors.iter().enumerate() {
            idx.add(i as u32 + 100, v.clone());
        }
        let hits = idx.search(&vectors[0], k);
        assert!(!hits.is_empty());
        for h in &hits {
            assert!((100..100 + vectors.len() as u32).contains(&h.id));
        }
        for w in hits.windows(2) {
            assert!(w[0].similarity >= w[1].similarity);
        }
    });
}

#[test]
fn hnsw_top1_matches_flat_on_small_sets() {
    check(CASES, |rng| {
        let vectors = vec_of(rng, 2..40, |rng| vector(rng, 8));
        // Skip degenerate all-zero query vectors.
        if vectors[0].iter().all(|&x| x.abs() <= 1e-3) {
            return;
        }
        let mut hnsw = Hnsw::new(HnswParams::default());
        let mut flat = FlatIndex::new();
        for (i, v) in vectors.iter().enumerate() {
            hnsw.add(i as u32, v.clone());
            flat.add(i as u32, v.clone());
        }
        let exact = flat.search(&vectors[0], 1)[0];
        let approx = hnsw.search(&vectors[0], 1)[0];
        // Allow similarity ties with different ids.
        assert!(
            approx.id == exact.id || (approx.similarity - exact.similarity).abs() < 1e-5,
            "hnsw top-1 {approx:?} vs flat {exact:?}"
        );
    });
}

#[test]
fn embedder_is_deterministic_and_unit() {
    let property = |text: &str, seed: u64| {
        let e1 = SyntheticEmbedder::new(32, seed);
        let e2 = SyntheticEmbedder::new(32, seed);
        let a = e1.embed(text);
        let b = e2.embed(text);
        assert_eq!(&a, &b);
        let n = dot(&a, &a).sqrt();
        assert!(n == 0.0 || (n - 1.0).abs() < 1e-4);
    };
    property("sym l   ux  b b ", 343); // failed once
    check(CASES, |rng| {
        let text = string_of(rng, &format!("{LOWER} "), 0..=80);
        property(&text, rng.gen_range(0u64..1000));
    });
}

#[test]
fn embedding_similarity_is_permutation_sensitive_but_bag_dominated() {
    check(CASES, |rng| {
        let words = vec_of(rng, 2..8, |rng| string_of(rng, LOWER, 4..=8));
        let e = SyntheticEmbedder::new(64, 3);
        let original = words.join(" ");
        let mut reversed_words = words.clone();
        reversed_words.reverse();
        let reversed = reversed_words.join(" ");
        let a = e.embed(&original);
        let b = e.embed(&reversed);
        // Same bag of words: similarity stays high even reversed
        // (bigram component perturbs but does not dominate).
        assert!(
            cosine_similarity(&a, &b) > 0.5,
            "bag similarity lost: {original:?}"
        );
    });
}

#[test]
fn snapshot_decode_never_panics_on_arbitrary_bytes() {
    check(128, |rng| {
        let data = vec_of(rng, 0..512, |rng| rng.gen::<u8>());
        let _ = uniask_vector::snapshot::decode(&data);
    });
}
