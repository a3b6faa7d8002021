//! Seeded-loop property tests of the evaluation metrics.

#[path = "../../../tests/support/cases.rs"]
mod cases;

use std::collections::{BTreeSet, HashSet};

use cases::{check, vec_of};
use rand::Rng;
use uniask_eval::metrics::{hit_at, precision_at, recall_at, reciprocal_rank, MetricsAccumulator};

const CASES: u64 = 96;

/// A set of distinct `d{0..40}` ids whose size is uniform in `0..max_len`.
fn doc_ids(rng: &mut impl Rng, max_len: usize) -> BTreeSet<u32> {
    let n = rng.gen_range(0..max_len);
    let mut set = BTreeSet::new();
    while set.len() < n {
        set.insert(rng.gen_range(0u32..40));
    }
    set
}

fn ranked(rng: &mut impl Rng) -> Vec<String> {
    doc_ids(rng, 20).iter().map(|i| format!("d{i}")).collect()
}

fn relevant(rng: &mut impl Rng) -> HashSet<String> {
    doc_ids(rng, 10).iter().map(|i| format!("d{i}")).collect()
}

#[test]
fn all_metrics_are_in_unit_interval() {
    check(CASES, |rng| {
        let (r, rel, n) = (ranked(rng), relevant(rng), rng.gen_range(1usize..60));
        for v in [
            precision_at(&r, &rel, n),
            recall_at(&r, &rel, n),
            hit_at(&r, &rel, n),
            reciprocal_rank(&r, &rel),
        ] {
            assert!((0.0..=1.0).contains(&v), "metric {v} out of range");
        }
    });
}

#[test]
fn recall_and_hit_are_monotone_in_depth() {
    check(CASES, |rng| {
        let (r, rel) = (ranked(rng), relevant(rng));
        let mut prev_r = 0.0;
        let mut prev_h = 0.0;
        for n in 1..=r.len().max(1) {
            let rec = recall_at(&r, &rel, n);
            let hit = hit_at(&r, &rel, n);
            assert!(rec >= prev_r, "recall decreased at depth {n}");
            assert!(hit >= prev_h, "hit rate decreased at depth {n}");
            prev_r = rec;
            prev_h = hit;
        }
    });
}

#[test]
fn mrr_is_at_least_hit_at_1_scaled() {
    check(CASES, |rng| {
        let (r, rel) = (ranked(rng), relevant(rng));
        // RR = 1 when the first result is relevant; otherwise < 1 but
        // > 0 iff any relevant result appears.
        let rr = reciprocal_rank(&r, &rel);
        let h1 = hit_at(&r, &rel, 1);
        assert!(rr >= h1 * 0.999);
        let any_hit = r.iter().any(|d| rel.contains(d));
        assert_eq!(rr > 0.0, any_hit);
    });
}

#[test]
fn precision_times_n_counts_hits() {
    check(CASES, |rng| {
        let (r, rel, n) = (ranked(rng), relevant(rng), rng.gen_range(1usize..30));
        let hits = r.iter().take(n).filter(|d| rel.contains(*d)).count();
        let p = precision_at(&r, &rel, n);
        assert!(((p * n as f64) - hits as f64).abs() < 1e-9);
    });
}

#[test]
fn accumulator_average_stays_in_bounds() {
    check(CASES, |rng| {
        let batches = vec_of(rng, 1..20, |rng| (ranked(rng), relevant(rng)));
        let mut acc = MetricsAccumulator::default();
        for (r, rel) in &batches {
            acc.record(r, rel);
        }
        let m = acc.finish();
        assert!((0.0..=1.0).contains(&m.mrr));
        assert!((0.0..=1.0).contains(&m.coverage));
        for map in [&m.p_at, &m.r_at, &m.hit_at] {
            for v in map.values() {
                assert!((0.0..=1.0).contains(v));
            }
        }
        assert_eq!(m.total_queries, batches.len());
        assert!(m.answered_queries <= m.total_queries);
    });
}
