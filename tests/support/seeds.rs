//! The one seed hook of the workspace's seeded suites, `#[path]`-included
//! by each of them: `UNIASK_TEST_SEED=<n>` adds one seed to whatever a
//! suite replays by default (CI fans its matrices out through it).

/// `builtin` plus the seed in `UNIASK_TEST_SEED`, when set and not
/// already listed.
pub fn seeds(builtin: &[u64]) -> Vec<u64> {
    let mut seeds = builtin.to_vec();
    if let Ok(extra) = std::env::var("UNIASK_TEST_SEED") {
        let seed = extra
            .trim()
            .parse()
            .expect("UNIASK_TEST_SEED must be a u64");
        if !seeds.contains(&seed) {
            seeds.push(seed);
        }
    }
    seeds
}
