//! Table 1 — Retrieval performance of UniAsk vs. the previous engine
//! on the human and keyword test datasets.
//!
//! Usage: `cargo run -p uniask-bench --release --bin table1 [--full|--tiny] [--seed N]`

use uniask_bench::{eval_queries, parse_scale_args, Experiment};
use uniask_eval::report::format_metrics_table;
use uniask_eval::runner::EvalRunner;

fn main() {
    let (scale, seed) = parse_scale_args();
    eprintln!(
        "table1: building corpus ({} docs, seed {seed})...",
        scale.documents
    );
    let exp = Experiment::setup(scale, seed);
    let runner = EvalRunner::new();

    for (label, split) in [("Human", &exp.human), ("Keyword", &exp.keyword)] {
        let queries = eval_queries(&split.test);
        let prev = runner.run(&queries, |q| exp.prev.search(q, 50)).metrics;
        let uniask = runner
            .run(&queries, |q| {
                exp.uniask
                    .search(q)
                    .into_iter()
                    .map(|h| h.parent_doc)
                    .collect()
            })
            .metrics;
        println!(
            "{}",
            format_metrics_table(
                &format!("Table 1 — {label} Test Dataset ({} queries)", queries.len()),
                &[("Prev.", &prev), ("UniAsk", &uniask)],
            )
        );
        println!(
            "  Prev. served {:.1}% of queries; UniAsk served {:.1}%.\n",
            100.0 * prev.coverage,
            100.0 * uniask.coverage
        );
    }
}
