//! The repository benchmark: four workloads driven through the product
//! entry points (`Backend::handle_ask`, `UniAsk::{new, ingest_parallel,
//! apply_update, save_index, from_snapshot}`, `Durability::{recover,
//! log_and_apply, checkpoint}` on `MemVfs`), measured from outside.
//!
//! This library is what the gated `bench` binary is made of. It names
//! no layer crate: the per-layer probes live in the `trace` binary, so
//! a refactor of layer internals can break the traced run only.

pub mod checks;
pub mod cli;
pub mod config;
pub mod inputs;
pub mod report;
pub mod spans;
pub mod stats;
pub mod system;
pub mod workloads;
