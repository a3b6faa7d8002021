//! uniask-store: the durability half of UniAsk's robustness story.
//!
//! PR 3's resilience layer keeps the system answering while dependencies
//! misbehave; this crate keeps indexed state alive across process death.
//! It provides a simulated fault-injectable filesystem ([`vfs::MemVfs`]),
//! a checksummed record-framed write-ahead log ([`wal::Wal`]) and an
//! atomic, manifest-tracked checkpoint store
//! ([`checkpoint::CheckpointManager`]). `uniask-core::durability` wires
//! these under the ingest pipeline; `tests/crash_recovery.rs` proves that
//! recovery from any injected crash point converges to the uninterrupted
//! run byte-for-byte.

pub mod checkpoint;
pub mod checksum;
pub mod vfs;
pub mod wal;

pub use checkpoint::{
    CheckpointConfig, CheckpointError, CheckpointManager, LoadedCheckpoint, ManifestEntry,
};
pub use vfs::{CrashPlan, MemVfs, Vfs, VfsError};
pub use wal::{Wal, WalConfig, WalRecord, WalRecovery};
