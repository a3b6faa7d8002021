//! Atomic checkpoints with a versioned manifest.
//!
//! A checkpoint is the opaque payload handed to [`CheckpointManager::write`]
//! (in UniAsk, the composite `UASX` snapshot) wrapped in a self-describing
//! file:
//!
//! ```text
//! UACK | version:u8 | generation:u64 LE | wal_watermark:u64 LE
//!      | payload_len:u64 LE | payload | xxh64(all preceding bytes):u64 LE
//! ```
//!
//! The manifest entry records the frame's trailer value as its checksum,
//! so each frame is hashed once on write and once on recovery.
//!
//! Files are written via write-temp → fsync → atomic-rename, then recorded
//! in a `MANIFEST` that keeps the newest `keep` generations. The manifest
//! itself is checksummed and replaced atomically the same way. Recovery
//! walks manifest entries newest-first and returns the first checkpoint
//! whose checksum verifies — a bit-rotted or torn latest generation falls
//! back to the previous one (paid for with a longer WAL replay). WAL
//! pruning must therefore use [`CheckpointManager::prune_watermark`], the
//! *oldest retained* generation's watermark, not the newest.

use crate::checksum::xxh64;
use crate::vfs::{Vfs, VfsError};
use std::fmt;
use std::sync::Arc;

const CKPT_MAGIC: &[u8; 4] = b"UACK";
const CKPT_VERSION: u8 = 2;
const CKPT_HEADER_LEN: usize = 4 + 1 + 8 + 8 + 8;
const MANIFEST_MAGIC: &[u8; 4] = b"UAMF";
const MANIFEST_VERSION: u8 = 2;

/// Errors from checkpoint persistence and recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    Vfs(VfsError),
    /// No manifest entry yielded a checkpoint that verifies.
    NoValidCheckpoint,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Vfs(e) => write!(f, "checkpoint: {e}"),
            CheckpointError::NoValidCheckpoint => {
                write!(
                    f,
                    "checkpoint: no valid checkpoint in any manifest generation"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<VfsError> for CheckpointError {
    fn from(e: VfsError) -> Self {
        CheckpointError::Vfs(e)
    }
}

/// One manifest row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    pub generation: u64,
    pub file: String,
    pub wal_watermark: u64,
    pub checksum: u64,
    pub len: u64,
}

/// A successfully recovered checkpoint.
#[derive(Debug, Clone)]
pub struct LoadedCheckpoint {
    pub generation: u64,
    pub wal_watermark: u64,
    pub payload: Vec<u8>,
    /// Manifest entries newer than this one that failed verification.
    pub generations_skipped: u64,
}

/// Checkpoint configuration.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory prefix for checkpoint files and the manifest.
    pub dir: String,
    /// Number of generations retained in the manifest (min 2 so a
    /// corrupted latest generation always has a fallback).
    pub keep: usize,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        Self {
            dir: "ckpt".to_string(),
            keep: 2,
        }
    }
}

/// Writes and recovers atomic, manifest-tracked checkpoints.
pub struct CheckpointManager {
    vfs: Arc<dyn Vfs>,
    config: CheckpointConfig,
    entries: Vec<ManifestEntry>,
    next_generation: u64,
}

impl CheckpointManager {
    /// Open the manager, loading the manifest if one verifies. A missing
    /// or corrupt manifest yields an empty history (recovery will then
    /// report no valid checkpoint and the caller replays the full WAL).
    pub fn open(vfs: Arc<dyn Vfs>, config: CheckpointConfig) -> Self {
        let config = CheckpointConfig {
            keep: config.keep.max(2),
            ..config
        };
        let entries = Self::read_manifest(vfs.as_ref(), &config.dir).unwrap_or_default();
        let next_generation = entries.iter().map(|e| e.generation + 1).max().unwrap_or(0);
        Self {
            vfs,
            config,
            entries,
            next_generation,
        }
    }

    fn manifest_path(dir: &str) -> String {
        format!("{dir}/MANIFEST")
    }

    fn ckpt_path(dir: &str, generation: u64) -> String {
        format!("{dir}/{generation:012}.ckpt")
    }

    /// Encode the manifest: magic | version | count:u32 | rows | xxh64.
    /// Each row: generation:u64 | watermark:u64 | checksum:u64 | len:u64
    /// | path_len:u32 | path bytes, where `checksum` is the checkpoint
    /// frame's trailer value.
    fn encode_manifest(entries: &[ManifestEntry]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MANIFEST_MAGIC);
        buf.push(MANIFEST_VERSION);
        buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for entry in entries {
            buf.extend_from_slice(&entry.generation.to_le_bytes());
            buf.extend_from_slice(&entry.wal_watermark.to_le_bytes());
            buf.extend_from_slice(&entry.checksum.to_le_bytes());
            buf.extend_from_slice(&entry.len.to_le_bytes());
            buf.extend_from_slice(&(entry.file.len() as u32).to_le_bytes());
            buf.extend_from_slice(entry.file.as_bytes());
        }
        let checksum = xxh64(&buf, 0);
        buf.extend_from_slice(&checksum.to_le_bytes());
        buf
    }

    fn read_manifest(vfs: &dyn Vfs, dir: &str) -> Option<Vec<ManifestEntry>> {
        let data = vfs.read(&Self::manifest_path(dir)).ok()?;
        if data.len() < 4 + 1 + 4 + 8 {
            return None;
        }
        let (body, trailer) = data.split_at(data.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().ok()?);
        if xxh64(body, 0) != stored || &body[..4] != MANIFEST_MAGIC || body[4] != MANIFEST_VERSION {
            return None;
        }
        let mut offset = 5;
        let count = u32::from_le_bytes(body.get(offset..offset + 4)?.try_into().ok()?) as usize;
        offset += 4;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let generation = u64::from_le_bytes(body.get(offset..offset + 8)?.try_into().ok()?);
            let wal_watermark =
                u64::from_le_bytes(body.get(offset + 8..offset + 16)?.try_into().ok()?);
            let checksum = u64::from_le_bytes(body.get(offset + 16..offset + 24)?.try_into().ok()?);
            let len = u64::from_le_bytes(body.get(offset + 24..offset + 32)?.try_into().ok()?);
            let path_len =
                u32::from_le_bytes(body.get(offset + 32..offset + 36)?.try_into().ok()?) as usize;
            offset += 36;
            let file = String::from_utf8(body.get(offset..offset + path_len)?.to_vec()).ok()?;
            offset += path_len;
            entries.push(ManifestEntry {
                generation,
                file,
                wal_watermark,
                checksum,
                len,
            });
        }
        Some(entries)
    }

    /// Encode a checkpoint frame; returns it with its trailer value.
    fn encode_checkpoint(generation: u64, wal_watermark: u64, payload: &[u8]) -> (Vec<u8>, u64) {
        let mut buf = Vec::with_capacity(CKPT_HEADER_LEN + payload.len() + 8);
        buf.extend_from_slice(CKPT_MAGIC);
        buf.push(CKPT_VERSION);
        buf.extend_from_slice(&generation.to_le_bytes());
        buf.extend_from_slice(&wal_watermark.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(payload);
        let checksum = xxh64(&buf, 0);
        buf.extend_from_slice(&checksum.to_le_bytes());
        (buf, checksum)
    }

    fn decode_checkpoint(data: &[u8]) -> Option<(u64, u64, Vec<u8>)> {
        if data.len() < CKPT_HEADER_LEN + 8 {
            return None;
        }
        let (body, trailer) = data.split_at(data.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().ok()?);
        if xxh64(body, 0) != stored || &body[..4] != CKPT_MAGIC || body[4] != CKPT_VERSION {
            return None;
        }
        let generation = u64::from_le_bytes(body[5..13].try_into().ok()?);
        let wal_watermark = u64::from_le_bytes(body[13..21].try_into().ok()?);
        let payload_len = u64::from_le_bytes(body[21..29].try_into().ok()?) as usize;
        if body.len() != CKPT_HEADER_LEN + payload_len {
            return None;
        }
        Some((generation, wal_watermark, body[CKPT_HEADER_LEN..].to_vec()))
    }

    /// Write a checkpoint atomically and record it in the manifest.
    /// Returns the generation assigned.
    ///
    /// Crash analysis: a crash before the rename leaves only an orphan
    /// `.tmp` (ignored by recovery); after the rename but before the
    /// manifest write, the new `.ckpt` is unlisted (ignored — manifest is
    /// authoritative); after the manifest write, the checkpoint is live.
    /// Superseded checkpoint files are deleted only after the manifest
    /// no longer references them.
    pub fn write(&mut self, payload: &[u8], wal_watermark: u64) -> Result<u64, CheckpointError> {
        let generation = self.next_generation;
        let path = Self::ckpt_path(&self.config.dir, generation);
        let tmp = format!("{path}.tmp");
        let (encoded, checksum) = Self::encode_checkpoint(generation, wal_watermark, payload);

        self.vfs.write_all(&tmp, &encoded)?;
        self.vfs.sync(&tmp)?;
        self.vfs.rename(&tmp, &path)?;

        let mut entries = self.entries.clone();
        entries.push(ManifestEntry {
            generation,
            file: path,
            wal_watermark,
            checksum,
            len: encoded.len() as u64,
        });
        let dropped: Vec<ManifestEntry> = if entries.len() > self.config.keep {
            entries.drain(..entries.len() - self.config.keep).collect()
        } else {
            Vec::new()
        };
        self.write_manifest(&entries)?;
        self.entries = entries;
        self.next_generation = generation + 1;
        for old in dropped {
            self.vfs.remove(&old.file)?;
        }
        Ok(generation)
    }

    fn write_manifest(&self, entries: &[ManifestEntry]) -> Result<(), VfsError> {
        let path = Self::manifest_path(&self.config.dir);
        let tmp = format!("{path}.tmp");
        self.vfs.write_all(&tmp, &Self::encode_manifest(entries))?;
        self.vfs.sync(&tmp)?;
        self.vfs.rename(&tmp, &path)
    }

    /// Load the newest checkpoint that verifies, walking generations
    /// newest-first. Corrupt entries are skipped, not fatal. A file must
    /// have the recorded length and trailer, and its body must hash to
    /// that trailer.
    pub fn load_latest(&self) -> Result<LoadedCheckpoint, CheckpointError> {
        for (skipped, entry) in self.entries.iter().rev().enumerate() {
            if let Ok(data) = self.vfs.read(&entry.file) {
                if data.len() as u64 == entry.len && data.ends_with(&entry.checksum.to_le_bytes()) {
                    if let Some((generation, wal_watermark, payload)) =
                        Self::decode_checkpoint(&data)
                    {
                        if generation == entry.generation {
                            return Ok(LoadedCheckpoint {
                                generation,
                                wal_watermark,
                                payload,
                                generations_skipped: skipped as u64,
                            });
                        }
                    }
                }
            }
        }
        Err(CheckpointError::NoValidCheckpoint)
    }

    /// Watermark at which WAL pruning is safe: the *oldest* retained
    /// generation's watermark, so every manifest entry can still replay
    /// its tail. `None` when no checkpoints exist.
    pub fn prune_watermark(&self) -> Option<u64> {
        self.entries.iter().map(|e| e.wal_watermark).min()
    }

    /// Retained manifest entries, oldest first.
    pub fn entries(&self) -> &[ManifestEntry] {
        &self.entries
    }

    /// Generation the next [`CheckpointManager::write`] will use.
    pub fn next_generation(&self) -> u64 {
        self.next_generation
    }

    /// Delete orphan `.tmp` files left by crashes mid-checkpoint.
    pub fn sweep_orphans(&self) -> Result<u64, VfsError> {
        let mut swept = 0;
        for path in self.vfs.list(&format!("{}/", self.config.dir)) {
            if path.ends_with(".tmp") {
                self.vfs.remove(&path)?;
                swept += 1;
            }
        }
        Ok(swept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{CrashPlan, MemVfs};

    fn manager(vfs: &MemVfs, keep: usize) -> CheckpointManager {
        CheckpointManager::open(
            Arc::new(vfs.clone()),
            CheckpointConfig {
                dir: "ckpt".into(),
                keep,
            },
        )
    }

    /// Re-seal a frame or manifest after editing its body, so a header
    /// check (not the checksum) is what rejects it.
    fn reseal(bytes: &mut [u8]) {
        let body = bytes.len() - 8;
        let sum = xxh64(&bytes[..body], 0);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn unsupported_checkpoint_version_is_rejected() {
        let (frame, _) = CheckpointManager::encode_checkpoint(3, 7, b"payload");
        assert!(CheckpointManager::decode_checkpoint(&frame).is_some());
        // 1 is the previous (FNV-1a) version.
        for version in [0u8, 1, 3, 0xFF] {
            let mut bad = frame.clone();
            bad[4] = version;
            reseal(&mut bad);
            assert!(
                CheckpointManager::decode_checkpoint(&bad).is_none(),
                "version {version}"
            );
        }
    }

    #[test]
    fn unsupported_manifest_version_is_rejected() {
        let vfs = MemVfs::new();
        let mut mgr = manager(&vfs, 2);
        mgr.write(b"snap", 1).unwrap();
        let good = vfs.read("ckpt/MANIFEST").unwrap();
        for version in [0u8, 1, 3, 0xFF] {
            let mut bad = good.clone();
            bad[4] = version;
            reseal(&mut bad);
            vfs.write_all("ckpt/MANIFEST", &bad).unwrap();
            assert!(manager(&vfs, 2).entries().is_empty(), "version {version}");
        }
    }

    #[test]
    fn manifest_checksum_is_the_frame_trailer() {
        let vfs = MemVfs::new();
        let mut mgr = manager(&vfs, 2);
        mgr.write(b"old-snapshot", 3).unwrap();
        mgr.write(b"new-snapshot", 8).unwrap();
        let latest = mgr.entries()[1].clone();
        let frame = vfs.read(&latest.file).unwrap();
        assert_eq!(frame[frame.len() - 8..], latest.checksum.to_le_bytes());
        // A rotted trailer no longer matches the manifest: fall back.
        assert!(vfs.flip_byte(&latest.file, frame.len() - 1));
        let loaded = manager(&vfs, 2).load_latest().unwrap();
        assert_eq!(loaded.payload, b"old-snapshot");
        assert_eq!(loaded.generations_skipped, 1);
    }

    #[test]
    fn a_valid_frame_the_manifest_did_not_record_is_skipped() {
        let vfs = MemVfs::new();
        let mut mgr = manager(&vfs, 2);
        mgr.write(b"old-snapshot", 3).unwrap();
        mgr.write(b"new-snapshot", 8).unwrap();
        // Same generation, watermark and length, intact on its own, but
        // not the bytes the manifest recorded.
        let (foreign, _) = CheckpointManager::encode_checkpoint(1, 8, b"NEW-snapshot");
        vfs.write_all("ckpt/000000000001.ckpt", &foreign).unwrap();
        vfs.sync("ckpt/000000000001.ckpt").unwrap();
        let loaded = manager(&vfs, 2).load_latest().unwrap();
        assert_eq!(loaded.payload, b"old-snapshot");
        assert_eq!(loaded.generations_skipped, 1);
    }

    #[test]
    fn write_load_roundtrip() {
        let vfs = MemVfs::new();
        let mut mgr = manager(&vfs, 2);
        let g0 = mgr.write(b"snapshot-zero", 10).unwrap();
        assert_eq!(g0, 0);
        let loaded = manager(&vfs, 2).load_latest().unwrap();
        assert_eq!(loaded.generation, 0);
        assert_eq!(loaded.wal_watermark, 10);
        assert_eq!(loaded.payload, b"snapshot-zero");
        assert_eq!(loaded.generations_skipped, 0);
    }

    #[test]
    fn keeps_only_configured_generations() {
        let vfs = MemVfs::new();
        let mut mgr = manager(&vfs, 2);
        for (i, wm) in [5u64, 10, 15].iter().enumerate() {
            mgr.write(format!("snap-{i}").as_bytes(), *wm).unwrap();
        }
        let reopened = manager(&vfs, 2);
        assert_eq!(reopened.entries().len(), 2);
        assert_eq!(reopened.entries()[0].generation, 1);
        assert_eq!(reopened.prune_watermark(), Some(10));
        // Dropped generation's file is deleted.
        assert!(!vfs.exists("ckpt/000000000000.ckpt"));
        assert!(vfs.exists("ckpt/000000000002.ckpt"));
    }

    #[test]
    fn corrupt_latest_falls_back_to_previous_generation() {
        let vfs = MemVfs::new();
        let mut mgr = manager(&vfs, 2);
        mgr.write(b"old-snapshot", 3).unwrap();
        mgr.write(b"new-snapshot", 8).unwrap();
        assert!(vfs.flip_byte("ckpt/000000000001.ckpt", 30));
        let loaded = manager(&vfs, 2).load_latest().unwrap();
        assert_eq!(loaded.generation, 0);
        assert_eq!(loaded.wal_watermark, 3);
        assert_eq!(loaded.payload, b"old-snapshot");
        assert_eq!(loaded.generations_skipped, 1);
    }

    #[test]
    fn all_generations_corrupt_is_an_error() {
        let vfs = MemVfs::new();
        let mut mgr = manager(&vfs, 2);
        mgr.write(b"a", 1).unwrap();
        mgr.write(b"b", 2).unwrap();
        for path in vfs.list("ckpt/") {
            if path.ends_with(".ckpt") {
                vfs.flip_byte(&path, 10);
            }
        }
        assert_eq!(
            manager(&vfs, 2).load_latest().unwrap_err(),
            CheckpointError::NoValidCheckpoint
        );
    }

    #[test]
    fn corrupt_manifest_yields_empty_history() {
        let vfs = MemVfs::new();
        let mut mgr = manager(&vfs, 2);
        mgr.write(b"snap", 1).unwrap();
        vfs.flip_byte("ckpt/MANIFEST", 6);
        let reopened = manager(&vfs, 2);
        assert!(reopened.entries().is_empty());
        assert!(reopened.load_latest().is_err());
    }

    #[test]
    fn crash_before_rename_leaves_previous_checkpoint_live() {
        let vfs = MemVfs::new();
        let mut mgr = manager(&vfs, 2);
        mgr.write(b"stable", 4).unwrap();
        // Next write: ops are tmp-write, tmp-sync, rename, manifest ops…
        // Crash on the rename (third mutating op from now).
        vfs.schedule_crash(CrashPlan::before(vfs.mutating_ops() + 2));
        assert!(mgr.write(b"doomed", 9).is_err());
        vfs.restart(13);
        let reopened = manager(&vfs, 2);
        let loaded = reopened.load_latest().unwrap();
        assert_eq!(loaded.payload, b"stable");
        assert_eq!(loaded.wal_watermark, 4);
        // Orphan tmp is swept.
        assert!(reopened.sweep_orphans().unwrap() >= 1);
        assert!(vfs.list("ckpt/").iter().all(|p| !p.ends_with(".tmp")));
    }

    #[test]
    fn crash_after_rename_before_manifest_ignores_unlisted_checkpoint() {
        let vfs = MemVfs::new();
        let mut mgr = manager(&vfs, 2);
        mgr.write(b"stable", 4).unwrap();
        // Crash right after the checkpoint rename: tmp-write(+0),
        // tmp-sync(+1), rename(+2) — crash after op +2 completes.
        vfs.schedule_crash(CrashPlan::after(vfs.mutating_ops() + 2));
        assert!(mgr.write(b"unlisted", 9).is_err());
        vfs.restart(17);
        // The new .ckpt exists but the manifest never saw it.
        assert!(vfs.exists("ckpt/000000000001.ckpt"));
        let reopened = manager(&vfs, 2);
        let loaded = reopened.load_latest().unwrap();
        assert_eq!(loaded.payload, b"stable");
        // Next write must not collide with the orphan generation: it
        // reuses the slot by overwriting via rename, which is safe.
        let mut reopened = reopened;
        let g = reopened.write(b"fresh", 12).unwrap();
        assert_eq!(g, 1);
        let loaded = manager(&vfs, 2).load_latest().unwrap();
        assert_eq!(loaded.payload, b"fresh");
    }

    #[test]
    fn unsynced_checkpoint_detected_after_restart() {
        // If the temp file were renamed without the sync, a crash after
        // rename could tear the payload; the checksum must catch it.
        let vfs = MemVfs::new();
        let mut mgr = manager(&vfs, 2);
        mgr.write(b"good-snapshot-payload", 2).unwrap();
        mgr.write(b"second-snapshot-payload", 6).unwrap();
        // Manually simulate a torn latest checkpoint file.
        let latest = "ckpt/000000000001.ckpt";
        let full = vfs.read(latest).unwrap();
        vfs.write_all(latest, &full[..full.len() / 2]).unwrap();
        vfs.sync(latest).unwrap();
        let loaded = manager(&vfs, 2).load_latest().unwrap();
        assert_eq!(loaded.generation, 0);
        assert_eq!(loaded.payload, b"good-snapshot-payload");
    }
}
