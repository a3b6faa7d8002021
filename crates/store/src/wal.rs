//! Checksummed, record-framed write-ahead log over a [`Vfs`].
//!
//! Layout: segments named `<dir>/<seq>.seg` (zero-padded decimal seq).
//! Each segment starts with a fixed header `UAWL | version:u8 | seq:u64`,
//! followed by records framed as:
//!
//! ```text
//! len:u32 LE | lsn:u64 LE | checksum:u64 LE | payload (len bytes)
//! ```
//!
//! where `checksum = xxh64(payload, seed = lsn)`, so the checksum covers
//! the LSN without copying the record. LSNs are assigned by the caller
//! and must be strictly increasing.
//!
//! Recovery semantics: [`Wal::open`] scans every segment in order and
//! verifies each record's frame and checksum. The first short, torn, or
//! corrupt record ends the log — it and everything after it (in that
//! segment and all later segments) is discarded, and the live tail
//! segment is truncated back to the last valid record so new appends
//! never interleave with garbage.

use crate::checksum::xxh64;
use crate::vfs::{Vfs, VfsError};
use std::sync::Arc;

const SEG_MAGIC: &[u8; 4] = b"UAWL";
const SEG_VERSION: u8 = 2;
const SEG_HEADER_LEN: usize = 4 + 1 + 8;
const FRAME_HEADER_LEN: usize = 4 + 8 + 8;
/// Upper bound on a single record payload; anything larger is treated as
/// frame corruption rather than an allocation request.
const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

fn record_checksum(lsn: u64, payload: &[u8]) -> u64 {
    xxh64(payload, lsn)
}

/// WAL tuning knobs.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory prefix for segment files (with trailing slash added).
    pub dir: String,
    /// Rotate to a new segment once the current one reaches this size.
    pub segment_max_bytes: usize,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self {
            dir: "wal".to_string(),
            segment_max_bytes: 256 * 1024,
        }
    }
}

/// One recovered record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    pub lsn: u64,
    pub payload: Vec<u8>,
}

#[derive(Debug, Clone)]
struct Segment {
    seq: u64,
    path: String,
    /// Bytes currently in the segment (header + valid records).
    len: usize,
    first_lsn: Option<u64>,
    last_lsn: Option<u64>,
}

/// Outcome of opening (recovering) a WAL.
#[derive(Debug, Default, Clone)]
pub struct WalRecovery {
    /// Valid records in LSN order.
    pub records: Vec<WalRecord>,
    /// Records (or torn fragments) discarded during truncation.
    pub corrupt_records_skipped: u64,
    /// Whole later segments discarded after the first corruption.
    pub segments_discarded: u64,
}

/// Append-only write-ahead log.
pub struct Wal {
    vfs: Arc<dyn Vfs>,
    config: WalConfig,
    segments: Vec<Segment>,
    next_seq: u64,
}

impl Wal {
    fn seg_path(dir: &str, seq: u64) -> String {
        format!("{dir}/{seq:012}.seg")
    }

    fn seg_header(seq: u64) -> Vec<u8> {
        let mut buf = Vec::with_capacity(SEG_HEADER_LEN);
        buf.extend_from_slice(SEG_MAGIC);
        buf.push(SEG_VERSION);
        buf.extend_from_slice(&seq.to_le_bytes());
        buf
    }

    /// Open the WAL, scanning and repairing existing segments. Returns
    /// the WAL positioned for appends plus everything recovered.
    pub fn open(vfs: Arc<dyn Vfs>, config: WalConfig) -> Result<(Self, WalRecovery), VfsError> {
        let prefix = format!("{}/", config.dir);
        let mut paths = vfs.list(&prefix);
        paths.retain(|p| p.ends_with(".seg"));
        paths.sort();

        let mut recovery = WalRecovery::default();
        let mut segments: Vec<Segment> = Vec::new();
        let mut truncated = false;

        for path in paths {
            if truncated {
                // Everything after the first corruption is discarded.
                vfs.remove(&path)?;
                recovery.segments_discarded += 1;
                continue;
            }
            let data = vfs.read(&path)?;
            let seq = Self::parse_seq(&path);
            let (valid_len, records, skipped, clean) = Self::scan_segment(&data, seq);
            recovery.corrupt_records_skipped += skipped;
            let mut segment = Segment {
                seq,
                path: path.clone(),
                len: valid_len,
                first_lsn: records.first().map(|r| r.lsn),
                last_lsn: records.last().map(|r| r.lsn),
            };
            recovery.records.extend(records);
            if !clean {
                truncated = true;
                if valid_len < SEG_HEADER_LEN {
                    // Header itself is torn or corrupt: drop the segment.
                    vfs.remove(&path)?;
                    recovery.segments_discarded += 1;
                    continue;
                }
                // Truncate the tail back to the last valid record.
                vfs.write_all(&path, &data[..valid_len])?;
                vfs.sync(&path)?;
                segment.len = valid_len;
            }
            segments.push(segment);
        }

        let next_seq = segments.last().map_or(0, |s| s.seq + 1);
        Ok((
            Self {
                vfs,
                config,
                segments,
                next_seq,
            },
            recovery,
        ))
    }

    fn parse_seq(path: &str) -> u64 {
        path.rsplit('/')
            .next()
            .and_then(|name| name.strip_suffix(".seg"))
            .and_then(|stem| stem.parse().ok())
            .unwrap_or(0)
    }

    /// Scan one segment. Returns (valid byte length, records, skipped
    /// count, clean) where `clean` is false if any truncation is needed.
    fn scan_segment(data: &[u8], expect_seq: u64) -> (usize, Vec<WalRecord>, u64, bool) {
        if data.len() < SEG_HEADER_LEN
            || &data[..4] != SEG_MAGIC
            || data[4] != SEG_VERSION
            || u64::from_le_bytes(data[5..13].try_into().expect("header len")) != expect_seq
        {
            return (0, Vec::new(), 1, false);
        }
        let mut offset = SEG_HEADER_LEN;
        let mut records = Vec::new();
        loop {
            if offset == data.len() {
                return (offset, records, 0, true);
            }
            if data.len() - offset < FRAME_HEADER_LEN {
                return (offset, records, 1, false);
            }
            let len = u32::from_le_bytes(data[offset..offset + 4].try_into().expect("frame len"));
            let lsn =
                u64::from_le_bytes(data[offset + 4..offset + 12].try_into().expect("frame len"));
            let checksum = u64::from_le_bytes(
                data[offset + 12..offset + 20]
                    .try_into()
                    .expect("frame len"),
            );
            if len > MAX_RECORD_LEN {
                return (offset, records, 1, false);
            }
            let body_end = offset + FRAME_HEADER_LEN + len as usize;
            if body_end > data.len() {
                return (offset, records, 1, false);
            }
            let payload = &data[offset + FRAME_HEADER_LEN..body_end];
            if record_checksum(lsn, payload) != checksum {
                return (offset, records, 1, false);
            }
            records.push(WalRecord {
                lsn,
                payload: payload.to_vec(),
            });
            offset = body_end;
        }
    }

    /// Append one record and make it durable before returning.
    pub fn append(&mut self, lsn: u64, payload: &[u8]) -> Result<(), VfsError> {
        if self
            .segments
            .last()
            .is_none_or(|s| s.len >= self.config.segment_max_bytes)
        {
            self.rotate()?;
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&lsn.to_le_bytes());
        frame.extend_from_slice(&record_checksum(lsn, payload).to_le_bytes());
        frame.extend_from_slice(payload);

        let segment = self.segments.last_mut().expect("rotate ensured a segment");
        self.vfs.append(&segment.path, &frame)?;
        self.vfs.sync(&segment.path)?;
        segment.len += frame.len();
        segment.first_lsn.get_or_insert(lsn);
        segment.last_lsn = Some(lsn);
        Ok(())
    }

    fn rotate(&mut self) -> Result<(), VfsError> {
        let seq = self.next_seq;
        let path = Self::seg_path(&self.config.dir, seq);
        self.vfs.write_all(&path, &Self::seg_header(seq))?;
        self.vfs.sync(&path)?;
        self.segments.push(Segment {
            seq,
            path,
            len: SEG_HEADER_LEN,
            first_lsn: None,
            last_lsn: None,
        });
        self.next_seq = seq + 1;
        Ok(())
    }

    /// Remove segments whose every record has `lsn <= watermark`. The
    /// newest segment is always retained so appends have a tail to land
    /// in and `next_seq` stays monotone across restarts.
    pub fn prune(&mut self, watermark: u64) -> Result<u64, VfsError> {
        let mut pruned = 0;
        while self.segments.len() > 1 {
            let first = &self.segments[0];
            let removable = match first.last_lsn {
                Some(last) => last <= watermark,
                None => true, // empty segment that is not the tail
            };
            if !removable {
                break;
            }
            self.vfs.remove(&first.path)?;
            self.segments.remove(0);
            pruned += 1;
        }
        Ok(pruned)
    }

    /// Number of live segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Highest LSN currently stored, if any.
    pub fn last_lsn(&self) -> Option<u64> {
        self.segments.iter().rev().find_map(|s| s.last_lsn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{CrashPlan, MemVfs};

    fn wal(vfs: &MemVfs, seg_max: usize) -> Wal {
        let (wal, recovery) = Wal::open(
            Arc::new(vfs.clone()),
            WalConfig {
                dir: "wal".into(),
                segment_max_bytes: seg_max,
            },
        )
        .expect("open");
        assert!(recovery.records.is_empty());
        wal
    }

    fn reopen(vfs: &MemVfs, seg_max: usize) -> (Wal, WalRecovery) {
        Wal::open(
            Arc::new(vfs.clone()),
            WalConfig {
                dir: "wal".into(),
                segment_max_bytes: seg_max,
            },
        )
        .expect("open")
    }

    #[test]
    fn append_and_recover_roundtrip() {
        let vfs = MemVfs::new();
        let mut w = wal(&vfs, 1 << 20);
        for lsn in 0..10u64 {
            w.append(lsn, format!("payload-{lsn}").as_bytes()).unwrap();
        }
        let (_, recovery) = reopen(&vfs, 1 << 20);
        assert_eq!(recovery.records.len(), 10);
        assert_eq!(recovery.corrupt_records_skipped, 0);
        for (i, rec) in recovery.records.iter().enumerate() {
            assert_eq!(rec.lsn, i as u64);
            assert_eq!(rec.payload, format!("payload-{i}").into_bytes());
        }
    }

    #[test]
    fn rotation_splits_segments() {
        let vfs = MemVfs::new();
        let mut w = wal(&vfs, 64);
        for lsn in 0..20u64 {
            w.append(lsn, b"0123456789").unwrap();
        }
        assert!(w.segment_count() > 1);
        let (_, recovery) = reopen(&vfs, 64);
        assert_eq!(recovery.records.len(), 20);
    }

    #[test]
    fn torn_final_record_truncated() {
        let vfs = MemVfs::new();
        let mut w = wal(&vfs, 1 << 20);
        for lsn in 0..5u64 {
            w.append(lsn, b"intact-record").unwrap();
        }
        // Tear the final append mid-frame.
        vfs.schedule_crash(CrashPlan::torn(vfs.mutating_ops(), 0.4));
        assert!(w.append(5, b"torn-record!!").is_err());
        vfs.restart(11);
        let (w2, recovery) = reopen(&vfs, 1 << 20);
        assert_eq!(recovery.records.len(), 5);
        assert!(recovery.corrupt_records_skipped <= 1);
        assert_eq!(w2.last_lsn(), Some(4));
    }

    #[test]
    fn appends_after_truncation_recover_cleanly() {
        let vfs = MemVfs::new();
        let mut w = wal(&vfs, 1 << 20);
        for lsn in 0..3u64 {
            w.append(lsn, b"rec").unwrap();
        }
        vfs.schedule_crash(CrashPlan::torn(vfs.mutating_ops(), 0.5));
        assert!(w.append(3, b"doomed").is_err());
        vfs.restart(4);
        let (mut w2, recovery) = reopen(&vfs, 1 << 20);
        assert_eq!(recovery.records.len(), 3);
        w2.append(3, b"retried").unwrap();
        let (_, recovery2) = reopen(&vfs, 1 << 20);
        assert_eq!(recovery2.records.len(), 4);
        assert_eq!(recovery2.records[3].payload, b"retried");
    }

    #[test]
    fn mid_log_corruption_discards_tail_segments() {
        let vfs = MemVfs::new();
        let mut w = wal(&vfs, 64);
        for lsn in 0..20u64 {
            w.append(lsn, b"0123456789").unwrap();
        }
        assert!(w.segment_count() >= 3);
        // Bit-rot a payload byte in the second segment.
        let paths = vfs.list("wal/");
        vfs.flip_byte(&paths[1], SEG_HEADER_LEN + FRAME_HEADER_LEN + 2);
        let (_, recovery) = reopen(&vfs, 64);
        assert!(recovery.corrupt_records_skipped >= 1);
        assert!(recovery.segments_discarded >= 1);
        // Records before the corruption survive; LSNs stay contiguous.
        for (i, rec) in recovery.records.iter().enumerate() {
            assert_eq!(rec.lsn, i as u64);
        }
        assert!(recovery.records.len() < 20);
    }

    #[test]
    fn prune_removes_covered_segments_keeps_tail() {
        let vfs = MemVfs::new();
        let mut w = wal(&vfs, 64);
        for lsn in 0..20u64 {
            w.append(lsn, b"0123456789").unwrap();
        }
        let before = w.segment_count();
        let pruned = w.prune(9).unwrap();
        assert!(pruned > 0);
        assert!(w.segment_count() < before);
        let (_, recovery) = reopen(&vfs, 64);
        // Everything above the watermark must survive.
        let kept: Vec<u64> = recovery.records.iter().map(|r| r.lsn).collect();
        for lsn in 10..20 {
            assert!(kept.contains(&lsn), "lsn {lsn} lost by prune");
        }
        // Pruning everything still keeps the tail segment for appends.
        let (mut w2, _) = reopen(&vfs, 64);
        w2.prune(u64::MAX).unwrap();
        assert_eq!(w2.segment_count(), 1);
    }

    #[test]
    fn prune_at_watermark_keeps_every_record_recovery_needs() {
        // Regression for the watermark boundary. The recovery contract
        // is: a checkpoint at watermark W covers every record with
        // lsn <= W, and replay resumes at lsn > W. Pruning at W must
        // therefore keep W+1 — an inclusive off-by-one (trimming the
        // segment that *contains* W+1 because it also holds W) would
        // silently lose the first record the next recovery replays.
        // segment_max_bytes = 1 forces one record per segment, so every
        // lsn sits exactly on a segment boundary — the sharpest case.
        let vfs = MemVfs::new();
        let mut w = wal(&vfs, 1);
        for lsn in 0..10u64 {
            w.append(lsn, format!("r{lsn}").as_bytes()).unwrap();
        }
        assert_eq!(w.segment_count(), 10, "one record per segment");
        for watermark in 0..9u64 {
            let vfs2 = MemVfs::new();
            let mut w2 = wal(&vfs2, 1);
            for lsn in 0..10u64 {
                w2.append(lsn, format!("r{lsn}").as_bytes()).unwrap();
            }
            w2.prune(watermark).unwrap();
            let (_, recovery) = reopen(&vfs2, 1);
            let kept: Vec<u64> = recovery.records.iter().map(|r| r.lsn).collect();
            for lsn in watermark + 1..10 {
                assert!(
                    kept.contains(&lsn),
                    "prune({watermark}) dropped lsn {lsn}, which replay needs"
                );
            }
            assert_eq!(recovery.corrupt_records_skipped, 0);
        }
    }

    #[test]
    fn prune_mid_segment_watermark_keeps_the_straddling_segment() {
        // A segment holding lsns [W-1, W, W+1] straddles the watermark:
        // it must survive prune(W) wholesale because W+1 lives in it,
        // even though W-1 and W are already checkpoint-covered.
        let vfs = MemVfs::new();
        // 13-byte segment header + 30 bytes per framed 10-byte payload:
        // a 193-byte cap fits exactly six records in the first segment
        // (lsns 0..=5), so prune(4) sees a non-tail segment that holds
        // both covered lsns (0..=4) and the needed lsn 5.
        let mut w = wal(&vfs, 193);
        for lsn in 0..8u64 {
            w.append(lsn, b"0123456789").unwrap();
        }
        assert!(w.segment_count() >= 2, "need a non-tail straddler");
        let before = w.segment_count();
        let pruned = w.prune(4).unwrap();
        assert_eq!(pruned, 0, "straddling segment must not be trimmed");
        assert_eq!(w.segment_count(), before);
        let (_, recovery) = reopen(&vfs, 193);
        let kept: Vec<u64> = recovery.records.iter().map(|r| r.lsn).collect();
        for lsn in 5..8 {
            assert!(kept.contains(&lsn), "lsn {lsn} lost");
        }
    }

    #[test]
    fn prune_exactly_covered_segment_is_removed_but_successor_survives() {
        // Two-segment layout where the first segment's last record IS
        // the watermark: that segment may go (all its records are
        // checkpoint-covered), but the successor starting at W+1 must
        // stay byte-intact.
        let vfs = MemVfs::new();
        // 64-byte segments with 10-byte payloads ≈ 2 records/segment.
        let mut w = wal(&vfs, 64);
        for lsn in 0..8u64 {
            w.append(lsn, b"0123456789").unwrap();
        }
        // Find a watermark that is the last lsn of some non-tail
        // segment by probing prune on clones: watermark = 1 with
        // 2-record segments ends segment 0 exactly.
        let pruned = w.prune(1).unwrap();
        assert_eq!(pruned, 1, "exactly-covered head segment is removable");
        let (_, recovery) = reopen(&vfs, 64);
        let kept: Vec<u64> = recovery.records.iter().map(|r| r.lsn).collect();
        assert_eq!(kept, (2..8).collect::<Vec<u64>>());
    }

    #[test]
    fn lsn_is_covered_by_the_checksum() {
        let vfs = MemVfs::new();
        let mut w = wal(&vfs, 1 << 20);
        w.append(7, b"record").unwrap();
        let path = vfs.list("wal/")[0].clone();
        let good = vfs.read(&path).unwrap();
        for offset in SEG_HEADER_LEN + 4..SEG_HEADER_LEN + 12 {
            let mut bad = good.clone();
            bad[offset] ^= 0x01;
            vfs.write_all(&path, &bad).unwrap();
            vfs.sync(&path).unwrap();
            let (_, recovery) = reopen(&vfs, 1 << 20);
            assert!(recovery.records.is_empty(), "lsn byte {offset}");
        }
    }

    #[test]
    fn unsupported_segment_version_is_rejected() {
        let vfs = MemVfs::new();
        let mut w = wal(&vfs, 1 << 20);
        w.append(0, b"record").unwrap();
        let path = vfs.list("wal/")[0].clone();
        let good = vfs.read(&path).unwrap();
        assert_eq!(reopen(&vfs, 1 << 20).1.records.len(), 1);
        // 1 is the previous (FNV-1a) version.
        for version in [0u8, 1, 3, 0xFF] {
            let mut bad = good.clone();
            bad[4] = version;
            vfs.write_all(&path, &bad).unwrap();
            vfs.sync(&path).unwrap();
            let (_, recovery) = reopen(&vfs, 1 << 20);
            assert!(recovery.records.is_empty(), "version {version}");
            assert_eq!(recovery.segments_discarded, 1, "version {version}");
        }
    }

    #[test]
    fn flipped_byte_anywhere_never_panics() {
        let vfs = MemVfs::new();
        let mut w = wal(&vfs, 128);
        for lsn in 0..6u64 {
            w.append(lsn, b"abcdefgh").unwrap();
        }
        let paths = vfs.list("wal/");
        let images: Vec<Vec<u8>> = paths.iter().map(|p| vfs.read(p).unwrap()).collect();
        for (path, image) in paths.iter().zip(&images) {
            for offset in 0..image.len() {
                vfs.flip_byte(path, offset);
                let (_, recovery) = reopen(&vfs, 128);
                assert!(recovery.records.len() <= 6);
                // Restore every segment (recovery may truncate or discard).
                for (p, img) in paths.iter().zip(&images) {
                    vfs.write_all(p, img).unwrap();
                    vfs.sync(p).unwrap();
                }
            }
        }
    }
}
