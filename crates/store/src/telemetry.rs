//! On-disk telemetry history — one compact frame per closed window bucket.
//!
//! `yv serve --telemetry-dir DIR` appends every non-empty bucket closed by
//! the windowed rollups ([`yv_obs::WindowedHistogram`]) to
//! `DIR/telemetry.yvt`, so `HISTORY` survives a restart: on startup the
//! log is replayed into the in-memory rings before the server listens.
//!
//! The file is framed like the WAL (see [`crate::codec`]) but is
//! deliberately *fsync-light*: telemetry is best-effort history, not
//! durability-critical state, so frames are written without a per-frame
//! `sync_data` and the file is only synced when a segment rotates.
//!
//! The segment opens with the magic `"YVTELEM1"` and format version 1;
//! each frame is the shared codec frame without a sequence field, tag 1
//! (closed bucket), carrying:
//!
//! ```text
//! str   metric (command kind, e.g. "query" — never a name)
//! u8    tier code (0 = seconds, 1 = minutes)
//! u64   bucket epoch
//! u8    non-empty bucket count N, then N × (u8 index, u64 count)
//! u64   sum_ns, u64 max_ns, u64 min_ns
//! ```
//!
//! A truncated final frame (crash or power loss mid-append) is a clean
//! stop on replay; a complete frame failing its checksum is typed
//! corruption. When the active segment grows past the size cap it is
//! renamed to `telemetry.old.yvt` (replacing any previous generation) and
//! a fresh segment is started — replay reads the old generation first, so
//! at most `2 × cap` bytes of history are ever kept.

use crate::codec::{self, FileHeader, Frame, Framing, LogFile, Reader, Writer};
use crate::error::StoreError;
use std::path::{Path, PathBuf};
use yv_obs::{ClosedBucket, HistogramSnapshot, Tier, BUCKET_COUNT};

/// File magic: identifies a yv-store telemetry history segment.
pub const MAGIC: [u8; 8] = *b"YVTELEM1";
/// Telemetry format version this build reads and writes.
pub const VERSION: u32 = 1;
/// Default per-segment size cap (two segments are kept).
pub const DEFAULT_CAP_BYTES: u64 = 4 * 1024 * 1024;

/// Active segment file name inside `--telemetry-dir`.
pub const SEGMENT: &str = "telemetry.yvt";
/// Rotated previous generation.
pub const OLD_SEGMENT: &str = "telemetry.old.yvt";

const HEADER: FileHeader = FileHeader { magic: MAGIC, version: VERSION };
const HEADER_LEN: u64 = FileHeader::LEN as u64;
const TAG_BUCKET: u8 = 1;

/// Append handle over the active telemetry segment.
#[derive(Debug)]
pub struct TelemetryLog {
    path: PathBuf,
    old_path: PathBuf,
    log: LogFile,
    cap: u64,
    rotations: u64,
    frames: u64,
}

impl TelemetryLog {
    /// Open (or create) the active segment in `dir` for appending,
    /// positioned after the last complete frame.
    pub fn open(dir: &Path, cap: u64) -> Result<TelemetryLog, StoreError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(SEGMENT);
        let log = if path.exists() {
            LogFile::open(&path, HEADER, Framing::LOG)?
        } else {
            LogFile::create(&path, HEADER, Framing::LOG)?
        };
        Ok(TelemetryLog {
            path,
            old_path: dir.join(OLD_SEGMENT),
            log,
            cap: cap.max(HEADER_LEN + 64),
            rotations: 0,
            frames: 0,
        })
    }

    /// Bytes in the active segment (header plus complete frames).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.log.bytes()
    }

    /// Segment rotations performed by this handle.
    #[must_use]
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Frames appended by this handle.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Append one closed bucket for `metric`. Empty buckets are skipped
    /// (the rings never emit them, but the log enforces it too).
    pub fn append(&mut self, metric: &str, bucket: &ClosedBucket) -> Result<(), StoreError> {
        if bucket.delta.count() == 0 {
            return Ok(());
        }
        self.log.append(TAG_BUCKET, 0, &encode_bucket(metric, bucket)?)?;
        self.frames += 1;
        if self.log.bytes() > self.cap {
            self.rotate()?;
        }
        Ok(())
    }

    /// Retire the full active segment to `telemetry.old.yvt` and start a
    /// fresh one. The only fsync point in the log's life.
    fn rotate(&mut self) -> Result<(), StoreError> {
        self.log.sync()?;
        std::fs::rename(&self.path, &self.old_path)?;
        self.log = LogFile::create(&self.path, HEADER, Framing::LOG)?;
        self.rotations += 1;
        Ok(())
    }
}

fn encode_bucket(metric: &str, bucket: &ClosedBucket) -> Result<Vec<u8>, StoreError> {
    let mut w = Writer::new();
    w.str(metric)?;
    w.u8(bucket.tier.code());
    w.u64(bucket.epoch);
    let nonzero: Vec<(usize, u64)> = bucket
        .delta
        .counts
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .map(|(i, &n)| (i, n))
        .collect();
    // BUCKET_COUNT is 28, so the count and every index fit a u8.
    w.u8(nonzero.len() as u8);
    for (i, n) in nonzero {
        w.u8(i as u8);
        w.u64(n);
    }
    w.u64(bucket.delta.sum_ns);
    w.u64(bucket.delta.max_ns);
    w.u64(bucket.delta.min_ns);
    Ok(w.into_bytes())
}

fn decode_bucket(frame: Frame) -> Result<(String, ClosedBucket), StoreError> {
    if frame.tag != TAG_BUCKET {
        return Err(StoreError::Corrupt(format!("unknown telemetry frame tag {}", frame.tag)));
    }
    let mut r = Reader::new(&frame.payload);
    let metric = r.str("telemetry metric")?;
    let tier_code = r.u8("telemetry tier")?;
    let tier = Tier::from_code(tier_code)
        .ok_or_else(|| StoreError::Corrupt(format!("unknown telemetry tier code {tier_code}")))?;
    let epoch = r.u64("telemetry epoch")?;
    let n = r.u8("telemetry bucket count")? as usize;
    let mut delta = HistogramSnapshot::default();
    for _ in 0..n {
        let idx = r.u8("telemetry bucket index")? as usize;
        if idx >= BUCKET_COUNT {
            return Err(StoreError::Corrupt(format!("telemetry bucket index {idx} out of range")));
        }
        delta.counts[idx] = r.u64("telemetry bucket value")?;
    }
    delta.sum_ns = r.u64("telemetry sum_ns")?;
    delta.max_ns = r.u64("telemetry max_ns")?;
    delta.min_ns = r.u64("telemetry min_ns")?;
    r.finish("telemetry frame")?;
    Ok((metric, ClosedBucket { tier, epoch, delta }))
}

/// Replay both generations (old first) into `(metric, bucket)` pairs in
/// append order. Missing files are simply empty history.
pub fn replay(dir: &Path) -> Result<Vec<(String, ClosedBucket)>, StoreError> {
    let mut out = Vec::new();
    for name in [OLD_SEGMENT, SEGMENT] {
        let path = dir.join(name);
        if !path.exists() {
            continue;
        }
        let bytes = std::fs::read(&path)?;
        out.extend(codec::scan_log(&bytes, HEADER, Framing::LOG, decode_bucket)?.entries);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use std::sync::Arc;
    use yv_obs::{Histogram, ManualClock, WindowedHistogram};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("yv-store-telemetry-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_bucket(epoch: u64, micros: &[u64]) -> ClosedBucket {
        let h = Histogram::new();
        for &us in micros {
            h.record_ns(us * 1_000);
        }
        ClosedBucket { tier: Tier::Seconds, epoch, delta: h.snapshot() }
    }

    #[test]
    fn append_then_replay_round_trips() {
        let dir = tmp("roundtrip");
        let b1 = sample_bucket(3, &[10, 20, 4000]);
        let b2 = sample_bucket(4, &[7]);
        let mut log = TelemetryLog::open(&dir, DEFAULT_CAP_BYTES).unwrap();
        log.append("query", &b1).unwrap();
        log.append("resolve", &b2).unwrap();
        assert_eq!(log.frames(), 2);
        drop(log);
        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed, vec![("query".into(), b1), ("resolve".into(), b2)]);
    }

    #[test]
    fn empty_buckets_are_never_written() {
        let dir = tmp("empty");
        let mut log = TelemetryLog::open(&dir, DEFAULT_CAP_BYTES).unwrap();
        let empty = ClosedBucket { tier: Tier::Minutes, epoch: 9, delta: HistogramSnapshot::default() };
        log.append("query", &empty).unwrap();
        assert_eq!(log.frames(), 0);
        assert_eq!(log.bytes(), HEADER_LEN);
        assert_eq!(replay(&dir).unwrap(), vec![]);
    }

    #[test]
    fn size_cap_rotates_to_one_old_generation() {
        let dir = tmp("rotate");
        // A cap just above the floor forces a rotation every few frames.
        let mut log = TelemetryLog::open(&dir, 1).unwrap();
        for epoch in 0..64 {
            log.append("query", &sample_bucket(epoch, &[5, 50, 500])).unwrap();
        }
        assert!(log.rotations() > 0, "cap must force segment rotation");
        assert!(dir.join(OLD_SEGMENT).exists());
        // Replay sees the retained suffix, in order, ending at the newest
        // epoch — older epochs were aged out with their segments.
        let replayed = replay(&dir).unwrap();
        assert!(!replayed.is_empty());
        let epochs: Vec<u64> = replayed.iter().map(|(_, b)| b.epoch).collect();
        let mut sorted = epochs.clone();
        sorted.sort_unstable();
        assert_eq!(epochs, sorted, "replay preserves append order");
        assert_eq!(*epochs.last().unwrap(), 63);
    }

    #[test]
    fn torn_tail_is_a_clean_stop_and_reopen_truncates() {
        let dir = tmp("torn");
        let b1 = sample_bucket(1, &[10]);
        let b2 = sample_bucket(2, &[20]);
        let mut log = TelemetryLog::open(&dir, DEFAULT_CAP_BYTES).unwrap();
        log.append("query", &b1).unwrap();
        log.append("query", &b2).unwrap();
        drop(log);
        let path = dir.join(SEGMENT);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert_eq!(replay(&dir).unwrap(), vec![("query".into(), b1)]);
        // Re-opening truncates the torn tail and appends cleanly after it.
        let mut log = TelemetryLog::open(&dir, DEFAULT_CAP_BYTES).unwrap();
        log.append("query", &b2).unwrap();
        drop(log);
        assert_eq!(replay(&dir).unwrap().len(), 2);
    }

    #[test]
    fn bitflip_is_a_typed_checksum_error() {
        let dir = tmp("bitflip");
        let mut log = TelemetryLog::open(&dir, DEFAULT_CAP_BYTES).unwrap();
        log.append("query", &sample_bucket(1, &[10, 20])).unwrap();
        drop(log);
        let path = dir.join(SEGMENT);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(replay(&dir), Err(StoreError::ChecksumMismatch { .. })));
    }

    #[test]
    fn replayed_buckets_restore_a_windowed_histogram() {
        let dir = tmp("restore");
        let clock = Arc::new(ManualClock::at(0));
        let w = WindowedHistogram::new(Arc::new(Histogram::new()), clock.clone());
        w.source().record_ns(40_000);
        w.source().record_ns(80_000);
        clock.advance(1_000_000_000);
        for b in w.rotate() {
            let mut log = TelemetryLog::open(&dir, DEFAULT_CAP_BYTES).unwrap();
            log.append("query", &b).unwrap();
        }
        // A fresh process: new windows, same clock origin, replayed log.
        let clock2 = Arc::new(ManualClock::at(1_000_000_000));
        let w2 = WindowedHistogram::new(Arc::new(Histogram::new()), clock2);
        for (metric, bucket) in replay(&dir).unwrap() {
            assert_eq!(metric, "query");
            w2.restore(bucket);
        }
        let before = w.window(yv_obs::Tier::Seconds, 60);
        let after = w2.window(yv_obs::Tier::Seconds, 60);
        assert_eq!(before.merged, after.merged);
        assert_eq!(before.buckets, after.buckets);
    }
}
