//! Write-ahead log of incremental arrivals — one log per shard.
//!
//! Every `ADD` is appended (and flushed) here *before* it is applied to
//! the in-memory resolver, so a crash between append and apply replays
//! the arrival on restart instead of losing it. `SNAPSHOT` folds the logs
//! into a fresh snapshot and truncates them.
//!
//! Since the store is sharded, arrivals scatter across N WAL files
//! (`wal.<shard>.yvl`), so each frame carries the arrival's *global
//! sequence number*: the position the arrival held in the store-wide
//! apply order. Replaying a sharded store merges every shard's frames
//! back into that order by sorting on `seq` — and because record ids are
//! assigned in apply order, the merge must be gapless (see
//! [`crate::StoreError::ShardWalGap`]).
//!
//! Each frame is the shared codec frame (see [`crate::codec`]) with the
//! sequence field: `u8` entry tag (1 = record, 2 = source), `u64` global
//! arrival sequence number, `u32` payload length, the codec-encoded record
//! or source, and an FNV-1a 64 checksum of tag + seq + payload. The file
//! opens with the magic `"YVWAL\0\0\0"` and format version 2.
//!
//! A *truncated* final frame is how a crash mid-append looks; replay
//! treats it as a clean stop (surfaced via [`WalScan::torn`] so the store
//! can tell a harmless torn tail from a cross-shard sequence gap) and the
//! next append overwrites it. A frame that is complete but fails its
//! checksum is real corruption and surfaces as a typed error.

use crate::codec::{self, FileHeader, Frame, Framing, LogFile, LogScan, Reader, Writer};
use crate::error::StoreError;
use std::path::Path;
use yv_records::{Record, Source};

/// File magic: identifies a yv-store write-ahead log.
pub const MAGIC: [u8; 8] = *b"YVWAL\0\0\0";
/// The WAL format version this build reads and writes. Version 1 frames
/// carried no sequence number and cannot be merged across shards.
pub const VERSION: u32 = 2;

const HEADER: FileHeader = FileHeader { magic: MAGIC, version: VERSION };

const TAG_RECORD: u8 = 1;
const TAG_SOURCE: u8 = 2;

/// One replayed WAL entry.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEntry {
    Record(Box<Record>),
    Source(Source),
}

/// Result of scanning one WAL file: the complete frames (with their
/// global sequence numbers, in file order), the byte length of the valid
/// prefix, and whether a torn (incomplete) final frame followed it.
pub type WalScan = LogScan<(u64, WalEntry)>;

/// Append handle over a WAL file.
#[derive(Debug)]
pub struct Wal {
    log: LogFile,
}

impl Wal {
    /// Create a fresh (empty) log, truncating any existing file.
    pub fn create(path: &Path) -> Result<Wal, StoreError> {
        Ok(Wal { log: LogFile::create(path, HEADER, Framing::WAL)? })
    }

    /// Open an existing log for appending, positioned after the last
    /// complete frame (a torn tail from a crash is overwritten).
    pub fn open(path: &Path) -> Result<Wal, StoreError> {
        Ok(Wal { log: LogFile::open(path, HEADER, Framing::WAL)? })
    }

    /// Current on-disk byte length: header plus every complete frame,
    /// tracked so `STATS` and the metrics scrape report WAL growth
    /// without a filesystem round trip.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.log.bytes()
    }

    /// Append a record frame stamped with its global arrival sequence.
    pub fn append_record(&mut self, seq: u64, record: &Record) -> Result<(), StoreError> {
        self.append_record_nosync(seq, record)?;
        self.sync()
    }

    /// Append a record frame without forcing it to disk — group-commit
    /// building block. The frame is not durable until [`Wal::sync`]
    /// returns; callers must not acknowledge the record before then.
    pub fn append_record_nosync(
        &mut self,
        seq: u64,
        record: &Record,
    ) -> Result<(), StoreError> {
        let mut w = Writer::new();
        codec::write_record(&mut w, record)?;
        self.log.append(TAG_RECORD, seq, &w.into_bytes())
    }

    /// Append a source frame stamped with its global arrival sequence.
    pub fn append_source(&mut self, seq: u64, source: &Source) -> Result<(), StoreError> {
        let mut w = Writer::new();
        codec::write_source(&mut w, source)?;
        self.log.append(TAG_SOURCE, seq, &w.into_bytes())?;
        self.sync()
    }

    /// Force every appended frame to disk. One call per batch is the
    /// whole point of group commit: a 256-record `BATCH_ADD` pays one
    /// `sync_data` where per-record appends would pay 256.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.log.sync()
    }
}

/// Replay a WAL file into `(seq, entry)` pairs, in file order. A
/// truncated tail is tolerated; checksum failures on complete frames are
/// errors.
pub fn replay(path: &Path) -> Result<Vec<(u64, WalEntry)>, StoreError> {
    Ok(scan_file(path)?.entries)
}

/// Scan a WAL file: entries, valid prefix length, torn-tail flag.
pub fn scan_file(path: &Path) -> Result<WalScan, StoreError> {
    codec::scan_log(&std::fs::read(path)?, HEADER, Framing::WAL, decode)
}

fn decode(frame: Frame) -> Result<(u64, WalEntry), StoreError> {
    let mut r = Reader::new(&frame.payload);
    let entry = match frame.tag {
        TAG_RECORD => WalEntry::Record(Box::new(codec::read_record(&mut r)?)),
        TAG_SOURCE => WalEntry::Source(codec::read_source(&mut r)?),
        t => return Err(StoreError::Corrupt(format!("unknown WAL entry tag {t}"))),
    };
    r.finish("WAL frame")?;
    Ok((frame.seq, entry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use yv_records::{RecordBuilder, SourceId};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("yv-store-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_entries() -> (Source, Record, Record) {
        (
            Source::list(SourceId(0), "late list"),
            RecordBuilder::new(1, SourceId(0)).first_name("Guido").last_name("Foa").build(),
            RecordBuilder::new(2, SourceId(0)).first_name("Sara").last_name("Levi").build(),
        )
    }

    #[test]
    fn append_then_replay_round_trips_with_seqs() {
        let path = tmp("roundtrip.wal");
        let (src, r1, r2) = sample_entries();
        let mut wal = Wal::create(&path).unwrap();
        wal.append_source(0, &src).unwrap();
        wal.append_record(1, &r1).unwrap();
        // Shard WALs hold a sparse subset of the global sequence: gaps
        // within one file are normal (the missing seqs live elsewhere).
        wal.append_record(7, &r2).unwrap();
        let entries = replay(&path).unwrap();
        assert_eq!(
            entries,
            vec![
                (0, WalEntry::Source(src)),
                (1, WalEntry::Record(Box::new(r1))),
                (7, WalEntry::Record(Box::new(r2)))
            ]
        );
    }

    #[test]
    fn byte_tracking_matches_the_file() {
        let path = tmp("bytes.wal");
        let (src, r1, _) = sample_entries();
        let mut wal = Wal::create(&path).unwrap();
        assert_eq!(wal.bytes(), 12, "fresh log is just the header");
        wal.append_source(0, &src).unwrap();
        wal.append_record(1, &r1).unwrap();
        assert_eq!(wal.bytes(), std::fs::metadata(&path).unwrap().len());
        drop(wal);
        // Re-opening recovers the length from the valid prefix.
        let wal = Wal::open(&path).unwrap();
        assert_eq!(wal.bytes(), std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn torn_tail_is_a_clean_stop_and_flagged() {
        let path = tmp("torn.wal");
        let (src, r1, _) = sample_entries();
        let mut wal = Wal::create(&path).unwrap();
        wal.append_source(0, &src).unwrap();
        wal.append_record(1, &r1).unwrap();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        // Cut into the middle of the last frame.
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();
        let scan = scan_file(&path).unwrap();
        assert_eq!(scan.entries, vec![(0, WalEntry::Source(src.clone()))]);
        assert!(scan.torn, "the incomplete final frame must be flagged");
        // Re-opening for append truncates the torn tail and continues.
        let mut wal = Wal::open(&path).unwrap();
        wal.append_record(1, &r1).unwrap();
        let scan = scan_file(&path).unwrap();
        assert_eq!(scan.entries.len(), 2);
        assert!(!scan.torn);
    }

    #[test]
    fn bitflip_in_complete_frame_is_checksum_error() {
        let path = tmp("bitflip.wal");
        let (src, r1, _) = sample_entries();
        let mut wal = Wal::create(&path).unwrap();
        wal.append_source(0, &src).unwrap();
        wal.append_record(1, &r1).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the first frame's payload.
        bytes[28] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            replay(&path),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn bitflip_in_seq_field_is_checksum_error() {
        let path = tmp("seqflip.wal");
        let (src, _, _) = sample_entries();
        let mut wal = Wal::create(&path).unwrap();
        wal.append_source(3, &src).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Byte 13 is inside the first frame's seq field (12 header + tag).
        bytes[13] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            matches!(replay(&path), Err(StoreError::ChecksumMismatch { .. })),
            "a corrupted sequence number must not replay as a different position"
        );
    }

    #[test]
    fn pathological_inputs_are_errors_or_clean_stops_never_panics() {
        let path = tmp("pathological.wal");
        let (src, r1, _) = sample_entries();
        let mut wal = Wal::create(&path).unwrap();
        wal.append_source(0, &src).unwrap();
        wal.append_record(1, &r1).unwrap();
        drop(wal);
        let good = std::fs::read(&path).unwrap();

        // A frame header declaring a gigantic payload is a torn tail: the
        // declared bytes are not there, so replay stops cleanly.
        let mut huge = good[..12].to_vec();
        huge.push(1); // TAG_RECORD
        huge.extend_from_slice(&0u64.to_le_bytes());
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&[0xab; 64]);
        std::fs::write(&path, &huge).unwrap();
        assert_eq!(replay(&path).unwrap(), vec![]);
        // And re-opening for append truncates it back to the header.
        let mut wal = Wal::open(&path).unwrap();
        wal.append_source(0, &src).unwrap();
        assert_eq!(replay(&path).unwrap().len(), 1);

        // A complete frame with an unknown tag is typed corruption.
        let mut payload_frame = good[..12].to_vec();
        let tag = 9u8;
        let payload = b"junk";
        payload_frame.push(tag);
        payload_frame.extend_from_slice(&0u64.to_le_bytes());
        payload_frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        payload_frame.extend_from_slice(payload);
        payload_frame.extend_from_slice(&Framing::WAL.checksum(tag, 0, payload).to_le_bytes());
        std::fs::write(&path, &payload_frame).unwrap();
        assert!(matches!(replay(&path), Err(StoreError::Corrupt(_))));

        // Truncations at every byte boundary of a real log: each must
        // yield Ok (torn tail) or a typed error, never a panic.
        for cut in 0..good.len() {
            std::fs::write(&path, &good[..cut]).unwrap();
            match replay(&path) {
                Ok(entries) => assert!(entries.len() <= 2),
                Err(
                    StoreError::BadMagic
                    | StoreError::Corrupt(_)
                    | StoreError::ChecksumMismatch { .. },
                ) => {}
                Err(e) => panic!("cut {cut}: unexpected error {e}"),
            }
        }
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        let path = tmp("magic.wal");
        std::fs::write(&path, b"NOTAWAL\0rest").unwrap();
        assert!(matches!(replay(&path), Err(StoreError::BadMagic)));
        let mut header = MAGIC.to_vec();
        header.extend_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &header).unwrap();
        assert!(matches!(
            replay(&path),
            Err(StoreError::UnsupportedVersion { found: 99, .. })
        ));
        // Version 1 logs (no seq field) are explicitly unsupported.
        let mut v1 = MAGIC.to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &v1).unwrap();
        assert!(matches!(
            replay(&path),
            Err(StoreError::UnsupportedVersion { found: 1, supported: 2 })
        ));
    }
}
