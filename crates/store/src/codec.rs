//! Deterministic binary encoding for store payloads, and the one framing
//! codec every store file and the binary wire share.
//!
//! Hand-rolled like `yv_adt::persist` (the workspace's serde derives are
//! offline stubs — see `vendor/README.md`). Every encoder is paired with a
//! decoder reading exactly the bytes it wrote; floats go through
//! `f64::to_bits` so that encode ∘ decode ∘ encode is byte-identical,
//! which is what makes the snapshot round-trip test
//! (`save(load(save(x))) == save(x)`) meaningful.
//!
//! The WAL, the telemetry segments and the binary wire all carry the same
//! frame, written by [`Framing::encode`] and read by [`Framing::read`]:
//!
//! ```text
//! u8      tag
//! u64     sequence number (WAL only)
//! u32     payload length
//! bytes   payload
//! u64     FNV-1a 64 over tag ‖ sequence number ‖ payload
//! ```
//!
//! A [`Framing`] names the only two ways the three formats differ: whether
//! the sequence field is present, and what an incomplete frame means
//! ([`Tail`]). Files open with a [`FileHeader`] (8 magic bytes and a u32
//! format version), and the two log files are appended through one
//! [`LogFile`] handle.

use crate::error::StoreError;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read, Seek as _, SeekFrom, Write as _};
use std::path::Path;
use yv_records::field::{DateParts, Gender, GeoPoint, Place};
use yv_records::{Record, RecordId, Source, SourceId};
use yv_similarity::ExpertWeights;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continue an FNV-1a 64 hash over more bytes.
fn fnv_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a 64-bit — the checksum guarding snapshot payloads and frames, and
/// the shard-routing and privacy-digest hash.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv_update(FNV_OFFSET, bytes)
}

// ---------------------------------------------------------------- framing

/// Bytes of the checksum trailer closing every frame.
pub const TRAILER_LEN: usize = 8;

/// Ceiling on a single wire frame's payload. Generous enough for a
/// `BATCH_ADD` of tens of thousands of records, small enough that a
/// corrupt length prefix cannot ask the peer to allocate gigabytes.
pub const MAX_PAYLOAD: u32 = 32 * 1024 * 1024;

/// What an incomplete frame means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// Log files: an incomplete final frame is how a crash mid-append
    /// looks (a length prefix pointing past the end of the file
    /// included), so reading stops cleanly before it and reopening the
    /// log truncates it.
    Stop,
    /// The wire: a stream ending mid-frame is a typed
    /// `StoreError::Corrupt("torn frame: ...")`, and a length prefix over
    /// [`MAX_PAYLOAD`] is refused before anything is allocated for it.
    Refuse,
}

/// The two parameters of the shared frame layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Framing {
    /// An 8-byte little-endian sequence number sits between the tag and
    /// the length, covered by the checksum.
    pub seq: bool,
    pub tail: Tail,
}

impl Framing {
    /// Write-ahead log frames: sequenced, torn tail is a clean stop.
    pub const WAL: Framing = Framing { seq: true, tail: Tail::Stop };
    /// Telemetry segment frames: unsequenced, torn tail is a clean stop.
    pub const LOG: Framing = Framing { seq: false, tail: Tail::Stop };
    /// Binary wire frames: unsequenced, torn frame is an error.
    pub const WIRE: Framing = Framing { seq: false, tail: Tail::Refuse };

    /// Bytes before the payload: tag, the optional sequence number, length.
    #[must_use]
    pub const fn header_len(self) -> usize {
        if self.seq {
            13
        } else {
            5
        }
    }

    /// The checksum a frame's trailer must carry. `seq` is ignored when
    /// the framing has no sequence field.
    #[must_use]
    pub fn checksum(self, tag: u8, seq: u64, payload: &[u8]) -> u64 {
        let mut hash = fnv_update(FNV_OFFSET, &[tag]);
        if self.seq {
            hash = fnv_update(hash, &seq.to_le_bytes());
        }
        fnv_update(hash, payload)
    }

    /// Encode one complete frame: header, payload, checksum trailer.
    pub fn encode(self, tag: u8, seq: u64, payload: &[u8]) -> Result<Vec<u8>, StoreError> {
        let too_long = || StoreError::LimitExceeded { what: "frame payload", len: payload.len() };
        let len = u32::try_from(payload.len()).map_err(|_| too_long())?;
        if self.tail == Tail::Refuse && len > MAX_PAYLOAD {
            return Err(too_long());
        }
        let mut out = Vec::with_capacity(self.header_len() + payload.len() + TRAILER_LEN);
        out.push(tag);
        if self.seq {
            out.extend_from_slice(&seq.to_le_bytes());
        }
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&self.checksum(tag, seq, payload).to_le_bytes());
        Ok(out)
    }

    /// Read one frame off a stream.
    ///
    /// - `Ok(None)`: the stream ended at a frame boundary or, under
    ///   [`Tail::Stop`], inside a torn final frame.
    /// - `StoreError::Corrupt("torn frame: ...")`: under [`Tail::Refuse`],
    ///   the stream ended mid-frame; nothing of the frame may be acted on.
    /// - `StoreError::LimitExceeded`: under [`Tail::Refuse`], the length
    ///   prefix exceeds [`MAX_PAYLOAD`].
    /// - `StoreError::ChecksumMismatch`: a complete frame whose trailer
    ///   does not match its bytes.
    pub fn read<R: Read>(self, r: &mut R) -> Result<Option<Frame>, StoreError> {
        let mut buf = [0u8; 13];
        let header = &mut buf[..self.header_len()];
        match fill(r, header)? {
            0 => return Ok(None),
            n if n < header.len() => return self.torn("header"),
            _ => {}
        }
        let mut h = Reader::new(header);
        let tag = h.u8("frame tag")?;
        let seq = if self.seq { h.u64("frame seq")? } else { 0 };
        let len = h.u32("frame length")?;
        if self.tail == Tail::Refuse && len > MAX_PAYLOAD {
            return Err(StoreError::LimitExceeded { what: "frame payload", len: len as usize });
        }
        // Bounded reservation: a log's length prefix is only believed as
        // far as the bytes actually behind it.
        let mut payload = Vec::with_capacity(len.min(MAX_PAYLOAD) as usize);
        r.by_ref().take(u64::from(len)).read_to_end(&mut payload)?;
        if payload.len() < len as usize {
            return self.torn("payload");
        }
        let mut trailer = [0u8; TRAILER_LEN];
        if fill(r, &mut trailer)? < TRAILER_LEN {
            return self.torn("checksum trailer");
        }
        let expected = u64::from_le_bytes(trailer);
        let actual = self.checksum(tag, seq, &payload);
        if expected != actual {
            return Err(StoreError::ChecksumMismatch { expected, actual });
        }
        Ok(Some(Frame { tag, seq, payload }))
    }

    /// The tail decision for a stream that ended inside a frame.
    fn torn(self, what: &str) -> Result<Option<Frame>, StoreError> {
        match self.tail {
            Tail::Stop => Ok(None),
            Tail::Refuse => {
                Err(StoreError::Corrupt(format!("torn frame: stream ended mid-{what}")))
            }
        }
    }
}

/// Checksum of an unsequenced (telemetry or wire) frame: FNV-1a 64 over
/// the tag byte followed by the payload.
#[must_use]
pub fn frame_checksum(tag: u8, payload: &[u8]) -> u64 {
    Framing::WIRE.checksum(tag, 0, payload)
}

/// One checksum-verified frame. `seq` is 0 for unsequenced framings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub tag: u8,
    pub seq: u64,
    pub payload: Vec<u8>,
}

/// Read until `buf` is full or the stream ends; returns the bytes read.
fn fill<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, StoreError> {
    let mut n = 0;
    while n < buf.len() {
        match r.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(k) => n += k,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(StoreError::Io(e)),
        }
    }
    Ok(n)
}

/// The header opening every store file: 8 magic bytes, then the format
/// version as a little-endian u32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileHeader {
    pub magic: [u8; 8],
    pub version: u32,
}

impl FileHeader {
    /// Encoded header length.
    pub const LEN: usize = 12;

    pub fn write(self, w: &mut Writer) {
        w.bytes(&self.magic);
        w.u32(self.version);
    }

    /// Check the header at the start of `bytes` and return what follows
    /// it. A file too short to hold a header has no magic.
    pub fn check(self, bytes: &[u8]) -> Result<&[u8], StoreError> {
        let mut r = Reader::new(bytes);
        let (Ok(magic), Ok(version)) = (r.array::<8>("magic"), r.u32("format version")) else {
            return Err(StoreError::BadMagic);
        };
        if magic != self.magic {
            return Err(StoreError::BadMagic);
        }
        if version != self.version {
            return Err(StoreError::UnsupportedVersion { found: version, supported: self.version });
        }
        Ok(r.rest())
    }
}

/// A log file read back: the decoded frames in file order, the byte
/// length of the valid prefix (header plus complete frames), and whether
/// a torn final frame followed it.
#[derive(Debug)]
pub struct LogScan<T> {
    pub entries: Vec<T>,
    pub valid_len: usize,
    pub torn: bool,
}

/// Scan a whole log file: check the header, read frames up to the end or
/// the torn tail, and decode each one.
pub fn scan_log<T>(
    bytes: &[u8],
    header: FileHeader,
    framing: Framing,
    mut decode: impl FnMut(Frame) -> Result<T, StoreError>,
) -> Result<LogScan<T>, StoreError> {
    let mut rest = header.check(bytes)?;
    let mut entries = Vec::new();
    let mut valid_len = FileHeader::LEN;
    while let Some(frame) = framing.read(&mut rest)? {
        valid_len += framing.header_len() + frame.payload.len() + TRAILER_LEN;
        entries.push(decode(frame)?);
    }
    Ok(LogScan { entries, valid_len, torn: valid_len < bytes.len() })
}

/// Append handle over a framed log file (a WAL, a telemetry segment).
#[derive(Debug)]
pub struct LogFile {
    file: File,
    framing: Framing,
    /// On-disk byte length (header plus complete frames), tracked so
    /// callers can report log growth without a filesystem round trip.
    bytes: u64,
}

impl LogFile {
    /// Create a log holding only its header, truncating any existing
    /// file, and sync it to disk.
    pub fn create(path: &Path, header: FileHeader, framing: Framing) -> Result<LogFile, StoreError> {
        let mut w = Writer::new();
        header.write(&mut w);
        let mut file = OpenOptions::new().write(true).create(true).truncate(true).open(path)?;
        file.write_all(&w.into_bytes())?;
        file.sync_all()?;
        Ok(LogFile { file, framing, bytes: FileHeader::LEN as u64 })
    }

    /// Open an existing log for appending: verify every complete frame,
    /// truncate a torn tail and position after the last complete frame.
    pub fn open(path: &Path, header: FileHeader, framing: Framing) -> Result<LogFile, StoreError> {
        let valid_len = scan_log(&std::fs::read(path)?, header, framing, |_| Ok(()))?.valid_len;
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len as u64)?;
        file.seek(SeekFrom::End(0))?;
        Ok(LogFile { file, framing, bytes: valid_len as u64 })
    }

    /// Append one frame. It is not durable until [`LogFile::sync`].
    pub fn append(&mut self, tag: u8, seq: u64, payload: &[u8]) -> Result<(), StoreError> {
        let frame = self.framing.encode(tag, seq, payload)?;
        self.file.write_all(&frame)?;
        self.bytes += frame.len() as u64;
        Ok(())
    }

    /// Force every appended frame to disk.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Current on-disk byte length: header plus every complete frame.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

// ---------------------------------------------------------------- writer

/// Append-only byte sink with little-endian primitives.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    #[must_use]
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Raw bytes, no length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Bit-exact float encoding; NaN round-trips with its payload.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length-prefixed string; a string whose length does not fit the u32
    /// prefix is a typed error, not a panic.
    pub fn str(&mut self, s: &str) -> Result<(), StoreError> {
        self.u32(
            u32::try_from(s.len())
                .map_err(|_| StoreError::LimitExceeded { what: "string", len: s.len() })?,
        );
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }

    pub fn opt_str(&mut self, s: Option<&str>) -> Result<(), StoreError> {
        match s {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.str(s)?;
            }
        }
        Ok(())
    }

    pub fn opt_u8(&mut self, v: Option<u8>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.u8(v);
            }
        }
    }

    pub fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.u32(v);
            }
        }
    }

    pub fn opt_i32(&mut self, v: Option<i32>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.i32(v);
            }
        }
    }

    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.f64(v);
            }
        }
    }
}

// ---------------------------------------------------------------- reader

/// Cursor over a payload slice; every read is bounds-checked and returns
/// `StoreError::Corrupt` on truncation rather than panicking.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Everything not yet consumed.
    fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// The next `n` raw bytes.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Corrupt(format!(
                "truncated while reading {what}: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Fixed-width read as an owned array; `take` guarantees the length,
    /// so a mismatch here is corruption, never a panic.
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], StoreError> {
        self.take(N, what)?
            .try_into()
            .map_err(|_| StoreError::Corrupt(format!("bad fixed-width slice for {what}")))
    }

    pub fn u8(&mut self, what: &str) -> Result<u8, StoreError> {
        Ok(self.take(1, what)?[0])
    }

    pub fn u32(&mut self, what: &str) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    pub fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    pub fn i32(&mut self, what: &str) -> Result<i32, StoreError> {
        Ok(i32::from_le_bytes(self.array(what)?))
    }

    pub fn f64(&mut self, what: &str) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    pub fn bool(&mut self, what: &str) -> Result<bool, StoreError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(StoreError::Corrupt(format!("bad bool value {t} for {what}"))),
        }
    }

    /// Require the payload to be fully consumed: bytes left over after a
    /// successful decode are corruption, not padding.
    pub fn finish(&self, what: &str) -> Result<(), StoreError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(StoreError::Corrupt(format!(
                "trailing garbage: {n} byte(s) left after decoding {what}"
            ))),
        }
    }

    pub fn str(&mut self, what: &str) -> Result<String, StoreError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Corrupt(format!("invalid UTF-8 in {what}")))
    }

    pub fn opt_str(&mut self, what: &str) -> Result<Option<String>, StoreError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.str(what)?)),
            t => Err(StoreError::Corrupt(format!("bad option tag {t} for {what}"))),
        }
    }

    pub fn opt_u8(&mut self, what: &str) -> Result<Option<u8>, StoreError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.u8(what)?)),
            t => Err(StoreError::Corrupt(format!("bad option tag {t} for {what}"))),
        }
    }

    pub fn opt_u32(&mut self, what: &str) -> Result<Option<u32>, StoreError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.u32(what)?)),
            t => Err(StoreError::Corrupt(format!("bad option tag {t} for {what}"))),
        }
    }

    pub fn opt_i32(&mut self, what: &str) -> Result<Option<i32>, StoreError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.i32(what)?)),
            t => Err(StoreError::Corrupt(format!("bad option tag {t} for {what}"))),
        }
    }

    pub fn opt_f64(&mut self, what: &str) -> Result<Option<f64>, StoreError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.f64(what)?)),
            t => Err(StoreError::Corrupt(format!("bad option tag {t} for {what}"))),
        }
    }
}

// ---------------------------------------------------- domain encodings

pub fn write_source(w: &mut Writer, s: &Source) -> Result<(), StoreError> {
    w.u32(s.id.0);
    match &s.kind {
        yv_records::SourceKind::Testimony { first_name, last_name, city } => {
            w.u8(0);
            w.str(first_name)?;
            w.str(last_name)?;
            w.str(city)?;
        }
        yv_records::SourceKind::List { description } => {
            w.u8(1);
            w.str(description)?;
        }
    }
    Ok(())
}

pub fn read_source(r: &mut Reader<'_>) -> Result<Source, StoreError> {
    let id = SourceId(r.u32("source id")?);
    match r.u8("source kind")? {
        0 => {
            let first = r.str("testimony first name")?;
            let last = r.str("testimony last name")?;
            let city = r.str("testimony city")?;
            Ok(Source::testimony(id, &first, &last, &city))
        }
        1 => {
            let description = r.str("list description")?;
            Ok(Source::list(id, &description))
        }
        t => Err(StoreError::Corrupt(format!("unknown source kind tag {t}"))),
    }
}

fn write_place(w: &mut Writer, p: &Place) -> Result<(), StoreError> {
    w.opt_str(p.city.as_deref())?;
    w.opt_str(p.county.as_deref())?;
    w.opt_str(p.region.as_deref())?;
    w.opt_str(p.country.as_deref())?;
    match p.coords {
        None => w.u8(0),
        Some(GeoPoint { lat, lon }) => {
            w.u8(1);
            w.f64(lat);
            w.f64(lon);
        }
    }
    Ok(())
}

fn read_place(r: &mut Reader<'_>) -> Result<Place, StoreError> {
    let city = r.opt_str("place city")?;
    let county = r.opt_str("place county")?;
    let region = r.opt_str("place region")?;
    let country = r.opt_str("place country")?;
    let coords = match r.u8("coords tag")? {
        0 => None,
        1 => Some(GeoPoint { lat: r.f64("lat")?, lon: r.f64("lon")? }),
        t => return Err(StoreError::Corrupt(format!("bad coords tag {t}"))),
    };
    Ok(Place { city, county, region, country, coords })
}

fn write_str_vec(w: &mut Writer, v: &[String]) -> Result<(), StoreError> {
    w.u32(
        u32::try_from(v.len())
            .map_err(|_| StoreError::LimitExceeded { what: "name list", len: v.len() })?,
    );
    for s in v {
        w.str(s)?;
    }
    Ok(())
}

fn read_str_vec(r: &mut Reader<'_>, what: &str) -> Result<Vec<String>, StoreError> {
    let n = r.u32(what)? as usize;
    let mut out = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        out.push(r.str(what)?);
    }
    Ok(out)
}

pub fn write_record(w: &mut Writer, rec: &Record) -> Result<(), StoreError> {
    w.u64(rec.book_id);
    w.u32(rec.source.0);
    write_str_vec(w, &rec.first_names)?;
    write_str_vec(w, &rec.last_names)?;
    w.opt_str(rec.maiden_name.as_deref())?;
    w.opt_str(rec.father_name.as_deref())?;
    w.opt_str(rec.mother_name.as_deref())?;
    w.opt_str(rec.mothers_maiden.as_deref())?;
    w.opt_str(rec.spouse_name.as_deref())?;
    w.opt_u8(rec.gender.map(Gender::code));
    w.opt_u8(rec.birth.day);
    w.opt_u8(rec.birth.month);
    w.opt_i32(rec.birth.year);
    w.opt_str(rec.profession.as_deref())?;
    for place in &rec.places {
        match place {
            None => w.u8(0),
            Some(p) => {
                w.u8(1);
                write_place(w, p)?;
            }
        }
    }
    Ok(())
}

pub fn read_record(r: &mut Reader<'_>) -> Result<Record, StoreError> {
    let book_id = r.u64("book id")?;
    let source = SourceId(r.u32("record source")?);
    let first_names = read_str_vec(r, "first names")?;
    let last_names = read_str_vec(r, "last names")?;
    let maiden_name = r.opt_str("maiden name")?;
    let father_name = r.opt_str("father name")?;
    let mother_name = r.opt_str("mother name")?;
    let mothers_maiden = r.opt_str("mothers maiden")?;
    let spouse_name = r.opt_str("spouse name")?;
    let gender = match r.opt_u8("gender")? {
        None => None,
        Some(code) => Some(
            Gender::from_code(code)
                .ok_or_else(|| StoreError::Corrupt(format!("bad gender code {code}")))?,
        ),
    };
    let birth = DateParts {
        day: r.opt_u8("birth day")?,
        month: r.opt_u8("birth month")?,
        year: r.opt_i32("birth year")?,
    };
    let profession = r.opt_str("profession")?;
    let mut places: [Option<Place>; 4] = [None, None, None, None];
    for slot in &mut places {
        *slot = match r.u8("place tag")? {
            0 => None,
            1 => Some(read_place(r)?),
            t => return Err(StoreError::Corrupt(format!("bad place tag {t}"))),
        };
    }
    Ok(Record {
        book_id,
        source,
        first_names,
        last_names,
        maiden_name,
        father_name,
        mother_name,
        mothers_maiden,
        spouse_name,
        gender,
        birth,
        profession,
        places,
    })
}

pub fn write_record_id(w: &mut Writer, id: RecordId) {
    w.u32(id.0);
}

pub fn write_expert_weights(w: &mut Writer, weights: &ExpertWeights) {
    for ty in yv_records::ItemType::all() {
        w.f64(weights.weight(ty));
    }
}

pub fn read_expert_weights(r: &mut Reader<'_>) -> Result<ExpertWeights, StoreError> {
    let mut weights = ExpertWeights::uniform();
    for ty in yv_records::ItemType::all() {
        weights.set(ty, r.f64("expert weight")?);
    }
    Ok(weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use yv_records::field::PlaceType;
    use yv_records::RecordBuilder;

    fn full_record() -> Record {
        RecordBuilder::new(1_016_196, SourceId(3))
            .first_name("Guido")
            .first_name("Guidino")
            .last_name("Foa")
            .maiden_name("Levi")
            .father_name("Italo")
            .mother_name("Estela")
            .mothers_maiden("Colombo")
            .spouse_name("Rosa")
            .gender(Gender::Male)
            .birth(DateParts::full(2, 8, 1936))
            .profession("tailor")
            .place(
                PlaceType::Birth,
                Place::full("Torino", "Torino", "Piemonte", "Italy", GeoPoint::new(45.07, 7.69)),
            )
            .build()
    }

    #[test]
    fn record_round_trips() {
        let rec = full_record();
        let mut w = Writer::new();
        write_record(&mut w, &rec).unwrap();
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(read_record(&mut r).unwrap(), rec);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn sparse_record_round_trips() {
        let rec = RecordBuilder::new(7, SourceId(0)).build();
        let mut w = Writer::new();
        write_record(&mut w, &rec).unwrap();
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(read_record(&mut r).unwrap(), rec);
    }

    #[test]
    fn source_round_trips() {
        for src in [
            Source::testimony(SourceId(4), "Sara", "Levi", "Roma"),
            Source::list(SourceId(9), "deportation list 1943"),
        ] {
            let mut w = Writer::new();
            write_source(&mut w, &src).unwrap();
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(read_source(&mut r).unwrap(), src);
        }
    }

    #[test]
    fn truncation_is_a_typed_error_not_a_panic() {
        let mut w = Writer::new();
        write_record(&mut w, &full_record()).unwrap();
        let bytes = w.into_bytes();
        for cut in [0, 1, 5, bytes.len() / 2, bytes.len() - 1] {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(
                matches!(read_record(&mut r), Err(StoreError::Corrupt(_))),
                "cut at {cut} must be Corrupt"
            );
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
