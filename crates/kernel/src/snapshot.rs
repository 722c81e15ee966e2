//! Versioned, checksummed binary snapshots of simulation state.
//!
//! A [`Snapshot`] is a named-section container: each state-owning layer
//! (kernel, components, fault controller, system metadata) serializes
//! itself into an opaque payload via [`StateWriter`] and reads it back
//! via [`StateReader`]. The container frames every section with a name,
//! a length, and a CRC-32 so corrupt or truncated input is detected at
//! load time and reported as a typed [`SnapshotError`] — never a panic.
//!
//! ## Wire format (version 3)
//!
//! ```text
//! magic     [u8; 4]   b"DMI\x1a"
//! version   u32 LE    SNAPSHOT_VERSION
//! sections  u32 LE    number of sections
//! per section:
//!   name_len    u32 LE
//!   name        [u8; name_len]  UTF-8
//!   payload_len u64 LE
//!   crc32       u32 LE          CRC-32 (IEEE) of the payload bytes
//!   payload     [u8; payload_len]
//! ```
//!
//! All integers are little-endian. Section payloads are themselves
//! streams of the primitive encodings produced by [`StateWriter`]
//! (fixed-width LE integers, `0/1` booleans, length-prefixed byte
//! strings); the payload layout is owned by whichever layer wrote the
//! section and is validated by that layer on load.
//!
//! ## Versioning policy
//!
//! [`SNAPSHOT_VERSION`] is bumped whenever any section's payload layout
//! changes incompatibly. Loaders accept exactly the current version;
//! there is no cross-version migration — snapshots are a same-build
//! persistence and forking mechanism, not a long-term archive format.

use std::fmt;
use std::path::Path;

/// Magic bytes at the start of every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"DMI\x1a";

/// Current snapshot format version. Bumped on any incompatible change
/// to a section payload layout.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Typed error for every way snapshot encoding or decoding can fail.
///
/// Corrupt, truncated, or mismatched input always surfaces as one of
/// these variants; decoding never panics.
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading or writing the snapshot file failed.
    Io(std::io::Error),
    /// The input does not start with [`SNAPSHOT_MAGIC`].
    BadMagic {
        /// The bytes actually found (zero-padded if short).
        found: [u8; 4],
    },
    /// The input declares a format version this build does not read.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The input ended before a complete field could be read.
    Truncated {
        /// What was being decoded when the input ran out.
        context: &'static str,
    },
    /// A section's payload does not match its recorded CRC-32.
    ChecksumMismatch {
        /// Name of the damaged section.
        section: String,
    },
    /// A section required by the loader is absent.
    MissingSection {
        /// Name of the absent section.
        name: String,
    },
    /// A structurally invalid value inside an otherwise well-framed
    /// payload (bad enum tag, non-boolean byte, duplicate section,
    /// out-of-range index, trailing bytes, ...).
    Corrupt {
        /// What was invalid.
        context: String,
    },
    /// The snapshot is well-formed but describes a different system
    /// topology than the restore target (component/clock/signal
    /// counts, component names, memory kinds, ...).
    Mismatch {
        /// What differed.
        context: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic { found } => {
                write!(f, "not a snapshot: bad magic {found:02x?}")
            }
            SnapshotError::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot version {found} (this build reads {SNAPSHOT_VERSION})"
            ),
            SnapshotError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "snapshot section `{section}` failed its CRC check")
            }
            SnapshotError::MissingSection { name } => {
                write!(f, "snapshot is missing required section `{name}`")
            }
            SnapshotError::Corrupt { context } => {
                write!(f, "snapshot corrupt: {context}")
            }
            SnapshotError::Mismatch { context } => {
                write!(f, "snapshot does not match the restore target: {context}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), slicing-by-16
//
// `CRC_TABLES[0]` is the classic byte table; `CRC_TABLES[k][b]` is the
// register contribution of byte `b` followed by `k` zero bytes. One step
// folds 16 input bytes through 16 independent lookups, where the byte
// loop chains one dependent lookup per byte.

const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let c = tables[t - 1][i];
            tables[t][i] = (c >> 8) ^ tables[0][(c & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

/// CRC-32 (IEEE) of `bytes`, as used for section checksums, journal and
/// IPC frames, and leg fingerprints.
///
/// The values are the standard IEEE 802.3 CRC-32 (zlib's `crc32`), so
/// snapshot files written by earlier builds still verify. The body uses
/// slicing-by-16: 16 bytes per step through sixteen 256-entry tables,
/// then the byte-at-a-time loop for the tail; `tests/crc32.rs` keeps the
/// plain byte loop as the oracle.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let head = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(head & 0xFF) as usize]
            ^ t[14][((head >> 8) & 0xFF) as usize]
            ^ t[13][((head >> 16) & 0xFF) as usize]
            ^ t[12][(head >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// CRC-framed records (append-only journals)

/// Result of scanning one CRC-framed record off the head of a buffer —
/// see [`next_framed_record`].
#[derive(Debug, PartialEq, Eq)]
pub enum FramedRecord<'a> {
    /// A complete, CRC-valid record: its payload and the total bytes
    /// consumed (framing + payload).
    Complete {
        /// The record payload.
        payload: &'a [u8],
        /// Bytes of the buffer this record occupied, framing included.
        consumed: usize,
    },
    /// Bytes remain but do not form a complete, CRC-valid record: a torn
    /// tail (interrupted append) or trailing corruption. Readers stop
    /// here and discard the rest.
    Torn,
    /// The buffer is empty: a clean end.
    End,
}

/// Frames `payload` as one append-only journal record:
/// `[payload_len u32 LE][crc32 u32 LE][payload]`.
///
/// The framing is the single-record analogue of the [`Snapshot`]
/// container's section framing: a length so readers can skip without
/// parsing, and a CRC-32 (IEEE) of the payload so a torn or corrupted
/// tail is detected instead of misparsed. Intended for crash-safe
/// journals where records are appended one `write` at a time and the
/// file may be killed mid-append; pair with [`next_framed_record`].
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Scans one [`frame_record`]-framed record off the head of `buf`.
///
/// Torn-tail semantics: an incomplete header, a payload shorter than its
/// declared length, or a CRC mismatch all yield [`FramedRecord::Torn`] —
/// the reader's cue to stop and treat everything from here on as the
/// debris of an interrupted append. This deliberately does not
/// distinguish "truncated" from "bit-flipped": an append-only journal
/// recovers identically from both by dropping the tail.
pub fn next_framed_record(buf: &[u8]) -> FramedRecord<'_> {
    if buf.is_empty() {
        return FramedRecord::End;
    }
    if buf.len() < 8 {
        return FramedRecord::Torn;
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    let Some(payload) = buf.get(8..8 + len) else {
        return FramedRecord::Torn;
    };
    if crc32(payload) != crc {
        return FramedRecord::Torn;
    }
    FramedRecord::Complete {
        payload,
        consumed: 8 + len,
    }
}

/// Upper bound on a single frame's declared payload length accepted by
/// [`FrameStream`]: 64 MiB. A live stream (unlike a file scan) cannot
/// look ahead to validate a CRC before buffering the payload, so a
/// corrupted length field must not be allowed to demand an unbounded
/// allocation first — anything larger than the biggest plausible
/// snapshot is treated as corruption outright.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Incremental decoder for a live stream of [`frame_record`]-framed
/// records — the streaming twin of [`next_framed_record`] for byte
/// sources that arrive in arbitrary chunks (pipes between a farm
/// supervisor and its worker processes, nonblocking fds) rather than as
/// one scannable buffer.
///
/// Feed whatever bytes the fd produced with [`feed`](Self::feed); drain
/// complete, CRC-valid payloads with [`next_payload`](Self::next_payload).
/// An incomplete frame simply waits for more bytes. A frame whose CRC
/// does not match its payload, or whose declared length exceeds
/// [`MAX_FRAME_LEN`], *latches* the stream as corrupt
/// ([`is_corrupt`](Self::is_corrupt)): framing offers no way to resync
/// past a bad frame, so everything from it on is debris — the same
/// torn-tail semantics a journal scan applies, and the reader's cue to
/// treat the peer as dead. EOF mid-frame is the caller's to detect: end
/// of input with [`buffered`](Self::buffered)` > 0` is a torn tail.
#[derive(Debug, Default)]
pub struct FrameStream {
    buf: Vec<u8>,
    corrupt: bool,
}

impl FrameStream {
    /// An empty stream decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes read off the wire.
    pub fn feed(&mut self, bytes: &[u8]) {
        if !self.corrupt {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Pops the next complete, CRC-valid payload, if one is fully
    /// buffered. `None` means "need more bytes" — or that the stream
    /// has latched corrupt (check [`is_corrupt`](Self::is_corrupt)).
    pub fn next_payload(&mut self) -> Option<Vec<u8>> {
        if self.corrupt || self.buf.len() < 8 {
            return None;
        }
        let len = u32::from_le_bytes(self.buf[0..4].try_into().unwrap()) as usize;
        if len > MAX_FRAME_LEN {
            self.corrupt = true;
            return None;
        }
        let crc = u32::from_le_bytes(self.buf[4..8].try_into().unwrap());
        if self.buf.len() < 8 + len {
            return None;
        }
        if crc32(&self.buf[8..8 + len]) != crc {
            self.corrupt = true;
            return None;
        }
        let payload = self.buf[8..8 + len].to_vec();
        self.buf.drain(..8 + len);
        Some(payload)
    }

    /// Whether the stream hit an unrecoverable frame (bad CRC or an
    /// absurd declared length). Once set it never clears, and no
    /// further payloads are produced.
    pub fn is_corrupt(&self) -> bool {
        self.corrupt
    }

    /// Bytes buffered but not yet consumed by a complete frame. Nonzero
    /// at EOF means the final frame was torn mid-write.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// Primitive encoders

/// Append-only encoder for section payloads.
///
/// All writes are infallible; the buffer grows as needed. The matching
/// decoder is [`StateReader`].
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        StateWriter { buf: Vec::new() }
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a boolean as one byte, `0` or `1`.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a byte string with a `u64` length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a UTF-8 string with a `u64` length prefix.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked decoder over a section payload.
///
/// Every read returns [`SnapshotError::Truncated`] when the payload
/// runs out and [`SnapshotError::Corrupt`] on invalid encodings, so a
/// loader built on this never panics on hostile input.
#[derive(Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Wraps a payload for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        StateReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or(SnapshotError::Truncated { context })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self, context: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self, context: &'static str) -> Result<u32, SnapshotError> {
        let s = self.take(4, context)?;
        Ok(u32::from_le_bytes(s.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self, context: &'static str) -> Result<u64, SnapshotError> {
        let s = self.take(8, context)?;
        Ok(u64::from_le_bytes(s.try_into().unwrap()))
    }

    /// Reads a strict boolean: the byte must be exactly `0` or `1`.
    pub fn get_bool(&mut self, context: &'static str) -> Result<bool, SnapshotError> {
        match self.get_u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt {
                context: format!("{context}: invalid boolean byte 0x{b:02x}"),
            }),
        }
    }

    /// Reads a `u64`-length-prefixed byte string.
    pub fn get_bytes(&mut self, context: &'static str) -> Result<&'a [u8], SnapshotError> {
        let len = self.get_u64(context)?;
        let len = usize::try_from(len).map_err(|_| SnapshotError::Corrupt {
            context: format!("{context}: byte-string length {len} overflows usize"),
        })?;
        self.take(len, context)
    }

    /// Reads a `u64`-length-prefixed UTF-8 string.
    pub fn get_str(&mut self, context: &'static str) -> Result<&'a str, SnapshotError> {
        let bytes = self.get_bytes(context)?;
        std::str::from_utf8(bytes).map_err(|_| SnapshotError::Corrupt {
            context: format!("{context}: string is not valid UTF-8"),
        })
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the payload was fully consumed; trailing bytes mean the
    /// payload layout disagrees with the loader and are reported as
    /// corruption.
    pub fn finish(&self, context: &'static str) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt {
                context: format!("{context}: {} trailing bytes", self.remaining()),
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot container

/// A named-section state capture, serializable to a checksummed binary
/// stream.
///
/// Sections are kept in insertion order; names must be unique. Use
/// [`Snapshot::to_bytes`]/[`Snapshot::from_bytes`] for in-memory
/// round-trips and [`Snapshot::save`]/[`Snapshot::load`] for files.
/// Two snapshots are equal exactly when their encodings are: the same
/// sections, in the same order, with the same payloads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    sections: Vec<(String, Vec<u8>)>,
}

impl Snapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Snapshot { sections: Vec::new() }
    }

    /// Appends a section. Panics in debug builds if the name repeats —
    /// section names are a writer-side contract, not input data.
    pub fn push_section(&mut self, name: impl Into<String>, payload: Vec<u8>) {
        let name = name.into();
        debug_assert!(
            self.section(&name).is_none(),
            "duplicate snapshot section `{name}`"
        );
        self.sections.push((name, payload));
    }

    /// Payload of the section named `name`, if present.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p.as_slice())
    }

    /// Payload of a required section, as a typed error when absent.
    pub fn require_section(&self, name: &str) -> Result<&[u8], SnapshotError> {
        self.section(name).ok_or_else(|| SnapshotError::MissingSection {
            name: name.to_string(),
        })
    }

    /// Section names, in insertion order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// Number of sections.
    pub fn section_count(&self) -> usize {
        self.sections.len()
    }

    /// Total payload bytes across all sections (excludes framing).
    pub fn payload_bytes(&self) -> usize {
        self.sections.iter().map(|(_, p)| p.len()).sum()
    }

    /// Encodes the snapshot into the versioned, checksummed wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let framing = self
            .sections
            .iter()
            .map(|(n, p)| 16 + n.len() + p.len())
            .sum::<usize>();
        let mut out = Vec::with_capacity(12 + framing);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, payload) in &self.sections {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(payload).to_le_bytes());
            out.extend_from_slice(payload);
        }
        out
    }

    /// Decodes a snapshot, validating magic, version, framing, and
    /// every section CRC. Any corruption or truncation yields a typed
    /// [`SnapshotError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let mut r = StateReader::new(bytes);
        let magic = r.take(4, "magic")?;
        if magic != SNAPSHOT_MAGIC {
            let mut found = [0u8; 4];
            found.copy_from_slice(magic);
            return Err(SnapshotError::BadMagic { found });
        }
        let version = r.get_u32("version")?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let count = r.get_u32("section count")?;
        let mut sections: Vec<(String, Vec<u8>)> = Vec::new();
        for _ in 0..count {
            let name_len = r.get_u32("section name length")? as usize;
            let name = std::str::from_utf8(r.take(name_len, "section name")?)
                .map_err(|_| SnapshotError::Corrupt {
                    context: "section name is not valid UTF-8".to_string(),
                })?
                .to_string();
            let payload_len = r.get_u64("section payload length")?;
            let payload_len =
                usize::try_from(payload_len).map_err(|_| SnapshotError::Corrupt {
                    context: format!(
                        "section `{name}`: payload length {payload_len} overflows usize"
                    ),
                })?;
            let crc = r.get_u32("section checksum")?;
            let payload = r.take(payload_len, "section payload")?;
            if crc32(payload) != crc {
                return Err(SnapshotError::ChecksumMismatch { section: name });
            }
            if sections.iter().any(|(n, _)| *n == name) {
                return Err(SnapshotError::Corrupt {
                    context: format!("duplicate section `{name}`"),
                });
            }
            sections.push((name, payload.to_vec()));
        }
        r.finish("snapshot trailer")?;
        Ok(Snapshot { sections })
    }

    /// Writes the encoded snapshot to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads and decodes a snapshot from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Snapshot, SnapshotError> {
        let bytes = std::fs::read(path)?;
        Snapshot::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard CRC-32 (IEEE) check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // 43 bytes: two 16-byte steps and an 11-byte tail.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = StateWriter::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_bool(true);
        w.put_bool(false);
        w.put_bytes(&[1, 2, 3]);
        w.put_str("clk");
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get_u8("a").unwrap(), 0xAB);
        assert_eq!(r.get_u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64("c").unwrap(), 0x0123_4567_89AB_CDEF);
        assert!(r.get_bool("d").unwrap());
        assert!(!r.get_bool("e").unwrap());
        assert_eq!(r.get_bytes("f").unwrap(), &[1, 2, 3]);
        assert_eq!(r.get_str("g").unwrap(), "clk");
        r.finish("payload").unwrap();
    }

    #[test]
    fn reader_is_bounds_checked() {
        let mut r = StateReader::new(&[1, 2]);
        assert!(matches!(
            r.get_u32("x"),
            Err(SnapshotError::Truncated { .. })
        ));
        // A failed read consumes nothing usable; a short one still errors.
        let mut r = StateReader::new(&[2, 0, 0, 0, 0, 0, 0, 0, 9]);
        assert!(matches!(
            r.get_bytes("y"),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn strict_booleans() {
        let mut r = StateReader::new(&[7]);
        assert!(matches!(r.get_bool("b"), Err(SnapshotError::Corrupt { .. })));
    }

    #[test]
    fn container_round_trip() {
        let mut s = Snapshot::new();
        s.push_section("kernel", vec![1, 2, 3, 4]);
        s.push_section("comp0", vec![]);
        s.push_section("comp1", vec![0xFF; 1000]);
        let bytes = s.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.section_count(), 3);
        assert_eq!(back.section("kernel").unwrap(), &[1, 2, 3, 4]);
        assert_eq!(back.section("comp0").unwrap(), &[] as &[u8]);
        assert_eq!(back.section("comp1").unwrap().len(), 1000);
        assert!(back.section("nope").is_none());
        assert!(matches!(
            back.require_section("nope"),
            Err(SnapshotError::MissingSection { .. })
        ));
    }

    #[test]
    fn bad_magic_and_version() {
        let mut bytes = Snapshot::new().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::BadMagic { .. })
        ));
        let mut bytes = Snapshot::new().to_bytes();
        bytes[4] = 0xEE;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn payload_corruption_is_caught_by_crc() {
        let mut s = Snapshot::new();
        s.push_section("kernel", (0..64).collect());
        let mut bytes = s.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch { section }) if section == "kernel"
        ));
    }

    #[test]
    fn framed_records_round_trip_and_tolerate_torn_tails() {
        let records: [&[u8]; 3] = [b"first", b"", b"third-record"];
        let mut stream = Vec::new();
        for r in &records {
            stream.extend_from_slice(&frame_record(r));
        }

        // Full stream: every record scans back in order, then a clean end.
        let mut rest: &[u8] = &stream;
        for want in &records {
            match next_framed_record(rest) {
                FramedRecord::Complete { payload, consumed } => {
                    assert_eq!(payload, *want);
                    rest = &rest[consumed..];
                }
                other => panic!("expected record, got {other:?}"),
            }
        }
        assert_eq!(next_framed_record(rest), FramedRecord::End);

        // Every truncation point: the scan yields exactly the records
        // whose full frame survived, then Torn (or End on a record
        // boundary) — never a panic, never a bogus payload.
        let boundaries: Vec<usize> = {
            let mut b = vec![0];
            for r in &records {
                b.push(b.last().unwrap() + 8 + r.len());
            }
            b
        };
        for cut in 0..stream.len() {
            let mut rest = &stream[..cut];
            let mut scanned = 0;
            loop {
                match next_framed_record(rest) {
                    FramedRecord::Complete { consumed, .. } => {
                        rest = &rest[consumed..];
                        scanned += 1;
                    }
                    FramedRecord::Torn => break,
                    FramedRecord::End => break,
                }
            }
            let whole = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(scanned, whole, "cut at {cut}");
            let on_boundary = boundaries.contains(&cut);
            assert_eq!(
                next_framed_record(rest) == FramedRecord::End,
                on_boundary,
                "cut at {cut}"
            );
        }

        // A bit flip in a payload is caught by the CRC and reads as torn.
        let mut bad = stream.clone();
        bad[9] ^= 0x40; // inside record 0's payload
        assert_eq!(next_framed_record(&bad), FramedRecord::Torn);
        // A bogus giant length cannot over-read.
        let mut huge = frame_record(b"x");
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(next_framed_record(&huge), FramedRecord::Torn);
    }

    #[test]
    fn frame_stream_reassembles_arbitrary_chunking() {
        let records: [&[u8]; 4] = [b"alpha", b"", b"gamma-record", &[0xAB; 300]];
        let mut wire = Vec::new();
        for r in &records {
            wire.extend_from_slice(&frame_record(r));
        }

        // Feed in every fixed chunk size from a byte at a time up to the
        // whole stream: the same records must come back out, in order.
        for chunk in 1..=wire.len() {
            let mut stream = FrameStream::new();
            let mut got: Vec<Vec<u8>> = Vec::new();
            for piece in wire.chunks(chunk) {
                stream.feed(piece);
                while let Some(p) = stream.next_payload() {
                    got.push(p);
                }
            }
            assert!(!stream.is_corrupt(), "chunk size {chunk}");
            assert_eq!(stream.buffered(), 0, "chunk size {chunk}");
            assert_eq!(got.len(), records.len(), "chunk size {chunk}");
            for (g, want) in got.iter().zip(&records) {
                assert_eq!(g.as_slice(), *want, "chunk size {chunk}");
            }
        }
    }

    #[test]
    fn frame_stream_latches_on_corruption() {
        // A bit flip in the first payload poisons everything after it —
        // the intact second record must NOT be produced (no resync).
        let mut wire = frame_record(b"first");
        wire[9] ^= 0x04;
        wire.extend_from_slice(&frame_record(b"second"));
        let mut stream = FrameStream::new();
        stream.feed(&wire);
        assert_eq!(stream.next_payload(), None);
        assert!(stream.is_corrupt());
        stream.feed(&frame_record(b"third"));
        assert_eq!(stream.next_payload(), None, "corrupt latches");

        // An absurd declared length is corruption, not an allocation.
        let mut huge = frame_record(b"x");
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut stream = FrameStream::new();
        stream.feed(&huge);
        assert_eq!(stream.next_payload(), None);
        assert!(stream.is_corrupt());

        // A torn tail (EOF mid-frame) is visible as leftover bytes.
        let whole = frame_record(b"payload");
        let mut stream = FrameStream::new();
        stream.feed(&whole[..whole.len() - 2]);
        assert_eq!(stream.next_payload(), None);
        assert!(!stream.is_corrupt(), "torn != corrupt before EOF");
        assert!(stream.buffered() > 0);
    }

    #[test]
    fn every_truncation_is_typed() {
        let mut s = Snapshot::new();
        s.push_section("kernel", vec![9; 32]);
        s.push_section("comp0", vec![7; 8]);
        let bytes = s.to_bytes();
        for len in 0..bytes.len() {
            let err = Snapshot::from_bytes(&bytes[..len])
                .expect_err("truncated snapshot must not decode");
            assert!(matches!(
                err,
                SnapshotError::BadMagic { .. }
                    | SnapshotError::Truncated { .. }
                    | SnapshotError::ChecksumMismatch { .. }
            ));
        }
    }
}
