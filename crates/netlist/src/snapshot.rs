//! Versioned, dependency-free state snapshots.
//!
//! [`Snapshot`] gives every simulator in the workspace — the baseline
//! ISSes, the TP-ISA ISS, the gate-level co-simulation machine, and the
//! netlist [`crate::sim::Simulator`] itself — one serialization contract:
//!
//! - a **binary** format (`PSNP` magic + kind + version + payload) that is
//!   byte-exact and cheap enough to capture mid-campaign, and
//! - a **JSON** envelope (`printed-snapshot/v1`) that wraps the same
//!   payload hex-encoded, so snapshots survive text-only transports
//!   without losing bit-exactness to floating-point JSON numbers.
//!
//! Restores are *transactional*: [`Snapshot::restore_state`]
//! implementations validate the whole payload before mutating, so a
//! failed restore leaves the target object untouched, so a caller handed
//! a damaged or mismatched snapshot gets a typed [`SnapshotError`] and
//! keeps a machine it can still run or report on.
//!
//! ```
//! use printed_netlist::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
//!
//! struct Counter {
//!     value: u64,
//! }
//! impl Snapshot for Counter {
//!     const KIND: &'static str = "doc.counter";
//!     const VERSION: u32 = 1;
//!     fn save_state(&self, w: &mut SnapshotWriter) {
//!         w.u64(self.value);
//!     }
//!     fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
//!         self.value = r.u64()?;
//!         Ok(())
//!     }
//! }
//!
//! let a = Counter { value: 41 };
//! let mut b = Counter { value: 0 };
//! b.restore_json(&a.save_json())?;
//! assert_eq!(b.value, 41);
//! # Ok::<(), printed_netlist::snapshot::SnapshotError>(())
//! ```

use std::fmt;

/// Magic prefix of every binary snapshot.
const MAGIC: &[u8; 4] = b"PSNP";

/// Schema tag of the JSON envelope.
const JSON_SCHEMA: &str = "printed-snapshot/v1";

/// Why a snapshot failed to restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The payload ended before a field could be read.
    Truncated,
    /// Trailing bytes remained after the last field — a version skew or a
    /// corrupt payload.
    TrailingBytes {
        /// Unconsumed bytes after the final field.
        remaining: usize,
    },
    /// The binary payload does not start with the `PSNP` magic.
    BadMagic,
    /// The snapshot was captured from a different kind of object.
    WrongKind {
        /// Kind the restoring object expected.
        expected: String,
        /// Kind recorded in the snapshot.
        found: String,
    },
    /// The snapshot was captured under a different schema version.
    WrongVersion {
        /// Snapshot kind (for the error message).
        kind: String,
        /// Version the restoring object expected.
        expected: u32,
        /// Version recorded in the snapshot.
        found: u32,
    },
    /// A payload field is inconsistent with the restoring object.
    Mismatch {
        /// Which field failed validation.
        field: &'static str,
        /// Human-readable expected-vs-found detail.
        detail: String,
    },
    /// The JSON envelope failed to parse or is missing a field.
    Json(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot payload truncated"),
            SnapshotError::TrailingBytes { remaining } => {
                write!(f, "snapshot payload has {remaining} trailing bytes")
            }
            SnapshotError::BadMagic => write!(f, "not a PSNP snapshot"),
            SnapshotError::WrongKind { expected, found } => {
                write!(f, "snapshot kind mismatch: expected {expected:?}, found {found:?}")
            }
            SnapshotError::WrongVersion { kind, expected, found } => {
                write!(
                    f,
                    "snapshot {kind:?} version mismatch: expected v{expected}, found v{found}"
                )
            }
            SnapshotError::Mismatch { field, detail } => {
                write!(f, "snapshot field {field:?} mismatch: {detail}")
            }
            SnapshotError::Json(msg) => write!(f, "snapshot JSON envelope: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Little-endian append-only writer for snapshot payloads.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        SnapshotWriter { buf: Vec::new() }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a `bool` as one byte (`0`/`1`).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends an optional `u64` (presence byte + value).
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(value) => {
                self.bool(true);
                self.u64(value);
            }
            None => self.bool(false),
        }
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends a length-prefixed bit vector, packed 8 bits per byte.
    pub fn bits(&mut self, v: &[bool]) {
        self.u32(v.len() as u32);
        for chunk in v.chunks(8) {
            let mut byte = 0u8;
            for (i, &bit) in chunk.iter().enumerate() {
                byte |= (bit as u8) << i;
            }
            self.buf.push(byte);
        }
    }

    /// Appends a length-prefixed `u64` vector.
    pub fn u64s(&mut self, v: &[u64]) {
        self.u32(v.len() as u32);
        for &word in v {
            self.u64(word);
        }
    }

    /// Consumes the writer, yielding the accumulated payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over a binary snapshot payload; every read checks bounds.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapshotReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let bytes = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(raw))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Mismatch {
            field: "usize",
            detail: format!("{v} does not fit the host usize"),
        })
    }

    /// Reads a `bool` byte, rejecting anything but `0`/`1`.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Mismatch {
                field: "bool",
                detail: format!("expected 0 or 1, found {other}"),
            }),
        }
    }

    /// Reads an optional `u64` (presence byte + value).
    pub fn opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        if self.bool()? {
            Ok(Some(self.u64()?))
        } else {
            Ok(None)
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let raw = self.bytes()?;
        String::from_utf8(raw).map_err(|_| SnapshotError::Mismatch {
            field: "str",
            detail: "invalid UTF-8".to_string(),
        })
    }

    /// Reads a length-prefixed packed bit vector.
    pub fn bits(&mut self) -> Result<Vec<bool>, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len.div_ceil(8))?;
        let mut out = Vec::with_capacity(len);
        for i in 0..len {
            out.push(bytes[i / 8] >> (i % 8) & 1 == 1);
        }
        Ok(out)
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn u64s(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let len = self.u32()? as usize;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    /// Asserts the payload was fully consumed.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapshotError::TrailingBytes { remaining: self.buf.len() - self.pos })
        }
    }
}

/// Versioned binary + JSON state serialization.
///
/// Implementors define only [`Snapshot::save_state`] /
/// [`Snapshot::restore_state`] over the field-level writer/reader; the
/// framed binary and JSON forms come for free and validate kind and
/// version before any payload field is touched.
pub trait Snapshot {
    /// Stable identifier of the snapshotted object kind (e.g.
    /// `"netlist.sim"`); a restore rejects payloads of any other kind.
    const KIND: &'static str;
    /// Payload schema version; bumped on any layout change.
    const VERSION: u32;

    /// Serializes the object's state into `w` (payload fields only — the
    /// frame is written by [`Snapshot::save_binary`]).
    fn save_state(&self, w: &mut SnapshotWriter);

    /// Restores the object's state from `r`.
    ///
    /// Implementations must be transactional: parse and validate the
    /// entire payload before mutating `self`, so an `Err` leaves the
    /// object exactly as it was.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] if the payload is truncated, malformed, or
    /// inconsistent with `self`.
    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError>;

    /// Serializes to the framed binary form: `PSNP` magic, kind, version,
    /// payload.
    fn save_binary(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.buf.extend_from_slice(MAGIC);
        w.str(Self::KIND);
        w.u32(Self::VERSION);
        self.save_state(&mut w);
        w.into_bytes()
    }

    /// Restores from the framed binary form, checking magic, kind, and
    /// version first and requiring full payload consumption.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from frame validation or
    /// [`Snapshot::restore_state`].
    fn restore_binary(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::new(bytes);
        if r.take(MAGIC.len()).map_err(|_| SnapshotError::BadMagic)? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let kind = r.str()?;
        if kind != Self::KIND {
            return Err(SnapshotError::WrongKind { expected: Self::KIND.to_string(), found: kind });
        }
        let version = r.u32()?;
        if version != Self::VERSION {
            return Err(SnapshotError::WrongVersion {
                kind,
                expected: Self::VERSION,
                found: version,
            });
        }
        self.restore_state(&mut r)?;
        r.finish()
    }

    /// Serializes to the `printed-snapshot/v1` JSON envelope: metadata
    /// plus the binary form hex-encoded, so the JSON path is bit-exact.
    fn save_json(&self) -> String {
        let bin = self.save_binary();
        format!(
            "{{\"schema\":\"{JSON_SCHEMA}\",\"kind\":{},\"version\":{},\"bytes\":{},\"data\":\"{}\"}}",
            printed_obs::json::escape(Self::KIND),
            Self::VERSION,
            bin.len(),
            to_hex(&bin)
        )
    }

    /// Restores from the JSON envelope produced by
    /// [`Snapshot::save_json`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Json`] on a malformed envelope, plus anything
    /// [`Snapshot::restore_binary`] can return.
    fn restore_json(&mut self, text: &str) -> Result<(), SnapshotError> {
        let value = printed_obs::json::parse(text)
            .map_err(|e| SnapshotError::Json(format!("parse: {e}")))?;
        let field = |name: &str| {
            value.get(name).ok_or_else(|| SnapshotError::Json(format!("missing field {name:?}")))
        };
        let schema = field("schema")?
            .as_str()
            .ok_or_else(|| SnapshotError::Json("schema is not a string".to_string()))?;
        if schema != JSON_SCHEMA {
            return Err(SnapshotError::Json(format!(
                "unsupported schema {schema:?} (expected {JSON_SCHEMA:?})"
            )));
        }
        let data = field("data")?
            .as_str()
            .ok_or_else(|| SnapshotError::Json("data is not a string".to_string()))?;
        let bin = from_hex(data)?;
        if let Some(bytes) = field("bytes")?.as_f64() {
            if bytes as usize != bin.len() {
                return Err(SnapshotError::Json(format!(
                    "byte count mismatch: envelope says {bytes}, data holds {}",
                    bin.len()
                )));
            }
        }
        self.restore_binary(&bin)
    }
}

/// Lowercase hex encoding of `bytes`.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(char::from_digit((b >> 4) as u32, 16).unwrap_or('0'));
        out.push(char::from_digit((b & 0xF) as u32, 16).unwrap_or('0'));
    }
    out
}

/// Decodes the hex produced by [`to_hex`].
///
/// # Errors
///
/// [`SnapshotError::Json`] on odd length or a non-hex digit.
pub fn from_hex(text: &str) -> Result<Vec<u8>, SnapshotError> {
    if !text.len().is_multiple_of(2) {
        return Err(SnapshotError::Json("hex data has odd length".to_string()));
    }
    let digits: Vec<u32> = text
        .chars()
        .map(|c| {
            c.to_digit(16)
                .ok_or_else(|| SnapshotError::Json(format!("non-hex digit {c:?} in data")))
        })
        .collect::<Result<_, _>>()?;
    Ok(digits.chunks(2).map(|pair| (pair[0] << 4 | pair[1]) as u8).collect())
}

/// FNV-1a over `bytes` — the workspace's one content digest: snapshot
/// and ROM identities, shop query keys, and (through [`Fnv1a`]) the
/// campaign fingerprints checkpoints and cached quotes are filed under.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write(bytes);
    hash.finish()
}

/// Streaming [`fnv1a`], for digests fed piece by piece: writing the
/// pieces in order hashes exactly their concatenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    /// The empty digest (the FNV-1a offset basis).
    pub(crate) fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the digest.
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds `value`'s little-endian bytes into the digest.
    pub(crate) fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// The digest of everything written so far.
    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    struct Toy {
        word: u64,
        flag: bool,
        name: String,
        bits: Vec<bool>,
        words: Vec<u64>,
        limit: Option<u64>,
    }

    impl Snapshot for Toy {
        const KIND: &'static str = "test.toy";
        const VERSION: u32 = 3;

        fn save_state(&self, w: &mut SnapshotWriter) {
            w.u64(self.word);
            w.bool(self.flag);
            w.str(&self.name);
            w.bits(&self.bits);
            w.u64s(&self.words);
            w.opt_u64(self.limit);
        }

        fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
            let word = r.u64()?;
            let flag = r.bool()?;
            let name = r.str()?;
            let bits = r.bits()?;
            let words = r.u64s()?;
            let limit = r.opt_u64()?;
            *self = Toy { word, flag, name, bits, words, limit };
            Ok(())
        }
    }

    fn toy() -> Toy {
        Toy {
            word: 0xDEAD_BEEF_0000_1234,
            flag: true,
            name: "p1_4_2".to_string(),
            bits: vec![true, false, true, true, false, false, true, false, true],
            words: vec![0, 1, u64::MAX, 42],
            limit: Some(99),
        }
    }

    #[test]
    fn binary_round_trip_is_identity() {
        let a = toy();
        let mut b = Toy::default();
        b.restore_binary(&a.save_binary()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn json_round_trip_is_identity() {
        let a = toy();
        let mut b = Toy::default();
        b.restore_json(&a.save_json()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn frame_rejects_magic_kind_and_version_skews() {
        let mut bin = toy().save_binary();
        let mut t = Toy::default();
        assert_eq!(t.restore_binary(b"nope"), Err(SnapshotError::BadMagic));
        // Corrupt the version field (immediately after magic + kind).
        let version_at = MAGIC.len() + 4 + Toy::KIND.len();
        bin[version_at] = 0xEE;
        assert!(matches!(t.restore_binary(&bin), Err(SnapshotError::WrongVersion { .. })));
    }

    #[test]
    fn truncation_and_trailing_bytes_are_detected() {
        let bin = toy().save_binary();
        let mut t = Toy::default();
        assert_eq!(t.restore_binary(&bin[..bin.len() - 1]), Err(SnapshotError::Truncated));
        let mut long = bin.clone();
        long.push(0);
        assert_eq!(t.restore_binary(&long), Err(SnapshotError::TrailingBytes { remaining: 1 }));
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let bytes = vec![0u8, 1, 0xAB, 0xFF, 0x10];
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn streaming_fnv1a_hashes_the_concatenation() {
        let mut h = Fnv1a::new();
        h.write(b"ab");
        h.write_u64(7);
        let mut whole = b"ab".to_vec();
        whole.extend_from_slice(&7u64.to_le_bytes());
        assert_eq!(h.finish(), fnv1a(&whole));
    }
}
