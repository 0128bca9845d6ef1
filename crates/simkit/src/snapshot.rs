//! Versioned, integer-stable snapshot codec for crash-safe checkpoint /
//! resume.
//!
//! A snapshot is a small binary envelope around a canonical JSON-like body:
//!
//! ```text
//! +------------+---------+-------------+--------------+-------------+----------+------+-------+
//! | magic (8)  | ver (4) | seed (8)    | clock_us (8) | fprint (8)  | len (8)  | body | crc(4)|
//! +------------+---------+-------------+--------------+-------------+----------+------+-------+
//! ```
//!
//! All integers are little-endian. The body is a [`Val`] tree rendered as
//! canonical text: maps keep insertion order, floats are stored as the raw
//! IEEE-754 bit pattern of an unsigned integer (never as decimal text), so
//! encoding is *integer-stable* — the same state always renders to the same
//! bytes on every platform, and a decode/encode round trip is the identity.
//! The trailing CRC-32 (IEEE) covers everything before it, which is what
//! lets a resuming process reject truncated or bit-flipped checkpoints
//! instead of resuming from garbage.
//!
//! [`Snapshot`] / [`Restorable`] are the trait pair components implement to
//! participate: `to_val` captures the component's dynamic state, `from_val`
//! rebuilds it. Stateful components whose reconstruction needs external
//! context (a config, an RNG master seed) expose inherent
//! `snapshot`/`restore` methods with the same [`Val`] currency instead.

use std::fmt;

/// First eight bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"RUSHSNAP";

/// Current snapshot format version. Bumped on any incompatible change to
/// the envelope or to a component's body schema; decoders reject other
/// versions outright (re-checkpointing is cheap, silent misdecoding is
/// not).
pub const FORMAT_VERSION: u32 = 1;

/// The deepest list/map nesting [`Val::parse`] accepts; deeper input is a
/// [`SnapshotError::Parse`] error rather than a stack overflow. The deepest
/// real document, an engine snapshot of an online-service run, nests 7
/// levels.
pub const MAX_DEPTH: usize = 32;

/// Why a snapshot failed to decode or restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The format version is not [`FORMAT_VERSION`].
    BadVersion(u32),
    /// The file is shorter than its header or declared body length.
    Truncated,
    /// The trailing CRC-32 does not match the payload.
    CrcMismatch,
    /// The snapshot was taken under a different configuration than the
    /// engine it is being restored into.
    ConfigMismatch,
    /// The body parsed, but a component's schema expectation failed.
    Schema(String),
    /// The body text is not valid canonical form.
    Parse(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot: bad magic"),
            SnapshotError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (want {FORMAT_VERSION})"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::CrcMismatch => write!(f, "snapshot CRC mismatch (corrupted)"),
            SnapshotError::ConfigMismatch => {
                write!(f, "snapshot was taken under a different configuration")
            }
            SnapshotError::Schema(m) => write!(f, "snapshot schema error: {m}"),
            SnapshotError::Parse(m) => write!(f, "snapshot parse error: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A node of the snapshot body tree.
///
/// Deliberately minimal: unsigned/signed integers, strings, lists and
/// insertion-ordered maps. Floats travel as `U64` bit patterns via
/// [`Val::from_f64`]/[`Val::as_f64`] so no decimal formatting is ever
/// involved.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// An unsigned integer (also the carrier for f64 bit patterns).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A string.
    Str(String),
    /// An ordered list.
    List(Vec<Val>),
    /// An insertion-ordered map.
    Map(Vec<(String, Val)>),
}

impl Val {
    /// An empty map.
    pub fn map() -> Val {
        Val::Map(Vec::new())
    }

    /// Adds `key: value` to a map (builder style).
    ///
    /// # Panics
    /// Panics if `self` is not a map.
    pub fn with(mut self, key: &str, value: Val) -> Val {
        match &mut self {
            Val::Map(entries) => entries.push((key.to_string(), value)),
            _ => panic!("Val::with on non-map"),
        }
        self
    }

    /// Wraps an `f64` as its IEEE-754 bit pattern.
    pub fn from_f64(x: f64) -> Val {
        Val::U64(x.to_bits())
    }

    /// The value as `u64`.
    pub fn as_u64(&self) -> Result<u64, SnapshotError> {
        match *self {
            Val::U64(v) => Ok(v),
            Val::I64(v) if v >= 0 => Ok(v as u64),
            _ => Err(SnapshotError::Schema(format!("expected u64, got {self:?}"))),
        }
    }

    /// The value as `i64`.
    pub fn as_i64(&self) -> Result<i64, SnapshotError> {
        match *self {
            Val::I64(v) => Ok(v),
            Val::U64(v) if v <= i64::MAX as u64 => Ok(v as i64),
            _ => Err(SnapshotError::Schema(format!("expected i64, got {self:?}"))),
        }
    }

    /// The value as an `f64` bit pattern.
    pub fn as_f64(&self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.as_u64()?))
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, SnapshotError> {
        match self {
            Val::Str(s) => Ok(s),
            _ => Err(SnapshotError::Schema(format!(
                "expected string, got {self:?}"
            ))),
        }
    }

    /// The value as a list slice.
    pub fn as_list(&self) -> Result<&[Val], SnapshotError> {
        match self {
            Val::List(items) => Ok(items),
            _ => Err(SnapshotError::Schema(format!(
                "expected list, got {self:?}"
            ))),
        }
    }

    /// Looks up `key` in a map.
    pub fn get(&self, key: &str) -> Result<&Val, SnapshotError> {
        match self {
            Val::Map(entries) => entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| SnapshotError::Schema(format!("missing key '{key}'"))),
            _ => Err(SnapshotError::Schema(format!("expected map, got {self:?}"))),
        }
    }

    /// Map field as `u64`.
    pub fn u(&self, key: &str) -> Result<u64, SnapshotError> {
        self.get(key)?.as_u64()
    }

    /// Map field as `i64`.
    pub fn i(&self, key: &str) -> Result<i64, SnapshotError> {
        self.get(key)?.as_i64()
    }

    /// Map field as `f64` (bit pattern).
    pub fn f(&self, key: &str) -> Result<f64, SnapshotError> {
        self.get(key)?.as_f64()
    }

    /// Map field as string.
    pub fn s<'a>(&'a self, key: &str) -> Result<&'a str, SnapshotError> {
        self.get(key)?.as_str()
    }

    /// Map field as list.
    pub fn l<'a>(&'a self, key: &str) -> Result<&'a [Val], SnapshotError> {
        self.get(key)?.as_list()
    }

    /// Renders the canonical text form.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Val::U64(v) => {
                out.push('u');
                out.push_str(&v.to_string());
            }
            Val::I64(v) => {
                out.push('i');
                out.push_str(&v.to_string());
            }
            Val::Str(s) => render_str(s, out),
            Val::List(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Val::Map(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses the canonical text form.
    pub fn parse(text: &str) -> Result<Val, SnapshotError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let val = parse_val(bytes, &mut pos, 0)?;
        if pos != bytes.len() {
            return Err(SnapshotError::Parse(format!(
                "trailing bytes at offset {pos}"
            )));
        }
        Ok(val)
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn parse_err(pos: usize, what: &str) -> SnapshotError {
    SnapshotError::Parse(format!("{what} at offset {pos}"))
}

/// Parses one value nested `depth` lists/maps deep.
fn parse_val(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Val, SnapshotError> {
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(parse_err(*pos, &format!("nesting deeper than {MAX_DEPTH}")));
    }
    match bytes.get(*pos) {
        Some(b'u') => {
            *pos += 1;
            Ok(Val::U64(parse_digits(bytes, pos)?))
        }
        Some(b'i') => {
            *pos += 1;
            let neg = bytes.get(*pos) == Some(&b'-');
            if neg {
                *pos += 1;
            }
            let mag = parse_digits(bytes, pos)?;
            if neg {
                if mag > i64::MIN.unsigned_abs() {
                    return Err(parse_err(*pos, "i64 underflow"));
                }
                Ok(Val::I64((mag as i64).wrapping_neg()))
            } else {
                if mag > i64::MAX as u64 {
                    return Err(parse_err(*pos, "i64 overflow"));
                }
                Ok(Val::I64(mag as i64))
            }
        }
        Some(b'"') => Ok(Val::Str(parse_str(bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Val::List(items));
            }
            loop {
                items.push(parse_val(bytes, pos, depth + 1)?);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Val::List(items));
                    }
                    _ => return Err(parse_err(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Val::Map(entries));
            }
            loop {
                let key = parse_str(bytes, pos)?;
                if bytes.get(*pos) != Some(&b':') {
                    return Err(parse_err(*pos, "expected ':'"));
                }
                *pos += 1;
                let value = parse_val(bytes, pos, depth + 1)?;
                entries.push((key, value));
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Val::Map(entries));
                    }
                    _ => return Err(parse_err(*pos, "expected ',' or '}'")),
                }
            }
        }
        _ => Err(parse_err(*pos, "unexpected byte")),
    }
}

fn parse_digits(bytes: &[u8], pos: &mut usize) -> Result<u64, SnapshotError> {
    let start = *pos;
    let mut value: u64 = 0;
    while let Some(&b) = bytes.get(*pos) {
        if !b.is_ascii_digit() {
            break;
        }
        value = value
            .checked_mul(10)
            .and_then(|v| v.checked_add(u64::from(b - b'0')))
            .ok_or_else(|| parse_err(*pos, "integer overflow"))?;
        *pos += 1;
    }
    if *pos == start {
        return Err(parse_err(*pos, "expected digits"));
    }
    Ok(value)
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, SnapshotError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(parse_err(*pos, "expected '\"'"));
    }
    *pos += 1;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(parse_err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| parse_err(*pos, "invalid utf-8"));
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| parse_err(*pos, "bad \\u escape"))?;
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or_else(|| parse_err(*pos, "bad \\u escape"))?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(code.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    _ => return Err(parse_err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(&b) => {
                out.push(b);
                *pos += 1;
            }
        }
    }
}

/// State capture: render this component's dynamic state as a [`Val`] tree.
pub trait Snapshot {
    /// Captures the component's dynamic state.
    fn to_val(&self) -> Val;
}

/// State restoration: rebuild a component from a captured [`Val`] tree.
pub trait Restorable: Sized {
    /// Rebuilds the component; fails with [`SnapshotError::Schema`] when the
    /// tree does not match the expected shape.
    fn from_val(v: &Val) -> Result<Self, SnapshotError>;
}

/// A decoded snapshot envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEnvelope {
    /// Format version ([`FORMAT_VERSION`] after a successful decode).
    pub version: u32,
    /// The run's master seed.
    pub master_seed: u64,
    /// Simulation clock at capture time, microseconds.
    pub sim_clock_us: u64,
    /// Fingerprint of the configuration the run was started with.
    pub fingerprint: u64,
    /// The state body.
    pub body: Val,
}

const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8 + 8;

/// Encodes a snapshot envelope to bytes.
pub fn encode(master_seed: u64, sim_clock_us: u64, fingerprint: u64, body: &Val) -> Vec<u8> {
    let text = body.render();
    let mut out = Vec::with_capacity(HEADER_LEN + text.len() + 4);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&master_seed.to_le_bytes());
    out.extend_from_slice(&sim_clock_us.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(text.len() as u64).to_le_bytes());
    out.extend_from_slice(text.as_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Checks a snapshot's framing — magic, version, declared length and CRC —
/// and returns its header fields `[master_seed, sim_clock_us, fingerprint]`
/// and its body bytes.
fn frame(bytes: &[u8]) -> Result<([u64; 3], &[u8]), SnapshotError> {
    if bytes.len() < 8 {
        return Err(SnapshotError::Truncated);
    }
    if bytes[0..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if bytes.len() < HEADER_LEN + 4 {
        return Err(SnapshotError::Truncated);
    }
    let le32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    let le64 = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let version = le32(8);
    if version != FORMAT_VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let end = usize::try_from(le64(36))
        .ok()
        .and_then(|body_len| HEADER_LEN.checked_add(body_len))
        .filter(|&end| end.checked_add(4).is_some_and(|total| bytes.len() >= total))
        .ok_or(SnapshotError::Truncated)?;
    if crc32(&bytes[..end]) != le32(end) {
        return Err(SnapshotError::CrcMismatch);
    }
    Ok(([le64(12), le64(20), le64(28)], &bytes[HEADER_LEN..end]))
}

/// Decodes and validates a snapshot envelope (magic, version, length, CRC).
pub fn decode(bytes: &[u8]) -> Result<SnapshotEnvelope, SnapshotError> {
    let ([master_seed, sim_clock_us, fingerprint], body) = frame(bytes)?;
    let text = std::str::from_utf8(body)
        .map_err(|_| SnapshotError::Parse("body is not utf-8".to_string()))?;
    Ok(SnapshotEnvelope {
        version: FORMAT_VERSION,
        master_seed,
        sim_clock_us,
        fingerprint,
        body: Val::parse(text)?,
    })
}

/// Validates a snapshot's envelope without parsing the body. Used by
/// checkpoint retention scans to find the newest *intact* file cheaply.
pub fn validate(bytes: &[u8]) -> Result<(), SnapshotError> {
    frame(bytes).map(|_| ())
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// 64-bit FNV-1a over bytes — the fingerprint and content-hash primitive.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// [`fnv1a`] of a string — the configuration fingerprint primitive.
pub fn fingerprint_str(s: &str) -> u64 {
    fnv1a(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Val {
        Val::map()
            .with("clock", Val::U64(12_345))
            .with("delta", Val::I64(-7))
            .with("name", Val::Str("sched/place \"x\"\n".to_string()))
            .with(
                "items",
                Val::List(vec![Val::U64(1), Val::from_f64(0.25), Val::List(vec![])]),
            )
            .with("nested", Val::map().with("k", Val::U64(0)))
    }

    #[test]
    fn render_parse_round_trip() {
        let v = sample();
        let text = v.render();
        let back = Val::parse(&text).unwrap();
        assert_eq!(v, back);
        // Canonical: re-rendering is the identity.
        assert_eq!(back.render(), text);
    }

    #[test]
    fn f64_bits_survive_exactly() {
        for x in [0.0, -0.0, 1.5, f64::MAX, f64::MIN_POSITIVE, -1.0e-300] {
            let v = Val::from_f64(x);
            let text = v.render();
            let back = Val::parse(&text).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn map_accessors() {
        let v = sample();
        assert_eq!(v.u("clock").unwrap(), 12_345);
        assert_eq!(v.i("delta").unwrap(), -7);
        assert_eq!(v.s("name").unwrap(), "sched/place \"x\"\n");
        assert_eq!(v.l("items").unwrap().len(), 3);
        assert!(v.u("missing").is_err());
        assert!(v.get("nested").unwrap().u("k").unwrap() == 0);
    }

    #[test]
    fn envelope_round_trip() {
        let body = sample();
        let bytes = encode(0xA5, 99_000_000, 0xDEAD_BEEF, &body);
        let env = decode(&bytes).unwrap();
        assert_eq!(env.version, FORMAT_VERSION);
        assert_eq!(env.master_seed, 0xA5);
        assert_eq!(env.sim_clock_us, 99_000_000);
        assert_eq!(env.fingerprint, 0xDEAD_BEEF);
        assert_eq!(env.body, body);
        validate(&bytes).unwrap();
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = encode(1, 2, 3, &Val::map());
        bytes[0] = b'X';
        assert_eq!(decode(&bytes), Err(SnapshotError::BadMagic));
        assert_eq!(validate(&bytes), Err(SnapshotError::BadMagic));
    }

    #[test]
    fn bad_version_detected() {
        let mut bytes = encode(1, 2, 3, &Val::map());
        bytes[8] = 0xFF;
        assert!(matches!(decode(&bytes), Err(SnapshotError::BadVersion(_))));
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode(1, 2, 3, &sample());
        for cut in [0, 4, HEADER_LEN, bytes.len() - 1] {
            let r = decode(&bytes[..cut]);
            assert!(
                matches!(
                    r,
                    Err(SnapshotError::Truncated) | Err(SnapshotError::BadMagic)
                ),
                "cut at {cut}: {r:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = encode(7, 8, 9, &sample());
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupted = bytes.clone();
                corrupted[byte] ^= 1 << bit;
                assert!(
                    decode(&corrupted).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        assert_eq!(fingerprint_str("abc"), fingerprint_str("abc"));
        assert_ne!(fingerprint_str("abc"), fingerprint_str("abd"));
        // Published FNV-1a vectors: stored fingerprints and manifest
        // content hashes depend on these exact values.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fingerprint_str("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn signed_extremes_round_trip() {
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            let val = Val::I64(v);
            assert_eq!(Val::parse(&val.render()).unwrap().as_i64().unwrap(), v);
        }
        let val = Val::U64(u64::MAX);
        assert_eq!(
            Val::parse(&val.render()).unwrap().as_u64().unwrap(),
            u64::MAX
        );
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        // 100,000 nested lists once overflowed the stack and aborted the
        // process; past MAX_DEPTH the parser now returns an error.
        let deep = "[".repeat(100_000);
        assert_eq!(
            Val::parse(&deep),
            Err(SnapshotError::Parse(format!(
                "nesting deeper than {MAX_DEPTH} at offset {MAX_DEPTH}"
            )))
        );
        assert!(Val::parse(&"{\"k\":".repeat(100_000)).is_err());
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Val::parse(&at_limit).is_ok());
        let past_limit = format!("[{at_limit}]");
        assert!(Val::parse(&past_limit).is_err());
    }

    #[test]
    fn parse_rejects_trailing_garbage() {
        assert!(Val::parse("u1 ").is_err());
        assert!(Val::parse("[u1,]").is_err());
        assert!(Val::parse("{\"a\":}").is_err());
        assert!(Val::parse("").is_err());
    }
}
