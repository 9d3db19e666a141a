//! Minimal JSON value type, writer and parser.
//!
//! The workspace builds fully offline, so instead of serde it carries its
//! own small JSON module: enough to round-trip simulator snapshots
//! ([`crate::snapshot`]), DSE run records and benchmark/report files
//! (`BENCH_kernel.json`). Numbers are stored as `f64`; the writer prints
//! integral values without a fractional part so counters stay readable.
//! `u64` values that exceed the `f64` integer range (sequence numbers,
//! transaction tags) are encoded losslessly via [`ju64`]/[`ju64_of`].

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert (or append) a field on an object; errors on non-objects
    /// instead of panicking.
    pub fn set(&mut self, key: &str, value: Json) -> Result<(), JsonError> {
        match self {
            Json::Obj(fields) => {
                fields.push((key.to_string(), value));
                Ok(())
            }
            other => Err(JsonError {
                pos: 0,
                message: format!("Json::set on non-object {other:?}"),
            }),
        }
    }

    /// Builder-style [`Json::set`]; leaves `self` unchanged when it is not
    /// an object (asserting in debug builds).
    pub fn with(mut self, key: &str, value: Json) -> Json {
        let r = self.set(key, value);
        debug_assert!(r.is_ok(), "Json::with on a non-object");
        self
    }

    /// Field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Number as f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Number as u64 (must be integral and in range).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// String contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array elements.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Object key/value pairs, in insertion order.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Pretty serialization (two-space indent). Compact serialization is
    /// the `Display` impl / `to_string()`.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        // Writing into a String is infallible.
        let _ = self.write(&mut out, Some(2), 0);
        out
    }

    /// Stream the compact rendering into any [`std::fmt::Write`] sink.
    ///
    /// This is the canonical byte sequence `to_string()` produces, but
    /// without requiring the caller to materialize it — hashing sinks
    /// ([`Fnv1a`]) consume snapshots this way without building the string.
    pub fn write_compact<W: std::fmt::Write>(&self, sink: &mut W) -> std::fmt::Result {
        self.write(sink, None, 0)
    }

    /// FNV-1a (64-bit) hash of the compact rendering.
    ///
    /// The rendering is streamed byte-by-byte into the hash state; no
    /// intermediate string is allocated.
    pub fn fnv1a64(&self) -> u64 {
        self.fnv1a64_with_len().0
    }

    /// FNV-1a (64-bit) hash *and* byte length of the compact rendering,
    /// in one streaming pass. The length is what `to_string().len()` would
    /// report, without materializing the string — snapshot size accounting
    /// rides along with the hash for free.
    pub fn fnv1a64_with_len(&self) -> (u64, u64) {
        let mut h = Fnv1a::new();
        // The hashing sink never errors.
        let _ = self.write(&mut h, None, 0);
        (h.finish(), h.bytes())
    }

    fn write<W: std::fmt::Write>(
        &self,
        out: &mut W,
        indent: Option<usize>,
        depth: usize,
    ) -> std::fmt::Result {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.write_str("null")?,
            Json::Bool(b) => out.write_str(if *b { "true" } else { "false" })?,
            Json::Num(v) => write_num(out, *v)?,
            Json::Str(s) => write_str(out, s)?,
            Json::Arr(items) => {
                if items.is_empty() {
                    return out.write_str("[]");
                }
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    out.write_str(nl)?;
                    out.write_str(&pad_in)?;
                    item.write(out, indent, depth + 1)?;
                }
                out.write_str(nl)?;
                out.write_str(&pad)?;
                out.write_char(']')?;
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    return out.write_str("{}");
                }
                out.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    out.write_str(nl)?;
                    out.write_str(&pad_in)?;
                    write_str(out, k)?;
                    out.write_char(':')?;
                    if indent.is_some() {
                        out.write_char(' ')?;
                    }
                    v.write(out, indent, depth + 1)?;
                }
                out.write_str(nl)?;
                out.write_str(&pad)?;
                out.write_char('}')?;
            }
        }
        Ok(())
    }

    /// Parse a JSON document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.write(f, None, 0)
    }
}

/// Streaming FNV-1a 64-bit hasher, usable as a [`std::fmt::Write`] sink.
///
/// Used by `Simulator::state_hash` to fingerprint canonical snapshot
/// renderings without materializing them; also handy on its own for cheap
/// replay validation of any JSON artifact.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a {
    state: u64,
    bytes: u64,
}

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a {
            state: Self::OFFSET_BASIS,
            bytes: 0,
        }
    }

    /// Fold bytes into the hash state.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(Self::PRIME);
        }
        self.state = h;
        self.bytes += bytes.len() as u64;
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }

    /// Total bytes folded in so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

/// Largest integer `f64` can represent exactly (2^53).
const F64_EXACT: u64 = 1 << 53;

/// Encode a `u64` losslessly: as a number when `f64` can hold it exactly,
/// as a decimal string otherwise (transaction tags use bit 63).
pub fn ju64(v: u64) -> Json {
    if v <= F64_EXACT {
        Json::Num(v as f64)
    } else {
        Json::Str(v.to_string())
    }
}

/// Decode a `u64` written by [`ju64`] (accepts either encoding).
pub fn ju64_of(j: &Json) -> Option<u64> {
    match j {
        Json::Num(_) => j.as_u64(),
        Json::Str(s) => s.parse().ok(),
        _ => None,
    }
}

/// Encode an `i64` losslessly: as a number when `f64` can hold it exactly,
/// as a decimal string otherwise (signal values may use the full range).
pub fn ji64(v: i64) -> Json {
    if v.unsigned_abs() <= F64_EXACT {
        Json::Num(v as f64)
    } else {
        Json::Str(v.to_string())
    }
}

/// Decode an `i64` written by [`ji64`] (accepts either encoding).
pub fn ji64_of(j: &Json) -> Option<i64> {
    match j {
        Json::Num(v) if v.fract() == 0.0 && v.abs() <= F64_EXACT as f64 => Some(*v as i64),
        Json::Str(s) => s.parse().ok(),
        _ => None,
    }
}

fn write_num<W: std::fmt::Write>(out: &mut W, v: f64) -> std::fmt::Result {
    if !v.is_finite() {
        // JSON has no Inf/NaN; encode as null like most emitters.
        out.write_str("null")
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        write!(out, "{}", v as i64)
    } else {
        write!(out, "{v}")
    }
}

fn write_str<W: std::fmt::Write>(out: &mut W, s: &str) -> std::fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32)?;
            }
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Parse failure with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte position of the failure.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.message)
    }
}
impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            message: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for our data.
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume a maximal run of unescaped bytes in one go.
                    // Validating only the run keeps parsing linear — a
                    // per-character `from_utf8` of the whole tail made
                    // multi-megabyte documents (merged sharded traces)
                    // quadratic.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    s.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn ju64_round_trips_large_values() {
        for v in [0u64, 7, F64_EXACT, F64_EXACT + 1, 1 << 63, u64::MAX] {
            assert_eq!(ju64_of(&ju64(v)), Some(v), "{v}");
            let text = ju64(v).to_string();
            assert_eq!(ju64_of(&Json::parse(&text).unwrap()), Some(v), "{v}");
        }
        assert_eq!(ju64_of(&Json::Null), None);
    }

    #[test]
    fn round_trips_compact_and_pretty() {
        let v = Json::obj()
            .with("name", "drcf".into())
            .with("n", 42u64.into())
            .with("pi", 3.5.into())
            .with("ok", true.into())
            .with(
                "arr",
                Json::Arr(vec![Json::Null, 1u64.into(), "x\n\"y".into()]),
            );
        for text in [v.to_string(), v.to_string_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"a": 3, "b": "s", "c": [true, null], "d": -1.5}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("b").unwrap().as_str(), Some("s"));
        assert_eq!(v.get("c").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            v.get("c").unwrap().as_arr().unwrap()[0].as_bool(),
            Some(true)
        );
        assert_eq!(v.get("d").unwrap().as_f64(), Some(-1.5));
        assert_eq!(v.get("d").unwrap().as_u64(), None);
        assert!(v.get("missing").is_none());
        let pairs = v.as_obj().unwrap();
        assert_eq!(pairs.len(), 4);
        assert_eq!(pairs[0].0, "a");
        assert!(v.get("c").unwrap().as_obj().is_none());
    }

    #[test]
    fn integral_numbers_print_without_fraction() {
        assert_eq!(Json::Num(7.0).to_string(), "7");
        assert_eq!(Json::Num(7.25).to_string(), "7.25");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("1 2").is_err());
    }

    #[test]
    fn set_on_non_object_is_an_error_not_a_panic() {
        let mut v = Json::Num(1.0);
        let err = v
            .set("k", Json::Null)
            .expect_err("non-object must reject set");
        assert!(err.message.contains("non-object"), "{}", err.message);
        assert_eq!(v, Json::Num(1.0), "value is untouched");
        let mut o = Json::obj();
        assert!(o.set("k", true.into()).is_ok());
        assert_eq!(o.get("k").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn malformed_inputs_are_errors_with_positions() {
        for bad in ["-", "1e", "\"", "\"ab", "[1, }", "{\"a\"}", "nul", "+1", ""] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(!err.message.is_empty());
            assert!(err.pos <= bad.len(), "{}: pos {}", bad, err.pos);
        }
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn fnv1a_matches_hash_of_rendered_bytes() {
        let v = Json::obj()
            .with("name", "drcf".into())
            .with("n", ju64(u64::MAX))
            .with(
                "arr",
                Json::Arr(vec![Json::Null, 1.5.into(), "x\"y".into()]),
            );
        let mut h = Fnv1a::new();
        h.update(v.to_string().as_bytes());
        assert_eq!(v.fnv1a64(), h.finish(), "streamed hash == hash of bytes");
        // Distinct documents hash apart.
        assert_ne!(v.fnv1a64(), Json::obj().fnv1a64());
        // Known vectors: empty input is the offset basis, "a" the classic one.
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut a = Fnv1a::new();
        a.update(b"a");
        assert_eq!(a.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn write_compact_streams_display_form() {
        let v = Json::Arr(vec![Json::Bool(true), Json::Num(2.0)]);
        let mut s = String::new();
        v.write_compact(&mut s).unwrap();
        assert_eq!(s, v.to_string());
    }

    #[test]
    fn parses_escapes() {
        let v = Json::parse(r#""aA\n\t\"\\""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\n\t\"\\"));
    }
}
