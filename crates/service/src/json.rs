//! Minimal JSON for the fleet-service wire protocol: a writer that
//! encodes a line in one pass, and a parser that decodes one into a
//! [`Json`] tree.
//!
//! The workspace is offline (no serde), and the protocol has two
//! bit-exactness requirements a float-backed parser would break:
//!
//! * 64-bit seeds must round-trip exactly, so numbers are stored as
//!   their **raw token** ([`Json::Num`]) and only converted at the
//!   accessor, never through an intermediate `f64`.
//! * power samples must round-trip to the same bits; finite `f64`s are
//!   encoded with Rust's shortest round-trip formatting and decoded
//!   with its correctly-rounded parser, which is an exact inverse.
//!
//! The writer ([`write_object`]) appends each field straight to the
//! output `String`: it builds no tree and no `String` per number.
//! Only what the protocol needs is implemented: UTF-8 text, the JSON
//! value kinds, `\uXXXX` escapes (including surrogate pairs), and a
//! recursive-descent parser with a depth limit.

use std::fmt::{self, Write};

/// A parsed JSON value. Numbers keep their source token.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number as it appeared on the wire.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Parse failure: byte offset and a short reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub at: usize,
    pub reason: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for JsonError {}

const MAX_DEPTH: usize = 64;

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Exact integer view of a number token (no float detour).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn f64s(&self) -> Option<Vec<f64>> {
        self.as_arr()?.iter().map(Json::as_f64).collect()
    }

    pub fn u64s(&self) -> Option<Vec<u64>> {
        self.as_arr()?.iter().map(Json::as_u64).collect()
    }

    /// Parses one JSON document; trailing whitespace is allowed,
    /// trailing garbage is not.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

fn encode_str(s: &str, out: &mut String) {
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

/// Writes one JSON object, with no whitespace, at the end of `out`;
/// `body` adds its fields in order.
pub fn write_object(out: &mut String, body: impl FnOnce(&mut ObjWriter<'_>)) {
    let mut w = ObjWriter { out, first: true };
    w.out.push('{');
    body(&mut w);
    w.out.push('}');
}

/// The fields of one object that [`write_object`] is writing.
pub struct ObjWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl ObjWriter<'_> {
    /// Writes `"key":value`.
    pub fn field<T: ToJson + ?Sized>(&mut self, key: &str, value: &T) -> &mut Self {
        self.key(key);
        value.write_json(self.out);
        self
    }

    /// Writes `"key":{…}`, a nested object whose fields `body` adds.
    pub fn object(&mut self, key: &str, body: impl FnOnce(&mut ObjWriter<'_>)) -> &mut Self {
        self.key(key);
        write_object(self.out, body);
        self
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        encode_str(key, self.out);
        self.out.push(':');
    }
}

/// A value [`ObjWriter::field`] can write.
pub trait ToJson {
    fn write_json(&self, out: &mut String);
}

/// Booleans and integers write as they display.
macro_rules! to_json_as_displayed {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                // Writing to a String cannot fail.
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

to_json_as_displayed!(bool, u32, u64, usize);

/// Shortest round-trip formatting; a non-finite value (never produced
/// by the simulator) writes `null` rather than invalid JSON.
impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self:?}");
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        encode_str(self, out);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        encode_str(self, out);
    }
}

/// `None` writes `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

/// A pair writes as a two-element array.
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: &'static str) -> JsonError {
        JsonError {
            at: self.pos,
            reason,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, lit: &str, reason: &'static str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(reason))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.eat("null", "expected null").map(|()| Json::Null),
            Some(b't') => self.eat("true", "expected true").map(|()| Json::Bool(true)),
            Some(b'f') => self
                .eat("false", "expected false")
                .map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Parser<'a>| {
            let s = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos > s
        };
        if !digits(self) {
            return Err(self.err("malformed number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.err("malformed fraction"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.err("malformed exponent"));
            }
        }
        // The scanned range is ASCII by construction, but this is peer
        // input: a logic slip above must surface as a parse error on
        // the connection, never as a worker panic.
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-UTF-8 number token"))?
            .to_string();
        Ok(Json::Num(token))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match c {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: the low half must follow.
                                self.eat("\\u", "expected low surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character")),
                Some(_) => {
                    // Copy the whole run of unescaped text at once. It
                    // ends at a quote, a backslash or a control byte —
                    // ASCII, so on a char boundary of the &str input —
                    // and each byte is validated once: decoding stays
                    // linear in the length of the string.
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("short \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex \\u digit"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected , or ]")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected :"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected , or }")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(body: impl FnOnce(&mut ObjWriter<'_>)) -> String {
        let mut out = String::new();
        write_object(&mut out, body);
        out
    }

    #[test]
    fn scalars_round_trip() {
        let text = line(|w| {
            w.field("n", &None::<u64>)
                .field("t", &true)
                .field("f", &false)
                .field("z", &0u64)
                .field("x", &-12.5)
                .field("e", &1e300);
        });
        assert_eq!(
            text,
            r#"{"n":null,"t":true,"f":false,"z":0,"x":-12.5,"e":1e300}"#
        );
        let v = Json::parse(&text).unwrap();
        assert!(matches!(v.get("n"), Some(Json::Null)));
        assert_eq!(v.get("t").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("f").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("z").and_then(Json::as_u64), Some(0));
        assert_eq!(v.get("x").and_then(Json::as_f64), Some(-12.5));
        assert_eq!(v.get("e").and_then(Json::as_f64), Some(1e300));
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        for v in [0u64, 1, u64::MAX, 0xF1EE7, (1 << 53) + 1] {
            let wire = line(|w| {
                w.field("seed", &v);
            });
            let parsed = Json::parse(&wire).unwrap();
            assert_eq!(parsed.get("seed").and_then(Json::as_u64), Some(v));
        }
    }

    #[test]
    fn f64_samples_round_trip_bitwise() {
        let values = [
            0.0,
            -0.0,
            359.9,
            83.125,
            f64::MIN_POSITIVE,
            f64::MAX,
            1.0 / 3.0,
            f64::from_bits(0x405526E41CAD1777),
        ];
        let wire = line(|w| {
            w.field("samples", &values[..]);
        });
        let back = Json::parse(&wire).unwrap();
        let back = back.get("samples").and_then(Json::f64s).unwrap();
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a:?} diverged");
        }
    }

    #[test]
    fn objects_nest_and_index() {
        let wire = line(|w| {
            w.field("a", &7u64)
                .field("b", &(f64::NAN, "x\n\"y".to_string()))
                .object("c", |w| {
                    w.field("d", &[1u64, 2][..]).object("e", |_| {});
                });
        });
        assert_eq!(
            wire,
            r#"{"a":7,"b":[null,"x\n\"y"],"c":{"d":[1,2],"e":{}}}"#
        );
        let parsed = Json::parse(&wire).unwrap();
        assert_eq!(parsed.get("a").unwrap().as_u64(), Some(7));
        let arr = parsed.get("b").unwrap().as_arr().unwrap();
        // A non-finite float writes null, never invalid JSON.
        assert!(matches!(arr[0], Json::Null));
        assert_eq!(arr[1].as_str(), Some("x\n\"y"));
        let c = parsed.get("c").unwrap();
        assert_eq!(c.get("d").and_then(Json::u64s), Some(vec![1, 2]));
        assert_eq!(c.get("e"), Some(&Json::Obj(Vec::new())));
    }

    #[test]
    fn escapes_and_unicode() {
        let parsed = Json::parse(r#""\u0041\u00e9\ud83d\ude00\t""#).unwrap();
        assert_eq!(parsed.as_str(), Some("Aé😀\t"));
        // Encoding control characters stays ASCII-clean.
        let wire = line(|w| {
            w.field("s", "a\u{1}b");
        });
        assert_eq!(wire, r#"{"s":"a\u0001b"}"#);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "1.",
            "1e",
            "\"\\q\"",
            "01x",
            "{}b",
            "\"\\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn long_strings_decode_in_linear_time() {
        // Regression: every unescaped character used to re-validate the
        // rest of the input, so decode time grew with the square of a
        // string's length, and a multi-MiB peer string held a
        // connection thread for hours. Parse on a spawned thread so a
        // quadratic decoder fails the test instead of hanging it.
        let chunk = "é".repeat(1 << 19) + &"x".repeat(1 << 20);
        let line = format!(r#"{{"profile":"{chunk}\n{chunk}"}}"#);
        assert!(line.len() > 4 << 20);
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || tx.send(Json::parse(&line)));
        let parsed = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a 4 MiB string decodes in well under a minute")
            .expect("valid JSON");
        worker
            .join()
            .expect("the decode thread does not panic")
            .expect("the result was received");
        let want = format!("{chunk}\n{chunk}");
        assert_eq!(parsed.get("profile").and_then(Json::as_str), Some(&*want));
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let bomb = "[".repeat(100_000);
        assert!(Json::parse(&bomb).is_err());
    }
}
