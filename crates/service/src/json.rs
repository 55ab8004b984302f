//! Minimal JSON value model for the fleet-service wire protocol.
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
//! Only what the protocol needs is implemented: UTF-8 text, the JSON
//! value kinds, `\uXXXX` escapes (including surrogate pairs), and a
//! recursive-descent parser with a depth limit.

use std::fmt;

/// A parsed JSON value. Numbers keep their source token.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number as it appeared on the wire (or as formatted for it).
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
    pub fn of_bool(v: bool) -> Json {
        Json::Bool(v)
    }

    pub fn of_str(v: &str) -> Json {
        Json::Str(v.to_string())
    }

    pub fn of_u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    pub fn of_usize(v: usize) -> Json {
        Json::Num(v.to_string())
    }

    /// Shortest round-trip encoding; non-finite values (never produced
    /// by the simulator) degrade to `null` rather than invalid JSON.
    pub fn of_f64(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v:?}"))
        } else {
            Json::Null
        }
    }

    pub fn of_f64s(vs: &[f64]) -> Json {
        Json::Arr(vs.iter().map(|&v| Json::of_f64(v)).collect())
    }

    pub fn of_u64s(vs: &[u64]) -> Json {
        Json::Arr(vs.iter().map(|&v| Json::of_u64(v)).collect())
    }

    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a field to an object (panics on non-objects: the
    /// builders below only ever call it on [`Json::obj`]).
    pub fn set(mut self, key: &str, value: Json) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value)),
            // fs2-lint: allow(no-panic-service) -- encode-side builder invariant: every caller chains off Json::obj(), wire input never reaches set()
            _ => panic!("set() on a non-object"),
        }
        self
    }

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

    /// Serializes without any whitespace (one request per line).
    pub fn encode(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(t) => out.push_str(t),
            Json::Str(s) => encode_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.encode(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_str(k, out);
                    out.push(':');
                    v.encode(out);
                }
                out.push('}');
            }
        }
    }

    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.encode(&mut out);
        out
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

    #[test]
    fn scalars_round_trip() {
        for line in ["null", "true", "false", "0", "-12", "3.5", "1e300"] {
            assert_eq!(Json::parse(line).unwrap().to_line(), line);
        }
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        for v in [0u64, 1, u64::MAX, 0xF1EE7, (1 << 53) + 1] {
            let wire = Json::of_u64(v).to_line();
            assert_eq!(Json::parse(&wire).unwrap().as_u64(), Some(v));
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
        let wire = Json::of_f64s(&values).to_line();
        let back = Json::parse(&wire).unwrap().f64s().unwrap();
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a:?} diverged");
        }
    }

    #[test]
    fn objects_nest_and_index() {
        let v = Json::obj()
            .set("a", Json::of_u64(7))
            .set("b", Json::Arr(vec![Json::Null, Json::of_str("x\n\"y")]));
        let parsed = Json::parse(&v.to_line()).unwrap();
        assert_eq!(parsed.get("a").unwrap().as_u64(), Some(7));
        let arr = parsed.get("b").unwrap().as_arr().unwrap();
        assert!(matches!(arr[0], Json::Null));
        assert_eq!(arr[1].as_str(), Some("x\n\"y"));
    }

    #[test]
    fn escapes_and_unicode() {
        let parsed = Json::parse(r#""\u0041\u00e9\ud83d\ude00\t""#).unwrap();
        assert_eq!(parsed.as_str(), Some("Aé😀\t"));
        // Encoding control characters stays ASCII-clean.
        assert_eq!(Json::of_str("a\u{1}b").to_line(), r#""a\u0001b""#);
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
