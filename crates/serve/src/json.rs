//! A minimal, hostile-input-hardened JSON *parser*.
//!
//! The workspace builds offline with no serde: `csat-telemetry::json`
//! writes JSON, and this module is the one place JSON is *read*. It
//! parses a complete value from a `&str` (one protocol frame — the
//! transport has already bounded the line length), with a hard recursion
//! depth cap so a `[[[[...` bomb cannot blow the stack. Errors carry a
//! byte position and a short message; they are what the daemon's
//! structured `error` replies quote back to the client.
//!
//! The grammar is standard JSON with two deliberate leniencies (this is a
//! request parser, not a validator): numbers are anything `f64` accepts
//! after a charset pre-scan (so `1e999` overflows to an error via the
//! finite check, but a leading zero like `01` is tolerated), and lone
//! `\uXXXX` surrogates decode to U+FFFD instead of erroring.

use std::fmt;

/// Maximum nesting depth of arrays/objects. Far above anything the job
/// protocol uses (its frames are flat), far below stack danger.
const MAX_DEPTH: u32 = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always finite).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order. Duplicate keys are kept as-is;
    /// [`Json::get`] returns the first.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object (first occurrence); `None` for
    /// non-objects and absent keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly
    /// (no fractional part, within `u64` range where `f64` is exact).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 9_007_199_254_740_992.0 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }
}

/// A parse failure: byte offset into the frame plus a short description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// What was wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.pos)
    }
}

/// Parses one complete JSON value; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            pos: self.pos,
            msg: msg.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: u32) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
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
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: u32) -> Result<Json, ParseError> {
        self.expect(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            // Surrogate pair, or U+FFFD for a lone half.
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if (0xDC00..0xE000).contains(&low) {
                                        let combined = 0x10000
                                            + ((unit as u32 - 0xD800) << 10)
                                            + (low as u32 - 0xDC00);
                                        char::from_u32(combined).unwrap_or('\u{FFFD}')
                                    } else {
                                        // Mispaired: the high half is lone
                                        // (U+FFFD), and the second escape is
                                        // rewound so the loop decodes it on
                                        // its own terms (it may start a valid
                                        // pair of its own).
                                        self.pos -= 6;
                                        '\u{FFFD}'
                                    }
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(unit as u32).unwrap_or('\u{FFFD}')
                            };
                            out.push(c);
                            continue; // hex4 advanced pos itself
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the whole run up to the next quote, escape or
                    // control byte at once. Those stop bytes are ASCII, so
                    // both ends of the run are char boundaries of `text`.
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u16::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        match s.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => {
                self.pos = start;
                Err(self.err("invalid number"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_frames() {
        let v = parse(r#"{"type": "solve", "id": "j1", "threads": 2, "negate": true}"#).unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("solve"));
        assert_eq!(v.get("id").and_then(Json::as_str), Some("j1"));
        assert_eq!(v.get("threads").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("negate").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("absent"), None);
    }

    #[test]
    fn parses_nested_values_and_escapes() {
        let v = parse(r#"{"a": [1, 2.5, null, false], "s": "x\n\"\u0041\u00e9"}"#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.5),
                Json::Null,
                Json::Bool(false)
            ]))
        );
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x\n\"Aé"));
    }

    #[test]
    fn unescaped_runs_copy_whole_around_escapes() {
        // Escapes at the start, middle and end of a string, around runs
        // holding 2-, 3- and 4-byte UTF-8 scalars.
        let v = parse(r#""\tnaïve \u00e9 ✓ 😀\n""#).unwrap();
        assert_eq!(v, Json::Str("\tnaïve é ✓ 😀\n".to_string()));
        let v = parse(r#""\"é\\✓😀\/""#).unwrap();
        assert_eq!(v, Json::Str("\"é\\✓😀/".to_string()));
        let v = parse(r#""😀x\u0041é""#).unwrap();
        assert_eq!(v, Json::Str("😀xAé".to_string()));
        assert_eq!(parse(r#""""#).unwrap(), Json::Str(String::new()));
        // A control byte inside a run is still rejected.
        assert!(parse("\"é\u{1}x\"").is_err());
    }

    #[test]
    fn surrogate_pairs_and_lone_halves() {
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("\u{1F600}".to_string())
        );
        assert_eq!(
            parse(r#""\ud83dx""#).unwrap(),
            Json::Str("\u{FFFD}x".to_string())
        );
    }

    #[test]
    fn mispaired_surrogates_decode_to_replacement_chars() {
        // High surrogate followed by a non-surrogate \u escape: the
        // hostile case that used to underflow `low - 0xDC00` and panic
        // debug builds. The high half is U+FFFD; the rewound second
        // escape stands alone.
        assert_eq!(
            parse(r#""\ud800\u0041""#).unwrap(),
            Json::Str("\u{FFFD}A".to_string())
        );
        // Two high halves in a row, and halves just outside the low
        // window on either side (0xDBFF below it, 0xE000 above it).
        assert_eq!(
            parse(r#""\ud800\ud800""#).unwrap(),
            Json::Str("\u{FFFD}\u{FFFD}".to_string())
        );
        assert_eq!(
            parse(r#""\ud800\udbff""#).unwrap(),
            Json::Str("\u{FFFD}\u{FFFD}".to_string())
        );
        assert_eq!(
            parse(r#""\ud800\ue000""#).unwrap(),
            Json::Str("\u{FFFD}\u{E000}".to_string())
        );
        // A high half shadowing a valid pair: the rewound second escape
        // still pairs with the third.
        assert_eq!(
            parse(r#""\ud800\ud83d\ude00""#).unwrap(),
            Json::Str("\u{FFFD}\u{1F600}".to_string())
        );
        // A lone low half was already U+FFFD before the fix.
        assert_eq!(
            parse(r#""\udc00\ud800x""#).unwrap(),
            Json::Str("\u{FFFD}\u{FFFD}x".to_string())
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\"}",
            "{\"a\": }",
            "[1, 2",
            "\"unterminated",
            "tru",
            "nul",
            "01x",
            "-",
            "1e999",
            "{\"a\": 1,}",
            "{'a': 1}",
            "\"\\q\"",
            "\"\\u12\"",
            "{\"a\": 1} extra",
            "\u{1}",
        ] {
            assert!(parse(bad).is_err(), "'{bad}' should fail");
        }
    }

    #[test]
    fn depth_bomb_is_rejected_not_overflowed() {
        let bomb = "[".repeat(10_000);
        let err = parse(&bomb).unwrap_err();
        assert!(err.msg.contains("deep"), "{err}");
    }

    #[test]
    fn u64_extraction_is_exact() {
        assert_eq!(parse("3").unwrap().as_u64(), Some(3));
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1e16").unwrap().as_u64(), None);
    }
}
