//! A small JSON value, writer and parser.
//!
//! The workspace has no serde (see `../vendor/README.md`), so results
//! files, `trace.jsonl`, the driver's result line and `BENCHMARK.json`
//! all go through this one module.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is kept as written, so files diff cleanly.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => &[],
        }
    }

    pub fn as_obj(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(v) => v,
            _ => &[],
        }
    }

    /// One line, no spaces: the form for `trace.jsonl` and the result line.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, false, 0);
        out
    }

    /// Indented, with containers of scalars kept on one line: the form
    /// for committed results files.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, true, 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write(&self, out: &mut String, pretty: bool, depth: usize) {
        // Pretty: a container of scalars stays on one line; others
        // break, one child a line.
        let block = |all_scalar: bool| (pretty && !all_scalar).then_some(INDENT * depth);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let block = block(items.iter().all(Json::is_scalar));
                write_seq(out, "[]", items.len(), pretty, block, |out, i| {
                    items[i].write(out, pretty, depth + 1);
                });
            }
            Json::Obj(pairs) => {
                let block = block(pairs.iter().all(|(_, v)| v.is_scalar()));
                write_seq(out, "{}", pairs.len(), pretty, block, |out, i| {
                    write_str(out, &pairs[i].0);
                    out.push_str(if pretty { ": " } else { ":" });
                    pairs[i].1.write(out, pretty, depth + 1);
                });
            }
        }
    }
}

/// Spaces per level of a pretty-printed document.
const INDENT: usize = 2;

/// Write `len` items between `brackets`. With `block` every item goes
/// on a line of its own, one level deeper than the closing bracket's
/// `block` spaces; without, the container stays on one line, with a
/// space after each comma if `spaced`.
fn write_seq(
    out: &mut String,
    brackets: &str,
    len: usize,
    spaced: bool,
    block: Option<usize>,
    mut item: impl FnMut(&mut String, usize),
) {
    let newline = |out: &mut String, pad: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', pad));
    };
    out.push_str(&brackets[..1]);
    for i in 0..len {
        if i > 0 {
            out.push_str(if spaced && block.is_none() { ", " } else { "," });
        }
        if let Some(pad) = block {
            newline(out, pad + INDENT);
        }
        item(out, i);
    }
    if let Some(pad) = block.filter(|_| len > 0) {
        newline(out, pad);
    }
    out.push_str(&brackets[1..]);
}

/// Rust's `{}` for `f64` is the shortest text that parses back to the
/// same bits, so measured values keep all their digits.
fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse one JSON document. Covers what this benchmark writes and what
/// `BENCHMARK.json` holds; `\u` escapes outside the basic plane are
/// rejected rather than guessed at.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek().ok_or("unexpected end of input")? {
            b'n' => self.literal("null", Json::Null),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'"' => Ok(Json::Str(self.string()?)),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    pairs.push((key, self.value()?));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            _ => self.number(),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let b = self.peek().ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                b => out.push(b),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj([
            ("name", Json::str("pm.inproc2 \"quoted\"\n\ttab\\")),
            ("count", Json::Num(123_456_789.0)),
            ("time", Json::Num(0.412_345_678_901_234_5)),
            ("tiny", Json::Num(1.5e-9)),
            ("neg", Json::Num(-3.25)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
            (
                "nested",
                Json::Arr(vec![
                    Json::obj([("value", Json::Num(1.0)), ("unit", Json::str("s"))]),
                    Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)]),
                ]),
            ),
        ])
    }

    #[test]
    fn compact_round_trips() {
        let j = sample();
        assert_eq!(parse(&j.compact()).unwrap(), j);
        assert!(!j.compact().contains('\n'));
    }

    #[test]
    fn pretty_round_trips() {
        let j = sample();
        assert_eq!(parse(&j.pretty()).unwrap(), j);
    }

    #[test]
    fn numbers_keep_every_digit() {
        for v in [0.1 + 0.2, 1.0 / 3.0, 6.02e23, 5e-324, 818.234_567_891_234] {
            let back = parse(&Json::Num(v).compact()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        assert_eq!(Json::Num(42.0).compact(), "42");
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"open"] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
