//! A small JSON value with a writer and a parser: enough for
//! `BENCHMARK.json`, the result files and the driver's result line. Object
//! keys keep their insertion order, so written files diff cleanly.

use std::fmt::{self, Write as _};

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
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
            Json::Arr(a) => a,
            _ => &[],
        }
    }

    /// Multi-line rendering for files people read.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth + 1);
        match self {
            // Leaf-only containers stay on one line.
            Json::Arr(items) if items.iter().any(|i| matches!(i, Json::Arr(_) | Json::Obj(_))) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    item.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{}]", "  ".repeat(depth));
            }
            Json::Obj(pairs)
                if pairs.iter().any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_))) =>
            {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    let _ = write!(out, "{pad}{}: ", Json::str(k.as_str()));
                    v.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{}}}", "  ".repeat(depth));
            }
            leaf => {
                let _ = write!(out, "{leaf}");
            }
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(v)
    }
}

/// Compact, single-line rendering (the driver's result line, JSONL spans).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            // Rust prints the shortest text that reads back to the same
            // f64, so every measured digit survives; JSON has no NaN/inf.
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => {
                f.write_char('"')?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        '\t' => f.write_str("\\t")?,
                        '\r' => f.write_str("\\r")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => f.write_char(c)?,
                    }
                }
                f.write_char('"')
            }
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {v}", Json::str(k.as_str()))?;
                }
                f.write_char('}')
            }
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.i += 1;
                let mut pairs = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.expect(b':')?;
                    pairs.push((k, self.value()?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(pairs));
                    }
                    self.expect(b',')?;
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    self.expect(b',')?;
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(self.s[self.i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = *self.s.get(self.i + 1).ok_or("unterminated escape")?;
                    self.i += 2;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            out.extend_from_slice(code.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1000.0)),
            ("name", Json::str("a \"quoted\"\\ line\nnext\u{1}")),
            ("nothing", Json::Null),
            (
                "metrics",
                Json::obj([(
                    "latency_ms",
                    Json::obj([("value", Json::Num(1.2034567891234)), ("unit", Json::str("ms"))]),
                )]),
            ),
            ("list", Json::Arr(vec![Json::Num(-0.5), Json::Num(1e-9), Json::Arr(vec![])])),
        ])
    }

    #[test]
    fn writer_round_trips_compact_and_pretty() {
        let v = sample();
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
        assert!(!v.to_string().contains('\n'), "the result line is one line");
    }

    #[test]
    fn numbers_keep_every_digit() {
        for x in [0.1 + 0.2, 1.0 / 3.0, 123456.789012345, 5e-324, 1e300] {
            assert_eq!(Json::parse(&Json::Num(x).to_string()).unwrap(), Json::Num(x));
        }
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn accessors_and_errors() {
        let v = sample();
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(1000.0));
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("latency_ms"))
                .and_then(|m| m.get("unit"))
                .and_then(Json::as_str),
            Some("ms")
        );
        assert_eq!(v.get("list").map(|l| l.as_arr().len()), Some(3));
        assert!(v.get("missing").is_none());
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("\"open").is_err());
    }
}
