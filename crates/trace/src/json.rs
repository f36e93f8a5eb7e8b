//! Minimal JSON writing helpers shared by every exporter in the workspace
//! (`gh-trace` exporters, `gh-perf`'s profile, `gh-sim`'s run report), so
//! string escaping lives in exactly one place — plus a small
//! recursive-descent reader ([`Value::parse`]) for the tests that load
//! those dumps back (the exporter roundtrip tests). No external crates:
//! the build is offline.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Appends `s` to `out` with JSON string escaping (quotes, backslashes,
/// and control characters are escaped, not dropped).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Appends `s` as a quoted JSON string.
pub fn quote_into(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Returns `s` as a quoted JSON string.
pub fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    quote_into(&mut out, s);
    out
}

/// Formats an `f64` as a JSON value (`null` for non-finite values, which
/// JSON cannot represent).
pub fn f64_value(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

/// A parsed JSON value. Objects use `BTreeMap` so re-serialization and
/// comparison are deterministic regardless of input key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; exporter integers fit exactly
    /// up to 2^53, far beyond any count or ns total we compare).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(src: &str) -> Result<Value, String> {
        let mut p = Parser {
            b: src.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing garbage at byte {}", p.i));
        }
        Ok(v)
    }

    /// Object member by key (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The number in this value, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string in this value, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array in this value, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The object map in this value, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .b
            .get(self.i)
            .is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.i += 1;
        }
    }

    fn require(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found {:?}",
                c as char,
                self.i,
                self.b.get(self.i).map(|&x| x as char)
            ))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.b.get(self.i) {
            Some(b'n') => self.eat_lit("null", Value::Null),
            Some(b't') => self.eat_lit("true", Value::Bool(true)),
            Some(b'f') => self.eat_lit("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|&x| x as char),
                self.i
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.require(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            // Exporters only emit \u for control chars;
                            // surrogate pairs fall back to U+FFFD.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|&x| x as char))),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input came from &str, so
                    // boundaries are valid).
                    let rest = &self.b[self.i..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let ch = s.chars().next().ok_or("empty string tail")?;
                    out.push(ch);
                    self.i += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let txt = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        txt.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number `{txt}` at byte {start}"))
    }

    fn array(&mut self) -> Result<Value, String> {
        self.require(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.require(b'{')?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Value::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.require(b':')?;
            let val = self.value()?;
            out.insert(key, val);
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(out));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_and_backslashes() {
        assert_eq!(quoted(r#"a"b\c"#), r#""a\"b\\c""#);
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(quoted("a\nb\tc\u{1}d"), "\"a\\nb\\tc\\u0001d\"");
    }

    #[test]
    fn passes_unicode_through() {
        assert_eq!(quoted("π≈3"), "\"π≈3\"");
    }

    #[test]
    fn f64_non_finite_is_null() {
        assert_eq!(f64_value(1.5), "1.5");
        assert_eq!(f64_value(f64::NAN), "null");
        assert_eq!(f64_value(f64::INFINITY), "null");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("false").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("42").unwrap(), Value::Num(42.0));
        assert_eq!(Value::parse("-1.5e3").unwrap(), Value::Num(-1500.0));
        assert_eq!(
            Value::parse("\"hi\"").unwrap(),
            Value::Str("hi".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Value::parse(r#"{"a":[1,2,{"b":null}],"c":{"d":true}}"#).unwrap();
        let a = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[2].get("b"), Some(&Value::Null));
        assert_eq!(
            v.get("c").and_then(|c| c.get("d")),
            Some(&Value::Bool(true))
        );
    }

    #[test]
    fn parses_empty_containers() {
        assert_eq!(Value::parse("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(Value::parse("{}").unwrap(), Value::Obj(BTreeMap::new()));
        assert_eq!(Value::parse("[ ]").unwrap(), Value::Arr(vec![]));
    }

    #[test]
    fn roundtrips_escaped_strings() {
        let original = "a\"b\\c\nd\u{1}e π";
        let v = Value::parse(&quoted(original)).unwrap();
        assert_eq!(v.as_str(), Some(original));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("{\"a\" 1}").is_err());
        assert!(Value::parse("1 2").is_err());
        assert!(Value::parse("\"open").is_err());
        assert!(Value::parse("nul").is_err());
    }

    #[test]
    fn parses_own_exporter_output_shape() {
        // The shape metrics_json / chrome_trace emit: nested objects
        // keyed by dotted names, numeric leaves, null for non-finite.
        let doc = r#"{"counters":{"os.cpu_faults":3},"gauges":{"g":null},
                      "histograms":{"h":{"count":1,"p50":700,"buckets":{"512":1}}}}"#;
        let v = Value::parse(doc).unwrap();
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("os.cpu_faults"))
                .and_then(Value::as_f64),
            Some(3.0)
        );
        assert_eq!(v.get("gauges").and_then(|g| g.get("g")), Some(&Value::Null));
        let h = v.get("histograms").and_then(|h| h.get("h")).unwrap();
        assert_eq!(h.get("p50").and_then(Value::as_f64), Some(700.0));
        assert_eq!(h.get("buckets").and_then(Value::as_obj).unwrap().len(), 1);
    }
}
