//! Minimal JSON support for the LFI tool chain.
//!
//! Fault profiles and injection logs are exchanged as JSON documents (the
//! analogue of the original tool's XML fault-profile files). The build
//! environment cannot fetch `serde_json`, so this crate provides the small
//! piece actually needed: an ordered [`Value`] model, a strict parser, and a
//! pretty-printer whose output matches `serde_json::to_string_pretty`'s
//! layout (two-space indent, `"key": value` pairs).

use std::collections::BTreeMap;
use std::fmt;

/// A JSON document node. Object keys keep insertion order so emitted
/// documents are stable and diff-friendly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (all numbers in LFI documents are 64-bit integers).
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The integer payload, if this is a number.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Member lookup, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object members as an ordered map, if this is an object.
    pub fn as_obj(&self) -> Option<BTreeMap<&str, &Value>> {
        match self {
            Value::Obj(members) => Some(members.iter().map(|(k, v)| (k.as_str(), v)).collect()),
            _ => None,
        }
    }

    /// Render with two-space indentation (serde_json pretty layout).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Render on a single line with no insignificant whitespace
    /// (`{"key":value}` / `[1,2]`) — the framing line-delimited streams
    /// (JSONL) require, where a pretty-printed value would split one
    /// document across many lines.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(v) => out.push_str(&v.to_string()),
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(v) => out.push_str(&v.to_string()),
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Value::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in members.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                    if i + 1 < members.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// JSON parse error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input.
    pub position: usize,
    /// Problem description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for JsonError {}

/// A schema error in a document that parsed: a field is missing or has
/// the wrong type. It carries no byte position (0).
pub fn invalid(message: impl Into<String>) -> JsonError {
    JsonError {
        position: 0,
        message: message.into(),
    }
}

/// The string field `key` of an object.
pub fn str_field(value: &Value, key: &str) -> Result<String, JsonError> {
    value
        .get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| invalid(format!("missing string field `{key}`")))
}

/// The integer field `key` of an object.
pub fn int_field(value: &Value, key: &str) -> Result<i64, JsonError> {
    value
        .get(key)
        .and_then(Value::as_int)
        .ok_or_else(|| invalid(format!("missing integer field `{key}`")))
}

/// Nesting bound for arrays/objects: recursive descent must not overflow
/// the stack on corrupt or adversarial input.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.text.len() && self.text[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.get(self.pos).copied()
    }

    fn eat(&mut self, token: &str) -> Result<(), JsonError> {
        if self.text[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(self.err(format!("expected `{token}`")))
        }
    }

    fn parse_value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        if self.depth >= MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = self.parse_value_inner();
        self.depth -= 1;
        value
    }

    fn parse_value_inner(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat("null").map(|_| Value::Null),
            Some(b't') => self.eat("true").map(|_| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.err(format!("unexpected byte `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("only integer numbers are supported"));
        }
        let text = std::str::from_utf8(&self.text[start..self.pos]).expect("digits are UTF-8");
        text.parse()
            .map(Value::Int)
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.text.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.text[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(escape) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.parse_hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\uDC00`-`\uDFFF`, together
                            // encoding one supplementary-plane character.
                            let code = if (0xD800..0xDC00).contains(&code) {
                                if self.eat("\\u").is_err() {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                                let low = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                        }
                        other => {
                            return Err(self.err(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Multi-byte UTF-8: re-decode from the byte before.
                    let rest = &self.text[self.pos - 1..];
                    let decoded = std::str::from_utf8(&rest[..rest.len().min(4)])
                        .ok()
                        .and_then(|s| s.chars().next())
                        .or_else(|| {
                            (1..=3).find_map(|n| {
                                std::str::from_utf8(rest.get(..n)?)
                                    .ok()
                                    .and_then(|s| s.chars().next())
                            })
                        })
                        .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
                    self.pos += decoded.len_utf8() - 1;
                    out.push(decoded);
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, JsonError> {
        self.eat("[")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, JsonError> {
        self.eat("{")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(":")?;
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Parse one JSON document; trailing garbage is an error.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut parser = Parser {
        text: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.text.len() {
        return Err(parser.err("trailing characters after document"));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_documents() {
        let doc = Value::Obj(vec![
            ("library".into(), Value::Str("libc".into())),
            (
                "cases".into(),
                Value::Arr(vec![
                    Value::Obj(vec![
                        ("retval".into(), Value::Int(-1)),
                        ("errno".into(), Value::Int(9)),
                    ]),
                    Value::Obj(vec![
                        ("retval".into(), Value::Int(0)),
                        ("errno".into(), Value::Null),
                    ]),
                ]),
            ),
            ("dynamic".into(), Value::Bool(true)),
        ]);
        let text = doc.to_pretty();
        assert!(text.contains("\"errno\": 9"));
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn compact_rendering_is_single_line_and_reparses() {
        let doc = Value::Obj(vec![
            ("type".into(), Value::Str("unit_finished".into())),
            (
                "values".into(),
                Value::Arr(vec![Value::Int(1), Value::Null, Value::Bool(false)]),
            ),
            ("empty_obj".into(), Value::Obj(vec![])),
            ("empty_arr".into(), Value::Arr(vec![])),
            ("note".into(), Value::Str("line\nbreak".into())),
        ]);
        let text = doc.to_compact();
        assert!(!text.contains('\n'), "one document, one line: {text}");
        assert_eq!(
            text,
            r#"{"type":"unit_finished","values":[1,null,false],"empty_obj":{},"empty_arr":[],"note":"line\nbreak"}"#
        );
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn escapes_and_unescapes_strings() {
        let doc = Value::Str("a\"b\\c\nd\te\u{1}".into());
        let text = doc.to_pretty();
        assert_eq!(text, r#""a\"b\\c\nd\te\u0001""#);
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn parses_unicode_and_whitespace() {
        let value = parse("  { \"k\" : [ 1 , -2 , \"caf\u{e9}\" , null , false ] } ").unwrap();
        let items = value.get("k").unwrap().as_arr().unwrap();
        assert_eq!(items[0].as_int(), Some(1));
        assert_eq!(items[1].as_int(), Some(-2));
        assert_eq!(items[2].as_str(), Some("caf\u{e9}"));
        assert_eq!(items[3], Value::Null);
        assert_eq!(items[4].as_bool(), Some(false));
    }

    #[test]
    fn decodes_surrogate_pair_escapes() {
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            Value::Str("\u{1F600}".into())
        );
        // Literal (non-escaped) multi-byte UTF-8 also round-trips.
        assert_eq!(
            parse("\"\u{1F600}\"").unwrap(),
            Value::Str("\u{1F600}".into())
        );
        for bad in [r#""\ud83d""#, r#""\ud83dx""#, r#""\ud83dA""#] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing_the_stack() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "got: {}", err.message);
        // Reasonable nesting still parses.
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\"}", "tru", "1.5", "\"\\q\"", "{} {}"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }
}
