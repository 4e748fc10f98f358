//! Minimal JSON support shared by the workspace: compact JSON output for
//! any `serde::Serialize` type, and a small recursive-descent parser into
//! [`JsonValue`] for reading results back (e.g. the autotuner's persistent
//! result cache).
//!
//! This avoids a `serde_json` dependency: the vendored `serde::Serialize`
//! writes JSON itself, and the parser reads only the constructs our results
//! use — objects, arrays, strings, numbers, bools, null.

use serde::Serialize;
use std::collections::BTreeMap;

/// Serializes `data` as JSON into `path`.
pub fn write_json<T: Serialize>(path: &str, data: &T) -> std::io::Result<()> {
    std::fs::write(path, to_json_string(data))
}

/// Serializes `data` to a compact JSON string.
pub fn to_json_string<T: Serialize>(data: &T) -> String {
    let mut out = String::new();
    data.serialize(&mut out);
    out
}

/// Error of the JSON parser.
#[derive(Debug)]
pub struct JsonErr(String);

impl std::fmt::Display for JsonErr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for JsonErr {}

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as f64, which covers every value this
    /// workspace writes).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, with keys in sorted order.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The object map, if this value is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The numeric value, if this value is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The array, if this value is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. The parser recurses
/// once per level, so without a limit a request body of 10,000 `[` bytes
/// overflows the stack of the thread parsing it. The deepest document the
/// workspace writes, `model_validate --json`, nests 6 levels.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document. Arrays and objects nested deeper than
/// `MAX_DEPTH` (128) levels are an error.
pub fn parse_json(input: &str) -> Result<JsonValue, JsonErr> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonErr(format!("trailing garbage at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonErr> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonErr(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// Parses one value inside `depth` open arrays and objects.
    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonErr> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(JsonErr(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ))),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') if self.literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'n') if self.literal("null") => Ok(JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(JsonErr(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonErr> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value(depth)?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => {
                    return Err(JsonErr(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonErr> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(JsonErr(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonErr> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonErr("unterminated string".into())),
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
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| JsonErr("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| JsonErr("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| JsonErr("bad \\u escape".into()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| JsonErr("bad \\u code point".into()))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(JsonErr(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is valid UTF-8 by
                    // construction of &str).
                    let s = &self.bytes[self.pos..];
                    let ch_len = match s[0] {
                        b if b < 0x80 => 1,
                        b if b >= 0xF0 => 4,
                        b if b >= 0xE0 => 3,
                        _ => 2,
                    };
                    out.push_str(std::str::from_utf8(&s[..ch_len]).unwrap());
                    self.pos += ch_len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonErr> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|e| JsonErr(format!("bad number {text:?}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    #[derive(Serialize)]
    struct Row {
        n: usize,
        gbs: f64,
        label: String,
        flag: bool,
        opt: Option<u32>,
    }

    #[test]
    fn json_round_trippable_shape() {
        let row = Row {
            n: 42,
            gbs: 12.5,
            label: "tri\"ad".into(),
            flag: true,
            opt: None,
        };
        let json = to_json_string(&row);
        assert_eq!(
            json,
            r#"{"n":42,"gbs":12.5,"label":"tri\"ad","flag":true,"opt":null}"#
        );
    }

    #[test]
    fn json_vec_of_structs() {
        #[derive(Serialize)]
        struct P {
            x: u32,
        }
        let json = to_json_string(&vec![P { x: 1 }, P { x: 2 }]);
        assert_eq!(json, r#"[{"x":1},{"x":2}]"#);
    }

    #[test]
    fn json_enum_variants() {
        #[derive(Serialize)]
        enum E {
            Unit,
            Tuple(u32, u32),
            Struct { a: u32 },
        }
        assert_eq!(to_json_string(&E::Unit), r#""Unit""#);
        assert_eq!(to_json_string(&E::Tuple(1, 2)), r#"{"Tuple":[1,2]}"#);
        assert_eq!(to_json_string(&E::Struct { a: 3 }), r#"{"Struct":{"a":3}}"#);
    }

    #[test]
    fn json_nested_map() {
        use std::collections::BTreeMap;
        let mut m = BTreeMap::new();
        m.insert("a", vec![1u32, 2]);
        m.insert("b", vec![]);
        assert_eq!(to_json_string(&m), r#"{"a":[1,2],"b":[]}"#);
    }

    #[test]
    fn json_shapes_keep_their_bytes() {
        // One case per shape the writer keeps; the expected bytes were
        // captured before the writer was last rewritten.
        #[derive(Serialize)]
        enum Sched {
            StaticChunk(usize),
        }
        let ints = BTreeMap::from([(7u32, "a"), (10, "b")]);
        let cases = [
            (
                to_json_string(&Sched::StaticChunk(4)),
                r#"{"StaticChunk":4}"#,
            ),
            (to_json_string(&Some(Some(3u32))), "3"),
            (to_json_string(&Some(None::<u32>)), "null"),
            (to_json_string(&None::<Option<u32>>), "null"),
            (to_json_string(&("ab", 5usize)), r#"["ab",5]"#),
            (to_json_string(&(1u64, -2.5f64, true)), "[1,-2.5,true]"),
            (to_json_string(&[1u32, 2, 3]), "[1,2,3]"),
            (to_json_string(&ints), r#"{"7":"a","10":"b"}"#),
            (
                to_json_string(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
                "[null,null,null]",
            ),
            (
                to_json_string(&"q\"b\\n\nt\tr\r\u{1}"),
                r#""q\"b\\n\nt\tr\r\u0001""#,
            ),
        ];
        for (got, want) in cases {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse_json("-1.5e2").unwrap(), JsonValue::Number(-150.0));
        assert_eq!(
            parse_json(r#""a\nbA""#).unwrap(),
            JsonValue::String("a\nbA".into())
        );
    }

    #[test]
    fn parse_nested() {
        let v = parse_json(r#"{"a": [1, 2, {"b": "x"}], "c": {}}"#).unwrap();
        let obj = v.as_object().unwrap();
        let arr = obj["a"].as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[2].as_object().unwrap()["b"].as_str(), Some("x"));
        assert!(obj["c"].as_object().unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("1 2").is_err());
        assert!(parse_json("nul").is_err());
    }

    #[test]
    fn parse_refuses_nesting_past_the_limit() {
        // A whole 64 KiB request body of `[` is refused, not a stack overflow.
        let err = parse_json(&"[".repeat(64 * 1024)).unwrap_err().to_string();
        assert!(err.contains("deeper than 128 levels"), "{err}");

        let arrays = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        let objects = |d: usize| format!("{}1{}", r#"{"a":"#.repeat(d), "}".repeat(d));
        assert!(parse_json(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse_json(&objects(MAX_DEPTH)).is_ok());
        assert!(parse_json(&arrays(MAX_DEPTH + 1)).is_err());
        assert!(parse_json(&objects(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn serializer_output_parses_back() {
        let row = Row {
            n: 7,
            gbs: 3.25,
            label: "stream \"x\"\n".into(),
            flag: false,
            opt: Some(9),
        };
        let parsed = parse_json(&to_json_string(&row)).unwrap();
        let obj = parsed.as_object().unwrap();
        assert_eq!(obj["n"].as_f64(), Some(7.0));
        assert_eq!(obj["gbs"].as_f64(), Some(3.25));
        assert_eq!(obj["label"].as_str(), Some("stream \"x\"\n"));
        assert_eq!(obj["flag"], JsonValue::Bool(false));
        assert_eq!(obj["opt"].as_f64(), Some(9.0));
    }
}
