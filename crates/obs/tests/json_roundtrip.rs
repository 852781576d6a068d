//! Property test: every `EventRecord::to_json` line is valid JSON and
//! string payloads survive the escape/parse round trip.
//!
//! The workspace writes all of its JSON by hand, so nothing but these
//! tests stands between a control character in a region name and a
//! corrupt JSONL decision log. The validator below is an intentionally
//! minimal recursive-descent JSON parser — independent of
//! `acm_obs::json`, so a shared bug cannot vacuously pass.

use acm_obs::{EventRecord, Value};
use proptest::prelude::*;

/// Parsed JSON value, just enough structure for the assertions.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, String> {
        let b = self.peek().ok_or_else(|| self.error("unexpected end"))?;
        self.pos += 1;
        Ok(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump()? == b {
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", b as char)))
        }
    }

    fn parse(mut self) -> Result<Json, String> {
        self.skip_ws();
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.error("trailing garbage"));
        }
        Ok(v)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.error("unexpected end"))? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, text: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(self.error(&format!("bad literal, wanted {text}")))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            out.push((key, val));
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b'}' => return Ok(Json::Obj(out)),
                _ => return Err(self.error("expected , or }")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b']' => return Ok(Json::Arr(out)),
                _ => return Err(self.error("expected , or ]")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                b'"' => return Ok(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = (self.bump()? as char)
                                .to_digit(16)
                                .ok_or_else(|| self.error("bad \\u digit"))?;
                            code = code * 16 + d;
                        }
                        // Surrogate pairs never appear in our output (we
                        // only \u-escape control chars and DEL); reject
                        // rather than decode them.
                        let c = char::from_u32(code)
                            .ok_or_else(|| self.error("surrogate in \\u escape"))?;
                        out.push(c);
                    }
                    _ => return Err(self.error("bad escape")),
                },
                b if b < 0x20 => return Err(self.error("raw control char in string")),
                b if b < 0x80 => out.push(b as char),
                b => {
                    // Multi-byte UTF-8: the input came from a &str, so the
                    // continuation bytes are guaranteed well-formed.
                    let start = self.pos - 1;
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| self.error("bad utf-8"))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("bad number"))
    }
}

fn parse(s: &str) -> Result<Json, String> {
    Parser::new(s).parse()
}

/// Strategy: arbitrary (possibly nasty) unicode strings, biased toward
/// the characters the escaper has to handle: C0 controls, DEL, quotes,
/// backslashes, multi-byte code points.
fn nasty_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..0x500, 0..24).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| match c {
                // Spread the draw over the interesting ranges.
                0x00..=0x21 => char::from_u32(c).unwrap(), // controls, space, !
                0x22 => '"',
                0x23 => '\\',
                0x24 => '\u{7f}',
                0x25..=0x2f => char::from_u32(0x1f600 + c).unwrap(), // emoji
                0x30..=0x4f => char::from_u32(0x3b1 + (c - 0x30)).unwrap(), // greek
                c => char::from_u32(c).unwrap(),
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn event_records_serialize_to_parseable_json(
        seq in 0u64..u64::MAX,
        t_us in 0u64..u64::MAX,
        s in nasty_string(),
        u in 0u64..u64::MAX,
        i in i64::MIN..i64::MAX,
        f_bits in 0u64..u64::MAX,
        b in proptest::prelude::any::<bool>(),
    ) {
        let f = f64::from_bits(f_bits); // hits NaN/inf/subnormals too
        let rec = EventRecord {
            seq,
            t_us,
            kind: "test.kind",
            fields: vec![
                ("s", Value::Str(s.clone())),
                ("u", Value::U64(u)),
                ("i", Value::I64(i)),
                ("f", Value::F64(f)),
                ("b", Value::Bool(b)),
            ],
        };
        let line = rec.to_json();
        prop_assert!(!line.contains('\n'), "JSONL line must be newline-free");
        let parsed = parse(&line).map_err(|e| {
            proptest::TestCaseError(format!("{e}\nline: {line}"))
        })?;
        let Json::Obj(fields) = parsed else {
            return Err(proptest::TestCaseError("not an object".into()));
        };
        let get = |k: &str| {
            fields
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
        };
        // Integers round-trip through the f64 parse only up to 2^53, so
        // compare the raw token text for seq/u/i instead.
        prop_assert!(line.contains(&format!("\"seq\":{seq}")));
        prop_assert!(line.contains(&format!("\"u\":{u}")));
        prop_assert!(line.contains(&format!("\"i\":{i}")));
        // The nasty string survives the escape/parse round trip exactly.
        prop_assert_eq!(get("s"), Some(Json::Str(s)));
        prop_assert_eq!(get("b"), Some(Json::Bool(b)));
        if f.is_finite() {
            match get("f") {
                Some(Json::Num(parsed_f)) => {
                    prop_assert_eq!(parsed_f, f, "shortest round-trip failed")
                }
                other => return Err(proptest::TestCaseError(format!("f: {other:?}"))),
            }
        } else {
            prop_assert_eq!(get("f"), Some(Json::Null), "non-finite must be null");
        }
    }
}

#[test]
fn validator_rejects_malformed_json() {
    assert!(parse("{").is_err());
    assert!(parse(r#"{"a":1,}"#).is_err());
    assert!(parse("{\"a\":\"\u{1}\"}").is_err(), "raw control char");
    assert!(parse(r#"{"a":01e}"#).is_err());
    assert!(parse(r#"{"a":1} extra"#).is_err());
    assert!(parse(r#"{"a":"\q"}"#).is_err(), "bad escape");
}

#[test]
fn validator_accepts_the_shapes_the_exporters_emit() {
    let v = parse(r#"{"seq":0,"kind":"plan.install","old":[0.5,0.5],"ok":true,"x":null}"#)
        .expect("valid line");
    let Json::Obj(fields) = v else {
        panic!("not an object")
    };
    assert_eq!(fields.len(), 5);
    assert_eq!(fields[3], ("ok".into(), Json::Bool(true)));
}
