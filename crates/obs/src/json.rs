//! Minimal hand-rolled JSON writer and reader.
//!
//! Every exporter in the repo writes JSON by hand. This module
//! centralises the things they all need — string escaping, deterministic
//! number formatting, and an object builder — so the event log,
//! `ExperimentTelemetry::to_jsonl` and the bench binaries share one
//! implementation.
//!
//! The writer half is a set of `push_*` primitives that append to a
//! caller's `String` in place: [`push_key`], [`push_escaped`],
//! [`push_f64`], [`push_u64`], [`push_i64`], [`push_fixed`].
//! [`JsonObject`] is built on them; the JSONL exporters (event log,
//! metrics registry, span tracer, `ExperimentTelemetry::to_jsonl`) and the
//! telemetry CSV call them directly, writing every record by reference
//! into one pre-sized buffer — no per-record or per-field `String`.
//!
//! Numbers are written as digits, not through `core::fmt`: integers
//! ([`push_u64`], [`push_i64`]) from a two-digit lookup table, and fixed-point floats ([`push_fixed`], the telemetry CSV's
//! `{:.3}`/`{:.6}` columns) by exact integer arithmetic on the binary
//! mantissa, rounding half-to-even on exact ties as `format!` does.
//! [`push_f64`] keeps `Display`'s shortest round-trip text for
//! fractional values — integral ones below 2⁵³ take the integer writer —
//! and writes `null` for non-finite ones, since JSON has no
//! NaN/infinity. Every writer's bytes equal `format!`'s; the oracle is
//! `tests/number_writers.rs`.
//!
//! The reader half ([`parse`] → [`JsonValue`]) exists for the artifacts
//! the workspace must load back — fault-plan reproducers in the chaos
//! corpus, replayed scenario files. It accepts only the number grammar
//! of RFC 8259 (no `+1`, `01`, `.5` or `1.`). Numbers keep their raw
//! token text ([`JsonValue::Num`]) so `u64` seeds survive the round trip
//! exactly instead of being squeezed through an `f64`.

use std::fmt::Write as _;

/// Which bytes of a UTF-8 string must be escaped: `"`, `\`, C0 controls
/// and DEL. Bytes of multi-byte characters are all ≥ 0x80, so escaping
/// never splits a character. A table: one load a byte.
const NEEDS_ESCAPE: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = b < 0x20 || b == b'"' as usize || b == b'\\' as usize || b == 0x7f;
        b += 1;
    }
    table
};

/// Appends `s` to `out` as a JSON string literal (with surrounding
/// quotes), escaping `"`, `\`, every C0 control character and DEL
/// (`\u{7f}`) — DEL is legal unescaped JSON but breaks line-oriented
/// consumers, so it gets the `\uXXXX` treatment too. Reserves once;
/// everything before the first byte that needs escaping is copied whole —
/// for the names and labels the exporters write, that is the entire
/// string.
pub fn push_escaped(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    let clean = s
        .bytes()
        .position(|b| NEEDS_ESCAPE[usize::from(b)])
        .unwrap_or(s.len());
    out.push_str(&s[..clean]);
    for c in s[clean..].chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 || c == '\u{7f}' => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(char::from(HEX[c as usize >> 4]));
                out.push(char::from(HEX[c as usize & 0xf]));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `sep` (`{` or `,`) and `"key":` — the opening of one field of
/// an object being written in place.
pub fn push_key(out: &mut String, sep: char, key: &str) {
    out.push(sep);
    push_escaped(out, key);
    out.push(':');
}

/// `s` as a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_escaped(&mut out, s);
    out
}

/// `"00" "01" … "99"`: the two-digit pairs the integer writer copies.
const PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// `10^places` for the places [`push_fixed`] writes itself.
const POW10: [u64; 10] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// Writes `v`'s decimal digits to the end of `buf[..end]`, four at a
/// time while more than four remain (two table pairs a division), and
/// returns the index of the first one.
fn digits_before(buf: &mut [u8], end: usize, mut v: u64) -> usize {
    let mut i = end;
    while v >= 10_000 {
        let four = (v % 10_000) as usize;
        v /= 10_000;
        let (hi, lo) = (four / 100 * 2, four % 100 * 2);
        i -= 4;
        buf[i..i + 2].copy_from_slice(&PAIRS[hi..hi + 2]);
        buf[i + 2..i + 4].copy_from_slice(&PAIRS[lo..lo + 2]);
    }
    let mut v = v as usize;
    if v >= 100 {
        let d = v % 100 * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&PAIRS[d..d + 2]);
    }
    if v >= 10 {
        i -= 2;
        buf[i..i + 2].copy_from_slice(&PAIRS[v * 2..v * 2 + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    i
}

/// Appends the bytes a number writer produced: digits, `.` and `-`.
/// Validating them as UTF-8 would cost as much as writing them.
fn push_ascii(out: &mut String, bytes: &[u8]) {
    debug_assert!(bytes.is_ascii());
    // SAFETY: every caller passes bytes it wrote from `PAIRS`, `b'0'..=b'9'`,
    // `b'.'` and `b'-'` only — ASCII, hence valid UTF-8.
    out.push_str(unsafe { std::str::from_utf8_unchecked(bytes) });
}

/// Appends `v` to `out` as a JSON number (shortest round-trip form, as
/// `Display` writes it); non-finite values become `null`. Integral values
/// below 2⁵³ in magnitude — exactly the `i64`s an `f64` holds, whose
/// `Display` text is their integer text — go through [`push_i64`];
/// `-0.0` keeps `Display`'s `-0`.
pub fn push_f64(out: &mut String, v: f64) {
    if v.abs() < (1u64 << 53) as f64 {
        let i = v as i64;
        if i as f64 == v && (i != 0 || v.is_sign_positive()) {
            push_i64(out, i);
            return;
        }
    }
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends `v` to `out` as a JSON number.
pub fn push_u64(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    let start = digits_before(&mut buf, 20, v);
    push_ascii(out, &buf[start..]);
}

/// Appends `v` to `out` as a JSON number.
pub fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Appends `v` with exactly `places` decimals — the bytes of
/// `format!("{v:.places$}")`. `|v|·10^places` is computed exactly from the
/// binary mantissa and rounded half-to-even on an exact tie, as `format!`
/// rounds; the sign is `v`'s sign bit, so `-0.0` and negatives that round
/// to zero keep their `-`. Non-finite and subnormal values, magnitudes
/// below 2⁻⁷³ or whose scaled value passes `u64`, and more than nine
/// places go through `format!` itself.
pub fn push_fixed(out: &mut String, v: f64, places: usize) {
    let Some(scaled) = POW10.get(places).and_then(|&p| scaled_half_even(v, p)) else {
        let _ = write!(out, "{v:.places$}");
        return;
    };
    // A sign, 20 integer digits, `.` and up to 9 decimals.
    let mut buf = [0u8; 32];
    let pow = POW10[places];
    let mut i = buf.len();
    if places > 0 {
        let first = i - places;
        let start = digits_before(&mut buf, i, scaled % pow);
        buf[first..start].fill(b'0');
        i = first - 1;
        buf[i] = b'.';
    }
    i = digits_before(&mut buf, i, scaled / pow);
    if v.is_sign_negative() {
        i -= 1;
        buf[i] = b'-';
    }
    push_ascii(out, &buf[i..]);
}

/// `|v|·pow` rounded to an integer, half-to-even, when `v` is zero or a
/// normal float with `|v| < 2^64 / pow`; `None` otherwise. `v = m·2^e`
/// with `m < 2^53`, so `m·pow < 2^83` and the quotient and remainder of
/// the `2^-e` division are exact in `u128`.
fn scaled_half_even(v: f64, pow: u64) -> Option<u64> {
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let fraction = bits & ((1 << 52) - 1);
    let (m, e) = match biased {
        0 if fraction == 0 => return Some(0),
        // Subnormals, NaN and the infinities.
        0 | 0x7ff => return None,
        _ => (fraction | 1 << 52, biased - 1075),
    };
    let x = u128::from(m) * u128::from(pow);
    if e >= 0 {
        // m ≥ 2^52, so past e = 11 the product already overflows u64.
        return if e <= 11 {
            u64::try_from(x << e).ok()
        } else {
            None
        };
    }
    let shift = -e as u32;
    if shift > 126 {
        // |v| < 2^-73: left to `format!` (it prints zeros).
        return None;
    }
    let q = x >> shift;
    let rem = x & ((1u128 << shift) - 1);
    let half = 1u128 << (shift - 1);
    let up = rem > half || (rem == half && q & 1 == 1);
    u64::try_from(q + u128::from(up)).ok()
}

/// `v` as JSON number text (`null` when non-finite).
pub fn fmt_f64(v: f64) -> String {
    let mut out = String::new();
    push_f64(&mut out, v);
    out
}

/// Incremental builder for one JSON object. Fields appear in insertion
/// order; keys are escaped, values typed.
///
/// ```
/// use acm_obs::json::JsonObject;
/// let mut o = JsonObject::new();
/// o.field_str("name", "fig3").field_u64("eras", 120).field_f64("p99_s", 0.25);
/// assert_eq!(o.finish(), r#"{"name":"fig3","eras":120,"p99_s":0.25}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
    any: bool,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, key: &str) -> &mut String {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        push_escaped(&mut self.buf, key);
        self.buf.push(':');
        &mut self.buf
    }

    /// Adds a string field.
    pub fn field_str(&mut self, key: &str, v: &str) -> &mut Self {
        let buf = self.key(key);
        push_escaped(buf, v);
        self
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, v: u64) -> &mut Self {
        push_u64(self.key(key), v);
        self
    }

    /// Adds a float field (`null` when non-finite).
    pub fn field_f64(&mut self, key: &str, v: f64) -> &mut Self {
        let buf = self.key(key);
        push_f64(buf, v);
        self
    }

    /// Adds a boolean field.
    pub fn field_bool(&mut self, key: &str, v: bool) -> &mut Self {
        let buf = self.key(key);
        buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a pre-serialized JSON value verbatim (caller guarantees it is
    /// valid JSON — e.g. an array built with [`fmt_f64`]/[`escape`]).
    pub fn field_raw(&mut self, key: &str, json: &str) -> &mut Self {
        let buf = self.key(key);
        buf.push_str(json);
        self
    }

    /// Closes and returns the object text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Joins pre-serialized JSON values into an array literal.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// One parsed JSON value.
///
/// Numbers are kept as their raw token text: the corpus stores `u64`
/// seeds, and routing those through `f64` would corrupt anything above
/// 2^53. Use [`JsonValue::as_u64`] / [`JsonValue::as_f64`] to interpret.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as the raw token text (e.g. `"-3"`, `"0.25"`, `"1e9"`).
    Num(String),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, fields in source order (duplicates preserved).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The value as `f64`, when it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    /// The value as an exact `u64`, when it is an integral number token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    /// The value as a bool, when it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, when it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    /// Field lookup on an object (first match wins).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Parses one complete JSON document (trailing garbage is an error).
pub fn parse(s: &str) -> Result<JsonValue, String> {
    let mut p = Reader {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing garbage"));
    }
    Ok(v)
}

/// Recursion guard: corpus files are flat, anything deeper is hostile.
const MAX_DEPTH: usize = 64;

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Reader<'_> {
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

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.error("unexpected end"))? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(JsonValue::Str(self.string()?)),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            b'n' => self.literal("null", JsonValue::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, text: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(self.error(&format!("bad literal, wanted {text}")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.expect(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Obj(out));
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
                b'}' => {
                    self.depth -= 1;
                    return Ok(JsonValue::Obj(out));
                }
                _ => return Err(self.error("expected , or }")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b']' => {
                    self.depth -= 1;
                    return Ok(JsonValue::Arr(out));
                }
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
                        // The writer only \u-escapes control chars and DEL,
                        // so surrogate pairs never round-trip through here;
                        // reject rather than half-decode them.
                        let c = char::from_u32(code)
                            .ok_or_else(|| self.error("surrogate in \\u escape"))?;
                        out.push(c);
                    }
                    _ => return Err(self.error("bad escape")),
                },
                b if b < 0x20 => return Err(self.error("raw control char in string")),
                b if b < 0x80 => out.push(b as char),
                b => {
                    let start = self.pos - 1;
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return Err(self.error("bad utf-8 lead byte")),
                    };
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(self.error("truncated utf-8"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.error("bad utf-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let token = &self.bytes[start..self.pos];
        if !is_json_number(token) {
            return Err(self.error("bad number"));
        }
        // Keep the raw text for exact ints.
        let text = std::str::from_utf8(token).expect("number tokens are ASCII");
        Ok(JsonValue::Num(text.to_string()))
    }
}

/// Whether `t` is a JSON number token,
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?` — which Rust's `f64`
/// parser alone would widen with `+1`, `01`, `.5` and `1.`.
fn is_json_number(t: &[u8]) -> bool {
    let digits = |i: usize| t[i..].iter().take_while(|b| b.is_ascii_digit()).count();
    let mut i = usize::from(t.first() == Some(&b'-'));
    match t.get(i) {
        Some(b'0') => i += 1,
        Some(b'1'..=b'9') => i += digits(i),
        _ => return false,
    }
    if t.get(i) == Some(&b'.') {
        let n = digits(i + 1);
        if n == 0 {
            return false;
        }
        i += 1 + n;
    }
    if matches!(t.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(t.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        let n = digits(i);
        if n == 0 {
            return false;
        }
        i += n;
    }
    i == t.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(escape("a\"b"), "\"a\\\"b\"");
        assert_eq!(escape("a\\b"), "\"a\\\\b\"");
        assert_eq!(escape("a\nb\tc"), "\"a\\nb\\tc\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
        assert_eq!(escape("\u{8}\u{c}"), "\"\\b\\f\"");
        assert_eq!(escape("\u{7f}"), "\"\\u007f\"");
        assert_eq!(escape("λ=0.5"), "\"λ=0.5\"");
        // The escaped text is itself free of raw control bytes.
        let nasty: String = (0u32..0x20)
            .chain([0x7f])
            .map(|c| char::from_u32(c).unwrap())
            .collect();
        assert!(escape(&nasty).chars().all(|c| (c as u32) >= 0x20));
    }

    #[test]
    fn f64_formatting_is_shortest_roundtrip_and_null_for_nonfinite() {
        assert_eq!(fmt_f64(0.25), "0.25");
        assert_eq!(fmt_f64(-3.0), "-3");
        assert_eq!(fmt_f64(0.1), "0.1");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        // Round-trips exactly.
        let v = 0.123_456_789_012_345_67_f64;
        assert_eq!(fmt_f64(v).parse::<f64>().unwrap(), v);
    }

    #[test]
    fn object_builder_orders_and_types_fields() {
        let mut o = JsonObject::new();
        o.field_str("kind", "plan.install")
            .field_u64("era", 12)
            .field_f64("delta", -3.0)
            .field_f64("frac", 0.6)
            .field_bool("ok", true)
            .field_raw("xs", &array([fmt_f64(0.5), fmt_f64(0.5)]));
        assert_eq!(
            o.finish(),
            r#"{"kind":"plan.install","era":12,"delta":-3,"frac":0.6,"ok":true,"xs":[0.5,0.5]}"#
        );
    }

    #[test]
    fn empty_object_and_empty_array() {
        assert_eq!(JsonObject::new().finish(), "{}");
        assert_eq!(array(std::iter::empty::<String>()), "[]");
    }

    #[test]
    fn parser_round_trips_writer_output() {
        let mut o = JsonObject::new();
        o.field_str("kind", "chaos.corpus")
            .field_u64("seed", u64::MAX)
            .field_f64("delta", -42.0)
            .field_f64("frac", 0.125)
            .field_bool("ok", true)
            .field_raw("xs", &array([fmt_f64(0.5), "null".into()]));
        let text = o.finish();
        let v = parse(&text).expect("writer output parses");
        assert_eq!(
            v.get("kind").and_then(JsonValue::as_str),
            Some("chaos.corpus")
        );
        // u64::MAX survives exactly — this is why Num keeps raw text.
        assert_eq!(v.get("seed").and_then(JsonValue::as_u64), Some(u64::MAX));
        assert_eq!(v.get("seed").unwrap().as_f64(), Some(u64::MAX as f64));
        assert_eq!(v.get("delta").and_then(JsonValue::as_f64), Some(-42.0));
        assert_eq!(v.get("frac").and_then(JsonValue::as_f64), Some(0.125));
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(true));
        let xs = v.get("xs").and_then(JsonValue::as_array).unwrap();
        assert_eq!(xs[0].as_f64(), Some(0.5));
        assert_eq!(xs[1], JsonValue::Null);
    }

    #[test]
    fn parser_decodes_escapes_and_unicode() {
        let original = "a\"b\\c\nd\u{1}e\u{7f}λ😀";
        let v = parse(&escape(original)).expect("escaped string parses");
        assert_eq!(v.as_str(), Some(original));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "{",
            r#"{"a":1,}"#,
            "{\"a\":\"\u{1}\"}",
            r#"{"a":01e}"#,
            r#"{"a":1} extra"#,
            r#"{"a":"\q"}"#,
            "[1,2",
            "",
            // Numbers Rust's f64 parser takes but JSON forbids.
            r#"{"seed":+7}"#,
            r#"{"seed":007}"#,
            "+1",
            "01",
            "-01",
            ".5",
            "-.5",
            "1.",
            "1.e5",
            "1e",
            "1e+",
            "-",
            "--1",
            "1-2",
            "inf",
            "1.5.2",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad:?}");
        }
        for good in ["0", "-0", "0.5", "-0.5e-3", "10", "1E9", "1e+2", "123.456"] {
            assert!(parse(good).is_ok(), "rejected: {good:?}");
        }
        // Recursion guard trips instead of blowing the stack.
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn parser_accepts_scalars_and_nested_shapes() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("-3.5e2").unwrap().as_f64(), Some(-350.0));
        let v = parse(r#"{"a":{"b":[1,{"c":"d"}]}}"#).unwrap();
        let inner = v.get("a").and_then(|a| a.get("b")).unwrap();
        let arr = inner.as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("c").and_then(JsonValue::as_str), Some("d"));
    }
}
