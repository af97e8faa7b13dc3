//! The workspace's one JSON module: the object writer behind every
//! byte-stable emitter, and the wire-protocol parser. The parser keeps
//! numbers as `f64` (protocol integers stay below 2^53, so they round-trip
//! exactly); it faces raw network bytes, so it is total and linear in the
//! input, with bounded number literals and nesting ([`MAX_DEPTH`]).

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::time::Duration;

/// One JSON object under construction, keys in insertion order. The
/// only code that decides how emitted strings are escaped and numbers,
/// booleans, seconds, nested objects and arrays are spelled. `Display`
/// renders the finished object.
#[derive(Debug, Clone, Default)]
#[must_use]
pub struct Obj(String);

impl Obj {
    /// Starts the next member and returns the buffer for its value.
    fn key(&mut self, key: &str) -> &mut String {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        push_escaped(&mut self.0, key);
        self.0.push(':');
        &mut self.0
    }

    /// Adds a string member.
    pub fn str(mut self, key: &str, value: &str) -> Obj {
        push_escaped(self.key(key), value);
        self
    }

    /// Adds an integer member.
    pub fn int(mut self, key: &str, value: impl Into<u64>) -> Obj {
        let _ = write!(self.key(key), "{}", value.into());
        self
    }

    /// Adds a boolean member.
    pub fn bool(mut self, key: &str, value: bool) -> Obj {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Adds a duration member as seconds with six decimals.
    pub fn secs(mut self, key: &str, value: Duration) -> Obj {
        let _ = write!(self.key(key), "{:.6}", value.as_secs_f64());
        self
    }

    /// Adds a nested object member.
    pub fn obj(mut self, key: &str, value: Obj) -> Obj {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Adds an array member of objects or integers.
    pub fn arr<T: Item>(mut self, key: &str, items: impl IntoIterator<Item = T>) -> Obj {
        let out = self.key(key);
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            let _ = write!(out, "{}{item}", if i > 0 { "," } else { "" });
        }
        out.push(']');
        self
    }
}

/// An array element [`Obj::arr`] can spell: an object or an integer.
pub trait Item: fmt::Display {}
impl Item for Obj {}
impl Item for u32 {}
impl Item for u64 {}

impl fmt::Display for Obj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_empty() { "{" } else { &self.0 })?;
        f.write_str("}")
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted (BTreeMap), which the protocol never
    /// relies on — output meant to be byte-stable is written through
    /// [`Obj`], not through this type.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value of `key`, if this is an object that has it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Escapes `s` as a JSON string literal (with the surrounding quotes).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_escaped(&mut out, s);
    out
}

fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => f.write_str(&escape(s)),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// The deepest array/object nesting [`parse`] accepts. Protocol messages
/// nest at most three levels; the parser recurses per level, and an
/// unbounded depth would let one request line abort the whole daemon.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON value from `text` (ignoring surrounding whitespace).
///
/// # Errors
///
/// A human-readable message naming the byte offset and what was expected.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, which sits inside `depth` open brackets.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        )),
        Some(b'[') => {
            let mut items = Vec::new();
            parse_seq(b, pos, b']', |b, pos| {
                items.push(parse_value(b, pos, depth + 1)?);
                Ok(())
            })?;
            Ok(Json::Arr(items))
        }
        Some(b'{') => {
            let mut map = BTreeMap::new();
            parse_seq(b, pos, b'}', |b, pos| {
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b'"') {
                    return Err(format!("expected object key at byte {}", *pos));
                }
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {}", *pos));
                }
                *pos += 1;
                map.insert(key, parse_value(b, pos, depth + 1)?);
                Ok(())
            })?;
            Ok(Json::Obj(map))
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

/// Parses the comma-separated members of the array or object whose
/// opening bracket is at `pos`, through the matching `close`.
fn parse_seq(
    b: &[u8],
    pos: &mut usize,
    close: u8,
    mut member: impl FnMut(&[u8], &mut usize) -> Result<(), String>,
) -> Result<(), String> {
    *pos += 1;
    skip_ws(b, pos);
    if b.get(*pos) == Some(&close) {
        *pos += 1;
        return Ok(());
    }
    loop {
        member(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(&c) if c == close => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected `,` or `{}` at byte {pos}", close as char)),
        }
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected `{lit}` at byte {}", *pos))
    }
}

/// The longest numeric literal the parser accepts. Every legitimate
/// protocol number — ids, counters, f64 metrics — fits in a fraction of
/// this; a longer digit run is hostile input, not a number.
const MAX_NUMBER_LEN: usize = 64;

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let digits = &b[start..*pos];
    if digits.len() > MAX_NUMBER_LEN {
        return Err(format!(
            "numeric literal of {} bytes at byte {start} exceeds the \
             {MAX_NUMBER_LEN}-byte limit",
            digits.len()
        ));
    }
    // The matched bytes are all ASCII, but stay total anyway: this
    // parser faces raw network bytes and must never panic.
    let Ok(text) = std::str::from_utf8(digits) else {
        return Err(format!("invalid number at byte {start}"));
    };
    match text.parse::<f64>() {
        // `parse::<f64>` maps out-of-range literals like `1e999` to
        // infinity instead of failing; a non-finite number has no JSON
        // representation, so reject it here rather than let it reach
        // `as_u64` (where `inf.fract()` is NaN) or `Display`.
        Ok(n) if n.is_finite() => Ok(Json::Num(n)),
        Ok(_) => Err(format!(
            "numeric literal `{text}` at byte {start} overflows an f64"
        )),
        Err(_) => Err(format!("invalid number `{text}` at byte {start}")),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the unescaped run up to the next `"` or `\` as one slice:
        // validating per character would re-scan the rest of the input
        // each time and make string parsing quadratic.
        let run = b[*pos..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\')
            .unwrap_or(b.len() - *pos);
        let text = std::str::from_utf8(&b[*pos..*pos + run]).map_err(|_| "invalid utf-8")?;
        out.push_str(text);
        *pos += run;
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape hex")?;
                        // The protocol only emits \u00xx control escapes;
                        // surrogate pairs are rejected rather than mangled.
                        let c = char::from_u32(code)
                            .ok_or(format!("unsupported \\u{hex} (surrogate?)"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (text, want) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("42", Json::Num(42.0)),
            ("-3.5", Json::Num(-3.5)),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            assert_eq!(parse(text).unwrap(), want, "{text}");
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "plane 3 32 32\nnet \"a\\b\"\tx\u{1}";
        let escaped = escape(original);
        assert_eq!(parse(&escaped).unwrap(), Json::Str(original.into()));
        // A multi-line layout file survives the round trip byte-for-byte.
        let layout = "plane 3 471 40\nnet p0 0:323,30 0:333,39\n";
        assert_eq!(parse(&escape(layout)).unwrap().as_str(), Some(layout),);
    }

    #[test]
    fn objects_and_arrays_parse() {
        let v = parse(r#"{"cmd":"submit","priority":5,"tags":[1,2],"opt":null}"#).unwrap();
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("submit"));
        assert_eq!(v.get("priority").and_then(Json::as_u64), Some(5));
        assert_eq!(
            v.get("tags"),
            Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)]))
        );
        assert_eq!(v.get("opt"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn display_round_trips() {
        let text = r#"{"a":[1,true,"x\ny"],"b":{"c":null}}"#;
        let v = parse(text).unwrap();
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(7.0).to_string(), "7");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
    }

    #[test]
    fn errors_are_actionable() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("[1,2,").is_err());
        assert!(parse("12 34").unwrap_err().contains("trailing"));
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(0.0).as_u64(), Some(0));
    }

    #[test]
    fn number_parsing_is_total_on_hostile_literals() {
        // An overlong digit run is an error, never a panic or a stall.
        let huge = "9".repeat(10_000);
        let err = parse(&huge).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        let err = parse(&format!("{{\"job\":{huge}}}")).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        // Malformed sign/exponent soups stay errors.
        for text in ["-", "+", ".", "e", "1e", "--5", "1.2.3", "0x10"] {
            assert!(parse(text).is_err(), "{text} should not parse");
        }
        // Literals that overflow f64 to infinity are rejected: the value
        // would have no JSON representation.
        for text in ["1e999", "-1e999", "1e400"] {
            let err = parse(text).unwrap_err();
            assert!(err.contains("overflows"), "{text}: {err}");
        }
        // The biggest in-range protocol integers still parse exactly.
        let max = 2u64.pow(53);
        assert_eq!(parse(&max.to_string()).unwrap().as_u64(), Some(max));
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
        // At the cap: a 64-byte literal is fine, 65 is not.
        let at_cap = format!("0.{}", "1".repeat(62));
        assert!(parse(&at_cap).is_ok());
        let over_cap = format!("0.{}", "1".repeat(63));
        assert!(parse(&over_cap).is_err());
    }

    #[test]
    fn writer_keeps_insertion_order_and_nests() {
        let line = Obj::default()
            .str("event", "x\"y")
            .int("n", 7u32)
            .bool("ok", false)
            .secs("cpu_s", std::time::Duration::from_millis(1250))
            .obj("inner", Obj::default().int("a", 1u8))
            .arr("jobs", [Obj::default(), Obj::default().bool("b", true)])
            .arr("ids", [3u32, 1, 2])
            .to_string();
        assert_eq!(
            line,
            r#"{"event":"x\"y","n":7,"ok":false,"cpu_s":1.250000,"inner":{"a":1},"jobs":[{},{"b":true}],"ids":[3,1,2]}"#
        );
        assert_eq!(Obj::default().to_string(), "{}");
        assert!(parse(&line).is_ok());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A submit carries its layout as one string value; parsing must
        // not re-scan the rest of the input per character.
        let layout = "net p0 0:323,30 0:333,39\n".repeat((4 << 20) / 25 + 1);
        let line = format!("{{\"layout\":{}}}", escape(&layout));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(parse(&line));
        });
        let parsed = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("a 4 MiB string must parse well within 20 s");
        let parsed = parsed.unwrap();
        assert_eq!(parsed.get("layout").and_then(Json::as_str), Some(&*layout));
    }

    #[test]
    fn nesting_is_bounded_with_an_offset() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&over).unwrap_err();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        // Far past any stack: an error, not an abort.
        let hostile = format!("{{\"cmd\":{}", "{\"a\":[".repeat(100_000));
        assert!(parse(&hostile).unwrap_err().contains("nesting"));
    }
}
