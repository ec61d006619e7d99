//! The workspace's one JSON writer and its matching reader (the workspace
//! builds offline, with no serde).
//!
//! [`Writer`] builds every document `cudele-obs` and `cudele-bench regress`
//! emit: objects and arrays, each opened with the [`Layout`] its document
//! uses, keys and strings escaped one way, and `f64` spelled one way
//! ([`Float`]). [`parse`] is a strict recursive-descent reader, used by
//! tests to prove the output well-formed, by the benchmark regression gate
//! to read baselines back, and by the history and timeline readers.
//! [`validate`] checks validity only; [`parse`] builds a [`Value`] tree.
//! Both apply the same strict grammar (no leading zeros, strict escapes, no
//! raw control characters in strings, no trailing data, at most
//! [`MAX_DEPTH`] nested containers).

use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order (duplicate keys are kept as written).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object, if present (first match wins).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractional parts).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object's members.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Validates that `s` is exactly one well-formed JSON value (with optional
/// surrounding whitespace). Returns the byte offset and a message on error.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(|_| ())
}

/// The deepest nesting of objects and arrays [`parse`] accepts. The reader
/// recurses once per level, so the bound keeps a hostile file from
/// overflowing the stack; the deepest document this workspace writes has 5
/// levels (timeline → series → one series → points → one point).
pub const MAX_DEPTH: usize = 128;

/// Parses `s` as exactly one JSON value under the same strict grammar as
/// [`validate`].
pub fn parse(s: &str) -> Result<Value, String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    let v = value(b, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn err(pos: usize, msg: &str) -> String {
    format!("byte {pos}: {msg}")
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// One value; `depth` counts the containers already open around it.
fn value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    match b.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(err(
            *pos,
            &format!("nesting deeper than {MAX_DEPTH} levels"),
        )),
        Some(b'{') => object(b, pos, depth + 1),
        Some(b'[') => array(b, pos, depth + 1),
        Some(b'"') => string(b, pos).map(Value::Str),
        Some(b't') => literal(b, pos, b"true").map(|_| Value::Bool(true)),
        Some(b'f') => literal(b, pos, b"false").map(|_| Value::Bool(false)),
        Some(b'n') => literal(b, pos, b"null").map(|_| Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        Some(c) => Err(err(*pos, &format!("unexpected byte {c:#x}"))),
        None => Err(err(*pos, "unexpected end of input")),
    }
}

fn literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        Err(err(*pos, "bad literal"))
    }
}

fn object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    let mut members = Vec::new();
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "expected object key"));
        }
        let key = string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(err(*pos, "expected ':'"));
        }
        *pos += 1;
        skip_ws(b, pos);
        let v = value(b, pos, depth)?;
        members.push((key, v));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            _ => return Err(err(*pos, "expected ',' or '}'")),
        }
    }
}

fn array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    let mut items = Vec::new();
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        skip_ws(b, pos);
        items.push(value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']'")),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    let mut out = String::new();
    *pos += 1; // '"'
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => {
                        out.push('"');
                        *pos += 1;
                    }
                    Some(b'\\') => {
                        out.push('\\');
                        *pos += 1;
                    }
                    Some(b'/') => {
                        out.push('/');
                        *pos += 1;
                    }
                    Some(b'b') => {
                        out.push('\u{8}');
                        *pos += 1;
                    }
                    Some(b'f') => {
                        out.push('\u{c}');
                        *pos += 1;
                    }
                    Some(b'n') => {
                        out.push('\n');
                        *pos += 1;
                    }
                    Some(b'r') => {
                        out.push('\r');
                        *pos += 1;
                    }
                    Some(b't') => {
                        out.push('\t');
                        *pos += 1;
                    }
                    Some(b'u') => {
                        let cp = hex4(b, pos)?;
                        // Combine UTF-16 surrogate pairs; a lone surrogate
                        // decodes to U+FFFD rather than failing.
                        let ch = if (0xD800..0xDC00).contains(&cp) {
                            if b.get(*pos) == Some(&b'\\') && b.get(*pos + 1) == Some(&b'u') {
                                *pos += 1;
                                let lo = hex4(b, pos)?;
                                if (0xDC00..0xE000).contains(&lo) {
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c).unwrap_or('\u{FFFD}')
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                '\u{FFFD}'
                            }
                        } else {
                            char::from_u32(cp).unwrap_or('\u{FFFD}')
                        };
                        out.push(ch);
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
            }
            0x00..=0x1F => return Err(err(*pos, "raw control character in string")),
            _ => {
                // `s` is &str, so multi-byte UTF-8 sequences are valid;
                // copy the whole code point.
                let start = *pos;
                *pos += 1;
                while b.get(*pos).is_some_and(|&x| x & 0xC0 == 0x80) {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).expect("input is str"));
            }
        }
    }
    Err(err(*pos, "unterminated string"))
}

/// Reads `\uXXXX`'s four hex digits (cursor on the `u`).
fn hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
    if b.len() < *pos + 5 || !b[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit) {
        return Err(err(*pos, "bad \\u escape"));
    }
    let s = std::str::from_utf8(&b[*pos + 1..*pos + 5]).expect("hex digits");
    *pos += 5;
    Ok(u32::from_str_radix(s, 16).expect("hex digits"))
}

fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    if *pos == int_start {
        return Err(err(start, "expected digits"));
    }
    // No leading zeros (JSON): "0" alone is fine, "01" is not.
    if b[int_start] == b'0' && *pos - int_start > 1 {
        return Err(err(int_start, "leading zero"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == frac_start {
            return Err(err(*pos, "expected fraction digits"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == exp_start {
            return Err(err(*pos, "expected exponent digits"));
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii number");
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| err(start, "unrepresentable number"))
}

/// Appends `s` to `out` escaped for a JSON string literal (the quotes are
/// the caller's): `"`, `\` and control characters escaped, everything else
/// verbatim.
pub(crate) fn escape_into(out: &mut String, s: &str) {
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

/// An `f64` as every document here spells it: the shortest text that reads
/// back to the same value, `.0` after an integral one, and `null` when the
/// value is not finite (JSON has no NaN or infinity).
#[derive(Debug, Clone, Copy)]
pub struct Float(pub f64);

impl fmt::Display for Float {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if !v.is_finite() {
            f.write_str("null")
        } else if v.fract() == 0.0 {
            // `Display` never uses an exponent, so this is `1.0`, not `1`.
            write!(f, "{v}.0")
        } else {
            write!(f, "{v}")
        }
    }
}

/// How a container written by [`Writer`] lays out its members. Each
/// document fixes the layout of each of its containers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One member per line, indented two spaces per open container, `": "`
    /// after a key; an empty container is `{}` / `[]`.
    Pretty,
    /// One line: `", "` between members, `": "` after a key.
    Inline,
    /// One line: `","` between members, `":"` after a key.
    Compact,
}

/// Builds one JSON document in a `String`. Open a container with
/// [`Writer::obj`] or [`Writer::arr`], write members — in an object, a
/// [`Writer::key`] before each value — and [`Writer::close`] it; the
/// document ends in `\n` exactly when its root container is
/// [`Layout::Pretty`].
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// Open containers, innermost last: layout, closing bracket, and
    /// whether a member has been written.
    open: Vec<(Layout, char, bool)>,
    /// A key was just written, so the next value follows it directly.
    after_key: bool,
}

impl Writer {
    /// An empty document with `bytes` reserved.
    pub fn with_capacity(bytes: usize) -> Writer {
        Writer {
            out: String::with_capacity(bytes),
            ..Writer::default()
        }
    }

    /// Opens an object.
    pub fn obj(&mut self, layout: Layout) -> &mut Writer {
        self.open_with(layout, '{', '}')
    }

    /// Opens an array.
    pub fn arr(&mut self, layout: Layout) -> &mut Writer {
        self.open_with(layout, '[', ']')
    }

    /// Closes the innermost open container.
    ///
    /// # Panics
    ///
    /// If no container is open.
    pub fn close(&mut self) -> &mut Writer {
        let (layout, bracket, any) = self.open.pop().expect("Writer::close: nothing is open");
        if layout == Layout::Pretty && any {
            self.newline();
        }
        self.out.push(bracket);
        if layout == Layout::Pretty && self.open.is_empty() {
            self.out.push('\n');
        }
        self
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Writer {
        self.member();
        self.string(key);
        let compact = matches!(self.open.last(), Some((Layout::Compact, ..)));
        self.out.push_str(if compact { ":" } else { ": " });
        self.after_key = true;
        self
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, v: u64) -> &mut Writer {
        self.member();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Writes a float, spelled as [`Float`].
    pub fn f64(&mut self, v: f64) -> &mut Writer {
        self.member();
        let _ = write!(self.out, "{}", Float(v));
        self
    }

    /// Writes `ns` nanoseconds as fixed-point microseconds (`123.456`),
    /// digit-exact: a Chrome trace's `ts` / `dur` unit.
    pub fn micros(&mut self, ns: u64) -> &mut Writer {
        self.member();
        let _ = write!(self.out, "{}.{:03}", ns / 1000, ns % 1000);
        self
    }

    /// Writes a string, escaped.
    pub fn str(&mut self, s: &str) -> &mut Writer {
        self.member();
        self.string(s);
        self
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, v: bool) -> &mut Writer {
        self.member();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Writer {
        self.member();
        self.out.push_str("null");
        self
    }

    /// The finished document.
    pub fn finish(self) -> String {
        debug_assert!(self.open.is_empty(), "Writer::finish with containers open");
        self.out
    }

    fn open_with(&mut self, layout: Layout, open: char, close: char) -> &mut Writer {
        self.member();
        self.out.push(open);
        self.open.push((layout, close, false));
        self
    }

    /// The separator a new member needs: none right after its key, else
    /// whatever its container's layout puts between and before members.
    fn member(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let Some((layout, _, any)) = self.open.last_mut() else {
            return;
        };
        let (layout, first) = (*layout, !std::mem::replace(any, true));
        match layout {
            Layout::Pretty => {
                if !first {
                    self.out.push(',');
                }
                self.newline();
            }
            Layout::Inline if !first => self.out.push_str(", "),
            Layout::Compact if !first => self.out.push(','),
            _ => {}
        }
    }

    /// A line break indented for the open containers.
    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.open.len() {
            self.out.push_str("  ");
        }
    }

    fn string(&mut self, s: &str) {
        self.out.push('"');
        escape_into(&mut self.out, s);
        self.out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::{parse, validate, Value};

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e+3",
            "0",
            r#""a\nbé""#,
            r#"{"a": [1, 2.5, {"b": null}], "c": "x"}"#,
            "  {\n \"k\" : -0.25 }\n",
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok:?} rejected: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{]",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "nul",
            "{} extra",
            "\"bad \\x escape\"",
        ] {
            assert!(validate(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn parses_values_and_accessors() {
        let v = parse(r#"{"a": [1, 2.5], "s": "x\ty", "n": null, "b": true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\ty"));
        assert_eq!(v.get("n"), Some(&Value::Null));
        assert_eq!(v.get("b"), Some(&Value::Bool(true)));
        assert_eq!(v.get("missing"), None);
        assert_eq!(parse("-3").unwrap().as_f64(), Some(-3.0));
        assert_eq!(parse("2.5").unwrap().as_u64(), None);
    }

    #[test]
    fn decodes_escapes_and_surrogates() {
        assert_eq!(
            parse(r#""q\"b\\s\/fA""#).unwrap().as_str(),
            Some("q\"b\\s/fA")
        );
        // Surrogate pair → one astral code point; raw UTF-8 passes through.
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("\u{1F600}")
        );
        assert_eq!(parse("\"é😀\"").unwrap().as_str(), Some("é😀"));
        // Lone surrogate degrades to U+FFFD instead of failing.
        assert_eq!(parse(r#""\ud83d!""#).unwrap().as_str(), Some("\u{FFFD}!"));
    }
}
