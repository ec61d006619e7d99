//! The byte layout both per-op logs store their records in: LEB128 varints,
//! zigzag deltas and names ended by [`END`]. A log is only ever read from
//! its start, so a field can be a delta from the same field of the record
//! before it, and a record needs no length or offset of its own.
//!
//! An arg value is stored as the text its `Display` would print, written
//! by [`ArgValue`] without `core::fmt`: text is copied raw and an integer
//! goes through a digit loop.

use std::io::Write as _;

/// Ends a name or an arg value. UTF-8 never contains the byte `0xFF`, so
/// any string — empty, NUL-holding or multi-byte — is stored unescaped.
pub(crate) const END: u8 = 0xFF;

/// The bytes a log's chunk holds: once its records reach it, less
/// [`SLACK`], the next record opens a new chunk instead of re-copying every
/// byte before it.
const CHUNK: usize = 1 << 19;

/// Room a full chunk keeps for the record that fills it; a record larger
/// than the room left grows the chunk, as a byte stream would.
const SLACK: usize = 256;

/// An append-only run of packed records with a bound on how many it keeps.
///
/// A record is written field by field and counts only once it is
/// [`Packed::commit`]ted. Every record starts by truncating to the last
/// commit, so a record abandoned part-way (an arg's `Display` panicked)
/// leaves no bytes behind, and readers see only committed bytes.
///
/// The bytes sit in chunks, each holding whole records: the first doubles
/// as a byte stream would until it holds [`CHUNK`] bytes, and a record
/// that starts in a full chunk seals it and opens the next, allocated at
/// [`CHUNK`] bytes. Recording a record writes its bytes once; a log never
/// re-copies what it already holds.
#[derive(Debug)]
pub(crate) struct Packed {
    /// Sealed chunks, oldest first.
    sealed: Vec<Vec<u8>>,
    /// The open chunk.
    bytes: Vec<u8>,
    /// Committed bytes of the open chunk.
    committed: usize,
    len: usize,
    /// How many records this log keeps.
    pub(crate) capacity: usize,
    /// Records that did not fit, here or in a merged source.
    pub(crate) dropped: u64,
}

impl Packed {
    pub(crate) fn with_capacity(capacity: usize) -> Packed {
        Packed {
            sealed: Vec::new(),
            bytes: Vec::new(),
            committed: 0,
            len: 0,
            capacity,
            dropped: 0,
        }
    }

    /// Starts a record if one more fits; otherwise counts it dropped.
    pub(crate) fn begin(&mut self) -> bool {
        if self.len >= self.capacity {
            self.dropped += 1;
            return false;
        }
        self.bytes.truncate(self.committed);
        if self.committed >= CHUNK - SLACK {
            let next = Vec::with_capacity(CHUNK);
            self.sealed.push(std::mem::replace(&mut self.bytes, next));
            self.committed = 0;
        }
        true
    }

    /// Makes the record written since [`Packed::begin`] part of the log.
    pub(crate) fn commit(&mut self) {
        self.commit_n(1);
    }

    /// [`Packed::commit`] for a record that holds `n` logical records (a
    /// span and its layers): each counts against the capacity.
    pub(crate) fn commit_n(&mut self, n: usize) {
        self.committed = self.bytes.len();
        self.len += n;
    }

    /// Committed records.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// How many more records fit.
    pub(crate) fn room(&self) -> usize {
        self.capacity.saturating_sub(self.len)
    }

    /// A reader over the committed records, from the first.
    pub(crate) fn reader(&self) -> Reader<'_> {
        Reader {
            cur: &[],
            sealed: &self.sealed,
            open: &self.bytes[..self.committed],
        }
    }

    pub(crate) fn byte(&mut self, b: u8) {
        self.bytes.push(b);
    }

    /// `v` as an LEB128 varint: 7 bits a byte, low first, high bit = more.
    pub(crate) fn u64(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.bytes.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.bytes.push(v as u8);
    }

    /// `v` as its zigzagged wrapping difference from `base`, so a value
    /// near its base is a byte or two on either side, and any pair of
    /// `u64`s — `u64::MAX` from 0 included — round-trips.
    pub(crate) fn delta(&mut self, v: u64, base: u64) {
        let d = v.wrapping_sub(base) as i64;
        self.u64(((d << 1) ^ (d >> 63)) as u64);
    }

    /// A name: its bytes, then [`END`].
    pub(crate) fn str(&mut self, s: &str) {
        self.bytes.extend_from_slice(s.as_bytes());
        self.bytes.push(END);
    }

    /// `value`'s text written straight into the log, then [`END`].
    pub(crate) fn text<T: ArgValue + ?Sized>(&mut self, value: &T) {
        value.write_text(&mut self.bytes);
        self.bytes.push(END);
    }
}

/// A span arg value: stored as the bytes its `Display` prints, written
/// without `core::fmt`. Text (`str`, `String`) is copied raw and an
/// integer is written by a digit loop; any other `Display` type goes
/// through [`Formatted`], the one explicit fallback. Sealed: every value
/// writes UTF-8, which never holds the record terminator `0xFF`.
pub trait ArgValue: text::Text {}

impl<T: text::Text + ?Sized> ArgValue for T {}

pub(crate) mod text {
    /// Appends a value's text to the log's bytes.
    pub trait Text {
        /// Appends the text `Display` would print.
        fn write_text(&self, out: &mut Vec<u8>);
    }
}

impl text::Text for str {
    fn write_text(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
}

impl text::Text for String {
    fn write_text(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
}

impl<T: text::Text + ?Sized> text::Text for &T {
    fn write_text(&self, out: &mut Vec<u8>) {
        (**self).write_text(out);
    }
}

/// `v` in decimal, as `Display` prints it: digits from the lowest into a
/// stack buffer, then one copy.
fn decimal(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

macro_rules! unsigned_text {
    ($($t:ty),*) => {$(
        impl text::Text for $t {
            fn write_text(&self, out: &mut Vec<u8>) {
                decimal(out, *self as u64);
            }
        }
    )*};
}

macro_rules! signed_text {
    ($($t:ty),*) => {$(
        impl text::Text for $t {
            fn write_text(&self, out: &mut Vec<u8>) {
                if *self < 0 {
                    out.push(b'-');
                }
                decimal(out, self.unsigned_abs() as u64);
            }
        }
    )*};
}

unsigned_text!(u8, u16, u32, u64, usize);
signed_text!(i8, i16, i32, i64, isize);

/// An arg value written through its `Display`: the explicit fallback for a
/// value that is neither text nor an integer.
#[derive(Debug, Clone, Copy)]
pub struct Formatted<T>(pub T);

impl<T: std::fmt::Display> text::Text for Formatted<T> {
    fn write_text(&self, out: &mut Vec<u8>) {
        // Writing to a `Vec` cannot fail.
        let _ = write!(out, "{}", self.0);
    }
}

/// A cursor over packed records; each read consumes one field. Reading
/// past the end, or a field of the wrong kind, is a bug in the log's own
/// layout and panics.
#[derive(Debug, Clone)]
pub(crate) struct Reader<'a> {
    /// The rest of the chunk being read.
    cur: &'a [u8],
    /// The sealed chunks after it, then the open chunk's committed bytes.
    sealed: &'a [Vec<u8>],
    open: &'a [u8],
}

impl Reader<'static> {
    /// An arg list with nothing in it: what a layer reads back.
    pub(crate) const NO_ARGS: Reader<'static> = Reader {
        cur: &[0],
        sealed: &[],
        open: &[],
    };
}

impl<'a> Reader<'a> {
    pub(crate) fn is_empty(&self) -> bool {
        self.cur.is_empty() && self.sealed.is_empty() && self.open.is_empty()
    }

    /// The rest of the chunk being read, moving to the next chunk at the
    /// end of one: no record spans two, so this happens between records.
    fn chunk(&mut self) -> &'a [u8] {
        if self.cur.is_empty() {
            self.cur = match self.sealed.split_first() {
                Some((first, rest)) => {
                    self.sealed = rest;
                    first
                }
                None => std::mem::take(&mut self.open),
            };
        }
        self.cur
    }

    pub(crate) fn byte(&mut self) -> u8 {
        let (&b, rest) = self
            .chunk()
            .split_first()
            .expect("a packed record is whole");
        self.cur = rest;
        b
    }

    pub(crate) fn u64(&mut self) -> u64 {
        let mut v = 0;
        let mut shift = 0;
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7F) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    pub(crate) fn delta(&mut self, base: u64) -> u64 {
        let z = self.u64();
        base.wrapping_add((z >> 1) ^ (z & 1).wrapping_neg())
    }

    pub(crate) fn str(&mut self) -> &'a str {
        let chunk = self.chunk();
        let end = chunk
            .iter()
            .position(|&b| b == END)
            .expect("a packed name is ended");
        let (s, rest) = chunk.split_at(end);
        self.cur = &rest[1..];
        std::str::from_utf8(s).expect("a packed name is UTF-8")
    }
}

#[cfg(test)]
impl Packed {
    /// Bytes held per committed record, for footprint tests.
    pub(crate) fn bytes_per_record(&self) -> f64 {
        let sealed: usize = self.sealed.iter().map(Vec::len).sum();
        (sealed + self.committed) as f64 / self.len as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_round_trip_at_the_extremes() {
        let mut p = Packed::with_capacity(1);
        let values = [0, 1, 127, 128, u64::MAX / 2, u64::MAX - 1, u64::MAX];
        for &v in &values {
            p.u64(v);
            for &base in &values {
                p.delta(v, base);
            }
        }
        for s in ["", "a\0b", "αβγ", "\u{10FFFF}"] {
            p.str(s);
        }
        p.commit();
        let mut r = p.reader();
        for &v in &values {
            assert_eq!(r.u64(), v);
            for &base in &values {
                assert_eq!(r.delta(base), v, "{v} from {base}");
            }
        }
        for s in ["", "a\0b", "αβγ", "\u{10FFFF}"] {
            assert_eq!(r.str(), s);
        }
        assert!(r.is_empty());
    }

    /// Every arg value writes exactly the bytes `format!` gives it: the
    /// span log's text is unchanged by skipping `core::fmt`.
    #[test]
    fn arg_values_match_the_format_macro() {
        fn check<T: ArgValue + std::fmt::Display + ?Sized>(v: &T) {
            let mut out = b"stale".to_vec();
            v.write_text(&mut out);
            assert_eq!(&out[5..], format!("{v}").as_bytes(), "{v}");
        }
        for s in ["", "f", "αβγ \u{10FFFF}", "a\0b"] {
            check(s);
            check(&s.to_string());
        }
        for v in [0u64, 9, 10, 99, 100, u64::MAX] {
            check(&v);
        }
        for v in [0i64, -1, 9, -10, i64::MAX, i64::MIN] {
            check(&v);
        }
        check(&u32::MAX);
        check(&i32::MIN);
        check(&usize::MAX);
        check(&isize::MIN);
        check(&i8::MIN);
        let mut out = Vec::new();
        text::Text::write_text(&Formatted(-1.5f64), &mut out);
        assert_eq!(out, b"-1.5");
        // Seeded splitmix64 draws, at every magnitude and both signs.
        let mut x = 0x5eed_u64;
        for k in 0..2_000u32 {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            check(&(z >> (k % 64)));
            check(&((z as i64) >> (k % 64)));
            check(&(z as u32 >> (k % 32)));
        }
    }

    /// A log past [`CHUNK`] bytes reads back record for record: records
    /// never span two chunks, a record larger than a chunk's room grows
    /// it, and a record abandoned at a chunk's end leaves nothing.
    #[test]
    fn records_round_trip_across_chunks() {
        let long = "x".repeat(3 * SLACK);
        let mut p = Packed::with_capacity(usize::MAX);
        let mut n = 0u64;
        while p.sealed.len() < 3 {
            if n.is_multiple_of(7) {
                // Abandoned: the next record overwrites it.
                assert!(p.begin());
                p.u64(u64::MAX);
                p.str(&long);
            }
            assert!(p.begin());
            p.u64(n);
            p.str(if n.is_multiple_of(5_000) { &long } else { "f" });
            p.commit();
            n += 1;
        }
        assert!(p.sealed.iter().all(|c| c.len() >= CHUNK - SLACK));
        let mut r = p.reader();
        for i in 0..n {
            assert_eq!(r.u64(), i);
            assert_eq!(
                r.str().len(),
                if i.is_multiple_of(5_000) {
                    long.len()
                } else {
                    1
                }
            );
        }
        assert!(r.is_empty());
        assert_eq!(p.len(), n as usize);
    }

    #[test]
    fn an_abandoned_record_leaves_nothing() {
        let mut p = Packed::with_capacity(2);
        assert!(p.begin());
        p.u64(7);
        p.commit();
        assert!(p.begin());
        p.str("half");
        assert!(p.begin());
        p.u64(9);
        p.commit();
        assert!(!p.begin());
        let mut r = p.reader();
        assert_eq!((r.u64(), r.u64()), (7, 9));
        assert!(r.is_empty());
        assert_eq!((p.len(), p.dropped), (2, 1));
    }
}
