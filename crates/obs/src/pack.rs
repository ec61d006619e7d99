//! The byte layout both per-op logs store their records in: LEB128 varints,
//! zigzag deltas and names ended by [`END`]. A log is only ever read from
//! its start, so a field can be a delta from the same field of the record
//! before it, and a record needs no length or offset of its own.

use std::io::Write as _;

/// Ends a name or an arg value. UTF-8 never contains the byte `0xFF`, so
/// any string — empty, NUL-holding or multi-byte — is stored unescaped.
pub(crate) const END: u8 = 0xFF;

/// An append-only run of packed records with a bound on how many it keeps.
///
/// A record is written field by field and counts only once it is
/// [`Packed::commit`]ted. Every record starts by truncating to the last
/// commit, so a record abandoned part-way (an arg's `Display` panicked)
/// leaves no bytes behind, and readers see only committed bytes.
#[derive(Debug)]
pub(crate) struct Packed {
    bytes: Vec<u8>,
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
        Reader(&self.bytes[..self.committed])
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

    /// `value` formatted straight into the log, then [`END`].
    pub(crate) fn display(&mut self, value: impl std::fmt::Display) {
        // Writing to a `Vec` cannot fail.
        let _ = write!(self.bytes, "{value}");
        self.bytes.push(END);
    }
}

/// A cursor over packed records; each read consumes one field. Reading
/// past the end, or a field of the wrong kind, is a bug in the log's own
/// layout and panics.
#[derive(Debug, Clone)]
pub(crate) struct Reader<'a>(&'a [u8]);

impl Reader<'static> {
    /// An arg list with nothing in it: what a layer reads back.
    pub(crate) const NO_ARGS: Reader<'static> = Reader(&[0]);
}

impl<'a> Reader<'a> {
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub(crate) fn byte(&mut self) -> u8 {
        let (&b, rest) = self.0.split_first().expect("a packed record is whole");
        self.0 = rest;
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
        let end = self
            .0
            .iter()
            .position(|&b| b == END)
            .expect("a packed name is ended");
        let (s, rest) = self.0.split_at(end);
        self.0 = &rest[1..];
        std::str::from_utf8(s).expect("a packed name is UTF-8")
    }
}

#[cfg(test)]
impl Packed {
    /// Bytes held per committed record, for footprint tests.
    pub(crate) fn bytes_per_record(&self) -> f64 {
        self.committed as f64 / self.len as f64
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
