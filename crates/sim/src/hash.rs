//! A hasher for integer keys the program issues itself.
//!
//! The metadata store's inode tables, the MDS's session index and cap
//! table, the RPC client's cap beliefs and the timeline's window index are
//! keyed by numbers this code allocates (inode ids, client ids, window
//! indices), never by outside input, and are probed several times per
//! simulated operation — SipHash's collision-attack resistance buys
//! nothing there and costs a measurable share of a create. This crate sits
//! below all of those users, so the one implementation lives here.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One multiply and a fold per `u64`.
///
/// Keys are typically dense runs inside ranges that start far apart (one
/// inode range per client grant; consecutive window indices), so a multiply
/// alone would leave the bucket bits — the low ones — a function of the
/// offset inside the range only; folding the high half down mixes the range
/// in. The table's control bytes come from the top bits, which the multiply
/// already fills.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

// `#[inline]`: the maps are monomorphized in the crates that use them, and
// a hash that is a multiply must not become a call across the crate
// boundary.
impl Hasher for IntHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        let h = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    /// A `u32` key (a client id) is widened and mixed once, not split into
    /// bytes by the default `write`.
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` over program-issued integer keys, hashed by [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;
