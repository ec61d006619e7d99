//! Property: for an arbitrary event sequence and an arbitrary single-bit
//! corruption anywhere in any journal stripe, `JournalTool::inspect` flags
//! the damage and `recover` (erase + apply) yields *exactly* the longest
//! valid prefix of the acknowledged events — never a partially-applied
//! suffix, never an event past the corruption.
//!
//! The expected prefix is computed straight from the wire format
//! (`len:u32 | crc:u32 | payload` frames tiling each stripe), independently
//! of the decoder under test.

use proptest::prelude::*;

use cudele_journal::{JournalId, JournalTool, JournalWriter};
use cudele_rados::{InMemoryStore, ObjectId, ObjectStore, PoolId};

mod common;
use common::{arb_event, whole_frames};

const STRIPE_BYTES: usize = 256;

/// Number of whole frames that end at or before `limit` in a stripe's
/// (trusted, pre-corruption) bytes.
fn frames_before(bytes: &[u8], limit: usize) -> usize {
    whole_frames(&bytes[..limit]).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn recover_yields_exactly_the_longest_valid_prefix(
        events in proptest::collection::vec(arb_event(), 1..80),
        stripe_sel in any::<u16>(),
        byte_sel in any::<u32>(),
        bit in 0u8..8,
    ) {
        let store = InMemoryStore::paper_default();
        let id = JournalId::new(PoolId::METADATA, 0x7e57);
        let mut w = JournalWriter::open_with_stripe(&store, id, STRIPE_BYTES).unwrap();
        w.append(&events).unwrap();

        // Collect the pristine stripes in sequence order.
        let mut stripes = Vec::new();
        loop {
            let obj = ObjectId::journal_stripe(id.pool, id.ino, stripes.len() as u64);
            match store.read(&obj) {
                Ok(b) => stripes.push((obj, b.to_vec())),
                Err(_) => break,
            }
        }
        prop_assert!(!stripes.is_empty());

        // Flip one arbitrary bit in one arbitrary stripe.
        let s = stripe_sel as usize % stripes.len();
        let (obj, pristine) = &stripes[s];
        let offset = byte_sel as usize % pristine.len();
        let mut dirty = pristine.clone();
        dirty[offset] ^= 1 << bit;
        store.write_full(obj, &dirty).unwrap();

        // The longest valid prefix, from the wire format alone: every frame
        // of every stripe before the damaged one, plus the frames of the
        // damaged stripe that end at or before the flipped byte. (The scan
        // must not trust stripes *after* the damage: the log is sequential.)
        let expected: usize = stripes[..s]
            .iter()
            .map(|(_, b)| frames_before(b, b.len()))
            .sum::<usize>()
            + frames_before(pristine, offset);

        let tool = JournalTool::new(&store, id);
        let summary = tool.inspect().unwrap();
        prop_assert!(summary.damage.is_some(), "inspect missed the corruption");
        prop_assert_eq!(summary.events, expected as u64);

        let recovered = tool.recover().unwrap();
        prop_assert_eq!(recovered.as_slice(), &events[..expected]);

        // Recovery healed the journal: the strict reader agrees, and a
        // second inspect sees no damage.
        let reread = cudele_journal::read_journal(&store, id).unwrap();
        prop_assert_eq!(reread, recovered);
        prop_assert_eq!(tool.inspect().unwrap().damage, None);
    }
}
