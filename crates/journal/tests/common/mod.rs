//! Strategies shared by the journal crate's property tests.

// Each test binary compiles this module and uses its own subset.
#![allow(dead_code)]

use proptest::prelude::*;

use cudele_journal::{Attrs, InodeId, JournalEvent};
use cudele_sim::Nanos;

/// An arbitrary journal event: short and long frames, updates and markers.
pub fn arb_event() -> impl Strategy<Value = JournalEvent> {
    let ino = (2u64..1 << 32).prop_map(InodeId);
    let name = proptest::string::string_regex("[a-z0-9._\\-]{1,24}").unwrap();
    let attrs = (any::<u16>(), any::<u32>()).prop_map(|(mode, uid)| Attrs {
        mode: mode as u32,
        uid,
        ..Attrs::file_default()
    });
    prop_oneof![
        (ino.clone(), name.clone(), ino.clone(), attrs.clone()).prop_map(
            |(parent, name, ino, attrs)| JournalEvent::Create {
                parent,
                name,
                ino,
                attrs
            }
        ),
        (ino.clone(), name.clone(), ino.clone(), attrs.clone()).prop_map(
            |(parent, name, ino, attrs)| JournalEvent::Mkdir {
                parent,
                name,
                ino,
                attrs
            }
        ),
        (ino.clone(), name).prop_map(|(parent, name)| JournalEvent::Unlink { parent, name }),
        (ino, attrs).prop_map(|(ino, attrs)| JournalEvent::SetAttr {
            ino,
            attrs: Attrs {
                mtime: Nanos(7),
                ..attrs
            }
        }),
        any::<u32>().prop_map(|seq| JournalEvent::SegmentBoundary { seq: seq as u64 }),
    ]
}

/// [`arb_event`] widened to the whole vocabulary — every variant, and names
/// that are empty or multi-byte — for tests of the codec itself (the writer
/// tests above treat events as opaque frames and keep the narrower mix).
pub fn arb_any_event() -> impl Strategy<Value = JournalEvent> {
    let ino = (2u64..1 << 32).prop_map(InodeId);
    let name = proptest::string::string_regex("[a-z0-9._\\-]{0,24}|[α-ωあ-ん]{1,8}").unwrap();
    prop_oneof![
        arb_event(),
        (ino.clone(), name.clone()).prop_map(|(parent, name)| JournalEvent::Rmdir { parent, name }),
        (ino.clone(), name.clone(), ino.clone(), name).prop_map(
            |(src_parent, src_name, dst_parent, dst_name)| JournalEvent::Rename {
                src_parent,
                src_name,
                dst_parent,
                dst_name,
            }
        ),
        (ino.clone(), proptest::collection::vec(any::<u8>(), 0..40))
            .prop_map(|(ino, policy)| JournalEvent::SetPolicy { ino, policy }),
        (any::<u32>(), ino, 1u64..1 << 20)
            .prop_map(|(client, start, len)| JournalEvent::AllocRange { client, start, len }),
    ]
}

/// Splits `data` into its whole leading `len|crc|payload` frames and whatever
/// follows them — (number of whole frames, bytes past the last one) —
/// walking only the length fields, independently of the decoder under test.
pub fn whole_frames(data: &[u8]) -> (usize, usize) {
    let (mut pos, mut n) = (0, 0);
    while pos + 8 <= data.len() {
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        if pos + 8 + len > data.len() {
            break;
        }
        pos += 8 + len;
        n += 1;
    }
    (n, data.len() - pos)
}
