//! The codec's one encoder is written against the borrowed view
//! ([`EventRef`]); owned events reach it by conversion. This file is the
//! referee for that move: an encoder written here from the wire layout in
//! `codec.rs`'s module docs — independent of both `EventRef` and
//! `encode_event` — must produce the same bytes as encoding the owned event
//! and as encoding its view, for every variant, and decoding those bytes
//! must give the event back.

use bytes::BytesMut;
use proptest::prelude::*;

use cudele_journal::{crc32, decode_frames, encode_event, Attrs, EventRef, JournalEvent};

mod common;
use common::arb_any_event;

/// `len:u32 crc:u32 payload`, payload per the layout table; all integers
/// little-endian, strings and blobs `len:u32` prefixed.
fn reference_frame(event: &JournalEvent) -> Vec<u8> {
    fn string(p: &mut Vec<u8>, s: &[u8]) {
        p.extend_from_slice(&(s.len() as u32).to_le_bytes());
        p.extend_from_slice(s);
    }
    fn attrs(p: &mut Vec<u8>, a: &Attrs) {
        p.extend_from_slice(&a.mode.to_le_bytes());
        p.extend_from_slice(&a.uid.to_le_bytes());
        p.extend_from_slice(&a.gid.to_le_bytes());
        p.extend_from_slice(&a.size.to_le_bytes());
        p.extend_from_slice(&a.mtime.0.to_le_bytes());
    }
    let mut p = Vec::new();
    match event {
        JournalEvent::Create {
            parent,
            name,
            ino,
            attrs: a,
        }
        | JournalEvent::Mkdir {
            parent,
            name,
            ino,
            attrs: a,
        } => {
            p.push(if matches!(event, JournalEvent::Create { .. }) {
                1
            } else {
                2
            });
            p.extend_from_slice(&parent.0.to_le_bytes());
            string(&mut p, name.as_bytes());
            p.extend_from_slice(&ino.0.to_le_bytes());
            attrs(&mut p, a);
        }
        JournalEvent::Unlink { parent, name } | JournalEvent::Rmdir { parent, name } => {
            p.push(if matches!(event, JournalEvent::Unlink { .. }) {
                3
            } else {
                4
            });
            p.extend_from_slice(&parent.0.to_le_bytes());
            string(&mut p, name.as_bytes());
        }
        JournalEvent::Rename {
            src_parent,
            src_name,
            dst_parent,
            dst_name,
        } => {
            p.push(5);
            p.extend_from_slice(&src_parent.0.to_le_bytes());
            string(&mut p, src_name.as_bytes());
            p.extend_from_slice(&dst_parent.0.to_le_bytes());
            string(&mut p, dst_name.as_bytes());
        }
        JournalEvent::SetAttr { ino, attrs: a } => {
            p.push(6);
            p.extend_from_slice(&ino.0.to_le_bytes());
            attrs(&mut p, a);
        }
        JournalEvent::SetPolicy { ino, policy } => {
            p.push(7);
            p.extend_from_slice(&ino.0.to_le_bytes());
            string(&mut p, policy);
        }
        JournalEvent::SegmentBoundary { seq } => {
            p.push(8);
            p.extend_from_slice(&seq.to_le_bytes());
        }
        JournalEvent::AllocRange { client, start, len } => {
            p.push(9);
            p.extend_from_slice(&client.to_le_bytes());
            p.extend_from_slice(&start.0.to_le_bytes());
            p.extend_from_slice(&len.to_le_bytes());
        }
    }
    let mut frame = (p.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&crc32(&p).to_le_bytes());
    frame.extend_from_slice(&p);
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn owned_and_borrowed_encode_to_the_reference_bytes_and_decode_back(
        events in proptest::collection::vec(arb_any_event(), 0..24),
    ) {
        let (mut owned, mut viewed, mut want) = (BytesMut::new(), BytesMut::new(), Vec::new());
        for e in &events {
            encode_event(&mut owned, e);
            encode_event(&mut viewed, EventRef::from(e));
            want.extend_from_slice(&reference_frame(e));
        }
        prop_assert_eq!(&owned[..], &want[..]);
        prop_assert_eq!(&viewed[..], &want[..]);
        prop_assert_eq!(decode_frames(&want).unwrap(), events);
    }
}
