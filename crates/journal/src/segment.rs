//! Journal segments.
//!
//! CephFS groups journal events into *segments*; the journaler dispatches
//! whole segments to the object store and the trimmer drops whole segments
//! once their updates are safely applied to the backing metadata store.
//! The two tunables the paper sweeps in Figure 3a — segment size and
//! dispatch size ("the number of segments that can be dispatched at once")
//! — both operate on this structure.
//!
//! A segment holds wire frames, not event values: an event is encoded once,
//! when pushed, and a sealed segment is exactly the bytes
//! [`crate::JournalWriter::append_frames`] hands to the object store.

use bytes::{Bytes, BytesMut};

use crate::codec::encode_event;
use crate::event::{EventRef, JournalEvent};

/// A sealed group of journal events.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Monotonic segment sequence number.
    pub seq: u64,
    /// The events as `len | crc | payload` frames ([`crate::codec`]); decode
    /// with [`crate::decode_frames`]. The final frame is always the
    /// [`JournalEvent::SegmentBoundary`] marker for `seq`.
    pub frames: Bytes,
    /// Number of frames, boundary marker included.
    pub events: u64,
    /// Number of namespace *updates* among them ([`JournalEvent::is_update`]).
    pub updates: u64,
}

/// Frames events into fixed-size segments.
#[derive(Debug)]
pub struct SegmentBuilder {
    events_per_segment: usize,
    next_seq: u64,
    /// Frames of the open segment. Sealing copies them out at their exact
    /// size and keeps this buffer's capacity for the next segment.
    frames: BytesMut,
    events: u64,
    updates: u64,
}

impl SegmentBuilder {
    /// CephFS-like default: large segments (here counted in events rather
    /// than megabytes; at ~2.5 KB per update, 1024 events ≈ 2.5 MB, the
    /// "on the order of MBs" the paper describes).
    pub const DEFAULT_EVENTS_PER_SEGMENT: usize = 1024;

    /// Creates a builder sealing a segment every `events_per_segment`
    /// events.
    pub fn new(events_per_segment: usize) -> Self {
        assert!(events_per_segment > 0, "segment size must be positive");
        SegmentBuilder {
            events_per_segment,
            next_seq: 0,
            frames: BytesMut::new(),
            events: 0,
            updates: 0,
        }
    }

    /// Frames an event into the open segment; returns the sealed segment
    /// if this event filled it.
    pub fn push<'a>(&mut self, event: impl Into<EventRef<'a>>) -> Option<Segment> {
        let event = event.into();
        encode_event(&mut self.frames, event);
        self.events += 1;
        self.updates += u64::from(event.is_update());
        (self.events >= self.events_per_segment as u64).then(|| self.seal())
    }

    /// Seals whatever is buffered (possibly empty => None).
    pub fn flush(&mut self) -> Option<Segment> {
        (self.events > 0).then(|| self.seal())
    }

    /// Number of events buffered but not yet sealed.
    pub fn pending(&self) -> usize {
        self.events as usize
    }

    /// Sequence number the next sealed segment will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    fn seal(&mut self) -> Segment {
        let seq = self.next_seq;
        self.next_seq += 1;
        encode_event(&mut self.frames, &JournalEvent::SegmentBoundary { seq });
        let frames = Bytes::copy_from_slice(&self.frames);
        self.frames.clear();
        Segment {
            seq,
            frames,
            events: std::mem::take(&mut self.events) + 1,
            updates: std::mem::take(&mut self.updates),
        }
    }
}

/// Splits a flat event list into sealed segments (used when importing a
/// decoupled client journal, which arrives unsegmented).
pub fn segment_events<'a>(
    events: impl IntoIterator<Item = &'a JournalEvent>,
    events_per_segment: usize,
) -> Vec<Segment> {
    let mut b = SegmentBuilder::new(events_per_segment);
    let mut out: Vec<Segment> = events.into_iter().filter_map(|e| b.push(e)).collect();
    out.extend(b.flush());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode_frames;
    use crate::event::{Attrs, InodeId};

    fn create(i: u64) -> JournalEvent {
        JournalEvent::Create {
            parent: InodeId::ROOT,
            name: format!("f{i}"),
            ino: InodeId(0x1000 + i),
            attrs: Attrs::file_default(),
        }
    }

    #[test]
    fn seals_at_capacity() {
        let mut b = SegmentBuilder::new(3);
        assert!(b.push(&create(0)).is_none());
        assert!(b.push(&create(1)).is_none());
        let seg = b.push(&create(2)).expect("sealed");
        assert_eq!(seg.seq, 0);
        assert_eq!(seg.events, 4); // 3 updates + boundary
        assert_eq!(seg.updates, 3);
        let events = decode_frames(&seg.frames).unwrap();
        assert_eq!(events[..3], [create(0), create(1), create(2)]);
        assert_eq!(
            events.last(),
            Some(&JournalEvent::SegmentBoundary { seq: 0 })
        );
        assert_eq!(events.len(), 4);
    }

    #[test]
    fn flush_seals_partial() {
        let mut b = SegmentBuilder::new(10);
        b.push(&create(0));
        assert_eq!(b.pending(), 1);
        let seg = b.flush().expect("partial segment");
        assert_eq!(seg.updates, 1);
        assert_eq!(b.pending(), 0);
        assert!(b.flush().is_none());
    }

    #[test]
    fn grants_count_as_events_but_not_updates() {
        let mut b = SegmentBuilder::new(2);
        let grant = JournalEvent::AllocRange {
            client: 1,
            start: InodeId(0x1000),
            len: 16,
        };
        assert!(b.push(&grant).is_none());
        let seg = b.push(&create(0)).expect("two events fill the segment");
        assert_eq!((seg.events, seg.updates), (3, 1));
    }

    #[test]
    fn sequence_numbers_increase() {
        let events: Vec<_> = (0..10).map(create).collect();
        let segs = segment_events(&events, 4);
        assert_eq!(segs.len(), 3); // 4 + 4 + 2
        assert_eq!(
            segs.iter().map(|s| s.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(segs[2].updates, 2);
        // Total updates preserved.
        let total: u64 = segs.iter().map(|s| s.updates).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn empty_input_yields_no_segments() {
        assert!(segment_events(std::iter::empty(), 8).is_empty());
    }
}
