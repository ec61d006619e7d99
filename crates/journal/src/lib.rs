#![warn(missing_docs)]

//! The CephFS-style metadata journal: event model, wire format, segments,
//! object-store striping, and the disaster-recovery journal tool.
//!
//! The journal is the load-bearing substrate of Cudele: "The journal format
//! is used by Stream, Append Client Journal, Local Persist, and Global
//! Persist ... By writing with the same format, the metadata servers can
//! read and use the recovery code to materialize the updates from a
//! client's decoupled namespace (i.e. merge)."
//!
//! * [`event`] — the update vocabulary ([`JournalEvent`]) plus the shared
//!   base types ([`InodeId`], [`Attrs`], [`InodeRange`]) and the
//!   [`EventSink`] replay trait.
//! * [`codec`] — framed binary wire format with per-event CRC-32.
//! * [`segment`] — grouping events into trimmable segments.
//! * [`store_io`] — striping a journal over object-store objects.
//! * [`tool`] — import/export/erase/apply; the code Cudele's client
//!   library is "based on".
//!
//! ```
//! use cudele_journal::{encode_journal, decode_journal, Attrs, InodeId, JournalEvent};
//!
//! let events = vec![JournalEvent::Create {
//!     parent: InodeId::ROOT,
//!     name: "hello.txt".into(),
//!     ino: InodeId(0x1000),
//!     attrs: Attrs::file_default(),
//! }];
//! let blob = encode_journal(&events);          // framed, CRC-protected
//! assert_eq!(decode_journal(&blob).unwrap(), events);
//! ```

pub mod codec;
pub mod crc;
pub mod event;
pub mod segment;
pub mod store_io;
pub mod tool;

pub use codec::{
    decode_frames, decode_frames_lossy, decode_journal, encode_event, encode_journal, framed_len,
    CodecError, FrameDamage, FrameScan,
};
pub use crc::crc32;
pub use event::{Attrs, EventRef, EventSink, FileType, InodeId, InodeRange, JournalEvent};
pub use segment::{segment_events, Segment, SegmentBuilder};
pub use store_io::{
    delete_journal, journal_exists, read_journal, recover_journal, rewrite_journal, scan_journal,
    trim_journal, JournalDamage, JournalId, JournalIoError, JournalObs, JournalScan, JournalWriter,
    DEFAULT_STRIPE_BYTES,
};
pub use tool::{decode_export, ApplyError, JournalSummary, JournalTool};
