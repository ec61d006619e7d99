#![warn(missing_docs)]

//! The CephFS-style metadata journal: event model, wire format, segments,
//! and object-store striping.
//!
//! The journal is the load-bearing substrate of Cudele: "The journal format
//! is used by Stream, Append Client Journal, Local Persist, and Global
//! Persist ... By writing with the same format, the metadata servers can
//! read and use the recovery code to materialize the updates from a
//! client's decoupled namespace (i.e. merge)."
//!
//! * [`event`] — the update vocabulary, one [`Event`] held owned
//!   ([`JournalEvent`]) or borrowed ([`EventRef`]), plus the shared base
//!   types ([`InodeId`], [`Attrs`], [`InodeRange`]).
//! * [`codec`] — framed binary wire format with per-event CRC-32, read by
//!   one borrowed parser ([`parse_frames`]).
//! * [`segment`] — grouping events into the segments the mdlog dispatches.
//! * [`store_io`] — striping a journal over object-store objects, and the
//!   functions Cudele's client library "re-purposed" from
//!   `cephfs-journal-tool`: [`read_journal`] (read), [`scan_journal`]
//!   (inspect), [`recover_journal`] (disaster recovery) and
//!   [`delete_journal`]. Nonvolatile Apply replays [`read_journal`]'s events
//!   into the object store one at a time.
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

pub use codec::{
    decode_frames, decode_journal, encode_event, encode_journal, framed_len, parse_frames,
    parse_journal, CodecError, FrameDamage,
};
pub use crc::crc32;
pub use event::{Attrs, Event, EventRef, FileType, InodeId, InodeRange, JournalEvent};
pub use segment::{Segment, SegmentBuilder};
pub use store_io::{
    delete_journal, journal_exists, read_journal, recover_journal, scan_journal, view_journal,
    JournalDamage, JournalId, JournalIoError, JournalObs, JournalRead, JournalScan, JournalWriter,
    Stripes, DEFAULT_STRIPE_BYTES,
};
