//! Binary wire format for journal events.
//!
//! Every mechanism that touches a journal — Stream, Append Client Journal,
//! Local Persist, Global Persist, both Apply variants, and the journal tool
//! — speaks this one format. That mirrors the paper's key implementation
//! move: "By writing with the same format, the metadata servers can read
//! and use the recovery code to materialize the updates from a client's
//! decoupled namespace."
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! journal  := MAGIC("CUDELEJ1") event*
//! event    := len:u32 crc:u32 payload[len]      crc = CRC-32(payload)
//! payload  := tag:u8 fields...
//! string   := len:u32 utf8[len]
//! attrs    := mode:u32 uid:u32 gid:u32 size:u64 mtime:u64
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};
use cudele_sim::Nanos;

use crate::crc::crc32;
use crate::event::{Attrs, EventRef, InodeId, JournalEvent};

/// 8-byte magic prefix of a serialized journal.
pub const MAGIC: &[u8; 8] = b"CUDELEJ1";

/// Errors produced while decoding a journal blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The blob does not start with [`MAGIC`].
    BadMagic,
    /// Ran out of bytes mid-frame or mid-payload.
    UnexpectedEof,
    /// A frame's checksum did not match its payload.
    BadCrc {
        /// Byte offset of the corrupt frame within the event stream.
        offset: usize,
    },
    /// Unknown event tag.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A payload had bytes left over after its event decoded.
    TrailingPayload {
        /// The tag of the event whose payload over-ran.
        tag: u8,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "journal blob missing CUDELEJ1 magic"),
            CodecError::UnexpectedEof => write!(f, "journal blob truncated"),
            CodecError::BadCrc { offset } => write!(f, "journal event at byte {offset} failed CRC"),
            CodecError::BadTag(t) => write!(f, "unknown journal event tag {t}"),
            CodecError::BadUtf8 => write!(f, "journal string field is not UTF-8"),
            CodecError::TrailingPayload { tag } => {
                write!(f, "journal event tag {tag} had trailing payload bytes")
            }
        }
    }
}

impl std::error::Error for CodecError {}

const TAG_CREATE: u8 = 1;
const TAG_MKDIR: u8 = 2;
const TAG_UNLINK: u8 = 3;
const TAG_RMDIR: u8 = 4;
const TAG_RENAME: u8 = 5;
const TAG_SETATTR: u8 = 6;
const TAG_SETPOLICY: u8 = 7;
const TAG_SEGMENT: u8 = 8;
const TAG_ALLOCRANGE: u8 = 9;

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_bytes(buf: &mut BytesMut, b: &[u8]) {
    buf.put_u32_le(b.len() as u32);
    buf.put_slice(b);
}

fn put_attrs(buf: &mut BytesMut, a: &Attrs) {
    buf.put_u32_le(a.mode);
    buf.put_u32_le(a.uid);
    buf.put_u32_le(a.gid);
    buf.put_u64_le(a.size);
    buf.put_u64_le(a.mtime.as_nanos());
}

/// Encodes one event's *payload* (no frame) into `buf`.
fn encode_payload(buf: &mut BytesMut, event: EventRef<'_>) {
    match event {
        EventRef::Create {
            parent,
            name,
            ino,
            attrs,
        } => {
            buf.put_u8(TAG_CREATE);
            buf.put_u64_le(parent.0);
            put_string(buf, name);
            buf.put_u64_le(ino.0);
            put_attrs(buf, &attrs);
        }
        EventRef::Mkdir {
            parent,
            name,
            ino,
            attrs,
        } => {
            buf.put_u8(TAG_MKDIR);
            buf.put_u64_le(parent.0);
            put_string(buf, name);
            buf.put_u64_le(ino.0);
            put_attrs(buf, &attrs);
        }
        EventRef::Unlink { parent, name } => {
            buf.put_u8(TAG_UNLINK);
            buf.put_u64_le(parent.0);
            put_string(buf, name);
        }
        EventRef::Rmdir { parent, name } => {
            buf.put_u8(TAG_RMDIR);
            buf.put_u64_le(parent.0);
            put_string(buf, name);
        }
        EventRef::Rename {
            src_parent,
            src_name,
            dst_parent,
            dst_name,
        } => {
            buf.put_u8(TAG_RENAME);
            buf.put_u64_le(src_parent.0);
            put_string(buf, src_name);
            buf.put_u64_le(dst_parent.0);
            put_string(buf, dst_name);
        }
        EventRef::SetAttr { ino, attrs } => {
            buf.put_u8(TAG_SETATTR);
            buf.put_u64_le(ino.0);
            put_attrs(buf, &attrs);
        }
        EventRef::SetPolicy { ino, policy } => {
            buf.put_u8(TAG_SETPOLICY);
            buf.put_u64_le(ino.0);
            put_bytes(buf, policy);
        }
        EventRef::SegmentBoundary { seq } => {
            buf.put_u8(TAG_SEGMENT);
            buf.put_u64_le(seq);
        }
        EventRef::AllocRange { client, start, len } => {
            buf.put_u8(TAG_ALLOCRANGE);
            buf.put_u32_le(client);
            buf.put_u64_le(start.0);
            buf.put_u64_le(len);
        }
    }
}

/// Appends one framed event (`len | crc | payload`) to `buf`.
///
/// The payload is encoded in place: the 8-byte frame header is reserved
/// up front and backfilled once the payload's length and CRC are known,
/// so framing allocates nothing beyond `buf` itself — the journal write
/// path frames millions of events, and a scratch `BytesMut` per event
/// used to dominate its allocation profile.
///
/// Takes the borrowed view, which `&JournalEvent` converts to: the serving
/// path frames an update straight from its request's `&str` names.
pub fn encode_event<'a>(buf: &mut BytesMut, event: impl Into<EventRef<'a>>) {
    let frame_start = buf.len();
    buf.put_u32_le(0); // len, backfilled below
    buf.put_u32_le(0); // crc, backfilled below
    encode_payload(buf, event.into());
    let payload_start = frame_start + 8;
    let len = (buf.len() - payload_start) as u32;
    let crc = crc32(&buf[payload_start..]);
    buf[frame_start..frame_start + 4].copy_from_slice(&len.to_le_bytes());
    buf[frame_start + 4..payload_start].copy_from_slice(&crc.to_le_bytes());
}

/// Serializes a whole journal: magic prefix plus framed events. The output
/// buffer is sized exactly via [`framed_len`], so encoding a large journal
/// (Local Persist snapshots 100 K+ events at once) performs a single
/// allocation instead of doubling-growth copies.
pub fn encode_journal<'a>(events: impl IntoIterator<Item = &'a JournalEvent> + Clone) -> Bytes {
    let total: usize = events.clone().into_iter().map(framed_len).sum();
    let mut buf = BytesMut::with_capacity(MAGIC.len() + total);
    buf.put_slice(MAGIC);
    for e in events {
        encode_event(&mut buf, e);
    }
    debug_assert_eq!(buf.len(), MAGIC.len() + total);
    buf.freeze()
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.data.len() {
            return Err(CodecError::UnexpectedEof);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let mut b = self.take(4)?;
        Ok(b.get_u32_le())
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let mut b = self.take(8)?;
        Ok(b.get_u64_le())
    }

    fn string(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        // Validate in place; allocate only once the bytes are known-good.
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| CodecError::BadUtf8)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn attrs(&mut self) -> Result<Attrs, CodecError> {
        Ok(Attrs {
            mode: self.u32()?,
            uid: self.u32()?,
            gid: self.u32()?,
            size: self.u64()?,
            mtime: Nanos(self.u64()?),
        })
    }

    fn done(&self) -> bool {
        self.pos == self.data.len()
    }
}

fn decode_payload(payload: &[u8]) -> Result<JournalEvent, CodecError> {
    let mut c = Cursor {
        data: payload,
        pos: 0,
    };
    let tag = c.u8()?;
    let event = match tag {
        TAG_CREATE => JournalEvent::Create {
            parent: InodeId(c.u64()?),
            name: c.string()?,
            ino: InodeId(c.u64()?),
            attrs: c.attrs()?,
        },
        TAG_MKDIR => JournalEvent::Mkdir {
            parent: InodeId(c.u64()?),
            name: c.string()?,
            ino: InodeId(c.u64()?),
            attrs: c.attrs()?,
        },
        TAG_UNLINK => JournalEvent::Unlink {
            parent: InodeId(c.u64()?),
            name: c.string()?,
        },
        TAG_RMDIR => JournalEvent::Rmdir {
            parent: InodeId(c.u64()?),
            name: c.string()?,
        },
        TAG_RENAME => JournalEvent::Rename {
            src_parent: InodeId(c.u64()?),
            src_name: c.string()?,
            dst_parent: InodeId(c.u64()?),
            dst_name: c.string()?,
        },
        TAG_SETATTR => JournalEvent::SetAttr {
            ino: InodeId(c.u64()?),
            attrs: c.attrs()?,
        },
        TAG_SETPOLICY => JournalEvent::SetPolicy {
            ino: InodeId(c.u64()?),
            policy: c.bytes()?,
        },
        TAG_SEGMENT => JournalEvent::SegmentBoundary { seq: c.u64()? },
        TAG_ALLOCRANGE => JournalEvent::AllocRange {
            client: c.u32()?,
            start: InodeId(c.u64()?),
            len: c.u64()?,
        },
        t => return Err(CodecError::BadTag(t)),
    };
    if !c.done() {
        return Err(CodecError::TrailingPayload { tag });
    }
    Ok(event)
}

/// Decodes a full journal blob (magic + framed events).
pub fn decode_journal(blob: &[u8]) -> Result<Vec<JournalEvent>, CodecError> {
    if blob.len() < MAGIC.len() || &blob[..MAGIC.len()] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    decode_frames(&blob[MAGIC.len()..])
}

/// Decodes a sequence of framed events with no magic prefix (the format of
/// journal stripe objects, which only the header object prefixes).
pub fn decode_frames(rest: &[u8]) -> Result<Vec<JournalEvent>, CodecError> {
    let scan = decode_frames_lossy(rest);
    match scan.damage {
        None => Ok(scan.events),
        Some(d) => Err(d.error),
    }
}

/// Where a frame stream went bad, as reported by [`decode_frames_lossy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameDamage {
    /// Byte offset of the first damaged frame within the event stream.
    pub offset: usize,
    /// What was wrong at that offset.
    pub error: CodecError,
}

/// Result of a lossy scan: the longest cleanly-decodable event prefix plus
/// (if the stream was damaged) where decoding had to stop.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameScan {
    /// Events decoded before the first damage.
    pub events: Vec<JournalEvent>,
    /// `None` when the whole stream decoded cleanly.
    pub damage: Option<FrameDamage>,
}

/// Like [`decode_frames`], but damage (torn frame, bad CRC, bad payload)
/// stops the scan instead of failing it: everything before the damage is
/// returned, with the damage location alongside. This is what the journal
/// tool's `inspect` and recovery paths build on — a torn write or bit flip
/// must never discard the valid prefix.
pub fn decode_frames_lossy(rest: &[u8]) -> FrameScan {
    let mut events = Vec::new();
    let damage = decode_frames_lossy_into(rest, &mut events);
    FrameScan { events, damage }
}

/// Streaming form of [`decode_frames_lossy`]: appends decoded events to
/// `events` and returns the damage (if any). Callers that assemble a journal
/// from many stripes (`read_journal`, `scan_journal`) reuse one output vector
/// across stripes instead of allocating and splicing a `Vec` per stripe.
pub fn decode_frames_lossy_into(
    rest: &[u8],
    events: &mut Vec<JournalEvent>,
) -> Option<FrameDamage> {
    let mut offset = 0usize;
    loop {
        let tail = &rest[offset..];
        if tail.is_empty() {
            return None;
        }
        let error = match decode_one_frame(tail) {
            Ok((event, consumed)) => {
                events.push(event);
                offset += consumed;
                continue;
            }
            Err(e) => match e {
                // Report the CRC failure at the stream offset, as
                // `decode_frames` would.
                CodecError::BadCrc { .. } => CodecError::BadCrc { offset },
                other => other,
            },
        };
        return Some(FrameDamage { offset, error });
    }
}

/// Total size (header + payload) the frame at the head of `rest` claims in
/// its `len` prefix, or `None` if `rest` is too short to hold a frame
/// header. The journal writer cuts a frame buffer into per-stripe runs with
/// this, without decoding anything.
pub(crate) fn frame_len(rest: &[u8]) -> Option<usize> {
    let len: [u8; 4] = rest.get(..8)?[..4].try_into().ok()?;
    Some(8 + u32::from_le_bytes(len) as usize)
}

/// Decodes the frame at the head of `rest`; returns the event and the
/// frame's total size.
fn decode_one_frame(rest: &[u8]) -> Result<(JournalEvent, usize), CodecError> {
    let total = frame_len(rest)
        .filter(|&total| total <= rest.len())
        .ok_or(CodecError::UnexpectedEof)?;
    let crc_stored = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
    let payload = &rest[8..total];
    if crc32(payload) != crc_stored {
        return Err(CodecError::BadCrc { offset: 0 });
    }
    Ok((decode_payload(payload)?, total))
}

/// Serialized size in bytes of one framed event. (The cost model separately
/// accounts the paper's observed ~2.5 KB per update, which includes Ceph's
/// much fatter inode and lump metadata; this is the *functional* size.)
///
/// Computed analytically from the wire layout — no trial encoding — so batch
/// writers can size buffers exactly before encoding. The
/// `framed_len_matches_encoding` test pins this against [`encode_event`].
pub fn framed_len(event: &JournalEvent) -> usize {
    const FRAME_HEADER: usize = 8; // len:u32 crc:u32
    const ATTRS: usize = 4 + 4 + 4 + 8 + 8; // mode uid gid size mtime
    const STR_HEADER: usize = 4; // len:u32
    let payload = match event {
        JournalEvent::Create { name, .. } | JournalEvent::Mkdir { name, .. } => {
            1 + 8 + STR_HEADER + name.len() + 8 + ATTRS
        }
        JournalEvent::Unlink { name, .. } | JournalEvent::Rmdir { name, .. } => {
            1 + 8 + STR_HEADER + name.len()
        }
        JournalEvent::Rename {
            src_name, dst_name, ..
        } => 1 + 8 + STR_HEADER + src_name.len() + 8 + STR_HEADER + dst_name.len(),
        JournalEvent::SetAttr { .. } => 1 + 8 + ATTRS,
        JournalEvent::SetPolicy { policy, .. } => 1 + 8 + STR_HEADER + policy.len(),
        JournalEvent::SegmentBoundary { .. } => 1 + 8,
        JournalEvent::AllocRange { .. } => 1 + 4 + 8 + 8,
    };
    FRAME_HEADER + payload
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FileType;

    fn sample_events() -> Vec<JournalEvent> {
        vec![
            JournalEvent::Mkdir {
                parent: InodeId::ROOT,
                name: "dir".into(),
                ino: InodeId(0x1000),
                attrs: Attrs::dir_default(),
            },
            JournalEvent::Create {
                parent: InodeId(0x1000),
                name: "file-0".into(),
                ino: InodeId(0x1001),
                attrs: Attrs {
                    mode: 0o600,
                    uid: 7,
                    gid: 8,
                    size: 42,
                    mtime: Nanos::from_secs(9),
                },
            },
            JournalEvent::SetAttr {
                ino: InodeId(0x1001),
                attrs: Attrs::file_default(),
            },
            JournalEvent::Rename {
                src_parent: InodeId(0x1000),
                src_name: "file-0".into(),
                dst_parent: InodeId::ROOT,
                dst_name: "file-1".into(),
            },
            JournalEvent::Unlink {
                parent: InodeId::ROOT,
                name: "file-1".into(),
            },
            JournalEvent::Rmdir {
                parent: InodeId::ROOT,
                name: "dir".into(),
            },
            JournalEvent::SetPolicy {
                ino: InodeId::ROOT,
                policy: vec![1, 2, 3, 255],
            },
            JournalEvent::SegmentBoundary { seq: 17 },
            JournalEvent::AllocRange {
                client: 3,
                start: InodeId(0x11000),
                len: 1 << 16,
            },
        ]
    }

    #[test]
    fn roundtrip_all_event_types() {
        let events = sample_events();
        let blob = encode_journal(&events);
        let decoded = decode_journal(&blob).unwrap();
        assert_eq!(decoded, events);
    }

    #[test]
    fn empty_journal_roundtrips() {
        let blob = encode_journal(&[]);
        assert_eq!(blob.as_ref(), MAGIC);
        assert_eq!(decode_journal(&blob).unwrap(), vec![]);
    }

    #[test]
    fn bad_magic_rejected() {
        let blob = b"NOTMAGIC".to_vec();
        assert_eq!(decode_journal(&blob), Err(CodecError::BadMagic));
        assert_eq!(decode_journal(b""), Err(CodecError::BadMagic));
    }

    #[test]
    fn truncation_detected() {
        let events = sample_events();
        let blob = encode_journal(&events);
        for cut in [blob.len() - 1, blob.len() - 5, MAGIC.len() + 3] {
            let err = decode_journal(&blob[..cut]).unwrap_err();
            assert_eq!(err, CodecError::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn corruption_detected_by_crc() {
        let events = sample_events();
        let mut blob = encode_journal(&events).to_vec();
        // Flip a byte inside the first payload (after magic + 8-byte frame
        // header).
        blob[MAGIC.len() + 8] ^= 0xFF;
        assert!(matches!(
            decode_journal(&blob),
            Err(CodecError::BadCrc { offset: 0 })
        ));
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        let payload = [99u8]; // no such tag
        buf.put_u32_le(1);
        buf.put_u32_le(crc32(&payload));
        buf.put_slice(&payload);
        assert_eq!(decode_journal(&buf), Err(CodecError::BadTag(99)));
    }

    #[test]
    fn trailing_payload_rejected() {
        let mut payload = BytesMut::new();
        payload.put_u8(8); // SegmentBoundary
        payload.put_u64_le(1);
        payload.put_u8(0xEE); // junk
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(payload.len() as u32);
        buf.put_u32_le(crc32(&payload));
        buf.put_slice(&payload);
        assert_eq!(
            decode_journal(&buf),
            Err(CodecError::TrailingPayload { tag: 8 })
        );
    }

    #[test]
    fn frames_without_magic() {
        let events = sample_events();
        let mut buf = BytesMut::new();
        for e in &events {
            encode_event(&mut buf, e);
        }
        assert_eq!(decode_frames(&buf).unwrap(), events);
    }

    #[test]
    fn lossy_scan_returns_longest_valid_prefix() {
        let events = sample_events();
        let mut buf = BytesMut::new();
        for e in &events {
            encode_event(&mut buf, e);
        }
        // Clean stream: everything, no damage.
        let scan = decode_frames_lossy(&buf);
        assert_eq!(scan.events, events);
        assert_eq!(scan.damage, None);

        // Corrupt the third frame's payload: the first two survive.
        let frame_offset: usize = events[..2].iter().map(framed_len).sum();
        let mut corrupt = buf.to_vec();
        corrupt[frame_offset + 8] ^= 0x01;
        let scan = decode_frames_lossy(&corrupt);
        assert_eq!(scan.events, events[..2].to_vec());
        assert_eq!(
            scan.damage,
            Some(FrameDamage {
                offset: frame_offset,
                error: CodecError::BadCrc {
                    offset: frame_offset
                },
            })
        );

        // Torn tail (mid-frame truncation): prefix survives, EOF reported.
        let torn = &buf[..frame_offset + 5];
        let scan = decode_frames_lossy(torn);
        assert_eq!(scan.events, events[..2].to_vec());
        assert_eq!(
            scan.damage,
            Some(FrameDamage {
                offset: frame_offset,
                error: CodecError::UnexpectedEof,
            })
        );
    }

    #[test]
    fn framed_len_matches_encoding() {
        for e in sample_events() {
            let mut buf = BytesMut::new();
            encode_event(&mut buf, &e);
            assert_eq!(framed_len(&e), buf.len());
        }
    }

    #[test]
    fn unicode_names_roundtrip() {
        let e = JournalEvent::Create {
            parent: InodeId::ROOT,
            name: "档案-ファイル-αρχείο".into(),
            ino: InodeId(0x2000),
            attrs: Attrs::file_default(),
        };
        let blob = encode_journal(std::iter::once(&e));
        assert_eq!(decode_journal(&blob).unwrap(), vec![e]);
        let _ = FileType::File; // keep the import exercised
    }
}
