//! Reading and writing journals in the object store.
//!
//! A journal with id `ino` is striped over objects named
//! `"<ino:x>.<seq:08x>"` (multiple events per object, objects capped at a
//! stripe size), plus a header object `"<ino:x>_header"` recording the
//! stripe count. This mirrors CephFS: "The journal is striped over objects
//! where multiple journal updates can reside on the same object."

use bytes::{Buf, BufMut, Bytes, BytesMut};
use cudele_faults::{with_retry, RetryPolicy};
use cudele_obs::timeline::Series;
use std::sync::Arc;

use cudele_obs::{Counter, Registry, SpanName, TraceCtx};
use cudele_rados::{ObjectId, ObjectStore, PoolId, RadosError};
use cudele_sim::Nanos;

use crate::codec::{self, CodecError};
use crate::event::{EventRef, JournalEvent};

/// Default stripe capacity in bytes — 4 MiB, the RADOS default object size.
pub const DEFAULT_STRIPE_BYTES: usize = 4 << 20;

/// Errors from journal I/O against the object store.
#[derive(Debug)]
pub enum JournalIoError {
    /// The object store failed.
    Rados(RadosError),
    /// A stripe's contents failed to decode.
    Codec(CodecError),
    /// Header object exists but is malformed.
    BadHeader,
}

impl std::fmt::Display for JournalIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalIoError::Rados(e) => write!(f, "object store error: {e}"),
            JournalIoError::Codec(e) => write!(f, "journal decode error: {e}"),
            JournalIoError::BadHeader => write!(f, "malformed journal header object"),
        }
    }
}

impl std::error::Error for JournalIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalIoError::Rados(e) => Some(e),
            JournalIoError::Codec(e) => Some(e),
            JournalIoError::BadHeader => None,
        }
    }
}

impl From<RadosError> for JournalIoError {
    fn from(e: RadosError) -> Self {
        JournalIoError::Rados(e)
    }
}

impl From<CodecError> for JournalIoError {
    fn from(e: CodecError) -> Self {
        JournalIoError::Codec(e)
    }
}

/// Identifies one journal in one pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalId {
    /// Pool the journal's objects live in.
    pub pool: PoolId,
    /// Journal inode number. The MDS journal is 0x200 by CephFS convention;
    /// decoupled client journals use their session's allocated id.
    pub ino: u64,
}

impl JournalId {
    /// The MDS's own metadata log ("mdlog"), inode 0x200 as in CephFS.
    pub const MDLOG: JournalId = JournalId {
        pool: PoolId::METADATA,
        ino: 0x200,
    };

    /// A journal identified by `ino` in `pool`.
    pub fn new(pool: PoolId, ino: u64) -> Self {
        JournalId { pool, ino }
    }

    fn header_object(&self) -> ObjectId {
        ObjectId::new(self.pool, format!("{:x}_header", self.ino))
    }

    fn stripe_object(&self, seq: u64) -> ObjectId {
        ObjectId::journal_stripe(self.pool, self.ino, seq)
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Header {
    stripes: u64,
}

/// The 24-byte header object: magic, stripe count, and a reserved word that
/// is always zero — an event's index in the journal is its position in the
/// stripes, nothing is ever skipped.
fn encode_header(h: Header) -> Bytes {
    let mut b = BytesMut::with_capacity(24);
    b.put_slice(b"CUDELEH1");
    b.put_u64_le(h.stripes);
    b.put_u64_le(0);
    b.freeze()
}

/// Reads `id`'s header object; `None` when the journal does not exist.
fn read_header<S: ObjectStore + ?Sized>(
    store: &S,
    id: JournalId,
) -> Result<Option<Header>, JournalIoError> {
    let data = match with_retry(|| store.read(&id.header_object())) {
        Ok(data) => data,
        Err(RadosError::NoEnt(_)) => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if data.len() != 24 || &data[..8] != b"CUDELEH1" {
        return Err(JournalIoError::BadHeader);
    }
    let mut rest = &data[8..];
    let stripes = rest.get_u64_le();
    if rest.get_u64_le() != 0 {
        return Err(JournalIoError::BadHeader);
    }
    Ok(Some(Header { stripes }))
}

cudele_obs::handles! {
    /// Observability handles for journal writes. Hand one to a
    /// [`JournalWriter`] (writers are transient, the handles are cheap
    /// clones: an owner resolves them once and clones them into every writer
    /// it opens) to count append batches, events, bytes, and stripe
    /// rollovers under `journal.writer.*`, and, for a traced writer, to
    /// draw each absorbed retry as a `faults` span.
    #[derive(Debug)]
    pub struct JournalObs(reg: &Arc<Registry>) {
        reg: Arc<Registry> = Arc::clone(reg),
        /// `journal.writer.appends` — append batches issued.
        pub appends: Counter = reg.counter("journal.writer.appends"),
        /// `journal.writer.events` — events written.
        pub events: Counter = reg.counter("journal.writer.events"),
        /// `journal.writer.bytes` — encoded journal bytes written.
        pub bytes: Counter = reg.counter("journal.writer.bytes"),
        /// `journal.writer.stripe_rollovers` — times a stripe filled and a
        /// new stripe object was opened.
        pub stripe_rollovers: Counter = reg.counter("journal.writer.stripe_rollovers"),
        /// `journal.io.retries` — transient object-store failures absorbed
        /// by the writer's retry policy.
        pub retries: Counter = reg.counter("journal.io.retries"),
        /// Windowed series (write rate, byte rate, retry rate, backoff
        /// level) stamped with the store's clock ([`ObjectStore::now`]).
        tl_appends: Series = reg.timeline().series("journal.writer.appends"),
        tl_bytes: Series = reg.timeline().series("journal.writer.bytes"),
        tl_retries: Series = reg.timeline().series("journal.io.retries"),
        tl_backoff_ns: Series = reg.timeline().series("journal.writer.backoff_ns"),
        /// A retried stripe append.
        retry_append: SpanName = reg.span_name("retry.stripe_append", "faults"),
        /// Any other retried store call (header write, torn-stripe repair).
        retry_io: SpanName = reg.span_name("retry.journal_io", "faults"),
    }
}

/// Appends journal events to striped objects.
///
/// Writes ride a [`RetryPolicy`]: transient object-store failures are
/// retried with exponential backoff charged to [`JournalWriter::backoff`]
/// (virtual time — callers fold it into their clocks), and a torn append is
/// repaired before its retry by truncating the stripe back to the last
/// acknowledged length. An `Ok` from [`JournalWriter::append`] therefore
/// means every event in the batch is durably framed.
pub struct JournalWriter<'a, S: ObjectStore + ?Sized> {
    store: &'a S,
    id: JournalId,
    stripe_bytes: usize,
    header: Header,
    current_stripe_len: usize,
    obs: Option<JournalObs>,
    retry: RetryPolicy,
    /// The traced caller's context and virtual-time anchor.
    trace: Option<(TraceCtx, Nanos)>,
    /// Transient failures absorbed by retries over this writer's lifetime.
    pub retries: u64,
    /// Virtual-time backoff accumulated by those retries.
    pub backoff: Nanos,
}

impl<'a, S: ObjectStore + ?Sized> JournalWriter<'a, S> {
    /// Opens (or creates) the journal for appending.
    pub fn open(store: &'a S, id: JournalId) -> Result<Self, JournalIoError> {
        Self::open_with_stripe(store, id, DEFAULT_STRIPE_BYTES)
    }

    /// Opens with a custom stripe capacity (tests use tiny stripes to
    /// exercise rollover).
    pub fn open_with_stripe(
        store: &'a S,
        id: JournalId,
        stripe_bytes: usize,
    ) -> Result<Self, JournalIoError> {
        assert!(stripe_bytes > 0);
        let header = read_header(store, id)?.unwrap_or_default();
        let current_stripe_len = if header.stripes == 0 {
            0
        } else {
            match with_retry(|| store.stat(&id.stripe_object(header.stripes - 1))) {
                Ok(s) => s.size as usize,
                Err(RadosError::NoEnt(_)) => 0,
                Err(e) => return Err(e.into()),
            }
        };
        Ok(JournalWriter {
            store,
            id,
            stripe_bytes,
            header,
            current_stripe_len,
            obs: None,
            retry: RetryPolicy::default(),
            trace: None,
            retries: 0,
            backoff: Nanos::ZERO,
        })
    }

    /// Counts this writer's appends on `obs`.
    pub fn set_obs(&mut self, obs: JournalObs) {
        self.obs = Some(obs);
    }

    /// Traces the writer under `ctx`: every transient failure it absorbs
    /// is drawn (through its [`JournalObs`]) as a `faults`-category retry
    /// span, at `at` plus the backoff accumulated so far — where the caller
    /// will charge it on the virtual clock.
    pub fn set_trace(&mut self, ctx: TraceCtx, at: Nanos) {
        self.trace = Some((ctx, at));
    }

    /// Runs one store operation under the writer's retry policy, charging
    /// retries and backoff to the writer's accounting.
    fn io<T>(
        &mut self,
        mut f: impl FnMut(&S) -> cudele_rados::Result<T>,
    ) -> cudele_rados::Result<T> {
        let (store, policy) = (self.store, self.retry);
        let traced = self.obs.as_ref().zip(self.trace);
        let retried = |before, pause| {
            if let Some((o, (ctx, at))) = traced {
                o.reg.child_named(ctx, o.retry_io, at + before, pause);
            }
        };
        policy.run(&mut self.retries, &mut self.backoff, retried, || f(store))
    }

    /// Appends `run` — whole frames for the current stripe — with one store
    /// call, retried. A torn append may leave any prefix of the run behind
    /// (whole frames, then a partial one), so each retry first truncates the
    /// stripe back to the acknowledged length — and so does giving up, or
    /// the next writer would append behind a torn frame.
    fn append_run(&mut self, run: &[u8]) -> Result<(), JournalIoError> {
        if run.is_empty() {
            return Ok(());
        }
        let stripe = self.id.stripe_object(self.header.stripes - 1);
        let mut attempt = 0;
        loop {
            match self.store.append(&stripe, run) {
                Ok(_) => {
                    self.current_stripe_len += run.len();
                    return Ok(());
                }
                Err(e @ RadosError::Transient(_)) => {
                    if attempt == self.retry.max_retries {
                        self.repair_stripe(&stripe)?;
                        return Err(e.into());
                    }
                    let pause = self.retry.backoff(attempt);
                    if let Some((o, (ctx, at))) = self.obs.as_ref().zip(self.trace) {
                        o.reg
                            .child_named(ctx, o.retry_append, at + self.backoff, pause);
                    }
                    self.retries += 1;
                    self.backoff += pause;
                    attempt += 1;
                    self.repair_stripe(&stripe)?;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Truncates `stripe` back to the acknowledged length if a torn append
    /// left extra bytes. `write_full` is atomic per object, so the repair
    /// cannot itself tear the known-good prefix.
    fn repair_stripe(&mut self, stripe: &ObjectId) -> Result<(), JournalIoError> {
        let actual = match self.io(|s| s.stat(stripe)) {
            Ok(st) => st.size as usize,
            Err(RadosError::NoEnt(_)) => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        if actual > self.current_stripe_len {
            let keep = self.current_stripe_len;
            let data = self.io(|s| s.read(stripe))?;
            self.io(|s| s.write_full(stripe, &data[..keep]))?;
        }
        Ok(())
    }

    /// Appends a batch of events, rolling stripes as needed, and persists
    /// the header. Returns the number of bytes written (data only). Encodes
    /// into one exactly-sized buffer ([`codec::framed_len`]) and takes the
    /// one write path, [`JournalWriter::append_frames`].
    pub fn append(&mut self, events: &[JournalEvent]) -> Result<u64, JournalIoError> {
        let total: usize = events.iter().map(codec::framed_len).sum();
        let mut buf = BytesMut::with_capacity(total);
        for e in events {
            codec::encode_event(&mut buf, e);
        }
        debug_assert_eq!(buf.len(), total);
        self.append_frames(&buf)
    }

    /// Appends already-framed events (as [`codec::encode_event`] writes
    /// them), rolling stripes as needed, and persists the header. Returns
    /// the number of bytes written. Panics if `frames` is not whole frames.
    ///
    /// The stripe rule is applied frame by frame — a frame that would push
    /// the stripe past its capacity opens the next one — but each *run* of
    /// frames that lands in one stripe is a single store `append`: a segment
    /// that fits its stripe is one object write plus the header write, and
    /// what a fault hits (and the repair truncates) is a run, not a frame.
    ///
    /// On failure the header is still written, so the stripes that
    /// acknowledged runs opened are visible to the next writer; a caller
    /// that retries the whole buffer re-lands those runs, which replays to
    /// the same namespace.
    pub fn append_frames(&mut self, frames: &[u8]) -> Result<u64, JournalIoError> {
        let retries_before = self.retries;
        let landed = self.append_runs(frames);
        let header_object = self.id.header_object();
        let header_bytes = encode_header(self.header);
        let header = self.io(|s| s.write_full(&header_object, &header_bytes));
        let (events, rollovers) = landed?;
        header?;
        let written = frames.len() as u64;
        if let Some(obs) = &self.obs {
            obs.appends.inc();
            obs.events.add(events);
            obs.bytes.add(written);
            obs.stripe_rollovers.add(rollovers);
            let retried = self.retries - retries_before;
            obs.retries.add(retried);
            // Windowed view: append/byte throughput over virtual time,
            // retry bursts, and the backoff level the retries piled up. A
            // writer keeps no clock: the store's is the serving MDS's.
            let now = self.store.now();
            obs.tl_appends.add(now, 1);
            obs.tl_bytes.add(now, written);
            if retried > 0 {
                obs.tl_retries.add(now, retried);
                obs.tl_backoff_ns.set(now, self.backoff.0 as f64);
            }
        }
        Ok(written)
    }

    /// Walks the `len` prefixes of `frames`, cutting it into same-stripe
    /// runs and appending each; returns (frames seen, stripes opened).
    fn append_runs(&mut self, frames: &[u8]) -> Result<(u64, u64), JournalIoError> {
        let (mut events, mut rollovers) = (0, 0);
        let (mut run_start, mut pos) = (0, 0);
        while pos < frames.len() {
            let end = codec::frame_len(&frames[pos..])
                .map(|len| pos + len)
                .filter(|&end| end <= frames.len())
                .unwrap_or_else(|| panic!("frame at byte {pos} overruns the buffer"));
            // An empty stripe takes even a frame larger than the stripe
            // size: rolling past it would leave a stripe below the last
            // that no frame reached, which a read calls damage.
            let stripe_empty = self.current_stripe_len == 0 && run_start == pos;
            if self.header.stripes == 0
                || (!stripe_empty
                    && self.current_stripe_len + (end - run_start) > self.stripe_bytes)
            {
                self.append_run(&frames[run_start..pos])?;
                run_start = pos;
                self.header.stripes += 1;
                self.current_stripe_len = 0;
                rollovers += 1;
            }
            pos = end;
            events += 1;
        }
        self.append_run(&frames[run_start..])?;
        Ok((events, rollovers))
    }

    /// Number of stripe objects currently backing the journal.
    pub fn stripes(&self) -> u64 {
        self.header.stripes
    }
}

/// Where a stored journal first fails to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalDamage {
    /// Stripe sequence number holding the first damaged frame.
    pub stripe: u64,
    /// Byte offset of the damage within that stripe.
    pub offset: usize,
    /// The decode error at that position.
    pub error: CodecError,
}

impl std::fmt::Display for JournalDamage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stripe {} byte {}: {}",
            self.stripe, self.offset, self.error
        )
    }
}

/// A lenient journal read kept as owned events: the longest cleanly
/// decodable event prefix, and where decoding had to stop if the journal is
/// damaged.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalScan {
    /// Events decoded before the first damage.
    pub events: Vec<JournalEvent>,
    /// `None` when every stripe decoded cleanly.
    pub damage: Option<JournalDamage>,
}

/// The stripe objects a borrowed read keeps: the events a [`JournalRead`]
/// hands out point into these bytes, so they live as long as the read's
/// borrow of this. Start from `Stripes::default()`; a read refills it.
#[derive(Debug, Default)]
pub struct Stripes(Vec<Option<Bytes>>);

/// A lenient journal read for replay, borrowed from the stripe objects it
/// read ([`Stripes`]).
#[derive(Debug)]
pub struct JournalRead<'a> {
    /// Each stripe's bytes up to the first damage, in stripe order: the
    /// clean prefix as stored.
    pub clean: Vec<&'a [u8]>,
    /// Events in the clean prefix.
    pub events: u64,
    /// The clean events from the requested index on, each parsed once —
    /// by the parse that checked it. Those before the index were checked
    /// the same way and not kept.
    pub tail: Vec<EventRef<'a>>,
    /// Where the first damage sits; `None` when the journal is clean.
    pub damage: Option<JournalDamage>,
}

impl<'a> JournalRead<'a> {
    /// Every clean event from the first, parsed again from
    /// [`JournalRead::clean`]: for the rare fallback that needs the whole
    /// journal after having asked for a tail.
    pub fn all_events(&self) -> Vec<EventRef<'a>> {
        let mut all = Vec::with_capacity(self.events as usize);
        for stripe in &self.clean {
            codec::parse_frames(stripe, |e| all.push(e));
        }
        all
    }
}

/// The one stripe walker every journal read goes through: header, then each
/// stripe parsed in place (the journal is never concatenated into a single
/// blob), stopping at the first damage. Events from index `from` on are
/// kept as views into `stripes`; those before it are checked and dropped.
/// Beside the read it returns the header as read (zero stripes when there
/// is none), which a heal needs.
///
/// Only the header's last stripe may be missing — a rollover whose first
/// append failed, which no frame reached. A missing stripe below it is
/// damage at its byte 0: the events past it cannot be a prefix of the log.
fn walk_stripes<'a, S: ObjectStore + ?Sized>(
    store: &S,
    id: JournalId,
    from: u64,
    stripes: &'a mut Stripes,
) -> Result<(JournalRead<'a>, Header), JournalIoError> {
    let header = read_header(store, id)?.unwrap_or_default();
    let slots = &mut stripes.0;
    slots.clear();
    slots.resize(header.stripes as usize, None);
    let mut read = JournalRead {
        clean: Vec::new(),
        events: 0,
        tail: Vec::new(),
        damage: None,
    };
    for (seq, slot) in (0..).zip(slots.iter_mut()) {
        let data: &'a [u8] = match with_retry(|| store.read(&id.stripe_object(seq))) {
            Ok(data) => slot.insert(data),
            Err(RadosError::NoEnt(_)) if seq + 1 == header.stripes => break,
            Err(RadosError::NoEnt(_)) => {
                read.damage = Some(JournalDamage {
                    stripe: seq,
                    offset: 0,
                    error: CodecError::UnexpectedEof,
                });
                break;
            }
            Err(e) => return Err(e.into()),
        };
        let below_from = from.saturating_sub(read.events) as usize;
        read.tail
            .reserve_exact(codec::frame_count(data).saturating_sub(below_from));
        let damage = codec::parse_frames(data, |e| {
            if read.events >= from {
                read.tail.push(e);
            }
            read.events += 1;
        });
        read.clean
            .push(&data[..damage.as_ref().map_or(data.len(), |d| d.offset)]);
        if let Some(d) = damage {
            read.damage = Some(JournalDamage {
                stripe: seq,
                offset: d.offset,
                error: d.error,
            });
            break;
        }
    }
    Ok((read, header))
}

/// Reads a journal leniently and borrowed: parsing stops at the first
/// damaged frame (torn write, bit flip) or missing stripe, and the clean
/// events from index `from` on are returned as views into `stripes`,
/// alongside the damage location. Stripes after the damage are not read —
/// a journal is a sequential log, so events past the damage cannot be
/// trusted to be a prefix-consistent history. Writes nothing.
pub fn view_journal<'a, S: ObjectStore + ?Sized>(
    store: &S,
    id: JournalId,
    from: u64,
    stripes: &'a mut Stripes,
) -> Result<JournalRead<'a>, JournalIoError> {
    walk_stripes(store, id, from, stripes).map(|(read, _)| read)
}

/// [`view_journal`] from the first event, kept as owned events.
pub fn scan_journal<S: ObjectStore + ?Sized>(
    store: &S,
    id: JournalId,
) -> Result<JournalScan, JournalIoError> {
    let mut stripes = Stripes::default();
    let read = view_journal(store, id, 0, &mut stripes)?;
    Ok(JournalScan {
        events: read.tail.into_iter().map(EventRef::to_owned).collect(),
        damage: read.damage,
    })
}

/// Reads a whole journal back from its stripes: the strict view of
/// [`scan_journal`], where any damage (torn frame, CRC failure) is a hard
/// error. Recovery builds on [`recover_journal`] instead.
pub fn read_journal<S: ObjectStore + ?Sized>(
    store: &S,
    id: JournalId,
) -> Result<Vec<JournalEvent>, JournalIoError> {
    let scan = scan_journal(store, id)?;
    match scan.damage {
        Some(damage) => Err(damage.error.into()),
        None => Ok(scan.events),
    }
}

/// The recovery read: one lenient borrowed walk through `read`
/// ([`view_journal`]) and, when the journal is damaged (torn stripe write,
/// bit flip caught by a frame CRC, missing stripe), the corrupt region
/// erased *through `heal`* — the caller's write handle, so a fenced
/// recovery cannot touch the journal. Returns the surviving journal with
/// the events from index `from` on as views into `stripes`; the heal ran
/// exactly when [`JournalRead::damage`] is set. This is the
/// `cephfs-journal-tool` disaster recovery step, and the only read an MDS
/// replays from; Nonvolatile Apply replays a client journal through the
/// strict [`read_journal`], which refuses damage instead of cutting it.
///
/// The heal cuts in place, in an order that leaves every intermediate
/// state scanning to the same prefix — a healer that dies, or whose store
/// fails past the retry budget, has lost nothing that was readable:
///
/// 1. the header is rewritten with `stripes = damaged + 1` (the scan never
///    looked past the damaged stripe anyway);
/// 2. the stripe objects past the cut are removed, last one first, so what
///    is left of them is always a contiguous run a re-run finds by probing;
/// 3. only then is the damaged stripe written back (`write_full`, atomic
///    per object) cut to the damage offset — unless it is a missing one,
///    which has nothing to cut and is now the last.
///
/// The damaged frame, removed last, is the heal's own commit record: while
/// it is there the next recovery re-runs the (idempotent) heal, so no
/// writer can open the journal while a stale stripe lies past the cut — a
/// writer that rolls onto a new stripe `append`s to whatever object already
/// has that name. Step 2 runs on a clean journal too, for the same reason:
/// a writer that died between a new stripe's first append and the header
/// write left such an object behind, holding frames nobody acknowledged.
///
/// Reads, heal writes and removes are issued in this order and no other,
/// so a seeded fault plan draws the same faults for them.
pub fn recover_journal<'a>(
    read: &(impl ObjectStore + ?Sized),
    heal: &(impl ObjectStore + ?Sized),
    id: JournalId,
    from: u64,
    stripes: &'a mut Stripes,
) -> Result<JournalRead<'a>, JournalIoError> {
    let (journal, header) = walk_stripes(read, id, from, stripes)?;
    let keep = match &journal.damage {
        Some(damage) => {
            let cut = Header {
                stripes: damage.stripe + 1,
            };
            with_retry(|| heal.write_full(&id.header_object(), &encode_header(cut)))?;
            cut.stripes
        }
        None => header.stripes,
    };
    remove_stripes(read, heal, id, keep, keep)?;
    if let Some(damage) = &journal.damage {
        if let Some(kept) = journal.clean.get(damage.stripe as usize) {
            let stripe = id.stripe_object(damage.stripe);
            with_retry(|| heal.write_full(&stripe, kept))?;
        }
    }
    Ok(journal)
}

/// Whether any journal state exists for `id`.
pub fn journal_exists<S: ObjectStore + ?Sized>(store: &S, id: JournalId) -> bool {
    store.exists(&id.header_object())
}

/// Removes `id`'s stripe objects from `keep` up, last one first: those below
/// `probe_from` by number, and from there every one that exists — the run a
/// writer that died before its header write left past the header's count is
/// found by probing names.
fn remove_stripes(
    read: &(impl ObjectStore + ?Sized),
    write: &(impl ObjectStore + ?Sized),
    id: JournalId,
    keep: u64,
    probe_from: u64,
) -> Result<(), JournalIoError> {
    let mut end = probe_from;
    while read.exists(&id.stripe_object(end)) {
        end += 1;
    }
    for seq in (keep..end).rev() {
        remove_object(write, &id.stripe_object(seq))?;
    }
    Ok(())
}

/// Deletes all objects of a journal, including stripes past the header's
/// count and those of a journal whose header was never written: the next
/// writer `append`s to whatever object already has a stripe's name.
/// Idempotent.
pub fn delete_journal<S: ObjectStore + ?Sized>(
    store: &S,
    id: JournalId,
) -> Result<(), JournalIoError> {
    let header = read_header(store, id)?;
    remove_stripes(store, store, id, 0, header.map_or(0, |h| h.stripes))?;
    match header {
        Some(_) => remove_object(store, &id.header_object()),
        None => Ok(()),
    }
}

/// Removes one object, retrying transients; already gone is fine.
fn remove_object<S: ObjectStore + ?Sized>(store: &S, id: &ObjectId) -> Result<(), JournalIoError> {
    match with_retry(|| store.remove(id)) {
        Ok(()) | Err(RadosError::NoEnt(_)) => Ok(()),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Attrs, InodeId};
    use cudele_rados::InMemoryStore;

    fn create(i: u64) -> JournalEvent {
        JournalEvent::Create {
            parent: InodeId::ROOT,
            name: format!("file-{i}"),
            ino: InodeId(0x1000 + i),
            attrs: Attrs::file_default(),
        }
    }

    fn jid() -> JournalId {
        JournalId::new(PoolId::METADATA, 0x300)
    }

    #[test]
    fn write_read_roundtrip() {
        let store = InMemoryStore::paper_default();
        let events: Vec<_> = (0..50).map(create).collect();
        let mut w = JournalWriter::open(&store, jid()).unwrap();
        let bytes = w.append(&events).unwrap();
        assert!(bytes > 0);
        assert_eq!(read_journal(&store, jid()).unwrap(), events);
    }

    #[test]
    fn missing_journal_reads_empty() {
        let store = InMemoryStore::paper_default();
        assert_eq!(read_journal(&store, jid()).unwrap(), vec![]);
        assert!(!journal_exists(&store, jid()));
    }

    #[test]
    fn small_stripes_roll_over() {
        let store = InMemoryStore::paper_default();
        let events: Vec<_> = (0..20).map(create).collect();
        let mut w = JournalWriter::open_with_stripe(&store, jid(), 128).unwrap();
        w.append(&events).unwrap();
        assert!(w.stripes() > 1, "expected rollover, got {}", w.stripes());
        assert_eq!(read_journal(&store, jid()).unwrap(), events);
        // Stripe objects respect the size cap (one event may straddle the
        // boundary decision but never exceeds cap + one frame).
        for seq in 0..w.stripes() {
            let s = store.stat(&jid().stripe_object(seq)).unwrap();
            assert!(s.size <= 256, "stripe {seq} is {} bytes", s.size);
        }
    }

    #[test]
    fn append_resumes_after_reopen() {
        let store = InMemoryStore::paper_default();
        {
            let mut w = JournalWriter::open_with_stripe(&store, jid(), 128).unwrap();
            w.append(&(0..5).map(create).collect::<Vec<_>>()).unwrap();
        }
        {
            let mut w = JournalWriter::open_with_stripe(&store, jid(), 128).unwrap();
            w.append(&(5..10).map(create).collect::<Vec<_>>()).unwrap();
        }
        let all = read_journal(&store, jid()).unwrap();
        assert_eq!(all, (0..10).map(create).collect::<Vec<_>>());
    }

    #[test]
    fn delete_removes_everything() {
        let store = InMemoryStore::paper_default();
        let mut w = JournalWriter::open(&store, jid()).unwrap();
        w.append(&(0..5).map(create).collect::<Vec<_>>()).unwrap();
        assert!(journal_exists(&store, jid()));
        delete_journal(&store, jid()).unwrap();
        assert!(!journal_exists(&store, jid()));
        assert_eq!(store.object_count(), 0);
        // Idempotent.
        delete_journal(&store, jid()).unwrap();
    }

    #[test]
    fn a_deleted_journal_reopens_empty() {
        let store = InMemoryStore::paper_default();
        let mut w = JournalWriter::open(&store, jid()).unwrap();
        w.append(&(0..5).map(create).collect::<Vec<_>>()).unwrap();
        delete_journal(&store, jid()).unwrap();
        let replacement: Vec<_> = (100..103).map(create).collect();
        JournalWriter::open(&store, jid())
            .unwrap()
            .append(&replacement)
            .unwrap();
        assert_eq!(read_journal(&store, jid()).unwrap(), replacement);
    }

    #[test]
    fn writer_obs_counts_appends_and_rollovers() {
        let store = InMemoryStore::paper_default();
        let reg = Arc::new(Registry::new());
        let mut w = JournalWriter::open_with_stripe(&store, jid(), 128).unwrap();
        w.set_obs(JournalObs::new(&reg));
        let events: Vec<_> = (0..20).map(create).collect();
        let bytes = w.append(&events).unwrap();
        assert_eq!(reg.counter_value("journal.writer.appends"), Some(1));
        assert_eq!(reg.counter_value("journal.writer.events"), Some(20));
        assert_eq!(reg.counter_value("journal.writer.bytes"), Some(bytes));
        let rolls = reg
            .counter_value("journal.writer.stripe_rollovers")
            .unwrap();
        assert_eq!(rolls, w.stripes(), "every stripe was opened by a rollover");
        assert!(rolls > 1);
    }

    #[test]
    fn scan_is_lenient_where_read_is_strict() {
        let store = InMemoryStore::paper_default();
        let events: Vec<_> = (0..10).map(create).collect();
        let mut w = JournalWriter::open(&store, jid()).unwrap();
        w.append(&events).unwrap();
        // Clean journal: scan agrees with read.
        let scan = scan_journal(&store, jid()).unwrap();
        assert_eq!(scan.events, events);
        assert_eq!(scan.damage, None);
        // Flip a byte in the middle of the stripe: read hard-fails, scan
        // returns the valid prefix plus the damage location.
        let stripe = jid().stripe_object(0);
        let mut data = store.read(&stripe).unwrap().to_vec();
        let frame_offset: usize = events[..4].iter().map(codec::framed_len).sum();
        data[frame_offset + 8] ^= 0x10;
        store.write_full(&stripe, &data).unwrap();
        assert!(matches!(
            read_journal(&store, jid()),
            Err(JournalIoError::Codec(CodecError::BadCrc { .. }))
        ));
        let scan = scan_journal(&store, jid()).unwrap();
        assert_eq!(scan.events, events[..4].to_vec());
        let damage = scan.damage.unwrap();
        assert_eq!(damage.stripe, 0);
        assert_eq!(damage.offset, frame_offset);
        assert!(matches!(damage.error, CodecError::BadCrc { .. }));
    }

    #[test]
    fn recovery_removes_a_stripe_a_dead_writer_left_past_the_header() {
        let store = InMemoryStore::paper_default();
        let events: Vec<_> = (0..6).map(create).collect();
        let mut w = JournalWriter::open_with_stripe(&store, jid(), 4096).unwrap();
        w.append(&events).unwrap();
        // A writer that rolled onto stripe 1 and died before its header
        // write: frames nobody acknowledged, in an object the header does
        // not count.
        let stale = codec::encode_journal(&[create(99)]);
        store
            .append(&jid().stripe_object(1), &stale[codec::MAGIC.len()..])
            .unwrap();
        let mut stripes = Stripes::default();
        let recovered = recover_journal(&store, &store, jid(), 0, &mut stripes).unwrap();
        let owned: Vec<_> = recovered.tail.into_iter().map(EventRef::to_owned).collect();
        assert_eq!((owned, recovered.damage), (events.clone(), None));
        assert!(!store.exists(&jid().stripe_object(1)));
        // The next writer to roll onto that name starts it empty.
        let mut w = JournalWriter::open_with_stripe(&store, jid(), 100).unwrap();
        w.append(&[create(7)]).unwrap();
        assert_eq!(w.stripes(), 2);
        let all = [events.as_slice(), &[create(7)]].concat();
        assert_eq!(read_journal(&store, jid()).unwrap(), all);
    }

    /// A lost stripe below the last one is damage at its byte 0: the scan
    /// reports it, the strict read fails, and recovery keeps only the
    /// stripes before it — never the later stripes replayed over the gap.
    #[test]
    fn a_missing_stripe_below_the_last_is_damage() {
        let store = InMemoryStore::paper_default();
        let events: Vec<_> = (0..30).map(create).collect();
        let mut w = JournalWriter::open_with_stripe(&store, jid(), 256).unwrap();
        w.append(&events).unwrap();
        assert_eq!(w.stripes(), 8);
        let in_stripe_0 = codec::decode_frames(&store.read(&jid().stripe_object(0)).unwrap())
            .unwrap()
            .len();
        store.remove(&jid().stripe_object(1)).unwrap();

        let scan = scan_journal(&store, jid()).unwrap();
        assert_eq!(scan.events, events[..in_stripe_0].to_vec());
        let damage = scan.damage.expect("the gap is damage");
        assert_eq!((damage.stripe, damage.offset), (1, 0));
        assert!(read_journal(&store, jid()).is_err());

        let mut stripes = Stripes::default();
        let recovered = recover_journal(&store, &store, jid(), 0, &mut stripes).unwrap();
        assert_eq!(recovered.tail.len(), in_stripe_0);
        assert!(recovered.damage.is_some(), "recovery healed");
        // Cut at the gap: the header counts the missing stripe as its last,
        // every stripe past it is gone, and the journal reads clean.
        assert!((2..8).all(|seq| !store.exists(&jid().stripe_object(seq))));
        assert_eq!(
            read_journal(&store, jid()).unwrap(),
            events[..in_stripe_0].to_vec()
        );
        // The next writer fills the missing stripe first.
        JournalWriter::open_with_stripe(&store, jid(), 256)
            .unwrap()
            .append(&[create(99)])
            .unwrap();
        assert!(store.exists(&jid().stripe_object(1)));
        let all = [&events[..in_stripe_0], &[create(99)]].concat();
        assert_eq!(read_journal(&store, jid()).unwrap(), all);
    }

    /// A rollover whose first append failed leaves the header's last stripe
    /// missing. A writer that then opens with a frame larger than a stripe
    /// puts it in that empty stripe rather than rolling past it, so no
    /// stripe below the last is ever missing.
    #[test]
    fn an_oversized_frame_fills_an_empty_last_stripe() {
        let store = InMemoryStore::paper_default();
        let mut w = JournalWriter::open_with_stripe(&store, jid(), 64).unwrap();
        w.append(&[create(0)]).unwrap();
        // What the failed rollover left: a header counting a stripe that no
        // frame reached.
        store
            .write_full(
                &jid().header_object(),
                &encode_header(Header { stripes: 2 }),
            )
            .unwrap();
        let big = JournalEvent::SetPolicy {
            ino: InodeId::ROOT,
            policy: vec![7; 200],
        };
        let mut w = JournalWriter::open_with_stripe(&store, jid(), 64).unwrap();
        w.append(&[big.clone(), create(1)]).unwrap();
        assert_eq!(w.stripes(), 3, "the big frame went into stripe 1");
        assert_eq!(
            read_journal(&store, jid()).unwrap(),
            vec![create(0), big, create(1)]
        );
    }

    #[test]
    fn a_header_with_a_nonzero_reserved_word_is_bad() {
        let store = InMemoryStore::paper_default();
        JournalWriter::open(&store, jid())
            .unwrap()
            .append(&[create(1)])
            .unwrap();
        let mut header = store.read(&jid().header_object()).unwrap().to_vec();
        assert_eq!(header[16..], [0; 8]);
        header[16] = 3;
        store.write_full(&jid().header_object(), &header).unwrap();
        assert!(matches!(
            read_journal(&store, jid()),
            Err(JournalIoError::BadHeader)
        ));
    }

    #[test]
    fn writer_retries_absorb_transient_faults() {
        use cudele_faults::{FaultConfig, FaultPlan, FaultyStore};
        use std::sync::Arc;
        // 20% of ops fail EAGAIN: with an 8-retry budget every append batch
        // still lands, and the writer accounts its retries and backoff.
        // Fault rates are per store op and a run of frames is one op, so
        // small stripes and batches keep the op count up.
        let store = FaultyStore::new(
            Arc::new(InMemoryStore::paper_default()),
            Arc::new(FaultPlan::new(FaultConfig {
                seed: 11,
                eagain_ppm: 200_000,
                ..FaultConfig::default()
            })),
        );
        let reg = Arc::new(Registry::new());
        let events: Vec<_> = (0..200).map(create).collect();
        let mut w = JournalWriter::open_with_stripe(&store, jid(), 256).unwrap();
        w.set_obs(JournalObs::new(&reg));
        for batch in events.chunks(25) {
            w.append(batch).unwrap();
        }
        assert!(w.retries > 0, "a 20% fault rate must trigger retries");
        assert!(w.backoff > Nanos::ZERO);
        assert_eq!(
            reg.counter_value("journal.io.retries"),
            Some(w.retries),
            "writer retries surface in obs"
        );
        assert_eq!(read_journal(&store, jid()).unwrap(), events);
    }

    #[test]
    fn torn_appends_are_repaired_before_retry() {
        use cudele_faults::{FaultConfig, FaultPlan, FaultyStore};
        use std::sync::Arc;
        // 30% of stripe appends tear: a prefix lands, the op fails, and the
        // writer must truncate back before retrying. No acknowledged event
        // may be lost or duplicated.
        let store = FaultyStore::new(
            Arc::new(InMemoryStore::paper_default()),
            Arc::new(FaultPlan::new(FaultConfig {
                seed: 23,
                torn_write_ppm: 300_000,
                ..FaultConfig::default()
            })),
        );
        let events: Vec<_> = (0..300).map(create).collect();
        let mut w = JournalWriter::open_with_stripe(&store, jid(), 512).unwrap();
        w.append(&events).unwrap();
        let (_, torn, _) = store.injected();
        assert!(torn > 0, "a 30% tear rate must inject tears");
        assert_eq!(read_journal(&store, jid()).unwrap(), events);
        let scan = scan_journal(&store, jid()).unwrap();
        assert_eq!(scan.damage, None, "repair leaves no partial frames");
    }

    #[test]
    fn two_journals_do_not_interfere() {
        let store = InMemoryStore::paper_default();
        let a = JournalId::new(PoolId::METADATA, 0x300);
        let b = JournalId::new(PoolId::METADATA, 0x301);
        JournalWriter::open(&store, a)
            .unwrap()
            .append(&[create(1)])
            .unwrap();
        JournalWriter::open(&store, b)
            .unwrap()
            .append(&[create(2)])
            .unwrap();
        assert_eq!(read_journal(&store, a).unwrap(), vec![create(1)]);
        assert_eq!(read_journal(&store, b).unwrap(), vec![create(2)]);
    }
}
