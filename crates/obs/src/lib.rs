#![warn(missing_docs)]

//! Deterministic observability for the Cudele stack: a metrics registry
//! (counters, gauges, log-bucketed histograms) plus a span tracer keyed to
//! the *virtual* clock ([`cudele_sim::time::Nanos`]).
//!
//! Everything here is deterministic by construction: metric names are kept
//! in [`BTreeMap`]s (sorted output), spans are kept in insertion order
//! (the simulation engine is deterministic, so insertion order is too),
//! and no wall-clock time or addresses ever leak into the output. Two runs
//! with the same seed therefore serialize to byte-identical JSON — the
//! property the determinism tests in `cudele-bench` pin.
//!
//! Naming convention: `<crate>.<subsystem>.<name>`, e.g.
//! `rados.osd.0.bytes_written`, `mds.rpc.service_ns`,
//! `core.mechanism.local_persist.runs`.
//!
//! Exporters:
//! * [`Registry::chrome_trace_json`] — Chrome trace-event JSON (`ph:"X"`
//!   complete events, virtual timestamps as microseconds), loadable in
//!   Perfetto / `chrome://tracing`.
//! * [`Registry::metrics_json`] — a flat snapshot of every counter, gauge
//!   and histogram (with p50/p95/p99).
//!
//! Both, like every document this crate writes, go through
//! [`json::Writer`].

use std::collections::BTreeMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use cudele_sim::{IntHasher, IntMap, Nanos};

use json::Layout::{Compact, Inline, Pretty};
use json::Writer;

pub mod critpath;
pub mod history;
pub mod json;
mod lock;
mod pack;
pub mod slo;
pub mod timeline;

use history::{HistoryEvent, HistoryWriter};
use lock::Lock;
pub use pack::{ArgValue, Formatted};

/// A handle resolved on its first use, not when its layer's handles are
/// built: a counter or histogram shows in [`Registry::metrics_json`] as
/// soon as it is resolved, so a name only some runs touch waits here until
/// one does. The resolver sits in the owner's [`handles!`] declaration
/// with its other names; clones share the one resolution.
#[derive(Debug, Clone)]
pub struct FirstUse<T> {
    reg: Arc<Registry>,
    resolve: fn(&Arc<Registry>) -> T,
    cell: Arc<OnceLock<T>>,
}

impl<T> FirstUse<T> {
    /// A handle `resolve` builds from `reg` the first time it is needed.
    pub fn new(reg: &Arc<Registry>, resolve: fn(&Arc<Registry>) -> T) -> FirstUse<T> {
        FirstUse {
            reg: Arc::clone(reg),
            resolve,
            cell: Arc::default(),
        }
    }

    /// The handle, resolved now if this is its first use.
    pub fn get(&self) -> &T {
        self.cell.get_or_init(|| (self.resolve)(&self.reg))
    }
}

/// Declares a layer's handle struct and its one constructor, `new`: each
/// field is written once, beside the expression that resolves it, so the
/// names a layer records under sit in one place and nowhere else. The
/// struct derives `Clone` (handles are shared cells), so an owner resolves
/// once and hands its children clones.
///
/// ```
/// cudele_obs::handles! {
///     /// A cache's handles.
///     pub struct CacheObs(reg: &cudele_obs::Registry) {
///         /// `cache.hits`.
///         pub hits: cudele_obs::Counter = reg.counter("cache.hits"),
///     }
/// }
/// let reg = cudele_obs::Registry::new();
/// CacheObs::new(&reg).hits.inc();
/// assert_eq!(reg.counter_value("cache.hits"), Some(1));
/// ```
#[macro_export]
macro_rules! handles {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident($($arg:ident: $arg_ty:ty),* $(,)?) {
            $($(#[$field_meta:meta])* $field_vis:vis $field:ident: $ty:ty = $init:expr),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone)]
        $vis struct $name {
            $($(#[$field_meta])* $field_vis $field: $ty,)*
        }

        impl $name {
            /// Resolves the handles: the one place their names are looked up.
            $vis fn new($($arg: $arg_ty),*) -> $name {
                $name { $($field: $init),* }
            }
        }
    };
}

/// A monotonically increasing event counter. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point value (utilizations, ratios). Cloning
/// shares the cell; the value is stored as `f64` bits in an atomic.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of sketch buckets: one for zero plus one per power of two of
/// the 64-bit value range.
const HIST_BUCKETS: usize = 65;

/// Buckets a sketch counts inline: a run of consecutive buckets, wide
/// enough for the one to three a 5 ms latency window's samples fall in
/// (a factor of 8 either side of the first sample).
const NARROW: usize = 7;

/// A sketch's bucket counts: a run of [`NARROW`] buckets held inline until
/// a sample lands outside it or a count passes `u32`, then every bucket.
#[derive(Debug, Clone)]
enum Counts {
    /// `run[i]` counts bucket `lo + i`.
    Narrow { lo: u8, run: [u32; NARROW] },
    /// `buckets[k]` counts bucket `k`.
    Wide(Box<[u64; HIST_BUCKETS]>),
}

/// The one log-bucket summary of a `u64` sample stream, behind both
/// [`Histogram`] and the timeline's per-window latency points. Bucket 0
/// counts zeros; bucket `k` counts values in `[2^(k-1), 2^k)`. `merge` is
/// the fold: two sketches merged equal one sketch fed both streams.
#[derive(Debug, Clone)]
pub(crate) struct Sketch {
    counts: Counts,
    pub(crate) count: u64,
    pub(crate) sum: u64,
    pub(crate) min: u64,
    pub(crate) max: u64,
}

impl Sketch {
    pub(crate) const EMPTY: Sketch = Sketch {
        counts: Counts::Narrow {
            lo: 0,
            run: [0; NARROW],
        },
        count: 0,
        sum: 0,
        min: u64::MAX,
        max: 0,
    };

    pub(crate) fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// `n` samples of `v` at once: the same sketch as `n` calls of
    /// [`Sketch::record`], the `sum`'s saturation and the spill out of the
    /// narrow run included (both depend only on the totals).
    pub(crate) fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.add((64 - v.leading_zeros()) as usize, n);
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub(crate) fn merge(&mut self, other: &Sketch) {
        if self.count == 0 {
            // Folding into nothing is a copy, run placement included.
            self.clone_from(other);
            return;
        }
        for (b, c) in other.buckets() {
            self.add(b, c);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Counts `c` more samples in bucket `b`. An empty sketch centres its
    /// run on `b`; a bucket outside the run, or a count past `u32`, spills
    /// the run into every bucket first.
    fn add(&mut self, b: usize, c: u64) {
        if let Counts::Narrow { lo, run } = &mut self.counts {
            if self.count == 0 {
                *lo = b.saturating_sub(NARROW / 2).min(HIST_BUCKETS - NARROW) as u8;
            }
            if let Some(n) = run.get_mut(b.wrapping_sub(usize::from(*lo))) {
                if let Some(sum) = u32::try_from(c).ok().and_then(|c| n.checked_add(c)) {
                    *n = sum;
                    return;
                }
            }
            let mut buckets = Box::new([0; HIST_BUCKETS]);
            for (b, c) in self.buckets() {
                buckets[b] = c;
            }
            self.counts = Counts::Wide(buckets);
        }
        if let Counts::Wide(buckets) = &mut self.counts {
            buckets[b] += c;
        }
    }

    /// The nonzero buckets, lowest first, as `(bucket, count)`: the one
    /// walk over the counts, whichever way they are held.
    fn buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let (lo, run, wide): (usize, &[u32], &[u64]) = match &self.counts {
            Counts::Narrow { lo, run } => (usize::from(*lo), run, &[]),
            Counts::Wide(buckets) => (0, &[], &buckets[..]),
        };
        run.iter()
            .map(|&c| u64::from(c))
            .chain(wide.iter().copied())
            .enumerate()
            .filter(|&(_, c)| c != 0)
            .map(move |(i, c)| (lo + i, c))
    }

    /// The `q`-th percentile (`q` in `[0, 100]`).
    ///
    /// Degenerate inputs get well-defined answers instead of
    /// bucket-boundary artifacts: an empty sketch returns `0.0`, a single
    /// sample returns it exactly, and when every sample is equal the value
    /// is returned exactly. Otherwise the rank's owning bucket is
    /// interpolated between its bounds *clamped to the observed
    /// `[min, max]`* — so an all-one-bucket sketch sweeps the observed
    /// range rather than the bucket's, p0 lands on `min`, and p100 on
    /// `max`.
    pub(crate) fn percentile(&self, q: f64) -> f64 {
        let (count, min, max) = (self.count, self.min, self.max);
        if count == 0 {
            return 0.0;
        }
        if count == 1 || min == max {
            return min as f64;
        }
        let rank = (q / 100.0).clamp(0.0, 1.0) * (count as f64 - 1.0);
        // Rank extremes are known exactly regardless of bucketing.
        if rank <= 0.0 {
            return min as f64;
        }
        if rank >= count as f64 - 1.0 {
            return max as f64;
        }
        let mut cum = 0u64;
        for (i, c) in self.buckets() {
            if (cum + c) as f64 - 1.0 >= rank {
                let (lo, hi) = bucket_bounds(i);
                let lo = lo.max(min) as f64;
                let hi = hi.min(max) as f64;
                let frac = if c > 1 {
                    ((rank - cum as f64) / (c as f64 - 1.0)).clamp(0.0, 1.0)
                } else {
                    0.5
                };
                let v = lo + frac * (hi - lo);
                return v.clamp(min as f64, max as f64);
            }
            cum += c;
        }
        max as f64
    }
}

/// Inclusive value bounds of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 0)
    } else if i >= 64 {
        (1u64 << 63, u64::MAX)
    } else {
        (1u64 << (i - 1), (1u64 << i) - 1)
    }
}

/// A log-bucketed histogram of `u64` samples (typically nanoseconds).
/// Buckets are powers of two, so `record` is O(1) and percentiles are
/// bucket-interpolated approximations clamped to the exact observed
/// `[min, max]`. Cloning shares the underlying data.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<Lock<Sketch>>);

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(Lock::new(Sketch::EMPTY)))
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.0.lock().record(v);
    }

    /// Records `n` samples of `v` under one lock: equal to `n` calls of
    /// [`Histogram::record`].
    pub fn record_n(&self, v: u64, n: u64) {
        self.0.lock().record_n(v, n);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.lock().count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.0.lock().sum
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        let d = self.0.lock();
        if d.count == 0 {
            0
        } else {
            d.min
        }
    }

    /// Largest sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.0.lock().max
    }

    /// The `q`-th percentile (`q` in `[0, 100]`), interpolated within the
    /// owning bucket with bounds clamped to the observed range. Edge
    /// cases are well-defined: `0.0` when empty, the exact sample when
    /// `count == 1` or all samples are equal.
    pub fn percentile(&self, q: f64) -> f64 {
        self.0.lock().percentile(q)
    }

    /// Folds another histogram's samples into this one (bucket-wise). Used
    /// when merging per-task registries back into a session registry.
    pub fn merge_from(&self, other: &Histogram) {
        // Copied out first: `other` may share this histogram's lock.
        let o = other.0.lock().clone();
        self.0.lock().merge(&o);
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.percentile(95.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }
}

/// One completed span on the virtual timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Event name (e.g. a mechanism name like `volatile_apply`).
    pub name: String,
    /// Category (e.g. `mechanism`, `rpc`, `journal`).
    pub cat: String,
    /// Track id — by convention the acting client/process index.
    pub tid: u32,
    /// Virtual start instant.
    pub start: Nanos,
    /// Virtual duration.
    pub dur: Nanos,
    /// This span's identity within its registry (0 = unidentified legacy
    /// span; identified spans get ids from the registry's deterministic
    /// per-run counter, starting at 1).
    pub span_id: u64,
    /// The causal parent's `span_id`, or 0 for a trace root.
    pub parent_id: u64,
    /// The request this span belongs to: the `span_id` of the trace root.
    pub trace_id: u64,
    /// Extra key/value payload rendered into the trace event's `args`.
    pub args: Vec<(String, String)>,
}

/// A trace context: the identity of the span currently being executed,
/// threaded down the request path so every layer can attach child spans to
/// the right parent. `Copy` so it passes freely through call chains.
///
/// Propagation rules (see DESIGN.md §8):
/// * the harness that admits a client operation calls
///   [`Registry::trace_root`] once per request;
/// * every layer that does attributable work derives a child context with
///   [`Registry::trace_child`] (or records one directly with
///   [`Registry::child_named`]) — never reuses the parent's `span_id`;
/// * contexts carry no registry handle: a traced layer keeps its context
///   and a virtual-time anchor, and records through the [`SpanName`]s and
///   [`Mechanism`]s its `…Obs` resolved, which also hold its registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// The trace (request) this context belongs to.
    pub trace_id: u64,
    /// The current span's own id.
    pub span_id: u64,
    /// The current span's parent id (0 at the root).
    pub parent_id: u64,
    /// Track id inherited by child spans.
    pub tid: u32,
}

/// An interned span name and category, resolved once with
/// [`Registry::span_name`] so per-op span recording carries two small ids
/// instead of building two `String`s. Valid only with the registry that
/// issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanName {
    name: u32,
    cat: u32,
}

/// An interned span arg key, resolved once with [`Registry::arg_key`] so a
/// span's arg carries a small id instead of a key looked up per span.
/// Valid only with the registry that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArgKey(u32);

/// Span names, categories and arg keys, each stored once; spans refer to
/// them by id. The strings sit back to back in one arena, so a new one
/// allocates nothing of its own, and are found by their
/// [`cudele_sim::IntHasher`] hash: the names are the program's own, so
/// SipHash's collision resistance buys nothing. Strings whose hashes
/// collide take the next free slots.
#[derive(Debug, Default)]
struct Interner {
    text: String,
    /// String `i` ends at `ends[i]` and starts where string `i - 1` ends.
    ends: Vec<usize>,
    /// Id by hash slot.
    ids: IntMap<u64, u32>,
}

impl Interner {
    /// The string interned as `id`.
    fn get(&self, id: u32) -> &str {
        let i = id as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    /// The id of `s`, or the free slot it would take.
    fn find(&self, s: &str) -> Result<u32, u64> {
        let mut h = IntHasher::default();
        h.write(s.as_bytes());
        let mut slot = h.finish();
        loop {
            match self.ids.get(&slot) {
                Some(&id) if self.get(id) == s => return Ok(id),
                Some(_) => slot = slot.wrapping_add(1),
                None => return Err(slot),
            }
        }
    }

    /// The id of `s`, interned now if this is its first sight.
    fn intern(&mut self, s: &str) -> u32 {
        self.find(s).unwrap_or_else(|slot| {
            let id = self.ends.len() as u32;
            self.text.push_str(s);
            self.ends.push(self.text.len());
            self.ids.insert(slot, id);
            id
        })
    }

    fn span_name(&mut self, name: &str, cat: &str) -> SpanName {
        SpanName {
            name: self.intern(name),
            cat: self.intern(cat),
        }
    }
}

/// One layer of a layered span: a child with its own name and interval
/// and no args, recorded in its parent's record by [`Registry::layered`]
/// and read back as a span of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layer {
    /// The child's pre-resolved name.
    pub name: SpanName,
    /// Virtual start instant.
    pub start: Nanos,
    /// Virtual duration.
    pub dur: Nanos,
}

/// One span read back from the log: names still interned, args still
/// packed.
struct SpanRef<'a> {
    name: SpanName,
    ctx: TraceCtx,
    start: Nanos,
    dur: Nanos,
    args: pack::Reader<'a>,
    /// How many layer children the iterator yields right after this span.
    layers: u64,
}

impl<'a> SpanRef<'a> {
    /// The span's args as `(interned key, value)` pairs, in recording
    /// order.
    fn args(&self) -> impl Iterator<Item = (u32, &'a str)> {
        let mut r = self.args.clone();
        std::iter::from_fn(move || match r.u64() {
            0 => None,
            key => Some((key as u32 - 1, r.str())),
        })
    }
}

/// The span log: one packed byte stream (see [`pack`]), names and arg
/// keys interned beside it.
///
/// A record is a span: its name id shifted left by one (the low bit says
/// whether layers follow), cat id and `tid`; `start` as a delta from the
/// previous record's start, then `dur`; `span_id` as a delta from the
/// previous record's id; `parent_id` and `trace_id` as deltas from its own
/// id; then each arg as `key id + 1`, the value's bytes and
/// [`pack::END`], and a 0 after the last. A layered record (see
/// [`Registry::layered`]) then holds its layer count `k` and, per layer,
/// name id, cat id, `start` as a delta from the span's own start, and
/// `dur`: layer `i` reads back as a child span with id `span_id + i`, the
/// span's trace and track, and no args. The deltas make the log readable
/// only from its start — which is the only way it is ever read.
#[derive(Debug)]
struct SpanLog {
    log: pack::Packed,
    /// The last committed span's start and id: the next span's delta
    /// bases.
    start: u64,
    span_id: u64,
    names: Interner,
}

impl SpanLog {
    fn name_of(&self, name: SpanName) -> (&str, &str) {
        (self.names.get(name.name), self.names.get(name.cat))
    }

    /// Appends one record: the span for `ctx`, its args, and as many of
    /// `layers` as fit. Capacity is checked before anything is built: a
    /// dropped record costs one counter bump, and `name` / `args` run
    /// only for a span that is kept. With room for `r` more spans the
    /// record keeps the span and its first `r - 1` layers and counts the
    /// rest dropped, as recording them one by one would. `args` appends
    /// with [`SpanLog::arg`]; if it panics, the record is never committed
    /// and the next one overwrites its bytes.
    fn push(
        &mut self,
        ctx: TraceCtx,
        start: Nanos,
        dur: Nanos,
        name: impl FnOnce(&mut Interner) -> SpanName,
        args: impl FnOnce(&mut SpanLog),
        layers: &[Layer],
    ) {
        let room = self.log.room();
        if !self.log.begin() {
            self.log.dropped += layers.len() as u64;
            return;
        }
        let kept = &layers[..layers.len().min(room - 1)];
        let name = name(&mut self.names);
        let log = &mut self.log;
        log.u64(u64::from(name.name) << 1 | u64::from(!kept.is_empty()));
        log.u64(u64::from(name.cat));
        log.u64(u64::from(ctx.tid));
        log.delta(start.0, self.start);
        log.u64(dur.0);
        log.delta(ctx.span_id, self.span_id);
        log.delta(ctx.parent_id, ctx.span_id);
        log.delta(ctx.trace_id, ctx.span_id);
        args(self);
        let log = &mut self.log;
        log.byte(0);
        if !kept.is_empty() {
            log.u64(kept.len() as u64);
            for l in kept {
                log.u64(u64::from(l.name.name));
                log.u64(u64::from(l.name.cat));
                log.delta(l.start.0, start.0);
                log.u64(l.dur.0);
            }
        }
        log.commit_n(1 + kept.len());
        log.dropped += (layers.len() - kept.len()) as u64;
        (self.start, self.span_id) = (start.0, ctx.span_id);
    }

    /// Appends one arg under a key looked up now: the name-keyed paths'
    /// form of [`SpanLog::arg`].
    fn push_arg(&mut self, key: &str, value: &str) {
        let key = ArgKey(self.names.intern(key));
        self.arg(key, value);
    }

    /// Appends one arg to the span being written: its interned key and
    /// `value`'s text, written straight into the log.
    fn arg<T: ArgValue + ?Sized>(&mut self, key: ArgKey, value: &T) {
        self.log.u64(u64::from(key.0) + 1);
        self.log.text(value);
    }

    /// Every retained span, in recording order: a layered record's span,
    /// then its layers.
    fn iter(&self) -> impl Iterator<Item = SpanRef<'_>> {
        let mut r = self.log.reader();
        let (mut start, mut span_id) = (0, 0);
        // The layered span being expanded, its layer count and the last
        // layer yielded.
        let mut parent = TraceCtx {
            trace_id: 0,
            span_id: 0,
            parent_id: 0,
            tid: 0,
        };
        let (mut layers, mut layer) = (0, 0);
        std::iter::from_fn(move || {
            if layer < layers {
                layer += 1;
                let name = SpanName {
                    name: r.u64() as u32,
                    cat: r.u64() as u32,
                };
                return Some(SpanRef {
                    name,
                    ctx: TraceCtx {
                        span_id: parent.span_id + layer,
                        parent_id: parent.span_id,
                        ..parent
                    },
                    start: Nanos(r.delta(start)),
                    dur: Nanos(r.u64()),
                    args: pack::Reader::NO_ARGS,
                    layers: 0,
                });
            }
            if r.is_empty() {
                return None;
            }
            let head = r.u64();
            let name = SpanName {
                name: (head >> 1) as u32,
                cat: r.u64() as u32,
            };
            let tid = r.u64() as u32;
            start = r.delta(start);
            let dur = r.u64();
            span_id = r.delta(span_id);
            let parent_id = r.delta(span_id);
            let trace_id = r.delta(span_id);
            let args = r.clone();
            while r.u64() != 0 {
                r.str();
            }
            parent = TraceCtx {
                trace_id,
                span_id,
                parent_id,
                tid,
            };
            (layers, layer) = (if head & 1 == 1 { r.u64() } else { 0 }, 0);
            Some(SpanRef {
                name,
                ctx: parent,
                start: Nanos(start),
                dur: Nanos(dur),
                args,
                layers,
            })
        })
    }

    fn to_span(&self, s: &SpanRef) -> Span {
        let (name, cat) = self.name_of(s.name);
        Span {
            name: name.to_string(),
            cat: cat.to_string(),
            tid: s.ctx.tid,
            start: s.start,
            dur: s.dur,
            span_id: s.ctx.span_id,
            parent_id: s.ctx.parent_id,
            trace_id: s.ctx.trace_id,
            args: s
                .args()
                .map(|(k, v)| (self.names.get(k).to_string(), v.to_string()))
                .collect(),
        }
    }
}

/// A pre-resolved Figure-4 mechanism: the `core.mechanism.<name>.runs`
/// counter, the `core.mechanism.<name>.ns` histogram and the interned
/// `mechanism`-category span name, so observing an execution formats and
/// looks up nothing. Obtained from [`Registry::mechanism`]; cloning shares
/// the handle.
///
/// The counter and histogram are registered on the first observation, not
/// when the handle is resolved: a mechanism that never runs leaves no
/// zero-valued entries in [`Registry::metrics_json`].
#[derive(Debug, Clone)]
pub struct Mechanism(Arc<MechanismInner>);

#[derive(Debug)]
struct MechanismInner {
    name: String,
    span: SpanName,
    metrics: OnceLock<(Counter, Histogram)>,
}

impl Mechanism {
    /// Observes one execution: bumps the run counter, records the duration
    /// and emits the mechanism span for `ctx`. `reg` must be the registry
    /// this handle came from.
    pub fn observe(&self, reg: &Registry, ctx: TraceCtx, start: Nanos, dur: Nanos) {
        self.count(reg, dur);
        reg.end_named(ctx, self.0.span, start, dur);
    }

    /// [`Mechanism::observe`] for an execution drawn with its layers: the
    /// mechanism span is a child of `parent`, recorded with `layers` as
    /// its children in one [`Registry::layered`] record. Returns the
    /// mechanism span's context.
    pub fn observe_layered(
        &self,
        reg: &Registry,
        parent: TraceCtx,
        start: Nanos,
        dur: Nanos,
        layers: &[Layer],
    ) -> TraceCtx {
        self.count(reg, dur);
        reg.layered(parent, self.0.span, start, dur, layers)
    }

    /// Bumps the run counter and records the duration.
    fn count(&self, reg: &Registry, dur: Nanos) {
        let (runs, ns) = self.0.metrics.get_or_init(|| {
            let name = &self.0.name;
            (
                reg.counter(&format!("core.mechanism.{name}.runs")),
                reg.histogram(&format!("core.mechanism.{name}.ns")),
            )
        });
        runs.inc();
        ns.record(dur.0);
    }
}

/// The central sink for one run's metrics and spans.
///
/// Per-run instances (no process globals): each harness creates an
/// `Arc<Registry>` and hands clones to every layer it instruments, so
/// parallel tests never share state and runs stay reproducible.
#[derive(Debug)]
pub struct Registry {
    counters: Lock<BTreeMap<String, Counter>>,
    gauges: Lock<BTreeMap<String, Gauge>>,
    histograms: Lock<BTreeMap<String, Histogram>>,
    spans: Lock<SpanLog>,
    /// Mechanism handles by DSL spelling: two `…Obs` resolving one
    /// mechanism share its handle, and the name-keyed
    /// [`observe_mechanism_at`] resolves without formatting metric names.
    mechanisms: Lock<BTreeMap<String, Mechanism>>,
    /// Consistency history (see [`history`]): per-client invoke/ack
    /// records the offline checkers consume.
    history: HistoryWriter,
    /// Virtual-clock windowed time series (see [`timeline`]).
    timeline: timeline::Timeline,
    /// Deterministic span-id allocator: ids are handed out in call order,
    /// starting at 1, so same-seed runs assign identical ids.
    next_span_id: AtomicU64,
}

/// Spans retained per registry by default; further spans are counted as
/// dropped (deterministically — insertion order decides who survives).
pub const DEFAULT_SPAN_CAPACITY: usize = 262_144;

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// A registry with the default span capacity.
    pub fn new() -> Registry {
        Registry::with_span_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// A registry retaining at most `capacity` spans.
    pub fn with_span_capacity(capacity: usize) -> Registry {
        Registry {
            counters: Lock::new(BTreeMap::new()),
            gauges: Lock::new(BTreeMap::new()),
            histograms: Lock::new(BTreeMap::new()),
            spans: Lock::new(SpanLog {
                log: pack::Packed::with_capacity(capacity),
                start: 0,
                span_id: 0,
                names: Interner::default(),
            }),
            mechanisms: Lock::new(BTreeMap::new()),
            history: HistoryWriter::with_capacity(history::DEFAULT_HISTORY_CAPACITY),
            timeline: timeline::Timeline::default(),
            next_span_id: AtomicU64::new(0),
        }
    }

    /// A cloneable handle onto this registry's timeline, for layers that
    /// keep recording windowed samples after they stop borrowing the
    /// registry.
    pub fn timeline(&self) -> timeline::Timeline {
        self.timeline.clone()
    }

    /// Allocates the next span id (first call returns 1). Ids are unique
    /// per registry and allocated in deterministic call order.
    fn alloc_span_id(&self) -> u64 {
        self.next_span_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Opens a new trace: allocates a root context whose `trace_id` equals
    /// its own `span_id` and whose parent is 0. Call once per client
    /// request; record the root's span later with [`Registry::end_named`].
    pub fn trace_root(&self, tid: u32) -> TraceCtx {
        let id = self.alloc_span_id();
        TraceCtx {
            trace_id: id,
            span_id: id,
            parent_id: 0,
            tid,
        }
    }

    /// Derives a child context under `parent`: fresh `span_id`, parent's
    /// span as `parent_id`, same `trace_id` and `tid`. The child's span may
    /// be recorded before or after the parent's — ids are known up front,
    /// so recording order is irrelevant to the trace DAG.
    pub fn trace_child(&self, parent: TraceCtx) -> TraceCtx {
        let id = self.alloc_span_id();
        TraceCtx {
            trace_id: parent.trace_id,
            span_id: id,
            parent_id: parent.span_id,
            tid: parent.tid,
        }
    }

    /// Records one span without layers through [`SpanLog::push`]. `name`
    /// and `args` run under the span-log lock: they must not call back
    /// into this registry's span methods.
    fn push_span(
        &self,
        ctx: TraceCtx,
        start: Nanos,
        dur: Nanos,
        name: impl FnOnce(&mut Interner) -> SpanName,
        args: impl FnOnce(&mut SpanLog),
    ) {
        self.spans.lock().push(ctx, start, dur, name, args, &[]);
    }

    /// Interns `name` and `cat` for per-op use with [`Registry::end_named`],
    /// [`Registry::end_named_with`] and [`Registry::child_named`].
    pub fn span_name(&self, name: &str, cat: &str) -> SpanName {
        let mut log = self.spans.lock();
        log.names.span_name(name, cat)
    }

    /// Interns the arg key `key` for per-op use with
    /// [`Registry::end_named_with`] and [`Registry::child_named_args`].
    pub fn arg_key(&self, key: &str) -> ArgKey {
        ArgKey(self.spans.lock().names.intern(key))
    }

    /// Records the completed span for `ctx` under a pre-resolved name:
    /// a few bytes appended when retained, one increment when dropped.
    pub fn end_named(&self, ctx: TraceCtx, name: SpanName, start: Nanos, dur: Nanos) {
        self.push_span(ctx, start, dur, |_| name, |_| {});
    }

    /// [`Registry::end_named`] with one extra arg under a pre-resolved
    /// key. `value`'s text is written straight into the span log's bytes,
    /// and only if the span is retained: a `&str` or an integer costs no
    /// allocation and no `core::fmt` either way.
    pub fn end_named_with(
        &self,
        ctx: TraceCtx,
        name: SpanName,
        start: Nanos,
        dur: Nanos,
        key: ArgKey,
        value: impl ArgValue,
    ) {
        self.push_span(ctx, start, dur, |_| name, |log| log.arg(key, &value));
    }

    /// Allocates a child context under `parent` and records its completed
    /// span under a pre-resolved name; returns the child's context.
    pub fn child_named(
        &self,
        parent: TraceCtx,
        name: SpanName,
        start: Nanos,
        dur: Nanos,
    ) -> TraceCtx {
        let ctx = self.trace_child(parent);
        self.end_named(ctx, name, start, dur);
        ctx
    }

    /// Records a child span of `parent` named `name` and, as its children,
    /// one span per entry of `layers`, in one record: the `1 + k` ids are
    /// reserved in one step (the span's first, then its layers' in order)
    /// and every reader expands the layers right after the span. So
    /// [`Registry::spans`], the exporters and [`Registry::merge_from`] see
    /// exactly what [`Registry::child_named`] for the span and then for
    /// each layer under it would have recorded. Returns the span's
    /// context.
    pub fn layered(
        &self,
        parent: TraceCtx,
        name: SpanName,
        start: Nanos,
        dur: Nanos,
        layers: &[Layer],
    ) -> TraceCtx {
        let reserved = 1 + layers.len() as u64;
        let ctx = TraceCtx {
            trace_id: parent.trace_id,
            span_id: self.next_span_id.fetch_add(reserved, Ordering::Relaxed) + 1,
            parent_id: parent.span_id,
            tid: parent.tid,
        };
        self.spans
            .lock()
            .push(ctx, start, dur, |_| name, |_| {}, layers);
        ctx
    }

    /// [`Registry::child_named`] with args under pre-resolved keys, each
    /// value's text written straight into the span log's bytes (and only if
    /// the span is retained).
    pub fn child_named_args(
        &self,
        parent: TraceCtx,
        name: SpanName,
        start: Nanos,
        dur: Nanos,
        args: &[(ArgKey, &dyn ArgValue)],
    ) -> TraceCtx {
        let ctx = self.trace_child(parent);
        let args = |log: &mut SpanLog| args.iter().for_each(|&(k, v)| log.arg(k, v));
        self.push_span(ctx, start, dur, |_| name, args);
        ctx
    }

    /// Records the completed span for `ctx` under a name looked up now,
    /// with extra args. Name-keyed: only `benchmark/` records this way,
    /// until ROADMAP item 9 moves it onto handles; crate code records
    /// through the [`SpanName`]s its layer's `…Obs` resolved.
    pub fn end_span_args(
        &self,
        ctx: TraceCtx,
        name: &str,
        cat: &str,
        start: Nanos,
        dur: Nanos,
        args: Vec<(String, String)>,
    ) {
        self.push_span(
            ctx,
            start,
            dur,
            |n| n.span_name(name, cat),
            |log| args.iter().for_each(|(k, v)| log.push_arg(k, v)),
        );
    }

    /// Allocates a child context under `parent` and records its completed
    /// span under a name looked up now; returns the child's context.
    /// Name-keyed: only `benchmark/` records this way, until ROADMAP item
    /// 9; crate code uses [`Registry::child_named`].
    pub fn child_span(
        &self,
        parent: TraceCtx,
        name: &str,
        cat: &str,
        start: Nanos,
        dur: Nanos,
    ) -> TraceCtx {
        let ctx = self.trace_child(parent);
        self.push_span(ctx, start, dur, |n| n.span_name(name, cat), |_| {});
        ctx
    }

    /// The [`Mechanism`] handle for the mechanism spelled `name`.
    pub fn mechanism(&self, name: &str) -> Mechanism {
        let mut m = self.mechanisms.lock();
        if let Some(h) = m.get(name) {
            return h.clone();
        }
        let h = Mechanism(Arc::new(MechanismInner {
            name: name.to_string(),
            span: self.span_name(name, "mechanism"),
            metrics: OnceLock::new(),
        }));
        m.insert(name.to_string(), h.clone());
        h
    }

    /// Gets or creates the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        get_or_default(&self.counters, name)
    }

    /// Gets or creates the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        get_or_default(&self.gauges, name)
    }

    /// Gets or creates the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        get_or_default(&self.histograms, name)
    }

    /// Histogram `name`, if it exists: a reader that registers nothing.
    pub fn histogram_value(&self, name: &str) -> Option<Histogram> {
        let m = self.histograms.lock();
        m.get(name).cloned()
    }

    /// Current value of counter `name`, if it exists.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let m = self.counters.lock();
        m.get(name).map(Counter::get)
    }

    /// Current value of gauge `name`, if it exists.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        let m = self.gauges.lock();
        m.get(name).map(Gauge::get)
    }

    /// Records a fully built span.
    pub fn record_span(&self, span: Span) {
        let ctx = TraceCtx {
            trace_id: span.trace_id,
            span_id: span.span_id,
            parent_id: span.parent_id,
            tid: span.tid,
        };
        self.push_span(
            ctx,
            span.start,
            span.dur,
            |n| n.span_name(&span.name, &span.cat),
            |log| span.args.iter().for_each(|(k, v)| log.push_arg(k, v)),
        );
    }

    /// Number of retained spans.
    pub fn span_count(&self) -> usize {
        self.spans.lock().log.len()
    }

    /// Number of spans dropped after the capacity filled.
    pub fn spans_dropped(&self) -> u64 {
        self.spans.lock().log.dropped
    }

    /// A copy of the retained spans, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        let log = self.spans.lock();
        log.iter().map(|s| log.to_span(&s)).collect()
    }

    /// Whether any retained span carries `name`.
    pub fn has_span(&self, name: &str) -> bool {
        let log = self.spans.lock();
        match log.names.find(name) {
            Ok(id) => log.iter().any(|s| s.name.name == id),
            Err(_) => false,
        }
    }

    /// The span-retention capacity this registry was built with.
    pub fn span_capacity(&self) -> usize {
        self.spans.lock().log.capacity
    }

    /// Records one consistency-history event.
    pub fn record_history(&self, ev: HistoryEvent) {
        self.history.record(ev);
    }

    /// [`Registry::record_history`] for a row whose names are borrowed:
    /// the log copies them into its arena, so the caller never owns them.
    pub fn record_history_row(&self, row: HistoryEvent<&str>) {
        self.history.record(row);
    }

    /// A cloneable handle onto this registry's history log, for layers
    /// that only borrow the registry transiently but keep recording.
    pub fn history_writer(&self) -> HistoryWriter {
        self.history.clone()
    }

    /// A copy of the retained history events, in recording order.
    pub fn history_events(&self) -> Vec<HistoryEvent> {
        self.history.events()
    }

    /// Number of retained history events.
    pub fn history_count(&self) -> usize {
        self.history.count()
    }

    /// Serializes the history as a `cudele-history/v1` document claiming
    /// consistency `mode` (`"rpc"` or `"decoupled"`).
    pub fn history_json(&self, mode: &str) -> String {
        self.history.to_json(mode)
    }

    /// Folds another registry's contents into this one: counters add,
    /// gauges take the source's value (last-write-wins in merge order),
    /// histograms merge bucket-wise, and spans are appended with their ids
    /// rebased past this registry's allocator.
    ///
    /// The rebase makes merge order *the* id order: merging per-task
    /// registries back into a session registry in input order produces
    /// exactly the ids a serial run allocating from one registry would have
    /// produced — which is what keeps `--threads N` output byte-identical
    /// to `--threads 1`. Nonzero `span_id`/`parent_id`/`trace_id` are
    /// offset by this registry's current allocator position; 0 (legacy
    /// unidentified, or root parent) stays 0. The source registry is left
    /// untouched.
    ///
    /// # Panics
    ///
    /// If `other` is `self`: the merge would lock each store twice and
    /// never return.
    pub fn merge_from(&self, other: &Registry) {
        assert!(
            !std::ptr::eq(self, other),
            "Registry::merge_from: a registry cannot be merged into itself"
        );
        {
            let src = other.counters.lock();
            for (name, c) in src.iter() {
                let v = c.get();
                if v > 0 {
                    self.counter(name).add(v);
                }
            }
        }
        {
            let src = other.gauges.lock();
            for (name, g) in src.iter() {
                self.gauge(name).set(g.get());
            }
        }
        {
            let src = other.histograms.lock();
            for (name, h) in src.iter() {
                self.histogram(name).merge_from(h);
            }
        }
        let offset = self.next_span_id.load(Ordering::Relaxed);
        let rebase = |id: u64| if id == 0 { 0 } else { id + offset };
        {
            let src = other.spans.lock();
            let mut dst = self.spans.lock();
            let dst = &mut *dst;
            // Source string id → destination id, resolved on first use.
            let mut ids: Vec<Option<u32>> = vec![None; src.names.ends.len()];
            let mut map = |names: &mut Interner, id: u32| {
                *ids[id as usize].get_or_insert_with(|| names.intern(src.names.get(id)))
            };
            // A layered record is copied as one, so the destination keeps
            // it as compact, and cuts it where recording would have.
            let mut layers = Vec::new();
            let mut spans = src.iter();
            while let Some(s) = spans.next() {
                layers.clear();
                for l in spans.by_ref().take(s.layers as usize) {
                    let name = SpanName {
                        name: map(&mut dst.names, l.name.name),
                        cat: map(&mut dst.names, l.name.cat),
                    };
                    let (start, dur) = (l.start, l.dur);
                    layers.push(Layer { name, start, dur });
                }
                let name = SpanName {
                    name: map(&mut dst.names, s.name.name),
                    cat: map(&mut dst.names, s.name.cat),
                };
                let ctx = TraceCtx {
                    span_id: rebase(s.ctx.span_id),
                    parent_id: rebase(s.ctx.parent_id),
                    trace_id: rebase(s.ctx.trace_id),
                    ..s.ctx
                };
                let args = |dst: &mut SpanLog| {
                    for (key, value) in s.args() {
                        let key = ArgKey(map(&mut dst.names, key));
                        dst.arg(key, value);
                    }
                };
                dst.push(ctx, s.start, s.dur, |_| name, args, &layers);
            }
            dst.log.dropped += src.log.dropped;
        }
        // History events and timeline worst-sample markers reference trace
        // roots by id, so they rebase by the same offset as the spans they
        // hang off.
        self.history.merge_from(&other.history, offset);
        self.timeline.merge_from(&other.timeline, offset);
        // Advance the allocator past every id the source handed out, so the
        // next allocation (or next merge) continues the serial sequence.
        self.next_span_id.fetch_add(
            other.next_span_id.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }

    // ------------------------------------------------------------------
    // Exporters
    // ------------------------------------------------------------------

    /// Serializes the span log as Chrome trace-event JSON: `ph:"X"`
    /// complete events for spans, plus one `ph:"C"` counter event per
    /// timeline window so the windowed series render as counter tracks
    /// aligned with the spans in the same viewer. Virtual timestamps
    /// become microseconds with nanosecond precision (`ts`/`dur` are
    /// fractional µs), so the trace loads directly into Perfetto or
    /// `chrome://tracing`.
    pub fn chrome_trace_json(&self) -> String {
        let tl = self.timeline.snapshot();
        let log = self.spans.lock();
        let mut w = Writer::with_capacity(64 + log.log.len() * 96);
        w.obj(Compact).key("traceEvents").arr(Compact);
        for s in &tl.series {
            for p in &s.points {
                w.obj(Compact).key("name").str(&s.name).key("ph").str("C");
                w.key("ts").micros(p.t_ns).key("pid").u64(1);
                w.key("tid").u64(0);
                let value = p.stat.plot_value();
                w.key("args").obj(Compact).key("value").f64(value).close();
                w.close();
            }
        }
        for s in log.iter() {
            let (name, cat) = log.name_of(s.name);
            w.obj(Compact).key("name").str(name).key("cat").str(cat);
            w.key("ph").str("X").key("ts").micros(s.start.0);
            w.key("dur").micros(s.dur.0);
            w.key("pid").u64(1).key("tid").u64(u64::from(s.ctx.tid));
            // Identified spans (span_id != 0) carry their trace identity in
            // `args` so parent nesting survives the Chrome trace format.
            let has_ids = s.ctx.span_id != 0;
            let mut args = s.args().peekable();
            if has_ids || args.peek().is_some() {
                w.key("args").obj(Compact);
                if has_ids {
                    w.key("span_id").str(&s.ctx.span_id.to_string());
                    w.key("parent_id").str(&s.ctx.parent_id.to_string());
                    w.key("trace_id").str(&s.ctx.trace_id.to_string());
                }
                for (k, v) in args {
                    w.key(log.names.get(k)).str(v);
                }
                w.close();
            }
            w.close();
        }
        w.close().key("displayTimeUnit").str("ns").close();
        w.finish()
    }

    /// Serializes every metric as one JSON document: counters and gauges
    /// as flat name→value maps, histograms with count/sum/min/max and
    /// interpolated p50/p95/p99, plus the span-log accounting.
    pub fn metrics_json(&self) -> String {
        // Snapshot real counters, then merge the span-log accounting in as
        // synthetic `obs.*` counters so truncation is never silent.
        let mut counters: BTreeMap<String, u64> = {
            let m = self.counters.lock();
            m.iter().map(|(k, c)| (k.clone(), c.get())).collect()
        };
        let (recorded, dropped) = {
            let log = self.spans.lock();
            (log.log.len() as u64, log.log.dropped)
        };
        for (name, v) in [
            ("obs.spans_dropped", dropped),
            ("obs.spans_recorded", recorded),
            ("obs.timeline.windows_dropped", self.timeline.dropped()),
            (
                "obs.timeline.windows_recorded",
                self.timeline.windows_recorded(),
            ),
        ] {
            counters.insert(name.to_string(), v);
        }
        let mut w = Writer::default();
        w.obj(Pretty).key("counters").obj(Pretty);
        for (name, v) in &counters {
            w.key(name).u64(*v);
        }
        w.close().key("gauges").obj(Pretty);
        for (name, g) in self.gauges.lock().iter() {
            w.key(name).f64(g.get());
        }
        w.close().key("histograms").obj(Pretty);
        for (name, h) in self.histograms.lock().iter() {
            w.key(name).obj(Inline).key("count").u64(h.count());
            w.key("sum").u64(h.sum()).key("min").u64(h.min());
            w.key("max").u64(h.max()).key("p50").f64(h.p50());
            w.key("p95").f64(h.p95()).key("p99").f64(h.p99()).close();
        }
        w.close().key("spans").obj(Inline);
        w.key("recorded").u64(recorded).key("dropped").u64(dropped);
        w.close().close();
        w.finish()
    }
}

/// The metric cell registered under `name`, created on first sight. Looks
/// up by `&str` first so a repeat lookup does not allocate the key.
fn get_or_default<T: Default + Clone>(map: &Lock<BTreeMap<String, T>>, name: &str) -> T {
    let mut m = map.lock();
    if let Some(cell) = m.get(name) {
        return cell.clone();
    }
    m.entry(name.to_string()).or_default().clone()
}

/// Observes one executed mechanism (any of the paper's Figure 4 seven):
/// bumps `core.mechanism.<name>.runs`, records the duration into
/// `core.mechanism.<name>.ns`, and emits a `mechanism`-category span under
/// `ctx` — a child context derived from the client op's root (see
/// [`Registry::trace_child`]), so the span lands inside the request's trace
/// tree.
///
/// Name-keyed (a registry map lookup per call): only `benchmark/` observes
/// this way, until ROADMAP item 9; crate code observes through the
/// [`Mechanism`] handles its layer's `…Obs` resolved.
pub fn observe_mechanism_at(reg: &Registry, name: &str, ctx: TraceCtx, start: Nanos, dur: Nanos) {
    reg.mechanism(name).observe(reg, ctx, start, dur);
}

/// Escapes a string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    json::escape_into(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let reg = Registry::new();
        let c = reg.counter("a.b.c");
        c.inc();
        c.add(4);
        // Same name returns the same cell.
        assert_eq!(reg.counter("a.b.c").get(), 5);
        assert_eq!(reg.counter_value("a.b.c"), Some(5));
        assert_eq!(reg.counter_value("nope"), None);

        let g = reg.gauge("u");
        g.set(0.75);
        assert_eq!(reg.gauge_value("u"), Some(0.75));
    }

    #[test]
    fn histogram_percentiles_interpolate() {
        let h = Histogram::default();
        for v in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 1000);
        let p50 = h.p50();
        assert!((10.0..=90.0).contains(&p50), "p50 {p50}");
        let p99 = h.p99();
        assert!(p99 > p50, "p99 {p99} <= p50 {p50}");
        assert!(p99 <= 1000.0);
    }

    /// Pins the tiny-count edge cases: empty, single sample, two samples,
    /// and all-samples-in-one-bucket must yield well-defined p50/p95/p99
    /// rather than bucket-boundary artifacts.
    #[test]
    fn histogram_percentile_edge_cases_are_pinned() {
        // Empty: 0.0, not NaN, so exporters stay JSON-clean.
        let h = Histogram::default();
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.p95(), 0.0);
        assert_eq!(h.p99(), 0.0);

        // Single sample: the sample itself, at every percentile.
        let h = Histogram::default();
        h.record(100);
        assert_eq!((h.p50(), h.p95(), h.p99()), (100.0, 100.0, 100.0));

        // All samples equal (same bucket, count > 1): exact, not a
        // bucket-midpoint.
        let h = Histogram::default();
        for _ in 0..5 {
            h.record(700);
        }
        assert_eq!((h.p50(), h.p95(), h.p99()), (700.0, 700.0, 700.0));

        // All-one-bucket with spread: interpolation sweeps the observed
        // [min, max], not the bucket's [2^k, 2^(k+1)) bounds. 520 and
        // 1000 share bucket [512, 1023]: p50 is their midpoint exactly.
        let h = Histogram::default();
        h.record(520);
        h.record(1000);
        assert_eq!(h.p50(), 760.0);
        assert!(h.p99() <= 1000.0 && h.p99() >= 760.0);

        // Two samples in different buckets: the rank's owning bucket is
        // interpolated with bounds clamped to the observed range, so the
        // result stays within [min, max] and below the larger sample.
        let h = Histogram::default();
        h.record(10);
        h.record(1000);
        let p50 = h.p50();
        assert!((10.0..=1000.0).contains(&p50), "p50 {p50}");
        assert_eq!(p50, 756.0); // mid of [512 max 10, 1023 min 1000]
        assert_eq!(h.percentile(0.0), 10.0);
        assert_eq!(h.percentile(100.0), 1000.0);
    }

    /// `record_n(v, n)` is `n` calls of `record(v)`: the same buckets and
    /// stats, through an empty sketch's run placement, a spill out of the
    /// narrow run and a saturating `sum`. A count past `u32` — the other
    /// spill — is checked by splitting it: `record_n` of the whole equals
    /// `record_n` of its parts.
    #[test]
    fn record_n_equals_repeated_record() {
        let state = |s: &Sketch| {
            let buckets: Vec<_> = s.buckets().collect();
            let wide = matches!(s.counts, Counts::Wide(_));
            (buckets, wide, s.count, s.sum, s.min, s.max)
        };
        let cases: &[&[(u64, u64)]] = &[
            &[(0, 3)],
            &[(5, 1), (5, 0), (700, 4)],
            &[(1, 2), (1 << 40, 3), (2, 5)],
            &[(u64::MAX / 3, 5), (7, 2)],
            &[(u64::MAX, 2), (0, 1)],
        ];
        for &case in cases {
            let (mut one, mut bulk) = (Sketch::EMPTY, Sketch::EMPTY);
            for &(v, n) in case {
                (0..n).for_each(|_| one.record(v));
                bulk.record_n(v, n);
            }
            assert_eq!(state(&bulk), state(&one), "{case:?}");
        }
        let big = u64::from(u32::MAX) + 2;
        let (mut whole, mut parts) = (Sketch::EMPTY, Sketch::EMPTY);
        whole.record_n(9, big);
        parts.record_n(9, big - 3);
        (0..3).for_each(|_| parts.record(9));
        assert_eq!(state(&whole), state(&parts));
        assert!(matches!(whole.counts, Counts::Wide(_)));
        let h = Histogram::default();
        h.record_n(1000, 4);
        assert_eq!(
            (h.count(), h.sum(), h.min(), h.max()),
            (4, 4000, 1000, 1000)
        );
    }

    #[test]
    fn histogram_handles_zero_and_huge() {
        let h = Histogram::default();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX); // saturating
    }

    /// What a run keeps per op: 10 000 `rpc_create`-shaped ops (a root
    /// with its `file` arg, the `rpcs` mechanism, queue wait, service,
    /// `net.rpc`, the Stream mechanism and the mdlog span, four clients
    /// interleaved, plus the server's history row) pack into at most 16
    /// bytes a span and 40 a row. Fixed-width storage took 56 + 16 and 96.
    #[test]
    fn packed_logs_pin_their_footprint() {
        use history::{HistoryEvent, HistoryOp, HistoryResult, HistoryScope};
        let reg = Registry::new();
        let rpcs = reg.mechanism("rpcs");
        let stream = reg.mechanism("stream");
        let [wait, service, net, mdlog, create] = [
            ("mds.queue_wait", "mds"),
            ("mds.service", "mds"),
            ("net.rpc", "net"),
            ("mds.mdlog", "mds"),
            ("create", "client_op"),
        ]
        .map(|(name, cat)| reg.span_name(name, cat));
        let file = reg.arg_key("file");
        let mut name = String::new();
        for i in 0..10_000u64 {
            let (client, now) = ((i % 4) as u32, Nanos(i * 2_150));
            name.clear();
            std::fmt::Write::write_fmt(&mut name, format_args!("file.{client}.{}", i / 4)).unwrap();
            let root = reg.trace_root(client);
            reg.child_named(root, mdlog, now + Nanos(300), Nanos(40));
            stream.observe(&reg, reg.trace_child(root), now + Nanos(300), Nanos(40));
            reg.record_history_row(HistoryEvent {
                client: u64::from(client),
                scope: HistoryScope::Global,
                op: HistoryOp::Create {
                    dir: 2 + u64::from(client),
                    name: name.as_str(),
                },
                result: HistoryResult::Ok,
                ino: 1_099_511_627_776 + i,
                invoke: now,
                ack: now + Nanos(1_750),
                epoch: 1,
                trace_id: root.trace_id,
            });
            let rpc = reg.trace_child(root);
            rpcs.observe(&reg, rpc, now, Nanos(1_750));
            reg.child_named(rpc, wait, now, Nanos(i % 700));
            reg.child_named(rpc, service, now + Nanos(700), Nanos(950));
            reg.child_named(rpc, net, now + Nanos(1_650), Nanos(100));
            reg.end_named_with(root, create, now, Nanos(1_750), file, &name);
        }
        assert_eq!((reg.span_count(), reg.history_count()), (70_000, 10_000));
        let span = reg.spans.lock().log.bytes_per_record();
        let row = reg.history.bytes_per_row();
        assert!(span <= 16.0, "{span} bytes a span");
        assert!(row <= 40.0, "{row} bytes a create row");
    }

    /// Strings whose hashes collide take consecutive slots, and each still
    /// finds its own id: a slot taken by another string is probed past.
    #[test]
    fn interner_probes_past_a_colliding_slot() {
        let mut names = Interner::default();
        let a = names.intern("a");
        let Err(slot) = names.find("b") else {
            panic!("`b` is not interned yet")
        };
        // Make `b`'s home slot hold `a`, as a hash collision would.
        names.ids.insert(slot, a);
        let b = names.intern("b");
        assert_ne!(a, b);
        assert_eq!(names.ids.get(&slot.wrapping_add(1)), Some(&b));
        assert_eq!((names.find("a"), names.find("b")), (Ok(a), Ok(b)));
        assert_eq!((names.get(a), names.get(b)), ("a", "b"));
        assert_eq!((names.intern(""), names.intern("b")), (2, b));
        assert_eq!(names.get(2), "");
    }

    #[test]
    fn span_capacity_drops_deterministically() {
        let reg = Registry::with_span_capacity(2);
        for i in 0..5u64 {
            reg.end_named(
                reg.trace_root(0),
                reg.span_name(&format!("s{i}"), "t"),
                Nanos(i),
                Nanos(1),
            );
        }
        assert_eq!(reg.span_count(), 2);
        assert_eq!(reg.spans_dropped(), 3);
        assert!(reg.has_span("s0") && reg.has_span("s1") && !reg.has_span("s2"));
    }

    #[test]
    fn chrome_trace_shape_and_validity() {
        let reg = Registry::new();
        reg.record_span(Span {
            name: "create \"x\"".into(),
            cat: "rpc".into(),
            tid: 3,
            start: Nanos(1_234_567),
            dur: Nanos(890),
            span_id: 0,
            parent_id: 0,
            trace_id: 0,
            args: vec![("events".into(), "7".into())],
        });
        let trace = reg.chrome_trace_json();
        json::validate(&trace).expect("valid JSON");
        assert!(trace.contains("\"ts\":1234.567"));
        assert!(trace.contains("\"dur\":0.890"));
        assert!(trace.contains("\"tid\":3"));
        assert!(trace.contains("\\\"x\\\""));
        assert!(trace.contains("\"args\":{\"events\":\"7\"}"));
    }

    #[test]
    fn metrics_json_sorted_and_valid() {
        let reg = Registry::new();
        reg.counter("z.last").inc();
        reg.counter("a.first").add(2);
        reg.gauge("mid").set(1.5);
        reg.histogram("h.ns").record(1000);
        let m = reg.metrics_json();
        json::validate(&m).expect("valid JSON");
        let a = m.find("a.first").unwrap();
        let z = m.find("z.last").unwrap();
        assert!(a < z, "counters must serialize sorted");
        assert!(m.contains("\"count\": 1"));
    }

    #[test]
    fn identical_recordings_serialize_identically() {
        let run = || {
            let reg = Registry::new();
            for i in 0..100u64 {
                reg.counter("ops").inc();
                reg.histogram("lat").record(i * 37 + 5);
                reg.end_named(
                    reg.trace_root((i % 4) as u32),
                    reg.span_name("op", "rpc"),
                    Nanos(i * 10),
                    Nanos(7),
                );
            }
            reg.gauge("util").set(0.123_456_789);
            (reg.metrics_json(), reg.chrome_trace_json())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn observe_mechanism_emits_all_three() {
        let reg = Registry::new();
        observe_mechanism_at(
            &reg,
            "local_persist",
            reg.trace_root(2),
            Nanos(10),
            Nanos(500),
        );
        assert_eq!(
            reg.counter_value("core.mechanism.local_persist.runs"),
            Some(1)
        );
        assert_eq!(reg.histogram("core.mechanism.local_persist.ns").count(), 1);
        assert!(reg.has_span("local_persist"));
    }

    #[test]
    fn empty_registry_exports_are_valid() {
        let reg = Registry::new();
        json::validate(&reg.metrics_json()).unwrap();
        json::validate(&reg.chrome_trace_json()).unwrap();
    }

    #[test]
    fn trace_ids_allocate_deterministically() {
        let reg = Registry::new();
        let root = reg.trace_root(5);
        assert_eq!(root.span_id, 1);
        assert_eq!(root.trace_id, 1);
        assert_eq!(root.parent_id, 0);
        assert_eq!(root.tid, 5);
        let c1 = reg.trace_child(root);
        let c2 = reg.trace_child(root);
        let gc = reg.trace_child(c1);
        assert_eq!((c1.span_id, c2.span_id, gc.span_id), (2, 3, 4));
        assert_eq!(c1.parent_id, root.span_id);
        assert_eq!(gc.parent_id, c1.span_id);
        assert_eq!(gc.trace_id, root.trace_id);
        // A second registry starts over at 1: ids are per-run, not global.
        assert_eq!(Registry::new().trace_root(0).span_id, 1);
    }

    #[test]
    fn parented_spans_record_identity() {
        let reg = Registry::new();
        let root = reg.trace_root(1);
        // Child recorded before the parent — order must not matter.
        let child = reg.child_span(root, "stripe_append", "rados", Nanos(10), Nanos(5));
        reg.end_named(
            root,
            reg.span_name("create", "client_op"),
            Nanos(0),
            Nanos(20),
        );
        let spans = reg.spans();
        assert_eq!(spans.len(), 2);
        let c = spans.iter().find(|s| s.name == "stripe_append").unwrap();
        let r = spans.iter().find(|s| s.name == "create").unwrap();
        assert_eq!(c.parent_id, r.span_id);
        assert_eq!(c.trace_id, r.trace_id);
        assert_eq!(child.parent_id, r.span_id);
        let trace = reg.chrome_trace_json();
        json::validate(&trace).unwrap();
        assert!(trace.contains("\"span_id\":\"1\""));
        assert!(trace.contains("\"parent_id\":\"1\""));
    }

    #[test]
    fn spans_dropped_surfaces_in_metrics_json() {
        let reg = Registry::with_span_capacity(1);
        reg.end_named(
            reg.trace_root(0),
            reg.span_name("a", "t"),
            Nanos(0),
            Nanos(1),
        );
        reg.end_named(
            reg.trace_root(0),
            reg.span_name("b", "t"),
            Nanos(1),
            Nanos(1),
        );
        let m = reg.metrics_json();
        json::validate(&m).unwrap();
        assert!(m.contains("\"obs.spans_dropped\": 1"));
        assert!(m.contains("\"obs.spans_recorded\": 1"));
    }

    /// The load-bearing property of `merge_from`: per-task registries merged
    /// in input order reproduce exactly what one shared registry would have
    /// recorded serially — counters, histograms, spans, and ids.
    #[test]
    fn merging_per_task_registries_matches_serial_recording() {
        let record = |reg: &Registry, task: u32| {
            reg.counter("ops").add(u64::from(task) + 1);
            reg.gauge("last_task").set(f64::from(task));
            reg.histogram("lat").record(u64::from(task) * 100);
            let root = reg.trace_root(task);
            reg.child_span(root, "child", "t", Nanos(1), Nanos(2));
            reg.end_named(root, reg.span_name("op", "t"), Nanos(0), Nanos(5));
        };

        let serial = Registry::new();
        for task in 0..3 {
            record(&serial, task);
        }

        let merged = Registry::new();
        for task in 0..3 {
            let per_task = Registry::new();
            record(&per_task, task);
            merged.merge_from(&per_task);
        }

        assert_eq!(merged.metrics_json(), serial.metrics_json());
        assert_eq!(merged.chrome_trace_json(), serial.chrome_trace_json());
        assert_eq!(merged.spans(), serial.spans());
        // The allocator continues the serial sequence after the merges.
        assert_eq!(merged.trace_root(9).span_id, serial.trace_root(9).span_id);
    }

    /// History merging follows the span-id rebase: per-task histories
    /// merged in input order serialize byte-identically to one serial
    /// recording — the property `--threads 1` vs `--threads N` pins.
    #[test]
    fn merging_per_task_histories_matches_serial_recording() {
        use history::{HistoryEvent, HistoryOp, HistoryResult, HistoryScope};
        let record = |reg: &Registry, task: u32| {
            let root = reg.trace_root(task);
            reg.record_history(HistoryEvent {
                client: u64::from(task),
                scope: HistoryScope::Global,
                op: HistoryOp::Create {
                    dir: 1,
                    name: format!("t{task}"),
                },
                result: HistoryResult::Ok,
                ino: 100 + u64::from(task),
                invoke: Nanos(u64::from(task) * 10),
                ack: Nanos(u64::from(task) * 10 + 5),
                epoch: 1,
                trace_id: root.trace_id,
            });
            reg.end_named(
                root,
                reg.span_name("create", "client_op"),
                Nanos(0),
                Nanos(5),
            );
        };
        let serial = Registry::new();
        for task in 0..3 {
            record(&serial, task);
        }
        let merged = Registry::new();
        for task in 0..3 {
            let per_task = Registry::new();
            record(&per_task, task);
            merged.merge_from(&per_task);
        }
        assert_eq!(merged.history_events(), serial.history_events());
        assert_eq!(merged.history_json("rpc"), serial.history_json("rpc"));
    }

    #[test]
    fn merge_respects_capacity_and_dropped_counts() {
        let target = Registry::with_span_capacity(1);
        assert_eq!(target.span_capacity(), 1);
        let src = Registry::new();
        src.end_named(
            src.trace_root(0),
            src.span_name("a", "t"),
            Nanos(0),
            Nanos(1),
        );
        src.end_named(
            src.trace_root(0),
            src.span_name("b", "t"),
            Nanos(1),
            Nanos(1),
        );
        target.merge_from(&src);
        assert_eq!(target.span_count(), 1);
        assert_eq!(target.spans_dropped(), 1);
    }

    /// Merging a registry, or a history log, into itself would lock each of
    /// its stores twice and never return; it is refused before anything is
    /// locked.
    #[test]
    fn merging_a_registry_into_itself_is_refused() {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (tx, rx) = channel();
        let worker = std::thread::spawn(move || {
            let reg = Registry::new();
            reg.counter("ops").inc();
            let refused = std::panic::catch_unwind(|| reg.merge_from(&reg)).is_err();
            let log = reg.history_writer();
            let log_refused =
                std::panic::catch_unwind(|| log.merge_from(&reg.history_writer(), 0)).is_err();
            let _ = tx.send((refused && log_refused, reg.counter_value("ops")));
        });
        // A spinning worker cannot be joined; any other outcome is, so a
        // panic in it surfaces here.
        let got = rx.recv_timeout(std::time::Duration::from_secs(3));
        assert!(
            !matches!(got, Err(RecvTimeoutError::Timeout)),
            "merging a registry into itself did not return"
        );
        worker.join().expect("the worker panicked");
        let (refused, ops) = got.expect("the worker sent its outcome");
        assert!(refused, "the self-merge was not refused");
        assert_eq!(ops, Some(1), "the refused merge changed nothing");
    }

    /// The handles layers keep — object stores among them, which must be
    /// `Send + Sync` — stay shareable across threads and across
    /// `catch_unwind`, as they were behind the standard library's mutex.
    #[test]
    fn handles_are_send_sync_and_unwind_safe() {
        use std::panic::{RefUnwindSafe, UnwindSafe};
        fn shareable<T: Send + Sync + UnwindSafe + RefUnwindSafe>() {}
        shareable::<Registry>();
        shareable::<Histogram>();
        shareable::<Mechanism>();
        shareable::<HistoryWriter>();
        shareable::<timeline::Timeline>();
        shareable::<timeline::Series>();
    }

    #[test]
    fn histogram_merge_from_combines_stats() {
        let a = Histogram::default();
        let b = Histogram::default();
        a.record(10);
        b.record(1000);
        b.record(3);
        a.merge_from(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 1013);
        assert_eq!(a.min(), 3);
        assert_eq!(a.max(), 1000);
        // Merging an empty histogram is a no-op (min stays intact).
        a.merge_from(&Histogram::default());
        assert_eq!(a.min(), 3);
    }
}
