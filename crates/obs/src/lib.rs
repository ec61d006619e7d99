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
//!   and histogram (with p50/p95/p99), hand-rolled — no serde.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use cudele_sim::Nanos;

pub mod critpath;
pub mod history;
pub mod json;
pub mod slo;
pub mod timeline;

use history::{HistoryEvent, HistoryWriter};

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

/// Number of histogram buckets: one for zero plus one per power of two of
/// the 64-bit value range.
const HIST_BUCKETS: usize = 65;

#[derive(Debug)]
struct HistData {
    /// `buckets[0]` counts zeros; `buckets[k]` counts values in
    /// `[2^(k-1), 2^k)`.
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl HistData {
    fn new() -> HistData {
        HistData {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
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

/// The `q`-th percentile (`q` in `[0, 100]`) of a log-bucketed sample set
/// with known exact `count`/`min`/`max`. Shared by [`Histogram`] and the
/// per-window latency points in [`timeline`].
///
/// Degenerate inputs get well-defined answers instead of bucket-boundary
/// artifacts: an empty set returns `0.0`, a single sample returns it
/// exactly, and when every sample is equal the value is returned exactly.
/// Otherwise the rank's owning bucket is interpolated between its bounds
/// *clamped to the observed `[min, max]`* — so an all-one-bucket
/// histogram sweeps the observed range rather than the bucket's, p0
/// lands on `min`, and p100 on `max`.
pub(crate) fn bucket_percentile(
    buckets: &[u64; HIST_BUCKETS],
    count: u64,
    min: u64,
    max: u64,
    q: f64,
) -> f64 {
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
    for (i, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
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

/// A log-bucketed histogram of `u64` samples (typically nanoseconds).
/// Buckets are powers of two, so `record` is O(1) and percentiles are
/// bucket-interpolated approximations clamped to the exact observed
/// `[min, max]`. Cloning shares the underlying data.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<Mutex<HistData>>);

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(Mutex::new(HistData::new())))
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        let mut d = self.0.lock().unwrap_or_else(|p| p.into_inner());
        let idx = (64 - v.leading_zeros()) as usize;
        d.buckets[idx] += 1;
        d.count += 1;
        d.sum = d.sum.saturating_add(v);
        d.min = d.min.min(v);
        d.max = d.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.lock().unwrap_or_else(|p| p.into_inner()).count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.0.lock().unwrap_or_else(|p| p.into_inner()).sum
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        let d = self.0.lock().unwrap_or_else(|p| p.into_inner());
        if d.count == 0 {
            0
        } else {
            d.min
        }
    }

    /// Largest sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.0.lock().unwrap_or_else(|p| p.into_inner()).max
    }

    /// The `q`-th percentile (`q` in `[0, 100]`), interpolated within the
    /// owning bucket with bounds clamped to the observed range. Edge
    /// cases are well-defined: `0.0` when empty, the exact sample when
    /// `count == 1` or all samples are equal (see `bucket_percentile`).
    pub fn percentile(&self, q: f64) -> f64 {
        let d = self.0.lock().unwrap_or_else(|p| p.into_inner());
        bucket_percentile(&d.buckets, d.count, d.min, d.max, q)
    }

    /// Folds another histogram's samples into this one (bucket-wise). Used
    /// when merging per-task registries back into a session registry.
    pub fn merge_from(&self, other: &Histogram) {
        let o = {
            let d = other.0.lock().unwrap_or_else(|p| p.into_inner());
            HistData {
                buckets: d.buckets,
                count: d.count,
                sum: d.sum,
                min: d.min,
                max: d.max,
            }
        };
        if o.count == 0 {
            return;
        }
        let mut d = self.0.lock().unwrap_or_else(|p| p.into_inner());
        for (b, ob) in d.buckets.iter_mut().zip(o.buckets.iter()) {
            *b += ob;
        }
        d.count += o.count;
        d.sum = d.sum.saturating_add(o.sum);
        d.min = d.min.min(o.min);
        d.max = d.max.max(o.max);
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
///   [`Registry::child_span`]) — never reuses the parent's `span_id`;
/// * contexts carry no registry handle, so a `TraceCtx` without a
///   `&Registry` alongside is inert (use [`TraceSink`] to bundle them).
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

/// A borrowed registry + trace context + virtual-time anchor, bundled so
/// lower layers (journal writer, NVA sink, retry loops) can emit child
/// spans without threading three parameters everywhere.
#[derive(Debug, Clone, Copy)]
pub struct TraceSink<'a> {
    /// The registry spans are recorded into.
    pub reg: &'a Registry,
    /// The parent context new child spans hang off.
    pub ctx: TraceCtx,
    /// The virtual instant the traced operation started at; layers without
    /// their own clock lay child spans out relative to this.
    pub at: Nanos,
}

impl<'a> TraceSink<'a> {
    /// Bundles a sink.
    pub fn new(reg: &'a Registry, ctx: TraceCtx, at: Nanos) -> TraceSink<'a> {
        TraceSink { reg, ctx, at }
    }

    /// Records a completed child span under this sink's context and
    /// returns the child's context (for grandchildren).
    pub fn child(&self, name: &str, cat: &str, start: Nanos, dur: Nanos) -> TraceCtx {
        self.reg.child_span(self.ctx, name, cat, start, dur)
    }

    /// [`TraceSink::child`] with extra args.
    pub fn child_args(
        &self,
        name: &str,
        cat: &str,
        start: Nanos,
        dur: Nanos,
        args: Vec<(String, String)>,
    ) -> TraceCtx {
        let ctx = self.reg.trace_child(self.ctx);
        self.reg.end_span_args(ctx, name, cat, start, dur, args);
        ctx
    }

    /// A sink one level deeper: same registry, `ctx` as the new parent,
    /// re-anchored at `at`.
    pub fn nested(&self, ctx: TraceCtx, at: Nanos) -> TraceSink<'a> {
        TraceSink {
            reg: self.reg,
            ctx,
            at,
        }
    }
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

/// Span names and categories, each stored once; spans refer to them by id.
#[derive(Debug, Default)]
struct Interner {
    ids: HashMap<Arc<str>, u32>,
    strings: Vec<Arc<str>>,
}

impl Interner {
    /// The id of `s`; allocates only the first time `s` is seen.
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        let s: Arc<str> = Arc::from(s);
        self.strings.push(Arc::clone(&s));
        self.ids.insert(s, id);
        id
    }

    fn span_name(&mut self, name: &str, cat: &str) -> SpanName {
        SpanName {
            name: self.intern(name),
            cat: self.intern(cat),
        }
    }
}

/// A retained span: [`Span`] with its two strings interned and its args in
/// the log's side table. Plain data — no destructor, so dropping the log
/// frees the vectors and nothing per span.
#[derive(Debug, Clone, Copy)]
struct StoredSpan {
    name: SpanName,
    tid: u32,
    /// One past this span's last entry in [`SpanLog::args`]; its first is
    /// the previous span's `args_end` (spans and their args are both
    /// appended in recording order).
    args_end: u32,
    start: Nanos,
    dur: Nanos,
    span_id: u64,
    parent_id: u64,
    trace_id: u64,
}

/// One span arg: the key interned beside the span names, the value a range
/// of [`SpanLog::arg_values`] ending at `value_end` and starting where the
/// previous arg's value ended.
#[derive(Debug, Clone, Copy)]
struct StoredArg {
    key: u32,
    value_end: usize,
}

#[derive(Debug)]
struct SpanLog {
    spans: Vec<StoredSpan>,
    /// Every retained span's args, in span order.
    args: Vec<StoredArg>,
    /// The arena the arg values live in, in arg order.
    arg_values: String,
    capacity: usize,
    dropped: u64,
    names: Interner,
}

impl SpanLog {
    fn name_of(&self, s: &StoredSpan) -> (&str, &str) {
        (
            &self.names.strings[s.name.name as usize],
            &self.names.strings[s.name.cat as usize],
        )
    }

    /// Appends one arg to the span about to be pushed, formatting `value`
    /// straight into the arena.
    fn push_arg(&mut self, key: &str, value: impl std::fmt::Display) {
        use std::fmt::Write as _;
        let key = self.names.intern(key);
        // Writing to a `String` cannot fail.
        let _ = write!(self.arg_values, "{value}");
        self.args.push(StoredArg {
            key,
            value_end: self.arg_values.len(),
        });
    }

    /// The args of the `i`-th retained span as `(key, value)` pairs.
    fn args_of(&self, i: usize) -> impl Iterator<Item = (&str, &str)> {
        let first = match i {
            0 => 0,
            _ => self.spans[i - 1].args_end as usize,
        };
        let mut at = match first {
            0 => 0,
            _ => self.args[first - 1].value_end,
        };
        self.args[first..self.spans[i].args_end as usize]
            .iter()
            .map(move |a| {
                let value = &self.arg_values[at..a.value_end];
                at = a.value_end;
                (&*self.names.strings[a.key as usize], value)
            })
    }

    fn to_span(&self, i: usize) -> Span {
        let s = &self.spans[i];
        let (name, cat) = self.name_of(s);
        Span {
            name: name.to_string(),
            cat: cat.to_string(),
            tid: s.tid,
            start: s.start,
            dur: s.dur,
            span_id: s.span_id,
            parent_id: s.parent_id,
            trace_id: s.trace_id,
            args: self
                .args_of(i)
                .map(|(k, v)| (k.to_string(), v.to_string()))
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
        let (runs, ns) = self.0.metrics.get_or_init(|| {
            let name = &self.0.name;
            (
                reg.counter(&format!("core.mechanism.{name}.runs")),
                reg.histogram(&format!("core.mechanism.{name}.ns")),
            )
        });
        runs.inc();
        ns.record(dur.0);
        reg.end_named(ctx, self.0.span, start, dur);
    }
}

/// The central sink for one run's metrics and spans.
///
/// Per-run instances (no process globals): each harness creates an
/// `Arc<Registry>` and hands clones to every layer it instruments, so
/// parallel tests never share state and runs stay reproducible.
#[derive(Debug)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    spans: Mutex<SpanLog>,
    /// Mechanism handles by DSL spelling, so the name-keyed
    /// [`observe_mechanism_at`] resolves without formatting metric names.
    mechanisms: Mutex<BTreeMap<String, Mechanism>>,
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
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(SpanLog {
                spans: Vec::new(),
                args: Vec::new(),
                arg_values: String::new(),
                capacity,
                dropped: 0,
                names: Interner::default(),
            }),
            mechanisms: Mutex::new(BTreeMap::new()),
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
    /// request; record the root's span later with [`Registry::end_span`].
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

    /// The one span-recording path. Capacity is checked before anything is
    /// built: a dropped span costs one counter increment, and `name` /
    /// `args` run (under the span-log lock — they must not call back into
    /// this registry's span methods) only for a span that is kept. `args`
    /// appends the span's args with [`SpanLog::push_arg`].
    fn push_span(
        &self,
        ctx: TraceCtx,
        start: Nanos,
        dur: Nanos,
        name: impl FnOnce(&mut Interner) -> SpanName,
        args: impl FnOnce(&mut SpanLog),
    ) {
        let mut log = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        if log.spans.len() >= log.capacity {
            log.dropped += 1;
            return;
        }
        let name = name(&mut log.names);
        args(&mut log);
        let args_end =
            u32::try_from(log.args.len()).expect("a span log holds fewer than 2^32 args");
        log.spans.push(StoredSpan {
            name,
            tid: ctx.tid,
            args_end,
            start,
            dur,
            span_id: ctx.span_id,
            parent_id: ctx.parent_id,
            trace_id: ctx.trace_id,
        });
    }

    /// Interns `name` and `cat` for per-op use with [`Registry::end_named`],
    /// [`Registry::end_named_with`] and [`Registry::child_named`].
    pub fn span_name(&self, name: &str, cat: &str) -> SpanName {
        let mut log = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        log.names.span_name(name, cat)
    }

    /// Records the completed span for `ctx` under a pre-resolved name:
    /// one `Vec` push when retained, one increment when dropped.
    pub fn end_named(&self, ctx: TraceCtx, name: SpanName, start: Nanos, dur: Nanos) {
        self.push_span(ctx, start, dur, |_| name, |_| {});
    }

    /// [`Registry::end_named`] with one extra arg. `value` is formatted
    /// straight into the span log's arena, and only if the span is
    /// retained: a `&str` or a number costs no allocation either way.
    pub fn end_named_with(
        &self,
        ctx: TraceCtx,
        name: SpanName,
        start: Nanos,
        dur: Nanos,
        key: &str,
        value: impl std::fmt::Display,
    ) {
        self.push_span(ctx, start, dur, |_| name, |log| log.push_arg(key, value));
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

    /// Records the completed span for `ctx`.
    pub fn end_span(&self, ctx: TraceCtx, name: &str, cat: &str, start: Nanos, dur: Nanos) {
        self.push_span(ctx, start, dur, |n| n.span_name(name, cat), |_| {});
    }

    /// Records the completed span for `ctx` with extra args.
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
    /// span in one shot; returns the child's context for grandchildren.
    pub fn child_span(
        &self,
        parent: TraceCtx,
        name: &str,
        cat: &str,
        start: Nanos,
        dur: Nanos,
    ) -> TraceCtx {
        let ctx = self.trace_child(parent);
        self.end_span(ctx, name, cat, start, dur);
        ctx
    }

    /// The [`Mechanism`] handle for the mechanism spelled `name`.
    pub fn mechanism(&self, name: &str) -> Mechanism {
        let mut m = self.mechanisms.lock().unwrap_or_else(|p| p.into_inner());
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

    /// Current value of counter `name`, if it exists.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let m = self.counters.lock().unwrap_or_else(|p| p.into_inner());
        m.get(name).map(Counter::get)
    }

    /// Current value of gauge `name`, if it exists.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        let m = self.gauges.lock().unwrap_or_else(|p| p.into_inner());
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

    /// Records a standalone span without extra args. The span becomes a
    /// single-span trace: it gets a fresh root context, so legacy call
    /// sites still produce identified (if childless) traces.
    pub fn span(&self, name: &str, cat: &str, tid: u32, start: Nanos, dur: Nanos) {
        let ctx = self.trace_root(tid);
        self.end_span(ctx, name, cat, start, dur);
    }

    /// Number of retained spans.
    pub fn span_count(&self) -> usize {
        let log = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        log.spans.len()
    }

    /// Number of spans dropped after the capacity filled.
    pub fn spans_dropped(&self) -> u64 {
        let log = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        log.dropped
    }

    /// A copy of the retained spans, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        let log = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        (0..log.spans.len()).map(|i| log.to_span(i)).collect()
    }

    /// Whether any retained span carries `name`.
    pub fn has_span(&self, name: &str) -> bool {
        let log = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        match log.names.ids.get(name) {
            Some(&id) => log.spans.iter().any(|s| s.name.name == id),
            None => false,
        }
    }

    /// The span-retention capacity this registry was built with.
    pub fn span_capacity(&self) -> usize {
        let log = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        log.capacity
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
    pub fn merge_from(&self, other: &Registry) {
        {
            let src = other.counters.lock().unwrap_or_else(|p| p.into_inner());
            for (name, c) in src.iter() {
                let v = c.get();
                if v > 0 {
                    self.counter(name).add(v);
                }
            }
        }
        {
            let src = other.gauges.lock().unwrap_or_else(|p| p.into_inner());
            for (name, g) in src.iter() {
                self.gauge(name).set(g.get());
            }
        }
        {
            let src = other.histograms.lock().unwrap_or_else(|p| p.into_inner());
            for (name, h) in src.iter() {
                self.histogram(name).merge_from(h);
            }
        }
        let offset = self.next_span_id.load(Ordering::Relaxed);
        let rebase = |id: u64| if id == 0 { 0 } else { id + offset };
        {
            let src = other.spans.lock().unwrap_or_else(|p| p.into_inner());
            let mut dst = self.spans.lock().unwrap_or_else(|p| p.into_inner());
            let dst = &mut *dst;
            let room = dst.capacity.saturating_sub(dst.spans.len());
            let keep = src.spans.len().min(room);
            dst.spans.reserve(keep);
            // Source string id → destination id, resolved on first use.
            let mut ids: Vec<Option<u32>> = vec![None; src.names.strings.len()];
            let names = &mut dst.names;
            let mut map = |id: u32| {
                *ids[id as usize]
                    .get_or_insert_with(|| names.intern(&src.names.strings[id as usize]))
            };
            // The kept spans' args are a prefix of the source's side table
            // and their values a prefix of its arena: both are copied whole
            // and shifted past what the destination already holds.
            let kept_args = src.spans[..keep].last().map_or(0, |s| s.args_end as usize);
            let kept_values = src.args[..kept_args].last().map_or(0, |a| a.value_end);
            let (arg_base, value_base) = (dst.args.len(), dst.arg_values.len());
            let arg_shift = u32::try_from(arg_base).expect("a span log holds fewer than 2^32 args");
            dst.arg_values.push_str(&src.arg_values[..kept_values]);
            dst.args
                .extend(src.args[..kept_args].iter().map(|a| StoredArg {
                    key: map(a.key),
                    value_end: value_base + a.value_end,
                }));
            dst.spans
                .extend(src.spans[..keep].iter().map(|s| StoredSpan {
                    name: SpanName {
                        name: map(s.name.name),
                        cat: map(s.name.cat),
                    },
                    args_end: arg_shift + s.args_end,
                    span_id: rebase(s.span_id),
                    parent_id: rebase(s.parent_id),
                    trace_id: rebase(s.trace_id),
                    ..*s
                }));
            dst.dropped += (src.spans.len() - keep) as u64 + src.dropped;
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
        let log = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = String::with_capacity(64 + log.spans.len() * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first_event = true;
        for s in &tl.series {
            for p in &s.points {
                if !first_event {
                    out.push(',');
                }
                first_event = false;
                out.push_str("{\"name\":\"");
                out.push_str(&escape_json(&s.name));
                out.push_str("\",\"ph\":\"C\",\"ts\":");
                push_micros(&mut out, p.t_ns);
                out.push_str(",\"pid\":1,\"tid\":0,\"args\":{\"value\":");
                push_f64(&mut out, p.stat.plot_value());
                out.push_str("}}");
            }
        }
        for (i, s) in log.spans.iter().enumerate() {
            if !first_event {
                out.push(',');
            }
            first_event = false;
            let (name, cat) = log.name_of(s);
            out.push_str("{\"name\":\"");
            out.push_str(&escape_json(name));
            out.push_str("\",\"cat\":\"");
            out.push_str(&escape_json(cat));
            out.push_str("\",\"ph\":\"X\",\"ts\":");
            push_micros(&mut out, s.start.0);
            out.push_str(",\"dur\":");
            push_micros(&mut out, s.dur.0);
            out.push_str(",\"pid\":1,\"tid\":");
            out.push_str(&s.tid.to_string());
            // Identified spans (span_id != 0) carry their trace identity in
            // `args` so parent nesting survives the Chrome trace format.
            let has_ids = s.span_id != 0;
            let mut args = log.args_of(i).peekable();
            if has_ids || args.peek().is_some() {
                out.push_str(",\"args\":{");
                let mut first = true;
                if has_ids {
                    out.push_str("\"span_id\":\"");
                    out.push_str(&s.span_id.to_string());
                    out.push_str("\",\"parent_id\":\"");
                    out.push_str(&s.parent_id.to_string());
                    out.push_str("\",\"trace_id\":\"");
                    out.push_str(&s.trace_id.to_string());
                    out.push('"');
                    first = false;
                }
                for (k, v) in args {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    out.push('"');
                    out.push_str(&escape_json(k));
                    out.push_str("\":\"");
                    out.push_str(&escape_json(v));
                    out.push('"');
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}");
        out
    }

    /// Serializes every metric as one JSON document: counters and gauges
    /// as flat name→value maps, histograms with count/sum/min/max and
    /// interpolated p50/p95/p99, plus the span-log accounting.
    pub fn metrics_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        {
            // Snapshot real counters, then merge the span-log accounting in
            // as synthetic `obs.*` counters so truncation is never silent.
            let mut vals: BTreeMap<String, u64> = {
                let m = self.counters.lock().unwrap_or_else(|p| p.into_inner());
                m.iter().map(|(k, c)| (k.clone(), c.get())).collect()
            };
            {
                let log = self.spans.lock().unwrap_or_else(|p| p.into_inner());
                vals.insert("obs.spans_dropped".to_string(), log.dropped);
                vals.insert("obs.spans_recorded".to_string(), log.spans.len() as u64);
            }
            vals.insert(
                "obs.timeline.windows_dropped".to_string(),
                self.timeline.dropped(),
            );
            vals.insert(
                "obs.timeline.windows_recorded".to_string(),
                self.timeline.windows_recorded(),
            );
            for (i, (name, v)) in vals.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("\n    \"");
                out.push_str(&escape_json(name));
                out.push_str("\": ");
                out.push_str(&v.to_string());
            }
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        {
            let m = self.gauges.lock().unwrap_or_else(|p| p.into_inner());
            for (i, (name, g)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("\n    \"");
                out.push_str(&escape_json(name));
                out.push_str("\": ");
                push_f64(&mut out, g.get());
            }
            if !m.is_empty() {
                out.push_str("\n  ");
            }
        }
        out.push_str("},\n  \"histograms\": {");
        {
            let m = self.histograms.lock().unwrap_or_else(|p| p.into_inner());
            for (i, (name, h)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("\n    \"");
                out.push_str(&escape_json(name));
                out.push_str("\": {\"count\": ");
                out.push_str(&h.count().to_string());
                out.push_str(", \"sum\": ");
                out.push_str(&h.sum().to_string());
                out.push_str(", \"min\": ");
                out.push_str(&h.min().to_string());
                out.push_str(", \"max\": ");
                out.push_str(&h.max().to_string());
                out.push_str(", \"p50\": ");
                push_f64(&mut out, h.p50());
                out.push_str(", \"p95\": ");
                push_f64(&mut out, h.p95());
                out.push_str(", \"p99\": ");
                push_f64(&mut out, h.p99());
                out.push('}');
            }
            if !m.is_empty() {
                out.push_str("\n  ");
            }
        }
        out.push_str("},\n  \"spans\": {\"recorded\": ");
        {
            let log = self.spans.lock().unwrap_or_else(|p| p.into_inner());
            out.push_str(&log.spans.len().to_string());
            out.push_str(", \"dropped\": ");
            out.push_str(&log.dropped.to_string());
        }
        out.push_str("}\n}\n");
        out
    }
}

/// The metric cell registered under `name`, created on first sight. Looks
/// up by `&str` first so a repeat lookup does not allocate the key.
fn get_or_default<T: Default + Clone>(map: &Mutex<BTreeMap<String, T>>, name: &str) -> T {
    let mut m = map.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(cell) = m.get(name) {
        return cell.clone();
    }
    m.entry(name.to_string()).or_default().clone()
}

/// Observes one executed mechanism (any of the paper's Figure 4 seven):
/// bumps `core.mechanism.<name>.runs`, records the duration into
/// `core.mechanism.<name>.ns`, and emits a `mechanism`-category span.
///
/// Lives here (keyed by the mechanism's DSL spelling) so layers below
/// `cudele` core — the MDS observing Stream, the bench world observing
/// RPCs and Append Client Journal — can report executions without a
/// dependency cycle.
pub fn observe_mechanism(reg: &Registry, name: &str, tid: u32, start: Nanos, dur: Nanos) {
    let ctx = reg.trace_root(tid);
    observe_mechanism_at(reg, name, ctx, start, dur);
}

/// [`observe_mechanism`] with an explicit, pre-allocated trace context, so
/// the mechanism span lands inside a request's trace tree instead of
/// opening a trace of its own. `ctx` should be a child context derived
/// from the client op's root (see [`Registry::trace_child`]).
pub fn observe_mechanism_at(reg: &Registry, name: &str, ctx: TraceCtx, start: Nanos, dur: Nanos) {
    reg.mechanism(name).observe(reg, ctx, start, dur);
}

/// Escapes a string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders `ns` nanoseconds as fractional microseconds (`123.456`),
/// digit-exact and locale-free — the trace's `ts`/`dur` unit.
fn push_micros(out: &mut String, ns: u64) {
    out.push_str(&format!("{}.{:03}", ns / 1000, ns % 1000));
}

/// Renders an `f64` deterministically; non-finite values become `null`
/// (JSON has no NaN/Infinity).
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's shortest-roundtrip formatting is deterministic.
        let s = format!("{v}");
        out.push_str(&s);
        if !s.contains('.') && !s.contains('e') {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
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

    #[test]
    fn histogram_handles_zero_and_huge() {
        let h = Histogram::default();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX); // saturating
    }

    /// The span log is torn down with a handful of frees: a stored span
    /// owns nothing, and fits in 56 bytes (it was 80 while it owned a
    /// `Vec` of args).
    #[test]
    fn stored_span_is_plain_data() {
        assert!(!std::mem::needs_drop::<StoredSpan>());
        assert!(std::mem::size_of::<StoredSpan>() <= 56);
        assert!(!std::mem::needs_drop::<HistoryEvent<usize>>());
    }

    #[test]
    fn span_capacity_drops_deterministically() {
        let reg = Registry::with_span_capacity(2);
        for i in 0..5u64 {
            reg.span(&format!("s{i}"), "t", 0, Nanos(i), Nanos(1));
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
                reg.span("op", "rpc", (i % 4) as u32, Nanos(i * 10), Nanos(7));
            }
            reg.gauge("util").set(0.123_456_789);
            (reg.metrics_json(), reg.chrome_trace_json())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn observe_mechanism_emits_all_three() {
        let reg = Registry::new();
        observe_mechanism(&reg, "local_persist", 2, Nanos(10), Nanos(500));
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
        reg.end_span(root, "create", "client_op", Nanos(0), Nanos(20));
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
        reg.span("a", "t", 0, Nanos(0), Nanos(1));
        reg.span("b", "t", 0, Nanos(1), Nanos(1));
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
            reg.end_span(root, "op", "t", Nanos(0), Nanos(5));
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
            reg.end_span(root, "create", "client_op", Nanos(0), Nanos(5));
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
        src.span("a", "t", 0, Nanos(0), Nanos(1));
        src.span("b", "t", 0, Nanos(1), Nanos(1));
        target.merge_from(&src);
        assert_eq!(target.span_count(), 1);
        assert_eq!(target.spans_dropped(), 1);
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
