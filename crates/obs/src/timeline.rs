//! Virtual-clock telemetry timelines: fixed-width tumbling windows over
//! the run's virtual time, sampling counters as per-window rates, gauges
//! as last-value, and latency distributions as per-window log-bucket
//! percentiles.
//!
//! A window stores only what its point reports: a rate window its event
//! count, a gauge window its last value, and a latency window its count
//! plus, beside the windows, the crate's one log-bucket sketch (the same
//! one behind [`crate::Histogram`]) and the worst sample's `trace_id`. No
//! window keeps a sum, and the worst sample is the sketch's `max`.
//!
//! Whole-run aggregates (the `Registry` counters/histograms) hide
//! transients: a run that collapses for 10% of virtual time and recovers
//! is indistinguishable from a uniformly mediocre one. The timeline keeps
//! the time axis. Every sample is stamped with the recorder's virtual
//! clock, so the output is a pure function of the simulated schedule —
//! byte-identical across same-seed reruns and across `--threads 1` vs N
//! (window merge rides [`crate::Registry::merge_from`] in input order,
//! exactly like spans and histories).
//!
//! # Determinism contract
//!
//! * Windows are tumbling: sample at virtual time `t` lands in window
//!   `t / window_ns`. No wall clock anywhere.
//! * Allocation is bounded: at most [`DEFAULT_MAX_WINDOWS`] distinct
//!   windows per series and [`DEFAULT_MAX_ANNOTATIONS`] annotations are
//!   retained; beyond that, *new* windows are dropped first-come-kept
//!   (insertion order decides who survives, mirroring the span log) and
//!   the drops are counted — never silent.
//! * Merging per-task timelines in input order reproduces serial
//!   recording exactly: per-window counts add, gauge last-values are
//!   last-write-wins in merge order, latency sketches merge (the same
//!   fold [`crate::Histogram::merge_from`] uses), and the worst sample's
//!   `trace_id` is rebased by the same span-id offset the span log uses.
//!
//! Serialization is the schema-versioned [`SCHEMA`] (`cudele-timeline/v1`)
//! JSON document; [`TimelineSnapshot::parse`] reads it back for the
//! `cudele-bench timeline` explorer and for tests.

use std::collections::BTreeMap;
use std::sync::Arc;

use cudele_sim::{IntMap, Nanos};

use crate::json::Layout::{Inline, Pretty};
use crate::json::{self, Writer};
use crate::lock::Lock;
use crate::slo::SloOutcome;
use crate::Sketch;

/// Schema tag stamped into every serialized timeline.
pub const SCHEMA: &str = "cudele-timeline/v1";

/// Default tumbling-window width: 5ms of virtual time. Wide enough that a
/// full mdbench workload stays under the window cap, narrow enough that a
/// failover transient (15ms beacon grace) spans several windows.
pub const DEFAULT_WINDOW: Nanos = Nanos(5 * Nanos::MILLI.0);

/// Distinct windows retained per series; later new windows are dropped
/// (and counted) once a series holds this many.
pub const DEFAULT_MAX_WINDOWS: usize = 4096;

/// Annotations retained per timeline.
pub const DEFAULT_MAX_ANNOTATIONS: usize = 1024;

/// What a series measures; fixed at first use of the name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Monotonic event counts; exported as count and per-second rate.
    Rate,
    /// Instantaneous level; exported as the window's last recorded value.
    Gauge,
    /// Value distribution (typically nanoseconds); exported as per-window
    /// p50/p95/p99 plus the worst sample and its `trace_id`.
    Latency,
}

impl SeriesKind {
    fn tag(self) -> &'static str {
        match self {
            SeriesKind::Rate => "rate",
            SeriesKind::Gauge => "gauge",
            SeriesKind::Latency => "latency",
        }
    }
}

/// Per-window aggregate: only what a snapshot reports. A rate or latency
/// window reads `count`, a gauge window `last_bits`; a latency window's
/// sketch lives beside it, in [`SeriesData::latency`].
#[derive(Debug)]
struct Window {
    count: u64,
    /// Gauge last-value, as `f64` bits (write order decides).
    last_bits: u64,
}

impl Window {
    fn new() -> Window {
        Window {
            count: 0,
            last_bits: 0f64.to_bits(),
        }
    }
}

/// One series slot: windows in *insertion* order (the canonical order, so
/// merge reproduces serial drop decisions exactly; export sorts by window
/// index) plus an index from window number to position, which makes a
/// hit, a new window and an at-capacity drop all O(1). Consecutive samples
/// almost always share a window, so the last one found is remembered and
/// a repeat skips the index altogether.
///
/// A slot exists from the moment its name is first resolved but is
/// *materialised* — shows up in snapshots, counts as recorded data — only
/// once it holds a window.
#[derive(Debug)]
struct SeriesData {
    /// Fixed by the first record that lands; meaningless while `windows`
    /// is empty.
    kind: SeriesKind,
    windows: Vec<(u64, Window)>,
    /// A latency series' samples per window, by window position (empty
    /// for the other kinds): the sketch, and the `trace_id` of the
    /// window's worst sample — the first occurrence of `max`, so
    /// recording order, not merge shape, decides ties. An inline sketch
    /// keeps opening a window free of allocation.
    latency: Vec<(Sketch, u64)>,
    /// Window indices are small numbers this code computes from the virtual
    /// clock, so the index hashes them with the integer mixer.
    index: IntMap<u64, u32>,
    /// `(window number, position)` of the window last returned.
    last: Option<(u64, u32)>,
}

impl SeriesData {
    /// The position of the window numbered `idx`, appended fresh (with a
    /// fresh sketch in a latency series) if the series has room for one
    /// more; `None` when it is at `cap` (first come, first kept).
    fn position(&mut self, idx: u64, cap: usize) -> Option<usize> {
        let pos = match self.last {
            Some((last, p)) if last == idx => p,
            _ => match self.index.get(&idx) {
                Some(&p) => p,
                None if self.windows.len() < cap => {
                    let p = self.windows.len() as u32;
                    self.index.insert(idx, p);
                    self.windows.push((idx, Window::new()));
                    if self.kind == SeriesKind::Latency {
                        self.latency.push((Sketch::EMPTY, 0));
                    }
                    p
                }
                None => return None,
            },
        };
        self.last = Some((idx, pos));
        Some(pos as usize)
    }
}

/// A point-in-time marker (crash, detection, takeover, checkpoint
/// publication) rendered alongside the series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Annotation {
    /// Event kind, e.g. `mds.crash` or `mds.failover.takeover`.
    pub name: String,
    /// Virtual time of the event.
    pub at: Nanos,
    /// Free-form human-readable detail.
    pub detail: String,
}

#[derive(Debug)]
struct TimelineData {
    window: u64,
    max_windows: usize,
    max_annotations: usize,
    /// Series name → slot in `series`; sorted, so export order is by name.
    slots: BTreeMap<String, u32>,
    series: Vec<SeriesData>,
    annotations: Vec<Annotation>,
    windows_dropped: u64,
    annotations_dropped: u64,
}

impl TimelineData {
    fn is_empty(&self) -> bool {
        self.series.iter().all(|s| s.windows.is_empty()) && self.annotations.is_empty()
    }

    /// The slot for `name`, allocated (empty, unmaterialised) on first
    /// sight. A hit does not allocate.
    fn slot(&mut self, name: &str) -> u32 {
        if let Some(&slot) = self.slots.get(name) {
            return slot;
        }
        let slot = self.series.len() as u32;
        self.series.push(SeriesData {
            kind: SeriesKind::Rate,
            windows: Vec::new(),
            latency: Vec::new(),
            index: IntMap::default(),
            last: None,
        });
        self.slots.insert(name.to_string(), slot);
        slot
    }

    /// Lands one sample of `kind` at virtual time `t` in series `slot`.
    ///
    /// `lost` is what `windows_dropped` grows by when the sample cannot
    /// land (series at capacity): the number of underlying events, so a
    /// capacity drop counts identically whether it happens at record time
    /// (serial) or at merge time, where a whole window's `count` drops at
    /// once.
    fn record(
        &mut self,
        slot: u32,
        kind: SeriesKind,
        t: Nanos,
        lost: u64,
        f: impl FnOnce(&mut Window, Option<&mut (Sketch, u64)>),
    ) {
        let idx = t.0 / self.window;
        let series = &mut self.series[slot as usize];
        if series.windows.is_empty() {
            series.kind = kind;
        } else if series.kind != kind {
            // A name's kind is fixed at first use; a mismatched later call
            // is a programming error — drop it deterministically rather
            // than corrupt the series.
            debug_assert!(false, "timeline series kind mismatch");
            return;
        }
        match series.position(idx, self.max_windows) {
            Some(p) => f(&mut series.windows[p].1, series.latency.get_mut(p)),
            None => self.windows_dropped += lost,
        }
    }

    fn add(&mut self, slot: u32, t: Nanos, n: u64) {
        self.record(slot, SeriesKind::Rate, t, n, |w, _| w.count += n);
    }

    fn set(&mut self, slot: u32, t: Nanos, v: f64) {
        self.record(slot, SeriesKind::Gauge, t, 1, |w, _| {
            w.count += 1;
            w.last_bits = v.to_bits();
        });
    }

    fn sample(&mut self, slot: u32, t: Nanos, v: u64, trace_id: u64) {
        self.record(slot, SeriesKind::Latency, t, 1, |w, latency| {
            let (sketch, worst_trace) = latency.expect("a latency window has a sketch");
            if v > sketch.max || sketch.count == 0 {
                *worst_trace = trace_id;
            }
            sketch.record(v);
            w.count += 1;
        });
    }
}

/// A series resolved once: recording through it skips the name lookup, so
/// a sample is one lock, one hash probe and (on a hit) one window update —
/// no allocation. Cloning shares the timeline.
///
/// Resolving a handle leaves no trace: the series appears in snapshots,
/// and starts to block [`Timeline::configure`], only once a sample lands.
/// The series' kind is fixed by that first sample, exactly as for the
/// name-keyed methods, which address the same slots.
#[derive(Debug, Clone)]
pub struct Series {
    tl: Timeline,
    slot: u32,
}

impl Series {
    /// [`Timeline::add`] without the name lookup.
    pub fn add(&self, t: Nanos, n: u64) {
        self.tl.0.lock().add(self.slot, t, n);
    }

    /// [`Timeline::gauge_at`] without the name lookup.
    pub fn set(&self, t: Nanos, v: f64) {
        self.tl.0.lock().set(self.slot, t, v);
    }

    /// [`Timeline::sample_traced`] without the name lookup (`trace_id` 0
    /// = no trace identity).
    pub fn sample(&self, t: Nanos, v: u64, trace_id: u64) {
        self.tl.0.lock().sample(self.slot, t, v, trace_id);
    }
}

/// Cloneable handle onto one registry's timeline; clones share state, so
/// layers can keep recording after they stop borrowing the registry.
#[derive(Debug, Clone)]
pub struct Timeline(Arc<Lock<TimelineData>>);

impl Default for Timeline {
    fn default() -> Timeline {
        Timeline(Arc::new(Lock::new(TimelineData {
            window: DEFAULT_WINDOW.0,
            max_windows: DEFAULT_MAX_WINDOWS,
            max_annotations: DEFAULT_MAX_ANNOTATIONS,
            slots: BTreeMap::new(),
            series: Vec::new(),
            annotations: Vec::new(),
            windows_dropped: 0,
            annotations_dropped: 0,
        })))
    }
}

impl Timeline {
    /// Reconfigures window width and per-series cap. Only honored while
    /// the timeline is still empty — a mid-run reconfiguration would
    /// shear already-recorded windows, so it is ignored (deterministic).
    pub fn configure(&self, window: Nanos, max_windows: usize) {
        let mut d = self.0.lock();
        if d.is_empty() && window.0 > 0 && max_windows > 0 {
            d.window = window.0;
            d.max_windows = max_windows;
        }
    }

    /// The configured tumbling-window width.
    pub fn window(&self) -> Nanos {
        Nanos(self.0.lock().window)
    }

    /// Resolves `name` to a [`Series`] handle for per-op recording.
    pub fn series(&self, name: &str) -> Series {
        let slot = self.0.lock().slot(name);
        Series {
            tl: self.clone(),
            slot,
        }
    }

    /// Adds `n` events at virtual time `t` to the [`SeriesKind::Rate`]
    /// series `name`.
    pub fn add(&self, name: &str, t: Nanos, n: u64) {
        let mut d = self.0.lock();
        let slot = d.slot(name);
        d.add(slot, t, n);
    }

    /// Sets the [`SeriesKind::Gauge`] series `name` to `v` at virtual
    /// time `t` (last write in a window wins).
    pub fn gauge_at(&self, name: &str, t: Nanos, v: f64) {
        let mut d = self.0.lock();
        let slot = d.slot(name);
        d.set(slot, t, v);
    }

    /// Records one [`SeriesKind::Latency`] sample with no trace identity.
    pub fn sample(&self, name: &str, t: Nanos, v: u64) {
        self.sample_traced(name, t, v, 0);
    }

    /// Records one [`SeriesKind::Latency`] sample at virtual time `t`,
    /// remembering the window's worst sample and its `trace_id` (first
    /// occurrence of the maximum wins) so SLO alerts can link straight
    /// into the critical-path profiler.
    pub fn sample_traced(&self, name: &str, t: Nanos, v: u64, trace_id: u64) {
        let mut d = self.0.lock();
        let slot = d.slot(name);
        d.sample(slot, t, v, trace_id);
    }

    /// Records a point-in-time marker.
    pub fn annotate(&self, name: &str, at: Nanos, detail: &str) {
        let mut d = self.0.lock();
        if d.annotations.len() < d.max_annotations {
            d.annotations.push(Annotation {
                name: name.to_string(),
                at,
                detail: detail.to_string(),
            });
        } else {
            d.annotations_dropped += 1;
        }
    }

    /// Total dropped samples + annotations — the truncation signal the
    /// regress comparator hard-fails on. Counted in underlying events,
    /// so serial recording and in-order merge agree exactly.
    pub fn dropped(&self) -> u64 {
        let d = self.0.lock();
        d.windows_dropped + d.annotations_dropped
    }

    /// Distinct retained windows across all series.
    pub fn windows_recorded(&self) -> u64 {
        let d = self.0.lock();
        d.series.iter().map(|s| s.windows.len() as u64).sum()
    }

    /// Folds `other` into `self`, rebasing worst-sample trace ids by
    /// `trace_offset` (the span-id offset [`crate::Registry::merge_from`]
    /// computed before appending the source's spans). Windows from
    /// `other` are visited in its insertion order, so capacity drops
    /// happen exactly where a serial recording would have dropped them.
    ///
    /// Serial equivalence requires that no *source* timeline overflowed
    /// its own window budget: a task-local drop loses samples the merge
    /// cannot resurrect, including samples a serial recording would have
    /// folded into a window some earlier task created. Sources that did
    /// drop carry the loss in `windows_dropped`, which propagates here.
    pub(crate) fn merge_from(&self, other: &Timeline, trace_offset: u64) {
        let src = other.0.lock();
        let mut dst = self.0.lock();
        let dst = &mut *dst;
        for (name, &src_slot) in src.slots.iter() {
            let s = &src.series[src_slot as usize];
            if s.windows.is_empty() {
                continue;
            }
            let slot = dst.slot(name);
            let into = &mut dst.series[slot as usize];
            if into.windows.is_empty() {
                into.kind = s.kind;
            } else if into.kind != s.kind {
                debug_assert!(false, "timeline series {name:?} kind mismatch on merge");
                continue;
            }
            for (p, (idx, w)) in s.windows.iter().enumerate() {
                let Some(q) = into.position(*idx, dst.max_windows) else {
                    // The whole window fails to land: count every event
                    // it carried, matching what a serial recording would
                    // have counted dropping them one call at a time.
                    dst.windows_dropped += w.count;
                    continue;
                };
                let d = &mut into.windows[q].1;
                if w.count > 0 {
                    // Serial order is self's records then other's, so
                    // other's last gauge write wins.
                    d.last_bits = w.last_bits;
                }
                d.count += w.count;
                if let Some((sketch, trace)) = s.latency.get(p) {
                    let trace = if *trace == 0 { 0 } else { trace + trace_offset };
                    let (into, worst_trace) = &mut into.latency[q];
                    // A window this merge just created takes other's trace
                    // outright; otherwise strictly-greater keeps the first
                    // occurrence of the maximum, which in serial order is
                    // self's.
                    if into.count == 0 || sketch.max > into.max {
                        *worst_trace = trace;
                    }
                    into.merge(sketch);
                }
            }
        }
        dst.windows_dropped += src.windows_dropped;
        let room = dst.max_annotations.saturating_sub(dst.annotations.len());
        if src.annotations.len() > room {
            dst.annotations_dropped += (src.annotations.len() - room) as u64;
        }
        let take = src.annotations.len().min(room);
        dst.annotations
            .extend(src.annotations.iter().take(take).cloned());
        dst.annotations_dropped += src.annotations_dropped;
    }

    /// A plain-data snapshot (windows sorted by index, series by name)
    /// ready for SLO evaluation and serialization.
    pub fn snapshot(&self) -> TimelineSnapshot {
        let d = self.0.lock();
        let mut series: Vec<SeriesSnap> = Vec::with_capacity(d.series.len());
        for (name, s) in d
            .slots
            .iter()
            .map(|(n, &slot)| (n, &d.series[slot as usize]))
        {
            if s.windows.is_empty() {
                continue;
            }
            let mut points: Vec<Point> = s
                .windows
                .iter()
                .enumerate()
                .map(|(p, (idx, w))| Point {
                    window: *idx,
                    t_ns: idx * d.window,
                    stat: match s.kind {
                        SeriesKind::Rate => PointStat::Rate {
                            count: w.count,
                            per_s: w.count as f64 * 1e9 / d.window as f64,
                        },
                        SeriesKind::Gauge => PointStat::Gauge {
                            last: f64::from_bits(w.last_bits),
                        },
                        SeriesKind::Latency => {
                            let (s, worst_trace) = &s.latency[p];
                            PointStat::Latency {
                                count: w.count,
                                p50: s.percentile(50.0),
                                p95: s.percentile(95.0),
                                p99: s.percentile(99.0),
                                max: s.max,
                                worst_trace_id: *worst_trace,
                            }
                        }
                    },
                })
                .collect();
            points.sort_by_key(|p| p.window);
            series.push(SeriesSnap {
                name: name.clone(),
                kind: s.kind,
                points,
            });
        }
        TimelineSnapshot {
            window_ns: d.window,
            series,
            annotations: d.annotations.clone(),
            windows_dropped: d.windows_dropped,
            annotations_dropped: d.annotations_dropped,
            slos: Vec::new(),
        }
    }
}

/// Per-window exported statistic, by series kind.
#[derive(Debug, Clone, PartialEq)]
pub enum PointStat {
    /// Counter increments in the window, normalized to events per second.
    Rate {
        /// Total increments observed in this window.
        count: u64,
        /// `count` scaled by the window width.
        per_s: f64,
    },
    /// Last value written to the gauge within the window.
    Gauge {
        /// Final sampled value.
        last: f64,
    },
    /// Percentiles of latency samples recorded in the window.
    Latency {
        /// Number of samples in this window.
        count: u64,
        /// Median latency estimate, ns.
        p50: f64,
        /// 95th-percentile latency estimate, ns.
        p95: f64,
        /// 99th-percentile latency estimate, ns.
        p99: f64,
        /// Exact maximum sample, ns.
        max: u64,
        /// Trace id attached to the first occurrence of the max sample.
        worst_trace_id: u64,
    },
}

impl PointStat {
    /// The scalar a sparkline or Chrome counter track plots: rate per
    /// second, gauge last-value, or latency p99.
    pub fn plot_value(&self) -> f64 {
        match self {
            PointStat::Rate { per_s, .. } => *per_s,
            PointStat::Gauge { last } => *last,
            PointStat::Latency { p99, .. } => *p99,
        }
    }
}

/// One exported window of one series.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Window index (`t / window_ns`).
    pub window: u64,
    /// Window start time, ns.
    pub t_ns: u64,
    /// The aggregated statistic for this window.
    pub stat: PointStat,
}

/// One exported series.
#[derive(Debug, Clone)]
pub struct SeriesSnap {
    /// Series name, e.g. `mds.rpc.served`.
    pub name: String,
    /// How samples were aggregated.
    pub kind: SeriesKind,
    /// Non-empty windows, sorted by window index.
    pub points: Vec<Point>,
}

impl SeriesSnap {
    /// The point for window `w`, if recorded. Binary search: `points` is
    /// sorted by window (snapshots are built sorted; [`TimelineSnapshot::parse`]
    /// sorts what it reads).
    pub fn point(&self, w: u64) -> Option<&Point> {
        let i = self.points.partition_point(|p| p.window < w);
        self.points.get(i).filter(|p| p.window == w)
    }
}

/// The plain-data form of a timeline: what `cudele-timeline/v1` carries.
#[derive(Debug, Clone)]
pub struct TimelineSnapshot {
    /// Tumbling-window width, ns.
    pub window_ns: u64,
    /// All series, sorted by name.
    pub series: Vec<SeriesSnap>,
    /// Point-in-time markers, in recording order.
    pub annotations: Vec<Annotation>,
    /// Samples discarded because a series hit its window capacity.
    pub windows_dropped: u64,
    /// Markers discarded because the annotation capacity was hit.
    pub annotations_dropped: u64,
    /// Evaluated SLO outcomes (filled by [`crate::slo::evaluate`] before
    /// serialization; empty when no objectives were declared).
    pub slos: Vec<SloOutcome>,
}

impl TimelineSnapshot {
    /// The series named `name`, if present.
    pub fn series(&self, name: &str) -> Option<&SeriesSnap> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Smallest and largest window index across all series, if any
    /// series has points.
    pub fn window_span(&self) -> Option<(u64, u64)> {
        let mut span: Option<(u64, u64)> = None;
        for s in &self.series {
            for p in &s.points {
                span = Some(match span {
                    None => (p.window, p.window),
                    Some((lo, hi)) => (lo.min(p.window), hi.max(p.window)),
                });
            }
        }
        span
    }

    /// Serializes as a `cudele-timeline/v1` document. Deterministic:
    /// series sorted by name, points by window, map keys fixed.
    pub fn to_json(&self) -> String {
        let mut w = Writer::with_capacity(4096);
        w.obj(Pretty).key("schema").str(SCHEMA);
        w.key("window_ns").u64(self.window_ns);
        w.key("windows_dropped").u64(self.windows_dropped);
        w.key("annotations_dropped").u64(self.annotations_dropped);
        w.key("series").arr(Pretty);
        for s in &self.series {
            w.obj(Inline).key("name").str(&s.name);
            w.key("kind").str(s.kind.tag()).key("points").arr(Inline);
            for p in &s.points {
                w.obj(Inline).key("w").u64(p.window).key("t_ns").u64(p.t_ns);
                match p.stat {
                    PointStat::Rate { count, per_s } => {
                        w.key("count").u64(count).key("per_s").f64(per_s);
                    }
                    PointStat::Gauge { last } => {
                        w.key("last").f64(last);
                    }
                    PointStat::Latency {
                        count,
                        p50,
                        p95,
                        p99,
                        max,
                        worst_trace_id,
                    } => {
                        w.key("count").u64(count).key("p50").f64(p50);
                        w.key("p95").f64(p95).key("p99").f64(p99);
                        w.key("max").u64(max);
                        w.key("worst_trace_id").u64(worst_trace_id);
                    }
                }
                w.close();
            }
            w.close().close();
        }
        w.close().key("annotations").arr(Pretty);
        for a in &self.annotations {
            w.obj(Inline).key("name").str(&a.name);
            w.key("t_ns").u64(a.at.0);
            w.key("detail").str(&a.detail).close();
        }
        w.close().key("slos").arr(Pretty);
        for o in &self.slos {
            w.obj(Inline).key("spec").str(&o.spec);
            w.key("windows").u64(o.windows).key("bad").u64(o.bad);
            w.key("compliance").f64(o.compliance).key("met").bool(o.met);
            w.key("alerts").arr(Inline);
            for a in &o.alerts {
                w.obj(Inline).key("w").u64(a.window).key("t_ns").u64(a.t_ns);
                w.key("burn_short").f64(a.burn_short);
                w.key("burn_long").f64(a.burn_long);
                w.key("value").f64(a.value);
                w.key("worst_trace_id").u64(a.worst_trace_id).close();
            }
            w.close().close();
        }
        w.close().close();
        w.finish()
    }

    /// Parses a `cudele-timeline/v1` document (the explorer's and the
    /// tests' read path).
    pub fn parse(s: &str) -> Result<TimelineSnapshot, String> {
        let v = json::parse(s)?;
        let schema = v
            .get("schema")
            .and_then(|s| s.as_str())
            .ok_or("missing schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema {schema:?} (want {SCHEMA})"));
        }
        let window_ns = v
            .get("window_ns")
            .and_then(|w| w.as_u64())
            .ok_or("missing window_ns")?;
        let windows_dropped = v
            .get("windows_dropped")
            .and_then(|x| x.as_u64())
            .unwrap_or(0);
        let annotations_dropped = v
            .get("annotations_dropped")
            .and_then(|x| x.as_u64())
            .unwrap_or(0);
        let mut series = Vec::new();
        for sv in v.get("series").and_then(|s| s.as_arr()).unwrap_or(&[]) {
            let name = sv
                .get("name")
                .and_then(|n| n.as_str())
                .ok_or("series missing name")?
                .to_string();
            let kind = match sv.get("kind").and_then(|k| k.as_str()) {
                Some("rate") => SeriesKind::Rate,
                Some("gauge") => SeriesKind::Gauge,
                Some("latency") => SeriesKind::Latency,
                other => return Err(format!("series {name:?}: bad kind {other:?}")),
            };
            let mut points = Vec::new();
            for pv in sv.get("points").and_then(|p| p.as_arr()).unwrap_or(&[]) {
                let window = pv
                    .get("w")
                    .and_then(|x| x.as_u64())
                    .ok_or("point missing w")?;
                let t_ns = pv.get("t_ns").and_then(|x| x.as_u64()).unwrap_or(0);
                let stat = match kind {
                    SeriesKind::Rate => PointStat::Rate {
                        count: pv.get("count").and_then(|x| x.as_u64()).unwrap_or(0),
                        per_s: pv.get("per_s").and_then(|x| x.as_f64()).unwrap_or(0.0),
                    },
                    SeriesKind::Gauge => PointStat::Gauge {
                        last: pv.get("last").and_then(|x| x.as_f64()).unwrap_or(0.0),
                    },
                    SeriesKind::Latency => PointStat::Latency {
                        count: pv.get("count").and_then(|x| x.as_u64()).unwrap_or(0),
                        p50: pv.get("p50").and_then(|x| x.as_f64()).unwrap_or(0.0),
                        p95: pv.get("p95").and_then(|x| x.as_f64()).unwrap_or(0.0),
                        p99: pv.get("p99").and_then(|x| x.as_f64()).unwrap_or(0.0),
                        max: pv.get("max").and_then(|x| x.as_u64()).unwrap_or(0),
                        worst_trace_id: pv
                            .get("worst_trace_id")
                            .and_then(|x| x.as_u64())
                            .unwrap_or(0),
                    },
                };
                points.push(Point { window, t_ns, stat });
            }
            // `SeriesSnap::point` binary-searches; a hand-edited document
            // may list windows out of order.
            points.sort_by_key(|p| p.window);
            series.push(SeriesSnap { name, kind, points });
        }
        let mut annotations = Vec::new();
        for av in v.get("annotations").and_then(|a| a.as_arr()).unwrap_or(&[]) {
            annotations.push(Annotation {
                name: av
                    .get("name")
                    .and_then(|n| n.as_str())
                    .ok_or("annotation missing name")?
                    .to_string(),
                at: Nanos(av.get("t_ns").and_then(|x| x.as_u64()).unwrap_or(0)),
                detail: av
                    .get("detail")
                    .and_then(|d| d.as_str())
                    .unwrap_or("")
                    .to_string(),
            });
        }
        let mut slos = Vec::new();
        for ov in v.get("slos").and_then(|s| s.as_arr()).unwrap_or(&[]) {
            slos.push(SloOutcome::from_json(ov)?);
        }
        Ok(TimelineSnapshot {
            window_ns,
            series,
            annotations,
            windows_dropped,
            annotations_dropped,
            slos,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn a_window_stores_only_what_its_point_reports() {
        // count and the gauge's bits: nothing else.
        assert_eq!(std::mem::size_of::<Window>(), 16);
        // A latency window's sketch and worst trace, beside it.
        assert!(std::mem::size_of::<(Sketch, u64)>() <= 80);
    }

    #[test]
    fn windows_aggregate_by_kind() {
        let tl = Timeline::default();
        tl.configure(Nanos::from_millis(1), 64);
        // Window 0: two rate events, gauge 3 then 7, latencies 100/900.
        tl.add("ops", Nanos(0), 1);
        tl.add("ops", Nanos(999_999), 1);
        tl.gauge_at("depth", Nanos(10), 3.0);
        tl.gauge_at("depth", Nanos(20), 7.0);
        tl.sample_traced("lat", Nanos(30), 900, 42);
        tl.sample_traced("lat", Nanos(40), 100, 43);
        // Window 2: one of each.
        tl.add("ops", Nanos(2_000_000), 5);
        let snap = tl.snapshot();
        let ops = snap.series("ops").unwrap();
        assert_eq!(ops.points.len(), 2);
        assert_eq!(
            ops.points[0].stat,
            PointStat::Rate {
                count: 2,
                per_s: 2000.0
            }
        );
        assert_eq!(ops.points[1].window, 2);
        let depth = snap.series("depth").unwrap();
        assert_eq!(depth.points[0].stat, PointStat::Gauge { last: 7.0 });
        let lat = snap.series("lat").unwrap();
        match &lat.points[0].stat {
            PointStat::Latency {
                count,
                max,
                worst_trace_id,
                ..
            } => {
                assert_eq!(*count, 2);
                assert_eq!(*max, 900);
                assert_eq!(*worst_trace_id, 42);
            }
            other => panic!("wrong stat {other:?}"),
        }
    }

    #[test]
    fn window_cap_drops_new_windows_first_come_kept() {
        let tl = Timeline::default();
        tl.configure(Nanos(100), 2);
        tl.add("s", Nanos(0), 1);
        tl.add("s", Nanos(100), 1);
        tl.add("s", Nanos(200), 1); // new window beyond cap: dropped
        tl.add("s", Nanos(50), 1); // existing window: still aggregates
        assert_eq!(tl.dropped(), 1);
        let snap = tl.snapshot();
        let s = snap.series("s").unwrap();
        assert_eq!(s.points.len(), 2);
        assert_eq!(
            s.points[0].stat,
            PointStat::Rate {
                count: 2,
                per_s: 2e7
            }
        );
    }

    #[test]
    fn merge_equals_serial_recording() {
        // Serial: one registry records task A then task B.
        let serial = Registry::new();
        let merged_a = Registry::new();
        let merged_b = Registry::new();
        let session = Registry::new();
        for reg in [&serial, &merged_a] {
            let root = reg.trace_root(0);
            reg.end_span(root, "op", "client_op", Nanos(0), Nanos(10));
            let tl = reg.timeline();
            tl.add("ops", Nanos(1000), 2);
            tl.gauge_at("depth", Nanos(2000), 4.0);
            tl.sample_traced("lat", Nanos(1500), 700, root.trace_id);
        }
        for reg in [&serial, &merged_b] {
            let root = reg.trace_root(1);
            reg.end_span(root, "op", "client_op", Nanos(5), Nanos(10));
            let tl = reg.timeline();
            tl.add("ops", Nanos(1200), 3);
            tl.gauge_at("depth", Nanos(2500), 9.0);
            tl.sample_traced("lat", Nanos(1800), 900, root.trace_id);
        }
        session.merge_from(&merged_a);
        session.merge_from(&merged_b);
        assert_eq!(
            session.timeline().snapshot().to_json(),
            serial.timeline().snapshot().to_json()
        );
        // The worst sample's trace id survives the rebase: task B's root
        // was id 1 in its own registry, id 2 after the merge — exactly
        // what the serial run assigned.
        let snap = session.timeline().snapshot();
        match &snap.series("lat").unwrap().points[0].stat {
            PointStat::Latency { worst_trace_id, .. } => assert_eq!(*worst_trace_id, 2),
            other => panic!("wrong stat {other:?}"),
        }
    }

    #[test]
    fn json_roundtrips() {
        let tl = Timeline::default();
        tl.add("ops", Nanos(0), 4);
        tl.gauge_at("depth", Nanos(1), 2.5);
        tl.sample_traced("lat", Nanos(2), 123, 7);
        tl.annotate("mds.crash", Nanos::from_millis(5), "instance 0");
        let snap = tl.snapshot();
        let json = snap.to_json();
        let back = TimelineSnapshot::parse(&json).unwrap();
        assert_eq!(back.to_json(), json);
        assert_eq!(back.annotations.len(), 1);
        assert_eq!(back.annotations[0].at, Nanos::from_millis(5));
    }

    #[test]
    fn configure_is_ignored_once_recording_started() {
        let tl = Timeline::default();
        tl.add("s", Nanos(0), 1);
        tl.configure(Nanos(1), 1);
        assert_eq!(tl.window(), DEFAULT_WINDOW);
    }
}
