//! Differential test of the indexed, handle-addressed timeline recorder
//! against the recorder it replaced: windows found by scanning the
//! insertion-ordered list, series keyed by name. The old recorder lives on
//! here — and only here — as the reference model. Over arbitrary
//! (series, kind, non-monotone time, value, trace id) schedules, window
//! caps small enough to overflow, and arbitrary splits into per-task
//! timelines merged in input order, the two must agree on every exported
//! byte and on the drop count, whether the new recorder is driven through
//! [`Series`] handles or through the name-keyed methods.

use std::collections::BTreeMap;

use cudele_obs::timeline::{
    Point, PointStat, Series, SeriesKind, SeriesSnap, Timeline, TimelineSnapshot,
};
use cudele_obs::{Histogram, Registry};
use cudele_sim::Nanos;
use proptest::prelude::*;

const WINDOW: u64 = 100;

// ---------------------------------------------------------------------
// Reference model: the linear-scan recorder.
// ---------------------------------------------------------------------

#[derive(Clone)]
struct RefWindow {
    count: u64,
    last: f64,
    lat: Histogram,
    worst: u64,
    worst_trace: u64,
}

struct RefTimeline {
    cap: usize,
    series: BTreeMap<String, (SeriesKind, Vec<(u64, RefWindow)>)>,
    dropped: u64,
}

impl RefTimeline {
    fn new(cap: usize) -> RefTimeline {
        RefTimeline {
            cap,
            series: BTreeMap::new(),
            dropped: 0,
        }
    }

    fn record(
        &mut self,
        name: &str,
        kind: SeriesKind,
        t: u64,
        lost: u64,
        f: impl Fn(&mut RefWindow),
    ) {
        let idx = t / WINDOW;
        let (_, windows) = self
            .series
            .entry(name.to_string())
            .or_insert((kind, Vec::new()));
        match windows.iter().rposition(|(w, _)| *w == idx) {
            Some(p) => f(&mut windows[p].1),
            None if windows.len() < self.cap => {
                let mut w = RefWindow {
                    count: 0,
                    last: 0.0,
                    lat: Histogram::default(),
                    worst: 0,
                    worst_trace: 0,
                };
                f(&mut w);
                windows.push((idx, w));
            }
            None => self.dropped += lost,
        }
    }

    fn merge_from(&mut self, other: &RefTimeline, offset: u64) {
        for (name, (kind, src)) in &other.series {
            let (_, into) = self
                .series
                .entry(name.clone())
                .or_insert((*kind, Vec::new()));
            for (idx, w) in src {
                let rebased = if w.worst_trace == 0 {
                    0
                } else {
                    w.worst_trace + offset
                };
                match into.iter().rposition(|(i, _)| i == idx) {
                    Some(p) => {
                        let d = &mut into[p].1;
                        if w.count > 0 {
                            d.last = w.last;
                        }
                        d.count += w.count;
                        d.lat.merge_from(&w.lat);
                        if w.worst > d.worst {
                            d.worst = w.worst;
                            d.worst_trace = rebased;
                        }
                    }
                    None if into.len() < self.cap => {
                        let mut d = w.clone();
                        // `Histogram` clones share their cell; the merged
                        // window needs its own.
                        d.lat = Histogram::default();
                        d.lat.merge_from(&w.lat);
                        d.worst_trace = rebased;
                        into.push((*idx, d));
                    }
                    None => self.dropped += w.count,
                }
            }
        }
        self.dropped += other.dropped;
    }

    fn snapshot(&self) -> TimelineSnapshot {
        let series = self
            .series
            .iter()
            .map(|(name, (kind, windows))| {
                let mut points: Vec<Point> = windows
                    .iter()
                    .map(|(idx, w)| Point {
                        window: *idx,
                        t_ns: idx * WINDOW,
                        stat: match kind {
                            SeriesKind::Rate => PointStat::Rate {
                                count: w.count,
                                per_s: w.count as f64 * 1e9 / WINDOW as f64,
                            },
                            SeriesKind::Gauge => PointStat::Gauge { last: w.last },
                            SeriesKind::Latency => PointStat::Latency {
                                count: w.count,
                                p50: w.lat.p50(),
                                p95: w.lat.p95(),
                                p99: w.lat.p99(),
                                max: w.lat.max(),
                                worst_trace_id: w.worst_trace,
                            },
                        },
                    })
                    .collect();
                points.sort_by_key(|p| p.window);
                SeriesSnap {
                    name: name.clone(),
                    kind: *kind,
                    points,
                }
            })
            .collect();
        TimelineSnapshot {
            window_ns: WINDOW,
            series,
            annotations: Vec::new(),
            windows_dropped: self.dropped,
            annotations_dropped: 0,
            slos: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------
// Schedules and the three drivers.
// ---------------------------------------------------------------------

/// One recorded sample. `series` picks one of three names per kind, so a
/// name never changes kind; `traced` latency samples get a fresh trace
/// root, so the merge's id rebase is exercised.
#[derive(Debug, Clone)]
enum Ev {
    Add {
        series: u8,
        t: u64,
        n: u64,
    },
    Gauge {
        series: u8,
        t: u64,
        v: u64,
    },
    Sample {
        series: u8,
        t: u64,
        v: u64,
        traced: bool,
    },
}

fn ev_strategy() -> impl Strategy<Value = Ev> {
    let series = 0u8..3;
    // Twelve windows, visited in any order.
    let t = 0u64..12 * WINDOW;
    prop_oneof![
        (series.clone(), t.clone(), 0u64..5).prop_map(|(series, t, n)| Ev::Add { series, t, n }),
        (series.clone(), t.clone(), 0u64..1000).prop_map(|(series, t, v)| Ev::Gauge {
            series,
            t,
            v
        }),
        // Zero-valued and tied maxima are where worst-sample bookkeeping
        // can go wrong, so make them common.
        (series, t, 0usize..6, any::<bool>()).prop_map(|(series, t, k, traced)| Ev::Sample {
            series,
            t,
            v: [0, 0, 1, 700, 700, 5000][k],
            traced,
        }),
    ]
}

fn name(kind: &str, series: u8) -> String {
    format!("{kind}.{series}")
}

/// How the new recorder is driven.
#[derive(Clone, Copy)]
enum Api {
    Names,
    Handles,
}

/// Every series the schedule can touch, resolved up front — most stay
/// unused in any one task, which is the lazy-materialisation case.
struct Handles {
    rate: Vec<Series>,
    gauge: Vec<Series>,
    lat: Vec<Series>,
}

impl Handles {
    fn resolve(tl: &Timeline) -> Handles {
        let of = |kind: &str| (0..3).map(|s| tl.series(&name(kind, s))).collect();
        Handles {
            rate: of("rate"),
            gauge: of("gauge"),
            lat: of("lat"),
        }
    }
}

fn fresh(cap: usize) -> Registry {
    let reg = Registry::new();
    reg.timeline().configure(Nanos(WINDOW), cap);
    reg
}

/// Replays `events` into `reg` (via `api`) and into `model`.
fn replay(reg: &Registry, api: Api, model: &mut RefTimeline, events: &[Ev]) {
    let tl = reg.timeline();
    let h = Handles::resolve(&tl);
    for e in events {
        match *e {
            Ev::Add { series, t, n } => {
                match api {
                    Api::Names => tl.add(&name("rate", series), Nanos(t), n),
                    Api::Handles => h.rate[series as usize].add(Nanos(t), n),
                }
                model.record(&name("rate", series), SeriesKind::Rate, t, n, |w| {
                    w.count += n
                });
            }
            Ev::Gauge { series, t, v } => {
                match api {
                    Api::Names => tl.gauge_at(&name("gauge", series), Nanos(t), v as f64),
                    Api::Handles => h.gauge[series as usize].set(Nanos(t), v as f64),
                }
                model.record(&name("gauge", series), SeriesKind::Gauge, t, 1, |w| {
                    w.count += 1;
                    w.last = v as f64;
                });
            }
            Ev::Sample {
                series,
                t,
                v,
                traced,
            } => {
                let trace = if traced {
                    reg.trace_root(0).trace_id
                } else {
                    0
                };
                match api {
                    Api::Names => tl.sample_traced(&name("lat", series), Nanos(t), v, trace),
                    Api::Handles => h.lat[series as usize].sample(Nanos(t), v, trace),
                }
                model.record(&name("lat", series), SeriesKind::Latency, t, 1, |w| {
                    w.lat.record(v);
                    w.count += 1;
                    if v > w.worst || w.count == 1 {
                        w.worst = v;
                        w.worst_trace = trace;
                    }
                });
            }
        }
    }
}

/// Records `events` split into `tasks` contiguous per-task registries
/// merged in input order, in the new recorder and in the model; returns
/// (new JSON, new dropped, model JSON, model dropped).
fn run(events: &[Ev], cap: usize, tasks: usize, api: Api) -> (String, u64, String, u64) {
    let session = fresh(cap);
    let mut model = RefTimeline::new(cap);
    let chunk = events.len().div_ceil(tasks).max(1);
    // The offset the registry merge applies: every span id the session has
    // absorbed so far, i.e. one per traced sample of the earlier tasks.
    let mut offset = 0;
    for part in events.chunks(chunk) {
        let task = fresh(cap);
        let mut task_model = RefTimeline::new(cap);
        replay(&task, api, &mut task_model, part);
        model.merge_from(&task_model, offset);
        session.merge_from(&task);
        offset += part
            .iter()
            .filter(|e| matches!(e, Ev::Sample { traced: true, .. }))
            .count() as u64;
    }
    let tl = session.timeline();
    (
        tl.snapshot().to_json(),
        tl.dropped(),
        model.snapshot().to_json(),
        model.dropped,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn indexed_recorder_equals_linear_scan_recorder(
        events in proptest::collection::vec(ev_strategy(), 0..160),
        cap in 1usize..7,
        tasks in 1usize..5,
    ) {
        for api in [Api::Names, Api::Handles] {
            let (json, dropped, model_json, model_dropped) = run(&events, cap, tasks, api);
            prop_assert_eq!(&json, &model_json);
            prop_assert_eq!(dropped, model_dropped);
        }
    }

    /// One task, no merge: the recording path alone.
    #[test]
    fn serial_recording_equals_linear_scan_recorder(
        events in proptest::collection::vec(ev_strategy(), 0..160),
        cap in 1usize..7,
    ) {
        for api in [Api::Names, Api::Handles] {
            let reg = fresh(cap);
            let mut model = RefTimeline::new(cap);
            replay(&reg, api, &mut model, &events);
            let tl = reg.timeline();
            prop_assert_eq!(tl.snapshot().to_json(), model.snapshot().to_json());
            prop_assert_eq!(tl.dropped(), model.dropped);
        }
    }
}

/// Resolving a handle — series, span name or mechanism — and never using
/// it changes no artifact and does not count as recorded data.
#[test]
fn unused_handles_leave_no_trace() {
    let reg = Registry::new();
    let tl = reg.timeline();
    let before = (
        tl.snapshot().to_json(),
        reg.metrics_json(),
        reg.chrome_trace_json(),
    );
    let _series = tl.series("never.recorded");
    let _span = reg.span_name("never.ended", "test");
    let _mechanism = reg.mechanism("never_run");
    let after = (
        tl.snapshot().to_json(),
        reg.metrics_json(),
        reg.chrome_trace_json(),
    );
    assert_eq!(before, after);
    // `configure` is honoured only while the timeline is empty: it still is.
    tl.configure(Nanos(7), 3);
    assert_eq!(tl.window(), Nanos(7));
    // And a handle resolved before `configure` records under the new shape.
    _series.add(Nanos(15), 1);
    assert_eq!(
        tl.snapshot().series("never.recorded").unwrap().points[0].window,
        2
    );
    tl.configure(Nanos(9), 3);
    assert_eq!(tl.window(), Nanos(7), "now there is recorded data");
}
