//! Host-time spans recorded from outside the stack, at its public
//! boundaries: the benchmark wraps what it hands in ([`Timed`] around a
//! [`Process`], [`TimedStore`] around an [`ObjectStore`]) and brackets
//! what it calls ([`span`]). Nothing under `crates/` knows it is traced.
//!
//! Spans live in a thread-local arena (the stack is driven from one
//! thread) and nest by a stack, so a span's parent is whatever was open
//! when it began. A span's *self time* is its duration minus its
//! children's; self times partition the root exactly.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use bytes::Bytes;
use cudele_obs::Registry;
use cudele_rados::{IoDelta, ObjectId, ObjectStat, ObjectStore, PoolId};
use cudele_sim::{Nanos, Process, Step};

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span was recorded at.
    pub name: &'static str,
    /// Start, ns since the tracer was enabled.
    pub start: u64,
    /// End, ns since the tracer was enabled.
    pub end: u64,
    /// Index of the span that was open when this one began.
    pub parent: u32,
    /// The process step (request) the span belongs to; 0 outside steps.
    pub op: u32,
}

/// Object-store traffic seen by [`TimedStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreIo {
    /// Calls into the store.
    pub calls: u64,
    /// Payload bytes handed to mutating calls.
    pub bytes_written: u64,
    /// Payload bytes returned by reading calls.
    pub bytes_read: u64,
    /// Payload bytes written to checkpoint objects (`ckpt.*`).
    pub ckpt_bytes_written: u64,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    io: StoreIo,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, discarding any earlier recording.
pub fn enable() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            op: 0,
            io: StoreIo::default(),
        })
    });
}

/// Stops recording and returns what was recorded.
pub fn finish() -> Recording {
    let t = TRACER.with(|t| t.borrow_mut().take());
    match t {
        Some(t) => Recording {
            spans: t.spans,
            io: t.io,
            region_ns: 0,
        },
        None => Recording::default(),
    }
}

/// Closes its span when dropped.
pub struct SpanGuard(Option<u32>);

/// Opens a span named `name` under whatever span is open; a no-op while
/// the tracer is disabled.
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard(TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut()?;
        let idx = t.spans.len() as u32;
        let now = t.epoch.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: t.open.last().copied().unwrap_or(NO_PARENT),
            op: t.op,
        });
        t.open.push(idx);
        Some(idx)
    }))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.spans[idx as usize].end = t.epoch.elapsed().as_nanos() as u64;
                let top = t.open.pop();
                debug_assert_eq!(top, Some(idx), "spans must close in LIFO order");
            }
        });
    }
}

fn next_op() {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.op += 1;
        }
    });
}

fn note_io(f: impl FnOnce(&mut StoreIo)) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            f(&mut t.io);
        }
    });
}

/// A finished recording.
#[derive(Debug, Clone, Default)]
pub struct Recording {
    /// Every span, in start order.
    pub spans: Vec<Span>,
    /// Object-store traffic totals.
    pub io: StoreIo,
    /// Wall time of the region the recording covers, measured around it
    /// whether or not spans were recorded.
    pub region_ns: u64,
}

impl Recording {
    /// Self time of every span: duration minus the children's durations.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let d = s.end - s.start;
                let p = &mut own[s.parent as usize];
                // Children are timed inside their parent, so this cannot
                // underflow; saturate rather than trust the clock.
                *p = p.saturating_sub(d);
            }
        }
        own
    }

    /// Self time summed by span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0) += own;
        }
        out
    }

    /// Durations of the spans named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Total duration of the root spans.
    pub fn total(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// The recording as JSON: a name table plus one
    /// `[name, start, end, parent, op]` row per span (`parent` -1 = root).
    pub fn to_json(&self) -> String {
        let mut names: Vec<&'static str> = Vec::new();
        let mut rows = String::with_capacity(self.spans.len() * 40);
        for (i, s) in self.spans.iter().enumerate() {
            let n = match names.iter().position(|n| *n == s.name) {
                Some(n) => n,
                None => {
                    names.push(s.name);
                    names.len() - 1
                }
            };
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            if i > 0 {
                rows.push_str(",\n");
            }
            rows.push_str(&format!("[{n},{},{},{parent},{}]", s.start, s.end, s.op));
        }
        let names: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        format!(
            "{{\"schema\": \"cudele-benchmark-trace/v1\", \"unit\": \"ns\", \
\"columns\": [\"name\", \"start\", \"end\", \"parent\", \"op\"], \
\"names\": [{}], \"spans\": [\n{rows}\n]}}\n",
            names.join(", ")
        )
    }
}

/// Root span of a traced run: the whole timed region.
pub const RUN: &str = "run";
/// Span around `Engine::run`.
pub const ENGINE: &str = "sim.engine";
/// Span name of one [`Process::step`].
pub const STEP: &str = "step";
/// Span name of one [`ObjectStore`] call.
pub const STORE: &str = "rados.store";

/// Wraps a process so each `step` is one span and one op id.
pub struct Timed<P>(pub P);

impl<W, P: Process<W>> Process<W> for Timed<P> {
    fn step(&mut self, now: Nanos, world: &mut W) -> Step {
        next_op();
        let _s = span(STEP);
        self.0.step(now, world)
    }

    fn name(&self) -> String {
        self.0.name()
    }
}

/// Wraps an object store so each call is one span, and counts the payload
/// bytes crossing the boundary.
pub struct TimedStore<S>(pub S);

fn wrote(id: &ObjectId, n: usize) {
    note_io(|io| {
        io.bytes_written += n as u64;
        if id.name.starts_with("ckpt.") {
            io.ckpt_bytes_written += n as u64;
        }
    });
}

impl<S: ObjectStore> TimedStore<S> {
    fn call<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        note_io(|io| io.calls += 1);
        let _s = span(STORE);
        f(&self.0)
    }
}

impl<S: ObjectStore> ObjectStore for TimedStore<S> {
    fn write_full(&self, id: &ObjectId, data: &[u8]) -> cudele_rados::Result<u64> {
        wrote(id, data.len());
        self.call(|s| s.write_full(id, data))
    }

    fn cas_write_full(
        &self,
        id: &ObjectId,
        expected: u64,
        data: &[u8],
    ) -> cudele_rados::Result<u64> {
        wrote(id, data.len());
        self.call(|s| s.cas_write_full(id, expected, data))
    }

    fn append(&self, id: &ObjectId, data: &[u8]) -> cudele_rados::Result<u64> {
        wrote(id, data.len());
        self.call(|s| s.append(id, data))
    }

    fn read(&self, id: &ObjectId) -> cudele_rados::Result<Bytes> {
        let r = self.call(|s| s.read(id));
        if let Ok(b) = &r {
            note_io(|io| io.bytes_read += b.len() as u64);
        }
        r
    }

    fn stat(&self, id: &ObjectId) -> cudele_rados::Result<ObjectStat> {
        self.call(|s| s.stat(id))
    }

    fn remove(&self, id: &ObjectId) -> cudele_rados::Result<()> {
        self.call(|s| s.remove(id))
    }

    fn exists(&self, id: &ObjectId) -> bool {
        self.call(|s| s.exists(id))
    }

    fn list(&self, pool: PoolId, prefix: &str) -> Vec<ObjectId> {
        self.call(|s| s.list(pool, prefix))
    }

    fn omap_set(&self, id: &ObjectId, key: &str, value: &[u8]) -> cudele_rados::Result<u64> {
        wrote(id, key.len() + value.len());
        self.call(|s| s.omap_set(id, key, value))
    }

    fn omap_get(&self, id: &ObjectId, key: &str) -> cudele_rados::Result<Option<Bytes>> {
        let r = self.call(|s| s.omap_get(id, key));
        if let Ok(Some(b)) = &r {
            note_io(|io| io.bytes_read += b.len() as u64);
        }
        r
    }

    fn omap_remove(&self, id: &ObjectId, key: &str) -> cudele_rados::Result<bool> {
        self.call(|s| s.omap_remove(id, key))
    }

    fn omap_list(&self, id: &ObjectId) -> cudele_rados::Result<Vec<(String, Bytes)>> {
        let r = self.call(|s| s.omap_list(id));
        if let Ok(entries) = &r {
            let n: usize = entries.iter().map(|(k, v)| k.len() + v.len()).sum();
            note_io(|io| io.bytes_read += n as u64);
        }
        r
    }

    fn take_io_delta(&self) -> IoDelta {
        self.0.take_io_delta()
    }

    fn attach_obs(&self, reg: &Registry) {
        self.0.attach_obs(reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_of_a_tree_sum_to_the_root() {
        enable();
        {
            let _root = span("root");
            spin(20_000);
            {
                let _a = span("a");
                spin(20_000);
                for _ in 0..3 {
                    let _leaf = span("leaf");
                    spin(5_000);
                }
            }
            {
                let _b = span("b");
                spin(10_000);
            }
        }
        let rec = finish();
        assert_eq!(rec.spans.len(), 6);
        assert_eq!(rec.spans[0].parent, NO_PARENT);
        assert_eq!(rec.spans[1].parent, 0);
        assert_eq!(rec.spans[2].parent, 1);
        assert_eq!(rec.spans[5].parent, 0);
        let own = rec.self_times();
        assert_eq!(own.iter().sum::<u64>(), rec.total());
        let by = rec.self_by_name();
        assert_eq!(by.values().sum::<u64>(), rec.total());
        assert!(by["leaf"] >= 15_000);
        assert_eq!(rec.durations("leaf").len(), 3);
        cudele_obs::json::validate(&rec.to_json()).expect("trace JSON parses");
    }

    #[test]
    fn a_hand_built_tree_conserves_exactly() {
        let s = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            op: 0,
        };
        let rec = Recording {
            spans: vec![
                s("root", 0, 100, NO_PARENT),
                s("a", 10, 60, 0),
                s("leaf", 20, 30, 1),
                s("leaf", 30, 45, 1),
                s("b", 70, 90, 0),
            ],
            io: StoreIo::default(),
            region_ns: 100,
        };
        assert_eq!(rec.self_times(), vec![30, 25, 10, 15, 20]);
        assert_eq!(rec.self_times().iter().sum::<u64>(), rec.total());
        assert_eq!(rec.self_by_name()["leaf"], 25);
        assert_eq!(rec.durations("leaf"), vec![10, 15]);
    }

    #[test]
    fn spans_are_noops_while_disabled() {
        let _ = finish();
        let _s = span("ignored");
        assert!(finish().spans.is_empty());
    }
}
