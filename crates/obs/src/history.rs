//! Deterministic consistency histories: per-client invoke/ack/observe
//! records emitted from the trace hooks of the RPC client path (served by
//! the MDS), the decoupled client, and the merge executor.
//!
//! A [`HistoryEvent`] is one operation as a client experienced it: who
//! issued it, against which namespace scope (the client-local decoupled
//! namespace or the global one), what it did, what came back, and the
//! virtual-time interval `[invoke, ack]` it occupied. The stream is
//! recorded into the [`crate::Registry`] alongside spans and obeys the
//! same determinism contract: same seed ⇒ byte-identical serialization,
//! and per-task registries merged in input order reproduce the serial
//! recording exactly (trace ids are rebased by the same offset as span
//! ids).
//!
//! `cudele-check` consumes these histories offline: a Wing–Gong style
//! linearizability check for RPC-mode runs, session axioms
//! (read-your-writes, monotonic reads) and eventual-visibility-after-merge
//! for decoupled runs.

use std::sync::{Arc, Mutex};

use cudele_sim::Nanos;

use crate::json::{self, Value};

/// Version tag of the serialized history layout.
pub const SCHEMA: &str = "cudele-history/v1";

/// History events retained per registry by default; later events are
/// counted as dropped (deterministically — recording order decides).
pub const DEFAULT_HISTORY_CAPACITY: usize = 1 << 20;

/// Which namespace an operation ran against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryScope {
    /// The client-local decoupled namespace (pre-merge).
    Local,
    /// The global namespace served by the MDS.
    Global,
}

impl HistoryScope {
    fn as_str(self) -> &'static str {
        match self {
            HistoryScope::Local => "local",
            HistoryScope::Global => "global",
        }
    }

    fn parse(s: &str) -> Result<HistoryScope, String> {
        match s {
            "local" => Ok(HistoryScope::Local),
            "global" => Ok(HistoryScope::Global),
            other => Err(format!("unknown history scope {other:?}")),
        }
    }
}

/// The operation an event records. Directory arguments are inode numbers
/// (`InodeId.0`); names are the final path component.
///
/// `S` is how a name is held: an owned `String` in the event a reader gets
/// back (the default, so `HistoryOp` alone means that), a `&str` in the
/// row a recorder hands in — recording copies the name once, into the
/// log's arena, so the serving path never owns it — and an arena offset
/// inside the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryOp<S = String> {
    /// File create in `dir`.
    Create {
        /// Parent directory inode.
        dir: u64,
        /// Created name.
        name: S,
    },
    /// Directory create in `dir`.
    Mkdir {
        /// Parent directory inode.
        dir: u64,
        /// Created name.
        name: S,
    },
    /// File removal from `dir`.
    Unlink {
        /// Parent directory inode.
        dir: u64,
        /// Removed name.
        name: S,
    },
    /// Rename `src_dir/src_name` → `dst_dir/dst_name`.
    Rename {
        /// Source directory inode.
        src_dir: u64,
        /// Source name.
        src_name: S,
        /// Destination directory inode.
        dst_dir: u64,
        /// Destination name.
        dst_name: S,
    },
    /// Name lookup in `dir`; `found` is the returned inode (None = ENOENT
    /// observed).
    Lookup {
        /// Directory inode searched.
        dir: u64,
        /// Name searched for.
        name: S,
        /// The inode the lookup returned, if the name existed.
        found: Option<u64>,
    },
    /// Full listing of `dir`; `entries` is the returned entry count.
    Readdir {
        /// Directory inode listed.
        dir: u64,
        /// Number of entries returned.
        entries: u64,
    },
    /// A decoupled client's journal merged into the global namespace
    /// (`events` journal events became globally visible).
    Merge {
        /// Number of journal events the merge carried.
        events: u64,
    },
}

impl<S> HistoryOp<S> {
    fn kind(&self) -> &'static str {
        match self {
            HistoryOp::Create { .. } => "create",
            HistoryOp::Mkdir { .. } => "mkdir",
            HistoryOp::Unlink { .. } => "unlink",
            HistoryOp::Rename { .. } => "rename",
            HistoryOp::Lookup { .. } => "lookup",
            HistoryOp::Readdir { .. } => "readdir",
            HistoryOp::Merge { .. } => "merge",
        }
    }

    /// The same operation with every name passed through `f`, in field
    /// order (a rename's source before its destination) —
    /// `op.map_names(String::as_str)` borrows an owned op.
    pub fn map_names<'a, T>(&'a self, mut f: impl FnMut(&'a S) -> T) -> HistoryOp<T> {
        match *self {
            HistoryOp::Create { dir, ref name } => HistoryOp::Create { dir, name: f(name) },
            HistoryOp::Mkdir { dir, ref name } => HistoryOp::Mkdir { dir, name: f(name) },
            HistoryOp::Unlink { dir, ref name } => HistoryOp::Unlink { dir, name: f(name) },
            HistoryOp::Rename {
                src_dir,
                ref src_name,
                dst_dir,
                ref dst_name,
            } => HistoryOp::Rename {
                src_dir,
                src_name: f(src_name),
                dst_dir,
                dst_name: f(dst_name),
            },
            HistoryOp::Lookup {
                dir,
                ref name,
                found,
            } => HistoryOp::Lookup {
                dir,
                name: f(name),
                found,
            },
            HistoryOp::Readdir { dir, entries } => HistoryOp::Readdir { dir, entries },
            HistoryOp::Merge { events } => HistoryOp::Merge { events },
        }
    }
}

/// What came back to the client, collapsed to the classes the checkers
/// reason about. Only `Ok`, `Exists` and `NoEnt` constrain the namespace
/// spec; the rest are no-effect outcomes (the server rejected or never
/// served the request).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryResult {
    /// The operation succeeded.
    Ok,
    /// EEXIST: the name was already present.
    Exists,
    /// ENOENT: the name (or directory) was absent.
    NoEnt,
    /// EBUSY: a subtree policy transition blocked the op.
    Busy,
    /// The client had no open session.
    NoSession,
    /// The RPC timed out against a dead MDS.
    Timeout,
    /// An epoch-fenced zombie MDS rejected the write.
    Fenced,
    /// Any other error (no namespace effect).
    Err,
}

impl HistoryResult {
    /// Whether this outcome constrains the sequential spec (took effect or
    /// observed state). No-effect outcomes are skipped by the checkers.
    pub fn effective(self) -> bool {
        matches!(
            self,
            HistoryResult::Ok | HistoryResult::Exists | HistoryResult::NoEnt
        )
    }

    fn as_str(self) -> &'static str {
        match self {
            HistoryResult::Ok => "ok",
            HistoryResult::Exists => "exists",
            HistoryResult::NoEnt => "noent",
            HistoryResult::Busy => "busy",
            HistoryResult::NoSession => "nosession",
            HistoryResult::Timeout => "timeout",
            HistoryResult::Fenced => "fenced",
            HistoryResult::Err => "err",
        }
    }

    fn parse(s: &str) -> Result<HistoryResult, String> {
        Ok(match s {
            "ok" => HistoryResult::Ok,
            "exists" => HistoryResult::Exists,
            "noent" => HistoryResult::NoEnt,
            "busy" => HistoryResult::Busy,
            "nosession" => HistoryResult::NoSession,
            "timeout" => HistoryResult::Timeout,
            "fenced" => HistoryResult::Fenced,
            "err" => HistoryResult::Err,
            other => return Err(format!("unknown history result {other:?}")),
        })
    }
}

/// One recorded operation. `S` is how its names are held — see
/// [`HistoryOp`]; `HistoryEvent` alone is the owned form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryEvent<S = String> {
    /// The issuing client (ClientId for real clients, the harness track id
    /// for merge events).
    pub client: u64,
    /// Which namespace the operation ran against.
    pub scope: HistoryScope,
    /// The operation.
    pub op: HistoryOp<S>,
    /// Its outcome.
    pub result: HistoryResult,
    /// The returned inode for create/mkdir (0 when none was returned).
    pub ino: u64,
    /// Virtual instant the operation was invoked.
    pub invoke: Nanos,
    /// Virtual instant the client observed the result. Always ≥ `invoke`.
    pub ack: Nanos,
    /// The MDS epoch that served the operation (0 when no server was
    /// involved, e.g. client-local ops).
    pub epoch: u64,
    /// The request trace this event belongs to (0 = untraced).
    pub trace_id: u64,
}

impl<S> HistoryEvent<S> {
    /// The same event with every name passed through `f`, in field order
    /// (see [`HistoryOp::map_names`]).
    pub fn map_names<'a, T>(&'a self, f: impl FnMut(&'a S) -> T) -> HistoryEvent<T> {
        HistoryEvent {
            client: self.client,
            scope: self.scope,
            op: self.op.map_names(f),
            result: self.result,
            ino: self.ino,
            invoke: self.invoke,
            ack: self.ack,
            epoch: self.epoch,
            trace_id: self.trace_id,
        }
    }
}

/// The log proper: `Copy` rows plus one arena holding every name, so
/// recording an event allocates nothing once both have grown and dropping
/// a run's history is two frees however many events it holds.
///
/// A stored name is the arena offset one past its last byte. Names enter
/// the arena in row order (and within a row in field order), so each
/// starts where the previous one ended and rows read back by walking a
/// cursor from the start of the arena — which is the only way the log is
/// ever read.
#[derive(Debug)]
struct HistoryLogInner {
    rows: Vec<HistoryEvent<usize>>,
    names: String,
    capacity: usize,
    dropped: u64,
}

impl HistoryLogInner {
    /// The first `n` rows, names borrowed from the arena.
    fn rows(&self, n: usize) -> impl Iterator<Item = HistoryEvent<&str>> + '_ {
        let mut at = 0;
        self.rows[..n].iter().map(move |row| {
            row.map_names(|&end| {
                let name = &self.names[at..end];
                at = end;
                name
            })
        })
    }

    fn push<S: AsRef<str>>(&mut self, ev: &HistoryEvent<S>) {
        let names = &mut self.names;
        self.rows.push(ev.map_names(|name| {
            names.push_str(name.as_ref());
            names.len()
        }));
    }
}

/// A shared, cloneable handle onto a registry's history log, so layers
/// that only borrow a [`crate::Registry`] transiently (the decoupled
/// client's `attach_obs`) can keep recording afterwards. Cloning shares
/// the log.
#[derive(Debug, Clone)]
pub struct HistoryWriter(Arc<Mutex<HistoryLogInner>>);

impl HistoryWriter {
    /// A fresh log bounded at `capacity` events.
    pub fn with_capacity(capacity: usize) -> HistoryWriter {
        HistoryWriter(Arc::new(Mutex::new(HistoryLogInner {
            rows: Vec::new(),
            names: String::new(),
            capacity,
            dropped: 0,
        })))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HistoryLogInner> {
        self.0.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Records one event (dropped deterministically past the capacity).
    /// Names may be borrowed (`HistoryEvent<&str>`) or owned: either way
    /// they are copied into the log's arena and the log keeps nothing of
    /// `ev`.
    pub fn record<S: AsRef<str>>(&self, ev: HistoryEvent<S>) {
        let mut log = self.lock();
        if log.rows.len() < log.capacity {
            log.push(&ev);
        } else {
            log.dropped += 1;
        }
    }

    /// A copy of the retained events, in recording order.
    pub fn events(&self) -> Vec<HistoryEvent> {
        let log = self.lock();
        log.rows(log.rows.len())
            .map(|row| row.map_names(|name| name.to_string()))
            .collect()
    }

    /// Number of retained events.
    pub fn count(&self) -> usize {
        self.lock().rows.len()
    }

    /// Number of events dropped after the capacity filled.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Serializes the log as a [`SCHEMA`] document claiming consistency
    /// `mode` — byte-equal to [`History::to_json`] over
    /// [`HistoryWriter::events`], without materialising them.
    pub fn to_json(&self, mode: &str) -> String {
        let log = self.lock();
        let n = log.rows.len();
        write_json(mode, log.dropped, n, log.rows(n))
    }

    /// Appends `other`'s events in order, rebasing nonzero trace ids by
    /// `offset` — the same rebase [`crate::Registry::merge_from`] applies
    /// to span ids, which keeps merged parallel recordings byte-identical
    /// to serial ones. Copies rows and the arena bytes behind them; no
    /// per-event allocation.
    pub fn merge_from(&self, other: &HistoryWriter, offset: u64) {
        let src = other.lock();
        let mut log = self.lock();
        let room = log.capacity.saturating_sub(log.rows.len());
        let keep = src.rows.len().min(room);
        log.rows.reserve(keep);
        for mut ev in src.rows(keep) {
            if ev.trace_id != 0 {
                ev.trace_id += offset;
            }
            log.push(&ev);
        }
        log.dropped += (src.rows.len() - keep) as u64 + src.dropped;
    }
}

/// A parsed (or to-be-serialized) history document: the consistency mode
/// the run claimed plus the event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct History {
    /// `"rpc"` for strongly-consistent runs (linearizability applies) or
    /// `"decoupled"` for runs with client-local namespaces (session +
    /// eventual-visibility axioms apply).
    pub mode: String,
    /// The events, in recording order.
    pub events: Vec<HistoryEvent>,
    /// Events dropped at record time (capacity overflow).
    pub dropped: u64,
}

impl History {
    /// Serializes the history as deterministic JSON (one event per line).
    pub fn to_json(&self) -> String {
        let rows = self.events.iter().map(|e| e.map_names(String::as_str));
        write_json(&self.mode, self.dropped, self.events.len(), rows)
    }

    /// Parses a serialized history, validating the schema tag.
    pub fn parse(s: &str) -> Result<History, String> {
        let doc = json::parse(s)?;
        let schema = doc
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("history: missing schema")?;
        if schema != SCHEMA {
            return Err(format!("history schema {schema:?}, expected {SCHEMA:?}"));
        }
        let mode = doc
            .get("mode")
            .and_then(Value::as_str)
            .ok_or("history: missing mode")?
            .to_string();
        let dropped = doc.get("dropped").and_then(Value::as_u64).unwrap_or(0);
        let raw = doc
            .get("events")
            .and_then(Value::as_arr)
            .ok_or("history: missing events array")?;
        let mut events = Vec::with_capacity(raw.len());
        for (i, e) in raw.iter().enumerate() {
            events.push(parse_event(e).map_err(|m| format!("history event {i}: {m}"))?);
        }
        Ok(History {
            mode,
            events,
            dropped,
        })
    }
}

/// The one history serializer: `events` (there are `len` of them) as a
/// [`SCHEMA`] document.
fn write_json<'a>(
    mode: &str,
    dropped: u64,
    len: usize,
    events: impl Iterator<Item = HistoryEvent<&'a str>>,
) -> String {
    let mut out = String::with_capacity(128 + len * 140);
    out.push_str("{\n  \"schema\": \"");
    out.push_str(SCHEMA);
    out.push_str("\",\n  \"mode\": \"");
    out.push_str(&crate::escape_json(mode));
    out.push_str("\",\n  \"dropped\": ");
    out.push_str(&dropped.to_string());
    out.push_str(",\n  \"events\": [");
    for (i, ev) in events.enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        push_event(&mut out, &ev);
    }
    if len == 0 {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

fn push_event(out: &mut String, ev: &HistoryEvent<&str>) {
    out.push_str("{\"client\":");
    out.push_str(&ev.client.to_string());
    out.push_str(",\"scope\":\"");
    out.push_str(ev.scope.as_str());
    out.push_str("\",\"op\":\"");
    out.push_str(ev.op.kind());
    out.push('"');
    match &ev.op {
        HistoryOp::Create { dir, name }
        | HistoryOp::Mkdir { dir, name }
        | HistoryOp::Unlink { dir, name } => {
            out.push_str(",\"dir\":");
            out.push_str(&dir.to_string());
            out.push_str(",\"name\":\"");
            out.push_str(&crate::escape_json(name));
            out.push('"');
        }
        HistoryOp::Rename {
            src_dir,
            src_name,
            dst_dir,
            dst_name,
        } => {
            out.push_str(",\"dir\":");
            out.push_str(&src_dir.to_string());
            out.push_str(",\"name\":\"");
            out.push_str(&crate::escape_json(src_name));
            out.push_str("\",\"dir2\":");
            out.push_str(&dst_dir.to_string());
            out.push_str(",\"name2\":\"");
            out.push_str(&crate::escape_json(dst_name));
            out.push('"');
        }
        HistoryOp::Lookup { dir, name, found } => {
            out.push_str(",\"dir\":");
            out.push_str(&dir.to_string());
            out.push_str(",\"name\":\"");
            out.push_str(&crate::escape_json(name));
            out.push_str("\",\"found\":");
            match found {
                Some(i) => out.push_str(&i.to_string()),
                None => out.push_str("null"),
            }
        }
        HistoryOp::Readdir { dir, entries } => {
            out.push_str(",\"dir\":");
            out.push_str(&dir.to_string());
            out.push_str(",\"entries\":");
            out.push_str(&entries.to_string());
        }
        HistoryOp::Merge { events } => {
            out.push_str(",\"events\":");
            out.push_str(&events.to_string());
        }
    }
    out.push_str(",\"ino\":");
    out.push_str(&ev.ino.to_string());
    out.push_str(",\"result\":\"");
    out.push_str(ev.result.as_str());
    out.push_str("\",\"invoke\":");
    out.push_str(&ev.invoke.0.to_string());
    out.push_str(",\"ack\":");
    out.push_str(&ev.ack.0.to_string());
    out.push_str(",\"epoch\":");
    out.push_str(&ev.epoch.to_string());
    out.push_str(",\"trace_id\":");
    out.push_str(&ev.trace_id.to_string());
    out.push('}');
}

fn parse_event(e: &Value) -> Result<HistoryEvent, String> {
    let num = |key: &str| e.get(key).and_then(Value::as_u64);
    let string = |key: &str| {
        e.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing {key}"))
    };
    let dir = || num("dir").ok_or("missing dir");
    let op = match e.get("op").and_then(Value::as_str).ok_or("missing op")? {
        "create" => HistoryOp::Create {
            dir: dir()?,
            name: string("name")?,
        },
        "mkdir" => HistoryOp::Mkdir {
            dir: dir()?,
            name: string("name")?,
        },
        "unlink" => HistoryOp::Unlink {
            dir: dir()?,
            name: string("name")?,
        },
        "rename" => HistoryOp::Rename {
            src_dir: dir()?,
            src_name: string("name")?,
            dst_dir: num("dir2").ok_or("missing dir2")?,
            dst_name: string("name2")?,
        },
        "lookup" => HistoryOp::Lookup {
            dir: dir()?,
            name: string("name")?,
            found: match e.get("found") {
                Some(Value::Null) | None => None,
                Some(v) => Some(v.as_u64().ok_or("bad found")?),
            },
        },
        "readdir" => HistoryOp::Readdir {
            dir: dir()?,
            entries: num("entries").ok_or("missing entries")?,
        },
        "merge" => HistoryOp::Merge {
            events: num("events").ok_or("missing events")?,
        },
        other => return Err(format!("unknown op {other:?}")),
    };
    Ok(HistoryEvent {
        client: num("client").ok_or("missing client")?,
        scope: HistoryScope::parse(
            e.get("scope")
                .and_then(Value::as_str)
                .ok_or("missing scope")?,
        )?,
        op,
        result: HistoryResult::parse(
            e.get("result")
                .and_then(Value::as_str)
                .ok_or("missing result")?,
        )?,
        ino: num("ino").unwrap_or(0),
        invoke: Nanos(num("invoke").ok_or("missing invoke")?),
        ack: Nanos(num("ack").ok_or("missing ack")?),
        epoch: num("epoch").unwrap_or(0),
        trace_id: num("trace_id").unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<HistoryEvent> {
        vec![
            HistoryEvent {
                client: 1,
                scope: HistoryScope::Global,
                op: HistoryOp::Create {
                    dir: 1,
                    name: "f\"0".into(),
                },
                result: HistoryResult::Ok,
                ino: 42,
                invoke: Nanos(10),
                ack: Nanos(20),
                epoch: 1,
                trace_id: 3,
            },
            HistoryEvent {
                client: 2,
                scope: HistoryScope::Global,
                op: HistoryOp::Lookup {
                    dir: 1,
                    name: "f\"0".into(),
                    found: Some(42),
                },
                result: HistoryResult::Ok,
                ino: 0,
                invoke: Nanos(25),
                ack: Nanos(30),
                epoch: 1,
                trace_id: 0,
            },
            HistoryEvent {
                client: 2,
                scope: HistoryScope::Global,
                op: HistoryOp::Lookup {
                    dir: 1,
                    name: "gone".into(),
                    found: None,
                },
                result: HistoryResult::NoEnt,
                ino: 0,
                invoke: Nanos(31),
                ack: Nanos(32),
                epoch: 1,
                trace_id: 0,
            },
            HistoryEvent {
                client: 7,
                scope: HistoryScope::Local,
                op: HistoryOp::Rename {
                    src_dir: 5,
                    src_name: "a".into(),
                    dst_dir: 6,
                    dst_name: "b".into(),
                },
                result: HistoryResult::Ok,
                ino: 0,
                invoke: Nanos(40),
                ack: Nanos(40),
                epoch: 0,
                trace_id: 0,
            },
            HistoryEvent {
                client: 7,
                scope: HistoryScope::Global,
                op: HistoryOp::Merge { events: 9 },
                result: HistoryResult::Ok,
                ino: 0,
                invoke: Nanos(50),
                ack: Nanos(90),
                epoch: 1,
                trace_id: 4,
            },
            HistoryEvent {
                client: 1,
                scope: HistoryScope::Global,
                op: HistoryOp::Readdir { dir: 1, entries: 2 },
                result: HistoryResult::Ok,
                ino: 0,
                invoke: Nanos(95),
                ack: Nanos(96),
                epoch: 1,
                trace_id: 0,
            },
        ]
    }

    #[test]
    fn round_trips_every_op_kind() {
        let h = History {
            mode: "rpc".into(),
            events: sample(),
            dropped: 2,
        };
        let text = h.to_json();
        json::validate(&text).expect("valid JSON");
        let back = History::parse(&text).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn empty_history_round_trips() {
        let h = History {
            mode: "decoupled".into(),
            events: Vec::new(),
            dropped: 0,
        };
        let back = History::parse(&h.to_json()).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let bad = "{\"schema\": \"other/v9\", \"mode\": \"rpc\", \"events\": []}";
        assert!(History::parse(bad).unwrap_err().contains("schema"));
    }

    #[test]
    fn writer_capacity_drops_deterministically() {
        let w = HistoryWriter::with_capacity(2);
        for ev in sample() {
            w.record(ev);
        }
        assert_eq!(w.count(), 2);
        assert_eq!(w.dropped(), 4);
    }

    #[test]
    fn merge_rebases_trace_ids_only_when_nonzero() {
        let a = HistoryWriter::with_capacity(16);
        let b = HistoryWriter::with_capacity(16);
        for ev in sample() {
            b.record(ev);
        }
        a.merge_from(&b, 100);
        let merged = a.events();
        assert_eq!(merged[0].trace_id, 103);
        assert_eq!(merged[1].trace_id, 0, "untraced events stay untraced");
        assert_eq!(merged[4].trace_id, 104);
    }
}
