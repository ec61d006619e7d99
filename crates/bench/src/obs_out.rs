//! Metrics/trace output plumbing shared by every experiment binary.
//!
//! Any figure binary (and `mdbench`) accepts:
//!
//! * `--metrics-out <path>` — write a JSON metrics snapshot
//!   ([`Registry::metrics_json`]) when the run finishes.
//! * `--trace-out <path>` — write a Chrome trace-event JSON file
//!   ([`Registry::chrome_trace_json`]), loadable in Perfetto /
//!   `chrome://tracing`, with virtual timestamps.
//! * `--history-out <path>` — write the run's consistency history
//!   ([`Registry::history_json`]), a `cudele-history/v1` record of every
//!   namespace operation's invoke/ack interval, checkable offline with
//!   `cudele-bench check`.
//! * `--timeline-out <path>` — write the run's virtual-time telemetry
//!   timeline ([`Registry::timeline`] snapshot plus evaluated SLO
//!   outcomes), a `cudele-timeline/v1` record renderable with
//!   `cudele-bench timeline`.
//! * `--span-capacity <N>` — bound the session span buffer at `N`
//!   spans; later spans are dropped (counted in `obs.spans_dropped`
//!   in the metrics snapshot) instead of growing memory.
//!
//! When any output flag is present, a single *session registry* is installed
//! and every [`crate::World`] built afterwards shares it, so the snapshot
//! covers the whole run regardless of how many worlds the harness builds.
//! Without the flags each world keeps its own private registry and nothing
//! is written. Both outputs are deterministic for a fixed configuration
//! and seed: metric names are sorted, spans are in execution order, and
//! all timestamps are virtual.

use std::cell::RefCell;
use std::sync::Arc;

use cudele_obs::Registry;

// Thread-local, not process-global: parallel sweep workers
// ([`par_tasks_merged`]) each install a private session on their own
// thread, so concurrent tasks never share a registry mid-run and a
// parallel sweep's recording is isolated per task (then merged in input
// order, which reproduces the serial recording exactly).
thread_local! {
    static SESSION: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

/// Installs (replacing any previous) the shared session registry and
/// returns it. Subsequent [`crate::World::new`] calls attach to it.
pub fn install_session() -> Arc<Registry> {
    install_session_with_capacity(None)
}

/// [`install_session`] with an explicit span-buffer capacity; `None`
/// keeps the registry default. Spans past the capacity are dropped and
/// counted in `obs.spans_dropped`.
pub fn install_session_with_capacity(span_capacity: Option<usize>) -> Arc<Registry> {
    let reg = Arc::new(match span_capacity {
        Some(cap) => Registry::with_span_capacity(cap),
        None => Registry::new(),
    });
    set_session(Some(Arc::clone(&reg)));
    reg
}

/// Installs `reg` (or clears with `None`) as this thread's session
/// registry. [`par_tasks_merged`] uses this to give each worker task a
/// private session.
pub fn set_session(reg: Option<Arc<Registry>>) {
    SESSION.with(|s| *s.borrow_mut() = reg);
}

/// Clears the shared session registry; later worlds get private ones.
pub fn clear_session() {
    set_session(None);
}

/// The currently installed session registry, if any.
pub fn session() -> Option<Arc<Registry>> {
    SESSION.with(|s| s.borrow().clone())
}

/// Runs `n` independent tasks across up to `threads` workers and returns
/// their results in input order, folding each task's observability into the
/// calling thread's session registry.
///
/// When the caller has a session installed, every task gets a *fresh*
/// private registry (same span capacity) on its worker thread; after all
/// tasks finish, the per-task registries are merged into the caller's
/// session **in input order** via [`Registry::merge_from`]. The merge
/// rebases span ids past the session allocator, so the final registry
/// contents — metrics JSON, chrome trace, span ids — are byte-identical to
/// running the tasks serially against the shared session. Without a
/// session, tasks run with no session installed (worlds build private
/// registries), matching serial behavior.
pub fn par_tasks_merged<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let caller_session = session();
    let span_capacity = caller_session.as_ref().map(|r| r.span_capacity());
    let results = cudele_par::par_map_indexed(threads, n, |i| {
        let task_reg = caller_session.as_ref().map(|_| {
            Arc::new(match span_capacity {
                Some(cap) => Registry::with_span_capacity(cap),
                None => Registry::new(),
            })
        });
        set_session(task_reg.clone());
        let out = f(i);
        set_session(None);
        (out, task_reg)
    });
    // Restore the caller's session: with threads <= 1 the tasks ran on this
    // very thread and cleared it.
    set_session(caller_session.clone());
    let mut out = Vec::with_capacity(n);
    for (r, task_reg) in results {
        if let (Some(session), Some(task)) = (&caller_session, task_reg) {
            session.merge_from(&task);
        }
        out.push(r);
    }
    out
}

/// The observability sinks a command line asked for. See the module docs
/// for the flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsSinks {
    /// `--metrics-out`.
    pub metrics_out: Option<String>,
    /// `--trace-out`.
    pub trace_out: Option<String>,
    /// `--history-out`.
    pub history_out: Option<String>,
    /// `--timeline-out`.
    pub timeline_out: Option<String>,
    /// `--span-capacity`; `None` keeps the registry default.
    pub span_capacity: Option<usize>,
}

/// The requested sinks plus the session registry they activated.
pub struct ObsSession {
    sinks: ObsSinks,
    history_mode: String,
    slos: Vec<cudele_obs::slo::SloSpec>,
    reg: Option<Arc<Registry>>,
}

impl ObsSession {
    /// Installs a fresh session registry if any sink was requested.
    pub fn new(sinks: ObsSinks) -> ObsSession {
        let any = sinks.metrics_out.is_some()
            || sinks.trace_out.is_some()
            || sinks.history_out.is_some()
            || sinks.timeline_out.is_some();
        ObsSession {
            reg: any.then(|| install_session_with_capacity(sinks.span_capacity)),
            sinks,
            history_mode: "rpc".to_string(),
            slos: Vec::new(),
        }
    }

    /// [`ObsSession::new`] over the sink flags of an argument list (element
    /// 0 is the program name). Flags it does not know belong to the
    /// binary's other parsers and are skipped; a sink flag with no value, or
    /// a `--span-capacity` that is not a number, is an error.
    pub fn from_argv(argv: &[String]) -> Result<ObsSession, String> {
        let mut sinks = ObsSinks::default();
        let mut i = 1;
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 2;
            argv.get(*i - 1)
                .cloned()
                .ok_or_else(|| format!("{} requires a value", argv[*i - 2]))
        };
        while i < argv.len() {
            match argv[i].as_str() {
                "--metrics-out" => sinks.metrics_out = Some(value(&mut i)?),
                "--trace-out" => sinks.trace_out = Some(value(&mut i)?),
                "--history-out" => sinks.history_out = Some(value(&mut i)?),
                "--timeline-out" => sinks.timeline_out = Some(value(&mut i)?),
                "--span-capacity" => {
                    let cap = value(&mut i)?;
                    sinks.span_capacity = Some(
                        cap.parse()
                            .map_err(|e| format!("bad --span-capacity: {e}"))?,
                    );
                }
                _ => i += 1,
            }
        }
        Ok(ObsSession::new(sinks))
    }

    /// [`ObsSession::from_argv`] over the process arguments, for the figure
    /// binaries: a malformed sink flag prints the error and exits 2.
    pub fn from_env() -> ObsSession {
        let argv: Vec<String> = std::env::args().collect();
        ObsSession::from_argv(&argv).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// Declares the SLO objectives evaluated over the timeline before the
    /// snapshot is written (and stamped into its `slos` section).
    pub fn set_slos(&mut self, slos: Vec<cudele_obs::slo::SloSpec>) {
        self.slos = slos;
    }

    /// Declares the consistency mode (`rpc` or `decoupled`) stamped into
    /// the history file; `cudele-bench check` picks its axiom set from it.
    pub fn set_history_mode(&mut self, mode: &str) {
        self.history_mode = mode.to_string();
    }

    /// The session registry, when a sink was requested.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.reg.as_ref()
    }

    /// Writes the requested snapshots and uninstalls the session registry.
    /// A no-op when no sink was requested.
    pub fn finish(&self) -> std::io::Result<()> {
        let Some(reg) = &self.reg else { return Ok(()) };
        let write = |path: &str, body: String| {
            std::fs::write(path, body)
                .map_err(|e| std::io::Error::new(e.kind(), format!("{path}: {e}")))
        };
        if let Some(path) = &self.sinks.metrics_out {
            write(path, reg.metrics_json())?;
            eprintln!("metrics snapshot written to {path}");
        }
        if let Some(path) = &self.sinks.trace_out {
            write(path, reg.chrome_trace_json())?;
            eprintln!("chrome trace written to {path}");
        }
        if let Some(path) = &self.sinks.history_out {
            write(path, reg.history_json(&self.history_mode))?;
            eprintln!("consistency history written to {path}");
        }
        if let Some(path) = &self.sinks.timeline_out {
            let mut snap = reg.timeline().snapshot();
            snap.slos = cudele_obs::slo::evaluate(&snap, &self.slos);
            write(path, snap.to_json())?;
            eprintln!("telemetry timeline written to {path}");
        }
        clear_session();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_flags_no_session() {
        clear_session();
        let argv = vec!["prog".to_string(), "--quick".to_string()];
        let s = ObsSession::from_argv(&argv).unwrap();
        assert!(s.registry().is_none());
        assert!(session().is_none());
        s.finish().unwrap();
    }

    #[test]
    fn flags_install_and_finish_clears() {
        let dir = std::env::temp_dir();
        let mpath = dir.join("cudele-obs-out-test-metrics.json");
        let argv = vec![
            "prog".to_string(),
            "--metrics-out".to_string(),
            mpath.to_string_lossy().into_owned(),
        ];
        let s = ObsSession::from_argv(&argv).unwrap();
        let reg = s.registry().expect("session installed").clone();
        assert!(Arc::ptr_eq(&reg, &session().unwrap()));
        reg.counter("bench.test.counter").add(3);
        s.finish().unwrap();
        assert!(session().is_none());
        let written = std::fs::read_to_string(&mpath).unwrap();
        cudele_obs::json::validate(&written).expect("valid JSON");
        assert!(written.contains("\"bench.test.counter\": 3"));
        let _ = std::fs::remove_file(&mpath);
    }

    #[test]
    fn malformed_sink_flags_are_errors_not_ignored() {
        clear_session();
        let argv = |args: &[&str]| -> Vec<String> {
            std::iter::once("prog")
                .chain(args.iter().copied())
                .map(str::to_string)
                .collect()
        };
        for (args, want) in [
            (
                &["--quick", "--metrics-out"][..],
                "--metrics-out requires a value",
            ),
            (&["--timeline-out"][..], "--timeline-out requires a value"),
            (&["--span-capacity"][..], "--span-capacity requires a value"),
            (
                &["--span-capacity", "abc", "--trace-out", "t.json"][..],
                "bad --span-capacity",
            ),
        ] {
            let err = ObsSession::from_argv(&argv(args)).err().expect("rejected");
            assert!(err.starts_with(want), "{args:?}: {err}");
            assert!(
                session().is_none(),
                "{args:?}: a rejected line installs nothing"
            );
        }
        // A timeline alone activates the session, at the requested capacity;
        // other parsers' flags pass through.
        let s = ObsSession::from_argv(&argv(&[
            "--threads",
            "4",
            "--span-capacity",
            "16",
            "--timeline-out",
            "tl.json",
        ]))
        .unwrap();
        assert_eq!(s.registry().expect("session installed").span_capacity(), 16);
        clear_session();
    }
}
