//! Process-driven discrete-event engine.
//!
//! Experiments model each client (and each background daemon) as a
//! [`Process`]: a state machine that, when woken at virtual time `now`,
//! performs one action against the shared world (issues an RPC, appends a
//! journal event, starts a sync, ...) and tells the engine when to wake it
//! next. Shared resources inside the world ([`crate::resource`]) convert
//! actions into completion instants, which processes use as their next wake
//! time — this yields a closed-loop model: a client issues its next
//! operation only after the previous one completes. Open-loop workloads
//! instead register one process per arriving client with
//! [`Engine::add_arena`], whose start time is the arrival instant.
//!
//! The engine is deterministic: ties in wake time are broken by a
//! monotonically increasing sequence number, so two runs with the same seed
//! produce identical traces. Events are ordered by a hierarchical
//! calendar queue ([`crate::sched::CalendarQueue`]) whose pop order is
//! provably identical to the binary heap it replaced — near-O(1) per
//! event instead of O(log n), which is what makes million-client runs
//! interactive.
//!
//! # Process storage
//!
//! Registered processes live in a segmented table. [`Engine::add_process`]
//! boxes one heterogeneous process (the escape hatch every closed-loop
//! harness uses); [`Engine::add_arena`] stores a homogeneous `Vec<P>` of
//! processes — typically an enum of built-in client kinds — as one flat
//! allocation, so a million open-loop clients cost one `Vec`, not a
//! million heap boxes.

use crate::sched::CalendarQueue;
use crate::stats::percentile_of_sorted;
use crate::time::Nanos;

/// What a process wants after a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Wake this process again at the given instant (must be `>= now`).
    ResumeAt(Nanos),
    /// The process has finished its workload.
    Done,
}

/// A simulated actor. `W` is the shared world (resources + functional
/// state such as the metadata server).
pub trait Process<W> {
    /// Performs the next action at virtual time `now`.
    fn step(&mut self, now: Nanos, world: &mut W) -> Step;

    /// Label used in traces and error messages.
    fn name(&self) -> String {
        "process".to_string()
    }
}

/// Count + percentile summary of process completion instants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletionSummary {
    /// Processes that finished.
    pub count: u64,
    /// Median completion instant (ns).
    pub p50: u64,
    /// 95th-percentile completion instant (ns).
    pub p95: u64,
    /// 99th-percentile completion instant (ns).
    pub p99: u64,
    /// Latest completion instant (ns).
    pub max: u64,
}

/// Outcome of a finished simulation: one exact record at every scale.
/// [`Engine::run`] returns only once every registered process has returned
/// [`Step::Done`], so `completions` holds one instant per process.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Instant the last process finished.
    pub end_time: Nanos,
    /// Per-process completion instants, indexed by registration order.
    pub completions: Vec<Nanos>,
    /// Total number of process steps executed.
    pub steps: u64,
}

impl RunReport {
    /// Completion instant of the slowest process — the metric the paper
    /// plots for "slowdown of the slowest client" (Figures 3b, 6b).
    pub fn slowest(&self) -> Nanos {
        self.completions
            .iter()
            .copied()
            .max()
            .unwrap_or(Nanos::ZERO)
    }

    /// Completion instant of the slowest process among a subset, identified
    /// by registration index. Lets harnesses exclude e.g. the interfering
    /// client from the "slowest client" statistic.
    pub fn slowest_of(&self, indices: &[usize]) -> Nanos {
        indices
            .iter()
            .map(|&i| self.completions[i])
            .max()
            .unwrap_or(Nanos::ZERO)
    }

    /// Count + p50/p95/p99/max of completion instants: exact,
    /// rank-interpolated like [`crate::stats::percentile`], from one sort.
    /// All zero for a run with no processes.
    pub fn completion_summary(&self) -> CompletionSummary {
        let mut sorted: Vec<f64> = self.completions.iter().map(|c| c.0 as f64).collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let q = |p: f64| -> u64 {
            if sorted.is_empty() {
                0
            } else {
                percentile_of_sorted(&sorted, p).round() as u64
            }
        };
        CompletionSummary {
            count: sorted.len() as u64,
            p50: q(50.0),
            p95: q(95.0),
            p99: q(99.0),
            max: self.slowest().0,
        }
    }

    /// A one-object JSON summary of the run (virtual times in
    /// nanoseconds), for embedding in `--metrics-out` snapshots.
    /// Deterministic: depends only on the report's fields. Completion
    /// instants are summarized as count + p50/p95/p99/max, so the summary
    /// is a fixed size at any client count. `"unfinished"` is always 0 — a
    /// run ends when its last process does — and stays in the object so the
    /// bytes committed baselines and digests were recorded over do not move.
    pub fn summary_json(&self) -> String {
        let s = self.completion_summary();
        format!(
            "{{\"end_time_ns\": {}, \"slowest_ns\": {}, \"steps\": {}, \
\"finished\": {}, \"unfinished\": 0, \"completions_ns\": \
{{\"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}}}",
            self.end_time.0, s.max, self.steps, s.count, s.count, s.p50, s.p95, s.p99, s.max
        )
    }
}

/// A homogeneous slab of processes stepped by slot offset. Implemented
/// for `Vec<P>` so any process type — typically an enum of built-in
/// client kinds — can be stored flat.
trait ProcessSlab<W> {
    fn step(&mut self, off: usize, now: Nanos, world: &mut W) -> Step;
    fn name(&self, off: usize) -> String;
}

impl<W, P: Process<W>> ProcessSlab<W> for Vec<P> {
    fn step(&mut self, off: usize, now: Nanos, world: &mut W) -> Step {
        self[off].step(now, world)
    }

    fn name(&self, off: usize) -> String {
        self[off].name()
    }
}

/// One segment of the process table: a single boxed process (the
/// heterogeneous escape hatch) or a flat arena of one process type.
enum Segment<W> {
    One(Box<dyn Process<W>>),
    Arena(Box<dyn ProcessSlab<W>>),
}

impl<W> Segment<W> {
    fn step(&mut self, off: usize, now: Nanos, world: &mut W) -> Step {
        match self {
            Segment::One(p) => p.step(now, world),
            Segment::Arena(a) => a.step(off, now, world),
        }
    }

    fn name(&self, off: usize) -> String {
        match self {
            Segment::One(p) => p.name(),
            Segment::Arena(a) => a.name(off),
        }
    }
}

/// The discrete-event engine. Owns the world and the registered processes.
pub struct Engine<W> {
    world: W,
    segments: Vec<Segment<W>>,
    /// Registration index -> (segment, offset within segment).
    slots: Vec<(u32, u32)>,
    start_times: Vec<Nanos>,
}

/// Generous backstop against non-terminating processes; the largest paper
/// experiment (20 clients x 100K creates, several events per create) stays
/// well below this.
const MAX_STEPS: u64 = 2_000_000_000;

impl<W> Engine<W> {
    /// Creates an engine around a world.
    pub fn new(world: W) -> Self {
        Engine {
            world,
            segments: Vec::new(),
            slots: Vec::new(),
            start_times: Vec::new(),
        }
    }

    /// Registers a process that first wakes at `Nanos::ZERO`. Returns its
    /// index (used to read its completion time from the report).
    pub fn add_process(&mut self, p: Box<dyn Process<W>>) -> usize {
        self.add_process_at(p, Nanos::ZERO)
    }

    /// Registers a process that first wakes at `start` (e.g. the interfering
    /// client in Figure 3b starts 30 seconds into the run).
    pub fn add_process_at(&mut self, p: Box<dyn Process<W>>, start: Nanos) -> usize {
        self.segments.push(Segment::One(p));
        self.slots.push((self.segments.len() as u32 - 1, 0));
        self.start_times.push(start);
        self.slots.len() - 1
    }

    /// Registers a homogeneous batch of processes as one flat arena
    /// segment: `procs[k]` first wakes at `starts[k]`. Returns the
    /// registration index range. This is the million-client path — the
    /// whole batch is a single allocation, dispatched through one
    /// vtable call into `P`'s own (typically enum) dispatch.
    pub fn add_arena<P: Process<W> + 'static>(
        &mut self,
        procs: Vec<P>,
        starts: &[Nanos],
    ) -> std::ops::Range<usize> {
        assert_eq!(
            procs.len(),
            starts.len(),
            "add_arena: {} processes but {} start times",
            procs.len(),
            starts.len()
        );
        let first = self.slots.len();
        let seg = self.segments.len() as u32;
        for (k, &t) in starts.iter().enumerate() {
            self.slots.push((seg, k as u32));
            self.start_times.push(t);
        }
        self.segments.push(Segment::Arena(Box::new(procs)));
        first..self.slots.len()
    }

    /// Read-only access to the world (useful before `run`).
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (useful for seeding state before `run`).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Runs all processes to completion and returns the world plus a report.
    ///
    /// Panics if a process schedules a wake-up in the past (a logic error in
    /// the process) or if the step backstop is exceeded.
    pub fn run(self) -> (W, RunReport) {
        let Engine {
            mut world,
            mut segments,
            slots,
            start_times,
        } = self;
        let mut queue = CalendarQueue::new();
        let mut seq: u64 = 0;
        for (i, &t) in start_times.iter().enumerate() {
            queue.push(t, seq, i as u32);
            seq += 1;
        }

        let mut completions = vec![Nanos::ZERO; slots.len()];
        let mut end_time = Nanos::ZERO;
        let mut steps: u64 = 0;

        while let Some((now, _, idx)) = queue.pop() {
            let idx = idx as usize;
            steps += 1;
            if steps > MAX_STEPS {
                let (seg, off) = slots[idx];
                panic!(
                    "simulation exceeded {} steps at t={now}; runaway process `{}`?",
                    MAX_STEPS,
                    segments[seg as usize].name(off as usize)
                );
            }
            let (seg, off) = slots[idx];
            match segments[seg as usize].step(off as usize, now, &mut world) {
                Step::ResumeAt(next) => {
                    assert!(
                        next >= now,
                        "process `{}` scheduled wake-up in the past ({next} < {now})",
                        segments[seg as usize].name(off as usize)
                    );
                    queue.push(next, seq, idx as u32);
                    seq += 1;
                }
                Step::Done => {
                    completions[idx] = now;
                    end_time = end_time.max(now);
                }
            }
        }

        (
            world,
            RunReport {
                end_time,
                completions,
                steps,
            },
        )
    }
}

/// A ready-made process that performs a fixed number of operations, each
/// costed by a closure. Covers the common "closed-loop client doing K ops"
/// pattern; richer clients implement [`Process`] directly.
pub struct ClosedLoopClient<W, F>
where
    F: FnMut(Nanos, &mut W) -> Nanos,
{
    name: String,
    remaining: u64,
    op: F,
    _marker: std::marker::PhantomData<W>,
}

impl<W, F> ClosedLoopClient<W, F>
where
    F: FnMut(Nanos, &mut W) -> Nanos,
{
    /// `op(now, world)` performs one operation and returns its completion
    /// instant; the client immediately issues the next operation then.
    pub fn new(name: impl Into<String>, ops: u64, op: F) -> Self {
        ClosedLoopClient {
            name: name.into(),
            remaining: ops,
            op,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<W, F> Process<W> for ClosedLoopClient<W, F>
where
    F: FnMut(Nanos, &mut W) -> Nanos,
{
    fn step(&mut self, now: Nanos, world: &mut W) -> Step {
        if self.remaining == 0 {
            return Step::Done;
        }
        self.remaining -= 1;
        let done = (self.op)(now, world);
        if self.remaining == 0 {
            // Report completion at the instant the last op finished, not at
            // a zero-length extra wake-up.
            if done == now {
                return Step::Done;
            }
        }
        Step::ResumeAt(done)
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::FifoServer;

    struct World {
        server: FifoServer,
        log: Vec<(Nanos, &'static str)>,
    }

    #[test]
    fn single_closed_loop_client() {
        let world = World {
            server: FifoServer::new("s"),
            log: Vec::new(),
        };
        let mut eng = Engine::new(world);
        eng.add_process(Box::new(ClosedLoopClient::new(
            "c",
            3,
            |now, w: &mut World| w.server.serve(now, Nanos(100)),
        )));
        let (w, report) = eng.run();
        // Three back-to-back 100ns ops.
        assert_eq!(report.slowest(), Nanos(300));
        assert_eq!(w.server.served(), 3);
        assert_eq!(report.completions, vec![Nanos(300)]);
    }

    #[test]
    fn two_clients_share_a_server() {
        let world = World {
            server: FifoServer::new("s"),
            log: Vec::new(),
        };
        let mut eng = Engine::new(world);
        for i in 0..2 {
            eng.add_process(Box::new(ClosedLoopClient::new(
                format!("c{i}"),
                2,
                |now, w: &mut World| w.server.serve(now, Nanos(100)),
            )));
        }
        let (w, report) = eng.run();
        // 4 ops of 100ns serialize through one server: finished at 400ns.
        assert_eq!(report.slowest(), Nanos(400));
        assert_eq!(w.server.served(), 4);
        // Each client individually finished its 2 ops no earlier than 300ns
        // (its second op queued behind the other client's).
        assert!(report.completions.iter().all(|&c| c >= Nanos(300)));
    }

    #[test]
    fn delayed_start_process() {
        let world = World {
            server: FifoServer::new("s"),
            log: Vec::new(),
        };
        let mut eng = Engine::new(world);
        let idx = eng.add_process_at(
            Box::new(ClosedLoopClient::new("late", 1, |now, w: &mut World| {
                w.log.push((now, "late-op"));
                w.server.serve(now, Nanos(10))
            })),
            Nanos(500),
        );
        let (w, report) = eng.run();
        assert_eq!(w.log, vec![(Nanos(500), "late-op")]);
        assert_eq!(report.completions[idx], Nanos(510));
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Two processes waking at the same instant always run in
        // registration order on the first wake.
        let world = World {
            server: FifoServer::new("s"),
            log: Vec::new(),
        };
        let mut eng = Engine::new(world);
        eng.add_process(Box::new(ClosedLoopClient::new(
            "a",
            1,
            |now, w: &mut World| {
                w.log.push((now, "a"));
                now + Nanos(1)
            },
        )));
        eng.add_process(Box::new(ClosedLoopClient::new(
            "b",
            1,
            |now, w: &mut World| {
                w.log.push((now, "b"));
                now + Nanos(1)
            },
        )));
        let (w, _) = eng.run();
        assert_eq!(w.log[0].1, "a");
        assert_eq!(w.log[1].1, "b");
    }

    #[test]
    #[should_panic(expected = "wake-up in the past")]
    fn past_wakeup_panics() {
        struct Bad;
        impl Process<()> for Bad {
            fn step(&mut self, now: Nanos, _: &mut ()) -> Step {
                if now == Nanos::ZERO {
                    Step::ResumeAt(Nanos(100))
                } else {
                    Step::ResumeAt(Nanos(50))
                }
            }
        }
        let mut eng = Engine::new(());
        eng.add_process(Box::new(Bad));
        let _ = eng.run();
    }

    #[test]
    fn slowest_of_subset() {
        let report = RunReport {
            end_time: Nanos(100),
            completions: vec![Nanos(10), Nanos(100), Nanos(50)],
            steps: 3,
        };
        assert_eq!(report.slowest(), Nanos(100));
        assert_eq!(report.slowest_of(&[0, 2]), Nanos(50));
    }

    #[test]
    fn arena_processes_run_like_boxed_ones() {
        // Same schedule through the arena path and the boxed path.
        let mk = |i: u64| {
            ClosedLoopClient::new(format!("arena{i}"), 2, move |now, w: &mut World| {
                w.server.serve(now, Nanos(100))
            })
        };
        let world = World {
            server: FifoServer::new("s"),
            log: Vec::new(),
        };
        let mut eng = Engine::new(world);
        let range = eng.add_arena(vec![mk(0), mk(1)], &[Nanos::ZERO, Nanos::ZERO]);
        assert_eq!(range, 0..2);
        let (w, report) = eng.run();
        assert_eq!(report.slowest(), Nanos(400));
        assert_eq!(w.server.served(), 4);
        assert_eq!(report.completions.len(), 2);
    }

    #[test]
    fn arena_and_boxed_interleave_in_registration_order() {
        let world = World {
            server: FifoServer::new("s"),
            log: Vec::new(),
        };
        let mut eng = Engine::new(world);
        eng.add_process(Box::new(ClosedLoopClient::new(
            "boxed",
            1,
            |now, w: &mut World| {
                w.log.push((now, "boxed"));
                now + Nanos(1)
            },
        )));
        let arena = vec![ClosedLoopClient::new("arena", 1, |now, w: &mut World| {
            w.log.push((now, "arena"));
            now + Nanos(1)
        })];
        eng.add_arena(arena, &[Nanos::ZERO]);
        let (w, _) = eng.run();
        // Same-instant tie: registration order wins.
        assert_eq!(w.log[0].1, "boxed");
        assert_eq!(w.log[1].1, "arena");
    }

    #[test]
    fn completion_summary_is_the_exact_percentile_of_completions() {
        let world = World {
            server: FifoServer::new("s"),
            log: Vec::new(),
        };
        let mut eng = Engine::new(world);
        let procs: Vec<_> = (0..100)
            .map(|i| {
                ClosedLoopClient::new(format!("c{i}"), 1, |now, _: &mut World| now + Nanos(10))
            })
            .collect();
        // Registered latest-first, so `completions` is not already sorted.
        let starts: Vec<Nanos> = (0..100).rev().map(|i| Nanos(i * 1_000)).collect();
        eng.add_arena(procs, &starts);
        let (_, report) = eng.run();
        assert_eq!(report.completions.len(), 100);
        assert_eq!(report.completions[0], Nanos(99_010));
        let xs: Vec<f64> = report.completions.iter().map(|c| c.0 as f64).collect();
        assert_eq!(
            report.completion_summary(),
            CompletionSummary {
                count: 100,
                p50: crate::stats::p50(&xs).round() as u64,
                p95: crate::stats::p95(&xs).round() as u64,
                p99: crate::stats::p99(&xs).round() as u64,
                max: 99_010,
            }
        );
        assert_eq!(report.completion_summary().p50, 49_510);
        assert_eq!(report.slowest(), report.end_time);
    }

    #[test]
    fn summary_json_shape() {
        let report = RunReport {
            end_time: Nanos(100),
            completions: vec![Nanos(50), Nanos(100)],
            steps: 4,
        };
        assert_eq!(
            report.summary_json(),
            "{\"end_time_ns\": 100, \"slowest_ns\": 100, \"steps\": 4, \
\"finished\": 2, \"unfinished\": 0, \"completions_ns\": \
{\"count\": 2, \"p50\": 75, \"p95\": 98, \"p99\": 100, \"max\": 100}}"
        );
    }
}
