//! The engine's ordering contract: processes step in the total order by
//! `(time, seq)`, where a first wake's `seq` is its registration index and
//! every resume a step returns takes the next value of a counter that
//! starts at the number of processes. [`Engine::run`] walks sorted start
//! times beside a heap of resumes; these properties hold its step log and
//! [`RunReport`] equal to a reference that keeps every wake in one
//! `BinaryHeap<Reverse<(t, seq, idx)>>` — same-instant ties between starts,
//! between resumes and between a start and a resume, zero-length resumes,
//! unsorted starts, and boxed processes interleaved with arenas included.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cudele_sim::{Engine, Nanos, Process, RunReport, Step};
use proptest::collection::vec;
use proptest::prelude::*;

/// The world: the `(now, registration index)` of every step, in order.
type Log = Vec<(Nanos, u32)>;

/// A process that logs each wake and resumes after the next delay of its
/// script, until the script runs out.
struct Scripted {
    idx: u32,
    delays: Vec<u64>,
    next: usize,
}

impl Scripted {
    fn new(idx: usize, delays: &[u64]) -> Scripted {
        Scripted {
            idx: idx as u32,
            delays: delays.to_vec(),
            next: 0,
        }
    }

    fn wake(&mut self, now: Nanos) -> Step {
        let Some(&d) = self.delays.get(self.next) else {
            return Step::Done;
        };
        self.next += 1;
        Step::ResumeAt(now + Nanos(d))
    }
}

impl Process<Log> for Scripted {
    fn step(&mut self, now: Nanos, log: &mut Log) -> Step {
        log.push((now, self.idx));
        self.wake(now)
    }
}

/// A process's first wake and its resume delays.
type Spec = (u64, Vec<u64>);

/// One registration: a boxed process through `add_process_at`, or a batch
/// through `add_arena`.
#[derive(Debug, Clone)]
enum Reg {
    One(Spec),
    Arena(Vec<Spec>),
}

/// Registers `regs` in order and runs the engine.
fn run_engine(regs: &[Reg]) -> (Log, RunReport) {
    let mut eng = Engine::new(Log::new());
    let mut n = 0;
    for reg in regs {
        match reg {
            Reg::One((start, delays)) => {
                assert_eq!(
                    eng.add_process_at(Box::new(Scripted::new(n, delays)), Nanos(*start)),
                    n
                );
                n += 1;
            }
            Reg::Arena(specs) => {
                let procs = (n..)
                    .zip(specs)
                    .map(|(i, (_, delays))| Scripted::new(i, delays))
                    .collect();
                let starts: Vec<Nanos> = specs.iter().map(|&(t, _)| Nanos(t)).collect();
                assert_eq!(eng.add_arena(procs, &starts), n..n + specs.len());
                n += specs.len();
            }
        }
    }
    eng.run()
}

/// The same run with every wake — first or resumed — in one heap.
fn run_reference(regs: &[Reg]) -> (Log, RunReport) {
    let specs: Vec<&Spec> = regs
        .iter()
        .flat_map(|reg| match reg {
            Reg::One(spec) => std::slice::from_ref(spec),
            Reg::Arena(specs) => specs.as_slice(),
        })
        .collect();
    let mut procs: Vec<Scripted> = specs
        .iter()
        .enumerate()
        .map(|(i, (_, delays))| Scripted::new(i, delays))
        .collect();
    let mut heap: BinaryHeap<Reverse<(Nanos, u64, u32)>> = specs
        .iter()
        .enumerate()
        .map(|(i, &&(t, _))| Reverse((Nanos(t), i as u64, i as u32)))
        .collect();
    let mut seq = specs.len() as u64;
    let mut log = Log::new();
    let mut completions = vec![Nanos::ZERO; specs.len()];
    let mut end_time = Nanos::ZERO;
    let mut steps = 0;
    while let Some(Reverse((now, _, idx))) = heap.pop() {
        steps += 1;
        log.push((now, idx));
        match procs[idx as usize].wake(now) {
            Step::ResumeAt(t) => {
                heap.push(Reverse((t, seq, idx)));
                seq += 1;
            }
            Step::Done => {
                completions[idx as usize] = now;
                end_time = end_time.max(now);
            }
        }
    }
    let report = RunReport {
        end_time,
        completions,
        steps,
    };
    (log, report)
}

fn check(regs: &[Reg]) -> Result<(), TestCaseError> {
    let (log, report) = run_engine(regs);
    let (ref_log, ref_report) = run_reference(regs);
    prop_assert_eq!(log, ref_log);
    prop_assert_eq!(report.steps, ref_report.steps);
    prop_assert_eq!(report.end_time, ref_report.end_time);
    prop_assert_eq!(report.completions, ref_report.completions);
    Ok(())
}

/// Wake distances that tie often: zero (a same-instant resume), a few
/// fixed instants, and spreads from a microsecond to beyond a day.
fn delay() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..1,
        (0u64..4).prop_map(|k| k * 1_000),
        1u64..4_096,
        4_096u64..(1 << 24),
        (1u64 << 24)..(1 << 50),
    ]
}

/// Starts on a few shared instants or spread wide, and up to five resumes.
fn wide_spec() -> impl Strategy<Value = Spec> {
    let start = prop_oneof![(0u64..4).prop_map(|k| k * 1_000), 0u64..(1 << 40)];
    (start, vec(delay(), 0..6))
}

/// Every start and every resume on one of two instants, so the order is
/// decided by `seq` alone.
fn storm_spec() -> impl Strategy<Value = Spec> {
    (0u64..2, vec(0u64..2, 0..4))
        .prop_map(|(t, d)| (t * 1_000, d.into_iter().map(|k| k * 1_000).collect()))
}

/// Up to nine registrations, each one boxed process or an arena of up to
/// `arena - 1` (an empty arena included).
fn regs<S: Strategy<Value = Spec> + 'static>(
    spec: fn() -> S,
    arena: usize,
) -> impl Strategy<Value = Vec<Reg>> {
    let reg = prop_oneof![
        spec().prop_map(Reg::One),
        vec(spec(), 0..arena).prop_map(Reg::Arena),
    ];
    vec(reg, 1..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn engine_steps_in_the_reference_heap_order(regs in regs(wide_spec, 24)) {
        check(&regs)?;
    }

    #[test]
    fn tie_storms_resolve_by_seq(regs in regs(storm_spec, 32)) {
        check(&regs)?;
    }
}

/// A start ties ahead of a resume at the same instant, whichever was
/// registered first.
#[test]
fn a_start_steps_before_a_resume_at_the_same_instant() {
    let regs = [Reg::One((0, vec![5])), Reg::One((5, vec![]))];
    let (log, _) = run_engine(&regs);
    assert_eq!(log, vec![(Nanos(0), 0), (Nanos(5), 1), (Nanos(5), 0)]);
}

/// Many same-instant starts, registered out of time order, step in
/// registration order within each instant.
#[test]
fn same_instant_starts_step_in_registration_order() {
    let specs: Vec<Spec> = (0..100).map(|i| (1_000 * (i % 3), vec![])).collect();
    let (log, _) = run_engine(&[Reg::Arena(specs)]);
    let expect: Log = (0..3)
        .flat_map(|t| {
            (0..100)
                .filter(move |i| i % 3 == t)
                .map(move |i| (Nanos(1_000 * t), i as u32))
        })
        .collect();
    assert_eq!(log, expect);
}
