//! The calibration kernel: a fixed amount of work shaped like the stack's
//! own (name formatting, ordered- and hashed-map inserts and lookups,
//! small heap allocations), timed right before and right after every
//! measured region.
//!
//! The box this benchmark runs on is shared and drifts: the same binary
//! is up to ~15 % slower a minute later. A time metric is therefore
//! reported *normalised*: multiplied (rates) or divided (durations) by
//! how long the kernel took next to it, relative to [`REFERENCE_S`]. A
//! machine-wide slowdown stretches both and cancels.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Names formatted, inserted and looked up by one kernel run.
pub const KERNEL_ITEMS: u64 = 30_000;

/// The kernel's duration on the machine the first baseline was taken on
/// (2-core Xeon @ 2.10 GHz). Only the ratio to it matters; it keeps
/// normalised values in real units.
pub const REFERENCE_S: f64 = 0.0135;

/// Runs the kernel once and returns its checksum (a pure function of
/// [`KERNEL_ITEMS`]).
pub fn kernel() -> u64 {
    let mut ordered: BTreeMap<String, u64> = BTreeMap::new();
    let mut hashed: HashMap<u64, u64> = HashMap::new();
    let mut acc = 0u64;
    for i in 0..KERNEL_ITEMS {
        let name = format!("file.{}.{}", i % 7, i);
        acc = acc
            .rotate_left(5)
            .wrapping_add(name.len() as u64)
            .wrapping_add(u64::from(name.as_bytes()[name.len() - 1]));
        hashed.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i);
        ordered.insert(name, i);
    }
    for i in (0..KERNEL_ITEMS).step_by(3) {
        let name = format!("file.{}.{}", i % 7, i);
        acc = acc.wrapping_add(ordered[&name]);
        acc ^= hashed[&i.wrapping_mul(0x9E37_79B9_7F4A_7C15)];
    }
    black_box(acc)
}

/// Kernel runs per reading: one run (~12 ms) is itself too noisy a
/// sample of the machine's speed.
const RUNS_PER_READING: u32 = 4;

/// Seconds one kernel run takes right now (mean of a few runs).
pub fn measure() -> f64 {
    let t = Instant::now();
    for _ in 0..RUNS_PER_READING {
        black_box(kernel());
    }
    t.elapsed().as_secs_f64() / f64::from(RUNS_PER_READING)
}

/// Machine-speed factor from the kernel timings adjacent to a measured
/// region: > 1 when the machine was slower than the reference.
pub fn slowdown(before_s: f64, after_s: f64) -> f64 {
    (before_s + after_s) / 2.0 / REFERENCE_S
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc;

    #[test]
    fn kernel_does_a_fixed_amount_of_work() {
        let a0 = alloc::counts();
        let first = kernel();
        let a1 = alloc::counts();
        let second = kernel();
        let a2 = alloc::counts();
        assert_eq!(first, second);
        assert_eq!(alloc::delta(a0, a1), alloc::delta(a1, a2));
        // One String per formatted name at least.
        assert!(alloc::delta(a0, a1).0 >= KERNEL_ITEMS + KERNEL_ITEMS / 3);
    }

    #[test]
    fn slowdown_is_relative_to_the_reference() {
        assert!((slowdown(REFERENCE_S, REFERENCE_S) - 1.0).abs() < 1e-12);
        assert!((slowdown(2.0 * REFERENCE_S, 2.0 * REFERENCE_S) - 2.0).abs() < 1e-12);
    }
}
