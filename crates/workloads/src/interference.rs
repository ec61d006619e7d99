//! The interfering client of Figures 3b, 3c, and 6b.
//!
//! "Each client creates files in private directories and at 30 seconds we
//! launch another process that creates files in those directories"; the
//! interferer "creat\[es\] 1000 files in each directory", introducing false
//! sharing that makes the MDS revoke directory capabilities.

use cudele_sim::Nanos;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Parameters for the interfering client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interference {
    /// When the interferer starts (paper: 30 s into the run).
    pub start: Nanos,
    /// Files it creates in each victim directory (paper: 1000).
    pub files_per_dir: u64,
    /// Seed controlling the order it visits victim directories (the
    /// paper's three runs differ in exactly this kind of timing detail,
    /// which is where the "interference" curve's variance comes from).
    pub seed: u64,
}

impl Interference {
    /// The paper's configuration.
    pub fn paper_default(seed: u64) -> Interference {
        Interference {
            start: Nanos::from_secs(30),
            files_per_dir: 1000,
            seed,
        }
    }

    /// The victim-directory visit order for this seed.
    pub fn visit_order(&self, n_dirs: u32) -> Vec<u32> {
        let mut order: Vec<u32> = (0..n_dirs).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        order.shuffle(&mut rng);
        order
    }

    /// The interferer's file name for its `i`-th create in dir `d` (names
    /// must not collide with the victims').
    pub fn file_name(&self, d: u32, i: u64) -> String {
        format!("intruder.{d}.{i}")
    }

    /// Total creates the interferer performs against `n_dirs` victims.
    pub fn total_ops(&self, n_dirs: u32) -> u64 {
        n_dirs as u64 * self.files_per_dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let i = Interference::paper_default(0);
        assert_eq!(i.start, Nanos::from_secs(30));
        assert_eq!(i.files_per_dir, 1000);
        assert_eq!(i.total_ops(20), 20_000);
    }

    #[test]
    fn visit_order_is_seeded_permutation() {
        let a = Interference::paper_default(1).visit_order(10);
        let b = Interference::paper_default(1).visit_order(10);
        let c = Interference::paper_default(2).visit_order(10);
        assert_eq!(a, b); // deterministic
        assert_ne!(a, c); // seed-dependent
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..10).collect::<Vec<u32>>()); // a permutation
    }

    #[test]
    fn names_disjoint_from_victims() {
        let i = Interference::paper_default(0);
        assert!(i.file_name(3, 7).starts_with("intruder."));
        assert_ne!(i.file_name(3, 7), crate::create_heavy::file_name(3, 7));
    }
}
