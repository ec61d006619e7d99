//! Experiment harnesses: one module per figure/table of the paper's
//! evaluation, each with a `run(...)` function that regenerates the
//! figure's data as plotted series plus a rendered text table, and a thin
//! binary (`src/bin/figNN.rs`) that prints it.
//!
//! All experiments execute the *functional* stack (real namespace, real
//! journal bytes, real capability churn) under virtual time from
//! `cudele-sim`, so results are deterministic and hardware-independent.

pub mod ablations;
pub mod check;
pub mod fig2;
pub mod fig3a;
pub mod fig3b;
pub mod fig3c;
pub mod fig5;
pub mod fig6a;
pub mod fig6b;
pub mod fig6c;
pub mod mdbench;
pub mod obs_out;
pub mod open_loop_run;
pub mod regress;
pub mod table1;
pub mod timeline_view;
pub mod world;

pub use obs_out::ObsSession;
pub use open_loop_run::{run_open_loop, OpenLoopOutcome, OpenLoopProcess};
pub use world::{
    DecoupledCreateProcess, InterfererProcess, RpcCreateProcess, SpeculativeCreateProcess, World,
};

/// Scale for a figure run: `files_per_client` 100_000 reproduces the paper
/// exactly; smaller values preserve every normalized shape (costs are
/// per-event) and run faster.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub files_per_client: u64,
    /// Repetitions with different seeds (paper: 3).
    pub runs: u32,
}

impl Scale {
    /// Paper scale: 100 K creates per client, 3 seeded runs.
    pub fn paper() -> Scale {
        Scale {
            files_per_client: 100_000,
            runs: 3,
        }
    }

    /// Fast scale for tests and `--quick`.
    pub fn quick() -> Scale {
        Scale {
            files_per_client: 5_000,
            runs: 3,
        }
    }

    /// Reads `--quick`/`--full` from argv (default: paper scale).
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--quick") {
            Scale::quick()
        } else {
            Scale::paper()
        }
    }
}

/// Reads `--threads N` from the process arguments (default 1). Harness
/// binaries feed this to [`obs_out::par_tasks_merged`], which keeps every
/// output byte-identical to the serial run regardless of the value.
pub fn threads_from_args() -> usize {
    let argv: Vec<String> = std::env::args().collect();
    threads_from_argv(&argv)
}

/// [`threads_from_args`] over an explicit argument list (element 0 is
/// ignored as the program name). Exits with an error on a bad value.
pub fn threads_from_argv(argv: &[String]) -> usize {
    let Some(at) = argv.iter().skip(1).position(|a| a == "--threads") else {
        return 1;
    };
    let value = argv.get(at + 2).map(String::as_str).unwrap_or("");
    match cudele_par::parse_threads(value) {
        Ok(threads) => threads,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}
