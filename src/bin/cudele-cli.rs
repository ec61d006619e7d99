//! `cudele-cli` — an administrator shell over a simulated Cudele cluster.
//!
//! Drives the same public API as the examples: mount clients, lay out the
//! namespace, decouple subtrees under policies (inline or from a policies
//! file), create files through whichever semantics the subtree carries,
//! and merge. Useful for exploring the semantics interactively:
//!
//! ```text
//! $ cargo run --bin cudele-cli
//! cudele> mount 1
//! cudele> mkdir -p /batch
//! cudele> decouple 1 /batch consistency=weak durability=local allocated_inodes=1000
//! cudele> create 1 /batch/out-0
//! cudele> ls 2 /batch          # empty: invisible to others pre-merge
//! cudele> merge 1 /batch
//! cudele> ls 2 /batch          # out-0
//! ```
//!
//! Also accepts a script on stdin (`cudele-cli < script.txt`) or as
//! arguments (`cudele-cli -c "mount 1; mkdir -p /x"`).

use std::io::{self, BufRead, Write};

use cudele::{parse_policies, CudeleFs, Policy};
use cudele_mds::ClientId;

/// Where the commands come from, as the argument list says.
enum Input {
    /// `-c SCRIPT`: the script's `;`-separated commands, then exit (an
    /// empty script when `-c` is last).
    Script(String),
    /// Standard input, prompting unless `--batch` is given.
    Stdin { prompt: bool },
}

/// Reads the argument list (element 0 is the program name); every list
/// means something, so this never fails.
fn parse_argv(args: &[String]) -> Input {
    match args.iter().position(|a| a == "-c") {
        Some(pos) => Input::Script(args.get(pos + 1).cloned().unwrap_or_default()),
        None => Input::Stdin {
            prompt: args.iter().all(|a| a != "--batch"),
        },
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut fs = CudeleFs::new();
    println!("cudele-cli — type `help` for commands, `quit` to exit");

    let interactive = match parse_argv(&args) {
        Input::Script(script) => {
            for cmd in script.split(';') {
                run_line(&mut fs, cmd.trim(), true);
            }
            return;
        }
        Input::Stdin { prompt } => prompt,
    };
    let stdin = io::stdin();
    loop {
        if interactive {
            print!("cudele> ");
            io::stdout().flush().ok();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let line = line.trim();
        if line == "quit" || line == "exit" {
            break;
        }
        if !run_line(&mut fs, line, true) {
            break;
        }
    }
}

/// Executes one command line; returns false on `quit`.
fn run_line(fs: &mut CudeleFs, line: &str, echo_errors: bool) -> bool {
    let words: Vec<&str> = line.split_whitespace().collect();
    let result = dispatch(fs, &words);
    if let Err(msg) = result {
        if echo_errors && !msg.is_empty() {
            eprintln!("error: {msg}");
        }
    }
    true
}

fn client_arg(words: &[&str], idx: usize) -> Result<ClientId, String> {
    words
        .get(idx)
        .and_then(|w| w.parse::<u32>().ok())
        .map(ClientId)
        .ok_or_else(|| format!("expected a client id at position {idx}"))
}

fn path_arg<'a>(words: &[&'a str], idx: usize) -> Result<&'a str, String> {
    words
        .get(idx)
        .copied()
        .filter(|p| p.starts_with('/'))
        .ok_or_else(|| format!("expected an absolute path at position {idx}"))
}

fn dispatch(fs: &mut CudeleFs, words: &[&str]) -> Result<(), String> {
    match words.first().copied() {
        None | Some("#") => Ok(()),
        Some("help") => {
            println!(
                "\
commands:
  mount <client>                       open a client session
  mkdir -p <path>                      admin mkdir (journaled)
  mkdir <client> <path>                mkdir through the client's semantics
  create <client> <path>               create a file
  ls <client> <path>                   list the global namespace
  exists <client> <path>               check a path (owner sees own writes)
  decouple <client> <path> [k=v ...]   set a policy (consistency=, durability=,
                                       allocated_inodes=, interfere=, composition=)
  merge <client> <path>                execute the subtree's merge composition
  transition <client> <path> [k=v ...] change semantics in place
  policy <path>                        show the effective policy
  monitor                              dump the monitor's subtree map
  tree                                 print the global namespace
  crash-mds / flush-mds                failure-injection controls
  quit"
            );
            Ok(())
        }
        Some("mount") => {
            let c = client_arg(words, 1)?;
            fs.mount(c).map_err(|e| e.to_string())?;
            println!("mounted {c}");
            Ok(())
        }
        Some("mkdir") if words.get(1) == Some(&"-p") => {
            let path = path_arg(words, 2)?;
            fs.mkdir_p(path).map_err(|e| e.to_string())?;
            println!("created {path}");
            Ok(())
        }
        Some("mkdir") => {
            let c = client_arg(words, 1)?;
            let path = path_arg(words, 2)?;
            fs.mkdir(c, path).map_err(|e| e.to_string())?;
            println!("created {path}");
            Ok(())
        }
        Some("create") => {
            let c = client_arg(words, 1)?;
            let path = path_arg(words, 2)?;
            fs.create(c, path).map_err(|e| e.to_string())?;
            Ok(())
        }
        Some("ls") => {
            let c = client_arg(words, 1)?;
            let path = path_arg(words, 2)?;
            let entries = fs.ls(c, path).map_err(|e| e.to_string())?;
            if entries.is_empty() {
                println!("(empty)");
            } else {
                for e in entries {
                    println!("{e}");
                }
            }
            Ok(())
        }
        Some("exists") => {
            let c = client_arg(words, 1)?;
            let path = path_arg(words, 2)?;
            println!("{}", if fs.exists(c, path) { "yes" } else { "no" });
            Ok(())
        }
        Some("decouple") | Some("transition") => {
            let verb = words[0];
            let c = client_arg(words, 1)?;
            let path = path_arg(words, 2)?;
            let policy = parse_kv_policy(&words[3..])?;
            if verb == "decouple" {
                fs.decouple(c, path, &policy).map_err(|e| e.to_string())?;
            } else {
                fs.transition(c, path, &policy).map_err(|e| e.to_string())?;
            }
            println!(
                "{path}: {}/{} -> {}",
                policy.consistency,
                policy.durability,
                policy.composition()
            );
            Ok(())
        }
        Some("merge") => {
            let c = client_arg(words, 1)?;
            let path = path_arg(words, 2)?;
            let report = fs.merge(c, path).map_err(|e| e.to_string())?;
            println!(
                "merged {} events in {} ({} mechanisms)",
                report.events,
                report.elapsed,
                report.per_mechanism.len()
            );
            Ok(())
        }
        Some("policy") => {
            let path = path_arg(words, 1)?;
            match fs.monitor().resolve(path) {
                Some((root, p)) => println!(
                    "{path} -> subtree {root}: {}/{} ({}), {} inodes, interfere={}",
                    p.consistency,
                    p.durability,
                    p.composition(),
                    p.allocated_inodes,
                    p.interfere
                ),
                None => println!("{path}: no policy (plain CephFS semantics)"),
            }
            Ok(())
        }
        Some("monitor") => {
            println!("monitor map version {}", fs.monitor().version());
            for (path, p, v) in fs.monitor().subtrees() {
                println!("  v{v} {path}: {}/{}", p.consistency, p.durability);
            }
            Ok(())
        }
        Some("tree") => {
            for (path, ftype) in fs.namespace().shape() {
                println!(
                    "{path}{}",
                    if matches!(ftype, cudele_journal::FileType::Dir) {
                        "/"
                    } else {
                        ""
                    }
                );
            }
            Ok(())
        }
        Some("flush-mds") => {
            fs.server_mut().flush_journal();
            println!("mdlog flushed");
            Ok(())
        }
        Some("crash-mds") => {
            fs.server_mut()
                .crash_and_recover()
                .map_err(|e| e.to_string())?;
            println!("MDS crashed and recovered from the object store");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?} (try `help`)")),
    }
}

/// Parses `k=v` tokens into a policy (or `file=<inline-yaml-with-\n>`).
fn parse_kv_policy(tokens: &[&str]) -> Result<Policy, String> {
    let mut text = String::new();
    for t in tokens {
        let (k, v) = t
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got {t:?}"))?;
        text.push_str(&format!("{k}: {v}\n"));
    }
    parse_policies(&text).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One argv word: a flag the shell reads, a near miss, or anything.
    fn arb_word() -> impl Strategy<Value = String> {
        prop_oneof![
            "-c|--batch|-C|--c|-|--",
            "[a-z0-9 ;/=_\\-]{0,24}",
            "[α-ωあ-ん]{1,4}",
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The argv decoder is total: `-c` wins wherever it stands and takes
        /// the next word (or nothing) as its script; otherwise `--batch`
        /// alone turns the prompt off.
        #[test]
        fn argv_parse_returns_and_follows_the_flags(
            words in proptest::collection::vec(arb_word(), 0..6),
        ) {
            let argv: Vec<String> = std::iter::once("cudele-cli".to_string()).chain(words).collect();
            match parse_argv(&argv) {
                Input::Script(script) => {
                    let pos = argv.iter().position(|a| a == "-c");
                    prop_assert!(pos.is_some(), "{argv:?}");
                    let next = pos.and_then(|p| argv.get(p + 1));
                    prop_assert_eq!(script.as_str(), next.map_or("", String::as_str));
                }
                Input::Stdin { prompt } => {
                    prop_assert!(!argv.iter().any(|a| a == "-c"), "{argv:?}");
                    prop_assert_eq!(prompt, !argv.iter().any(|a| a == "--batch"));
                }
            }
        }
    }
}
