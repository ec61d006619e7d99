//! Every design gate in `scripts/gates.tsv`, run by `scripts/gates.sh` over
//! this tree: `cargo test` fails on any gate hit, as CI's lint job does.
//!
//! The runner is checked too, in small git trees of its own: one row of
//! each kind, cut, exclusion and named function must pass clean, and each
//! must fail alone once its one hit is planted. A runner that passes
//! everything, or fails everything, fails here.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs the gate runner in `dir`: whether it passed, and what it printed.
fn run_gates(dir: &Path) -> (bool, String) {
    let runner = Path::new(env!("CARGO_MANIFEST_DIR")).join("scripts/gates.sh");
    let out = Command::new("sh")
        .arg(runner)
        .current_dir(dir)
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    (out.status.success(), text.into_owned())
}

#[test]
fn the_tree_passes_every_gate() {
    let (passed, out) = run_gates(Path::new(env!("CARGO_MANIFEST_DIR")));
    assert!(passed && out.ends_with(" rows, 0 failed\n"), "{out}");
}

/// One row of each kind, cut, exclusion and named function, one per line:
/// the row (`D` is its own directory), then after ` | ` its `D/a.rs` clean
/// (`-`: no file), then with its one hit planted; `~` breaks a line. Each
/// directory also holds `skip.rs`, a hit only the exclusion skips.
const ROWS: &str = "\
absent\tabsent\t-\tD\tbanned | fine | banned
excluded\tabsent\t-\tD :!*/skip.rs\tskipped | fine | skipped
cfg cut\tabsent\tcfg_test\tD/*.rs\thidden | #[cfg(test)]~hidden | hidden
mod cut\tabsent\tmod_tests\tD\thidden | mod tests {~hidden | hidden
range cut\tabsent\t/^struct Body {/,/^}/\tD\t^\\s+now:[ ] | struct A {~ now: u8,~}~struct Body {~} | struct Body {~ now: u8,~}
exact count\tcount==2\t-\tD\tpair | pair~pair | pair~pair~pair
bounded count\tcount<=1\t-\tD\tone | one | one~one
present\tpresent\t-\tD/a.rs\tmust | must | else
no file\tno_file\t-\tD/a.rs\t- | - | x
obs attachment\tfn\tcfg_test\tD\thandles_only | impl AObs {~ r.counter(\"x\");~}~#[cfg(test)]~ r.counter(\"y\"); | impl A {~ r.counter(\"x\");~}
dense table\tfn\t-\tD/a.rs\ttest_cut_at_mod_tests | #[cfg(test)]~mod tests {} | #[cfg(test)]~fn f() {}~mod tests {}
";

/// A fresh git work tree under the test's scratch directory: the table of
/// `rows` and each row's `a.rs` (planted for row `plant`) and `skip.rs`,
/// none of them committed (the runner reads untracked files too). Returns
/// it and the rows' names.
fn tree(name: &str, rows: &str, plant: Option<usize>) -> (PathBuf, Vec<String>) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("scripts")).unwrap();
    let mut git = Command::new("git");
    assert!(git
        .args(["init", "-q"])
        .current_dir(&dir)
        .status()
        .unwrap()
        .success());
    let (mut table, mut names) = (String::new(), Vec::new());
    for (i, line) in rows.lines().enumerate() {
        let d = dir.join(format!("r{i}"));
        let [row, clean, planted] = line.split(" | ").collect::<Vec<_>>()[..] else {
            panic!("{line}");
        };
        table += &format!("{}\n", row.replace('D', &format!("r{i}")));
        names.push(row.split('\t').next().unwrap().to_string());
        fs::create_dir_all(&d).unwrap();
        fs::write(d.join("skip.rs"), "skipped\n").unwrap();
        let text = if plant == Some(i) { planted } else { clean };
        if text != "-" {
            fs::write(d.join("a.rs"), text.replace('~', "\n") + "\n").unwrap();
        }
    }
    fs::write(dir.join("scripts/gates.tsv"), table).unwrap();
    (dir, names)
}

#[test]
fn the_runner_passes_a_clean_tree_and_fails_each_planted_hit() {
    let (dir, names) = tree("gates-clean", ROWS, None);
    let (passed, out) = run_gates(&dir);
    assert!(
        passed && out.ends_with(&format!(" {} rows, 0 failed\n", names.len())),
        "{out}"
    );
    for (i, row) in names.iter().enumerate() {
        let (passed, out) = run_gates(&tree(&format!("gates-plant-{i}"), ROWS, Some(i)).0);
        let alone = out.contains(&format!("gates: FAIL {row}: ")) && out.ends_with(" 1 failed\n");
        assert!(!passed && alone, "row `{row}` and its planted hit:\n{out}");
    }
}

/// A row the runner cannot read fails rather than passing unread.
#[test]
fn a_row_the_runner_cannot_read_fails() {
    let rows = "\
bad pattern\tabsent\t-\tD\tunclosed(group | x | -
bad cut\tabsent\t/unclosed\tD\tx | x | -
bad kind\tcount~~1\t-\tD\tx | x | -
no function\tfn\t-\tD\tno_such_gate | x | -
";
    let (passed, out) = run_gates(&tree("gates-bad-rows", rows, None).0);
    assert!(!passed && out.ends_with(" 4 rows, 4 failed\n"), "{out}");
}
