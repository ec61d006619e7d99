#!/bin/sh
# Logic lines of Rust source: for every *.rs file under the given paths, cut
# the file at its first `#[cfg(test)]`, drop blank lines and lines that are
# only a `//` comment (doc comments included), and count what is left. Prints
# one line per file and the total — the counting rule "net negative" claims in
# CHANGES.md are made with.
#
#     scripts/logic_lines.sh crates/mds/src crates/journal/src
set -eu
[ $# -gt 0 ] || { echo "usage: $0 PATH..." >&2; exit 2; }
find "$@" -type f -name '*.rs' | LC_ALL=C sort | while read -r f; do
    n=$(awk '/#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*(\/\/|$)/ { n++ } END { print n + 0 }' "$f")
    printf '%6d %s\n' "$n" "$f"
done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'
