#!/bin/sh
# Runs every row of scripts/gates.tsv (its header says what a row holds) over
# the git tree in the working directory: prints each hit as path:line:text,
# one summary line per failing row and a total, and exits 1 if a row fails.
# No flags, no environment. Run it from the repository root.

set -f # pathspecs such as `*.rs` are git's to expand, not the shell's
table=scripts/gates.tsv
[ -r "$table" ] || { echo "gates: no $table in $(pwd)" >&2; exit 2; }
git rev-parse --git-dir >/dev/null || exit 2

# The files the pathspecs name that hold a line: tracked, or untracked and
# not ignored.
files() { git grep --untracked -l -e '' -- "$@"; }

# File $2 with the lines outside cut $1 blanked, so line numbers hold.
cut_lines() {
	case $1 in
	-) cat "$2" ;;
	cfg_test) sed '0,/#\[cfg(test)\]/!s/.*//' "$2" ;;
	mod_tests) sed '0,/^mod tests/!s/.*//' "$2" ;;
	*) sed "$1!s/.*//" "$2" ;;
	esac
}

# Lines matching ERE $2 within cut $1 of each file after them.
hits() {
	cut=$1 re=$2
	shift 2
	[ $# -gt 0 ] || return 0
	if [ "$cut" = - ]; then grep -HnE -- "$re" "$@"; return 0; fi
	for f; do cut_lines "$cut" "$f" | grep -nE -- "$re" | sed "s#^#$f:#"; done
}

# one obs attachment: a literal or format! name resolved outside an
# `impl …Obs` / `impl WorldHandles` block or a `handles!` declaration of
# one. A call split after its `(` is read with the next line.
gate_handles_only() {
	cut=$1
	shift
	for f; do
		cut_lines "$cut" "$f" | awk '
			/^impl/ { imp = $0 } /^}/ { imp = "" }
			/^[a-z_:]*handles! \{/ { imp = "handles!" }
			imp == "handles!" && /^    [a-z()]* *struct [A-Za-z]+\(/ { imp = $0 }
			pend { if ($0 ~ /^[ \t]*&?("|format!)/ && imp !~ /(Obs|WorldHandles)[ <{(]/) print FNR - 1 ":" prev; pend = 0 }
			/\.(counter|gauge|histogram|series|span_name|arg_key|mechanism)\([ \t]*&?("|format!)/ && imp !~ /(Obs|WorldHandles)[ <{(]/ { print FNR ":" $0 }
			/\.(counter|gauge|histogram|series|span_name|arg_key|mechanism)\($/ { pend = 1; prev = $0 }' |
			sed "s#^#$f:#"
	done
}

# one dense table: a file's first #[cfg(test)], if any, is the line above
# its `mod tests`, so scripts/logic_lines.sh counts the whole file.
gate_test_cut_at_mod_tests() {
	shift
	for f; do
		first=$(grep -n '#\[cfg(test)\]' "$f" | head -1 | cut -d: -f1)
		tests=$(grep -n '^mod tests' "$f" | head -1 | cut -d: -f1)
		[ -z "$first" ] || [ "$first" = "$((${tests:-0} - 1))" ] ||
			echo "$f:$first: #[cfg(test)] above mod tests (line ${tests:-none})"
	done
}

# One row: if it fails, prints its hits and a summary line. A row whose cut,
# pattern or function the runner cannot read fails rather than passing.
check() {
	name=$1 kind=$2 cut=$3 paths=$4 re=$5
	case $cut in -|cfg_test|mod_tests) ;; *)
		sed -n "$cut!p" </dev/null 2>/dev/null || { echo "gates: FAIL $name: bad cut $cut"; return 1; } ;;
	esac
	set -- $paths
	case $kind in
	no_file) out=$(for p; do [ ! -e "$p" ] || echo "$p: exists"; done) ;;
	fn) command -v "gate_$re" >/dev/null || { echo "gates: FAIL $name: no function gate_$re"; return 1; }
		out=$("gate_$re" "$cut" $(files "$@")) ;;
	*) printf '' | grep -E -- "$re" 2>/dev/null; [ $? -eq 1 ] || { echo "gates: FAIL $name: bad pattern $re"; return 1; }
		if [ "$kind" = present ]; then
			out=$(for f; do [ -n "$(hits "$cut" "$re" "$f" 2>/dev/null)" ] || echo "$f: no line matches"; done)
		else out=$(hits "$cut" "$re" $(files "$@")); fi ;;
	esac
	n=$(printf '%s' "$out" | grep -c '')
	case $kind in
	absent|fn|no_file|present) [ "$n" -eq 0 ] && return 0 ;;
	count==*) [ "$n" -eq "${kind#count==}" ] && return 0 ;;
	count\<=*) [ "$n" -le "${kind#count<=}" ] && return 0 ;;
	*) echo "gates: FAIL $name: bad kind $kind"; return 1 ;;
	esac
	printf '%s\n' "$out"
	echo "gates: FAIL $name: $n lines, want $kind ($re in $paths)"
	return 1
}

rows=0 failed=0
while IFS="$(printf '\t')" read -r name kind cut paths re; do
	case $name in '' | '#'*) continue ;; esac
	rows=$((rows + 1))
	check "$name" "$kind" "$cut" "$paths" "$re" || failed=$((failed + 1))
done <"$table"
echo "gates: $rows rows, $failed failed"
[ "$failed" -eq 0 ]
