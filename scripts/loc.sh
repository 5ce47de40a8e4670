#!/bin/sh
# Lines of Go in the repository, the number a simplification PR is judged by:
# program (non-test) lines per package directory and in total, and test lines
# separately, so that code moved into *_test.go does not read as a reduction.
# Assembly (*.s) is program code too and is counted per package beside them.
# The root module (the system) is counted first. The paper's evaluation
# (paper/, a module of its own) is counted on its own lines after it, so that
# code moved there does not read as a deletion. The benchmark module
# (benchmark/) and its build output (.bench_build/) are not counted.
# Usage: sh scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."

# files lists the files named $2 under $1, leaving out the nested modules
# below it.
files() {
	find "$1" -mindepth 1 \( -path ./benchmark -o -path ./.bench_build -o -path ./.git \
		-o -path ./paper \) -prune -o -type f -name "$2" -print
}

# per_dir sums `wc -l` output by directory and appends the grand total.
per_dir() {
	xargs wc -l | awk -v label="$1" '
		$2 == "total" { next }
		{
			dir = $2
			sub(/\/[^\/]*$/, "", dir)
			sub(/^\.\/?/, "", dir)
			if (dir == "") dir = "."
			lines[dir] += $1
			total += $1
		}
		END {
			for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
			close("sort -k2")
			printf "%7d  total %s\n", total, label
		}'
}

# count prints program, assembly and test lines of the files under $1.
count() {
	echo "program lines (non-test .go) by package$2:"
	files "$1" '*.go' | grep -v '_test\.go$' | per_dir "program$2"
	if [ -n "$(files "$1" '*.s')" ]; then
		echo
		echo "assembly lines (*.s) by package$2:"
		files "$1" '*.s' | per_dir "assembly$2"
	fi
	echo
	echo "test lines (*_test.go) by package$2:"
	files "$1" '*.go' | grep '_test\.go$' | per_dir "test$2"
}

count . ""
echo
count ./paper " (paper/)"
