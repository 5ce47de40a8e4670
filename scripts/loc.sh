#!/bin/sh
# Lines of Go in the repository, the number a simplification PR is judged by:
# program (non-test) lines per package directory and in total, and test lines
# separately, so that code moved into *_test.go does not read as a reduction.
# The benchmark module (benchmark/) and its build output (.bench_build/) are
# not counted. Usage: sh scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."

gofiles() {
	find . \( -path ./benchmark -o -path ./.bench_build -o -path ./.git \) -prune \
		-o -type f -name '*.go' -print
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

echo "program lines (non-test .go) by package:"
gofiles | grep -v '_test\.go$' | per_dir program
echo
echo "test lines (*_test.go) by package:"
gofiles | grep '_test\.go$' | per_dir test
