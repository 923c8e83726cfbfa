#!/bin/sh
# Golden-table check: reruns one figure bench in quick mode on two sweep
# threads and diffs its stdout (the table; the [harness] timing line goes
# to stderr) byte-for-byte against a committed copy.
#
# Usage: tests/golden_tables.sh BENCH_BINARY GOLDEN_FILE
set -eu
out=$(mktemp)
trap 'rm -f "$out"' EXIT
SCSQ_BENCH_QUICK=1 SCSQ_BENCH_THREADS=2 "$1" > "$out"
diff -u "$2" "$out"
