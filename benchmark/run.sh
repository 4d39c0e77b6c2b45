#!/usr/bin/env bash
# Builds the harness and runs it. One command prints every metric by name
# with its unit and runs the correctness checks:
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--trace] [--quick] [--aa]
#
# The benchmark driver's form is the same command with
#   --workload NAME --seed N --seconds S --trace 0|1
# whose last line of standard output is one JSON result object.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# A relative CARGO_TARGET_DIR is meant relative to where the caller stands,
# not to benchmark/, where cargo is about to run.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build from inside benchmark/: cargo then finds this package's manifest
# (its own empty [workspace]) and, walking up, the root .cargo/config.toml
# with the target-cpu the workspace is built for. Build output goes to
# stderr so the result object stays the last line of stdout.
(cd "$here" && cargo build --release --offline --quiet) >&2

export DAGFL_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export DAGFL_BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"

# Run from the repository root: result files go to benchmark/out/ and
# --aa reads BENCHMARK.json from there.
cd "$root"
exec "$target/release/dagfl-benchmark" --out "$here/out" --spec "$root/BENCHMARK.json" "$@"
