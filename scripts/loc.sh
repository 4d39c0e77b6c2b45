#!/usr/bin/env bash
# The line counts ROADMAP budgets are stated in:
#
#   * non-test lines: every `.rs` file under `crates/*/src`, counted up to
#     its first `#[cfg(test)]` line (the whole file if it has none), per
#     crate and in total;
#   * every line of every `.rs` file under `crates/`, `tests/` and
#     `examples/`.
#
# Usage: scripts/loc.sh [REV]
#
# Without REV it counts the checkout the script lives in, edits included.
# With REV (a commit, branch or tag of that checkout's repository) it
# counts that revision's committed files, extracted with `git archive`
# into a temporary directory.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -gt 1 ]; then
    echo "usage: scripts/loc.sh [REV]" >&2
    exit 2
fi
if [ $# -eq 1 ]; then
    tree="$(mktemp -d)"
    trap 'rm -rf "$tree"' EXIT
    git archive "$1" | tar -x -C "$tree"
    echo "revision $(git rev-parse --short "$1^{commit}"):"
    cd "$tree"
fi

# Lines of the given files before each one's first `#[cfg(test)]`.
non_test() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' "$@"
}

echo "non-test lines (crates/*/src, up to the first #[cfg(test)]):"
total=0
for src in crates/*/src; do
    crate="$(basename "$(dirname "$src")")"
    mapfile -t files < <(find "$src" -name '*.rs' | sort)
    count="$(non_test "${files[@]}")"
    printf '  %-10s %7d\n' "$crate" "$count"
    total=$((total + count))
done
printf '  %-10s %7d\n' total "$total"

mapfile -t files < <(find crates tests examples -name '*.rs' | sort)
printf 'all .rs lines under crates/, tests/, examples/: %d\n' "$(cat "${files[@]}" | wc -l)"
