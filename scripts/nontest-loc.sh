#!/bin/sh
# Net non-test Rust under crates/: for every crates/*/src/**/*.rs, the
# lines before its first top-level `#[cfg(test)]` (a file without one
# counts whole). Per crate, then the total — the number each PR states.
set -eu
cd "$(dirname "$0")/.."
find crates -path 'crates/*/src/*' -name '*.rs' | sort | while read -r f; do
    n=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
    echo "$f" | awk -F/ -v n="$n" '{ print $2, n }'
done | awk '
    { crate[$1] += $2; total += $2 }
    END {
        for (c in crate) printf "%-10s %6d\n", c, crate[c] | "sort"
        close("sort")
        printf "%-10s %6d\n", "total", total
    }'
