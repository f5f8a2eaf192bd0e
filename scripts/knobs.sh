#!/bin/sh
# Settable options under crates/: the `pub` fields of every
# `pub struct *Config` / `*Options` in the non-test part of
# crates/*/src/**/*.rs (the lines before a file's first top-level
# `#[cfg(test)]`, nontest-loc.sh's rule). Per crate, then the total —
# the option count each PR states next to its net lines.
set -eu
cd "$(dirname "$0")/.."
find crates -path 'crates/*/src/*' -name '*.rs' | sort | while read -r f; do
    n=$(awk '
        /^#\[cfg\(test\)\]/ { exit }
        /^pub struct [A-Za-z0-9_]*(Config|Options) *\{/ { inside = 1; next }
        inside && /^}/ { inside = 0 }
        inside && /^    pub [a-z_0-9]+:/ { n++ }
        END { print n + 0 }' "$f")
    echo "$f" | awk -F/ -v n="$n" '{ print $2, n }'
done | awk '
    { crate[$1] += $2; total += $2 }
    END {
        for (c in crate) printf "%-10s %6d\n", c, crate[c] | "sort"
        close("sort")
        printf "%-10s %6d\n", "total", total
    }'
