#!/bin/sh
# Non-test line count: every line of a Rust source file before a top-level
# `#[cfg(test)]` that opens `mod tests` (the whole file if it has none).
#
#   scripts/loc.sh             per crate: the `src/` tree of each workspace
#                              crate, of the root facade and of `perf/`
#   scripts/loc.sh FILE...     per file
#
# Integration tests (`tests/`), examples and vendored stubs are not counted.
set -eu
cd "$(dirname "$0")/.."

# Sum, over the files given, the lines before each one's test module.
count() {
    awk '
        FNR == 1 { skip = 0; held = 0 }
        skip { next }
        held {
            held = 0
            if ($0 ~ /^(pub(\(crate\))? )?mod tests/) { skip = 1; next }
            n++
        }
        /^#\[cfg\(test\)\]$/ { held = 1; next }
        { n++ }
        END { print n + 0 }
    ' "$@"
}

if [ "$#" -gt 0 ]; then
    for file in "$@"; do
        printf '%7d  %s\n' "$(count "$file")" "$file"
    done
    exit 0
fi

total=0
for dir in . crates/* perf; do
    files=$(find "$dir/src" -name '*.rs' | sort)
    # shellcheck disable=SC2086 # one word per path; no path has a space
    lines=$(count $files)
    total=$((total + lines))
    printf '%7d  %s\n' "$lines" "$dir"
done
printf '%7d  total\n' "$total"
