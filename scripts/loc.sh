#!/usr/bin/env bash
# Counted lines per crate and in total, by one rule: in every .rs file
# under crates/*/src and crates/*/benches, the lines before the file's
# first `#[cfg(test)]` that are neither blank nor a `//` comment. Raw
# line counts, tests and comments included, follow in brackets.
#
# Usage: scripts/loc.sh [ROOT]   (ROOT defaults to this checkout; point it
# at another checkout to count that one)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

total=0
raw_total=0
for crate in crates/*/; do
    mapfile -t files < <(find "${crate}src" "${crate}benches" -name '*.rs' 2>/dev/null | sort)
    [ "${#files[@]}" -gt 0 ] || continue
    read -r counted raw < <(awk '
        FNR == 1 { in_tests = 0 }
        { raw++ }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { counted++ }
        END { print counted + 0, raw + 0 }' "${files[@]}")
    printf '%-10s %6d  (%d)\n' "$(basename "$crate")" "$counted" "$raw"
    total=$((total + counted))
    raw_total=$((raw_total + raw))
done
printf '%-10s %6d  (%d)\n' total "$total" "$raw_total"
