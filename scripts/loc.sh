#!/usr/bin/env bash
# Lines of Rust per crate: every line, and the lines outside
# `#[cfg(test)]` items. ROADMAP aim 2 tracks these numbers; a PR that
# claims to simplify shows this table before and after.
#
#   scripts/loc.sh [ROOT]     ROOT defaults to this checkout
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

# Prints "<total> <non-test>" for the .rs files under the directories
# given. An item under `#[cfg(test)]` runs to the close of its first
# bracket group, or to a `;` / `,` if it opens none (`mod tests;`, a
# field). Files under a `tests/` directory, and files that open with
# `#![cfg(test)]`, are test code throughout.
count() {
  find "$@" -name '*.rs' -not -path '*/target/*' -print0 2>/dev/null | sort -z |
    xargs -0 -r awk '
      FNR == 1 { skipping = 0; whole = (FILENAME ~ /\/tests\// || /^#!\[cfg\(test\)\]/) }
      { total++ }
      whole { next }
      !skipping && /^[ \t]*#\[cfg\(test\)\]/ { skipping = 1; depth = 0; opened = 0; next }
      skipping {
        if (!opened && /^[ \t]*#\[/) next
        line = $0
        opens = gsub(/[({[]/, "", line)
        closes = gsub(/[)}\]]/, "", line)
        depth += opens - closes
        if (opens > 0) opened = 1
        if ((opened && depth <= 0) || (!opened && /[;,][ \t]*$/)) skipping = 0
        next
      }
      { code++ }
      END { printf "%d %d\n", total, code }'
}

printf '%-22s %8s %10s\n' "crate" "lines" "non-test"
sum_total=0
sum_code=0
for dir in crates/*/; do
  read -r total code < <(count "$dir")
  printf '%-22s %8d %10d\n' "$(basename "$dir")" "$total" "$code"
  sum_total=$((sum_total + total))
  sum_code=$((sum_code + code))
done
printf '%-22s %8d %10d\n' "crates/ total" "$sum_total" "$sum_code"
for dir in tests examples bench; do
  [ -d "$dir" ] || continue
  read -r total code < <(count "$dir")
  printf '%-22s %8d %10d\n' "$dir/" "$total" "$code"
done
