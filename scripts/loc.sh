#!/usr/bin/env bash
# Lines of Rust per crate: every line, and the lines outside
# `#[cfg(test)]` items. ROADMAP aim 2 tracks these numbers; a PR that
# claims to simplify shows this table before and after.
#
#   scripts/loc.sh [ROOT]     ROOT defaults to this checkout
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
rule="$(cat "$(dirname "$0")/cfg_test.awk")"
cd "$root"

# Prints "<total> <non-test>" for the .rs files under the directories
# given; scripts/cfg_test.awk says which lines are test code.
count() {
  find "$@" -name '*.rs' -not -path '*/target/*' -print0 2>/dev/null | sort -z |
    xargs -0 -r awk "$rule"'
      { total++ }
      !is_test() { code++ }
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
