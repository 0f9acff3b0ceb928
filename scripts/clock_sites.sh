#!/usr/bin/env bash
# Production time reads outside the one clock: every `Instant::now`,
# `.elapsed()` and `SystemTime::now` in the non-test code of the crates
# that serve requests (scripts/cfg_test.awk's rule, as scripts/loc.sh
# counts lines), outside wsp-telemetry's clock module. Prints each site
# and the count; fails unless the count is 0. The benchmark and checker
# crates time themselves on the wall clock and are not counted.
#
#   scripts/clock_sites.sh [ROOT]     ROOT defaults to this checkout
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
rule="$(cat "$(dirname "$0")/cfg_test.awk")"
cd "$root"

sites="$(
  find crates/wsp-telemetry crates/wsp-http crates/wsp-p2ps crates/wsp-registry \
    crates/wsp-core crates/wsp-gateway -name '*.rs' -not -path '*/target/*' \
    -not -path 'crates/wsp-telemetry/src/clock.rs' -print0 | sort -z |
    xargs -0 -r awk "$rule"'
      !is_test() && /Instant::now|\.elapsed\(\)|SystemTime::now/ {
        print FILENAME ":" FNR ": " $0
      }'
)"
count=0
if [ -n "$sites" ]; then
  printf '%s\n' "$sites"
  count="$(printf '%s\n' "$sites" | wc -l)"
fi
echo "production clock reads outside the clock module: $count"
[ "$count" -eq 0 ]
