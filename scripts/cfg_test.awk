# The `#[cfg(test)]` rule of scripts/loc.sh and scripts/clock_sites.sh:
# `is_test()` tells whether the current line is test code. An item under
# `#[cfg(test)]` runs to the close of its first bracket group, or to a
# `;` / `,` if it opens none (`mod tests;`, a field). Files under a
# `tests/` directory, and files that open with `#![cfg(test)]`, are test
# code throughout. Call it once per line, in order.
FNR == 1 { skipping = 0; whole = (FILENAME ~ /\/tests\// || /^#!\[cfg\(test\)\]/) }

function is_test(   line, opens, closes) {
  if (whole) return 1
  if (!skipping && /^[ \t]*#\[cfg\(test\)\]/) { skipping = 1; depth = 0; opened = 0; return 1 }
  if (!skipping) return 0
  if (!opened && /^[ \t]*#\[/) return 1
  line = $0
  opens = gsub(/[({[]/, "", line)
  closes = gsub(/[)}\]]/, "", line)
  depth += opens - closes
  if (opens > 0) opened = 1
  if ((opened && depth <= 0) || (!opened && /[;,][ \t]*$/)) skipping = 0
  return 1
}
