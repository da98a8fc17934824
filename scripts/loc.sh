#!/usr/bin/env bash
# Non-test lines of every workspace crate, then their total. A file's
# non-test lines are those before its first column-0 `#[cfg(test)]` (the
# whole file when it has none); a crate's are the sum over the `.rs` files
# under `crates/<crate>/src`. Integration tests, examples and the
# benchmark package are not counted.
#
# Usage: scripts/loc.sh [checkout]   (default: this checkout)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

total=0
for dir in crates/*/; do
  name=$(sed -n 's/^name *= *"\(.*\)"/\1/p' "$dir/Cargo.toml" | head -n 1)
  lines=$(find "$dir/src" -name '*.rs' -exec awk '
      FNR == 1 { counting = 1 }
      /^#\[cfg\(test\)\]/ { counting = 0 }
      counting { n++ }
      END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }')
  printf '%-16s %6d\n' "$name" "$lines"
  total=$((total + lines))
done
printf '%-16s %6d\n' total "$total"
