#!/usr/bin/env bash
# Non-test lines of every workspace crate, then their total. A file's
# non-test lines are those before its first column-0 `#[cfg(test)]` (the
# whole file when it has none); a crate's are the sum over the `.rs` files
# under `crates/<crate>/src`. Integration tests, examples and the
# benchmark package are not counted.
#
# Usage: scripts/loc.sh [checkout]        (default: this checkout)
#        scripts/loc.sh --against <rev>   per crate: lines at <rev> (a
#                                         `git archive` of it in a temp
#                                         dir), in this checkout, and delta
set -euo pipefail
here=$(cd "$(dirname "$0")/.." && pwd)

# Prints `<crate> <lines>` for every crate of the checkout at $1.
count() {
  local dir name
  for dir in "$1"/crates/*/; do
    name=$(sed -n 's/^name *= *"\(.*\)"/\1/p' "$dir/Cargo.toml" | head -n 1)
    find "$dir/src" -name '*.rs' -exec awk '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }' {} + | awk -v name="$name" '{ s += $1 } END { print name, s + 0 }'
  done
}

if [ "${1:-}" = "--against" ]; then
  rev=${2:?usage: scripts/loc.sh --against <rev>}
  old=$(mktemp -d)
  trap 'rm -rf "$old"' EXIT
  git -C "$here" archive "$rev" crates | tar -x -C "$old"
  { count "$old" | sed 's/^/before /'; count "$here" | sed 's/^/after /'; } | awk '
      { lines[$1, $2] = $3; if (!($2 in seen)) { seen[$2] = 1; order[n++] = $2 } }
      END {
        printf "%-16s %6s %6s %6s\n", "crate", "before", "after", "delta"
        for (i = 0; i < n; i++) {
          c = order[i]; b = lines["before", c] + 0; a = lines["after", c] + 0
          printf "%-16s %6d %6d %+6d\n", c, b, a, a - b
          tb += b; ta += a
        }
        printf "%-16s %6d %6d %+6d\n", "total", tb, ta, ta - tb
      }'
  exit 0
fi

count "${1:-$here}" | awk '
    { printf "%-16s %6d\n", $1, $2; total += $2 }
    END { printf "%-16s %6d\n", "total", total }'
