#!/usr/bin/env bash
# Non-test lines of every workspace crate, then their total. A file's
# non-test lines are those outside its `#[cfg(test)]` items: the item
# under the attribute (to its closing brace, or to the `;` or `,` that ends
# it) and the doc comments and attributes above it are left out, and so is
# every file a `#[cfg(test)] mod name;` declares. A crate's lines are the
# sum over the `.rs` files under `crates/<crate>/src`. Integration tests,
# examples and the benchmark package are not counted.
#
# Usage: scripts/loc.sh [checkout]        (default: this checkout)
#        scripts/loc.sh --against <rev>   per crate: lines at <rev> (a
#                                         `git archive` of it in a temp
#                                         dir), in this checkout, and delta
#
# `scripts/loc_fixture` is a crate of known counts (`expected.txt` there);
# the tier-1 gate checks this script against it.
set -euo pipefail
here=$(cd "$(dirname "$0")/.." && pwd)

# Prints the non-test lines of the `.rs` files it is given, which are one
# crate's: a `#[cfg(test)] mod` names a file among them.
read -r -d '' nontest <<'AWK' || true
# Sets `code` to `s` without its string and char literals and its `//`
# comment; a string left open carries over to the next line (`str` 1), as
# does a raw string (`str` 2, closed by `"` and `hashes`).
function strip(s,    i, n, c, j) {
  code = ""; n = length(s); i = 1
  while (i <= n) {
    c = substr(s, i, 1)
    if (str == 1) {
      if (c == "\\") { i += 2; continue }
      if (c == "\"") str = 0
      i++; continue
    }
    if (str == 2) {
      if (c == "\"" && substr(s, i + 1, length(hashes)) == hashes) {
        str = 0; i += 1 + length(hashes); continue
      }
      i++; continue
    }
    if (c == "/" && substr(s, i + 1, 1) == "/") break
    if (c == "\"") { str = 1; i++; continue }
    if (c == "r" && match(substr(s, i), /^r#*"/) && substr(s, i - 1, 1) !~ /[A-Za-z0-9_]/) {
      hashes = substr(s, i + 1, RLENGTH - 2); str = 2; i += RLENGTH; continue
    }
    if (c == "'" && substr(s, i, 4) == "'\\''") { i += 4; continue }
    if (c == "'" && substr(s, i + 1, 1) == "\\") {
      j = index(substr(s, i + 2), "'"); i += 2 + j; continue
    }
    if (c == "'" && substr(s, i + 2, 1) == "'") { i += 3; continue }
    code = code c; i++
  }
}

# Opening minus closing brackets of every kind in `code`; sets `brace`
# when it holds a `{`.
function depth_of(    t, opens, closes) {
  t = code; opens = gsub(/[{([]/, "", t)
  t = code; closes = gsub(/[})\]]/, "", t)
  if (index(code, "{")) brace = 1
  return opens - closes
}

# Starts skipping the test item whose first line (attributes stripped) is
# `t`; a `mod name;` declares a test-only file.
function begin_item(t,    name, dir, base) {
  pending = 0; test = 0; skipping = 1; depth = 0; brace = 0; str = 0
  if (match(t, /^(pub(\([^)]*\))? )?mod [A-Za-z0-9_]+;/)) {
    name = t; sub(/^(pub(\([^)]*\))? )?mod /, "", name); sub(/;.*/, "", name)
    dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
    base = FILENAME; sub(/^.*\//, "", base)
    if (base != "lib.rs" && base != "main.rs" && base != "mod.rs") {
      dir = FILENAME; sub(/\.rs$/, "", dir)
    }
    skip[dir "/" name ".rs"] = 1; skip[dir "/" name "/mod.rs"] = 1
  }
  continue_item(t)
}

function continue_item(t) {
  strip(t); depth += depth_of()
  if (depth <= 0 && (brace || code ~ /[;,][ \t]*$/)) skipping = 0
}

FNR == 1 {
  lines[FILENAME] = 0; skipping = 0; pending = 0; test = 0; attr = 0; str = 0
}
/^#!\[cfg\(test\)\]/ { skip[FILENAME] = 1 }
{
  if (skipping) { continue_item($0); next }
  t = $0; sub(/^[ \t]+/, "", t)
  if (attr > 0) { pending++; strip(t); attr += depth_of(); next }
  if (t ~ /^#\[/) {
    pending++
    if (t ~ /^#\[cfg\(test\)\]/) {
      test = 1; sub(/^#\[cfg\(test\)\][ \t]*/, "", t)
      if (t != "") begin_item(t)
    } else {
      strip(t); attr = depth_of()
    }
    next
  }
  if (t ~ /^\/\/\//) { pending++; next }
  if (test) { begin_item(t); next }
  lines[FILENAME] += pending + 1; pending = 0
}
END {
  for (f in lines) if (!(f in skip)) n += lines[f]
  print n + 0
}
AWK

# Prints `<crate> <lines>` for every crate of the checkout at $1.
count() {
  local dir name
  for dir in "$1"/crates/*/; do
    name=$(sed -n 's/^name *= *"\(.*\)"/\1/p' "$dir/Cargo.toml" | head -n 1)
    find "$dir/src" -name '*.rs' -exec awk "$nontest" {} + |
      awk -v name="$name" '{ s += $1 } END { print name, s + 0 }'
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
