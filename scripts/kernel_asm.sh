#!/usr/bin/env bash
# The vector shape of fp-crypto's keystream kernel, read from the compiler's
# assembly. The kernel is safe Rust whose lanes the compiler vectorises
# (crates/crypto/src/cipher.rs, `blocks`), so a change to it, or to the
# toolchain, can silently fall back to scalar rounds: check after either.
#
#   scripts/kernel_asm.sh
#
# Builds fp-crypto --release for the host CPU (.cargo/config.toml) with
# `--emit asm` into a target directory under $TMPDIR (removed on exit),
# then prints, for each function whose symbol names the keystream
# (`keystream`, `encrypt_in_place`), how many `vpaddd` and `vprold`
# instructions on `ymm` registers it holds: the quarter-round's add and
# rotate, eight lanes wide. Exits 1 when the host's /proc/cpuinfo lists
# avx2 and no such function has a `vpaddd` on ymm, or lists avx512vl (the
# 256-bit rotate) and none has a `vprold` on ymm. Not part of tier-1.
#
# Needs bash, cargo and awk.
set -euo pipefail
cd "$(dirname "$0")/.."

dir=$(mktemp -d "${TMPDIR:-/tmp}/kernel_asm.XXXXXX")
trap 'rm -rf "$dir"' EXIT
CARGO_TARGET_DIR=$dir cargo rustc --release --offline --quiet -p fp-crypto -- --emit asm
asm=$(ls "$dir"/release/deps/fp_crypto-*.s)

# One line per keystream function: symbol, vpaddd count, vprold count.
counts=$(awk '
    /^[_A-Za-z.$][^ \t]*:/ {
        name = substr($0, 1, length($0) - 1)
        inside = name ~ /keystream|encrypt_in_place/ && name !~ /^\.L/
        if (inside && !(name in add)) { order[++n] = name; add[name] = 0; rot[name] = 0 }
        if (name !~ /^\.L/) current = name
        next
    }
    current ~ /keystream|encrypt_in_place/ && /ymm/ {
        if ($1 == "vpaddd") add[current]++
        if ($1 == "vprold") rot[current]++
    }
    END { for (i = 1; i <= n; i++) print order[i], add[order[i]], rot[order[i]] }
' "$asm")

printf '%-8s %-8s %s\n' vpaddd vprold function
total_add=0 total_rot=0
while read -r name add rot; do
    [ -n "$name" ] || continue
    printf '%-8s %-8s %s\n' "$add" "$rot" "$name"
    total_add=$((total_add + add)) total_rot=$((total_rot + rot))
done <<<"$counts"
echo "total: $total_add vpaddd, $total_rot vprold on ymm"

status=0
if grep -qw avx2 /proc/cpuinfo && [ "$total_add" -eq 0 ]; then
    echo "the host has avx2, but the kernel has no vpaddd on ymm" >&2
    status=1
fi
if grep -qw avx512vl /proc/cpuinfo && [ "$total_rot" -eq 0 ]; then
    echo "the host has avx512vl, but the kernel has no vprold on ymm" >&2
    status=1
fi
exit $status
