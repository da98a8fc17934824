#!/usr/bin/env bash
# Where one workload of the benchmark spends its timed region: a SIGPROF
# stack sampler (scripts/sampler.c, LD_PRELOADed) over a frame-pointer
# build of benchmark/.
#
#   scripts/profile.sh <workload> [--seconds S]
#
# The build goes to a target directory under $TMPDIR kept for the next call
# (one per checkout: two copies of the workspace must not share one). The
# benchmark runs from a scratch working directory, so benchmark/results/ is
# untouched, for S seconds (default 6). Prints, over the samples whose stack
# passes through `fp_benchmark::reps::run_rep` (one repetition: set-up and
# measured region; not the host-speed probe `host::Churn` the benchmark runs
# between repetitions, nor its own bookkeeping), the flat share (the sampled
# PC was in the function) and the inclusive share (the function was on the
# stack) of each function, the flat shares summed per `crate::module`, the
# region's share of all samples and, beside it, the share of the samples
# whose stack passes through `PadEngine::run`: a sealed store's pad engine,
# which runs on a thread of its own, outside the region (0 on a row that
# seals nothing).
#
# Needs bash, cargo, gcc, nm, readelf and python3; `perf` is not in the image.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '6p' "$0" >&2
    exit 2
}
[ $# -eq 1 ] || [ $# -eq 3 ] || usage
workload=$1
seconds=6
if [ $# -eq 3 ]; then
    [ "$2" = --seconds ] || usage
    seconds=$3
fi

target=${TMPDIR:-/tmp}/fp-profile.$(pwd -P | cksum | cut -d' ' -f1)
mkdir -p "$target"
# RUSTFLAGS replaces .cargo/config.toml's flags, so `native` is repeated.
RUSTFLAGS="-C target-cpu=native -C force-frame-pointers=yes" CARGO_TARGET_DIR=$target \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
gcc -O2 -shared -fPIC -o "$target/sampler.so" scripts/sampler.c
bin=$target/release/fp-benchmark

work=$(mktemp -d "${TMPDIR:-/tmp}/profile.XXXXXX")
trap 'rm -rf "$work"' EXIT
(cd "$work" && LD_PRELOAD=$target/sampler.so "$bin" --workload "$workload" --seconds "$seconds" >/dev/null)

python3 - "$bin" "$work" "$workload" <<'PY'
import bisect, collections, glob, os, re, subprocess, sys

binary, work, workload = os.path.realpath(sys.argv[1]), sys.argv[2], sys.argv[3]
REGION = "fp_benchmark::reps::run_rep"
# The engine thread's frames: its loop, or the spawn closure it is inlined
# into.
ENGINE = ("PadEngine::run", "PadEngine::start::{{closure}}")

# A PC maps to a file offset through /proc/self/maps, and a file offset to
# the address `nm` prints through the PT_LOAD segment holding it: the text
# segment's p_vaddr is not its p_offset, so skipping this misnames frames.
segments = []
for line in subprocess.run(["readelf", "-lW", binary], capture_output=True, text=True,
                           check=True).stdout.splitlines():
    f = line.split()
    if f and f[0] == "LOAD":
        off, vaddr, size = int(f[1], 16), int(f[2], 16), int(f[4], 16)
        segments.append((off, off + size, vaddr - off))
addrs, names = [], []
for line in subprocess.run(["nm", "-C", "-n", binary], capture_output=True, text=True,
                           check=True).stdout.splitlines():
    f = line.split(" ", 2)
    if len(f) == 3 and f[0] and f[1] in ("t", "T", "w", "W") and int(f[0], 16):
        addrs.append(int(f[0], 16))
        names.append(re.sub(r"::h[0-9a-f]{16}$", "", f[2]))


def resolver(maps):
    mapped = []
    for line in maps:
        f = line.split()
        if len(f) >= 6:
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            mapped.append((lo, hi, int(f[2], 16), f[5]))

    def name(pc):
        for lo, hi, off, path in mapped:
            if lo <= pc < hi:
                if os.path.realpath(path) != binary:
                    return f"[{os.path.basename(path)}]"
                file_off = pc - lo + off
                for s_lo, s_hi, delta in segments:
                    if s_lo <= file_off < s_hi:
                        i = bisect.bisect_right(addrs, file_off + delta) - 1
                        return names[i] if i >= 0 else "[?]"
        return "[?]"
    return name


stacks = []
for path in glob.glob(f"{work}/sampler.*.out"):
    with open(path) as f:
        lines = f.read().split("\n")
    cut = lines.index("maps")
    name = resolver(lines[cut + 1:])
    for line in lines[:cut]:
        pcs = [int(x, 16) for x in line.split()]
        # A return address points past its call: resolve the call itself.
        stacks.append([name(pc if i == 0 else pc - 1) for i, pc in enumerate(pcs)])

region = [s for s in stacks if REGION in s]
if not region:
    sys.exit(f"no sample passes through {REGION} ({len(stacks)} samples)")
flat = collections.Counter(s[0] for s in region)
incl = collections.Counter(n for s in region for n in set(s))
n = len(region)
print(f"{workload}: {n} of {len(stacks)} samples ({n / len(stacks):.1%}) under {REGION}")
# A sealed store's pad engine runs on a thread of its own, outside the
# region: its load, beside the region's.
engine = sum(any(x.endswith(ENGINE) for x in s) for s in stacks)
print(f"PadEngine::run (the pad engine's thread): {engine / len(stacks):.1%} of all samples")
churn = sum(any(x.startswith("fp_benchmark::host::Churn") for x in s) for s in stacks)
print(f"host::Churn (outside the region): {churn / len(stacks):.1%} of all samples\n")
for title, counts in (("flat", flat), ("inclusive", incl)):
    print(f"| by {title} | flat % | inclusive % |\n|---|---|---|")
    for fn, _ in counts.most_common(30):
        print(f"| `{fn}` | {100 * flat[fn] / n:.1f} | {100 * incl[fn] / n:.1f} |")
    print()
# Flat shares summed per `crate::module` (a trait impl counts for its type's).
modules = collections.Counter()
for fn, k in flat.items():
    modules["::".join(fn.lstrip("<").split(" ")[0].split("::")[:2])] += k
print("| module | flat % |\n|---|---|")
for m, k in modules.most_common(15):
    print(f"| `{m}` | {100 * k / n:.1f} |")
PY
