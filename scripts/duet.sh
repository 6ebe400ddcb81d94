#!/usr/bin/env bash
# Duet A/B benchmark: builds one package's test binary at a git ref and at
# the working tree, runs the two side by side on one CPU each, and prints
# each side's median ns/op, the change/base ratio of the medians, and a
# bootstrap 95% interval for that ratio.
#
#   bash scripts/duet.sh <git-ref> <package dir> <bench regex> [rounds] [benchtime]
#
#   bash scripts/duet.sh HEAD~1 ./internal/serve '^BenchmarkNewSnapshot$'
#
# Both binaries start together in every round (default 10 rounds), each
# with -test.cpu 1 -test.count 1 -test.benchtime <benchtime> (default 1s),
# so every pair of samples shares the machine's speed at that moment; a
# shared VM drifts by tens of percent between minutes, and concurrent runs
# cancel that out (duet benchmarking: Bulej et al., ICPE 2020). A round
# starts both and waits for both, so a faster side never runs its samples
# alone, and the side started first alternates between rounds. The
# interval resamples the rounds with replacement (10,000 draws).
# Run against the ref itself (an A/A run), the interval should contain 1.
# The ref is exported with `git archive` into a temporary directory
# ($TMPDIR), so the repository itself is not touched.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
  echo "usage: $0 <git-ref> <package dir> <bench regex> [rounds] [benchtime]" >&2
  exit 2
fi
ref=$1 pkg=$2 regex=$3 rounds=${4:-10} benchtime=${5:-1s}
root=$(git rev-parse --show-toplevel)
if ! git -C "$root" rev-parse --verify --quiet "$ref^{commit}" > /dev/null; then
  echo "duet: unknown git ref $ref" >&2
  exit 2
fi
if ! [ "$rounds" -ge 2 ] 2> /dev/null; then
  echo "duet: rounds must be an integer >= 2, got $rounds" >&2
  exit 2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git -C "$root" archive "$ref" | tar -x -C "$work/base"
(cd "$work/base" && go test -c -o "$work/base.test" "$pkg")
(cd "$root" && go test -c -o "$work/work.test" "$pkg")

args=(-test.run '^$' -test.bench "$regex" -test.cpu 1 -test.count 1 -test.benchtime "$benchtime" -test.timeout 30m)
base() { (cd "$work/base/$pkg" && "$work/base.test" "${args[@]}" > "$work/base.$1"); }
change() { (cd "$root/$pkg" && "$work/work.test" "${args[@]}" > "$work/work.$1"); }
for i in $(seq 1 "$rounds"); do
  # Alternate which side the shell starts first.
  if [ $((i % 2)) -eq 1 ]; then
    base "$i" & change "$i"
  else
    change "$i" & base "$i"
  fi
  wait
  echo "duet: round $i/$rounds done" >&2
done

python3 - "$work" "$rounds" "$ref" << 'EOF'
import random, statistics, sys

work, rounds, ref = sys.argv[1], int(sys.argv[2]), sys.argv[3]

def samples(side):
    # {benchmark: [ns/op of round 1, round 2, ...]}
    out = {}
    for i in range(1, rounds + 1):
        for line in open(f"{work}/{side}.{i}"):
            f = line.split()
            if f and f[0].startswith("Benchmark") and "ns/op" in f:
                out.setdefault(f[0], []).append(float(f[f.index("ns/op") - 1]))
    return out

base, change = samples("base"), samples("work")
names = [n for n in change if n in base and len(base[n]) == len(change[n]) == rounds]
if not names:
    sys.exit("duet: no benchmark ran on both sides in every round")

def dur(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("µs", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.3f} {unit}/op"
    return f"{ns:.1f} ns/op"

rng = random.Random(1)
for name in names:
    b, c = base[name], change[name]
    ratio = statistics.median(c) / statistics.median(b)
    draws = []
    for _ in range(10000):
        idx = [rng.randrange(rounds) for _ in range(rounds)]
        draws.append(statistics.median(c[i] for i in idx) / statistics.median(b[i] for i in idx))
    draws.sort()
    lo, hi = draws[249], draws[9749]
    print(f"{name}: base ({ref}) median {dur(statistics.median(b))}, "
          f"change median {dur(statistics.median(c))}, {rounds} rounds")
    print(f"{name}: change/base {ratio:.3f}, 95% interval [{lo:.3f}, {hi:.3f}]")
EOF
