#!/usr/bin/env bash
# Bit-identity probe: builds cmd/lcsbench at a git ref and at the working
# tree, runs `lcsbench -quick -csv <experiment>` with both for each
# deterministic experiment, and exits 1 if any output differs.
#
#   bash scripts/bitident.sh <git-ref>
#
# The 17 experiments below print no timings, so two runs of one build
# print the same bytes; serving, dynamic, persistence and load print wall
# times and are left out. The ref is exported with `git archive` into a
# temporary directory ($TMPDIR), so the repository itself is not touched.
# About 10 s for the runs on 2 vCPUs, plus the two builds.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <git-ref>" >&2
  exit 2
fi
ref=$1
root=$(git rev-parse --show-toplevel)
if ! git -C "$root" rev-parse --verify --quiet "$ref^{commit}" > /dev/null; then
  echo "bitident: unknown git ref $ref" >&2
  exit 2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git -C "$root" archive "$ref" | tar -x -C "$work/base"
(cd "$work/base" && go build -o "$work/lcsbench-base" ./cmd/lcsbench)
(cd "$root" && go build -o "$work/lcsbench-work" ./cmd/lcsbench)

experiments="quality rounds congestion dilation baselines mst mincut messages
oddeven sched walks sssp twoecss ablation-reps ablation-sched ablation-det
ablation-local"

status=0
cd "$work"
for e in $experiments; do
  ./lcsbench-base -quick -csv "$e" > "$e.base"
  ./lcsbench-work -quick -csv "$e" > "$e.work"
  if cmp -s "$e.base" "$e.work"; then
    echo "identical  $e"
  else
    echo "DIFFERENT  $e"
    diff "$e.base" "$e.work" | head -n 20 || true
    status=1
  fi
done
if [ "$status" -eq 0 ]; then
  echo "bitident: all deterministic experiments byte-identical to $ref"
else
  echo "bitident: outputs differ from $ref" >&2
fi
exit "$status"
