#!/usr/bin/env bash
# Alternating end-to-end pairs of a parent tree and this tree, recorded as
# data. For each workload and each of K seeds (SEED0, SEED0+1, ...), runs
#
#   bash benchmark/run.sh --workload W --seed S --seconds 10 --trace 0
#
# once in PARENT_TREE and once in this checkout, alternating which side runs
# first, and appends each run's result line (the JSON object run.sh prints
# last) to $E2E_OUT, tagged with its side, workload and seed. The first line
# written is a header: the box fingerprint (nproc, Go version, kernel) and
# both commits. `go run ./cmd/benchjson -e2e $E2E_OUT -out BENCH_<PR>.json`
# folds the file into a record.
#
# Usage: scripts/e2e-pairs.sh PARENT_TREE K SEED0 WORKLOAD...
#
# PARENT_TREE is a checkout of the parent commit (git clone or git archive,
# not a worktree of this repository). E2E_OUT defaults to e2e-pairs.jsonl;
# PARENT_COMMIT names the parent when PARENT_TREE has no .git.
set -euo pipefail

if [ $# -lt 4 ]; then
  sed -n '2,20p' "$0" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
k=$2
seed0=$3
shift 3
here=$(cd "$(dirname "$0")/.." && pwd)
out=${E2E_OUT:-e2e-pairs.jsonl}

parent_commit=${PARENT_COMMIT:-$(git -C "$parent" rev-parse --short HEAD 2>/dev/null || echo unknown)}
change_commit=$(git -C "$here" describe --always --dirty 2>/dev/null || echo unknown)
printf '{"header":{"nproc":%d,"go_version":"%s","kernel":"%s","parent_commit":"%s","change_commit":"%s"}}\n' \
  "$(nproc)" "$(go env GOVERSION)" "$(uname -r)" "$parent_commit" "$change_commit" >> "$out"

# run SIDE TREE WORKLOAD SEED appends one tagged result line; a run that
# fails or reports failed operations is recorded all the same.
run() {
  local side=$1 tree=$2 w=$3 s=$4 line
  line=$(cd "$tree" && bash benchmark/run.sh --workload "$w" --seed "$s" --seconds 10 --trace 0 | tail -n 1) || true
  case $line in
    '{'*) ;;
    *) line='{"correct":false,"attempted":0,"failed":0,"metrics":{}}' ;;
  esac
  printf '{"side":"%s","workload":"%s","seed":%d,"result":%s}\n' "$side" "$w" "$s" "$line" >> "$out"
  echo "$side $w seed $s done" >&2
}

i=0
for w in "$@"; do
  for ((r = 0; r < k; r++)); do
    s=$((seed0 + r))
    if ((i % 2 == 0)); then
      run parent "$parent" "$w" "$s"
      run change "$here" "$w" "$s"
    else
      run change "$here" "$w" "$s"
      run parent "$parent" "$w" "$s"
    fi
    i=$((i + 1))
  done
done
