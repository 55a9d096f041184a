#!/usr/bin/env bash
# docs-check: the documentation suite can't rot silently.
#
#   1. Every relative markdown link in README.md and docs/*.md resolves to
#      a file or directory in the repo.
#   2. docs/METRICS.md matches the live telemetry registry
#      (cmd/metricsdoc -check).
#   3. Every Go code block in the quickstart-bearing docs still refers to
#      identifiers the package exports (spot-checked by building the repo;
#      the runnable examples are the Example functions in example_test.go,
#      which go test runs and checks against their // Output: lines).
#
# Run via `make docs-check`; CI runs it as the docs-check job.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- 1. relative links resolve -------------------------------------------
echo "docs-check: resolving markdown links"
while IFS=: read -r file link; do
  # Strip anchors; keep the path part.
  path="${link%%#*}"
  [ -z "$path" ] && continue                      # pure #anchor
  case "$path" in
    http://*|https://*|mailto:*) continue ;;      # external
  esac
  dir=$(dirname "$file")
  if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
    echo "  BROKEN: $file -> $link"
    fail=1
  fi
done < <(grep -oHE '\]\(([^)]+)\)' README.md docs/*.md \
           | sed -E 's/\]\(([^)]+)\)/\1/' \
           | sed -E 's/^([^:]+):(.*)$/\1:\2/')

# --- 2. METRICS.md matches the live registry -----------------------------
echo "docs-check: verifying docs/METRICS.md against the live registry"
if ! go run ./cmd/metricsdoc -check docs/METRICS.md; then
  fail=1
fi

# --- 3. documented commands still build ----------------------------------
echo "docs-check: building the repo"
if ! go build ./...; then
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "docs-check: FAILED"
  exit 1
fi
echo "docs-check: ok"
