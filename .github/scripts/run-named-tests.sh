#!/usr/bin/env bash
# Runs the named tests of one test target with exact name matching and
# fails unless every one of them ran and passed. A plain name filter
# that matches nothing passes silently, so a renamed or moved test
# would drop out of CI unnoticed.
#
# Usage: run-named-tests.sh <cargo test target flags...> -- <full test path>...
#   e.g. run-named-tests.sh --lib -- event_sim::tests::degenerate_parity_survives_churn_and_crashes
set -euo pipefail

target=()
while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do
  target+=("$1")
  shift
done
if [ "$#" -lt 2 ]; then
  echo "usage: $0 <cargo test target flags...> -- <full test path>..." >&2
  exit 2
fi
shift
want=$#

out=$(cargo test --release -q "${target[@]}" -- --exact "$@")
echo "$out"
if ! grep -q "^test result: ok\. $want passed;" <<<"$out"; then
  echo "error: expected exactly $want named test(s) to run and pass" >&2
  exit 1
fi
