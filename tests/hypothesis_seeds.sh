#!/usr/bin/env bash
# Run a pytest selection once at each of several Hypothesis seeds, each run
# with a fresh example database and no pytest cache, and stop at the first
# seed that fails.
#
#   bash tests/hypothesis_seeds.sh MESSAGE SEEDS SELECTION...
#
# MESSAGE is printed with " at Hypothesis seed N" when seed N fails; SEEDS
# is a space-separated list ("1 2 3 4"); SELECTION is the pytest node ids.
# Run from the root of the repository.
set -u
message=$1
seeds=$2
shift 2
for seed in $seeds; do
  rm -rf .hypothesis
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q -p no:cacheprovider \
    "$@" --hypothesis-seed="$seed" \
    || { echo "$message at Hypothesis seed $seed"; exit 1; }
done
