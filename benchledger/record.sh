#!/bin/sh
# Append a baseline for the current revision to the ledger: ten untraced
# runs of every workload (seeds 1 to 10) and one traced run of each.
#
#   benchledger/record.sh [LEDGER]      # from the repository root;
#                                       # default benchledger/ledger.jsonl
set -eu
ledger=${1:-benchledger/ledger.jsonl}
dune build --root . ./benchledger/main.exe
exe=./_build/default/benchledger/main.exe
for w in A-cached A-interp BC-durable A-par2; do
  for seed in 1 2 3 4 5 6 7 8 9 10; do
    "$exe" ledger --workload "$w" --seed "$seed" --ledger "$ledger" > /dev/null
  done
  "$exe" ledger --workload "$w" --seed 1 --trace 1 --ledger "$ledger" > /dev/null
done
