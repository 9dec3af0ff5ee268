#!/bin/sh
# The CI entry point: everything a change must pass before merging.
#   ./ci/run.sh          # full build + lint + tests + oracle self-check
#   ./ci/run.sh quick    # skip the slow (booting) alcotest cases
set -eu
cd "$(dirname "$0")/.."

echo "== build =="
dune build @all

echo "== lint (type-check + warnings-as-errors for lib/staticoracle) =="
dune build @lint

echo "== tests =="
if [ "${1:-}" = "quick" ]; then
  dune exec test/test_main.exe -- -q
  # the ledger's own quick tests (BENCHMARK.json vs spec.ml, the compare
  # rule); they read ../../BENCHMARK.json, so run them from their build dir
  ALCOTEST_QUICK_TESTS=1 dune build @benchledger/runtest --force
  # bench/main.exe's argument parsing (Table 4 prints without booting)
  dune build @bench/runtest --force
else
  dune runtest
fi

echo "== fuzz: pinned-seed property pass (KFI_FUZZ_BUDGET_MS extends) =="
# Deterministic by construction: a failure prints a --seed/--replay pair
# that reproduces the shrunk counterexample on any machine.
mkdir -p _artifacts
dune exec bin/kfi_fuzz.exe -- --prop all --seed 42 \
  --budget-ms "${KFI_FUZZ_BUDGET_MS:-2000}" > _artifacts/fuzz.txt 2>&1 || {
  cat _artifacts/fuzz.txt
  echo "fuzz stage failed: replay locally with the --seed/--replay pair above" >&2
  exit 1
}
cat _artifacts/fuzz.txt

echo "== traced campaign (-j 2): CSV + JSONL telemetry artifacts =="
mkdir -p _artifacts
dune exec bin/kfi_campaign.exe -- -c A --subsample 60 -q -j 2 \
  --csv _artifacts/campaign.csv --jsonl _artifacts/campaign.jsonl \
  > _artifacts/report.txt
# the telemetry log must pass the schema lint
dune exec bin/kfi_trace.exe -- --lint _artifacts/campaign.jsonl
grep -q 'Campaign telemetry' _artifacts/report.txt || {
  echo "telemetry summary missing from the report" >&2
  exit 1
}

echo "== determinism gate: -j 2 CSV + JSONL must match -j 1 byte for byte =="
dune exec bin/kfi_campaign.exe -- -c A --subsample 60 -q -j 1 \
  --csv _artifacts/campaign_serial.csv --jsonl _artifacts/campaign_serial.jsonl \
  > /dev/null
cmp _artifacts/campaign_serial.csv _artifacts/campaign.csv || {
  echo "determinism gate failed: parallel campaign diverged from serial" >&2
  exit 1
}
cmp _artifacts/campaign_serial.jsonl _artifacts/campaign.jsonl || {
  echo "determinism gate failed: parallel telemetry diverged from serial" >&2
  exit 1
}

echo "== reference gate: serial campaign must match the committed full-run artifacts =="
# Every other gate compares two runs that both resolve never-reached
# targets from the golden reach map.  results/ci_A_sub60.{csv,jsonl}
# were written by the plain full-run path (every target executed), so a
# skip that changes any row or any per-target cycle count fails here.
cmp results/ci_A_sub60.csv _artifacts/campaign_serial.csv || {
  echo "reference gate failed: campaign CSV diverged from the full-run reference" >&2
  exit 1
}
cmp results/ci_A_sub60.jsonl _artifacts/campaign_serial.jsonl || {
  echo "reference gate failed: telemetry diverged from the full-run reference" >&2
  exit 1
}

echo "== observability gate: metrics on, frames lint, byte-identity at -j 4 vs -j 1 =="
# Metrics are pure observation: with --metrics on, the CSV, the JSONL and
# the (canonically dumped) journal must be byte-identical between -j 4
# and -j 1, and identical to the metrics-off runs above.
dune exec bin/kfi_campaign.exe -- -c A --subsample 60 -q -j 4 \
  --csv _artifacts/obs4.csv --jsonl _artifacts/obs4.jsonl \
  --journal _artifacts/obs4.journal \
  --metrics _artifacts/obs4.metrics.jsonl --metrics-interval-ms 100 \
  > /dev/null
dune exec bin/kfi_campaign.exe -- -c A --subsample 60 -q -j 1 \
  --csv _artifacts/obs1.csv --jsonl _artifacts/obs1.jsonl \
  --journal _artifacts/obs1.journal \
  --metrics _artifacts/obs1.metrics.jsonl --metrics-interval-ms 100 \
  > /dev/null
# the frame streams lint, and each run left a rollup artifact
dune exec bin/kfi_stats.exe -- --lint _artifacts/obs4.metrics.jsonl \
  _artifacts/obs1.metrics.jsonl
dune exec bin/kfi_stats.exe -- _artifacts/obs4.metrics.jsonl \
  > _artifacts/obs_summary.txt
cat _artifacts/obs_summary.txt
test -s _artifacts/obs4.metrics.jsonl.rollup || {
  echo "observability gate failed: missing metrics rollup" >&2
  exit 1
}
cmp _artifacts/campaign_serial.csv _artifacts/obs1.csv || {
  echo "observability gate failed: metrics-on CSV diverged from metrics-off" >&2
  exit 1
}
cmp _artifacts/obs1.csv _artifacts/obs4.csv || {
  echo "observability gate failed: -j 4 CSV diverged from -j 1 with metrics on" >&2
  exit 1
}
cmp _artifacts/campaign_serial.jsonl _artifacts/obs1.jsonl || {
  echo "observability gate failed: metrics-on telemetry diverged from metrics-off" >&2
  exit 1
}
cmp _artifacts/obs1.jsonl _artifacts/obs4.jsonl || {
  echo "observability gate failed: -j 4 telemetry diverged from -j 1 with metrics on" >&2
  exit 1
}
# journals are written in completion order, so compare canonical dumps
dune exec bin/kfi_trace.exe -- --dump-journal _artifacts/obs1.journal \
  > _artifacts/obs1.journal.dump
dune exec bin/kfi_trace.exe -- --dump-journal _artifacts/obs4.journal \
  > _artifacts/obs4.journal.dump
cmp _artifacts/obs1.journal.dump _artifacts/obs4.journal.dump || {
  echo "observability gate failed: -j 4 journal diverged from -j 1 with metrics on" >&2
  exit 1
}

echo "== backend gate: cached backend byte-identical to the interpreter, -j 1 and -j 4 =="
# The cached backend (dirty-page restore + pre-decoded basic blocks) is a
# pure optimization: the CSV, the JSONL and the canonically
# dumped journal must match the interpreter runs above byte for byte,
# serial and parallel.  (Its per-instruction semantics are additionally
# fuzzed against the interpreter by the backend.equiv property in the
# pinned-seed stage.)
dune exec bin/kfi_campaign.exe -- -c A --subsample 60 -q -j 1 --backend cached \
  --csv _artifacts/cached1.csv --jsonl _artifacts/cached1.jsonl \
  --journal _artifacts/cached1.journal \
  --metrics _artifacts/cached1.metrics.jsonl > /dev/null
# the golden checkpoint ladder must actually serve some of these runs: a
# change that silently turns it off still passes every cmp below
dune exec bin/kfi_stats.exe -- _artifacts/cached1.metrics.jsonl \
  > _artifacts/cached1_summary.txt
grep 'started from a golden checkpoint' _artifacts/cached1_summary.txt
if ! grep -q 'started from a golden checkpoint: [1-9]' _artifacts/cached1_summary.txt; then
  echo "backend gate failed: no cached run started from a golden checkpoint" >&2
  exit 1
fi
# likewise the hang proof: this population has three hangs whose machine
# state recurs (schedule, wake_up and pipe_write), so the cmps below
# check skipped hangs against full interpreter runs
grep 'hangs proven by state recurrence' _artifacts/cached1_summary.txt
if ! grep -q 'hangs proven by state recurrence: [1-9]' _artifacts/cached1_summary.txt; then
  echo "backend gate failed: no hang proven by state recurrence" >&2
  exit 1
fi
# and the rejoin: masked runs must meet the golden state and restore a
# later rung, so the cmps below check rejoined runs too
grep 'rejoined the golden run' _artifacts/cached1_summary.txt
if ! grep -q 'rejoined the golden run: [1-9]' _artifacts/cached1_summary.txt; then
  echo "backend gate failed: no cached run rejoined the golden run" >&2
  exit 1
fi
# and the block cache: restores and stores to pages holding decoded code
# must leave blocks whose bytes still match in place, re-checked rather
# than rebuilt, so the cmps below check kept blocks too
grep 'block cache' _artifacts/cached1_summary.txt
if ! grep -q 're-verified after a page write: [1-9]' _artifacts/cached1_summary.txt; then
  echo "backend gate failed: no block re-verified after a page write" >&2
  exit 1
fi
dune exec bin/kfi_campaign.exe -- -c A --subsample 60 -q -j 4 --backend cached \
  --csv _artifacts/cached4.csv --jsonl _artifacts/cached4.jsonl \
  --journal _artifacts/cached4.journal > /dev/null
cmp _artifacts/campaign_serial.csv _artifacts/cached1.csv || {
  echo "backend gate failed: cached -j 1 CSV diverged from the interpreter" >&2
  exit 1
}
cmp _artifacts/cached1.csv _artifacts/cached4.csv || {
  echo "backend gate failed: cached -j 4 CSV diverged from cached -j 1" >&2
  exit 1
}
cmp _artifacts/campaign_serial.jsonl _artifacts/cached1.jsonl || {
  echo "backend gate failed: cached -j 1 telemetry diverged from the interpreter" >&2
  exit 1
}
cmp _artifacts/cached1.jsonl _artifacts/cached4.jsonl || {
  echo "backend gate failed: cached -j 4 telemetry diverged from cached -j 1" >&2
  exit 1
}
# journals are written in completion order, so compare canonical dumps
dune exec bin/kfi_trace.exe -- --dump-journal _artifacts/cached1.journal \
  > _artifacts/cached1.journal.dump
dune exec bin/kfi_trace.exe -- --dump-journal _artifacts/cached4.journal \
  > _artifacts/cached4.journal.dump
cmp _artifacts/obs1.journal.dump _artifacts/cached1.journal.dump || {
  echo "backend gate failed: cached -j 1 journal diverged from the interpreter" >&2
  exit 1
}
cmp _artifacts/cached1.journal.dump _artifacts/cached4.journal.dump || {
  echo "backend gate failed: cached -j 4 journal diverged from cached -j 1" >&2
  exit 1
}

echo "== sweep gate: the cached reference sweep must match the interpreter's =="
# The shortcuts (reach-map skips, ladder starts, proven hangs, rejoins)
# each change what executes for more than a thousand targets of the
# reference sweep.  results/campaign_subsample2.csv and the MD5 of its
# telemetry JSONL (per-target cycles) were written by one interpreter
# run (-c A -c B -c C --subsample 2 -j 1, seed 42), so any row or cycle
# count a shortcut changes fails here, and so does a retry, which would
# hide a harness fault.
dune exec bin/kfi_campaign.exe -- -c A -c B -c C --subsample 2 -q -j 1 \
  --backend cached --metrics _artifacts/sweep.metrics.jsonl \
  --csv _artifacts/sweep.csv --jsonl _artifacts/sweep.jsonl > /dev/null
cmp results/campaign_subsample2.csv _artifacts/sweep.csv || {
  echo "sweep gate failed: cached sweep CSV diverged from the interpreter reference" >&2
  exit 1
}
sweep_md5=$(md5sum < _artifacts/sweep.jsonl | cut -d' ' -f1)
[ "$sweep_md5" = "$(cut -d' ' -f1 results/campaign_subsample2.jsonl.md5)" ] || {
  echo "sweep gate failed: cached sweep telemetry diverged from the interpreter reference" >&2
  exit 1
}
retried=$(awk -F, 'NR > 1 && $16 > 0' _artifacts/sweep.csv | wc -l)
[ "$retried" -eq 0 ] || {
  echo "sweep gate failed: $retried target(s) needed a retry" >&2
  exit 1
}
dune exec bin/kfi_stats.exe -- _artifacts/sweep.metrics.jsonl > _artifacts/sweep_summary.txt
grep -E 'elapsed|rejoined|hangs proven' _artifacts/sweep_summary.txt

echo "== observability overhead cap: metrics must cost < 5% wall clock =="
dune exec bench/main.exe -- obs --subsample 60 --max-overhead-pct 5 \
  > _artifacts/bench_obs.txt 2>&1 || {
  cat _artifacts/bench_obs.txt
  echo "observability overhead cap exceeded (see _artifacts/bench_obs.txt)" >&2
  exit 1
}
tail -n 12 _artifacts/bench_obs.txt
cp BENCH_obs.json _artifacts/BENCH_obs.json

echo "== chaos gate: SIGKILL mid-campaign, resume from the journal =="
# Start a journaled run, shoot it once completed injections are on disk,
# resume, and demand output byte-identical to the uninterrupted run.
rm -f _artifacts/chaos.journal
_build/default/bin/kfi_campaign.exe -c A --subsample 60 -q \
  --journal _artifacts/chaos.journal > /dev/null 2>&1 &
chaos_pid=$!
i=0
while [ "$i" -lt 600 ]; do
  if [ -f _artifacts/chaos.journal ]; then
    size=$(wc -c < _artifacts/chaos.journal)
  else
    size=0
  fi
  [ "$size" -gt 2048 ] && break
  kill -0 "$chaos_pid" 2>/dev/null || break
  sleep 0.1
  i=$((i + 1))
done
kill -9 "$chaos_pid" 2>/dev/null || true
wait "$chaos_pid" 2>/dev/null || true
cp _artifacts/chaos.journal _artifacts/chaos.journal.killed
_build/default/bin/kfi_campaign.exe -c A --subsample 60 -q \
  --journal _artifacts/chaos.journal --resume \
  --csv _artifacts/chaos.csv --jsonl _artifacts/chaos.jsonl > /dev/null
cmp _artifacts/campaign_serial.csv _artifacts/chaos.csv || {
  echo "chaos gate failed: resumed campaign CSV diverged from uninterrupted" >&2
  exit 1
}
cmp _artifacts/campaign_serial.jsonl _artifacts/chaos.jsonl || {
  echo "chaos gate failed: resumed telemetry diverged from uninterrupted" >&2
  exit 1
}

echo "== shard chaos gate: SIGKILL worker processes mid-campaign, byte-identical output =="
# Run the campaign as process-isolated shards under the supervising
# coordinator, shoot two worker processes while it runs (waiting for the
# restarted replacement between shots), and demand CSV, JSONL
# and the canonically dumped journal byte-identical to the serial
# uninterrupted artifacts above.  The supervisor event log (spawns,
# deaths, requeues) is kept as an artifact.
rm -f _artifacts/shard_chaos.journal
worker_pids() {
  if command -v pgrep > /dev/null 2>&1; then
    pgrep -f kfi_worker.exe 2>/dev/null || true
  else
    ps ax -o pid=,command= 2>/dev/null | grep kfi_worker.exe | grep -v grep \
      | awk '{print $1}' || true
  fi
}
_build/default/bin/kfi_campaign.exe -c A --subsample 60 -q \
  --workers 2 \
  --journal _artifacts/shard_chaos.journal \
  --supervisor-log _artifacts/shard_chaos.events.jsonl \
  --csv _artifacts/shard_chaos.csv --jsonl _artifacts/shard_chaos.jsonl \
  > /dev/null 2>&1 &
shard_pid=$!
kills=0
killed_pid=""
i=0
while [ "$i" -lt 3000 ]; do
  kill -0 "$shard_pid" 2>/dev/null || break
  if [ "$kills" -lt 2 ]; then
    for w in $(worker_pids); do
      # wait for the restarted replacement before the second shot
      if [ "$w" != "$killed_pid" ]; then
        if kill -9 "$w" 2>/dev/null; then
          kills=$((kills + 1))
          killed_pid=$w
          echo "  killed worker pid $w (kill #$kills)"
        fi
        break
      fi
    done
  fi
  sleep 0.1
  i=$((i + 1))
done
wait "$shard_pid" || {
  echo "shard chaos gate failed: supervised campaign did not survive worker kills" >&2
  exit 1
}
[ "$kills" -ge 2 ] || {
  echo "shard chaos gate failed: only landed $kills worker kill(s)" >&2
  exit 1
}
deaths=$(grep -c '"ev":"death"' _artifacts/shard_chaos.events.jsonl) || deaths=0
[ "$deaths" -ge 2 ] || {
  echo "shard chaos gate failed: supervisor log recorded $deaths death(s)" >&2
  exit 1
}
cmp _artifacts/campaign_serial.csv _artifacts/shard_chaos.csv || {
  echo "shard chaos gate failed: CSV diverged from serial after worker kills" >&2
  exit 1
}
cmp _artifacts/campaign_serial.jsonl _artifacts/shard_chaos.jsonl || {
  echo "shard chaos gate failed: telemetry diverged from serial" >&2
  exit 1
}
dune exec bin/kfi_trace.exe -- --dump-journal _artifacts/shard_chaos.journal \
  > _artifacts/shard_chaos.journal.dump
cmp _artifacts/obs1.journal.dump _artifacts/shard_chaos.journal.dump || {
  echo "shard chaos gate failed: journal diverged from serial" >&2
  exit 1
}
echo "  $kills workers SIGKILLed, $deaths deaths supervised, output byte-identical"

echo "== coordinator-kill gate: SIGKILL the --workers coordinator, resume from its journal =="
# The coordinator journals each entry a worker streams as it arrives.
# Shoot it once the journal passes 2 KB, demand that the shot landed in
# the worker phase (fewer shards done than planned), then resume: the
# resume must skip what was journaled and end byte-identical to the
# serial artifacts.
rm -f _artifacts/coord_chaos.journal _artifacts/coord_chaos.events.jsonl
_build/default/bin/kfi_campaign.exe -c A --subsample 60 -q --workers 2 \
  --journal _artifacts/coord_chaos.journal \
  --supervisor-log _artifacts/coord_chaos.events.jsonl > /dev/null 2>&1 &
coord_pid=$!
i=0
while [ "$i" -lt 3000 ]; do
  if [ -f _artifacts/coord_chaos.journal ]; then
    size=$(wc -c < _artifacts/coord_chaos.journal)
  else
    size=0
  fi
  [ "$size" -gt 2048 ] && break
  kill -0 "$coord_pid" 2>/dev/null || break
  sleep 0.05
  i=$((i + 1))
done
kill -9 "$coord_pid" 2>/dev/null || true
wait "$coord_pid" 2>/dev/null || true
shards=$(sed -n 's/.*"ev":"start".*"shards":\([0-9]*\).*/\1/p' \
  _artifacts/coord_chaos.events.jsonl)
done_shards=$(grep -c '"ev":"done"' _artifacts/coord_chaos.events.jsonl) || done_shards=0
[ -n "$shards" ] && [ "$done_shards" -lt "$shards" ] || {
  echo "coordinator-kill gate failed: the kill did not land in the worker phase ($done_shards of ${shards:-?} shards done)" >&2
  exit 1
}
_build/default/bin/kfi_campaign.exe -c A --subsample 60 -q --workers 2 \
  --journal _artifacts/coord_chaos.journal --resume \
  --csv _artifacts/coord_chaos.csv --jsonl _artifacts/coord_chaos.jsonl \
  2> _artifacts/coord_chaos.resume.txt > /dev/null
skipped=$(sed -n 's/.*: \([0-9]*\) completed injection(s) to skip.*/\1/p' \
  _artifacts/coord_chaos.resume.txt)
[ "${skipped:-0}" -gt 0 ] || {
  echo "coordinator-kill gate failed: the resume skipped no journaled injection" >&2
  exit 1
}
cmp _artifacts/campaign_serial.csv _artifacts/coord_chaos.csv || {
  echo "coordinator-kill gate failed: resumed CSV diverged from serial" >&2
  exit 1
}
cmp _artifacts/campaign_serial.jsonl _artifacts/coord_chaos.jsonl || {
  echo "coordinator-kill gate failed: resumed telemetry diverged from serial" >&2
  exit 1
}
dune exec bin/kfi_trace.exe -- --dump-journal _artifacts/coord_chaos.journal \
  > _artifacts/coord_chaos.journal.dump
cmp _artifacts/obs1.journal.dump _artifacts/coord_chaos.journal.dump || {
  echo "coordinator-kill gate failed: resumed journal diverged from serial" >&2
  exit 1
}
echo "  coordinator killed with $done_shards of $shards shards done; resume skipped $skipped"

echo "== static oracle self-check =="
# Classification must be total and campaign C must be 100% reversed
# conditions; both are printed by the histogram dump.
out=$(dune exec bin/kfi_oracle.exe -- -c C)
echo "$out"
echo "$out" | grep -q 'cond reversed.*(100\.0%)' || {
  echo "oracle self-check failed: campaign C not fully classified as cond reversed" >&2
  exit 1
}

echo "== oracle audit: observed propagation must stay inside predicted slices =="
# Pinned-seed subsample; exits non-zero on any hop outside its slice.
# The slice confusion matrix it prints is kept as a CI artifact.
mkdir -p _artifacts
dune exec bin/kfi_oracle.exe -- --audit-slices -c A -c C --subsample 40 \
  --seed 42 -q -j 2 > _artifacts/oracle_audit.txt 2>/dev/null || {
  cat _artifacts/oracle_audit.txt
  echo "oracle audit failed: propagation hop outside its predicted slice" >&2
  exit 1
}
cat _artifacts/oracle_audit.txt
grep -q 'no soundness violations' _artifacts/oracle_audit.txt || {
  echo "oracle audit did not report a clean pass" >&2
  exit 1
}

echo "CI OK"
