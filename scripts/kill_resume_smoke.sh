#!/usr/bin/env bash
# Kill-and-resume smoke test for crash-safe campaigns.
#
# Runs the full `solarnet report` pipeline three ways:
#   1. baseline: no checkpointing,
#   2. checkpointed run SIGKILLed as soon as the first checkpoint file
#      appears (a hard, unannounced kill — no signal handlers involved),
#   3. resume: the same checkpointed command again, which picks the
#      checkpoint up and finishes the campaign.
# The resumed report on stdout must be byte-identical to the baseline —
# the checkpoint/resume machinery may never change a single reported
# number. If the machine is so fast the run finishes before the kill
# lands, the script still validates the (trivially fresh) rerun.
#
# A second leg kills an --s1 run the same way and resumes it as --s2: the
# checkpoint belongs to a different scenario, so the run must restart
# fresh and print exactly the report of an uncheckpointed --s2 run.
#
# Usage: scripts/kill_resume_smoke.sh [path-to-solarnet-binary]
set -euo pipefail

BIN=${1:-build/tools/solarnet}
TRIALS=${TRIALS:-1280}

if [ ! -x "$BIN" ]; then
  echo "kill_resume_smoke: binary not found: $BIN" >&2
  exit 1
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
ck="$work/campaign.ck"
common=(report --trials "$TRIALS" --threads 2 --seed 7)

# Starts `solarnet <args> --checkpoint $ck` and SIGKILLs it as soon as the
# checkpoint file appears.
run_and_kill() {
  echo "kill_resume_smoke: checkpointed run ($*), SIGKILL at first checkpoint"
  "$BIN" "$@" --checkpoint "$ck" --checkpoint-every 2 \
    > "$work/killed.txt" 2> "$work/killed.err" &
  pid=$!
  for _ in $(seq 1 400); do
    [ -s "$ck" ] && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.05
  done
  if kill -9 "$pid" 2>/dev/null; then
    echo "kill_resume_smoke: SIGKILLed pid $pid"
  else
    echo "kill_resume_smoke: run finished before the kill; validating rerun"
  fi
  wait "$pid" 2>/dev/null || true
  if [ -s "$ck" ]; then
    echo "kill_resume_smoke: checkpoint survives the kill ($(stat -c%s "$ck") bytes)"
  else
    echo "kill_resume_smoke: no checkpoint on disk; resume falls back to a fresh run"
  fi
}

# Resumes `solarnet <args>` from $ck and requires its stdout to equal the
# uncheckpointed run of the same arguments.
resume_and_compare() {
  echo "kill_resume_smoke: baseline run ($*)"
  "$BIN" "$@" > "$work/baseline.txt"
  echo "kill_resume_smoke: resuming ($*)"
  "$BIN" "$@" --checkpoint "$ck" --checkpoint-every 2 \
    > "$work/resumed.txt" 2> "$work/resumed.err"
  grep "^campaign:" "$work/resumed.err" || true
  if ! diff -u "$work/baseline.txt" "$work/resumed.txt"; then
    echo "kill_resume_smoke: FAILED — resumed report differs from baseline ($*)" >&2
    exit 1
  fi
}

run_and_kill "${common[@]}" --s1
resume_and_compare "${common[@]}" --s1
echo "kill_resume_smoke: resumed report is byte-identical to baseline"

run_and_kill "${common[@]}" --s1
resume_and_compare "${common[@]}" --s2
echo "kill_resume_smoke: an --s1 checkpoint resumed as --s2 prints the fresh --s2 report"
echo "kill_resume_smoke: PASSED"
