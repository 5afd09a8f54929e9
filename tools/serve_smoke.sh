#!/usr/bin/env bash
# End-to-end smoke of the `pmcorr serve` daemon under forced overload:
#   1. cold start, two tenants;
#   2. replay at full speed against a tiny queue -> shedding + the
#      submitted == accepted + shed + rejected invariant;
#   3. client-requested drain -> every tenant checkpoints, exit 0;
#   4. warm restart from the checkpoints;
#   5. kill -9 mid-serve -> restart still restores a good generation,
#      one a whole number of checkpoint cadences past the last start;
#   6. a v1 text checkpoint is rejected by name, then cold-trained.
#
# usage: serve_smoke.sh <pmcorr-binary> <pmcorr_replay-binary>
set -euo pipefail

PMCORR=$1
REPLAY=$2

dir=$(mktemp -d)
serve_pid=""
cleanup() {
  if [[ -n "$serve_pid" ]] && kill -0 "$serve_pid" 2>/dev/null; then
    kill -9 "$serve_pid" 2>/dev/null || true
    wait "$serve_pid" 2>/dev/null || true
  fi
  rm -rf "$dir"
}
trap cleanup EXIT

await_line() { # file pattern [timeout-seconds]
  local deadline=$(( $(date +%s) + ${3:-30} ))
  until grep -q "$2" "$1" 2>/dev/null; do
    if (( $(date +%s) >= deadline )); then
      echo "serve_smoke: timed out waiting for '$2' in $1" >&2
      cat "$1" >&2 || true
      return 1
    fi
    sleep 0.2
  done
}

await_exit() { # pid [timeout-seconds]
  local deadline=$(( $(date +%s) + ${2:-60} ))
  while kill -0 "$1" 2>/dev/null; do
    if (( $(date +%s) >= deadline )); then
      echo "serve_smoke: daemon $1 did not exit" >&2
      return 1
    fi
    sleep 0.2
  done
}

field() { # line key -> value of key=value
  sed -n "s/.*[[:space:]]$2=\\([^[:space:]]*\\).*/\\1/p" <<<"$1"
}

restored_steps() { # log tenant -> the steps= of its restore line
  field "$(grep "tenant $2: restored from" "$1")" steps
}

"$PMCORR" generate --group A --machines 6 --days 3 --out "$dir/trace.csv" \
    > /dev/null

# --- 1+2: cold start under forced overload --------------------------
"$PMCORR" serve --socket "$dir/s.sock" \
    --tenant A="$dir/trace.csv":1 --tenant B="$dir/trace.csv":1 \
    --checkpoint-dir "$dir/ckpt" --checkpoint-every 40 \
    --queue-budget 8 --ingest-delay-ms 2 --partners 1 \
    > "$dir/serve1.log" 2>&1 &
serve_pid=$!
await_line "$dir/serve1.log" "serve: listening"

status=$("$REPLAY" --socket "$dir/s.sock" --tenant A \
    --trace "$dir/trace.csv" --rows 300 | grep '^tenant A:')
echo "$status"
submitted=$(field "$status" submitted)
accepted=$(field "$status" accepted)
shed=$(field "$status" shed)
rejected=$(field "$status" rejected)
[[ "$submitted" == 300 ]]
(( shed > 0 )) || { echo "expected shedding under overload" >&2; exit 1; }
(( submitted == accepted + shed + rejected )) || {
  echo "accounting broken: $submitted != $accepted+$shed+$rejected" >&2
  exit 1
}

# The healthy tenant B must be untouched by A's overload.
status_b=$("$REPLAY" --socket "$dir/s.sock" --tenant B | grep '^tenant B:')
[[ "$(field "$status_b" submitted)" == 0 ]]

# --- 3: client-requested drain --------------------------------------
drain_out=$("$REPLAY" --socket "$dir/s.sock" --tenant A --drain)
echo "$drain_out" | grep -q 'drained tenant A: state=drained'
echo "$drain_out" | grep -q 'drained tenant B: state=drained'
echo "$drain_out" | grep -q 'checkpoint=ok'
await_exit "$serve_pid"
wait "$serve_pid" && rc=0 || rc=$?
[[ "$rc" == 0 ]] || { echo "daemon exit code $rc after drain" >&2; exit 1; }
grep -q 'serve: drained' "$dir/serve1.log"
# After a drain every accepted row was processed.
processed=$(grep 'tenant A: drained' "$dir/serve1.log" |
    sed -n 's/.*processed=\([0-9]*\).*/\1/p')
[[ "$processed" == "$accepted" ]] || {
  echo "drain left rows behind: processed=$processed accepted=$accepted" >&2
  exit 1
}
[[ -f "$dir/ckpt/A.ckpt" && -f "$dir/ckpt/B.ckpt" ]]

# --- 4: warm restart + SIGTERM drain --------------------------------
"$PMCORR" serve --socket "$dir/s.sock" \
    --tenant A="$dir/trace.csv":1 --tenant B="$dir/trace.csv":1 \
    --checkpoint-dir "$dir/ckpt" > "$dir/serve2.log" 2>&1 &
serve_pid=$!
await_line "$dir/serve2.log" "serve: listening"
grep -q 'tenant A: restored from' "$dir/serve2.log"
grep -q 'tenant B: restored from' "$dir/serve2.log"
kill -TERM "$serve_pid"
await_exit "$serve_pid"
wait "$serve_pid" && rc=0 || rc=$?
[[ "$rc" == 0 ]]
grep -q 'serve: drained' "$dir/serve2.log"

# --- 5: kill -9 mid-serve, restart recovers -------------------------
# serve3 saves every 10 rows, each write on the tenant's writer thread,
# and the kill may land during any of them. The 60 rows stay below the
# default queue's high watermark, so no save is held off the cadence
# grid: the restart must restore a state a whole number of cadences past
# the one serve3 started from (zero cadences included).
"$PMCORR" serve --socket "$dir/s.sock" \
    --tenant A="$dir/trace.csv":1 \
    --checkpoint-dir "$dir/ckpt" --checkpoint-every 10 --partners 1 \
    > "$dir/serve3.log" 2>&1 &
serve_pid=$!
await_line "$dir/serve3.log" "serve: listening"
steps_before=$(restored_steps "$dir/serve3.log" A)
"$REPLAY" --socket "$dir/s.sock" --tenant A \
    --trace "$dir/trace.csv" --rows 60 > /dev/null
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
"$PMCORR" serve --socket "$dir/s.sock" \
    --tenant A="$dir/trace.csv":1 \
    --checkpoint-dir "$dir/ckpt" > "$dir/serve4.log" 2>&1 &
serve_pid=$!
await_line "$dir/serve4.log" "serve: listening"
steps_after=$(restored_steps "$dir/serve4.log" A)
[[ -n "$steps_before" && -n "$steps_after" ]] &&
    (( steps_after >= steps_before &&
       (steps_after - steps_before) % 10 == 0 )) || {
  echo "kill -9 restored steps=$steps_after, not a 10-row cadence past" \
       "steps=$steps_before" >&2
  exit 1
}
kill -TERM "$serve_pid"
await_exit "$serve_pid"
wait "$serve_pid" && rc=0 || rc=$?
[[ "$rc" == 0 ]]
serve_pid=""

# --- 6: a checkpoint in the retired text format ---------------------
printf 'pmcorr-monitor v1\nmeasurements 0\npairs 0\n' > "$dir/ckpt/C.ckpt"
"$PMCORR" serve --socket "$dir/s.sock" \
    --tenant C="$dir/trace.csv":1 \
    --checkpoint-dir "$dir/ckpt" --partners 1 > "$dir/serve5.log" 2>&1 &
serve_pid=$!
await_line "$dir/serve5.log" "serve: listening"
grep -q 'C.ckpt: LoadSystemMonitor: a pmcorr-monitor v1 text checkpoint' \
    "$dir/serve5.log"
rejected_at=$(grep -n 'tenant C: no checkpoint restored' "$dir/serve5.log" |
    cut -d: -f1)
trained_at=$(grep -n 'tenant C: trained' "$dir/serve5.log" | cut -d: -f1)
[[ -n "$rejected_at" && -n "$trained_at" ]] &&
    (( rejected_at < trained_at )) || {
  echo "expected the v1 rejection, then a cold train" >&2
  cat "$dir/serve5.log" >&2
  exit 1
}
kill -TERM "$serve_pid"
await_exit "$serve_pid"
wait "$serve_pid" && rc=0 || rc=$?
[[ "$rc" == 0 ]]
serve_pid=""

echo "serve_smoke: OK"
