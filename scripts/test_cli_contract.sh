#!/bin/sh
# Exit-code contract test for sharedres_cli:
#   0 ok | 1 infeasible | 2 usage | 3 input error
# plus the `validate --json` output shape. Run by ctest as
# `test_cli_contract.sh <path-to-sharedres_cli>`; any mismatch fails the test.
set -u

CLI=$1
tmp=$(mktemp -d) || exit 1
trap 'rm -rf "$tmp"' EXIT
fail=0

expect() { # description expected_exit actual_exit
  if [ "$2" -ne "$3" ]; then
    echo "FAIL: $1: expected exit $2, got $3"
    fail=1
  else
    echo "ok: $1 (exit $3)"
  fi
}

# ---- usage errors -> 2 -----------------------------------------------------
"$CLI" >/dev/null 2>&1
expect "no command" 2 $?

"$CLI" frobnicate >/dev/null 2>&1
expect "unknown command" 2 $?

"$CLI" solve >/dev/null 2>&1
expect "solve without --instance" 2 $?

"$CLI" validate --instance=only.txt >/dev/null 2>&1
expect "validate without --schedule" 2 $?

"$CLI" gen --machines=abc >/dev/null 2>&1
expect "non-numeric --machines" 2 $?

"$CLI" gen --machines=99999999999999999999 >/dev/null 2>&1
expect "overflowing --machines" 2 $?

# Count flags that a cast would wrap are usage errors naming the flag, not a
# vector::reserve failure (exit 1) or a silently different instance.
"$CLI" gen --jobs=-1 >/dev/null 2> "$tmp/wrap.err"
expect "gen --jobs=-1" 2 $?
grep -q -- '--jobs' "$tmp/wrap.err" || {
  echo 'FAIL: gen --jobs=-1 does not name the flag'
  fail=1
}
"$CLI" gen --machines=4294967298 --out="$tmp/wrapped.txt" >/dev/null 2>&1
expect "gen --machines=4294967298" 2 $?
[ ! -e "$tmp/wrapped.txt" ] || {
  echo 'FAIL: gen --machines=4294967298 wrote an instance'
  fail=1
}
"$CLI" gen --machines=-4294967294 >/dev/null 2>&1
expect "gen --machines=-4294967294" 2 $?
"$CLI" loadgen --socket=x --requests=-1 >/dev/null 2>&1
expect "loadgen --requests=-1" 2 $?
"$CLI" loadgen --socket=x --jobs=-1 >/dev/null 2>&1
expect "loadgen --jobs=-1" 2 $?
"$CLI" loadgen --socket=x --machines=4294967298 >/dev/null 2>&1
expect "loadgen --machines=4294967298" 2 $?
"$CLI" validate --instance="$tmp/missing.txt" --schedule="$tmp/missing.txt" \
  --max-violations=-1 >/dev/null 2>&1
expect "validate --max-violations=-1" 2 $?

"$CLI" solve --instance=x --algorithm=nope >/dev/null 2>&1
expect "unknown --algorithm" 2 $?

# ---- input errors -> 3 -----------------------------------------------------
"$CLI" solve --instance="$tmp/definitely-missing.txt" >/dev/null 2>&1
expect "missing instance file" 3 $?

printf 'not a sharedres file\n' > "$tmp/garbage.txt"
"$CLI" solve --instance="$tmp/garbage.txt" >/dev/null 2>&1
expect "malformed instance file" 3 $?

printf '# sharedres instance v1\nmachines 2\ncapacity 99999999999999999999\njobs 0\n' \
  > "$tmp/overflow.txt"
"$CLI" bounds --instance="$tmp/overflow.txt" >/dev/null 2>&1
expect "out-of-range number in instance" 3 $?

printf '# sharedres instance v1\nmachines 0\ncapacity 10\njobs 0\n' \
  > "$tmp/badsem.txt"
"$CLI" bounds --instance="$tmp/badsem.txt" >/dev/null 2>&1
expect "semantically invalid instance" 3 $?

# ---- ok -> 0 ---------------------------------------------------------------
"$CLI" gen --family=uniform --machines=4 --jobs=20 --seed=7 \
  --out="$tmp/inst.txt" >/dev/null 2>&1
expect "gen" 0 $?

"$CLI" solve --instance="$tmp/inst.txt" --out="$tmp/sched.txt" >/dev/null 2>&1
expect "solve" 0 $?

"$CLI" validate --instance="$tmp/inst.txt" --schedule="$tmp/sched.txt" \
  >/dev/null 2>&1
expect "validate feasible" 0 $?

# The improved portfolio (DESIGN.md §15) must honor the same contract: a
# clean solve exits 0, its schedule validates, and its makespan never
# exceeds the window scheduler's (portfolio domination).
"$CLI" solve --instance="$tmp/inst.txt" --algorithm=improved \
  --out="$tmp/sched-improved.txt" > "$tmp/solve-improved.out" 2>&1
expect "solve --algorithm=improved" 0 $?

"$CLI" validate --instance="$tmp/inst.txt" \
  --schedule="$tmp/sched-improved.txt" >/dev/null 2>&1
expect "validate improved schedule" 0 $?

improved_mk=$(sed -n 's/^makespan: *//p' "$tmp/solve-improved.out")
window_mk=$("$CLI" solve --instance="$tmp/inst.txt" --algorithm=window 2>&1 |
  sed -n 's/^makespan: *//p')
if [ -n "$improved_mk" ] && [ -n "$window_mk" ] &&
   [ "$improved_mk" -le "$window_mk" ]; then
  echo "ok: improved makespan $improved_mk <= window $window_mk"
else
  echo "FAIL: improved makespan '$improved_mk' vs window '$window_mk'"
  fail=1
fi

# ---- d-resource generalization (DESIGN.md §16) -----------------------------
"$CLI" gen --resources=0 >/dev/null 2>&1
expect "gen --resources=0" 2 $?

"$CLI" gen --resources=9 >/dev/null 2>&1
expect "gen --resources above kMaxResources" 2 $?

"$CLI" gen --family=correlated --resources=2 --machines=4 --jobs=16 --seed=5 \
  --out="$tmp/inst-d2.txt" >/dev/null 2>&1
expect "gen --resources=2" 0 $?
grep -q '^# sharedres instance v2$' "$tmp/inst-d2.txt" || {
  echo 'FAIL: d=2 instance file lacks the v2 header'
  fail=1
}

"$CLI" solve --instance="$tmp/inst-d2.txt" --algorithm=multires \
  --out="$tmp/sched-d2.txt" >/dev/null 2>&1
expect "solve --algorithm=multires (d=2)" 0 $?

"$CLI" validate --instance="$tmp/inst-d2.txt" --schedule="$tmp/sched-d2.txt" \
  >/dev/null 2>&1
expect "validate multires schedule" 0 $?

# d=1 is a conservative extension: the multires facade delegates to the
# window scheduler, so the makespans must be identical.
multires_mk=$("$CLI" solve --instance="$tmp/inst.txt" --algorithm=multires \
  2>&1 | sed -n 's/^makespan: *//p')
if [ -n "$multires_mk" ] && [ "$multires_mk" = "$window_mk" ]; then
  echo "ok: multires d=1 makespan $multires_mk == window $window_mk"
else
  echo "FAIL: multires d=1 makespan '$multires_mk' vs window '$window_mk'"
  fail=1
fi

# Rigid d>1 scheduling rejects a job whose secondary requirement exceeds
# that axis's capacity: typed input error, not a crash.
printf '# sharedres instance v2\nmachines 2\nresources 2\ncapacity 10 4\njobs 1\njob 2 3 5\n' \
  > "$tmp/oversize-d2.txt"
"$CLI" solve --instance="$tmp/oversize-d2.txt" --algorithm=multires \
  >/dev/null 2>&1
expect "solve multires oversized secondary requirement" 3 $?

# d > 1 belongs to multires: every single-resource algorithm rejects a v2
# instance as an input error instead of scheduling its primary axis alone.
for algorithm in window unit improved gg equalsplit sequential; do
  "$CLI" solve --instance="$tmp/inst-d2.txt" --algorithm=$algorithm \
    >/dev/null 2> "$tmp/d2-$algorithm.err"
  expect "solve --algorithm=$algorithm rejects a d=2 instance" 3 $?
done
grep -q "algorithm 'window' requires a single resource; the instance has 2" \
  "$tmp/d2-window.err" || {
  echo 'FAIL: solve --algorithm=window on d=2 lacks the typed message'
  fail=1
}

"$CLI" validate --instance="$tmp/inst.txt" --schedule="$tmp/sched.txt" \
  --json > "$tmp/ok.json" 2>/dev/null
expect "validate feasible --json" 0 $?
grep -q '"ok": true' "$tmp/ok.json" || {
  echo 'FAIL: feasible --json output lacks "ok": true'
  fail=1
}
grep -q '"makespan"' "$tmp/ok.json" || {
  echo 'FAIL: feasible --json output lacks "makespan"'
  fail=1
}

# ---- infeasible -> 1 -------------------------------------------------------
printf '# sharedres instance v1\nmachines 2\ncapacity 10\njobs 1\njob 2 4\n' \
  > "$tmp/one.txt"
printf '# sharedres schedule v1\nblocks 1\nblock 1 1 0:6\n' \
  > "$tmp/bad-sched.txt"
"$CLI" validate --instance="$tmp/one.txt" --schedule="$tmp/bad-sched.txt" \
  >/dev/null 2>&1
expect "validate infeasible" 1 $?

"$CLI" validate --instance="$tmp/one.txt" --schedule="$tmp/bad-sched.txt" \
  --json > "$tmp/bad.json" 2>/dev/null
expect "validate infeasible --json" 1 $?
grep -q '"ok": false' "$tmp/bad.json" || {
  echo 'FAIL: infeasible --json output lacks "ok": false'
  fail=1
}
grep -q '"code": "share_above_requirement"' "$tmp/bad.json" || {
  echo 'FAIL: infeasible --json output lacks the violation code'
  fail=1
}

# ---- batch command ---------------------------------------------------------
"$CLI" batch >/dev/null 2>&1
expect "batch without --in/--dir" 2 $?

"$CLI" batch --in=a --dir=b >/dev/null 2>&1
expect "batch with both --in and --dir" 2 $?

"$CLI" batch --in=x.ndjson --algorithm=nope >/dev/null 2>&1
expect "batch unknown --algorithm" 2 $?

"$CLI" batch --in=x.ndjson --threads=0 >/dev/null 2>&1
expect "batch --threads=0" 2 $?

# The work flags batch and serve share, each rejected before any input is
# read or any worker starts. Without a bad flag, both exit 0 on empty input.
for command in "batch --in=-" serve; do
  "$CLI" $command </dev/null >/dev/null 2>&1
  expect "$command on empty input" 0 $?
  for flag in --threads=0 --queue=0 --deadline-steps=-1 --deadline-ms=-1 \
      --cache=-1 --algorithm=nope; do
    "$CLI" $command $flag </dev/null >/dev/null 2>&1
    expect "$command $flag" 2 $?
  done
done
for flag in --shed-high-water=-1 --max-connections=0 --replay; do
  "$CLI" serve $flag </dev/null >/dev/null 2>&1
  expect "serve $flag" 2 $?
done

"$CLI" batch --in="$tmp/definitely-missing.ndjson" >/dev/null 2>&1
expect "batch missing input stream" 3 $?

"$CLI" batch --dir="$tmp/definitely-missing-dir" >/dev/null 2>&1
expect "batch missing input directory" 3 $?

"$CLI" gen --family=uniform --machines=4 --jobs=10 --seed=3 --count=5 \
  --format=ndjson --out="$tmp/stream.ndjson" >/dev/null 2>&1
expect "gen --format=ndjson" 0 $?

"$CLI" batch --in="$tmp/stream.ndjson" > "$tmp/results.ndjson" 2>/dev/null
expect "batch all records ok" 0 $?
grep -q '"summary":true,"records":5,"ok":5,"failed":0' "$tmp/results.ndjson" || {
  echo 'FAIL: batch summary line lacks the expected counts'
  fail=1
}

"$CLI" batch --in="$tmp/stream.ndjson" --algorithm=improved \
  > "$tmp/results-improved.ndjson" 2>/dev/null
expect "batch --algorithm=improved all records ok" 0 $?
grep -q '"summary":true,"records":5,"ok":5,"failed":0' \
  "$tmp/results-improved.ndjson" || {
  echo 'FAIL: improved batch summary line lacks the expected counts'
  fail=1
}
grep -q '"algorithm":"improved"' "$tmp/results-improved.ndjson" || {
  echo 'FAIL: improved batch records lack "algorithm":"improved"'
  fail=1
}

# A malformed record mid-stream must yield a typed per-record error line and
# exit 1 — the remaining records still run.
printf '{"machines":0,"capacity":1,"jobs":[]}\n' >> "$tmp/stream.ndjson"
"$CLI" gen --family=uniform --machines=4 --jobs=10 --seed=100 --count=1 \
  --format=ndjson >> "$tmp/stream.ndjson" 2>/dev/null
"$CLI" batch --in="$tmp/stream.ndjson" > "$tmp/results2.ndjson" 2>/dev/null
expect "batch with one malformed record" 1 $?
grep -q '"ok":false,"error":{"code":"invalid_instance"' "$tmp/results2.ndjson" || {
  echo 'FAIL: batch error record lacks the typed error code'
  fail=1
}
grep -q '"summary":true,"records":7,"ok":6,"failed":1' "$tmp/results2.ndjson" || {
  echo 'FAIL: batch summary after malformed record lacks expected counts'
  fail=1
}

"$CLI" gen --count=3 >/dev/null 2>&1
expect "gen --count without --format=ndjson" 2 $?

# `--in=-` reads standard input with the same line semantics as a file:
# blank lines skipped without taking an index, and a last line with no
# trailing newline still counted as a record.
{
  "$CLI" gen --family=bimodal --machines=4 --jobs=12 --seed=40 --count=3 \
    --format=ndjson
  printf '\n  \t\n'
  "$CLI" gen --family=uniform --machines=3 --jobs=9 --seed=50 --count=2 \
    --format=ndjson
  printf '\n'
  "$CLI" gen --family=pareto --machines=5 --jobs=8 --seed=60 --count=1 \
    --format=ndjson | tr -d '\n'
} > "$tmp/stdin.ndjson" 2>/dev/null
"$CLI" batch --in="$tmp/stdin.ndjson" --emit-schedules \
  > "$tmp/from-file.ndjson" 2>/dev/null
expect "batch --in=<file> with blank lines and no final newline" 0 $?
cat "$tmp/stdin.ndjson" | "$CLI" batch --in=- --emit-schedules \
  > "$tmp/from-stdin.ndjson" 2>/dev/null
expect "batch --in=- with blank lines and no final newline" 0 $?
grep -q '"summary":true,"records":6,"ok":6,"failed":0' "$tmp/from-file.ndjson" || {
  echo 'FAIL: batch --in=<file> summary does not count all six records'
  fail=1
}
if cmp -s "$tmp/from-file.ndjson" "$tmp/from-stdin.ndjson"; then
  echo "ok: batch --in=- output identical to --in=<file>"
else
  echo "FAIL: batch --in=- output differs from --in=<file>"
  fail=1
fi

# ---- env-var fail-point activation (only in failpoint-enabled builds) ------
SHAREDRES_FAILPOINTS='io.next_line=throw@2' \
  "$CLI" bounds --instance="$tmp/inst.txt" >/dev/null 2>&1
rc=$?
if [ "$rc" -eq 3 ] || [ "$rc" -eq 0 ]; then
  echo "ok: env fail point (exit $rc; 0 means compiled out)"
else
  echo "FAIL: env fail point: expected exit 3 (or 0 when compiled out), got $rc"
  fail=1
fi

exit $fail
