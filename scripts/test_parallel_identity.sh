# Proves the unit engine's thread-count identity through the real binary:
# `sharedres_cli solve --algorithm=unit --out` must write cmp-identical
# schedule files at every pinned SHAREDRES_THREADS value, and `validate` must
# accept each, on a heavy instance (fast-forward takes the prefix scan end to
# end) and a light one (the walk slides, so the engine walks). Run by ctest
# as cli_parallel_identity (label tier1).
#
#   usage: test_parallel_identity.sh <path-to-sharedres_cli>
set -u

CLI=${1:?usage: test_parallel_identity.sh <path-to-sharedres_cli>}
TMP=$(mktemp -d) || exit 1
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# gen <machines> <out>: unit-size uniform instances. At m=128 the 128
# smallest requirements sum past C (the prefix regime); at m=4 the first
# window is light and slides, so the engine walks.
gen() {
  "$CLI" gen --family=uniform --machines="$1" --jobs=4000 --max-size=1 \
    --seed=9 --out="$2" > /dev/null || fail "gen (m=$1) exited $?"
}

gen 128 "$TMP/heavy.txt"
gen 4 "$TMP/light.txt"

for inst in heavy light; do
  for threads in 1 2 8; do
    SHAREDRES_THREADS=$threads "$CLI" solve --instance="$TMP/$inst.txt" \
      --algorithm=unit --out="$TMP/$inst.t$threads" > /dev/null \
      || fail "solve ($inst, threads=$threads) exited $?"
    cmp -s "$TMP/$inst.t1" "$TMP/$inst.t$threads" \
      || fail "schedule differs: $inst at threads 1 vs $threads"
    "$CLI" validate --instance="$TMP/$inst.txt" \
      --schedule="$TMP/$inst.t$threads" > /dev/null \
      || fail "validate rejects $inst at threads=$threads"
  done
done

echo "OK: unit schedules byte-identical and valid across thread counts"
