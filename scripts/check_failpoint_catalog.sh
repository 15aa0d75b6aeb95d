#!/bin/sh
# Fail point catalog check: every fail point site compiled into src/ must be
# listed by `sharedres_cli failpoints --list`. The list is the static catalog
# in src/util/failpoint.cpp (kKnownSites); a site missing there still fires,
# but an armed typo for it in SHAREDRES_FAILPOINTS goes unnoticed.
#
# A site is either a string literal passed to SHAREDRES_FAILPOINT("...") or
# an engine's step site, a `kStepSite = "..."` constant that run_blocks() in
# src/core/engine_driver.hpp hands to the fail point.
#
# usage: sh scripts/check_failpoint_catalog.sh <sharedres_cli> [src_dir]
# The CLI must be built with fail points compiled in (any build type except
# Release). Exit 0 when every site is listed, 1 otherwise.
set -eu
export LC_ALL=C  # sort and comm must agree on one collation

cli=$1
src=${2:-$(dirname "$0")/../src}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

grep -rhoE 'SHAREDRES_FAILPOINT\("[^"]+"\)|kStepSite = "[^"]+"' "$src" |
  sed -E 's/.*"([^"]+)".*/\1/' | sort -u > "$tmp/code"
if [ ! -s "$tmp/code" ]; then
  echo "check_failpoint_catalog: no fail point sites found under $src" >&2
  exit 1
fi

"$cli" failpoints --list > "$tmp/list"
if grep -q '^failpoints: compiled out' "$tmp/list"; then
  echo "check_failpoint_catalog: $cli has fail points compiled out" >&2
  exit 1
fi
grep -v '^#' "$tmp/list" | cut -d' ' -f1 | sort -u > "$tmp/listed"

comm -23 "$tmp/code" "$tmp/listed" > "$tmp/missing"
if [ -s "$tmp/missing" ]; then
  echo "check_failpoint_catalog: sites in $src missing from" \
       "'failpoints --list' (add them to kKnownSites in" \
       "src/util/failpoint.cpp):" >&2
  sed 's/^/  /' "$tmp/missing" >&2
  exit 1
fi
echo "check_failpoint_catalog: all $(wc -l < "$tmp/code") sites listed"
