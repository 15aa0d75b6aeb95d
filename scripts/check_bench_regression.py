#!/usr/bin/env python3
"""Compare BENCH_<name>.json artifacts against a baseline directory.

Every bench binary (see bench/harness.hpp) writes a machine-readable
BENCH_<name>.json next to its table output. This script validates those
artifacts against the schema and flags timing regressions relative to a
baseline set of the same files.

Matching is by (file name, timing label). For each matched timing the
comparison uses seconds_min — the least-noise estimate of the true cost —
and flags a regression when BOTH hold:

  current_min > threshold * baseline_min      (relative blow-up), and
  current_min > min_seconds                   (absolute noise floor).

The absolute floor makes the check portable across machines: sub-floor
cells (the CI smoke sizes) can never flag on scheduler jitter, while a
complexity regression — e.g. the unit engine's window walk going quadratic
again on the front-accumulation workload, a >100x blow-up — lands far above
both gates on any hardware.

Schema validation (always on, regression gates or not):
  * schema_version == 1 and all top-level keys present,
  * every timing has min <= median <= max and min <= mean <= max,
  * timings include the harness's "total" entry.

Deterministic-metrics gate: when both artifacts embed a "metrics" block
(bench/harness.cpp, schema_version 1 with obs enabled), the
metrics["deterministic"] sub-object is compared for EXACT equality. These
counters are structural facts about the algorithms (steps taken, windows
rebuilt, blocks emitted, ...) and are bit-identical across thread counts
and machines by contract — any drift means the algorithm changed, which is
a hard failure listing every drifted key. An artifact without a metrics
block (pre-obs baseline) or with obs compiled out only warns, as does a
current run whose bench invocation (timing labels / rep counts) differs
from the baseline's: counters scale with the work performed, so they are
only compared between identical invocations.

Cross-run equality gate (--equal-across): given two or more directories of
artifacts from the SAME bench invocation at DIFFERENT SHAREDRES_THREADS
values, the deterministic metric blocks must be EXACTLY equal pairwise —
the determinism contract (DESIGN.md §12) made executable. Any key differing between two thread counts is a hard failure.
Timings are of course not compared in this mode.

Exit status: 0 = all checks passed, 1 = regression or schema violation,
2 = usage/IO error (missing directories, unreadable or invalid files).
Every IO failure is a one-line diagnostic on stderr, never a traceback.

Usage:
  check_bench_regression.py --baseline DIR --current DIR
                            [--threshold X] [--min-seconds S] [--strict]
                            [--allow-missing-baseline]
  check_bench_regression.py --equal-across DIR DIR [DIR ...]

  --threshold X    relative gate, default 3.0
  --min-seconds S  absolute gate in seconds, default 0.05
  --strict         also fail when a baseline timing label is missing from
                   the current run (default: warn)
  --allow-missing-baseline
                   a missing or empty baseline directory downgrades to a
                   warning: the current artifacts are still schema-validated,
                   but no regression comparison runs (first CI run on a new
                   branch, or a fresh machine without recorded baselines)
  --equal-across   compare deterministic metric blocks for exact equality
                   across per-thread-count runs instead of (or in addition
                   to) the baseline comparison
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

SCHEMA_KEYS = ("schema_version", "name", "experiment", "threads", "tables",
               "timings")
TIMING_KEYS = ("label", "reps", "seconds_min", "seconds_median",
               "seconds_mean", "seconds_max", "items_per_second")


def load_artifacts(directory: pathlib.Path) -> dict[str, dict]:
    """Read every BENCH_*.json in `directory`, keyed by file name."""
    artifacts = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                artifacts[path.name] = json.load(fh)
        except OSError as exc:
            print(f"error: cannot read {path}: {exc.strerror or exc}",
                  file=sys.stderr)
            raise SystemExit(2)
        except json.JSONDecodeError as exc:
            print(f"error: {path}: invalid JSON: {exc}", file=sys.stderr)
            raise SystemExit(2)
    return artifacts


def validate_schema(name: str, doc: dict, errors: list[str]) -> None:
    for key in SCHEMA_KEYS:
        if key not in doc:
            errors.append(f"{name}: missing top-level key '{key}'")
            return
    if doc["schema_version"] != 1:
        errors.append(f"{name}: unsupported schema_version "
                      f"{doc['schema_version']!r}")
        return
    labels = set()
    for i, timing in enumerate(doc["timings"]):
        for key in TIMING_KEYS:
            if key not in timing:
                errors.append(f"{name}: timings[{i}] missing '{key}'")
                return
        lo, med = timing["seconds_min"], timing["seconds_median"]
        mean, hi = timing["seconds_mean"], timing["seconds_max"]
        if not (lo <= med <= hi and lo <= mean <= hi):
            errors.append(
                f"{name}: timings[{i}] ('{timing['label']}') not monotone: "
                f"min={lo} median={med} mean={mean} max={hi}")
        labels.add(timing["label"])
    if "total" not in labels:
        errors.append(f"{name}: no 'total' timing entry")
    for i, table in enumerate(doc["tables"]):
        for key in ("title", "columns", "rows"):
            if key not in table:
                errors.append(f"{name}: tables[{i}] missing '{key}'")
                return
        width = len(table["columns"])
        for j, row in enumerate(table["rows"]):
            if len(row) != width:
                errors.append(f"{name}: tables[{i}] row {j} has {len(row)} "
                              f"cells, header has {width}")


def flatten_metrics(block: dict) -> dict[str, object]:
    """Flatten a deterministic metrics block into comparable leaf values."""
    flat: dict[str, object] = {}
    for kind in ("counters", "gauges"):
        for key, value in block.get(kind, {}).items():
            flat[f"{kind}.{key}"] = value
    for key, hist in block.get("histograms", {}).items():
        for field in ("bounds", "counts", "count", "sum"):
            flat[f"histograms.{key}.{field}"] = hist.get(field)
    return flat


def compare_metrics(name: str, baseline: dict, current: dict,
                    errors: list[str], warnings: list[str]) -> None:
    base_m, cur_m = baseline.get("metrics"), current.get("metrics")
    if base_m is None or cur_m is None:
        warnings.append(f"{name}: no metrics block in "
                        f"{'baseline' if base_m is None else 'current'} "
                        f"artifact; deterministic-metrics gate skipped")
        return
    if not (base_m.get("obs_enabled") and cur_m.get("obs_enabled")):
        warnings.append(f"{name}: observability compiled out; "
                        f"deterministic-metrics gate skipped")
        return
    # Counters accumulate over everything the binary executed, so they are
    # only comparable when the two runs performed the same work: identical
    # timing labels (sweep sizes) and identical rep counts. A smoke run with
    # different --reps/--max-n is a legitimate use of this script and must
    # not produce false metric regressions.
    base_inv = {t["label"]: t["reps"] for t in baseline.get("timings", [])}
    cur_inv = {t["label"]: t["reps"] for t in current.get("timings", [])}
    if base_inv != cur_inv:
        warnings.append(
            f"{name}: bench invocation differs from baseline (timing "
            f"labels/reps mismatch); deterministic-metrics gate skipped")
        return
    base_flat = flatten_metrics(base_m.get("deterministic", {}))
    cur_flat = flatten_metrics(cur_m.get("deterministic", {}))
    for key in sorted(base_flat.keys() | cur_flat.keys()):
        base_v = base_flat.get(key)
        cur_v = cur_flat.get(key)
        if base_v == cur_v:
            continue
        if base_v is None:
            # New instrumentation sites appear when code grows; only a
            # changed or vanished value indicates an algorithm change.
            warnings.append(f"{name}: new deterministic metric '{key}' "
                            f"(= {cur_v}) not in baseline")
        else:
            errors.append(f"{name}: deterministic metric '{key}' drifted: "
                          f"baseline {base_v} -> current {cur_v}")


def compare(name: str, baseline: dict, current: dict, threshold: float,
            min_seconds: float, strict: bool, errors: list[str],
            warnings: list[str]) -> None:
    base_timings = {t["label"]: t for t in baseline["timings"]}
    cur_timings = {t["label"]: t for t in current["timings"]}
    for label, base in base_timings.items():
        if label == "total":
            continue  # whole-binary wall time depends on the sweep config
        cur = cur_timings.get(label)
        if cur is None:
            msg = f"{name}: baseline timing '{label}' missing from current run"
            (errors if strict else warnings).append(msg)
            continue
        base_min, cur_min = base["seconds_min"], cur["seconds_min"]
        if cur_min > threshold * base_min and cur_min > min_seconds:
            errors.append(
                f"{name}: '{label}' regressed {cur_min / max(base_min, 1e-12):.1f}x "
                f"(baseline {base_min:.6f}s -> current {cur_min:.6f}s, "
                f"threshold {threshold}x, floor {min_seconds}s)")


def compare_equal_across(dirs: list[pathlib.Path], errors: list[str],
                         warnings: list[str]) -> int:
    """Exact pairwise equality of deterministic metrics across runs.

    The first directory is the reference; every other directory must hold
    the same artifact set, produced by the same invocation (labels/reps),
    with an identical deterministic metrics block. Returns the number of
    artifacts checked in the reference set.
    """
    loaded: list[tuple[pathlib.Path, dict[str, dict]]] = []
    for directory in dirs:
        if not directory.is_dir():
            print(f"error: --equal-across directory {directory} does not "
                  f"exist", file=sys.stderr)
            raise SystemExit(2)
        loaded.append((directory, load_artifacts(directory)))
    ref_dir, ref = loaded[0]
    if not ref:
        print(f"error: no BENCH_*.json files in {ref_dir}", file=sys.stderr)
        raise SystemExit(2)
    for directory, docs in loaded:
        for name, doc in docs.items():
            validate_schema(f"{directory}/{name}", doc, errors)
    for directory, docs in loaded[1:]:
        if docs.keys() != ref.keys():
            diff = sorted(set(docs) ^ set(ref))
            errors.append(f"{directory}: artifact set differs from "
                          f"{ref_dir}: {diff}")
            continue
        for name in sorted(ref):
            ref_doc, doc = ref[name], docs[name]
            ref_m, cur_m = ref_doc.get("metrics"), doc.get("metrics")
            if ref_m is None or cur_m is None or not (
                    ref_m.get("obs_enabled") and cur_m.get("obs_enabled")):
                warnings.append(f"{directory}/{name}: metrics unavailable; "
                                f"cross-run equality gate skipped")
                continue
            ref_inv = {t["label"]: t["reps"]
                       for t in ref_doc.get("timings", [])}
            cur_inv = {t["label"]: t["reps"] for t in doc.get("timings", [])}
            if ref_inv != cur_inv:
                errors.append(f"{directory}/{name}: bench invocation "
                              f"differs from {ref_dir} (timing labels/reps "
                              f"mismatch) — equality gate needs identical "
                              f"invocations")
                continue
            ref_flat = flatten_metrics(ref_m.get("deterministic", {}))
            cur_flat = flatten_metrics(cur_m.get("deterministic", {}))
            for key in sorted(ref_flat.keys() | cur_flat.keys()):
                ref_v, cur_v = ref_flat.get(key), cur_flat.get(key)
                if ref_v != cur_v:
                    errors.append(
                        f"{directory}/{name}: deterministic metric '{key}' "
                        f"differs across runs: {ref_dir} has {ref_v}, "
                        f"{directory} has {cur_v}")
    return len(ref)


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Validate and compare BENCH_*.json artifacts.")
    parser.add_argument("--baseline", type=pathlib.Path)
    parser.add_argument("--current", type=pathlib.Path)
    parser.add_argument("--threshold", type=float, default=3.0)
    parser.add_argument("--min-seconds", type=float, default=0.05)
    parser.add_argument("--strict", action="store_true")
    parser.add_argument("--allow-missing-baseline", action="store_true")
    parser.add_argument("--equal-across", nargs="+", type=pathlib.Path,
                        metavar="DIR")
    args = parser.parse_args()

    if args.equal_across is not None and len(args.equal_across) < 2:
        print("error: --equal-across needs at least two directories",
              file=sys.stderr)
        return 2
    if args.equal_across is None and (args.baseline is None
                                      or args.current is None):
        print("error: --baseline and --current are required unless "
              "--equal-across is used", file=sys.stderr)
        return 2

    if args.equal_across is not None:
        errors: list[str] = []
        warnings: list[str] = []
        checked = compare_equal_across(args.equal_across, errors, warnings)
        if args.baseline is None and args.current is None:
            for msg in warnings:
                print(f"warning: {msg}")
            for msg in errors:
                print(f"REGRESSION: {msg}")
            print(f"checked {checked} artifact(s) across "
                  f"{len(args.equal_across)} run(s): {len(errors)} error(s), "
                  f"{len(warnings)} warning(s)")
            return 1 if errors else 0
        # Both modes requested: fold the equality findings into the normal
        # baseline run below.
        carried_errors, carried_warnings = errors, warnings
    else:
        carried_errors, carried_warnings = [], []

    if not args.current.is_dir():
        print(f"error: current directory {args.current} does not exist",
              file=sys.stderr)
        return 2

    baseline: dict[str, dict] = {}
    if args.baseline.is_dir():
        baseline = load_artifacts(args.baseline)
    elif not args.allow_missing_baseline:
        print(f"error: baseline directory {args.baseline} does not exist "
              f"(pass --allow-missing-baseline to schema-check only)",
              file=sys.stderr)
        return 2
    if not baseline and args.allow_missing_baseline:
        print(f"warning: no baseline artifacts under {args.baseline}; "
              f"schema-checking current run only")
    elif not baseline:
        print(f"error: no BENCH_*.json files in {args.baseline}",
              file=sys.stderr)
        return 2

    current = load_artifacts(args.current)
    if not current:
        print(f"error: no BENCH_*.json files in {args.current}",
              file=sys.stderr)
        return 2

    errors = carried_errors
    warnings = carried_warnings
    for name, doc in current.items():
        validate_schema(name, doc, errors)
    for name, doc in baseline.items():
        validate_schema(f"baseline/{name}", doc, errors)

    compared = 0
    for name, base_doc in baseline.items():
        cur_doc = current.get(name)
        if cur_doc is None:
            msg = f"{name}: present in baseline but not in current run"
            (errors if args.strict else warnings).append(msg)
            continue
        compared += 1
        compare(name, base_doc, cur_doc, args.threshold, args.min_seconds,
                args.strict, errors, warnings)
        compare_metrics(name, base_doc, cur_doc, errors, warnings)

    for msg in warnings:
        print(f"warning: {msg}")
    for msg in errors:
        print(f"REGRESSION: {msg}")
    print(f"checked {len(current)} artifact(s), compared {compared} against "
          f"baseline: {len(errors)} error(s), {len(warnings)} warning(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
