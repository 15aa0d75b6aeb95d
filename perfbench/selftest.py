#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the program).

Run from the root of a checkout:

    python3 perfbench/selftest.py

1. A tiny run of every workload, untraced and traced, prints as its last
   line the result object with exactly the metric names and units that
   BENCHMARK.json lists, every value a number, and passes its checks.
2. A doctored answer (one byte flipped before the check) fails the run on
   every workload.
3. A second seed runs clean.
4. In a directory holding only BENCHMARK.json and the benchmark's own
   files, the benchmark exits non-zero without printing a result.

Exit status 0 when every test passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seconds", "3", "--tiny"]


def bench(workload, seed, *extra, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd + list(extra), cwd=cwd, capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result, proc.stderr


failures = []


def check(ok, what):
    print(("ok     " if ok else "FAILED ") + what, flush=True)
    if not ok:
        failures.append(what)


def expect_metrics(result, listed, what):
    want = {m["name"]: m["unit"] for m in listed}
    got = result.get("metrics", {}) if result else {}
    check(result is not None and
          set(result) == {"correct", "attempted", "failed", "metrics"},
          what + ": result object has exactly the four keys")
    check(set(got) == set(want), what + ": metric names match BENCHMARK.json")
    check(all(isinstance(v, dict) and set(v) == {"value", "unit"} and
              v["unit"] == want.get(k) and isinstance(v["value"], (int, float))
              for k, v in got.items()),
          what + ": every metric is a number with its listed unit")


def main():
    for w in (w["name"] for w in SPEC["workloads"]):
        for trace, listed in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            what = "%s --trace %s" % (w, trace)
            rc, result, err = bench(w, 1, "--trace", trace, *TINY)
            check(rc == 0 and result is not None and result["correct"] and
                  result["failed"] == 0 and result["attempted"] >= 1,
                  what + ": runs and passes its checks" +
                  ("" if rc == 0 else "\n" + err[-2000:]))
            expect_metrics(result, listed, what)
            if trace == "0" and result:
                check(all(v["value"] > 0 for v in result["metrics"].values()),
                      what + ": no end-to-end metric is 0")
        rc, result, _ = bench(w, 1, "--doctor", *TINY)
        check(rc == 0 and result is not None and not result["correct"] and
              result["failed"] >= 1, w + ": a doctored answer fails the run")
        rc, result, _ = bench(w, 2, *TINY)
        check(rc == 0 and result is not None and result["correct"],
              w + ": a second seed runs clean")

    bare = ROOT / ".bench_runs" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    rc, result, _ = bench(SPEC["workloads"][0]["name"], 1, *TINY, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(rc != 0 and result is None,
          "without the repository: non-zero exit and no result")

    print("%d failed" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
