"""The repository benchmark: one workload, measured from outside.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload drift --seed 3 --seconds 30 --trace 0

It starts ``worker.py`` in a fresh single-threaded process (``src`` on
``PYTHONPATH``, every ``REPRO_*`` toggle cleared, so the program runs
its defaults), which runs each iteration in a child process of its own.

* ``--trace 0`` repeats timed iterations for ``--seconds`` (at least
  three) and reports the median of each end-to-end metric.
* ``--trace 1`` makes one timed and one traced iteration (plus, on
  ``drift``, one schedule-only never-balancing run) and reports the
  per-layer metrics; the spans go to ``perfbench/traces/``.

Every iteration's outputs are checked; an iteration that raises or fails
a check counts as failed, and so does the whole set when iterations of
one seed disagree on the simulated-output digest.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name → value and unit).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
TRACES = os.path.join(HERE, "traces")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _BENCH = json.load(_fh)

#: end-to-end metrics (``--trace 0``) and per-layer metrics
#: (``--trace 1``), name → unit, as BENCHMARK.json declares them
END_TO_END = {m["name"]: m["unit"] for m in _BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCH["per_layer"]}

#: the simulated outcomes each workload's printout shows
APPLIES = {"scale": ("sim_makespan_s", "sim_idle_frac"),
           "drift": ("sim_makespan_s", "sim_idle_frac"),
           "service": ("sim_idle_frac", "sim_p99_wait_s",
                       "sim_goodput_jobs_per_s", "sim_shed_frac")}

#: the worker stops starting iterations after 160 s; this is the backstop
TIMEOUT_S = 175.0


def child_env() -> Dict[str, str]:
    """The worker's environment: one thread, defaults, ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def wait_for_group(pgid: int, limit_s: float = 5.0) -> None:
    """Wait until no process of the killed group ``pgid`` is left."""
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_worker(workload: str, seed: int, seconds: float, trace: bool,
               size: str) -> List[Dict[str, Any]]:
    """Run the worker; one result per iteration it reported.

    The worker and its iteration children share a new session, so a
    timeout stops all of them.
    """
    cmd = [sys.executable, WORKER, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), "--size", size]
    if trace:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(TRACES, f"{workload}-seed{seed}.json")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _err = proc.communicate(timeout=TIMEOUT_S)
        problem = (f"worker exit {proc.returncode}"
                   if proc.returncode else None)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _err = proc.communicate()
        wait_for_group(proc.pid)
        problem = f"worker timed out after {TIMEOUT_S:.0f} s"
    results = [json.loads(line) for line in out.splitlines()
               if line.startswith("{")]
    if problem:
        results.append({"mode": "worker", "failures": [problem]})
    return results


def describe(result: Dict[str, Any], names) -> str:
    """One human-readable line: metrics with units, digest, failures."""
    if "metrics" not in result:
        return f"  {result['mode']}: FAILED {result['failures']}"
    m = result["metrics"]
    units = dict(PER_LAYER, **END_TO_END)
    parts = [f"{n}={m[n]:.6g} {units[n]}" for n in names]
    status = "ok" if not result["failures"] else f"FAILED {result['failures']}"
    return f"  {result['mode']}: {' '.join(parts)} {result['digest']} {status}"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str) -> Optional[Dict[str, Any]]:
    """Run the iterations; the result object, or ``None`` if none ran."""
    shown = list(END_TO_END) + list(APPLIES[workload])
    results = run_worker(workload, seed, seconds, trace, size)
    for result in results:
        print(describe(result, shown))
    ok = [r for r in results if "metrics" in r and not r["failures"]]
    timed = [r for r in ok if r["mode"] == "timed"]
    traced = [r for r in ok if r["mode"] == "traced"]
    if not timed or (trace and not traced):
        return None
    failed = len(results) - len(ok)
    # the digest is a property of (commit, workload, seed): every run of
    # the same configuration must agree, traced or not
    digests = {r["digest"] for r in results
               if "digest" in r and r["mode"] != "never"}
    print(f"digest {workload} seed={seed}: {' '.join(sorted(digests))}")
    if len(digests) > 1:
        print("FAILED: iterations of one seed disagree on the digest")
        failed = len(results)

    if trace:
        metrics = dict(traced[0]["metrics"])
        metrics["trace.overhead_frac"] = (
            metrics["wall_s"] / timed[0]["metrics"]["wall_s"] - 1.0)
        never = [r for r in ok if r["mode"] == "never"]
        metrics["core.gain_vs_never"] = (
            never[0]["metrics"]["sim_makespan_s"] / metrics["sim_makespan_s"]
            if never else 1.0)
        values = {name: {"value": metrics[name], "unit": unit}
                  for name, unit in PER_LAYER.items()}
    else:
        values = {name: {"value": statistics.median(
                      r["metrics"][name] for r in timed), "unit": unit}
                  for name, unit in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": len(results),
            "failed": failed, "metrics": values}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("scale", "drift", "service"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full", choices=("full", "toy"),
                    help="toy: the seconds-long self-test size")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program source under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}",
          flush=True)
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.size)
    if result is None:
        print("no iteration completed; no result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
