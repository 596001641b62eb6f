"""The resforge benchmark: one workload, one seed, one JSON result.

    python3 bench/run.py --workload sweep_f1 --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload

Run from the root of a checkout.  Each sample runs in a fresh interpreter
(bench/worker.py), so every module-level cache of resforge starts empty.
With --trace 0 the run prints every end-to-end metric, its times scaled to
a reference host so that a shared host's drift in speed cancels (see
worker.py); with --trace 1 it
makes a fixed amount of work (a cold pass and one warm pass) traced and
under tracemalloc, and prints the per-layer metrics.  The last
line of standard output is the result object; it is also written, with
the run's environment, to .bench_build/results/.  The run exits 1, with
no metrics, if any output disagrees with its oracle or its pinned digest.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

# end-to-end metrics: name -> unit
E2E_METRICS = {
    "setup_s": "s",
    "cold_pass_s": "s",
    "warm_ops_per_s": "1/s",
    "warm_op_p50_us": "us",
    "warm_op_p95_us": "us",
    "direct_p50_us": "us",
    "muset_p50_us": "us",
    "extension_p50_us": "us",
    "peak_rss_mb": "MB",
    "answered_frac": "fraction",
}

# fresh processes per --trace 0 run: measure samples (each with one cold
# pass), and set-up samples in all, counting those of the measure samples
MEASURE_SAMPLES = 3
SETUP_SAMPLES = 21
RUN_LIMIT_S = 170
DIGESTS = os.path.join(HERE, "digests.json")


class RunError(Exception):
    """A sample process failed; the run prints no result."""


def _child_env() -> dict:
    """Fixed hash seed; bytecode cached under .bench_build, as an installed package has it."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = os.path.join(ROOT, ".bench_build", "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPATH", None)
    return env


def _sample(spec: dict, deadline: float) -> dict:
    """Run one worker process and return its JSON result."""
    spec = dict(spec, root=ROOT)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError(f"out of time before the {spec['mode']} sample")
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=_child_env(), cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"{spec['mode']} sample timed out") from None
    if proc.returncode != 0:
        raise RunError(f"{spec['mode']} sample exited {proc.returncode}:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def _pct(sorted_vals, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def _check_digests(name: str, seed: int, tiny: bool, samples: list[dict]) -> list[str]:
    """Compare direct-route digests with each other and with the pinned ones."""
    with open(DIGESTS) as fh:
        pinned = json.load(fh)[name]
    errors = []
    own = {s["digest"] for s in samples if "digest" in s}
    if len(own) > 1:
        errors.append(f"samples of one seed gave different direct-route digests: {sorted(own)}")
    if not tiny and str(seed) in pinned and own != {pinned[str(seed)]}:
        errors.append(f"direct-route digest {sorted(own)} != pinned {pinned[str(seed)]}")
    ref = workloads.REFERENCE_SEED
    for s in samples:
        if "reference_digest" in s and s["reference_digest"] != pinned[str(ref)]:
            errors.append(f"reference seed {ref}: direct-route digest "
                          f"{s['reference_digest']} != pinned {pinned[str(ref)]}")
    return errors


def _per_op(lists) -> list[float]:
    """Across samples, the median of each op's (or pair's) values; answered ops only."""
    out = []
    for values in zip(*lists):
        values = [v for v in values if v is not None]
        if values:
            out.append(statistics.median(values))
    return sorted(out)


def _e2e(samples: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics from the measure and set-up samples; (metrics, sample counts).

    Times are scaled to the reference host (worker.Pass).  A latency is
    an op's median over the warm passes; the percentiles are over ops.
    """
    ops = _per_op(s["op_ns"] for s in samples)
    routes = {r: _per_op(s["route_ns"][r] for s in samples)
              for r in ("direct", "muset", "extension")}
    passes = [t for s in samples for t in s["pass_s"]]
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "cold_pass_s": statistics.median(s["cold_s"] for s in samples),
        "warm_ops_per_s": len(samples[0]["op_ns"]) / statistics.median(passes),
        "warm_op_p50_us": statistics.median(ops) / 1e3,
        "warm_op_p95_us": _pct(ops, 0.95) / 1e3,
        "direct_p50_us": statistics.median(routes["direct"]) / 1e3,
        "muset_p50_us": statistics.median(routes["muset"]) / 1e3,
        "extension_p50_us": statistics.median(routes["extension"]) / 1e3,
        "peak_rss_mb": statistics.median(s["max_rss_kb"] for s in samples) / 1024,
        "answered_frac": (sum(s["attempted"] - s["failed"] for s in samples)
                          / sum(s["attempted"] for s in samples)),
    }
    counts = {"setup": len(setups), "cold": len(samples), "warm_passes": len(passes),
              "answered_ops": len(ops), "ops_beyond_p95": sum(1 for x in ops if x > _pct(ops, 0.95)),
              **{f"{r}_route_pairs": len(v) for r, v in routes.items()}}
    return metrics, counts


def measure(name: str, seed: int, seconds: float, tiny: bool, deadline: float) -> dict:
    """The --trace 0 run: set-up samples, cold samples and warm passes."""
    base = {"workload": name, "seed": seed, "tiny": tiny}
    _sample(dict(base, mode="setup"), deadline)      # compiles bytecode; not counted
    k = 1 if tiny else MEASURE_SAMPLES
    setups, samples = [], []
    extra = max(0, SETUP_SAMPLES - k)
    for i in range(k):
        for _ in range(extra // k + (i < extra % k)):
            setups.append(_sample(dict(base, mode="setup"), deadline))
        s = _sample(dict(base, mode="measure", budget_s=seconds / k, reference=(i == 0)),
                    deadline)
        samples.append(s)
        setups.append(s)
        if not s["correct"]:
            break
    result = {"attempted": sum(s["attempted"] for s in samples),
              "failed": sum(s["failed"] for s in samples),
              "errors": [e for s in samples for e in s["errors"]]}
    if not result["errors"]:
        result["errors"] = _check_digests(name, seed, tiny, samples)
    if not result["errors"]:
        result["metrics"], result["samples"] = _e2e(samples, setups)
        result["units"] = E2E_METRICS
        # how fast the host ran in each process, and the set-up and cold times unscaled
        result["host_speed"] = [s["speed"] for s in setups]
        result["unscaled"] = {"setup_s": statistics.median(s["setup_raw_s"] for s in setups),
                              "cold_pass_s": statistics.median(s["cold_raw_s"] for s in samples)}
    return result


def trace(name: str, seed: int, tiny: bool, deadline: float) -> dict:
    """The --trace 1 run: a fixed amount of work traced, then under tracemalloc."""
    base = {"workload": name, "seed": seed, "tiny": tiny}
    _sample(dict(base, mode="setup"), deadline)
    traced = _sample(dict(base, mode="traced", reference=True), deadline)
    memory = _sample(dict(base, mode="memory"), deadline)
    samples = [traced, memory]
    result = {"attempted": traced["attempted"], "failed": traced["failed"],
              "errors": [e for s in samples for e in s["errors"]]}
    if not result["errors"]:
        result["errors"] = _check_digests(name, seed, tiny, samples)
    if not result["errors"]:
        result["metrics"] = dict(traced["layers"], **memory["layers"])
        result["units"] = spans.LAYER_METRICS
        result["counts_digest"] = workloads.digest(result["metrics"][k] for k in spans.COUNT_METRICS)
    return result


def _environment(seed: int) -> dict:
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):     # a plain checkout has no history
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "pythonhashseed": {"workers": "0", "caller": os.environ.get("PYTHONHASHSEED")},
            "git_commit": commit, "seed": seed, "platform": platform.platform()}


def run_one(name: str, seed: int, seconds: float, trace_on: bool, tiny: bool) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        result = (trace(name, seed, tiny, deadline) if trace_on
                  else measure(name, seed, seconds, tiny, deadline))
    except RunError as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        return 1
    record = dict(result, workload=name, trace=int(trace_on), seconds=seconds, tiny=tiny,
                  environment=_environment(seed))
    out_dir = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}-seed{seed}-trace{int(trace_on)}{'-tiny' if tiny else ''}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    ok = not result["errors"]
    for e in result["errors"]:
        print(f"{name}: WRONG: {e}", file=sys.stderr)
    metrics = result.get("metrics", {}) if ok else {}
    units = result.get("units", {})
    for key, value in metrics.items():
        print(f"{name}  {key:32s} {value:>16.6g} {units[key]}")
    print(json.dumps({"correct": ok, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="reduced inputs, for the smoke test")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "resforge", "__init__.py")):
        print(f"no resforge sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 1
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        status |= run_one(name, args.seed, args.seconds, bool(args.trace), args.tiny)
    return status


if __name__ == "__main__":
    sys.exit(main())
