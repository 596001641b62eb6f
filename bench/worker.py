"""One fresh interpreter of a benchmark run.

run.py starts this file once per sample so that every module-level cache
of resforge starts empty.  It takes one JSON argument:

    {"root": checkout, "mode": "setup" | "measure" | "traced" | "memory",
     "workload": name, "seed": n, "tiny": bool, "budget_s": warm seconds,
     "reference": bool}

and prints one JSON object as its last line.  Modes:

    setup     import resforge and build the fields and engines, timed
    measure   setup, a cold pass, then warm passes for budget_s (at least one)
    traced    setup, a cold pass and one warm pass with every layer's entry
              points wrapped, then the warm pass again untraced, for the
              tracing overhead
    memory    setup, a cold pass and one warm pass under tracemalloc, for
              retained memory per layer

Each warm pass times every op, then times each route on every symbol pair.
With "reference" set, the sample also computes the direct-route digest of
the inputs of workloads.REFERENCE_SEED, which run.py checks against the
pinned one.

Host speed.  A shared host runs slower or faster by tens of percent for
seconds to minutes at a time.  So the setup and measure modes also time a
fixed piece of pure-Python work that does not use resforge, the reference
work: around set-up, and every REF_EVERY_NS of measured work.  Each timed
call is scaled by REF_NS over the reference timings around it, which
gives its time on a host where the reference work takes REF_NS.  A change
to resforge moves the scaled times as it moves the raw ones; a change of
host speed mostly cancels.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402  (the benchmark's own module, beside this file)


# the reference work's size, and its time on the host the figures are
# scaled to (about its time on the 2-core VM the benchmark was sized on)
REF_ITERS = 750
REF_NS = 6_000_000
# measured work between two reference timings
REF_EVERY_NS = 100_000_000


def _reference_work() -> int:
    """Fixed pure-Python work in resforge's mix: tuple products, dict counts, big-int powers."""
    memo = {}
    a = (3, 1, 4, 1)
    acc = 0
    for i in range(REF_ITERS):
        b = (i % 7, 2, i % 5, 1)
        c = [0] * 7
        for j, x in enumerate(a):
            for k, y in enumerate(b):
                c[j + k] += x * y
        a = tuple(v % 97 for v in c[:4])
        memo[a] = memo.get(a, 0) + 1
        acc = (acc * 31 + pow(i + 2, 1 + i % 64, 2**89 - 1)) % 5**24
    return acc + len(memo)


def time_reference(ref_ns: list, count: int) -> None:
    """Append `count` timings of the reference work, with the collector off.

    A collection would scan resforge's caches and tie the timing to their size.
    """
    clock = time.perf_counter_ns
    gc.disable()
    try:
        for _ in range(count):
            t0 = clock()
            _reference_work()
            ref_ns.append(clock() - t0)
    finally:
        gc.enable()


def speed(ref_ns: list) -> float:
    """Speed of the host against the reference host; above 1 is faster."""
    return REF_NS / statistics.median(ref_ns)


class Pass:
    """Times calls one by one, scaled to the reference host.

    With a `log` list, the pass times the reference work before its first
    call, after its last and after any call that ends REF_EVERY_NS after
    the last reference timing, and appends those timings to `log`.  A
    call's time is scaled by REF_NS over the mean of the two reference
    timings around it.  With `log` None, times are left unscaled.
    """

    def __init__(self, log: list | None):
        self.log = log
        self.ns: list[int] = []        # raw time of each call
        self.window: list[int] = []    # index of the reference timing before each call
        self.ref_ns: list[int] = []
        self._t_ref = 0
        if log is not None:
            self._reference()

    def _reference(self) -> None:
        time_reference(self.ref_ns, 1)
        self._t_ref = time.perf_counter_ns()

    def time(self, call, *args):
        """call(*args), timed; its result."""
        clock = time.perf_counter_ns
        t0 = clock()
        res = call(*args)
        t1 = clock()
        self.ns.append(t1 - t0)
        self.window.append(len(self.ref_ns) - 1)
        if self.log is not None and t1 - self._t_ref >= REF_EVERY_NS:
            self._reference()
        return res

    def close(self) -> list[float]:
        """Each call's time in ns, scaled."""
        if self.log is None:
            return [float(ns) for ns in self.ns]
        if self.window and self.window[-1] == len(self.ref_ns) - 1:
            self._reference()
        self.log.extend(self.ref_ns)
        scale = [2 * REF_NS / (r0 + r1) for r0, r1 in zip(self.ref_ns, self.ref_ns[1:])]
        return [ns * scale[w] for ns, w in zip(self.ns, self.window)]


def import_resforge(root: str):
    """Import resforge from the checkout's src/, and from nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import resforge
    pkg = os.path.dirname(os.path.abspath(resforge.__file__))
    if pkg != os.path.join(os.path.abspath(src), "resforge"):
        raise ImportError(f"resforge was imported from {pkg}, not from {src}")
    return resforge


def _op_pass(rf, wl, log):
    """Run every op once; (results, each op's time in ns, unscaled seconds in all)."""
    timer = Pass(log)
    results = [timer.time(workloads.run_op, rf, wl, op) for op in wl.ops]
    return results, timer.close(), sum(timer.ns) / 1e9


def _probe_pass(rf, wl, direct, log):
    """Time each route alone on every symbol pair; check it against the direct route.

    Returns (errors, {route: time in ns per pair, None where it failed}).
    """
    def attempt(call, pair):
        try:
            return call(pair)
        except (rf.EnumerationBound, rf.PrecisionError):
            return None

    errors, times = [], {}
    for name, call in workloads.route_calls(rf):
        timer = Pass(log)
        got = [timer.time(attempt, call, pair) for pair in wl.pairs]
        times[name] = [None if g is None else ns for g, ns in zip(got, timer.close())]
        errors += [f"{name} route on pair {i}: {g}, expected {direct[i]}"
                   for i, g in enumerate(got) if g is not None and g != direct[i]]
    return errors, times


def _medians(lists) -> list:
    """The median of each list, None for an empty one."""
    return [statistics.median(v) if v else None for v in lists]


def run(spec: dict) -> dict:
    """The sample of one fresh process, as a JSON-ready dict."""
    mode = spec["mode"]
    name, seed, tiny = spec["workload"], spec["seed"], spec.get("tiny", False)
    log = [] if mode in ("setup", "measure") else None
    if mode == "memory":
        import tracemalloc
        tracemalloc.start()
    setup_ref: list[int] = []
    if log is not None:
        time_reference(setup_ref, 3)
    t0 = time.perf_counter()
    rf = import_resforge(spec["root"])
    ctx = workloads.setup(rf, name, tiny)
    setup_s = time.perf_counter() - t0
    out = {"setup_raw_s": setup_s, "setup_s": setup_s, "correct": True, "errors": []}
    if log is not None:
        time_reference(setup_ref, 3)
        log.extend(setup_ref)
        out["setup_s"] = setup_s * speed(setup_ref)
    if mode == "setup":
        out["speed"] = speed(log)
        return out

    wl = workloads.build(rf, name, ctx, seed, tiny)
    tracer = None
    if mode == "traced":
        import spans
        tracer = spans.Tracer(rf)
        tracer.install()

    cold, cold_ns, cold_raw_s = _op_pass(rf, wl, log)
    if tracer:
        tracer.uninstall()   # the oracles below are not part of the workload
    errors, direct = workloads.check_results(rf, wl, cold)
    if tracer:
        tracer.install()
    out.update(cold_s=sum(cold_ns) / 1e9, cold_raw_s=cold_raw_s, attempted=len(wl.ops),
               failed=sum(r is None for r in cold), digest=workloads.digest(direct))

    # warm passes: every op, then every route on every pair
    op_ns = [[] for _ in wl.ops]
    route_ns = {r: [[] for _ in wl.pairs] for r, _ in workloads.route_calls(rf)}
    pass_s = []
    budget = spec.get("budget_s", 0.0) if mode == "measure" else 0.0
    max_rss_kb = None
    t_loop = time.perf_counter()
    deadline = t_loop + budget
    while not errors:
        res, ns, _ = _op_pass(rf, wl, log)
        if res != cold:
            errors.append("a warm pass returned other results than the cold pass")
        out["attempted"] += len(wl.ops)
        out["failed"] += sum(r is None for r in res)
        pass_s.append(sum(ns) / 1e9)
        for i, r in enumerate(res):
            if r is not None:
                op_ns[i].append(ns[i])
        probe_errors, times = _probe_pass(rf, wl, direct, log)
        errors += probe_errors
        for r, per_pair in times.items():
            for i, t in enumerate(per_pair):
                if t is not None:
                    route_ns[r][i].append(t)
        if len(pass_s) == 1:
            # peak memory after a fixed amount of work (the cold pass and one
            # warm pass), before the stored latencies grow with the pass count
            max_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if time.perf_counter() >= deadline:
            break
    loop_s = time.perf_counter() - t_loop

    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        # the same warm pass again, untraced, right after the traced one
        t_plain = time.perf_counter()
        _op_pass(rf, wl, None)
        _probe_pass(rf, wl, direct, None)
        out["layers"]["trace_overhead_ratio"] = loop_s / (time.perf_counter() - t_plain)
    if mode == "memory":
        import spans
        import tracemalloc
        snap = tracemalloc.take_snapshot()
        tracemalloc.stop()
        out["layers"] = spans.retained_kb(snap, os.path.dirname(os.path.abspath(rf.__file__)))
    # each op's and each pair's median over the warm passes
    out.update(pass_s=pass_s, op_ns=_medians(op_ns),
               route_ns={r: _medians(v) for r, v in route_ns.items()},
               max_rss_kb=max_rss_kb)
    if log is not None:
        out["speed"] = speed(log)
    if spec.get("reference"):
        out["reference_digest"] = workloads.direct_digest(rf, name, workloads.REFERENCE_SEED)
    out["errors"] = errors[:20]
    out["correct"] = not errors
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: worker.py SPEC_JSON", file=sys.stderr)
        return 2
    spec = json.loads(argv[0])
    print(json.dumps(run(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
