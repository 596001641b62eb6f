"""Every resforge name the benchmark reaches resolves.

Tier-1 collects only tests/, so a retired name that bench/spans.py wraps
or bench/workloads.py calls would otherwise break only the benchmark.
Both files are read, never changed: spans.py is loaded (it imports only
the standard library) and workloads.py is scanned for ``rf.<name>``.
"""

import importlib
import importlib.util
import os
import re

import resforge

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "bench_spans", os.path.join(BENCH, "spans.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_span_entry_points_resolve():
    missing = []
    for _layer, modname, qual in _load_spans().ENTRY_POINTS:
        mod = importlib.import_module(f"resforge.{modname}")
        if "." in qual:
            # the tracer wraps methods where they are defined, on the class
            cls_name, meth = qual.split(".")
            ok = meth in vars(getattr(mod, cls_name, object))
        else:
            ok = callable(getattr(mod, qual, None))
        if not ok:
            missing.append(f"resforge.{modname}.{qual}")
    assert not missing


def test_workload_names_resolve():
    with open(os.path.join(BENCH, "workloads.py")) as fh:
        chains = set(re.findall(r"\brf\.(\w+(?:\.\w+)*)", fh.read()))
    assert "crosscheck" in chains
    missing = []
    for chain in sorted(chains):
        obj = resforge
        for part in chain.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"resforge.{chain}")
    assert not missing
