"""Every resforge name the benchmark reaches resolves.

Tier-1 collects only tests/, so a retired name that bench/spans.py wraps
or bench/workloads.py calls, or a retired parameter that a workload
passes, would otherwise break only the benchmark.  Both files are read,
never changed: spans.py is loaded (it imports only the standard library)
and workloads.py is scanned for ``rf.<name>`` and parsed for its calls.
"""

import ast
import importlib
import importlib.util
import inspect
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


def _rf_calls(tree):
    """(dotted name, positional count, keyword names) of each rf.<name>(...) call."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        parts, func = [], node.func
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if isinstance(func, ast.Name) and func.id == "rf" and parts:
            assert not any(isinstance(a, ast.Starred) for a in node.args)
            assert all(k.arg is not None for k in node.keywords)
            yield ".".join(reversed(parts)), len(node.args), [k.arg for k in node.keywords]


def test_workload_calls_bind_to_current_signatures():
    """Each call the benchmark makes still fits the signature it reaches, so
    retiring a parameter the bench passes (say, delta_route_symbol's rule)
    fails here and not only in the benchmark."""
    with open(os.path.join(BENCH, "workloads.py")) as fh:
        calls = list(_rf_calls(ast.parse(fh.read())))
    assert len(calls) >= 14
    unbound = []
    for chain, npos, kwnames in calls:
        obj = resforge
        for part in chain.split("."):
            obj = getattr(obj, part)
        try:
            inspect.signature(obj).bind(*[None] * npos, **dict.fromkeys(kwnames))
        except TypeError as exc:
            unbound.append(f"rf.{chain}: {exc}")
    assert not unbound
