"""Every resforge name the benchmark reaches resolves, and every layer it
traces is reached.

Tier-1 collects only tests/, so a retired name that bench/spans.py wraps
or bench/workloads.py calls, a retired parameter that a workload passes,
or a layer whose wrapped entry points stop being called would otherwise
break only the benchmark.  Both files are read, never changed: they are
loaded (they import only the standard library), and workloads.py is also
scanned for ``rf.<name>`` and parsed for its calls.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import re

import resforge

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_span_entry_points_resolve():
    missing = []
    for _layer, modname, qual in _load("spans").ENTRY_POINTS:
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


def test_tiny_extension_ops_and_route_probes_reach_every_layer():
    """The traced run reports calls per layer; a layer at 0 means the
    program stopped calling its wrapped entry points (say, tame_symbol no
    longer reading residues through KElem.reduce_mod_pi).  One pass of the
    tiny extension_deep ops and of each route on its pairs, in-process,
    must call every layer."""
    spans, workloads = _load("spans"), _load("workloads")
    ctx = workloads.setup(resforge, "extension_deep", tiny=True)
    wl = workloads.build(resforge, "extension_deep", ctx, 4, tiny=True)
    tracer = spans.Tracer(resforge)
    try:
        tracer.install()
        for op in wl.ops:
            workloads.run_op(resforge, wl, op)
        for _route, call in workloads.route_calls(resforge):
            for pair in wl.pairs:
                try:
                    call(pair)
                except (resforge.EnumerationBound, resforge.PrecisionError):
                    pass
    finally:
        tracer.uninstall()
    assert [layer for layer in spans.LAYERS if not tracer.calls[layer]] == []


def test_traced_view_counters_count_the_views_built():
    """musets.view_builds and musets.view_elements read OrbitView.__init__
    (n * t after each build), and the extension route keeps every view it
    builds in its field's _views.  So over one pass of the tiny
    extension_deep ops on fresh fields, view_elements must equal the sum
    of |M| - 1 over the views left in those fields, and the exact-sequence
    counter must have seen the sequences that built them."""
    spans, workloads = _load("spans"), _load("workloads")
    ctx = workloads.setup(resforge, "extension_deep", tiny=True)
    wl = workloads.build(resforge, "extension_deep", ctx, 4, tiny=True)
    tracer = spans.Tracer(resforge)
    try:
        tracer.install()
        for op in wl.ops:
            workloads.run_op(resforge, wl, op)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    views = [(lf.q, exps) for lf, _engines in ctx.values() for exps, _n, _rule in lf._views]
    assert views and metrics["musets.view_builds"] == len(views)
    assert metrics["musets.view_elements"] == sum(q ** sum(exps) - 1 for q, exps in views)
    assert metrics["torsor.exact_seq_elements"] > 0
