"""Source hygiene of the package, read with the standard library's ast.

A module-level import that no code of its module reads, a function
local that is stored but never read, a parameter that its function
never reads, and a private module-level function that no code of the
package calls are dead code that the routes' tests cannot see.  Names
with a leading underscore are exempt as locals and parameters, the way
``_`` marks a value kept on purpose, and so are the parameters of dunder
protocol methods, whose signatures the protocol fixes; ``__init__``
re-exports its imports, so only its reads are scanned, as callers.

State belongs to a LocalField or an engine, so dropping the field frees
it: no function may mutate a container bound at module level, and none
may memoize through functools.cache or functools.lru_cache.  The one
module-level cache is padic's registry of fields, _LF_CACHE.  A memo
keys on canonical data or on a Lattice, never on id(...): an id names an
object only while it lives, and a later object may take it.  A Lattice
is its field's one object for its Hermite form, so it compares and
hashes by identity, and that holds only while lattices._lattice, which
looks the form up, is the one function that creates one: a lattice
built anywhere else would be a second object, unequal to the first.  A
KElem keeps the residue of its unit, so no module but padic reduces an
element's unit to the residue field.

A map names its modules and a view is one set, so no function of
modules, musets or torsor takes a FiniteModule beside a ModuleHom, or
two OrbitViews: such a parameter has one legal value, which the
function reads off its map or view.  The one exception is
torsor._exact_seq_exp, whose X, Y and Z stay positional because the
bench's tracer (bench/spans.py) counts the size of its second argument;
it refuses maps whose ends are not X -> Y -> Z.
"""

import ast
import os
from collections import Counter

import resforge

SRC = os.path.dirname(os.path.abspath(resforge.__file__))


def _modules():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(SRC, name)) as fh:
                yield name, ast.parse(fh.read(), name)


def _loaded(tree) -> set[str]:
    """Names read anywhere in tree; an augmented assignment reads its target."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
             and not isinstance(n.ctx, ast.Store)}
    names |= {n.target.id for n in ast.walk(tree)
              if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)}
    return names


def _own_stores(fn) -> set[str]:
    """Names fn stores in its own scope, not in functions nested in it."""
    stored, todo = set(), list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stored.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            stored.difference_update(node.names)
        todo.extend(ast.iter_child_nodes(node))
    return stored


def _read_names(tree) -> Counter:
    """How often each name is read in tree, as a variable or as an attribute."""
    return Counter([n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                    and not isinstance(n.ctx, ast.Store)]
                   + [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)])


def _uncalled_private(named_trees) -> list[str]:
    """Private module-level functions that nothing reads outside their own body."""
    reads = Counter()
    for _name, tree in named_trees:
        reads += _read_names(tree)
    uncalled = []
    for name, tree in named_trees:
        for fn in tree.body:
            if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and fn.name.startswith("_") and not fn.name.endswith("__")
                    and reads[fn.name] == _read_names(fn)[fn.name]):
                uncalled.append(f"{name}:{fn.lineno} {fn.name}")
    return uncalled


_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_CONTAINER_CALLS = {"dict", "list", "set", "array", "bytearray", "defaultdict",
                    "OrderedDict", "Counter", "deque"}
_MUTATORS = {"append", "extend", "insert", "add", "update", "setdefault", "pop",
             "popitem", "clear", "remove", "discard", "sort", "reverse", "__setitem__"}


def _is_container(value) -> bool:
    return isinstance(value, _CONTAINERS) or (
        isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
        and value.func.id in _CONTAINER_CALLS)


def _module_caches(named_trees) -> list[str]:
    """Each function that mutates a module-level container, as
    "module function: name", and each use of functools' memoizers."""
    found = set()
    for name, tree in named_trees:
        held = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and _is_container(node.value):
                held |= {t.id for t in node.targets if isinstance(t, ast.Name)}
            elif (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                  and _is_container(node.value)):
                held.add(node.target.id)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found |= {f"{name}: functools.{a.name}" for a in node.names
                          if a.name in ("cache", "lru_cache")}
            elif (isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache")
                  and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                found.add(f"{name}: functools.{node.attr}")
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(node):
                target = None
                if isinstance(inner, ast.Subscript) and not isinstance(inner.ctx, ast.Load):
                    target = inner.value
                elif isinstance(inner, ast.AugAssign):
                    target = inner.target
                elif (isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute)
                      and inner.func.attr in _MUTATORS):
                    target = inner.func.value
                if isinstance(target, ast.Name) and target.id in held:
                    found.add(f"{name} {node.name}: {target.id}")
    return sorted(found)


_KEYED_CALLS = {"get", "setdefault", "pop", "add", "discard", "remove"}


def _holds_id(node) -> bool:
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "id"
               for n in ast.walk(node))


def _id_keys(named_trees) -> list[str]:
    """Each line, as "module:line", that keys a container by a value holding
    id(...): a subscript, a membership test, a dict display's key, or the
    key of get, setdefault, pop, add, discard or remove."""
    found = set()
    for name, tree in named_trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript):
                keys = [node.slice]
            elif isinstance(node, ast.Compare):
                keys = [node.left] if any(isinstance(op, (ast.In, ast.NotIn))
                                          for op in node.ops) else []
            elif isinstance(node, ast.Dict):
                keys = [k for k in node.keys if k is not None]
            elif isinstance(node, ast.DictComp):
                keys = [node.key]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _KEYED_CALLS):
                keys = node.args[:1]
            else:
                keys = []
            if any(_holds_id(k) for k in keys):
                found.add(f"{name}:{node.lineno}")
    return sorted(found)


def _unit_reductions(named_trees) -> list[str]:
    """Each call reduce_to(<expr>.unit, <expr>.field), as "module:line"."""
    found = []
    for name, tree in named_trees:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "reduce_to" and len(node.args) == 2
                    and isinstance(node.args[0], ast.Attribute) and node.args[0].attr == "unit"
                    and isinstance(node.args[1], ast.Attribute)
                    and node.args[1].attr == "field"):
                found.append(f"{name}:{node.lineno}")
    return found


def _lattice_builders(named_trees) -> list[str]:
    """Each function, as "module function", that calls
    object.__new__(Lattice) or Lattice.__new__."""
    found = set()
    for name, tree in named_trees:
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "__new__"
                        and isinstance(node.func.value, ast.Name)):
                    continue
                owner, args = node.func.value.id, node.args
                if owner == "Lattice" or (owner == "object" and args
                                          and isinstance(args[0], ast.Name)
                                          and args[0].id == "Lattice"):
                    found.add(f"{name} {fn.name}")
    return sorted(found)


def _annotation(arg) -> str | None:
    ann = arg.annotation
    if isinstance(ann, ast.Name):
        return ann.id
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        return ann.value
    return None


def _redundant_parameters(named_trees) -> list[str]:
    """Each function, as "module function", that takes a parameter
    annotated FiniteModule together with one annotated ModuleHom, or two
    parameters annotated OrbitView."""
    found = set()
    for name, tree in named_trees:
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            kinds = Counter(_annotation(a) for a in
                            args.posonlyargs + args.args + args.kwonlyargs)
            if (kinds["FiniteModule"] and kinds["ModuleHom"]) or kinds["OrbitView"] > 1:
                found.add(f"{name} {fn.name}")
    return sorted(found)


def _unread_parameters(named_trees) -> list[str]:
    """Each parameter, as "module:line function: name", that its function
    never reads, nested functions included; dunder protocol methods, whose
    signatures the protocol fixes, and names with a leading underscore
    are exempt."""
    unread = []
    for name, tree in named_trees:
        for fn in ast.walk(tree):
            if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or (fn.name.startswith("__") and fn.name.endswith("__"))):
                continue
            args = fn.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, args.vararg,
                                      *args.kwonlyargs, args.kwarg) if a is not None]
            loaded = _loaded(fn)
            unread += [f"{name}:{fn.lineno} {fn.name}: {p}" for p in params
                       if p not in loaded and not p.startswith("_")]
    return unread


def test_maps_and_views_carry_their_modules():
    layers = [m for m in _modules() if m[0] in ("modules.py", "musets.py", "torsor.py")]
    assert len(layers) == 3
    # the bench's tracer reads _exact_seq_exp's middle module as args[1]
    assert _redundant_parameters(layers) == ["torsor.py _exact_seq_exp"]


def test_no_module_keeps_a_cache_of_its_own():
    assert _module_caches(_modules()) == ["padic.py local_field: _LF_CACHE"]


def test_no_container_is_keyed_by_object_identity():
    assert _id_keys(_modules()) == []


def test_only_the_interning_function_creates_a_lattice():
    assert _lattice_builders(_modules()) == ["lattices.py _lattice"]


def test_every_private_function_has_a_caller_in_the_package():
    with open(os.path.join(SRC, "__init__.py")) as fh:
        init = ast.parse(fh.read(), "__init__.py")
    assert _uncalled_private([*_modules(), ("__init__.py", init)]) == []


def test_residues_come_from_the_element():
    """A KElem keeps the residue of its unit, so only padic, which builds
    it, reduces a unit to the residue field."""
    assert _unit_reductions(m for m in _modules() if m[0] != "padic.py") == []


def test_no_unread_module_imports():
    unread = []
    for name, tree in _modules():
        loaded = _loaded(tree)
        for node in tree.body:
            stmts = node.body if isinstance(node, ast.If) else [node]   # TYPE_CHECKING
            for stmt in stmts:
                if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                    continue
                if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                    continue
                for alias in stmt.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in loaded:
                        unread.append(f"{name}:{stmt.lineno} {bound}")
    assert not unread


def test_no_unread_function_locals():
    unread = []
    for name, tree in _modules():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # a nested function may read its enclosing function's locals
            for local in sorted(_own_stores(fn) - _loaded(fn)):
                if not local.startswith("_"):
                    unread.append(f"{name}:{fn.lineno} {fn.name}: {local}")
    assert not unread


def test_no_unread_parameters():
    assert _unread_parameters(_modules()) == []


def test_the_checks_see_what_they_look_for():
    tree = ast.parse("import os\nimport sys\n\n"
                     "def f(a):\n    b, _c = a, 1\n    n = 0\n    n += 1\n"
                     "    def g():\n        return b\n    unused = g()\n    return sys\n")
    fn = tree.body[2]
    assert "os" not in _loaded(tree) and "sys" in _loaded(tree)
    assert _own_stores(fn) - _loaded(fn) == {"_c", "unused"}
    mod = ast.parse("def _used(k):\n    return _used(k - 1) if k else 0\n\n"
                    "def _left(x):\n    return _left(x)\n\n"
                    "def public():\n    return _used(2)\n")
    other = ast.parse("from m import _called_here\n\nclass C:\n"
                      "    def _method(self):\n        return m._dotted()\n\n"
                      "def _dotted():\n    return _called_here()\n")
    assert _uncalled_private([("m.py", mod), ("o.py", other)]) == ["m.py:4 _left"]
    cached = ast.parse("import functools\nfrom functools import lru_cache\n"
                       "_SEEN = {}\nTABLE: list = []\nNAMES = ('a',)\n\n"
                       "def remember(k, v):\n    _SEEN[k] = v\n    TABLE.append(v)\n"
                       "    return NAMES, {}.update(k)\n\n"
                       "@functools.cache\ndef square(x):\n    return x * x\n")
    assert _module_caches([("c.py", cached)]) == [
        "c.py remember: TABLE", "c.py remember: _SEEN",
        "c.py: functools.cache", "c.py: functools.lru_cache"]
    keyed = ast.parse("def memo(xs, seen):\n    for x in xs:\n"
                      "        if id(x) not in seen:\n            seen[id(x)] = x\n"
                      "    hit = seen.get((id(xs), 0))\n    table = {id(xs): hit}\n"
                      "    return table, id(xs) == 0, str(id(xs)), xs[0] in seen\n")
    assert _id_keys([("k.py", keyed)]) == ["k.py:3", "k.py:4", "k.py:5", "k.py:6"]
    reduced = ast.parse("def residue(x, lf, ring):\n"
                        "    u = lf.ring(x.prec).reduce_to(x.unit, lf.field)\n"
                        "    return u, ring.reduce_to(x.unit, ring), ring.reduce_to(x, lf.field)\n")
    assert _unit_reductions([("r.py", reduced)]) == ["r.py:2"]
    built = ast.parse("def copy(L):\n    return object.__new__(Lattice)\n\n"
                      "def again(mat):\n    return Lattice.__new__(Lattice, mat)\n\n"
                      "def fine(mat):\n    return Lattice(mat), object.__new__(KMat), "
                      "KMat.__new__(KMat), object.__new__()\n")
    assert _lattice_builders([("l.py", built)]) == ["l.py again", "l.py copy"]
    redundant = ast.parse("def det(T: FiniteModule, g: 'ModuleHom', n: int):\n    pass\n\n"
                          "def iso(src: OrbitView, *, dst: OrbitView):\n    pass\n\n"
                          "class H:\n    def compose(self, other: 'ModuleHom', M):\n"
                          "        pass\n\n"
                          "def fine(g: ModuleHom, v: OrbitView, X: FiniteModule.zero):\n"
                          "    pass\n")
    assert _redundant_parameters([("r.py", redundant)]) == ["r.py det", "r.py iso"]
    params = ast.parse("def fold(n, act, walk, *rest, key=None, **kw):\n"
                       "    def inner():\n        return walk\n    return n, inner\n\n"
                       "def run(_seed, x):\n    return x\n\n"
                       "class F:\n    def __setattr__(self, name, value):\n"
                       "        raise AttributeError(name)\n\n"
                       "    def keep(self, value):\n        return value\n")
    assert _unread_parameters([("p.py", params)]) == [
        "p.py:1 fold: act", "p.py:1 fold: rest", "p.py:1 fold: key", "p.py:1 fold: kw",
        "p.py:13 keep: self"]
