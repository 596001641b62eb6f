"""What `import resforge` loads.

The command line and every benchmark sample pay for the package import.
The value classes are plain __slots__ classes, so the import must not
pull in `dataclasses`, nor what that module loads: `inspect`, `ast`,
`dis` and `tokenize`.  A fresh interpreter compares sys.modules before
and after the import, so modules the interpreter loads at start-up do
not count.
"""

import os
import subprocess
import sys

import resforge

HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")

CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import resforge
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_import_loads_no_dataclasses_or_inspect():
    root = os.path.dirname(os.path.dirname(os.path.abspath(resforge.__file__)))
    out = subprocess.run([sys.executable, "-c", CHILD, root], capture_output=True,
                         text=True, check=True).stdout.split()
    assert "resforge.symbols" in out
    assert [name for name in HEAVY if name in out] == []
