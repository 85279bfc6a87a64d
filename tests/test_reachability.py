"""Every function in ``src/`` is reached by a CLI run, or says why not.

A fixed set of CLI runs executes in one fresh interpreter under
``sys.setprofile``, followed by the two Arf verdicts that no command
calls yet.  Each function defined in ``src/spincycles`` is keyed by its
file and first line (a decorated def by its first decorator's line, which
is where ``co_firstlineno`` points).  A function that none of the runs
reaches must be named in ``ALLOWED`` with its reason, and a name in
``ALLOWED`` that a run reaches must leave it, so the list only shrinks.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import spincycles

PACKAGE = Path(spincycles.__file__).parent

_REFERENCE = "numpy brute-force reference that the tests compare the verdicts against"
_PACKED = "packed-matrix encoding of the numpy references"
_RECORD = "Record value-type contract, pinned by test_records"
_LIBRARY = "library accessor of the bundled corpus, which the test fixtures load through"

# module-relative qualname -> why no CLI run reaches it
ALLOWED = {
    "symplectic.MatF2.packed": _PACKED,
    "symplectic.MatF2.from_packed": _PACKED,
    "symplectic._vector_table": _REFERENCE,
    "symplectic._apply_table_mats": _REFERENCE,
    "symplectic._unique_sorted": _REFERENCE,
    "symplectic._setdiff_sorted": _REFERENCE,
    "symplectic._bfs": _REFERENCE,
    "symplectic.GroupClosure._key": _REFERENCE,
    "symplectic.GroupClosure.order": _REFERENCE,
    "symplectic.GroupClosure.contains_packed": _REFERENCE,
    "symplectic.GroupClosure.matrices": _REFERENCE,
    "symplectic.closure": _REFERENCE,
    "symplectic.membership": _REFERENCE,
    "symplectic.all_transvections": _REFERENCE,
    "symplectic._pair_transversals": _REFERENCE,
    "symplectic.full_symplectic_closure": _REFERENCE,
    "symplectic._filter_preserves_q": _REFERENCE,
    "symplectic.q_stabilizer_bruteforce": _REFERENCE,
    "symplectic.orbit": _REFERENCE,
    "polygon.Record.__hash__": _RECORD,
    "polygon.Record.__repr__": _RECORD,
    "polygon.Record.__setattr__": _RECORD,
    "polygon.Record.__delattr__": _RECORD,
    "corpus.load": _LIBRARY,
}

# runs in a fresh interpreter: argv[1] is the package directory, argv[2] a
# scratch directory; prints the reached (file, first line) keys as JSON
_CHILD = r"""
import contextlib, io, json, sys
from pathlib import Path

package, scratch = sys.argv[1], Path(sys.argv[2])
reached = set()

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
from spincycles import corpus
from spincycles.cli import main

files = []
for name in corpus.names():
    path = scratch / f"{name}.json"
    path.write_text(corpus.read_text(name))
    files.append(str(path))
quintic = str(scratch / "quintic.json")
runs = [[*command, f, *options] for f in files for command, options in (
    (["classify"], []), (["qtable"], []), (["segments"], ["--bridges", "--json"]),
    (["verify", "all"], ["--genus", "3", "--arf", "1"]),
)]
runs += [
    ["segments", quintic],
    ["verify", "generation", "--genus", "2", "--arf", "0"],
    ["verify", "generation", "--genus", "7", "--arf", "0"],
    ["verify", "chain-relation", "--genus", "3"],
    ["verify", "q-consistency", quintic, "--out", str(scratch / "out.json")],
]
sink = io.StringIO()
with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    for argv in runs:
        main(argv)
    from spincycles.spin import standard_form
    from spincycles.symplectic import q_orbit_partition, verify_arf_classification

    verify_arf_classification(2)
    q_orbit_partition(standard_form(3, 1))
sys.setprofile(None)
print(json.dumps(sorted(reached)))
"""


def _defs() -> dict[tuple[str, int], str]:
    """(file, first line) -> module-relative qualname of every def in the package."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                out[path, line] = f"{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")

    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        visit(ast.parse(path.read_text()), str(path), f"{module}.")
    return out


def test_every_function_is_reached_or_allowed(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(PACKAGE), str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    reached = {tuple(key) for key in json.loads(proc.stdout)}
    defs = _defs()
    unreached = {name for key, name in defs.items() if key not in reached}
    assert set(ALLOWED) <= set(defs.values()), "ALLOWED names a function that is gone"
    assert unreached - set(ALLOWED) == set(), "functions no run reaches"
    assert set(ALLOWED) - unreached == set(), "allowed functions that a run reaches"
