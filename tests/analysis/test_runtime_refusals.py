"""The declaration contract is refused by the runtime, always on.

GRP401–404 and GRP501–503 have no lint rule: the runtime decides each
one exactly, from real values, where the defect has a consequence. Each
fixture runs through ``Session.run`` (plus a delete ΔG where the
program has ΔG hooks) and must be refused with its rule code as the
message prefix and a fragment naming the defect. An open handle only
bites when the program crosses a process boundary, so GRP503 is
refused on ``process`` alone.
"""

from __future__ import annotations

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from repro.algorithms.sssp import SSSPQuery
from repro.core.pie import PIEProgram
from repro.engineapi.session import Session
from repro.errors import ProgramError
from repro.graph.generators import road_network

FIXTURES = Path(__file__).parent / "fixtures"
BOTH = ("simulated", "process")

#: code -> (fixture, error type, message fragment, refusing backends)
RUNTIME = {
    "GRP401": ("viol_grp401.py", ProgramError, "can never be improved", BOTH),
    "GRP402": (
        "viol_grp402.py", ProgramError, "undeclared update parameter", BOTH,
    ),
    "GRP403": ("viol_grp403.py", ProgramError, "assemble stored run state",
               BOTH),
    "GRP404": (
        "viol_grp404.py", NotImplementedError, "does not support deletions",
        BOTH,
    ),
    "GRP501": ("viol_grp501.py", ProgramError, "`self.score`", BOTH),
    "GRP502": ("viol_grp502.py", ProgramError, "`self.relax`", BOTH),
    "GRP503": (
        "viol_grp503.py", ProgramError, "`OpenHandleProgram.log`",
        ("process",),
    ),
}


def _program_class(filename: str) -> type:
    """The PIE program a fixture file defines, importable by reference
    (the process backend pickles it by module and class name)."""
    path = FIXTURES / filename
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[path.stem] = module
    spec.loader.exec_module(module)
    (cls,) = [
        c for _, c in inspect.getmembers(module, inspect.isclass)
        if issubclass(c, PIEProgram) and c.__module__ == path.stem
    ]
    return cls


def refusal(filename: str, backend: str) -> BaseException:
    """The error a fixture's program is refused with on ``backend``."""
    program = _program_class(filename)()
    graph = road_network(4, 4, seed=1)
    session = Session(graph, num_workers=2, backend=backend)
    query = SSSPQuery(source=0)
    repairs = "on_graph_update" in vars(type(program))
    try:
        with pytest.raises(Exception) as info:
            cold = session.run(program, query, keep_state=repairs)
            if repairs:
                edge = min((e.src, e.dst) for e in graph.edges())
                session.engine().run_incremental(
                    program, query, cold.state, [("delete", *edge)]
                )
        return info.value
    finally:
        session.close()
        if hasattr(program, "log"):
            program.log.close()


@pytest.mark.parametrize(
    "code,backend",
    [(code, b) for code, row in sorted(RUNTIME.items()) for b in row[3]],
)
def test_runtime_refuses_the_declaration_defect(code, backend):
    filename, error, fragment, _ = RUNTIME[code]
    exc = refusal(filename, backend)
    assert type(exc) is error, repr(exc)
    assert str(exc).startswith(f"[{code}]"), str(exc)
    assert fragment in str(exc), str(exc)
