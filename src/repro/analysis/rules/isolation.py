"""GRP3xx — BSP isolation and determinism.

PEval/IncEval run "independently" on each worker between supersteps; the
only sanctioned channel is the update-parameter store — values through
``improve``/``set``, work units through ``charge``. The program object
is a declaration: run state kept on ``self`` is shared by every
simulated worker and invisible from a process worker. These rules catch
sequential code that smuggles state across the barrier (module globals,
the shared query object, the data graph) and nondeterminism sources that
would make supersteps irreproducible (unseeded randomness, wall clocks,
order-sensitive writes driven by unsorted-set iteration).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding, make_finding
from repro.analysis.inspector import ModuleInfo, ProgramInfo, dotted_name
from repro.analysis.rules.common import (
    MUTATORS,
    is_set_expr,
    iter_methods,
    local_assignments,
    param_subscript_writes,
    param_write_calls,
    root_name,
)

#: Graph methods that mutate the shared data graph.
_GRAPH_MUTATORS = {
    "add_vertex",
    "add_edge",
    "remove_vertex",
    "remove_edge",
}

#: Wall-clock functions on the ``time`` module.
_TIME_FNS = {"time", "perf_counter", "monotonic", "process_time", "time_ns",
             "perf_counter_ns", "monotonic_ns"}
#: Wall-clock constructors on ``datetime`` objects.
_DATETIME_FNS = {"now", "utcnow", "today"}


def _assign_targets(node: ast.AST) -> Iterator[ast.AST]:
    if isinstance(node, ast.Assign):
        yield from node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        yield node.target


def _mutator_call(node: ast.Call) -> tuple[str | None, str | None]:
    """(root name, mutator) if the call is ``root...mutator(...)``."""
    if isinstance(node.func, ast.Attribute) and node.func.attr in MUTATORS:
        return root_name(node.func.value), node.func.attr
    return None, None


def check(program: ProgramInfo, module: ModuleInfo) -> Iterator[Finding]:
    for method in iter_methods(program):
        fragment = method.arg("fragment")
        query = method.arg("query")
        params = method.arg("params")
        fn = method.node

        for sub in ast.walk(fn):
            # --- GRP301: module-level state --------------------------------
            if isinstance(sub, (ast.Global, ast.Nonlocal)):
                yield make_finding(
                    "GRP301",
                    f"`{'global' if isinstance(sub, ast.Global) else 'nonlocal'}"
                    f" {', '.join(sub.names)}` shares state across workers "
                    "and supersteps",
                    path=program.path,
                    node=sub,
                    program=program.name,
                    method=method.name,
                )
                continue
            if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                for target in _assign_targets(sub):
                    root = (
                        root_name(target)
                        if isinstance(target, (ast.Attribute, ast.Subscript))
                        else None
                    )
                    if root in module.mutable_globals:
                        yield make_finding(
                            "GRP301",
                            f"writes into module-level `{root}` from a PIE "
                            "method",
                            path=program.path,
                            node=sub,
                            program=program.name,
                            method=method.name,
                        )
                    elif query is not None and root == query and isinstance(
                        target, (ast.Attribute, ast.Subscript)
                    ):
                        yield make_finding(
                            "GRP302",
                            f"assigns into the shared query object "
                            f"`{ast.unparse(target) if hasattr(ast, 'unparse') else query}`",
                            path=program.path,
                            node=sub,
                            program=program.name,
                            method=method.name,
                        )
            if not isinstance(sub, ast.Call):
                continue

            # --- mutator calls on shared objects ---------------------------
            root, mutator = _mutator_call(sub)
            if root is not None:
                if root in module.mutable_globals:
                    yield make_finding(
                        "GRP301",
                        f"mutates module-level `{root}` "
                        f"(.{mutator}()) from a PIE method",
                        path=program.path,
                        node=sub,
                        program=program.name,
                        method=method.name,
                    )
                elif query is not None and root == query:
                    yield make_finding(
                        "GRP302",
                        f"mutates the shared query object (.{mutator}())",
                        path=program.path,
                        node=sub,
                        program=program.name,
                        method=method.name,
                    )

            callee = dotted_name(sub.func)
            if callee is None:
                continue
            parts = callee.split(".")

            # --- GRP303: graph mutation ------------------------------------
            if (
                fragment is not None
                and parts[0] == fragment
                and parts[-1] in _GRAPH_MUTATORS
            ):
                yield make_finding(
                    "GRP303",
                    f"mutates the fragment graph ({callee}()) during "
                    "evaluation",
                    path=program.path,
                    node=sub,
                    program=program.name,
                    method=method.name,
                )

            # --- GRP304: unseeded randomness -------------------------------
            if parts[0] == "random" and len(parts) > 1:
                yield make_finding(
                    "GRP304",
                    f"calls {callee}() — the global RNG is not seeded per "
                    "worker",
                    path=program.path,
                    node=sub,
                    program=program.name,
                    method=method.name,
                )
            elif len(parts) == 1 and parts[0] in module.random_imports:
                yield make_finding(
                    "GRP304",
                    f"calls {callee}() imported from `random`",
                    path=program.path,
                    node=sub,
                    program=program.name,
                    method=method.name,
                )

            # --- GRP305: wall-clock dependence -----------------------------
            if parts[0] == "time" and parts[-1] in _TIME_FNS and len(parts) > 1:
                yield make_finding(
                    "GRP305",
                    f"reads the wall clock ({callee}())",
                    path=program.path,
                    node=sub,
                    program=program.name,
                    method=method.name,
                )
            elif (
                "datetime" in parts[:-1] or parts[0] == "datetime"
            ) and parts[-1] in _DATETIME_FNS:
                yield make_finding(
                    "GRP305",
                    f"reads the wall clock ({callee}())",
                    path=program.path,
                    node=sub,
                    program=program.name,
                    method=method.name,
                )

        # --- GRP306: unsorted-set iteration feeding ordered writes ---------
        if params is None:
            continue
        locals_map = local_assignments(fn)
        for sub in ast.walk(fn):
            if not isinstance(sub, ast.For):
                continue
            if not is_set_expr(
                sub.iter,
                fragment=fragment,
                params=params,
                locals_map=locals_map,
            ):
                continue
            order_sensitive = any(
                True
                for _ in param_write_calls(sub, params, kinds={"set"})
            ) or any(True for _ in param_subscript_writes(sub, params))
            if order_sensitive:
                yield make_finding(
                    "GRP306",
                    "iterates an unsorted set "
                    f"({ast.unparse(sub.iter) if hasattr(ast, 'unparse') else '...'}) "
                    "while performing order-sensitive params.set() writes",
                    path=program.path,
                    node=sub,
                    program=program.name,
                    method=method.name,
                )
