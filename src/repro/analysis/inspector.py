"""AST extraction for grape-lint: find PIE programs and their pieces.

The inspector parses a module's source (never imports it — linting
untrusted user programs must not execute them) and produces a
:class:`ModuleInfo` describing every PIE program class it contains: the
``peval`` / ``inceval`` / ``assemble`` bodies, the declared aggregator,
which argument names bind the fragment / query / params / changed
parameters of each method, inline suppression pragmas, and the module's
mutable top-level names (the targets of the global-mutation rule).
"""

from __future__ import annotations

import ast
import inspect
import re
import textwrap
from dataclasses import dataclass, field

from repro.errors import AnalysisError

__all__ = [
    "AggregatorDecl",
    "MethodInfo",
    "ProgramInfo",
    "ModuleInfo",
    "inspect_source",
    "inspect_object",
    "dotted_name",
    "AGGREGATOR_DIRECTIONS",
]

#: Pragma syntax: ``# grape-lint: disable=GRP101`` or ``disable=GRP101,GRP306``
#: or ``disable=all``. On a statement line it suppresses that line; on a
#: comment-only line it suppresses the next line.
_PRAGMA = re.compile(r"#\s*grape-lint:\s*disable=([A-Za-z0-9_,\s]+)")

#: Canonical PIE method names -> positional argument roles (after self).
_ROLE_SIGNATURES: dict[str, tuple[str, ...]] = {
    "param_spec": ("query",),
    "declare_params": ("fragment", "query", "params"),
    "peval": ("fragment", "query", "params"),
    "inceval": ("fragment", "query", "partial", "params", "changed"),
    "on_graph_update": ("fragment", "query", "partial", "params", "delta"),
    "classify_update": ("query", "op"),
    "delta_seeds": ("fragment", "query", "partial", "ops"),
    "invalidated_region": ("fragment", "query", "partial", "seeds"),
    "repair_partial": ("fragment", "query", "partial", "params", "region"),
    "assemble": ("query", "partials"),
}

#: Direction of each built-in aggregator's partial order, keyed by the
#: name it is referenced by in ``param_spec``. Custom aggregators fall
#: back to type-aware inference from their ``Aggregator(name, combine,
#: order)`` construction (see :func:`_infer_aggregator_direction`);
#: only when that fails do direction-dependent rules skip the program.
AGGREGATOR_DIRECTIONS: dict[str, str] = {
    "MIN": "decreasing",
    "MAX": "increasing",
    "BOOL_OR": "increasing",
    "BOOL_AND": "decreasing",
    "SET_UNION": "growing",
    "SET_INTERSECT": "shrinking",
    "SUM_ONCE": "unordered",
    "LAST_WRITE": "unordered",
}

#: Direction implied by each partial-order constant from
#: ``repro.core.partial_order`` when it appears as the ``order``
#: argument of a custom ``Aggregator(...)`` construction.
_ORDER_DIRECTIONS: dict[str, str] = {
    "DECREASING": "decreasing",
    "INCREASING": "increasing",
    "GROWING_SET": "growing",
    "SHRINKING_SET": "shrinking",
    "UNORDERED": "unordered",
}

#: Direction implied by a builtin ``combine`` callable when the order
#: argument is not a recognised constant (``min`` keeps the smaller
#: value, so repeated application is decreasing; dually for ``max``).
_COMBINE_DIRECTIONS: dict[str, str] = {
    "min": "decreasing",
    "max": "increasing",
}


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass(frozen=True)
class AggregatorDecl:
    """The aggregator named in ``ParamSpec(aggregator=...)``."""

    name: str
    direction: str  # decreasing/increasing/growing/shrinking/unordered/unknown


@dataclass
class MethodInfo:
    """One method of a PIE program class, with its argument bindings."""

    name: str
    node: ast.FunctionDef
    role: str  # canonical method name, or "helper"
    #: role name -> argument name binding it (e.g. {"params": "params"}).
    bindings: dict[str, str] = field(default_factory=dict)

    def arg(self, role: str) -> str | None:
        """Argument name bound to ``role`` (``fragment``/``query``/...)."""
        return self.bindings.get(role)


@dataclass
class ProgramInfo:
    """One PIE program class found in a module."""

    name: str
    node: ast.ClassDef
    path: str
    methods: dict[str, MethodInfo] = field(default_factory=dict)
    aggregator: AggregatorDecl | None = None
    #: Name of the base class, if it is itself defined in this module
    #: (lets aggregator declarations resolve through local inheritance).
    local_base: str | None = None

    def method(self, role: str) -> MethodInfo | None:
        """The method filling ``role``, if the class defines it."""
        for m in self.methods.values():
            if m.role == role:
                return m
        return None


@dataclass
class ModuleInfo:
    """Parsed module: programs, pragmas, and top-level context."""

    path: str
    source: str
    tree: ast.Module
    programs: list[ProgramInfo] = field(default_factory=list)
    #: line number -> set of suppressed codes (or {"all"}).
    pragmas: dict[int, set[str]] = field(default_factory=dict)
    #: top-level names bound to mutable containers (lists/dicts/sets).
    mutable_globals: set[str] = field(default_factory=set)
    #: names imported from the ``random`` module (``from random import x``).
    random_imports: set[str] = field(default_factory=set)
    #: top-level custom aggregators whose direction could be inferred
    #: from their ``Aggregator(name, combine, order)`` construction:
    #: bound name -> direction.
    aggregator_directions: dict[str, str] = field(default_factory=dict)

    def suppressed(self, line: int, code: str) -> bool:
        """Whether ``code`` is pragma-suppressed at ``line``."""
        codes = self.pragmas.get(line, set())
        return code in codes or "all" in codes


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------
def _collect_pragmas(source: str) -> dict[int, set[str]]:
    pragmas: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA.search(line)
        if match is None:
            continue
        codes = {
            part.strip()
            for part in match.group(1).split(",")
            if part.strip()
        }
        codes = {c if c == "all" else c.upper() for c in codes}
        pragmas.setdefault(lineno, set()).update(codes)
        if line.lstrip().startswith("#"):
            # Comment-only pragma applies to the following line.
            pragmas.setdefault(lineno + 1, set()).update(codes)
    return pragmas


# ----------------------------------------------------------------------
# Module-level context
# ----------------------------------------------------------------------
_MUTABLE_FACTORIES = {"list", "dict", "set", "defaultdict", "deque", "Counter"}


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name is not None and name.split(".")[-1] in _MUTABLE_FACTORIES
    return False


def _infer_aggregator_direction(call: ast.AST) -> str | None:
    """Direction of a custom ``Aggregator(name, combine, order)`` call.

    Type-aware inference without importing the module: the ``order``
    argument wins when it names one of the partial-order constants;
    otherwise a builtin ``combine`` (``min``/``max``) pins the
    direction. Returns ``None`` when neither is recognisable.
    """
    if not isinstance(call, ast.Call):
        return None
    callee = dotted_name(call.func)
    if callee is None or callee.split(".")[-1] != "Aggregator":
        return None
    combine: ast.AST | None = call.args[1] if len(call.args) > 1 else None
    order: ast.AST | None = call.args[2] if len(call.args) > 2 else None
    for kw in call.keywords:
        if kw.arg == "combine":
            combine = kw.value
        elif kw.arg == "order":
            order = kw.value
    for node, table in ((order, _ORDER_DIRECTIONS),
                        (combine, _COMBINE_DIRECTIONS)):
        name = dotted_name(node) if node is not None else None
        if name is not None:
            direction = table.get(name.split(".")[-1])
            if direction is not None:
                return direction
    return None


def _collect_module_context(tree: ast.Module, info: ModuleInfo) -> None:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and _is_mutable_literal(stmt.value):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    info.mutable_globals.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if _is_mutable_literal(stmt.value) and isinstance(
                stmt.target, ast.Name
            ):
                info.mutable_globals.add(stmt.target.id)
        elif isinstance(stmt, ast.ImportFrom) and stmt.module == "random":
            for alias in stmt.names:
                info.random_imports.add(alias.asname or alias.name)
        value = getattr(stmt, "value", None)
        direction = _infer_aggregator_direction(value) if value else None
        if direction is not None:
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign)
                else [stmt.target] if isinstance(stmt, ast.AnnAssign)
                else []
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    info.aggregator_directions[target.id] = direction


# ----------------------------------------------------------------------
# PIE program discovery
# ----------------------------------------------------------------------
def _base_names(cls: ast.ClassDef) -> list[str]:
    names = []
    for base in cls.bases:
        node = base.value if isinstance(base, ast.Subscript) else base
        name = dotted_name(node)
        if name is not None:
            names.append(name.split(".")[-1])
    return names


def _looks_like_program(cls: ast.ClassDef) -> bool:
    defined = {
        stmt.name
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    if {"peval", "inceval", "assemble"} <= defined:
        return True
    pie_methods = defined & set(_ROLE_SIGNATURES)
    return bool(pie_methods) and any(
        name.endswith("Program") for name in _base_names(cls)
    )


def _bind_arguments(fn: ast.FunctionDef, role: str) -> dict[str, str]:
    args = [a.arg for a in fn.args.args]
    if args and args[0] in ("self", "cls"):
        args = args[1:]
    bindings: dict[str, str] = {}
    if role in _ROLE_SIGNATURES:
        for role_name, arg_name in zip(_ROLE_SIGNATURES[role], args):
            bindings[role_name] = arg_name
        return bindings
    # Helper methods: recognise conventional names / annotations.
    for a in fn.args.args[1:] if fn.args.args else []:
        annotation = dotted_name(a.annotation) if a.annotation else None
        annotation = annotation.split(".")[-1] if annotation else None
        if a.arg == "params" or annotation == "UpdateParams":
            bindings["params"] = a.arg
        elif a.arg == "fragment" or annotation == "Fragment":
            bindings["fragment"] = a.arg
        elif a.arg == "query":
            bindings["query"] = a.arg
        elif a.arg == "changed":
            bindings["changed"] = a.arg
    return bindings


def _extract_aggregator(
    cls_methods: dict[str, MethodInfo],
    module_directions: dict[str, str] | None = None,
) -> AggregatorDecl | None:
    spec = cls_methods.get("param_spec")
    if spec is None:
        return None
    module_directions = module_directions or {}
    for node in ast.walk(spec.node):
        if not isinstance(node, ast.Call):
            continue
        callee = dotted_name(node.func)
        if callee is None or callee.split(".")[-1] != "ParamSpec":
            continue
        agg_node = node.args[0] if node.args else None
        for kw in node.keywords:
            if kw.arg == "aggregator":
                agg_node = kw.value
        if agg_node is None:
            continue
        name = dotted_name(agg_node)
        short = name.split(".")[-1] if name else "<expr>"
        direction = AGGREGATOR_DIRECTIONS.get(short)
        if direction is None:
            # Custom aggregator: a module-level ``X = Aggregator(...)``
            # whose construction pinned the direction, or an inline
            # ``Aggregator(...)`` call right in the ParamSpec.
            direction = module_directions.get(short)
        if direction is None:
            direction = _infer_aggregator_direction(agg_node)
        return AggregatorDecl(short, direction or "unknown")
    return None


def _inspect_class(
    cls: ast.ClassDef,
    path: str,
    module_directions: dict[str, str] | None = None,
) -> ProgramInfo:
    program = ProgramInfo(name=cls.name, node=cls, path=path)
    for stmt in cls.body:
        if not isinstance(stmt, ast.FunctionDef):
            continue
        role = stmt.name if stmt.name in _ROLE_SIGNATURES else "helper"
        program.methods[stmt.name] = MethodInfo(
            name=stmt.name,
            node=stmt,
            role=role,
            bindings=_bind_arguments(stmt, role),
        )
    program.aggregator = _extract_aggregator(program.methods, module_directions)
    bases = _base_names(cls)
    program.local_base = bases[0] if bases else None
    return program


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def inspect_source(source: str, path: str = "<string>") -> ModuleInfo:
    """Parse ``source`` and extract every PIE program it defines."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise AnalysisError(f"cannot parse {path}: {exc}") from exc
    info = ModuleInfo(
        path=path, source=source, tree=tree, pragmas=_collect_pragmas(source)
    )
    _collect_module_context(tree, info)
    classes = {
        stmt.name: stmt for stmt in tree.body if isinstance(stmt, ast.ClassDef)
    }
    detected = {
        name for name, cls in classes.items() if _looks_like_program(cls)
    }
    # Chase same-module inheritance: a subclass of a detected program that
    # overrides any PIE method is itself a program (e.g. an ablation
    # variant whose base name doesn't end in "Program").
    grew = True
    while grew:
        grew = False
        for name, cls in classes.items():
            if name in detected:
                continue
            defined = {
                stmt.name
                for stmt in cls.body
                if isinstance(stmt, ast.FunctionDef)
            }
            if defined & set(_ROLE_SIGNATURES) and any(
                base in detected for base in _base_names(cls)
            ):
                detected.add(name)
                grew = True
    for name, cls in classes.items():
        if name in detected:
            info.programs.append(
                _inspect_class(cls, path, info.aggregator_directions)
            )
    # Resolve aggregators through same-module inheritance (e.g. an
    # ablation subclass overriding only inceval).
    by_name = {p.name: p for p in info.programs}
    for program in info.programs:
        base = program.local_base
        seen = set()
        while program.aggregator is None and base in by_name and base not in seen:
            seen.add(base)
            parent = by_name[base]
            program.aggregator = parent.aggregator
            base = parent.local_base
    return info


def inspect_object(obj: object) -> ModuleInfo:
    """Inspect the module that defines ``obj`` (a class or instance).

    Falls back to the class source alone when the module file is
    unavailable (e.g. classes defined in a REPL).
    """
    cls = obj if inspect.isclass(obj) else type(obj)
    module = inspect.getmodule(cls)
    try:
        if module is not None:
            path = inspect.getsourcefile(module) or f"<{module.__name__}>"
            return inspect_source(inspect.getsource(module), path)
        raise OSError("no module")
    except (OSError, TypeError):
        try:
            source = textwrap.dedent(inspect.getsource(cls))
        except (OSError, TypeError) as exc:
            raise AnalysisError(
                f"cannot retrieve source for {cls.__qualname__}"
            ) from exc
        return inspect_source(source, f"<{cls.__qualname__}>")
