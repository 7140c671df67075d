"""Coded diagnostics for the grape-lint static verifier.

Every rule has a stable code ``GRPnnn`` so findings can be suppressed
with an inline pragma (``# grape-lint: disable=GRPnnn``), cross-referenced
from runtime checks, and tabulated in docs. Families:

* ``GRP1xx`` — aggregator consistency: parameter writes must move values
  along the declared aggregate function's partial order.
* ``GRP2xx`` — boundedness: IncEval's work must be driven by the changed
  set ``M_i``, not by full-fragment scans (the paper's bounded-IncEval
  condition behind the Assurance Theorem's complexity claim).
* ``GRP3xx`` — BSP isolation and determinism: no shared state smuggled
  across the superstep barrier, no nondeterminism sources that would make
  supersteps irreproducible.
* ``GRP4xx`` — contract checks on the PIE declarations themselves.
* ``GRP5xx`` — pickle safety: program state that cannot be shipped to
  the process execution backend's workers (lambdas, local closures,
  open OS handles stored on the program object).

``GRP100`` is special: it is the *runtime* monotonicity check performed
by :class:`repro.core.assurance.MonotonicityChecker`; it appears here so
runtime violations and static findings read as one numbered system.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Severity",
    "RuleInfo",
    "Finding",
    "CATALOG",
    "make_finding",
    "RUNTIME_MONOTONICITY",
]

#: Severity levels, in increasing order of gravity.
SEVERITIES = ("info", "warning", "error")

Severity = str  # one of SEVERITIES


def severity_rank(severity: Severity) -> int:
    """Position of ``severity`` in the ordered scale (for filtering)."""
    return SEVERITIES.index(severity)


@dataclass(frozen=True)
class RuleInfo:
    """Catalog entry describing one rule code."""

    code: str
    family: str
    severity: Severity
    title: str
    hint: str


#: Runtime counterpart code used by the assurance checker.
RUNTIME_MONOTONICITY = "GRP100"

_RULES = (
    RuleInfo(
        "GRP100",
        "aggregator-consistency",
        "error",
        "runtime non-monotonic parameter write",
        "make PEval/IncEval write through params.improve() so every value "
        "moves along the declared aggregator's partial order",
    ),
    RuleInfo(
        "GRP101",
        "aggregator-consistency",
        "error",
        "parameter write contradicts the declared aggregator order",
        "the written expression moves against the aggregator's partial "
        "order (e.g. max(...) under MIN); compute the value with the "
        "matching extremum or switch the declared aggregator",
    ),
    RuleInfo(
        "GRP102",
        "aggregator-consistency",
        "warning",
        "raw params.set() under an ordered aggregator",
        "params.set() bypasses the aggregate function; use "
        "params.improve() so writes cannot regress along the order",
    ),
    RuleInfo(
        "GRP201",
        "boundedness",
        "error",
        "IncEval scans the full fragment",
        "derive IncEval's worklist from the `changed` set (M_i); a loop "
        "over fragment.owned / graph.vertices() makes every round cost "
        "O(|F_i|), voiding the bounded-IncEval guarantee",
    ),
    RuleInfo(
        "GRP202",
        "boundedness",
        "warning",
        "IncEval writes parameters from a border-wide scan",
        "export only the border variables your incremental update "
        "touched; re-publishing the whole border each round costs "
        "O(|border|) regardless of |M_i|",
    ),
    RuleInfo(
        "GRP203",
        "boundedness",
        "warning",
        "IncEval ignores the changed set",
        "an IncEval that never reads `changed` is recomputing from "
        "scratch; seed the incremental algorithm with the vertices whose "
        "parameters were just updated",
    ),
    RuleInfo(
        "GRP301",
        "bsp-isolation",
        "error",
        "PIE method mutates module-level state",
        "module globals are shared by every simulated worker and leak "
        "across the BSP barrier; keep per-fragment state in the partial "
        "answer returned by PEval/IncEval",
    ),
    RuleInfo(
        "GRP302",
        "bsp-isolation",
        "error",
        "PIE method mutates the shared query object",
        "the query is broadcast to all workers; treat it as frozen and "
        "carry mutable state in the partial answer instead",
    ),
    RuleInfo(
        "GRP303",
        "bsp-isolation",
        "error",
        "PIE method mutates the fragment graph during evaluation",
        "the data graph is shared, read-only state during a query; graph "
        "updates belong in the engine's run_incremental(ΔG) path",
    ),
    RuleInfo(
        "GRP304",
        "determinism",
        "warning",
        "unseeded randomness inside a PIE method",
        "use repro.utils.rng.make_rng(seed, scope...) so supersteps are "
        "reproducible run to run",
    ),
    RuleInfo(
        "GRP305",
        "determinism",
        "warning",
        "wall-clock dependence inside a PIE method",
        "time.*/datetime.* make supersteps irreproducible; thread clocks "
        "through the query or drop them",
    ),
    RuleInfo(
        "GRP306",
        "determinism",
        "warning",
        "order-sensitive parameter write driven by unsorted-set iteration",
        "set iteration order is not deterministic across processes; "
        "iterate sorted(..., key=repro.utils.rng.stable_hash) or write "
        "through params.improve() (order-insensitive)",
    ),
    RuleInfo(
        "GRP401",
        "contract",
        "error",
        "param_spec default is degenerate for the declared aggregator",
        "the default must be the top of the aggregator's order (its "
        "identity), e.g. +inf for MIN, -inf/None for MAX, False for "
        "BOOL_OR — otherwise aggregation can never improve a value",
    ),
    RuleInfo(
        "GRP402",
        "contract",
        "warning",
        "declare_params declares vertices not derived from the border",
        "update parameters live on border vertices (F_i.I ∪ F_i.O); "
        "derive the declared set from fragment.border / inner_border / "
        "mirrors",
    ),
    RuleInfo(
        "GRP403",
        "contract",
        "warning",
        "impure Assemble",
        "Assemble runs once at the coordinator and must be a pure "
        "combine of the partial answers; move state onto the program's "
        "partials or compute it in PEval/IncEval",
    ),
    RuleInfo(
        "GRP404",
        "contract",
        "warning",
        "ΔG hook ignores the deletion arm",
        "the program repairs updates via on_graph_update, but a deletion "
        "in the batch routes to the default repair_partial, which "
        "raises at runtime; implement delta_seeds/repair_partial "
        "(non-monotone repair) or classify deletions as safe and handle "
        "op.kind == 'delete' in on_graph_update",
    ),
    RuleInfo(
        "GRP501",
        "pickle-safety",
        "warning",
        "lambda stored on the program object",
        "the process backend pickles the whole program to its workers; "
        "replace the lambda with a module-level named function (see "
        "repro.core.aggregators for the idiom)",
    ),
    RuleInfo(
        "GRP502",
        "pickle-safety",
        "warning",
        "local closure stored on the program object",
        "functions defined inside a method close over its locals and "
        "cannot be pickled; hoist the helper to module level and pass "
        "state explicitly",
    ),
    RuleInfo(
        "GRP503",
        "pickle-safety",
        "warning",
        "open OS handle stored on the program object",
        "files, sockets, locks and subprocesses cannot cross a process "
        "boundary; open handles inside the method that uses them, or "
        "keep them off the program object",
    ),
    RuleInfo(
        "GRP504",
        "storage",
        "warning",
        "PIE method materializes a whole neighbor list",
        "CSR-backed fragments stream adjacency zero-copy; iterate "
        "graph.iter_neighbors()/iter_out()/iter_in() directly instead "
        "of copying the row with list()/set()/sorted() every superstep",
    ),
)

#: code -> RuleInfo for every known rule.
CATALOG: dict[str, RuleInfo] = {rule.code: rule for rule in _RULES}


@dataclass
class Finding:
    """One diagnostic produced by the analyzer (or suppressed by pragma)."""

    code: str
    message: str
    path: str
    line: int
    col: int
    program: str
    method: str
    severity: Severity = "error"
    hint: str = ""
    suppressed: bool = False

    @property
    def rule(self) -> RuleInfo:
        """Catalog entry for this finding's code."""
        return CATALOG[self.code]

    def location(self) -> str:
        """``path:line:col`` anchor."""
        return f"{self.path}:{self.line}:{self.col}"

    def __str__(self) -> str:
        where = f"{self.program}.{self.method}" if self.method else self.program
        tag = " (suppressed)" if self.suppressed else ""
        return (
            f"{self.location()}: {self.code} {self.severity}: "
            f"{self.message} [{where}]{tag}"
        )


def make_finding(
    code: str,
    message: str,
    *,
    path: str,
    node,
    program: str,
    method: str,
) -> Finding:
    """Build a :class:`Finding`, pulling severity and hint from the catalog."""
    info = CATALOG[code]
    return Finding(
        code=code,
        message=message,
        path=path,
        line=getattr(node, "lineno", 0),
        col=getattr(node, "col_offset", 0),
        program=program,
        method=method,
        severity=info.severity,
        hint=info.hint,
    )
