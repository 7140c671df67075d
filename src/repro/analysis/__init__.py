"""grape-lint: a static verifier for PIE programs.

The Assurance Theorem (Section 2.2) promises termination and correctness
only when a plugged-in PIE program keeps its side of the contract:
monotonic update-parameter writes, a *bounded* IncEval, and sequential
code that stays sequential — no shared state smuggled across the BSP
barrier, no nondeterminism between supersteps. The engine's runtime
monotonicity checker (:mod:`repro.core.assurance`, rule ``GRP100``)
catches one of those conditions, and only after the program misbehaves;
the runtime also refuses every breach of the declaration contract where
it has a consequence.

This package checks what the runtime cannot see *before execution*, by
parsing (never importing) the program's source: ``analyze_path`` /
``analyze_source`` lint files, ``analyze_program`` lints a live class,
and the ``grape lint`` CLI subcommand and the registry's
``validate=True`` hook wire the verifier into the plug panel of Fig. 3.

Findings carry stable codes (``GRP101``..``GRP504``, see
:mod:`repro.analysis.findings`) and can be suppressed inline with
``# grape-lint: disable=GRPnnn``.
"""

from repro.analysis.findings import CATALOG, Finding, RuleInfo
from repro.analysis.reporting import (
    findings_to_json,
    format_findings,
    rule_table,
    summary_line,
)
from repro.analysis.runner import (
    active,
    analyze_path,
    analyze_paths,
    analyze_program,
    analyze_source,
    require_clean,
)

__all__ = [
    "CATALOG",
    "Finding",
    "RuleInfo",
    "active",
    "analyze_path",
    "analyze_paths",
    "analyze_program",
    "analyze_source",
    "findings_to_json",
    "format_findings",
    "require_clean",
    "rule_table",
    "summary_line",
]
