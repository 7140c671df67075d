"""Rule families for grape-lint, one module per family.

Each family module exposes ``check(program, module) -> Iterator[Finding]``;
:func:`run_rules` applies every family to every PIE program of a parsed
module and marks pragma-suppressed findings.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.inline import inline_helpers
from repro.analysis.inspector import ModuleInfo
from repro.analysis.rules import aggregator, boundedness, isolation, storage

#: The rule families, in report order.
FAMILIES = (aggregator, boundedness, isolation, storage)

__all__ = ["FAMILIES", "run_rules"]


def run_rules(module: ModuleInfo) -> Iterator[Finding]:
    """All findings for ``module``, suppression pragmas applied.

    Each program is checked with same-class helper calls inlined one
    level into its PIE-role methods (see
    :mod:`repro.analysis.inline`), so a method delegating its border
    publish to a helper no longer escapes GRP101/GRP202. Spliced nodes
    keep the helper's line numbers, so a defect seen both in the helper
    itself and through one or more inlined call sites lands on one
    location; findings are deduplicated on (code, location, program).
    """
    for program in module.programs:
        program = inline_helpers(program)
        seen: set[tuple] = set()
        for family in FAMILIES:
            for finding in family.check(program, module):
                key = (
                    finding.code,
                    finding.path,
                    finding.line,
                    finding.col,
                    finding.program,
                )
                if key in seen:
                    continue
                seen.add(key)
                finding.suppressed = module.suppressed(
                    finding.line, finding.code
                )
                yield finding
