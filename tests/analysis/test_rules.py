"""Each fixture program violates exactly one grape-lint rule."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import analyze_path, analyze_source
from repro.analysis.findings import CATALOG
from repro.analysis.runner import active

FIXTURES = Path(__file__).parent / "fixtures"

EXPECTED = {
    "viol_grp101.py": "GRP101",
    "viol_grp101_custom_agg.py": "GRP101",
    "viol_grp101_helper.py": "GRP101",
    "viol_grp102.py": "GRP102",
    "viol_grp201.py": "GRP201",
    "viol_grp202.py": "GRP202",
    "viol_grp202_helper.py": "GRP202",
    "viol_grp203.py": "GRP203",
    "viol_grp301.py": "GRP301",
    "viol_grp302.py": "GRP302",
    "viol_grp303.py": "GRP303",
    "viol_grp304.py": "GRP304",
    "viol_grp305.py": "GRP305",
    "viol_grp306.py": "GRP306",
    "viol_grp401.py": "GRP401",
    "viol_grp402.py": "GRP402",
    "viol_grp403.py": "GRP403",
    "viol_grp404.py": "GRP404",
    "viol_grp501.py": "GRP501",
    "viol_grp502.py": "GRP502",
    "viol_grp503.py": "GRP503",
    "viol_grp504.py": "GRP504",
}


@pytest.mark.parametrize("filename,code", sorted(EXPECTED.items()))
def test_fixture_flags_exactly_its_rule(filename: str, code: str) -> None:
    findings = active(analyze_path(str(FIXTURES / filename)))
    assert [f.code for f in findings] == [code], [str(f) for f in findings]
    finding = findings[0]
    assert finding.severity == CATALOG[code].severity
    assert finding.hint
    assert finding.line > 0
    assert finding.program.endswith("Program")


def test_every_static_rule_has_a_fixture() -> None:
    static_codes = {c for c in CATALOG if c != "GRP100"}
    assert set(EXPECTED.values()) == static_codes


def test_clean_program_reports_nothing() -> None:
    assert analyze_path(str(FIXTURES / "clean_widest.py")) == []


def test_clean_custom_aggregator_is_checked_not_skipped() -> None:
    # The pair to viol_grp101_custom_agg.py: the custom aggregator's
    # direction resolves (so direction rules DO run) and the program
    # is genuinely clean — not silently skipped as "unknown".
    from repro.analysis.inspector import inspect_source

    path = FIXTURES / "clean_custom_agg.py"
    info = inspect_source(path.read_text(), str(path))
    assert info.programs[0].aggregator.direction == "increasing"
    assert analyze_path(str(path)) == []


def test_custom_aggregator_direction_inference() -> None:
    # Type-aware inference from Aggregator(name, combine, order):
    # the order constant wins; a builtin combine pins the direction
    # when the order expression is unrecognisable; otherwise the
    # direction stays "unknown" as before.
    from repro.analysis.inspector import inspect_source

    def program_with(defs: str, agg: str) -> str:
        return (
            "from repro.core.aggregators import Aggregator\n"
            "from repro.core.partial_order import (\n"
            "    DECREASING, GROWING_SET, PartialOrder)\n"
            "from repro.core.pie import ParamSpec, PIEProgram\n"
            f"{defs}"
            "class InferProgram(PIEProgram):\n"
            "    def param_spec(self, query):\n"
            f"        return ParamSpec(aggregator={agg}, default=None)\n"
            "    def peval(self, fragment, query, params):\n"
            "        return {}\n"
            "    def inceval(self, fragment, query, partial, params, changed):\n"
            "        return partial\n"
            "    def assemble(self, query, partials):\n"
            "        return partials\n"
        )

    def direction_of(defs: str, agg: str) -> str:
        info = inspect_source(program_with(defs, agg))
        return info.programs[0].aggregator.direction

    # Order constant on a module-level custom aggregator.
    assert direction_of(
        "FASTEST = Aggregator('fastest', lambda c, n: min(c, n), DECREASING)\n",
        "FASTEST",
    ) == "decreasing"
    assert direction_of(
        "MATCHES = Aggregator('matches', frozenset.union, GROWING_SET)\n",
        "MATCHES",
    ) == "growing"
    # Builtin combine decides when the order is a computed expression.
    assert direction_of(
        "SMALLEST = Aggregator(\n"
        "    'smallest', min, PartialOrder('d', lambda a, b: b < a))\n",
        "SMALLEST",
    ) == "decreasing"
    # Keyword form.
    assert direction_of(
        "BIGGEST = Aggregator('biggest', combine=max,\n"
        "                     order=PartialOrder('i', lambda a, b: b > a))\n",
        "BIGGEST",
    ) == "increasing"
    # Neither recognisable: stays unknown (rules skip, as before).
    assert direction_of(
        "def _blend(cur, new):\n"
        "    return (cur + new) / 2\n"
        "MEAN = Aggregator('mean', _blend, PartialOrder('x', lambda a, b: True))\n",
        "MEAN",
    ) == "unknown"
    # Inline construction right in the ParamSpec call.
    assert direction_of(
        "", "Aggregator('fastest', lambda c, n: min(c, n), DECREASING)"
    ) == "decreasing"


def test_custom_aggregator_direction_enables_grp101() -> None:
    # Before inference, a custom aggregator meant direction "unknown"
    # and the max-under-decreasing defect sailed through unflagged.
    findings = active(
        analyze_path(str(FIXTURES / "viol_grp101_custom_agg.py"))
    )
    assert [f.code for f in findings] == ["GRP101"]
    assert "decreasing" in findings[0].message


def test_pragma_suppresses_finding() -> None:
    findings = analyze_path(str(FIXTURES / "suppressed_ok.py"))
    assert [f.code for f in findings] == ["GRP304"]
    assert findings[0].suppressed
    assert active(findings) == []


def test_pragma_on_comment_line_covers_next_line() -> None:
    source = (
        "from repro.core.aggregators import MIN\n"
        "from repro.core.pie import ParamSpec, PIEProgram\n"
        "CACHE = {}\n"
        "class P(PIEProgram):\n"
        "    def param_spec(self, query):\n"
        "        return ParamSpec(aggregator=MIN, default=None)\n"
        "    def peval(self, fragment, query, params):\n"
        "        # grape-lint: disable=GRP301\n"
        "        CACHE['x'] = 1\n"
        "        return {}\n"
        "    def inceval(self, fragment, query, partial, params, changed):\n"
        "        return partial\n"
        "    def assemble(self, query, partials):\n"
        "        return partials\n"
    )
    findings = analyze_source(source)
    assert [f.code for f in findings] == ["GRP301"]
    assert findings[0].suppressed


def test_pragma_disable_all() -> None:
    source = (
        "class P:\n"
        "    def peval(self, fragment, query, params):\n"
        "        import random\n"
        "        return random.random()  # grape-lint: disable=all\n"
        "    def inceval(self, fragment, query, partial, params, changed):\n"
        "        return partial\n"
        "    def assemble(self, query, partials):\n"
        "        return partials\n"
    )
    findings = analyze_source(source)
    assert all(f.suppressed for f in findings)


def test_aggregator_resolves_through_local_inheritance() -> None:
    # A subclass overriding only inceval inherits the parent's declared
    # aggregator for rule evaluation (the ablation-module shape).
    source = (
        "from repro.core.aggregators import MIN\n"
        "from repro.core.pie import ParamSpec, PIEProgram\n"
        "class Base(PIEProgram):\n"
        "    def param_spec(self, query):\n"
        "        return ParamSpec(aggregator=MIN, default=None)\n"
        "    def peval(self, fragment, query, params):\n"
        "        return {}\n"
        "    def inceval(self, fragment, query, partial, params, changed):\n"
        "        return partial\n"
        "    def assemble(self, query, partials):\n"
        "        return partials\n"
        "class Variant(Base):\n"
        "    def inceval(self, fragment, query, partial, params, changed):\n"
        "        for v in changed:\n"
        "            params.set(v, partial.get(v, 0))\n"
        "        return partial\n"
    )
    findings = active(analyze_source(source))
    assert [(f.program, f.code) for f in findings] == [("Variant", "GRP102")]


def test_helper_finding_reported_once_at_helper_line() -> None:
    # The defect is visible both in the helper itself and through the
    # inlined copy in peval; dedup must collapse them onto the helper's
    # own line.
    path = FIXTURES / "viol_grp101_helper.py"
    findings = active(analyze_path(str(path)))
    assert len(findings) == 1
    source_line = path.read_text().splitlines()[findings[0].line - 1]
    assert "max(" in source_line  # points into _publish, not at the call


def test_pragma_on_helper_line_suppresses_inlined_finding() -> None:
    source = (
        "from repro.core.aggregators import MIN\n"
        "from repro.core.pie import ParamSpec, PIEProgram\n"
        "class HelperProgram(PIEProgram):\n"
        "    def param_spec(self, query):\n"
        "        return ParamSpec(aggregator=MIN, default=None)\n"
        "    def _publish(self, fragment, partial, params):\n"
        "        for v in fragment.border:\n"
        "            params.improve(v, max(partial.get(v, 0), 1))"
        "  # grape-lint: disable=GRP101\n"
        "    def peval(self, fragment, query, params):\n"
        "        partial = {}\n"
        "        self._publish(fragment, partial, params)\n"
        "        return partial\n"
        "    def inceval(self, fragment, query, partial, params, changed):\n"
        "        return partial\n"
        "    def assemble(self, query, partials):\n"
        "        return partials\n"
    )
    findings = analyze_source(source)
    assert [f.code for f in findings] == ["GRP101"]
    assert findings[0].suppressed
    assert active(findings) == []


def _chain_program(levels: int) -> str:
    # peval -> _h1 -> ... -> _h<levels>, violation (GRP101 max under
    # MIN) in the deepest helper.
    helpers = []
    for i in range(1, levels):
        helpers.append(
            f"    def _h{i}(self, fragment, partial, params):\n"
            f"        self._h{i + 1}(fragment, partial, params)\n"
        )
    helpers.append(
        f"    def _h{levels}(self, fragment, partial, params):\n"
        "        for v in fragment.border:\n"
        "            params.improve(v, max(partial.get(v, 0), 1))"
        "  # grape-lint: disable=GRP101\n"
    )
    return (
        "from repro.core.aggregators import MIN\n"
        "from repro.core.pie import ParamSpec, PIEProgram\n"
        "class DeepProgram(PIEProgram):\n"
        "    def param_spec(self, query):\n"
        "        return ParamSpec(aggregator=MIN, default=None)\n"
        + "".join(helpers)
        + "    def peval(self, fragment, query, params):\n"
        "        partial = {}\n"
        "        self._h1(fragment, partial, params)\n"
        "        return partial\n"
        "    def inceval(self, fragment, query, partial, params, changed):\n"
        "        return partial\n"
        "    def assemble(self, query, partials):\n"
        "        return partials\n"
    )


def test_inlining_reaches_three_helper_levels() -> None:
    # The violation sits three calls deep; bounded expansion reaches it
    # and the helper-line pragma suppresses both the direct and the
    # inlined sighting (they dedup onto the helper's line).
    findings = analyze_source(_chain_program(3))
    assert [f.code for f in findings] == ["GRP101"]
    assert findings[0].suppressed
    assert active(findings) == []


def test_inlining_stops_past_the_depth_bound() -> None:
    # Four levels deep is past MAX_INLINE_DEPTH: the role-method
    # expansion must not reach the violation. Without the pragma the
    # helper itself is still checked directly, so the defect is
    # reported once, attributed to the deepest helper only.
    source = _chain_program(4).replace("  # grape-lint: disable=GRP101", "")
    findings = active(analyze_source(source))
    assert {f.method for f in findings} == {"_h4"}
    assert len(findings) == 1


def test_inlining_survives_direct_recursion() -> None:
    source = (
        "from repro.core.aggregators import MIN\n"
        "from repro.core.pie import ParamSpec, PIEProgram\n"
        "class LoopProgram(PIEProgram):\n"
        "    def param_spec(self, query):\n"
        "        return ParamSpec(aggregator=MIN, default=None)\n"
        "    def _spin(self, fragment, partial, params):\n"
        "        self._spin(fragment, partial, params)\n"
        "        for v in fragment.border:\n"
        "            params.improve(v, max(partial.get(v, 0), 1))\n"
        "    def peval(self, fragment, query, params):\n"
        "        partial = {}\n"
        "        self._spin(fragment, partial, params)\n"
        "        return partial\n"
        "    def inceval(self, fragment, query, partial, params, changed):\n"
        "        return partial\n"
        "    def assemble(self, query, partials):\n"
        "        return partials\n"
    )
    findings = active(analyze_source(source))
    assert [f.code for f in findings] == ["GRP101"]


def test_inlining_survives_mutual_recursion() -> None:
    source = (
        "from repro.core.aggregators import MIN\n"
        "from repro.core.pie import ParamSpec, PIEProgram\n"
        "class PingPongProgram(PIEProgram):\n"
        "    def param_spec(self, query):\n"
        "        return ParamSpec(aggregator=MIN, default=None)\n"
        "    def _ping(self, fragment, partial, params):\n"
        "        self._pong(fragment, partial, params)\n"
        "    def _pong(self, fragment, partial, params):\n"
        "        self._ping(fragment, partial, params)\n"
        "    def peval(self, fragment, query, params):\n"
        "        partial = {}\n"
        "        self._ping(fragment, partial, params)\n"
        "        return partial\n"
        "    def inceval(self, fragment, query, partial, params, changed):\n"
        "        return partial\n"
        "    def assemble(self, query, partials):\n"
        "        return partials\n"
    )
    assert active(analyze_source(source)) == []


def test_syntax_error_raises_analysis_error() -> None:
    from repro.errors import AnalysisError

    with pytest.raises(AnalysisError, match="cannot parse"):
        analyze_source("def broken(:\n", path="bad.py")
