"""Social-media marketing with GPARs — the demo's application (Fig. 4).

"90% of customers trust peer recommendations versus 14% who trust
advertising": given a set of GPARs, find *potential customers* — pairs
``(x, y)`` that satisfy a rule's antecedent but do not yet satisfy its
consequent — ranked by the rule's confidence on the observed data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.graph.digraph import Graph
from repro.graph.fragment import FragmentedGraph
from repro.gpar.matcher import find_rule_matches
from repro.gpar.pattern import Pattern
from repro.gpar.rule import GPAR, Quantifier
from repro.runtime.costmodel import CostModel

VertexId = Hashable


@dataclass(frozen=True)
class Recommendation:
    """One suggested (customer, product) pair."""

    customer: VertexId
    product: VertexId
    rule: str
    confidence: float


@dataclass
class MarketingCampaign:
    """Outcome of running a GPAR set over a social graph."""

    recommendations: list[Recommendation]
    rule_stats: dict[str, tuple[int, float]]  # rule -> (support, confidence)
    total_time: float = 0.0
    total_comm_mb: float = 0.0
    candidates_checked: int = 0
    #: Summed over the rules' SubIso runs (``RunMetrics.critical_path_work``).
    critical_path_work: int = 0

    def top(self, k: int) -> list[Recommendation]:
        """The ``k`` highest-confidence recommendations."""
        return self.recommendations[:k]


def example2_rule(
    product_label: str = "product",
    min_recommend_ratio: float = 0.8,
) -> GPAR:
    """The demo's Example 2 GPAR, structurally.

    Pattern: person ``x`` follows some person ``z`` who recommends
    product ``y``. Quantifiers: at least ``min_recommend_ratio`` of
    ``x``'s followees recommend ``y``; none rates ``y`` badly.
    Consequent: ``buy(x, y)``.
    """
    pattern = Pattern(x="x", y="y")
    pattern.vertex("x", "person")
    pattern.vertex("z", "person")
    pattern.vertex("y", product_label)
    pattern.edge("x", "z", label="follow")
    pattern.edge("z", "y", label="recommend")
    return GPAR(
        name="example2-peer-recommendation",
        pattern=pattern,
        consequent_label="buy",
        quantifiers=(
            Quantifier(
                over_label="follow",
                edge_label="recommend",
                at_least=min_recommend_ratio,
            ),
            Quantifier(
                over_label="follow",
                edge_label="rate_bad",
                at_most=0.0,
            ),
        ),
    )


def find_potential_customers(
    graph: Graph,
    fragmented: FragmentedGraph,
    rules: Sequence[GPAR],
    cost_model: CostModel | None = None,
) -> MarketingCampaign:
    """Run every rule; return not-yet-buyers ranked by rule confidence."""
    recommendations: list[Recommendation] = []
    stats: dict[str, tuple[int, float]] = {}
    total_time = 0.0
    total_mb = 0.0
    checked = 0
    work = 0
    for rule in rules:
        pairs, result = find_rule_matches(
            graph, fragmented, rule, cost_model=cost_model
        )
        total_time += result.total_time
        total_mb += result.metrics.communication_mb
        work += result.metrics.critical_path_work
        checked += len(pairs)
        support, confidence = rule.support_confidence(graph, pairs)
        stats[rule.name] = (support, confidence)
        for x, y in pairs:
            if not rule.consequent_holds(graph, x, y):
                recommendations.append(
                    Recommendation(
                        customer=x,
                        product=y,
                        rule=rule.name,
                        confidence=confidence,
                    )
                )
    recommendations.sort(
        key=lambda r: (-r.confidence, str(r.customer), str(r.product))
    )
    return MarketingCampaign(
        recommendations=recommendations,
        rule_stats=stats,
        total_time=total_time,
        total_comm_mb=total_mb,
        candidates_checked=checked,
        critical_path_work=work,
    )
