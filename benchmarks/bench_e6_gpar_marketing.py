"""E6 — Fig. 4 / Example 2: GPAR social-media marketing.

The demo runs a set of GPARs over a Weibo-like graph to find potential
customers, "with a provable guarantee that the more workers are used,
the faster it finds potential customers". We reproduce:

* the Example-2 rule (≥80% of followees recommend, none rates badly →
  recommend the product) over a generated labeled social graph;
* the worker sweep — the critical-path work of the rules' SubIso runs
  falls as workers grow (the parallel scalability guarantee for
  SubIso-based matching);
* recommendation quality invariants: suggested customers satisfy the
  antecedent and are not yet buyers, ranked by rule confidence.
"""

from __future__ import annotations

import pytest

from benchmarks.helpers import COST_MODEL, run_once, write_record
from repro.graph.fragment import build_fragments
from repro.graph.generators import labeled_social
from repro.gpar.marketing import example2_rule, find_potential_customers
from repro.partition.registry import get_partitioner

WORKER_COUNTS = (1, 2, 4, 8, 16)


@pytest.fixture(scope="module")
def social():
    return labeled_social(
        3000, seed=6, interaction_prob=0.6, follow_per_person=5
    )


@pytest.fixture(scope="module")
def rules():
    tight = example2_rule(min_recommend_ratio=0.8)
    loose = example2_rule(min_recommend_ratio=0.4)
    loose.name = "peer-recommendation-40pct"
    return [tight, loose]


@pytest.fixture(scope="module")
def results():
    return {}


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_campaign_at_scale(benchmark, social, rules, results, workers):
    def run():
        assignment = get_partitioner("hash")(social, workers)
        fragd = build_fragments(social, assignment, workers, "hash")
        return find_potential_customers(
            social, fragd, rules, cost_model=COST_MODEL
        )

    results[workers] = run_once(benchmark, run)


def test_e6_shape_and_report(benchmark, social, rules, results):
    run_once(benchmark, lambda: None)
    assert set(WORKER_COUNTS) <= set(results)

    # Same recommendations at every worker count.
    baseline = {
        (r.customer, r.product, r.rule)
        for r in results[WORKER_COUNTS[0]].recommendations
    }
    for workers in WORKER_COUNTS[1:]:
        got = {
            (r.customer, r.product, r.rule)
            for r in results[workers].recommendations
        }
        assert got == baseline

    # "More workers -> faster": the matching's critical path shrinks
    # enough that 16 workers beat 1 worker by >2x.
    assert results[16].critical_path_work * 2 < results[1].critical_path_work

    # Quality invariants on the shipped campaign.
    campaign = results[16]
    for rec in campaign.recommendations[:50]:
        rule = next(r for r in rules if r.name == rec.rule)
        assert rule.antecedent_holds(social, rec.customer, rec.product)
        assert not rule.consequent_holds(social, rec.customer, rec.product)
    confidences = [r.confidence for r in campaign.recommendations]
    assert confidences == sorted(confidences, reverse=True)

    write_record(
        "e6_gpar_marketing",
        {
            "workers": {
                str(n): {
                    "time_s": results[n].total_time,
                    "critical_path_work": results[n].critical_path_work,
                    "comm_mb": results[n].total_comm_mb,
                    "recommendations": len(results[n].recommendations),
                    "candidate_pairs": results[n].candidates_checked,
                }
                for n in WORKER_COUNTS
            },
            "rule_stats_16_workers": {
                name: {"support": support, "confidence": confidence}
                for name, (support, confidence) in campaign.rule_stats.items()
            },
        },
    )
