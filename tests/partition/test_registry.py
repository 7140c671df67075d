"""Unit tests for the partition-strategy registry."""

import pytest

from repro.errors import RegistryError
from repro.partition.base import Partitioner
from repro.partition.registry import (
    available_strategies,
    get_partitioner,
    register_partitioner,
)


def test_builtins_registered():
    names = available_strategies()
    for expected in (
        "hash", "range", "grid2d", "ldg", "fennel", "bfs",
        "multilevel", "metis",
    ):
        assert expected in names


def test_get_returns_instances():
    a = get_partitioner("hash")
    b = get_partitioner("hash")
    assert a is not b
    assert a.name == "hash"


def test_metis_alias_is_multilevel():
    assert type(get_partitioner("metis")).__name__ == "MultilevelPartitioner"


def test_unknown_strategy_raises_with_choices():
    with pytest.raises(RegistryError, match="hash"):
        get_partitioner("nope")


def test_register_custom_and_duplicate():
    class Custom(Partitioner):
        name = "custom-test"

        def partition(self, graph, num_parts):
            return {v: 0 for v in graph.vertices()}

    register_partitioner("custom-test", Custom)
    try:
        assert "custom-test" in available_strategies()
        with pytest.raises(RegistryError):
            register_partitioner("custom-test", Custom)
        register_partitioner("custom-test", Custom, replace=True)
    finally:
        # keep the global registry clean for other tests
        from repro.partition import registry as mod

        mod._FACTORIES.pop("custom-test", None)
