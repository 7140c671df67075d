"""Unit tests for the storage layer: DFS and indexes."""

import pytest

from repro.errors import StorageError
from repro.graph.generators import labeled_social, power_law
from repro.storage.dfs import SimulatedDFS
from repro.storage.index import DegreeIndex, IndexManager, LabelIndex


# ----------------------------------------------------------------- dfs
def test_dfs_put_get_roundtrip(tmp_path):
    dfs = SimulatedDFS(tmp_path)
    dfs.put("a/b/file.bin", b"hello")
    assert dfs.get("a/b/file.bin") == b"hello"


def test_dfs_json_roundtrip(tmp_path):
    dfs = SimulatedDFS(tmp_path)
    dfs.put_json("x.json", {"k": [1, 2]})
    assert dfs.get_json("x.json") == {"k": [1, 2]}


def test_dfs_missing_file_raises(tmp_path):
    dfs = SimulatedDFS(tmp_path)
    with pytest.raises(StorageError):
        dfs.get("nope")


def test_dfs_path_traversal_rejected(tmp_path):
    dfs = SimulatedDFS(tmp_path)
    with pytest.raises(StorageError):
        dfs.put("../evil", b"x")
    with pytest.raises(StorageError):
        dfs.get("")


def test_dfs_delete_and_exists(tmp_path):
    dfs = SimulatedDFS(tmp_path)
    dfs.put("f", b"x")
    assert dfs.exists("f")
    assert dfs.delete("f") is True
    assert dfs.delete("f") is False
    assert not dfs.exists("f")


def test_dfs_listdir(tmp_path):
    dfs = SimulatedDFS(tmp_path)
    dfs.put("d/a", b"1")
    dfs.put("d/b", b"2")
    assert dfs.listdir("d") == ["a", "b"]
    assert dfs.listdir("missing") == []


# --------------------------------------------------------------- index
def test_label_index_lookup():
    g = labeled_social(50, seed=6)
    idx = LabelIndex(g)
    people = idx.lookup("person")
    assert people == g.vertices_with_label("person")
    assert idx.count("product") == len(idx.lookup("product"))
    assert idx.lookup("ghost") == []


def test_degree_index_thresholds():
    g = power_law(60, seed=7)
    idx = DegreeIndex(g)
    hubs = idx.at_least(out_degree=5)
    assert all(g.out_degree(v) >= 5 for v in hubs)
    assert set(idx.at_least()) == set(g.vertices())


def test_index_manager_caches_per_graph():
    g = labeled_social(30, seed=8)
    mgr = IndexManager()
    a = mgr.label_index(g)
    b = mgr.label_index(g)
    assert a is b
    mgr.invalidate(g)
    assert mgr.label_index(g) is not a
