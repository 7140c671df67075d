"""Program audits: the kept checks that refuse each defect a rule named.

Every program here — the nine built-ins and the PIE program in
``examples/`` — is held to three audits, and each biting fixture in
:mod:`tests.core.fixtures.biting` is shown to bite with no check and to
be refused by one of them:

* **Monotonic writes** (GRP101/102): ``check_monotonic`` refuses a
  write against the aggregator's order with ``[GRP100]``, on both
  backends.
* **Bounded IncEval** (GRP201–203), E5's method: the same one-edge ΔG
  at three fragment sizes with the worker count fixed (cold IncEval
  rounds for programs without ΔG hooks). A wrapper that only this
  module installs counts what each IncEval call reads from the
  fragment, its graph, its slot view, the parameter store and the
  partial answer's containers (a program may copy fragment data into
  its partial, as CF does with its ratings). A program whose worst
  call grows more than :data:`GROWTH_LIMIT` times while the fragment
  grows :data:`SIZES` times over is unbounded; the unbounded ones are
  named in :data:`EXPECTED_UNBOUNDED`, with the reason.
* **Determinism and isolation** (GRP301–306): a run must repeat in the
  same session, in a fresh process under another ``PYTHONHASHSEED``
  (one subprocess for every program) and, for the built-ins, on the
  process backend (the oracle lattice, ``tests/property``).

Run ``python -m tests.core.test_program_audits`` from the repository
root (``src`` on the path) to print every program's run fingerprint;
the hash-seed audit compares that output with its own.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.algorithms.ablation import SSSPRecomputeProgram
from repro.core.engine import GrapeEngine
from repro.engineapi.query import build_query
from repro.engineapi.registry import get_program
from repro.engineapi.session import Session
from repro.errors import MonotonicityError
from repro.graph.fragment import build_fragments, expand_fragments
from repro.graph.generators import (
    bipartite_ratings,
    graph_from_spec,
    labeled_social,
    power_law,
    random_weighted_digraph,
    road_network,
)
from repro.partition.registry import get_partitioner

from tests.algorithms.test_pie_sim_subiso import _chain_pattern
from tests.core.fixtures import biting
from tests.property.scenarios import (
    COLD_PROGRAMS,
    DELTA_PROGRAMS,
    GRAPH_SPEC,
    NUM_WORKERS,
    cold_case,
    delta_batches,
    observe,
)
from tests.property.test_lattice import by_value

ROOT = Path(__file__).resolve().parents[2]
BOTH = ("simulated", "process")


def _example(filename: str, cls: str):
    """A program class defined in ``examples/``."""
    path = ROOT / "examples" / filename
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[path.stem] = module
    spec.loader.exec_module(module)
    return getattr(module, cls)


WidestPathProgram = _example("plug_and_play_custom.py", "WidestPathProgram")


# ----------------------------------------------------------------------
# GRP101/102: writes against the aggregator's order
# ----------------------------------------------------------------------
ORDER_FIXTURES = {
    "GRP101": biting.WidestUnderMinProgram,
    "GRP102": biting.LastOfferProgram,
}


def _relay_run(program, backend, workers=2, check=False):
    session = Session(
        biting.relay_graph(), num_workers=workers, partition="range",
        check_monotonic=check, backend=backend,
    )
    try:
        return session.run(program, biting.SettledQuery(source=0))
    finally:
        session.close()


@pytest.mark.parametrize("code", sorted(ORDER_FIXTURES))
def test_an_unchecked_write_against_the_order_gives_a_wrong_answer(code):
    program = ORDER_FIXTURES[code]()
    whole = _relay_run(program, "simulated", workers=1).answer
    assert _relay_run(program, "simulated").answer != whole


@pytest.mark.parametrize("code", sorted(ORDER_FIXTURES))
@pytest.mark.parametrize("backend", BOTH)
def test_check_monotonic_refuses_the_write(code, backend):
    with pytest.raises(MonotonicityError, match=r"^\[GRP100\]"):
        _relay_run(ORDER_FIXTURES[code](), backend, check=True)


# ----------------------------------------------------------------------
# GRP201–203: the boundedness audit
# ----------------------------------------------------------------------
#: Road grids (and the cold graphs) grow 4x in vertices per step.
SIZES = (1, 4, 16)
AUDIT_WORKERS = 4
GROWTH_LIMIT = 3.0

class _Meter:
    """Reads of the running IncEval call: ``counting`` is on only inside
    an audited call, ``auditing`` off while a ΔG case's cold run warms
    up the state the audited repair starts from."""

    reads = 0
    counting = False
    auditing = False
    in_store = False  # inside a call to the parameter store


METER = _Meter()


def _read(n: int = 1) -> None:
    if METER.counting:
        METER.reads += n


def _counted(result):
    """A read's result, charged by its size (lazily for iterators)."""
    if hasattr(result, "__next__"):
        return _each(result)
    try:
        _read(max(1, len(result)))
    except TypeError:
        _read()
    return result


def _each(items):
    for item in items:
        _read()
        yield item


class CountingList(list):
    """A list that charges every item it hands out (a row, its arcs)."""

    def __getitem__(self, i):
        item = list.__getitem__(self, i)
        if METER.counting:
            sized = isinstance(i, slice) or type(item) is list
            METER.reads += len(item) if sized else 1
        return item

    def __iter__(self):
        return _each(list.__iter__(self))

    def __contains__(self, item):
        _read(len(self))
        return list.__contains__(self, item)


class CountingDict(dict):
    """A dict that charges every lookup and every item iterated."""

    def __getitem__(self, key):
        _read()
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        _read()
        return dict.get(self, key, default)

    def __contains__(self, key):
        _read()
        return dict.__contains__(self, key)

    def __iter__(self):
        return _each(dict.__iter__(self))

    def keys(self):
        return _counted(dict.keys(self))

    def values(self):
        return _counted(dict.values(self))

    def items(self):
        return _counted(dict.items(self))


class ViewIndex(CountingDict):
    """A slot view's ``index``, which a laid parameter store shares as
    its own key map: a lookup made inside a store call is not charged
    again, so a laid store, like a keyed one (whose map is its own), is
    charged per call."""

    def __getitem__(self, key):
        if METER.in_store:
            return dict.__getitem__(self, key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        if METER.in_store:
            return dict.get(self, key, default)
        return super().get(key, default)

    def __contains__(self, key):
        if METER.in_store:
            return dict.__contains__(self, key)
        return super().__contains__(key)


class Counted:
    """Read-counting stand-in for a graph, a fragment's vertex sets or a
    parameter store (``store``): every call is charged by the size of
    its result."""

    def __init__(self, target, store: bool = False) -> None:
        self._target = target
        self._store = store

    def __getattr__(self, name):
        value = getattr(self._target, name)
        if not callable(value):
            return _counted(value)
        if not self._store:
            return lambda *args, **kwargs: _counted(value(*args, **kwargs))

        def call(*args, **kwargs):
            METER.in_store = True
            try:
                return _counted(value(*args, **kwargs))
            finally:
                METER.in_store = False

        return call

    def __contains__(self, item):
        _read()
        return item in self._target

    def __iter__(self):
        return _each(iter(self._target))

    def __len__(self):
        _read()
        return len(self._target)

    def __getitem__(self, key):
        _read()
        return self._target[key]

    def _operand(self):
        _read(len(self._target))
        return self._target

    def __and__(self, other):
        return self._operand() & other

    def __rand__(self, other):
        return other & self._operand()

    def __or__(self, other):
        return self._operand() | other

    def __ror__(self, other):
        return other | self._operand()

    def __sub__(self, other):
        return self._operand() - other

    def __rsub__(self, other):
        return other - self._operand()


class CountedFragment:
    """The fragment IncEval is handed during an audit."""

    def __init__(self, fragment) -> None:
        self._fragment = fragment
        self.fid = fragment.fid
        self.graph = Counted(fragment.graph)
        self.owned = Counted(fragment.owned)
        self.mirrors = Counted(fragment.mirrors)
        self.inner_border = Counted(fragment.inner_border)

    @property
    def border(self):
        return Counted(self._fragment.border)

    def owns(self, v) -> bool:
        _read()
        return self._fragment.owns(v)

    def slot_view(self):
        return self._fragment.slot_view()  # counts through its containers


def _count_view(fragment) -> None:
    """Swap a fragment's slot view onto counting containers, in place,
    before any partial is laid over it (partials share ``ids``)."""
    view = fragment.slot_view()
    view.ids = CountingList(view.ids)
    view.index = ViewIndex(view.index)
    view.out = CountingList(view.out)
    view.border = CountingList(view.border)


def _count_partial(partial):
    """The partial with its top-level containers read-counting."""
    if type(partial) is dict:
        return CountingDict(partial)
    fields = getattr(partial, "__slots__", ()) or getattr(
        partial, "__dict__", ()
    )
    for name in fields:
        value = getattr(partial, name)
        if type(value) is list:
            setattr(partial, name, CountingList(value))
        elif type(value) is dict:
            setattr(partial, name, CountingDict(value))
    return partial


def audited(program):
    """``program`` with every IncEval call's reads recorded in the
    returned list (one entry per call)."""
    calls: list[int] = []
    base = type(program)

    def peval(self, fragment, query, params):
        return _count_partial(base.peval(self, fragment, query, params))

    def inceval(self, fragment, query, partial, params, changed):
        if not METER.auditing:
            return base.inceval(
                self, fragment, query, partial, params, changed
            )
        METER.reads, METER.counting = 0, True
        try:
            return base.inceval(
                self, CountedFragment(fragment), query, partial,
                Counted(params, store=True), changed,
            )
        finally:
            METER.counting = False
            calls.append(METER.reads)

    cls = type(f"Audited{base.__name__}", (base,), {
        "peval": peval, "inceval": inceval,
    })
    wrapped = cls.__new__(cls)
    wrapped.__dict__.update(vars(program))
    return wrapped, calls


def _road_case(name: str, scale: int):
    """E5's ΔG at one size: a road grid plus an isolated vertex ``z``;
    the far corner gains an edge to ``z`` (k-core, whose safe op is a
    delete, loses all but one corner edge instead) — a change whose
    effect does not grow with the grid."""
    n = 4 * int(scale ** 0.5)
    graph = road_network(n, n, seed=5, removal_prob=0.0)
    corner, z = n * n - 1, n * n
    graph.add_vertex(z)
    if name == "kcore":
        # the corner keeps one edge, to another fragment: its core drops
        # to 1 and the drop is shipped
        owner = get_partitioner("hash")(graph, AUDIT_WORKERS)
        around = sorted(graph.out_neighbors(corner))
        keep = next(w for w in around if owner[w] != owner[corner])
        ops = [("delete", a, b) for u in around if u != keep
               for a, b in ((corner, u), (u, corner))]
    else:
        ops = [("insert", corner, z, 1.0), ("insert", z, corner, 1.0)]
    return graph, ops


def _cold_graph(name: str, scale: int):
    if name == "pagerank":
        return power_law(16 * scale, seed=3)
    if name == "cf":
        return bipartite_ratings(6 * scale, 4 * scale, ratings_per_user=4)
    if name == "widest-path":
        return random_weighted_digraph(16 * scale, 64 * scale, seed=3)
    return labeled_social(16 * scale, seed=1)


FROM_0 = build_query("sssp", source=0)
#: name -> (program factory over the audit graph, query) for programs
#: with ΔG hooks, audited over E5's ΔG ...
DELTA_AUDIT = {
    "sssp": (lambda g: get_program("sssp"), FROM_0),
    "bfs": (lambda g: get_program("bfs"), build_query("bfs", source=0)),
    "cc": (lambda g: get_program("cc"), build_query("cc")),
    "kcore": (lambda g: get_program("kcore"), build_query("kcore")),
    "sssp-recompute": (lambda g: SSSPRecomputeProgram(), FROM_0),
    "bite-grp201": (lambda g: biting.OwnedScanProgram(), FROM_0),
    "bite-grp202": (lambda g: biting.BorderRepublishProgram(), FROM_0),
}
#: ... and for programs without, audited over their cold IncEval rounds.
COLD_AUDIT = {
    "pagerank": (
        lambda g: get_program("pagerank", total_vertices=g.num_vertices),
        build_query("pagerank"),
    ),
    "sim": (lambda g: get_program("sim"), build_query(
        "sim", pattern=_chain_pattern(), pivot="a"
    )),
    "subiso": (lambda g: get_program("subiso"), build_query(
        "subiso", pattern=_chain_pattern(), pivot="a"
    )),
    "keyword": (lambda g: get_program("keyword"), build_query(
        "keyword", keywords=["person", "product"]
    )),
    "cf": (lambda g: get_program("cf"), build_query("cf", epochs=3)),
    "widest-path": (lambda g: WidestPathProgram(), FROM_0),
}
BOUNDED_AUDIT = {**DELTA_AUDIT, **COLD_AUDIT}

#: Programs whose worst IncEval call grows with the fragment: why, and
#: the worst reads measured at the three sizes (EXPERIMENTS.md A15).
EXPECTED_UNBOUNDED = {
    "sssp-recompute": "E5's strawman: IncEval ignores M_i and re-runs "
                      "Dijkstra over the fragment from every border value "
                      "(92 -> 396 -> 1672, x18.2)",
    "cf": "every IncEval call runs an SGD epoch over every local rating "
          "(48 -> 173 -> 661, x13.8)",
    "bite-grp201": "re-offers every owned vertex each call "
                   "(41 -> 113 -> 401, x9.8)",
    "bite-grp202": "re-publishes the whole border each call "
                   "(53 -> 181 -> 725, x13.7)",
    "pagerank": "cold rounds only; each call's _drain scans every local "
                "residual for its worklist and re-offers every column "
                "(417 -> 2356 -> 7049, x16.9)",
    "sim": "cold rounds only; each call freezes every mirror's candidate "
           "set and re-offers the whole inner border "
           "(114 -> 439 -> 1660, x14.6)",
    "keyword": "cold rounds only; a cold round's frontier is the PEval "
               "cut, which grows with the fragment, and each call reads "
               "that frontier back and asks the store which improved "
               "vertex to export (56 -> 209 -> 1014, x18.1)",
    "widest-path": "cold rounds only; a cold round settles what the new "
                   "border values reach, most of the fragment "
                   "(122 -> 372 -> 1602, x13.1)",
}


def worst_inceval_reads(name: str, scale: int) -> tuple[int, int]:
    """(largest fragment, worst reads of one IncEval call) at one size."""
    delta = name in DELTA_AUDIT
    graph, ops = _road_case(name, scale) if delta else (
        _cold_graph(name, scale), None
    )
    factory, query = BOUNDED_AUDIT[name]
    program, calls = audited(factory(graph))
    assignment = get_partitioner("hash")(graph, AUDIT_WORKERS)
    fragmented = build_fragments(graph, assignment, AUDIT_WORKERS, "hash")
    if name == "subiso":
        fragmented = expand_fragments(graph, fragmented, query.radius())
    if delta:
        for fragment in fragmented.fragments:
            _count_view(fragment)
    engine = GrapeEngine(fragmented)
    METER.auditing = not delta
    try:
        result = engine.run(program, query, keep_state=delta)
        METER.auditing = True
        if delta:
            engine.run_incremental(program, query, result.state, ops)
    finally:
        METER.auditing = False
    assert calls or not delta, f"{name}: ΔG reached no IncEval call"
    largest = max(len(f.owned) for f in fragmented.fragments)
    return largest, max(calls, default=0)


@functools.lru_cache(maxsize=None)
def growth(name: str) -> tuple:
    """((fragment, worst reads) per size, read growth, fragment growth)."""
    rows = tuple(worst_inceval_reads(name, scale) for scale in SIZES)
    reads = rows[-1][1] / max(1, rows[0][1])
    return rows, reads, rows[-1][0] / rows[0][0]


@pytest.mark.parametrize("name", sorted(BOUNDED_AUDIT))
def test_boundedness_audit(name):
    rows, reads, fragment = growth(name)
    assert fragment >= 8, rows  # the fragments really grow
    unbounded = reads > GROWTH_LIMIT
    assert unbounded == (name in EXPECTED_UNBOUNDED), (name, rows, reads)


# ----------------------------------------------------------------------
# GRP301–306: determinism and isolation
# ----------------------------------------------------------------------
def fingerprint(result) -> str:
    """One run's answer (by value), RoundInfo trail, dataflow and repair
    stats, hashed."""
    observed = (by_value(result.answer), *observe(result)[1:])
    return hashlib.sha256(repr(observed).encode()).hexdigest()


def _case(name: str):
    """(graph, program, query, ΔG batch or None) for one program."""
    if name in DELTA_PROGRAMS:
        query = build_query(name, **DELTA_PROGRAMS[name][0])
        return (graph_from_spec(GRAPH_SPEC), get_program(name), query,
                delta_batches(name, "hash")[0])
    if name in COLD_PROGRAMS:
        graph, kwargs, query = cold_case(name)
        return graph, get_program(name, **kwargs), query, None
    graph = random_weighted_digraph(60, 240, seed=3)
    return graph, WidestPathProgram(), FROM_0, None


AUDITED_PROGRAMS = (*DELTA_PROGRAMS, *COLD_PROGRAMS, "widest-path")


@functools.lru_cache(maxsize=None)
def session_fingerprints(name: str) -> tuple[str, str, str | None]:
    """Two cold runs over one fragmentation, then the ΔG repair (if any)."""
    graph, program, query, batch = _case(name)
    assignment = get_partitioner("hash")(graph, NUM_WORKERS)
    fragmented = build_fragments(graph, assignment, NUM_WORKERS, "hash")
    if name == "subiso":
        fragmented = expand_fragments(graph, fragmented, query.radius())
    engine = GrapeEngine(fragmented)
    first = engine.run(program, query, keep_state=batch is not None)
    second = engine.run(program, query)
    repaired = None
    if batch is not None:
        repaired = fingerprint(
            engine.run_incremental(program, query, first.state, batch)
        )
    return fingerprint(first), fingerprint(second), repaired


def all_fingerprints() -> dict:
    out = {}
    for name in AUDITED_PROGRAMS:
        first, _, repaired = session_fingerprints(name)
        out[name] = [first, repaired]
    out["bite-grp306"] = _fixture_fingerprint(
        biting.SetOrderTokenProgram(), "simulated"
    )
    return out


def _fixture_fingerprint(program, backend, graph=None, query=None) -> str:
    session = Session(
        graph or biting.named_ring(), num_workers=2, partition="range",
        backend=backend,
    )
    try:
        return fingerprint(session.run(
            program, query or biting.SettledQuery(source="v0")
        ))
    finally:
        session.close()


@functools.lru_cache(maxsize=None)
def _other_seed_run() -> subprocess.Popen:
    """One fresh process printing :func:`all_fingerprints` under a hash
    seed that differs from this process's."""
    ours = os.environ.get("PYTHONHASHSEED", "")
    seed = str(int(ours) + 1) if ours.isdigit() else "0"
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    )
    return subprocess.Popen(
        [sys.executable, "-m", "tests.core.test_program_audits"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )


@pytest.fixture(scope="module", autouse=True)
def _start_other_seed_run():
    """Start the fresh process first: it runs beside this module's
    in-process audits instead of after them."""
    run = _other_seed_run()
    yield
    if run.poll() is None:
        run.kill()
        run.communicate()


@functools.lru_cache(maxsize=None)
def other_seed_fingerprints() -> dict:
    run = _other_seed_run()
    out, err = run.communicate()
    assert run.returncode == 0, err
    return json.loads(out)


@pytest.mark.parametrize("name", AUDITED_PROGRAMS)
def test_every_program_repeats_in_the_same_session(name):
    first, second, _ = session_fingerprints(name)
    assert first == second


@pytest.mark.parametrize("name", AUDITED_PROGRAMS)
def test_every_program_repeats_under_another_hash_seed(name):
    first, _, repaired = session_fingerprints(name)
    assert other_seed_fingerprints()[name] == [first, repaired]


def test_set_order_writes_differ_under_another_hash_seed():
    # GRP306: a rerun in this process repeats the set's order; another
    # hash seed does not
    program = biting.SetOrderTokenProgram()
    here = _fixture_fingerprint(program, "simulated")
    assert _fixture_fingerprint(program, "simulated") == here
    assert other_seed_fingerprints()["bite-grp306"] != here


@pytest.mark.parametrize("program", [
    biting.ConsumingProgram, biting.JitterProgram, biting.ClockTieBreakProgram,
    biting.QueryBoardProgram,
], ids=lambda p: p.name)
def test_a_same_session_rerun_refuses(program):
    # GRP302-305: the second run of the same query differs
    graph, query = biting.relay_graph(), biting.SettledQuery(source=0)
    session = Session(graph, num_workers=2, partition="range")
    first = fingerprint(session.run(program(), query))
    assert fingerprint(session.run(program(), query)) != first


@pytest.mark.parametrize("program", [
    biting.SharedBoardProgram, biting.QueryBoardProgram,
], ids=lambda p: p.name)
def test_the_process_backend_identity_refuses(program):
    # GRP301/302: in-process workers share a module global or the query
    # object, process workers each hold their own
    got = {}
    for backend in BOTH:
        biting.BOARD.clear()
        got[backend] = _fixture_fingerprint(
            program(), backend, biting.relay_graph(),
            biting.SettledQuery(source=0),
        )
    biting.BOARD.clear()
    assert got["simulated"] != got["process"]


def test_a_shared_board_answers_a_later_graph_wrongly():
    # GRP301 with no check: distances from the first graph leak into
    # the second, whose 1 -> 3 shortcut is gone
    biting.BOARD.clear()
    query = biting.SettledQuery(source=0)
    _fixture_fingerprint(
        biting.SharedBoardProgram(), "simulated", biting.relay_graph(), query
    )
    graph = biting.relay_graph()
    graph.remove_edge(1, 3)
    answer = Session(graph, num_workers=2, partition="range").run(
        biting.SharedBoardProgram(), biting.SettledQuery(source=0)
    ).answer
    biting.BOARD.clear()
    assert answer[3] == 2.0  # the true distance is 7.0


if __name__ == "__main__":
    print(json.dumps(all_fingerprints()))
