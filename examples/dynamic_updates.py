"""Dynamic graphs: repair a fixed point across a mixed ΔG (insert+delete).

GRAPE's IncEval is an incremental algorithm; this extension applies it
to changes of the *graph itself*. We answer an SSSP query, open a few
new roads (monotone-safe insertions repaired by plain IncEval), then
*close* one (a deletion — non-monotone, repaired by invalidating the
tight-edge region downstream of the closure and recomputing only that
scope). Every repair is identical to a full recomputation.

Run:  python examples/dynamic_updates.py
"""

from repro.algorithms import SSSPProgram, SSSPQuery
from repro.algorithms.sequential import single_source
from repro.core.engine import GrapeEngine
from repro.core.delta import EdgeInsert
from repro.graph.fragment import build_fragments
from repro.graph.generators import road_network
from repro.partition.registry import get_partitioner


def main() -> None:
    graph = road_network(30, 30, seed=17, removal_prob=0.0)
    corner = 30 * 30 - 1
    assignment = get_partitioner("bfs")(graph, 6)
    fragd = build_fragments(graph, assignment, 6, "bfs")
    engine = GrapeEngine(fragd)
    program = SSSPProgram()

    first = engine.run(program, SSSPQuery(source=0), keep_state=True)
    initial_work = first.metrics.work()
    print(f"initial run : dist(0 -> {corner}) = {first.answer[corner]:.2f}, "
          f"{initial_work} vertices settled, "
          f"{first.num_supersteps} supersteps")

    # --- Update 1: a local side street. ΔO is tiny, so the bounded
    # IncEval repairs the answer with a handful of settled vertices.
    side_street = EdgeInsert(12, 43, first.answer[43] - first.answer[12] - 0.2)
    graph.add_edge(side_street.src, side_street.dst, side_street.weight)
    second = engine.run_incremental(
        program, SSSPQuery(source=0), first.state, [side_street]
    )
    small_work = second.metrics.work()
    print(f"\nside street : repaired with {small_work} settled vertices "
          f"({small_work / initial_work:.1%} of the initial fixpoint)")

    # --- Update 2: a cross-town highway. Nearly every distance changes,
    # so |ΔO| ~ |V| and the repair legitimately touches everything —
    # bounded means 'proportional to the change', not 'always cheap'.
    highway = [
        EdgeInsert(0, 435, 2.0),
        EdgeInsert(435, corner, 3.0),
    ]
    for ins in highway:
        graph.add_edge(ins.src, ins.dst, ins.weight)
    third = engine.run_incremental(
        program, SSSPQuery(source=0), second.state, highway
    )
    big_work = third.metrics.work()
    print(f"highway     : dist(0 -> {corner}) drops "
          f"{second.answer[corner]:.2f} -> {third.answer[corner]:.2f}; "
          f"{big_work} settled ({big_work / initial_work:.1%} — "
          "the whole map re-routes)")

    # --- Update 3: close a street that carries shortest paths (a\n    # deletion). A removed
    # edge can only *lengthen* paths — non-monotone under MIN — so the
    # engine invalidates the region whose distances flowed through the
    # closed road (tight edges only), resets it, and re-derives just
    # that scope before resuming IncEval. Only the few vertices whose
    # shortest path ran over the closed road are touched; everything
    # else keeps its fixed point.
    closure = [("delete", 8, 9)]
    graph.remove_edge(8, 9)
    fourth = engine.run_incremental(
        program, SSSPQuery(source=0), third.state, closure
    )
    repair_work = fourth.metrics.work()
    stats = fourth.repair
    print(f"road closure: dist(0 -> 9) rises "
          f"{third.answer[9]:.2f} -> {fourth.answer[9]:.2f}; "
          f"mode={stats.mode}, {stats.invalidated} invalidated, "
          f"{repair_work} settled ({repair_work / initial_work:.1%})")

    oracle = single_source(graph, 0)
    mismatches = sum(
        1
        for v in graph.vertices()
        if abs(fourth.answer.get(v, float("inf")) - oracle[v]) > 1e-9
        and fourth.answer.get(v, float("inf")) != oracle[v]
    )
    print(f"\nvs full recomputation after all updates: "
          f"{mismatches} mismatches")


if __name__ == "__main__":
    main()
