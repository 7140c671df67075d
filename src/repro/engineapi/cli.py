"""Command-line front end: generate graphs, run queries, compare engines.

Examples::

    grape run --graph road:40x40 --query sssp --source 0 --workers 8
    grape run --graph social:2000 --query cc --partition multilevel
    grape partitions --graph power:5000 --workers 16
    grape serve --trace benchmarks/traces/service_workload.json
    grape chaos --graph road:20x20 --query sssp --source 0
    grape lint examples/ src/repro/algorithms/
    grape classes

``grape lint`` exit codes: 0 = clean, 1 = unsuppressed findings,
2 = usage error (bad path, unreadable source).
"""

from __future__ import annotations

import argparse
import sys

from repro.core.engine import MODES
from repro.engineapi.query import build_query, query_classes
from repro.engineapi.registry import available_programs, get_program
from repro.engineapi.report import format_report
from repro.engineapi.session import Session
from repro.errors import GrapeError
from repro.graph.digraph import Graph
from repro.graph.generators import graph_from_spec
from repro.partition.base import evaluate_partition
from repro.partition.registry import available_strategies, get_partitioner
from repro.graph.store import STORES
from repro.runtime.backends import BACKENDS


def _make_graph(spec: str, store: str | None = None) -> Graph:
    """Parse ``kind:params`` graph specs used by the CLI."""
    return graph_from_spec(spec, store=store)


def _query_from_args(
    args: argparse.Namespace, graph: Graph
) -> tuple[object, dict[str, object]]:
    """The query ``--query/--source/--keywords`` name, and the keyword
    arguments its program class needs for ``graph``."""
    kwargs: dict[str, object] = {}
    if args.source is not None:
        kwargs["source"] = args.source
    if args.keywords:
        kwargs["keywords"] = args.keywords.split(",")
    program_kwargs: dict[str, object] = {}
    if args.query == "pagerank":
        program_kwargs["total_vertices"] = graph.num_vertices
    return build_query(args.query, **kwargs), program_kwargs


def _export_trace(tracer, path: str) -> None:
    """Write ``--trace-out``'s Chrome trace, if a tracer was recording."""
    if tracer is None:
        return
    from repro.obs import write_chrome_trace

    events = write_chrome_trace(tracer, path)
    print(
        f"trace: {events} events -> {path} "
        "(open in chrome://tracing or ui.perfetto.dev)",
        file=sys.stderr,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    import json

    graph = _make_graph(args.graph, args.store)
    tracer = None
    if args.trace_out:
        from repro.obs import Tracer

        tracer = Tracer()
    session = Session(
        graph,
        num_workers=args.workers,
        partition=args.partition,
        check_monotonic=args.check_monotonic,
        tracer=tracer,
        backend=args.backend,
        mode=args.mode,
    )
    query, program_kwargs = _query_from_args(args, graph)
    program = get_program(args.query, **program_kwargs)
    repair = None
    try:
        if args.updates:
            from repro.core.delta import GraphDelta

            try:
                with open(args.updates, encoding="utf-8") as fh:
                    delta = GraphDelta.from_dict(json.load(fh))
            except (OSError, json.JSONDecodeError) as exc:
                raise GrapeError(
                    f"cannot read updates file {args.updates}: {exc}"
                )
            cold = session.run(program, query, keep_state=True)
            result = session.engine().run_incremental(
                program, query, cold.state, delta
            )
            repair = result.repair
        else:
            result = session.run(program, query)
    finally:
        session.close()
    if args.json:
        payload = {
            "query": args.query,
            "graph": args.graph,
            "metrics": result.metrics.as_dict(),
            "rounds": [
                {
                    "round_index": r.round_index,
                    "params_shipped": r.params_shipped,
                    "params_applied": r.params_applied,
                    "active_workers": r.active_workers,
                }
                for r in result.rounds
            ],
        }
        if repair is not None:
            payload["repair"] = repair.as_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_report(result, title=f"{args.query} on {args.graph}"))
        if repair is not None:
            print(
                f"delta repair: mode={repair.mode} "
                f"safe_ops={repair.safe_ops} unsafe_ops={repair.unsafe_ops} "
                f"invalidated={repair.invalidated} resets={repair.resets} "
                f"rounds={repair.invalidation_rounds}"
            )
    _export_trace(tracer, args.trace_out)
    return 0


def _cmd_partitions(args: argparse.Namespace) -> int:
    graph = _make_graph(args.graph)
    print(
        f"partition quality on {args.graph} "
        f"(|V|={graph.num_vertices}, |E|={graph.num_edges}, "
        f"{args.workers} parts)"
    )
    for name in available_strategies():
        partitioner = get_partitioner(name)
        assignment = partitioner(graph, args.workers)
        report = evaluate_partition(
            graph, assignment, args.workers, strategy=name
        )
        print(f"  {report}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    """Table-1-style comparison of all engines on one traversal query."""
    from repro.algorithms.sssp import SSSPProgram, SSSPQuery
    from repro.baselines.blogel import BlogelEngine
    from repro.baselines.blogel_programs import BlogelSSSP
    from repro.baselines.gas import GASEngine
    from repro.baselines.gas_programs import GASSSSP
    from repro.baselines.pregel import PregelEngine
    from repro.baselines.pregel_programs import PregelSSSP
    from repro.core.engine import GrapeEngine
    from repro.engineapi.report import comparison_table
    from repro.graph.fragment import build_fragments

    graph = _make_graph(args.graph)
    source = args.source if args.source is not None else 0
    fragments = {
        name: build_fragments(
            graph, get_partitioner(name)(graph, args.workers),
            args.workers, name,
        )
        for name in ("hash", "bfs", "multilevel")
    }
    results = {
        "Giraph (vertex-centric)": PregelEngine(fragments["hash"]).run(
            PregelSSSP(source=source)
        ).metrics,
        "GraphLab (GAS)": GASEngine(graph, fragments["hash"]).run(
            GASSSSP(source=source)
        ).metrics,
        "Blogel (block-centric)": BlogelEngine(fragments["bfs"]).run(
            BlogelSSSP(source=source)
        ).metrics,
        "GRAPE (PIE)": GrapeEngine(fragments["multilevel"]).run(
            SSSPProgram(), SSSPQuery(source=source)
        ).metrics,
    }
    print(
        f"SSSP on {args.graph} with {args.workers} workers "
        "(each system as deployed)\n"
    )
    print(comparison_table(results))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Statically verify PIE programs (grape-lint)."""
    from repro.analysis import (
        analyze_paths,
        findings_to_json,
        format_findings,
        rule_table,
        summary_line,
    )
    from repro.analysis.runner import active

    if args.rules:
        print(rule_table())
        return 0
    if not args.paths:
        print("error: lint needs at least one file or directory",
              file=sys.stderr)
        return 2
    findings = analyze_paths(args.paths)
    if args.json:
        print(findings_to_json(findings))
    else:
        report = format_findings(
            findings, show_suppressed=args.show_suppressed
        )
        if report:
            print(report)
            print()
        print(summary_line(findings))
    return 1 if active(findings, min_severity=args.min_severity) else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run the fault-injection matrix and print a resilience report."""
    import json

    from repro.engineapi.chaos import run_chaos, standard_plans
    from repro.runtime.faults import FaultPlan

    graph = _make_graph(args.graph)
    query, program_kwargs = _query_from_args(args, graph)

    if args.plan:
        try:
            with open(args.plan, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise GrapeError(f"cannot read fault plan {args.plan}: {exc}")
        plans = {"custom": FaultPlan.from_dict(data)}
    else:
        plans = standard_plans(args.seed)
        if args.classes:
            wanted = args.classes.split(",")
            unknown = [c for c in wanted if c not in plans]
            if unknown:
                raise GrapeError(
                    f"unknown fault classes {unknown}; "
                    f"available: {sorted(plans)}"
                )
            plans = {name: plans[name] for name in wanted}

    report = run_chaos(
        graph,
        args.query,
        query,
        workers=args.workers,
        partition=args.partition,
        seed=args.seed,
        plans=plans,
        program_kwargs=program_kwargs,
    )
    if args.json:
        print(report.to_json())
    else:
        print(report.format())
    return 0 if report.survived_all else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Replay a JSON workload trace against a GrapeService or a fleet.

    With ``--replicas N > 1`` the trace replays through a
    :class:`~repro.service.fleet.FleetRouter`: ``--chaos-seed`` injects
    the seed-deterministic replica fault mix, ``--deadline`` bounds each
    query in simulated seconds, and the exit code is 0 only if every
    admitted query was answered (fresh or tagged-stale) and every
    rejoin audit passed.
    """
    from repro.service.trace import load_trace, replay_trace

    trace = load_trace(args.trace)
    verify = False if args.no_verify else None
    tracer = None
    if args.trace_out:
        from repro.obs import Tracer

        tracer = Tracer()
    if args.replicas > 1:
        from repro.service.fleet import default_chaos_plan, replay_fleet_trace

        if args.store is not None:
            raise GrapeError(
                "--store applies to single-service replay; the fleet "
                "manages its replicas' storage itself"
            )
        if args.backend != "simulated":
            raise GrapeError(
                "--replicas > 1 serves through the simulated fleet; "
                "--backend process is single-service only"
            )
        faults = None
        if args.chaos_seed is not None:
            faults = default_chaos_plan(args.chaos_seed, args.chaos_rate)
        _, report = replay_fleet_trace(
            trace,
            replicas=args.replicas,
            graph_spec=args.graph,
            faults=faults,
            deadline=args.deadline,
            max_queries=args.max_queries,
            verify=verify,
            tracer=tracer,
        )
    else:
        _, report = replay_trace(
            trace,
            graph_spec=args.graph,
            max_queries=args.max_queries,
            verify=verify,
            tracer=tracer,
            backend=args.backend,
            store=args.store,
        )
    if args.json:
        print(report.to_json())
    else:
        print(report.format())
    _export_trace(tracer, args.trace_out)
    return 0 if report.survived else 1


def _cmd_report(args: argparse.Namespace) -> int:
    """Render the straggler/skew report of an exported Chrome trace."""
    import json

    from repro.obs import report_from_chrome

    try:
        with open(args.trace, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise GrapeError(f"cannot read trace file {args.trace}: {exc}")
    if not isinstance(data, dict) or "traceEvents" not in data:
        raise GrapeError(
            f"{args.trace} is not a Chrome trace_event export "
            "(missing 'traceEvents'); produce one with "
            "grape run/serve --trace-out"
        )
    print(report_from_chrome(data), end="")
    return 0


def _cmd_classes(args: argparse.Namespace) -> int:
    print("registered PIE programs:", ", ".join(available_programs()))
    print("query classes:", ", ".join(query_classes()))
    print("partition strategies:", ", ".join(available_strategies()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI parser."""
    parser = argparse.ArgumentParser(
        prog="grape",
        description="GRAPE reproduction: parallel graph query engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a query on a generated graph")
    run.add_argument("--graph", required=True, help="road:RxC|power:N|social:N")
    run.add_argument("--query", required=True, choices=query_classes())
    run.add_argument("--workers", type=int, default=4)
    run.add_argument("--partition", default="hash")
    run.add_argument("--source", type=int, default=None)
    run.add_argument("--keywords", default=None)
    run.add_argument("--check-monotonic", action="store_true")
    run.add_argument(
        "--backend", choices=list(BACKENDS), default="simulated",
        help="execution backend: simulated (deterministic in-process "
             "cluster) or process (pool of OS worker processes; "
             "byte-identical answers)",
    )
    run.add_argument(
        "--store", choices=list(STORES), default=None,
        help="fragment storage backend: dict (adjacency dicts, the default) or csr (compact array rows with a delta-aware overlay; byte-identical answers)",
    )
    run.add_argument(
        "--mode", choices=list(MODES), default="strict",
        help="superstep engine: strict (BSP lockstep, the default) or "
             "relaxed (the same peer-to-peer rounds timed on per-worker "
             "clocks instead of a barrier, for aggregator-monotone "
             "programs; byte-identical answers, lower virtual makespan)",
    )
    run.add_argument(
        "--updates", default=None, metavar="FILE.json",
        help="after a cold run, apply this ΔG batch "
             '({"insert": [[src,dst,w?]...], "delete": [[src,dst]...], '
             '"reweight": [[src,dst,w]...]}) and repair incrementally',
    )
    run.add_argument(
        "--json", action="store_true",
        help="emit run metrics as JSON (RunMetrics.as_dict schema)",
    )
    run.add_argument(
        "--trace-out", default=None, metavar="FILE.json",
        help="export a Chrome trace_event span trace of the run "
             "(open in chrome://tracing or ui.perfetto.dev)",
    )
    run.set_defaults(func=_cmd_run)

    serve = sub.add_parser(
        "serve", help="replay a JSON workload trace against a query service"
    )
    serve.add_argument(
        "--trace", required=True, metavar="FILE.json",
        help="workload trace (queries + updates); see repro.service.trace",
    )
    serve.add_argument(
        "--graph", default=None,
        help="override the trace's graph spec (road:RxC|power:N|social:N)",
    )
    serve.add_argument(
        "--max-queries", type=int, default=None,
        help="stop after this many trace queries (smoke-test knob)",
    )
    serve.add_argument(
        "--no-verify", action="store_true",
        help="skip auditing standing answers against full recomputation",
    )
    serve.add_argument(
        "--replicas", type=int, default=1,
        help="serve through a fleet of N service replicas (N > 1) with "
             "failover, hedging and stale-tagged degraded answers",
    )
    serve.add_argument(
        "--chaos-seed", type=int, default=None, metavar="S",
        help="inject the seed-deterministic replica fault mix "
             "(crashes, stragglers, update lag); fleet mode only",
    )
    serve.add_argument(
        "--chaos-rate", type=float, default=0.1,
        help="overall fault rate for --chaos-seed (default 0.1)",
    )
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="D",
        help="per-query deadline in simulated seconds; past it the fleet "
             "degrades to stale-tagged answers instead of dropping",
    )
    serve.add_argument(
        "--backend", choices=list(BACKENDS), default="simulated",
        help="execution backend for dispatched engine runs "
             "(single-service mode only; the fleet stays simulated)",
    )
    serve.add_argument(
        "--store", choices=list(STORES), default=None,
        help="fragment storage backend: dict (adjacency dicts, the default) or csr (compact array rows with a delta-aware overlay; byte-identical answers)",
    )
    serve.add_argument("--json", action="store_true",
                       help="machine-readable service report")
    serve.add_argument(
        "--trace-out", default=None, metavar="FILE.json",
        help="export a Chrome trace_event span trace of the replay "
             "(service lanes + every engine run it dispatched)",
    )
    serve.set_defaults(func=_cmd_serve)

    report = sub.add_parser(
        "report",
        help="straggler/skew report from an exported --trace-out file",
    )
    report.add_argument(
        "trace", metavar="TRACE.json",
        help="Chrome trace_event export produced by grape run/serve",
    )
    report.set_defaults(func=_cmd_report)

    parts = sub.add_parser(
        "partitions", help="compare partition strategies on a graph"
    )
    parts.add_argument("--graph", required=True)
    parts.add_argument("--workers", type=int, default=8)
    parts.set_defaults(func=_cmd_partitions)

    compare = sub.add_parser(
        "compare", help="Table-1-style engine comparison on SSSP"
    )
    compare.add_argument("--graph", required=True)
    compare.add_argument("--workers", type=int, default=8)
    compare.add_argument("--source", type=int, default=None)
    compare.set_defaults(func=_cmd_compare)

    lint = sub.add_parser(
        "lint", help="statically verify PIE programs (grape-lint)"
    )
    lint.add_argument(
        "paths", nargs="*", help="files or directories to lint"
    )
    lint.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    lint.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print pragma-suppressed findings",
    )
    lint.add_argument(
        "--min-severity",
        choices=["info", "warning", "error"],
        default="info",
        help="findings below this severity do not affect the exit code",
    )
    lint.add_argument(
        "--rules", action="store_true", help="print the rule catalog and exit"
    )
    lint.set_defaults(func=_cmd_lint)

    chaos = sub.add_parser(
        "chaos",
        help="run a fault-injection matrix and report resilience",
    )
    chaos.add_argument("--graph", required=True,
                       help="road:RxC|power:N|social:N")
    chaos.add_argument("--query", required=True, choices=query_classes())
    chaos.add_argument("--workers", type=int, default=4)
    chaos.add_argument("--partition", default="hash")
    chaos.add_argument("--source", type=int, default=None)
    chaos.add_argument("--keywords", default=None)
    chaos.add_argument("--seed", type=int, default=7,
                       help="fault-plan RNG seed (runs are reproducible)")
    chaos.add_argument(
        "--classes", default=None,
        help="comma-separated subset of the standard matrix "
             "(crash-fatal,crash-transient,drop,duplicate,corrupt,straggler)",
    )
    chaos.add_argument(
        "--plan", default=None, metavar="FILE.json",
        help="run one custom FaultPlan from a JSON file instead",
    )
    chaos.add_argument("--json", action="store_true",
                       help="machine-readable report")
    chaos.set_defaults(func=_cmd_chaos)

    classes = sub.add_parser("classes", help="list registered components")
    classes.set_defaults(func=_cmd_classes)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GrapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
