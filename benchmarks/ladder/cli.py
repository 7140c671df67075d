"""Command line of the ladder (``python -m benchmarks.ladder``).

The runner spawns one interpreter per workload with ``PYTHONHASHSEED=0``
(set iteration of string-keyed state must not differ between runs),
prints every metric by name with its unit, and ends with the one-line
JSON result ``BENCHMARK.json`` describes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from benchmarks.ladder import ROOT, SRC

CONTRACT = ROOT / "BENCHMARK.json"
#: One run may take at most this long before the runner gives up on it.
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"nothing to measure: {SRC}/repro is not there")
    contract = json.loads(CONTRACT.read_text())
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ladder")
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=contract["run_seconds"],
        help="budget of the timed replays of one run",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny graphs")
    parser.add_argument("--out", help="also write the run records here")
    parser.add_argument(
        "--selfcheck", type=int, nargs="?", const=3, metavar="N",
        help="two interleaved sets of N suite runs; compare their medians",
    )
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return _child(args)
    if args.compare:
        sets = [json.loads(Path(path).read_text()) for path in args.compare]
        return _report_gaps(contract, *sets)
    if args.selfcheck is not None:
        return _selfcheck(contract, names, args)
    records = [
        _run(name, args) for name in ([args.workload] if args.workload else names)
    ]
    for record in records:
        _print_record(record)
    if args.out:
        with open(args.out, "w") as out:
            json.dump(records, out, indent=1)
    print(json.dumps(_contract_line(records, single=bool(args.workload))))
    return 1 if any(sum(r["ops_failed"].values()) for r in records) else 0


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def _child(args) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        raise SystemExit("the workload interpreter needs PYTHONHASHSEED=0")
    from benchmarks.ladder.run import run_workload

    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    print(json.dumps(record))
    return 0


def _spawn(name: str, args, seed: int | None = None) -> dict:
    """Run one workload in an interpreter of its own; what it printed."""
    command = [
        sys.executable, "-m", "benchmarks.ladder", "--child",
        "--workload", name,
        "--seed", str(args.seed if seed is None else seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(
        command,
        cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"workload {name} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def _run(name: str, args, seed: int | None = None) -> dict:
    """One workload's record, stamped with the commit it measured."""
    record = _spawn(name, args, seed)
    record["stamp"]["git_sha"] = _git_sha()
    return record


def _git_sha() -> str:
    # asked here, not in the workload interpreter, whose reaped children
    # are its worker processes and nothing else
    try:
        found = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            # never look for a repository above the checkout
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return found.stdout.strip() or "unknown"


def _contract_line(records, single: bool) -> dict:
    metrics = {}
    for record in records:
        prefix = "" if single else record["workload"] + "/"
        for name, metric in record["metrics"].items():
            metrics[prefix + name] = metric
    failed = sum(sum(r["ops_failed"].values()) for r in records)
    return {
        "correct": failed == 0,
        "attempted": sum(sum(r["ops_attempted"].values()) for r in records),
        "failed": failed,
        "metrics": metrics,
    }


def _print_record(record: dict) -> None:
    info = record["stamp"]
    print(
        f"== {record['workload']}  seed={info['seed']} "
        f"schedule={record['schedule_digest']} "
        f"replays={info['replays']} settled={info['settled_ops_pct']:.0f}% "
        f"waited={info['waited_s']:.1f}s "
        f"git={info['git_sha']} python={info['python']} "
        f"cpus={info['cpus_available']} "
        f"load={info['loadavg_start']:.2f}->{info['loadavg_end']:.2f} "
        f"ref_kernel={info['ref_kernel_ms']:.1f}ms "
        f"replay_spread={record['replay_spread_pct']:.1f}%"
    )
    samples = record.get("samples", {})
    for name, metric in record["metrics"].items():
        count = f"  n={samples[name]}" if name in samples else ""
        print(f"  {name:<40} {metric['value']:>14.4f} {metric['unit']}{count}")
    for layer, ms in record.get("layer_self_ms", {}).items():
        print(f"  self time  {layer:<29} {ms:>14.4f} ms")
    for phase, attempted in sorted(record["ops_attempted"].items()):
        failed = record["ops_failed"].get(phase, 0)
        print(f"  ops_attempted[{phase}]={attempted} ops_failed[{phase}]={failed}")
    for error in record["errors"]:
        print(f"  FAILED {error}")


# ----------------------------------------------------------------------
# Two sets of runs, compared
# ----------------------------------------------------------------------
def _selfcheck(contract, names, args) -> int:
    """Interleave two sets of suite runs of this code; report the gaps."""
    sets: tuple[list, list] = ([], [])
    for i in range(args.selfcheck):
        for records in sets:
            for name in names:
                records.append(_run(name, args, seed=args.seed + i))
    if args.out:
        for tag, records in zip("AB", sets):
            with open(f"{args.out}.{tag}.json", "w") as out:
                json.dump(records, out, indent=1)
    return _report_gaps(contract, *sets)


def _medians(records) -> dict:
    values: dict = {}
    for record in records:
        for name, metric in record["metrics"].items():
            values.setdefault((record["workload"], name), []).append(
                metric["value"]
            )
    return {key: statistics.median(vals) for key, vals in values.items()}


def _report_gaps(contract, first, second) -> int:
    """Print median A, median B, how far apart they are, and the bound."""
    bounds = {m["name"]: m for m in contract["end_to_end"]}
    a, b = _medians(first), _medians(second)
    over = 0
    print(f"{'workload':<20} {'metric':<14} {'A':>12} {'B':>12} {'gap':>8} {'bound':>6}")
    for key in sorted(a.keys() & b.keys()):
        workload, name = key
        if name not in bounds or not a[key]:
            continue
        gap = abs(b[key] - a[key]) / a[key]
        flag = ""
        if gap > bounds[name]["bound"]:
            over += 1
            flag = "  OVER"
        print(
            f"{workload:<20} {name:<14} {a[key]:>12.4f} {b[key]:>12.4f} "
            f"{gap:>7.2%} {bounds[name]['bound']:>6.0%}{flag}"
        )
    print(f"{over} gap(s) over their bound")
    return 1 if over else 0
