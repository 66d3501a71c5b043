"""Paired benchmark runs of a parent commit and this checkout.

Runs ``perfbench/run.py --trace 0`` on a ``git archive`` extract of the
parent commit and on this checkout's working tree, alternating which side
goes first in each pair, and writes per workload and end-to-end metric
the medians and quartiles of both sides and how many pairs the change
won, with a no-regression verdict under the metric's bound (``verdict``),
which it prints once a workload's pairs end.  The run length, the
end-to-end metrics, whether lower or higher is better and each metric's
bound come from ``BENCHMARK.json``.  With ``--traced`` it then makes
one ``--trace 1`` run a side and records its per-layer metrics.  The
extract lives in a temporary directory (``TMPDIR`` picks its place) and
is removed when the runs end.

Run from anywhere in the repository:

    python3 scripts/bench_pairs.py --out BENCH_N.json --workload explore_trial
    python3 scripts/bench_pairs.py --out BENCH_N.json --workload explore_trial \\
        --trial-seed 1 --pairs 6
    python3 scripts/bench_pairs.py --out BENCH_N.json --workload mi_snapshot \\
        --pairs 3 --traced

An existing ``--out`` file keeps its other entries; each run replaces
the entries of the workloads it ran.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(tree: Path, args: list[str], timeout: float, trace: int = 0) -> dict:
    """One benchmark run in ``tree``; its JSON result line."""
    out = subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"),
                          *args, "--trace", str(trace)], cwd=tree, check=True,
                         capture_output=True, text=True, timeout=timeout)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": values}


def verdict(parent: dict, change: dict, sign: int, wins: int, bound: float) -> str:
    """No-regression verdict of one metric from both sides' summaries.

    ``sign`` is 1 when lower is better and -1 when higher is; ``bound`` is
    the share of the parent median by which the metric may worsen.  The
    verdict is ``worse`` when the change median is worse than the parent
    median by more than the bound; ``unresolved`` when the parent's
    quartile spread exceeds the bound and not every change run beats
    every parent run; ``better`` when the change won nine tenths of the
    pairs and its median is better by more than the parent's quartile
    spread; and ``within_bound`` otherwise.
    """
    allowed = bound * abs(parent["median"])
    spread = parent["q3"] - parent["q1"]
    if sign * (change["median"] - parent["median"]) > allowed:
        return "worse"
    if (spread > allowed and max(sign * v for v in change["runs"])
            >= min(sign * v for v in parent["runs"])):
        return "unresolved"
    if (10 * wins >= 9 * len(parent["runs"])
            and sign * (parent["median"] - change["median"]) > spread):
        return "better"
    return "within_bound"


def compare(results: dict, metrics: dict) -> dict:
    """Per metric: both sides' summaries, the pairs the change won and the
    ``verdict`` under the metric's bound."""
    out = {}
    for name, metric in metrics.items():
        sides = {side: [r["metrics"][name]["value"] for r in results[side]]
                 for side in ("parent", "change")}
        sign = 1 if metric["better"] == "lower" else -1
        wins = sum(sign * (p - c) > 0 for p, c in zip(sides["parent"], sides["change"]))
        parent, change = summary(sides["parent"]), summary(sides["change"])
        out[name] = {"better": metric["better"], "bound": metric["bound"],
                     "wins": wins, "pairs": len(sides["parent"]),
                     "parent": parent, "change": change,
                     "verdict": verdict(parent, change, sign, wins, metric["bound"])}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--parent", default="HEAD",
                        help="commit to compare against (default HEAD)")
    parser.add_argument("--workload", action="append", required=True,
                        choices=("mi_snapshot", "sim_cycle", "explore_trial"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trial-seed", type=int, default=None,
                        help="start seed of explore_trial (perfbench default 3)")
    parser.add_argument("--traced", action="store_true",
                        help="also make one --trace 1 run a side")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    parent = git("rev-parse", args.parent)
    change = git("rev-parse", "HEAD")
    if git("status", "--porcelain", "--untracked-files=no"):
        change += " + working tree"
    record = json.loads(args.out.read_text()) if args.out.is_file() else {}
    record["env"] = {"python": platform.python_version(), "numpy": numpy.__version__,
                     "cpus": os.cpu_count()}
    entries = record.setdefault("workloads", {})
    timeout = 20 * seconds + 600
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        tree = Path(tmp) / "parent"
        tree.mkdir()
        archive = subprocess.run(["git", "archive", parent], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        for workload in args.workload:
            run_args = ["--workload", workload, "--seconds", str(seconds)]
            key = workload
            if workload == "explore_trial" and args.trial_seed is not None:
                run_args += ["--trial-seed", str(args.trial_seed)]
                key += f" --trial-seed {args.trial_seed}"
            results = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = [("parent", tree), ("change", ROOT)]
                for side, where in order if i % 2 == 0 else order[::-1]:
                    results[side].append(run_once(where, run_args, timeout))
                last = {side: rs[-1]["metrics"] for side, rs in results.items()}
                shown = "; ".join(f"{name} parent {last['parent'][name]['value']:.4g}"
                                  f" change {last['change'][name]['value']:.4g}"
                                  for name in metrics)
                print(f"# {key} pair {i + 1}/{args.pairs}: {shown}", flush=True)
            entries[key] = {
                "parent": parent, "change": change,
                "args": run_args + ["--trace", "0"],
                "failed": {side: sum(r["failed"] for r in rs)
                           for side, rs in results.items()},
                "attempted": {side: sum(r["attempted"] for r in rs)
                              for side, rs in results.items()},
                "metrics": compare(results, metrics),
            }
            verdicts = "; ".join(f"{name} {m['verdict']}"
                                 for name, m in entries[key]["metrics"].items())
            print(f"# {key} verdicts: {verdicts}", flush=True)
            if args.traced:
                entries[key]["traced"] = {
                    side: {name: m["value"] for name, m in
                           run_once(where, run_args, timeout, trace=1)["metrics"].items()}
                    for side, where in (("parent", tree), ("change", ROOT))}
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
