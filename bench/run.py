"""maxlin benchmark: time to a checked verdict on one workload.

    python3 bench/run.py --workload groebner --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from src/.
The runner builds the workload's inputs and answer key from --seed, writes
them under .bench_run/, starts fresh interpreters for the set-up probes and
for the measuring worker, checks every verdict, and prints one JSON object as
its last line: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. Lines before it describe the inputs and the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import MIN_PASSES  # noqa: E402

SETUP_PROBES = 5  # fresh interpreters that only set up, before and again after the worker
TIME_LIMIT = 170.0  # every run must end within 180 s
# Set-up times are read in units of worker.import_reference and reported in
# seconds of a host on which that reference takes this long, about its time
# on an idle 2 GHz core.
IMPORT_REFERENCE_NOMINAL_S = 0.005


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_percentile(samples: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    return max(50, math.floor(100 * (1 - 10 / samples)))


def in_references(record: dict) -> list[float]:
    """Each request's time in units of the reference loop, taking the mean
    of the loop's times just before and just after the request."""
    refs = record["references"]
    return [t / ((a + b) / 2) for t, a, b in zip(record["latencies"], refs, refs[1:])]


def pass_time(rows: list[list[float]]) -> float:
    """One pass over the request list, each request at its median over the
    given passes (one row of request times per pass); checking the outputs
    is not included."""
    return sum(statistics.median(column) for column in zip(*rows))


def declared(section: str) -> dict[str, str]:
    """Name -> unit of each metric, or name -> why of each workload, as
    BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    field = "why" if section == "workloads" else "unit"
    return {entry["name"]: entry[field] for entry in spec[section]}


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )


def run_worker(plan_dir: Path, args: list[str], timeout: float) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # A fixed hash seed keeps set and dict iteration order, and with it the
    # work done, the same in every interpreter.
    env["PYTHONHASHSEED"] = "0"
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_dir), *args],
        env=env,
        check=True,
        timeout=timeout,
        stdout=subprocess.DEVNULL,
    )


def probe_setup(plan_dir: Path) -> list[dict]:
    """Set-up and import-reference times of SETUP_PROBES fresh interpreters."""
    setups = []
    for _ in range(SETUP_PROBES):
        run_worker(plan_dir, ["--setup-only"], timeout=60)
        setups.append(json.loads((plan_dir / "setup.json").read_text(encoding="utf-8")))
    return setups


def main() -> int:
    parser = argparse.ArgumentParser(description="maxlin benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    if not (ROOT / "src" / "maxlin" / "cli.py").is_file():
        print(f"error: no maxlin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    plan = workloads.build(args.workload, args.seed)
    plan_dir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(plan_dir, ignore_errors=True)
    plan_dir.mkdir(parents=True)
    for name, text in plan["files"].items():
        (plan_dir / name).write_text(text, encoding="utf-8")
    (plan_dir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")

    setups = probe_setup(plan_dir)
    remaining = TIME_LIMIT - (time.monotonic() - started)
    run_worker(
        plan_dir,
        ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        timeout=remaining - 30,
    )
    result = json.loads((plan_dir / "result.json").read_text(encoding="utf-8"))
    setups += probe_setup(plan_dir)
    setup_s = statistics.median(s["setup_s"] / s["reference_s"] for s in setups)
    setup_s *= IMPORT_REFERENCE_NOMINAL_S

    requests = len(plan["requests"])
    untraced = [p for p in result["passes"] if not p["traced"]]
    latencies = [t for p in untraced for t in p["latencies"]]
    scaled = [t for p in untraced for t in in_references(p)]
    reference_s = statistics.median(r for p in untraced for r in p["references"])
    tail = tail_percentile(requests * MIN_PASSES)
    attempted = requests * len(result["passes"]) + len(result["controls"])
    failed = result["failures_total"]

    print(f"workload {args.workload} seed {args.seed}: {declared('workloads')[args.workload]}")
    for window in plan["windows"]:
        print(f"  size window: {window}")
    print(f"  inputs sha256 {plan['digest']} ({len(plan['files'])} files, {requests} requests)")
    print(
        f"  {len(result['passes'])} passes ({len(untraced)} untraced), "
        f"{len(latencies)} latency samples, tail = p{tail}"
    )
    walls = " ".join(f"{p['wall_s']:.2f}" for p in result["passes"])
    print(f"  pass times {walls} s, reference loop {1000 * reference_s:.2f} ms (median)")
    print(
        f"  in seconds: wall {pass_time([p['latencies'] for p in untraced]):.3f}, "
        f"latency p50 {percentile(latencies, 50):.4f}, p{tail} {percentile(latencies, tail):.4f}, "
        f"setup {statistics.median(s['setup_s'] for s in setups):.4f}, "
        f"import reference {1000 * statistics.median(s['reference_s'] for s in setups):.2f} ms"
    )
    for control in result["controls"]:
        verdict = "as expected" if control["failure"] is None else "WRONG"
        print(f"  {control['id']}: {verdict} in {control['latency_s']:.3f} s")
    print(f"  error_share {failed / attempted:.4f} ({failed} of {attempted} requests)")
    for line in result["failures"]:
        print(f"  FAILED {line}")
    lines = src_lines()
    print(f"  src lines {lines}")

    if args.trace:
        first = next(p for p in result["passes"] if p["traced"])
        for request, counts in first["request_counts"].items():
            if "algebra.spairs" in counts:
                print(
                    f"  {request}: {counts['algebra.spairs']} S-pairs, "
                    f"{counts['algebra.spairs_coprime']} with coprime leading monomials"
                )
        traced = [p["layers"] for p in result["passes"] if p["traced"]]
        metrics = {
            name: statistics.median(p[name] for p in traced) for name in sorted(traced[0])
        }
        metrics["import_s"] = IMPORT_REFERENCE_NOMINAL_S * statistics.median(
            s["import_s"] / s["reference_s"] for s in setups
        )
        metrics["trace.overhead_ref"] = pass_time(
            [in_references(p) for p in result["passes"] if p["traced"]]
        ) - pass_time([in_references(p) for p in untraced])
        metrics["src.lines"] = lines
        units = declared("per_layer")
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_ref": pass_time([in_references(p) for p in untraced]),
            "latency_p50_ref": percentile(scaled, 50),
            "latency_tail_ref": percentile(scaled, tail),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = declared("end_to_end")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
