"""One workload in one fresh interpreter: set up, then send the plan's
requests one at a time (closed loop, one client) for the given seconds.

    python3 bench/worker.py PLAN_DIR --seconds S --trace 0|1 [--setup-only]

Run from PLAN_DIR's parent with maxlin importable (run.py sets PYTHONPATH).
Set-up is the import of maxlin.cli, parsing every input file with the
package's parsers, and one warm-up call of each command the workload uses.
Requests go through maxlin.cli.main(argv) in-process with stdout captured.
The negative controls, which call the algebra layer directly on a
deliberately broken generator set, run once before the passes. A fixed
reference loop is timed before each pass and after each request, so that
request times can be read in units of it. Every output is checked against
the plan's answer key after its timer stops. Results go to
PLAN_DIR/result.json.

With --setup-only the worker sets up, times a fixed import reference, the
unit of set-up times, and writes PLAN_DIR/setup.json.

With --trace 1, untraced and traced passes alternate; the traced ones give
the per-layer figures, and the difference in pass time is the overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
from tracing import Tracer

MIN_PASSES = 3
SETUP_REFERENCES = 7  # timed rounds of the import reference after a set-up
# Pure-Python standard-library modules that neither maxlin nor the benchmark
# imports; import_reference imports them afresh.
IMPORT_REFERENCE = ("calendar", "configparser", "difflib", "shlex", "tomllib")


def setup(plan: dict) -> dict:
    """Set-up seconds, and of them the seconds the import took."""
    start = time.perf_counter()
    import maxlin.cli  # noqa: F401  (the import is what is timed)
    from maxlin.algebra import parse_polynomial
    from maxlin.dag import parse_dag
    from maxlin.model import ParamTable

    imported = time.perf_counter()
    for name, text in plan["files"].items():
        if name.endswith(".dag"):
            parse_dag(text)
        elif name.endswith(".json"):
            ParamTable.from_json_dict(json.loads(text))
        elif name.endswith(".poly"):
            for line in text.splitlines():
                parse_polynomial(line)
    for argv in plan["warmup"]:
        call_cli(argv)
    end = time.perf_counter()
    return {"setup_s": end - start, "import_s": imported - start}


def import_reference() -> float:
    """Seconds to import IMPORT_REFERENCE afresh, dropping the modules (not
    their dependencies) from sys.modules first. Finding, loading and running
    modules is the work the set-up is made of, so set-up times are read in
    units of this; other tenants of a shared host slow both alike."""
    gc.disable()
    start = time.perf_counter()
    for name in IMPORT_REFERENCE:
        for key in [key for key in sys.modules if key.split(".")[0] == name]:
            del sys.modules[key]
        importlib.import_module(name)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def setup_reference() -> float:
    """Median time of the import reference, run after the set-up so that the
    set-up does not find the reference's dependencies already imported. One
    untimed round imports those dependencies first."""
    import_reference()
    return statistics.median(import_reference() for _ in range(SETUP_REFERENCES))


def call_cli(argv: list[str]) -> tuple[object, str]:
    """maxlin.cli.main(argv) with stdout and stderr captured."""
    import maxlin.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = maxlin.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            status = exc.code
    return status, out.getvalue()


def call_control(spec: dict, directory: str | Path = ".") -> tuple[object, str]:
    """A verify call on fig2's generator set with one generator broken: its
    join replaced by the lattice top, or the generator dropped."""
    from maxlin import algebra, dag as dag_layer, poset

    dag = dag_layer.parse_dag(Path(directory, spec["dag"]).read_text(encoding="utf-8"))
    dag = dataclasses.replace(dag, k=spec["k"])
    lattice = poset.order_preserving_maps(dag_layer.transitive_closure(dag), dag.k)
    generators = algebra.hibi_generators(lattice)
    pair = {tuple(int(c) for c in text) for text in spec["pair"]}
    index = next(i for i, gen in enumerate(generators) if {gen.g, gen.h} == pair)
    if spec["mutate"] == "drop":
        del generators[index]
    else:
        generators[index] = dataclasses.replace(generators[index], join=lattice.top)
    if spec["check"] == "groebner":
        report = algebra.buchberger_check(generators)
    else:
        report = algebra.verify_vanishing(generators, algebra.monomial_map(lattice))
    return (0 if report.passed else 1), json.dumps(report.to_json_dict())


def reference() -> float:
    """Seconds for a fixed pure-Python loop of dict updates with tuple keys
    and Fraction sums, the operations the package's inner loops are made of.
    It is timed next to every request, so that a request's time can be read
    in units of this loop; other tenants of a shared host slow both alike.
    The garbage collector is off while it runs, so that the
    objects the package has left on the heap do not change its time."""
    gc.disable()
    start = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    total = Fraction(0)
    for i in range(1, 3000):
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0) + i
        total += Fraction(1, i % 13 + 1)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def send(request: dict) -> tuple[float, object, str]:
    start = time.perf_counter()
    try:
        if "control" in request:
            status, output = call_control(request["control"])
        else:
            status, output = call_cli(request["argv"])
    except Exception as exc:  # a crash is a failed request, timed like any other
        status, output = f"raised {exc!r}", ""
    return time.perf_counter() - start, status, output


def judge(request: dict, status, output: str) -> str | None:
    try:
        return checks.check(request["expect"], status, output)
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        return f"malformed output: {exc!r}"


def measure(plan: dict, seconds: float, trace: bool) -> dict:
    tracer = Tracer() if trace else None
    passes: list[dict] = []
    failures: list[str] = []
    controls = []
    for request in plan["controls"]:
        elapsed, status, output = send(request)
        reason = judge(request, status, output)
        controls.append({"id": request["id"], "latency_s": elapsed, "failure": reason})
        if reason is not None:
            failures.append(f"{request['id']}: {reason}")
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        latencies, stdout_bytes, errors = [], 0, 0
        start = time.perf_counter()
        references = [reference()]
        for request in plan["requests"]:
            if traced:
                tracer.request = request["id"]
            elapsed, status, output = send(request)
            references.append(reference())
            latencies.append(elapsed)
            stdout_bytes += len(output)
            reason = judge(request, status, output)
            if reason is not None:
                errors += 1
                failures.append(f"{request['id']}: {reason}")
        wall = time.perf_counter() - start
        record = {
            "wall_s": wall,
            "traced": traced,
            "latencies": latencies,
            "references": references,
            "errors": errors,
        }
        if traced:
            tracer.uninstall()
            layers = tracer.layer_metrics()
            layers["cli.stdout_bytes"] = stdout_bytes
            layers["cli.errors"] += errors
            record["layers"] = layers
            record["request_counts"] = dict(tracer.request_counts)
        passes.append(record)
    return {
        "passes": passes,
        "controls": controls,
        "failures": failures[:20],
        "failures_total": len(failures),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan_dir")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    os.chdir(args.plan_dir)
    with open("plan.json", encoding="utf-8") as handle:
        plan = json.load(handle)
    result = setup(plan)
    if args.setup_only:
        result["reference_s"] = setup_reference()
    else:
        result.update(measure(plan, args.seconds, bool(args.trace)))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    name = "setup.json" if args.setup_only else "result.json"
    with open(name, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
