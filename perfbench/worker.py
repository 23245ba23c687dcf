"""Run one workload in a fresh interpreter; started by ``run.py``.

Usage: ``worker.py JOB.json [--setup-only]``.  The worker imports volcount,
loads the workload's input files and prints ``ready`` (the parent times
set-up up to that line).  Unless ``--setup-only`` is given it then runs
``volcount.driver.run`` over every instance, pass after pass, until the
job's seconds are spent, alternating untraced and traced passes when the
job asks for a trace, and writes its raw results to the job's result path.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time

import spans


def _number(value):
    if value is None or isinstance(value, int):
        return value
    return float(value)


def run_pass(order, formulas, tracer=None):
    from volcount import driver
    from volcount.errors import VolcountError
    from volcount.model import Backend, SolverConfig

    outcomes = []
    for inst in order:
        name = inst["name"]
        formula = formulas[name]
        if isinstance(formula, str):  # the input did not load
            outcomes.append({"name": name, "wall": 0.0, "error": formula})
            continue
        config = SolverConfig(word_length=inst["word_length"],
                              backends=frozenset({Backend(inst["backend"])}),
                              seed=inst["seed"])
        started = time.perf_counter()
        try:
            if tracer is None:
                report = driver.run(config, formula, name)
            else:
                tracer.instance = name
                report = tracer.call("run", driver.run, config, formula, name)
        except VolcountError as exc:
            outcomes.append({"name": name, "wall": time.perf_counter() - started,
                             "error": f"{type(exc).__name__}: {exc}"})
            continue
        wall = time.perf_counter() - started
        errors = sorted({e for b in report.bunches for e in b.errors.values()})
        outcomes.append({
            "name": name,
            "wall": wall,
            "total": _number(report.totals.get(inst["backend"])),
            "bunches": len(report.bunches),
            "bunch_errors": errors[:3],
            "avg_coefficient": report.sampling["avg_coefficient"] if report.sampling else None,
        })
    return outcomes


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as handle:
        job = json.load(handle)

    import numpy
    import scipy
    import volcount  # noqa: F401  (set-up cost users pay on every call)
    from volcount import driver
    from volcount.errors import VolcountError

    formulas: dict[str, object] = {}
    parse_s = 0.0
    for inst in job["instances"]:
        started = time.perf_counter()
        try:
            formulas[inst["name"]] = driver.load_formula(inst["path"])
        except VolcountError as exc:
            formulas[inst["name"]] = f"{type(exc).__name__}: {exc}"
        parse_s += time.perf_counter() - started
    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0

    tracer = spans.Tracer(targets=job.get("targets") or dict(spans.TARGETS)) if job["trace"] else None
    passes: list[dict] = []
    traced_spans: list[list[spans.Span]] = []
    absent: set[str] = set()
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        if tracer is not None and len(passes) % 2 == 1:
            tracer.spans = []
            tracer.install()
            try:
                outcomes = run_pass(job["instances"], formulas, tracer)
            finally:
                tracer.uninstall()
            layers, missing = spans.layer_metrics(tracer.spans, tracer.absent)
            absent.update(tracer.absent)
            absent.update(missing)
            coeffs = [o["avg_coefficient"] for o in outcomes if o.get("avg_coefficient") is not None]
            layers["estimate.avg_coefficient"] = statistics.fmean(coeffs) if coeffs else 0.0
            traced_spans.append(tracer.spans)
            passes.append({"traced": True, "outcomes": outcomes, "layers": layers})
        else:
            outcomes = run_pass(job["instances"], formulas)
            passes.append({"traced": False, "outcomes": outcomes})
        passes[-1]["wall"] = sum(o["wall"] for o in outcomes)
        last = time.perf_counter() - pass_started
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() - started + last > job["seconds"]:
            break

    result = {
        "passes": passes,
        "parse_s": parse_s,
        "absent": sorted(absent),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }
    if tracer is not None:
        traced = [p["wall"] for p in passes if p["traced"]]
        plain = [p["wall"] for p in passes if not p["traced"]]
        layers = spans.median_metrics([p["layers"] for p in passes if p["traced"]])
        layers["parse.s"] = parse_s
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        result["layers"] = layers
        spans.write_spans(job["spans"], traced_spans)
    with open(job["result"], "w", encoding="utf-8") as out:
        json.dump(result, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
