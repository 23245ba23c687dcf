"""volcount benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload mc-volume --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

A run builds the workload's inputs, computes their references, then starts
fresh interpreters that import volcount from ``src/``: a few that only set
up (import plus loading the inputs) to time set-up, and one worker that runs
``volcount.driver.run`` over every instance, sequentially and in one
process, for the given seconds.  Each answer is checked against a reference
that does not come from the backend being timed; a wrong answer counts as a
failed operation and never aborts the run.  With ``--trace 1`` the worker
alternates untraced and traced passes and the run reports per-layer metrics.

The seed shuffles the order of the instances within a pass.  The instances
themselves, and the sampler seed of each ``-P`` instance, are pinned, so
every seed measures the same work and ``est_rel_err`` repeats exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with the environment, goes to ``perfbench/_results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle
import spans
import workloads
from workloads import Instance

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = HERE / "_results"

SETUP_PROBES = 4  # set-up-only interpreters per run, besides the worker
RUN_LIMIT_S = 170.0  # a run ends well inside the 180 s allowed

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# The layer expected to take most of each workload's wall time.
DOMINANT = {"mc-volume": "estimate.walk_s", "exact-volume": "exact.s",
            "lattice-count": "count.s", "many-bunches": "bunches.s"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("VOLCOUNT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # One process, one thread: the load never asks for more threads than cores.
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def start_worker(job_path: Path, setup_only: bool, deadline: float):
    """Start a worker; return it and the seconds until it printed ``ready``."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(job_path)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), text=True)
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        ready = sel.select(timeout=max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - started
    if line.strip() != "ready":
        stop(proc)
        raise BenchError(f"worker did not start (exit code {proc.returncode})")
    return proc, setup


def stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def measure(name: str, instances: list[Instance], seed: int, seconds: float, trace: bool,
            probes: int = SETUP_PROBES, targets: dict[str, str] | None = None) -> dict:
    """Run a workload in fresh interpreters; return the worker's raw result
    plus the set-up samples."""
    deadline = time.monotonic() + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        order = list(instances)
        random.Random(seed).shuffle(order)
        for inst in order:
            (tmp / f"{inst.name}{inst.suffix}").write_text(inst.text)
        job = {
            "instances": [{"name": i.name, "path": str(tmp / f"{i.name}{i.suffix}"),
                           "backend": i.backend, "word_length": i.word_length, "seed": i.seed}
                          for i in order],
            "seconds": seconds,
            "trace": trace,
            "targets": targets,
            "result": str(tmp / "result.json"),
            "spans": str(tmp / "spans.jsonl"),
        }
        job_path = tmp / "job.json"
        job_path.write_text(json.dumps(job))
        setups = []
        for _ in range(probes):
            proc, setup = start_worker(job_path, True, deadline)
            stop(proc)
            setups.append(setup)
        proc, setup = start_worker(job_path, False, deadline)
        setups.append(setup)
        try:
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker still running after {RUN_LIMIT_S:.0f} s") from None
        finally:
            stop(proc)
        if proc.returncode != 0:
            raise BenchError(f"worker failed with exit code {proc.returncode}")
        raw = json.loads((tmp / "result.json").read_text())
        raw["setups"] = setups
        if trace:
            RESULTS.mkdir(exist_ok=True)
            shutil.copy(tmp / "spans.jsonl", RESULTS / f"{name}-seed{seed}-spans.jsonl")
        return raw
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def references(instances: list[Instance]) -> dict[str, float]:
    refs = {}
    for inst in instances:
        if inst.reference is not None:
            refs[inst.name] = inst.reference
        else:
            refs[inst.name] = oracle.model_volume(inst.formula, inst.word_length)
    return refs


def failure(inst: Instance, outcome: dict, reference: float) -> str | None:
    """Why an operation failed, or None when its answer is right."""
    if "error" in outcome:
        return outcome["error"]
    total = outcome["total"]
    if total is None:
        return "undefined total: " + "; ".join(outcome["bunch_errors"])
    if inst.bunches is not None and outcome["bunches"] != inst.bunches:
        return f"{outcome['bunches']} bunches, expected {inst.bunches}; total {total!r}"
    if inst.rel_tol == 0.0:
        ok = total == reference
    else:
        ok = abs(total - reference) <= inst.rel_tol * abs(reference)
    return None if ok else f"answer {total!r}, reference {reference!r}"


def est_rel_err(instances: list[Instance], refs: dict[str, float], outcomes: list[dict]) -> float:
    """Median |estimate / reference - 1| over the -P instances (0 if none)."""
    by_name = {o["name"]: o for o in outcomes}
    errs = [abs(by_name[i.name]["total"] / refs[i.name] - 1.0) for i in instances
            if i.backend == "estimate" and by_name[i.name].get("total") is not None]
    return statistics.median(errs) if errs else 0.0


def summarize(name: str, instances: list[Instance], refs: dict[str, float], raw: dict,
              trace: bool, seed: int) -> tuple[dict, list[str]]:
    """The result object and the human-readable report lines."""
    by_name = {i.name: i for i in instances}
    attempted = failed = 0
    unexplained = 0
    reasons: dict[str, str] = {}
    for p in raw["passes"]:
        for o in p["outcomes"]:
            attempted += 1
            why = failure(by_name[o["name"]], o, refs[o["name"]])
            if why is not None:
                failed += 1
                reasons.setdefault(o["name"], why)
                unexplained += by_name[o["name"]].known_failure is None
    first = raw["passes"][0]["outcomes"]
    rel_err = est_rel_err(instances, refs, first)
    if trace:
        values = dict(raw["layers"], **{"estimate.rel_err": rel_err})
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, (unit, _, _) in spans.LAYER_METRICS.items() if k in values}
    else:
        values = {
            "wall_s": statistics.median(p["wall"] for p in raw["passes"]),
            "setup_s": statistics.median(raw["setups"]),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}

    lines = [f"workload {name}  seed {seed}  trace {int(trace)}  passes {len(raw['passes'])}  "
             f"nproc {os.cpu_count()}  python {raw['env']['python']}  numpy {raw['env']['numpy']}  "
             f"scipy {raw['env']['scipy']}  blas threads {raw['env']['blas_threads']['OPENBLAS_NUM_THREADS']}"]
    walls: dict[str, list[float]] = {}
    for p in raw["passes"]:
        if p["traced"] == trace:
            for o in p["outcomes"]:
                walls.setdefault(o["name"], []).append(o["wall"])
    for o in first:
        inst = by_name[o["name"]]
        status = "ok" if o["name"] not in reasons else (
            "KNOWN FAILURE" if inst.known_failure else "FAILED")
        lines.append(f"  {inst.name:12s} {inst.fingerprint}  {inst.backend:13s} "
                     f"-w={inst.word_length}  answer {o.get('total')!r}  reference "
                     f"{refs[inst.name]!r} ({inst.ref_source})  "
                     f"{statistics.median(walls[inst.name]):.3f} s  {status}")
        if o["name"] in reasons:
            lines.append(f"      {reasons[o['name']]}")
            if inst.known_failure:
                lines.append(f"      known cause: {inst.known_failure}")
    if not trace and any(i.backend == "estimate" for i in instances):
        lines.append(f"  est_rel_err {rel_err:.6g} ratio (pinned sampler seeds; repeats exactly)")
    for k, m in metrics.items():
        note = f"   should move: {spans.LAYER_METRICS[k][2]}" if trace else ""
        lines.append(f"  {k:26s} {m['value']:.6g} {m['unit']}{note}")
    if trace:
        for inst in instances:
            lines.append(f"  inst.{inst.name}.s {statistics.median(walls[inst.name]):.6g} s")
        traced_wall = statistics.median(p["wall"] for p in raw["passes"] if p["traced"])
        dominant = DOMINANT.get(name)
        if dominant in values and traced_wall > 0:
            lines.append(f"  dominant layer {dominant}: {values[dominant] / traced_wall:.1%} "
                         f"of traced wall {traced_wall:.3f} s")
        if raw["absent"]:
            lines.append(f"  absent (wrapped name missing or changed): {', '.join(raw['absent'])}")
    lines.append(f"  failed/attempted {failed}/{attempted}"
                 + (f" ({failed - unexplained} known)" if failed else ""))
    result = {"correct": unexplained == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def record(name: str, seed: int, trace: bool, instances, refs, raw, result) -> None:
    RESULTS.mkdir(exist_ok=True)
    out = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "env": dict(raw["env"], nproc=os.cpu_count(),
                    affinity=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None),
        "instances": [{"name": i.name, "fingerprint": i.fingerprint, "backend": i.backend,
                       "word_length": i.word_length, "sampler_seed": i.seed,
                       "reference": refs[i.name], "reference_source": i.ref_source,
                       "known_failure": i.known_failure} for i in instances],
        "setups": raw["setups"],
        "passes": [{"traced": p["traced"], "wall": p["wall"], "outcomes": p["outcomes"]}
                   for p in raw["passes"]],
        "absent": raw["absent"],
        "result": result,
    }
    path = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(out, indent=1))


def bench(name: str, seed: int, seconds: float, trace: bool) -> None:
    instances = workloads.workloads()[name]
    refs = references(instances)
    raw = measure(name, instances, seed, seconds, trace)
    result, lines = summarize(name, instances, refs, raw, trace, seed)
    record(name, seed, trace, instances, refs, raw, result)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)


def smoke() -> int:
    """Self-test on one tiny instance per workload."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks: list[tuple[str, bool]] = []
    for name, instances in workloads.smoke_workloads().items():
        refs = references(instances)
        for trace, listed in ((False, "end_to_end"), (True, "per_layer")):
            raw = measure(name, instances, 1, 0.1, trace, probes=1)
            result, _ = summarize(name, instances, refs, raw, trace, 1)
            metrics = result["metrics"]
            missing = [m["name"] for m in declared[listed]
                       if metrics.get(m["name"], {}).get("unit") != m["unit"]]
            checks.append((f"{name} trace {int(trace)}: every {listed} metric printed with its "
                           f"unit (missing: {missing or 'none'})", not missing))
            checks.append((f"{name} trace {int(trace)}: answers match references",
                           result["correct"] and result["failed"] == 0))
        wrong_refs = {i.name: refs[i.name] * 1.5 + 1.0 for i in instances}
        result, _ = summarize(name, instances, wrong_refs, raw, True, 1)
        checks.append((f"{name}: a wrong reference counts as failed operations",
                       result["failed"] == result["attempted"] > 0 and not result["correct"]))

    name = "exact-volume"
    instances = workloads.smoke_workloads()[name]
    renamed = dict(spans.TARGETS, **{"exact.linprog": "volcount.exact:linprog_renamed"})
    raw = measure(name, instances, 1, 0.1, True, probes=0, targets=renamed)
    result, _ = summarize(name, instances, references(instances), raw, True, 1)
    gone = {"exact.linprog_calls", "exact.linprog_s"}
    checks.append(("a renamed wrapped name shows up as absent metrics, not a crash",
                   gone <= set(raw["absent"]) and not gone & set(result["metrics"])
                   and "exact.s" in result["metrics"]))

    sys.path.insert(0, str(SRC))
    from volcount.model import SolverConfig
    from volcount.volce import parse_volce

    for n in workloads.RANDOM_MEMBERS:
        formula, _, cap = workloads.random_member(n)
        config = SolverConfig(word_length=workloads.RANDOM_WORD_LENGTH)
        checks.append((f"pinned random member n={n} still passes the usability filter",
                       workloads.usable_instance(parse_volce(formula.to_volce()), config, cap)))

    for label, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in checks) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.workloads()) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "volcount" / "__init__.py").is_file():
        print(f"volcount sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        names = sorted(workloads.workloads()) if args.workload == "all" else [args.workload]
        for name in names:
            bench(name, args.seed, args.seconds, bool(args.trace))
        return 0
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
