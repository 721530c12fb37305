"""Benchmark of the Monte Carlo pipeline: low-rank against direct.

    python3 perfbench/run.py --workload fine_select --seed 1234 \\
        --seconds 30 --trace 0

Run from the root of a checkout.  Each repetition runs the workload's
pipeline once, in a fresh process (``worker.py``), one after another:
a batch job with a single closed-loop caller.  Repetitions start until
``--seconds`` have passed, and at least ``MIN_REPS`` of each kind run.

With ``--trace 0`` every repetition is untraced and the end-to-end
metrics are the medians over repetitions.  With ``--trace 1`` untraced
and traced repetitions alternate; the per-layer metrics are medians
over the traced ones, and ``trace.overhead_s.*`` is the traced median
minus the untraced median of each end-to-end time.

Every sample solve on each path is one operation.  A run is correct
when no solve raised, every direct solution has a small residual and
every low-rank solution matches the direct one (see ``pipeline.py``).
A run that is not correct exits with code 1 after printing its result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record with
the environment, the computed memory, every repetition and (when
traced) every span is written once at the end to ``perfbench/out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import now
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread: on a 2-core machine it made the low-rank path faster
# than the default of two (measurements in README.md).
BLAS_THREADS = "1"
MIN_REPS = 3            # untraced repetitions in a --trace 0 run
MIN_TRACED_REPS = 2     # of each kind in a --trace 1 run
DEADLINE_S = 170        # a run ends within this, even if a worker hangs

E2E_UNITS = {
    "setup_s": "s",
    "lowrank_s": "s",
    "direct_s": "s",
    "peak_rss_mb": "MiB",
}

LAYER_UNITS = {
    "mesh.build_s": "s",
    "randfield.build_kl_s": "s",
    "randfield.draw_s": "s",
    "randfield.T": "count",
    "randfield.rejected_fields": "count",
    "assembly.mean_s": "s",
    "assembly.perturbation_s": "s",
    "assembly.perturbation_ms.p50": "ms",
    "assembly.perturbation_ms.p90": "ms",
    "assembly.dirichlet_s": "s",
    "assembly.perturbation_bytes": "bytes",
    "glram.gram_s": "s",
    "glram.eig_s": "s",
    "glram.factorize_s": "s",
    "glram.k": "count",
    "glram.rank": "count",
    "glram.U_bytes": "bytes",
    "glram.V_bytes": "bytes",
    "glram.gram_bytes": "bytes",
    "glram.rmsre_formula": "F-norm",
    "lowrank_solver.factor_mean_s": "s",
    "lowrank_solver.smw_first_ms": "ms",
    "lowrank_solver.smw_ms.p50": "ms",
    "lowrank_solver.smw_ms.p90": "ms",
    "lowrank_solver.direct_ms.p50": "ms",
    "lowrank_solver.direct_ms.p90": "ms",
    "lowrank_solver.smw_failed": "count",
    "lowrank_solver.direct_failed": "count",
    "lowrank_solver.cond.p50": "1",
    "lowrank_solver.cond.max": "1",
    "lowrank_solver.max_rel_err": "1",
    "uq.moments_s": "s",
    "uq.err_total": "X-norm",
    "uq.err_darcy": "X-norm",
    "uq.err_stokes": "X-norm",
    "trace.overhead_s.setup_s": "s",
    "trace.overhead_s.lowrank_s": "s",
    "trace.overhead_s.direct_s": "s",
    "trace.coverage.setup": "ratio",
    "trace.coverage.lowrank": "ratio",
    "trace.coverage.direct": "ratio",
}


class RepetitionError(RuntimeError):
    """A worker process failed or timed out."""


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def repetition(workload, seed, trace, run_id, timeout):
    """Run the pipeline once in a fresh process and return its result."""
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
        PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p),
    )
    request = {"workload": workload, "seed": seed, "trace": trace,
               "run_id": run_id, "t_start": now()}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(request)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RepetitionError(
            f"{run_id} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RepetitionError(
            f"{run_id} exited with code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_repetitions(workload, seed, seconds, trace):
    """Repetitions until the time is up; traced ones alternate if asked."""
    reps = []
    t0 = time.monotonic()
    while True:
        traced = bool(trace) and len(reps) % 2 == 1
        run_id = f"{workload}-seed{seed}-rep{len(reps)}"
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - t0))
        reps.append(repetition(workload, seed, traced, run_id, timeout))
        n_traced = sum(1 for r in reps if "layers" in r)
        n_plain = len(reps) - n_traced
        enough = (min(n_plain, n_traced) >= MIN_TRACED_REPS if trace
                  else n_plain >= MIN_REPS)
        if enough and time.monotonic() - t0 >= seconds:
            return reps


def _median(reps, key, name):
    return statistics.median(r[key][name] for r in reps)


def aggregate(reps, trace):
    """Result line of a run: medians over its repetitions."""
    plain = [r for r in reps if "layers" not in r]
    traced = [r for r in reps if "layers" in r]
    if trace:
        metrics = {}
        for name, unit in LAYER_UNITS.items():
            if name.startswith("trace.overhead_s."):
                e2e = name[len("trace.overhead_s."):]
                value = (_median(traced, "e2e", e2e)
                         - _median(plain, "e2e", e2e))
            else:
                key = next(k for k in ("layers", "counts", "memory")
                           if name in traced[0][k])
                value = _median(traced, key, name)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {name: {"value": _median(plain, "e2e", name), "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    return {
        "correct": all(r["correct"] for r in reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "sdlowrank" / "__init__.py").is_file():
        print(f"error: package sources not found at {SRC / 'sdlowrank'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2

    try:
        reps = run_repetitions(args.workload, args.seed, args.seconds,
                               args.trace)
    except RepetitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = aggregate(reps, args.trace)

    environment = dict(reps[0]["environment"], commit=git_commit(),
                       seed=args.seed)
    spec = WORKLOADS[args.workload]
    kinds = ("traced", "untraced") if args.trace else ("untraced",)
    print(f"workload {args.workload} {spec} seed {args.seed}: "
          f"{len(reps)} repetitions ({' and '.join(kinds)})")
    print(f"environment {json.dumps(environment, sort_keys=True)}")
    print(f"memory (computed) {json.dumps(reps[0]['memory'])}")
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(f"operations: {result['failed']} failed of {result['attempted']} "
          f"attempted; correct={result['correct']}")

    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "workload": args.workload, "spec": spec, "seconds": args.seconds,
        "environment": environment, "result": result, "repetitions": reps,
    }))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
