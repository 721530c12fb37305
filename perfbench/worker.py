"""One run of the pipeline on one workload, in a process of its own.

    python3 perfbench/worker.py '<json request>'

``run.py`` starts this script once per repetition, with the BLAS thread
count pinned in its environment and ``PYTHONPATH`` pointing at the
package sources.  The request names the workload, the seed, whether to
trace, and the monotonic time at which the process was launched, so
that ``setup_s`` runs from process start, through ``import sdlowrank``,
to the constrained split system.  The result is printed as one JSON
line.

Only the standard library is imported before the ``sdlowrank.import``
span opens, so that span covers numpy, scipy and the package.
"""

import json
import sys

from tracing import Tracer, total

# Why each workload exists: see README.md in this directory.
WORKLOADS = {
    "fine_select": {"n": 16, "M": 60, "theta": "select"},
    "coarse_many": {"n": 8, "M": 800, "theta": "select"},
    "coarse_fullrank": {"n": 8, "M": 300, "theta": 1.0},
}


def run_workload(spec, seed, trace, t_start, run_id="run"):
    """Set up and solve one workload; return its measurements."""
    tracer = Tracer(run_id, enabled=trace)
    root = tracer.open("workload", "root", start=t_start)
    with tracer.phase("setup", start=t_start):
        with tracer.span("sdlowrank.import"):
            import pipeline
        state = pipeline.setup(spec, seed, tracer)
    result = pipeline.solve(state, spec, tracer)
    result["environment"] = pipeline.environment()
    peak_rss_mb = pipeline.peak_rss_mb()
    tracer.close(root)

    spans = tracer.spans
    result["e2e"] = {
        "setup_s": total(spans, "setup"),
        "lowrank_s": total(spans, "lowrank"),
        "direct_s": total(spans, "direct"),
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        result["layers"] = pipeline.layer_metrics(spans)
        result["spans"] = spans
    return result


def main(argv):
    request = json.loads(argv[1])
    result = run_workload(WORKLOADS[request["workload"]], request["seed"],
                          request["trace"], request["t_start"],
                          request["run_id"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
