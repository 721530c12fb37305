"""Self-consistency of the benchmark's spans and its correctness gate.

Runs a tiny workload in this process.  Not collected by a plain
``pytest`` run of the repository; run it by name:

    python3 -m pytest perfbench/tests/check_trace.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import sdlowrank  # noqa: E402
from tracing import children, duration, now, self_times  # noqa: E402
from worker import run_workload  # noqa: E402

TINY = {"n": 4, "M": 6, "theta": "select"}
SEED = 7


@pytest.fixture(scope="module")
def traced():
    return run_workload(TINY, SEED, True, now(), run_id="tiny")


def test_every_parent_is_in_the_same_run(traced):
    spans = traced["spans"]
    ids = {s["id"] for s in spans}
    assert len(ids) == len(spans)
    assert [s["name"] for s in spans if s["parent"] is None] == ["workload"]
    assert {s["run"] for s in spans} == {"tiny"}
    assert all(s["parent"] in ids for s in spans if s["parent"] is not None)


def test_children_lie_inside_their_parents(traced):
    spans = traced["spans"]
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["parent"] is not None:
            p = by_id[s["parent"]]
            assert p["start"] <= s["start"] <= s["end"] <= p["end"], s
    for kids in children(spans).values():
        kids = sorted(kids, key=lambda s: s["start"])
        for a, b in zip(kids, kids[1:]):
            assert a["end"] <= b["start"], (a, b)


def test_self_times_plus_gaps_add_up_to_the_root(traced):
    spans = traced["spans"]
    root = next(s for s in spans if s["parent"] is None)
    selfs = self_times(spans)
    layers = sum(selfs[s["id"]] for s in spans if s["kind"] == "layer")
    gaps = sum(selfs[s["id"]] for s in spans if s["kind"] != "layer")
    assert min(selfs.values()) >= 0.0
    assert layers + gaps == pytest.approx(duration(root), rel=1e-9, abs=1e-9)


def test_every_sample_solve_has_a_span(traced):
    names = [s["name"] for s in traced["spans"]]
    for name in ("assembly.perturbation", "lowrank_solver.solve_sample_smw",
                 "lowrank_solver.solve_sample_direct"):
        assert names.count(name) == TINY["M"]
    assert names.count("lowrank") == 2      # Gram build, then the rest
    assert names.count("uq.estimate_moments") == 2


def test_metric_names_and_units_match_benchmark_json(traced):
    plain = run_workload(TINY, SEED, False, now(), run_id="plain")
    assert "layers" not in plain and "spans" not in plain
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, trace, reps in (("end_to_end", 0, [plain]),
                             ("per_layer", 1, [plain, traced])):
        result = run.aggregate(reps, trace)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == 2 * TINY["M"] * len(reps)
        assert ({m["name"]: m["unit"] for m in bench[key]}
                == {k: v["unit"] for k, v in result["metrics"].items()})


def test_wrong_low_rank_solution_fails_the_run(monkeypatch):
    solve = sdlowrank.solve_sample_smw

    def off_by_a_little(mean, factors, m):
        sol = solve(mean, factors, m)
        sol.x = sol.x * (1.0 + 1e-8)
        return sol

    monkeypatch.setattr(sdlowrank, "solve_sample_smw", off_by_a_little)
    result = run_workload(TINY, SEED, False, now())
    assert not result["correct"]
    assert result["failed"] == TINY["M"]
    assert not run.aggregate([result], 0)["correct"]


def test_raising_direct_solve_is_a_failed_operation(monkeypatch):
    solve = sdlowrank.solve_sample_direct

    def first_fails(system, m):
        if m == 0:
            raise sdlowrank.SingularSystemError("sample 0")
        return solve(system, m)

    monkeypatch.setattr(sdlowrank, "solve_sample_direct", first_fails)
    result = run_workload(TINY, SEED, False, now())
    assert not result["correct"]
    # the direct solve failed, and its low-rank sample has nothing to match
    assert result["counts"]["lowrank_solver.direct_failed"] == 1
    assert result["counts"]["lowrank_solver.smw_failed"] == 1
    assert result["failed"] == 2
