"""The benchmark measures the pipeline that ``sdlowrank theta-sweep`` runs.

At a tiny size, the benchmark's k, numerical rank and err_total must
equal what the CLI writes for the same configuration and seed.  Not
collected by a plain ``pytest`` run of the repository; run it by name:

    python3 -m pytest perfbench/tests/check_crosscheck.py
"""

import csv
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pipeline  # noqa: E402
from sdlowrank.cli import RunConfig, main  # noqa: E402
from tracing import now  # noqa: E402
from worker import run_workload  # noqa: E402

N, M, SEED = 4, 8, 1234


def test_pipeline_constants_are_the_cli_defaults():
    cfg = RunConfig()
    assert (cfg.ell2, cfg.epsilon, cfg.energy_target) == (
        pipeline.ELL2, pipeline.EPSILON, pipeline.ENERGY_TARGET)


@pytest.mark.parametrize("theta, token", [("select", "select"), (1.0, "1.0")])
def test_k_rank_and_error_equal_theta_sweep(tmp_path, theta, token):
    result = run_workload({"n": N, "M": M, "theta": theta}, SEED, False,
                          now())
    assert result["correct"]
    argv = ["theta-sweep", "--n", str(N), "--samples", str(M),
            "--seed", str(SEED), "--theta-list", token,
            "--output-dir", str(tmp_path)]
    assert main(argv) == 0

    with open(tmp_path / "theta_sweep.csv", encoding="utf-8") as f:
        (row,) = list(csv.DictReader(f))
    ledger = (tmp_path / "ledger.jsonl").read_text().splitlines()
    counts = result["counts"]
    assert row["status"] == "ok"
    assert int(row["k"]) == counts["glram.k"]
    assert json.loads(ledger[-1])["rank"] == counts["glram.rank"]
    # the CSV holds 13 significant digits
    assert row["err_total"] == f"{counts['uq.err_total']:.12e}"
