"""Config handling, subcommand pipelines, and exit codes of the CLI."""

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: tomli is the same parser
    tomllib = None

import numpy as np
import pytest
import scipy

from _oracles import read_solutions
from sdlowrank import cli, lowrank_solver
from sdlowrank.cli import (
    ConfigError,
    RunConfig,
    main,
    parse_theta_list,
)
from sdlowrank.lowrank_solver import IllConditionedUpdateError


def _read_csv(path):
    """Parse a CSV file into (header, list-of-dict rows).

    Every row must have exactly as many cells as the header.
    """
    with open(path, encoding="utf-8", newline="") as f:
        header, *cells = [r for r in csv.reader(f) if r]
    assert all(len(r) == len(header) for r in cells)
    return header, [dict(zip(header, r)) for r in cells]


def _ledger_records(outdir):
    text = (outdir / "ledger.jsonl").read_text(encoding="utf-8")
    return [json.loads(ln) for ln in text.splitlines() if ln.strip()]


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------

def test_default_config_is_valid():
    cfg = RunConfig()
    assert cfg.validate() is cfg
    digest = cfg.config_hash()
    assert len(digest) == 16
    assert set(digest) <= set("0123456789abcdef")


def test_config_round_trips_through_file(tmp_path):
    cfg = RunConfig(
        n=4,
        epsilon=0.05,
        M=7,
        M_ref=11,
        m_list=(2, 3, 5),
        seed=99,
        theta_list=(0.5, "select", 1.0),
        energy_target=0.999,
        output_dir="elsewhere",
        solver="direct",
        nu=2.0,
        g=1.5,
        alpha=0.25,
        z=1.0,
        ell2=0.3,
        sample_index=3,
    )
    path = tmp_path / "run.cfg"
    path.write_text(cfg.canonical_string(), encoding="utf-8")
    text = path.read_text(encoding="utf-8")
    assert "theta_list = 0.5,select,1.0\n" in text
    assert "m_list = 2,3,5\n" in text
    assert RunConfig.from_file(path) == cfg


def test_config_hash_tracks_field_changes():
    base = RunConfig()
    assert base.config_hash() == RunConfig().config_hash()
    for changed in (
        RunConfig(seed=4321),
        RunConfig(n=16),
        RunConfig(theta_list=(0.5,)),
    ):
        assert changed.config_hash() != base.config_hash()


def test_config_hash_ignores_the_output_directory():
    # one experiment written to two directories is one experiment
    a, b = RunConfig(output_dir="one"), RunConfig(output_dir="two")
    assert a.canonical_string() != b.canonical_string()
    assert a.config_hash() == b.config_hash() == RunConfig().config_hash()
    assert RunConfig(output_dir="one", seed=4321).config_hash() != (
        a.config_hash())


def test_config_validation_rejects_bad_values():
    cases = [
        ({"n": 7}, "even"),
        ({"n": 0}, "even"),
        ({"epsilon": 0.0}, "epsilon"),
        ({"epsilon": 1.0}, "epsilon"),
        ({"M": 0}, "sample counts"),
        ({"M_ref": 0}, "sample counts"),
        ({"seed": -1}, "nonnegative"),
        ({"m_list": ()}, "m_list"),
        ({"m_list": (4, 0)}, "m_list"),
        ({"theta_list": ()}, "theta_list"),
        ({"theta_list": (1.5,)}, "theta entries"),
        ({"theta_list": (0.0,)}, "theta entries"),
        ({"theta_list": (1,)}, "theta entries"),  # int, not float
        ({"energy_target": 0.0}, "energy_target"),
        ({"energy_target": 1.5}, "energy_target"),
        ({"solver": "magic"}, "solver"),
        ({"nu": 0.0}, "positive"),
        ({"alpha": -1.0}, "positive"),
        ({"ell2": 0.0}, "ell2"),
        ({"sample_index": -1}, "sample_index"),
    ]
    # NaN and inf pass every sign or range test written with < and <=
    cases += [({key: bad}, f"{key} must be finite")
              for key in ("epsilon", "energy_target", "nu", "g", "alpha",
                          "z", "ell2")
              for bad in (float("nan"), float("inf"), float("-inf"))]
    for kwargs, match in cases:
        with pytest.raises(ConfigError, match=match):
            RunConfig(**kwargs).validate()


def test_from_file_rejects_malformed_input(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        RunConfig.from_file(tmp_path / "missing.cfg")

    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("banana = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key"):
        RunConfig.from_file(bad_key)

    no_eq = tmp_path / "no_eq.cfg"
    no_eq.write_text("n 8\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="expected"):
        RunConfig.from_file(no_eq)

    bad_int = tmp_path / "bad_int.cfg"
    bad_int.write_text("n = eight\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="bad value for n"):
        RunConfig.from_file(bad_int)

    bad_m = tmp_path / "bad_m.cfg"
    bad_m.write_text("m_list = 2,x\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="m_list"):
        RunConfig.from_file(bad_m)


def test_from_file_tolerates_comments_and_blanks(tmp_path):
    path = tmp_path / "sparse.cfg"
    path.write_text(
        "# full-line comment\n"
        "\n"
        "n = 4\n"
        "seed = 9   # trailing comment\n",
        encoding="utf-8",
    )
    cfg = RunConfig.from_file(path)
    assert cfg.n == 4
    assert cfg.seed == 9
    assert cfg.M == RunConfig().M  # unlisted keys keep their defaults


def test_parse_theta_list():
    assert parse_theta_list("1.0, 0.5 ,select") == (1.0, 0.5, "select")
    assert parse_theta_list("0.5,,") == (0.5,)
    with pytest.raises(ConfigError, match="bad theta"):
        parse_theta_list("0.5,zap")
    with pytest.raises(ConfigError, match="empty"):
        parse_theta_list("")
    with pytest.raises(ConfigError, match="empty"):
        parse_theta_list(",,")


# ---------------------------------------------------------------------------
# subcommand pipelines (small configs, default n=8 grid)
# ---------------------------------------------------------------------------

def test_kl_report_outputs(tmp_path, capsys):
    rc = main(["kl-report", "--output-dir", str(tmp_path), "--seed", "77"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "T=10" in out
    assert "nodes 45" in out  # conductivity lives on the porous-side vertices

    header, rows = _read_csv(tmp_path / "kl_spectrum.csv")
    assert header == ["t", "eigenvalue", "energy_ratio"]
    assert [int(r["t"]) for r in rows] == list(range(1, 16))
    eigs = [float(r["eigenvalue"]) for r in rows]
    assert all(later <= earlier for earlier, later in zip(eigs, eigs[1:]))
    energy = [float(r["energy_ratio"]) for r in rows]
    assert all(later >= earlier for earlier, later in zip(energy, energy[1:]))
    assert energy[-1] <= 1.0 + 1e-12

    for i in range(4):
        fhead, frows = _read_csv(tmp_path / f"sample_field_{i}.csv")
        assert fhead == ["x", "y", "conductivity"]
        assert len(frows) == 45
        assert min(float(r["conductivity"]) for r in frows) > 0.0

    (rec,) = _ledger_records(tmp_path)
    assert rec["command"] == "kl-report"
    assert rec["T"] == 10
    assert rec["seed"] == 77
    assert len(rec["config_hash"]) == 16
    assert rec["rho_T"] == pytest.approx(0.9924, abs=5e-3)
    assert {"mesh", "kl"} <= set(rec["stage_seconds"])
    assert isinstance(rec["rejected_fields"], int)
    assert rec["rejected_fields"] >= 0


def test_kl_report_files_are_deterministic(tmp_path):
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        assert main(["kl-report", "--output-dir", str(d)]) == 0
    for name in ["kl_spectrum.csv"] + [f"sample_field_{i}.csv"
                                       for i in range(4)]:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_theta_sweep_small_run(tmp_path, capsys):
    rc = main([
        "theta-sweep", "--output-dir", str(tmp_path),
        "--samples", "12", "--theta-list", "1.0,select,0.1",
    ])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "theta_sweep.csv")
    assert header == [
        "theta_requested", "theta_effective", "k", "rmsre_formula",
        "rmsre_direct", "energy_ratio", "err_total", "err_darcy",
        "err_stokes", "err_sample_mean", "storage_reduction", "status",
    ]
    assert [r["status"] for r in rows] == ["ok", "ok", "ok"]
    full, sel, tenth = rows

    # theta = 1.0 keeps every direction the block can hold: the k cap is
    # the block dimension 459, and the solve path must agree with the
    # direct baseline to solver precision.
    assert full["theta_requested"] == "1.0"
    assert int(full["k"]) == 459
    assert float(full["theta_effective"]) == pytest.approx(459 / 504)
    assert float(full["err_total"]) <= 1e-8
    assert float(full["err_sample_mean"]) <= 1e-8

    # the energy-selected ratio lands at the numerical rank or below and
    # stays on the accuracy plateau
    assert sel["theta_requested"].startswith("select(")
    k_sel = int(sel["k"])
    assert 1 <= k_sel < 459
    assert float(sel["theta_effective"]) == pytest.approx(k_sel / 504)
    assert float(sel["err_total"]) <= 1e-6

    # theta = 0.1 truncates below the rank: ceil(0.1 * 504) = 51 directions
    assert tenth["theta_requested"] == "0.1"
    assert int(tenth["k"]) == 51
    assert float(tenth["err_total"]) > float(full["err_total"])
    assert float(tenth["rmsre_direct"]) > float(sel["rmsre_direct"])

    for r in rows:
        reduction = float(r["storage_reduction"])
        assert 0.0 < reduction <= (1.0 + 1.0 / 12.0) + 1e-12

    (rec,) = _ledger_records(tmp_path)
    assert rec["command"] == "theta-sweep"
    assert len(rec["rows"]) == 3
    assert rec["rank"] >= k_sel
    # every ledger row carries the CSV cells plus the column support of
    # the factors, the order of the capacitance matrix (the n(2n - 1) =
    # 120 free porous heads at k_s = |S| = 135, else k_s) and the spread
    # of its condition estimates
    for row, rec_row in zip(rows, rec["rows"]):
        assert rec_row["theta_requested"] == row["theta_requested"]
        assert rec_row["k"] == int(row["k"])
        k = rec_row["k"]
        assert rec_row["capacitance_dim"] == (120 if k >= 135 else k)
        # the perturbations live on the head columns, so c <= N1 = 153
        assert 1 <= rec_row["col_dim"] <= 153
        lo, mid, hi = (rec_row[f"capacitance_cond_{s}"]
                       for s in ("min", "median", "max"))
        assert 1.0 <= lo <= mid <= hi < 1e12
    assert rec["rows"][0]["col_dim"] < int(full["k"])
    assert isinstance(rec["rejected_fields"], int)
    assert rec["rejected_fields"] >= 0
    out = capsys.readouterr().out
    assert "theta=1.0" in out
    assert "theta_sweep.csv" in out


def test_theta_sweep_records_a_failed_ratio_and_keeps_sweeping(
        tmp_path, monkeypatch):
    real_smw = cli.solve_sample_smw

    def smw(mean, factors, m):
        # theta = 1.0 keeps the whole spectrum; theta = 0.1 keeps less
        if factors.energy_ratio < 1.0:
            raise IllConditionedUpdateError(f"sample {m}: forced, a comma")
        return real_smw(mean, factors, m)

    monkeypatch.setattr(cli, "solve_sample_smw", smw)
    rc = main(["theta-sweep", "--output-dir", str(tmp_path), "--n", "4",
               "--samples", "6", "--theta-list", "1.0,0.1"])
    assert rc == 0
    # _read_csv checks that the comma in the message did not add a cell
    header, (full, tenth) = _read_csv(tmp_path / "theta_sweep.csv")
    assert len(header) == 12
    assert full["status"] == "ok"
    assert tenth["theta_requested"] == "0.1"
    assert tenth["status"] == "failed: sample 0: forced, a comma"
    assert tenth["k"] == "0"
    floats = [c for c in header
              if c not in ("theta_requested", "k", "status")]
    assert len(floats) == 9
    assert all(tenth[c] == "nan" for c in floats)


def test_theta_sweep_records_a_non_finite_factor_as_a_failed_ratio(
        tmp_path, monkeypatch):
    # the NaN goes into a copy of U[S, :k_s], which factorize makes
    # read-only: the span values and Y are the Gram matrix's, shared by
    # every ratio of the sweep
    real_factorize = cli.factorize

    def factorize(gram, tildes, theta):
        factors = real_factorize(gram, tildes, theta)
        if theta == 0.1:
            u = factors.U.copy()
            u[0, 0] = np.nan
            factors = dataclasses.replace(factors, U=u)
        return factors

    monkeypatch.setattr(cli, "factorize", factorize)
    rc = main(["theta-sweep", "--output-dir", str(tmp_path), "--n", "4",
               "--samples", "6", "--theta-list", "1.0,0.1"])
    assert rc == 0
    _, (full, tenth) = _read_csv(tmp_path / "theta_sweep.csv")
    assert full["status"] == "ok"
    assert tenth["status"] == (
        "failed: column 0 of the shared factor holds non-finite entries")
    (rec,) = _ledger_records(tmp_path)
    assert rec["rows"][1]["col_dim"] == rec["rows"][1]["capacitance_dim"] == 0
    assert np.isnan(rec["rows"][1]["capacitance_cond_max"])


def test_theta_sweep_solves_each_support_rank_once(tmp_path, monkeypatch):
    # at n=4 the Gram support is |S| = 35: theta = 1.0, 0.7 and select
    # all solve at k_s = 35, and 0.1 at k_s = 15, so 2 of the 4 rows run
    # the M Woodbury solves; each row's CSV line and ledger row are those
    # of a sweep of that row alone
    calls = []
    real_smw = cli.solve_sample_smw

    def smw(mean, factors, m):
        calls.append(factors.k_s)
        return real_smw(mean, factors, m)

    monkeypatch.setattr(cli, "solve_sample_smw", smw)
    tokens = ["1.0", "0.7", "select", "0.1"]
    flags = ["--n", "4", "--samples", "6"]
    assert main(["theta-sweep", *flags, "--theta-list", ",".join(tokens),
                 "--output-dir", str(tmp_path / "all")]) == 0
    assert calls == [35] * 6 + [15] * 6
    lines = (tmp_path / "all" / "theta_sweep.csv").read_text().splitlines()
    (swept,) = _ledger_records(tmp_path / "all")
    for i, tok in enumerate(tokens):
        one = tmp_path / f"row{i}"
        assert main(["theta-sweep", *flags, "--theta-list", tok,
                     "--output-dir", str(one)]) == 0
        header, row = (one / "theta_sweep.csv").read_text().splitlines()
        assert [header, row] == [lines[0], lines[i + 1]], tok
        (alone,) = _ledger_records(one)
        assert alone["rows"] == [swept["rows"][i]], tok


def test_theta_sweep_builds_one_elimination(tmp_path, monkeypatch):
    # factor_mean, the direct loop and the Woodbury states at k_s = 35
    # (1.0 and select) and at k_s = 15 (0.1) all read one elimination of
    # Abar onto the family's support: the mean factor_mean returns, the
    # only one built
    built, read = [], []
    init = lowrank_solver.MeanFactorization.__init__
    real_mean = cli.factor_mean
    real_direct, real_smw = cli.solve_sample_direct, cli.solve_sample_smw

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def factor_mean(system):
        mean = real_mean(system)
        read.append(("factor_mean", mean))
        return mean

    def direct(system, m):
        sol = real_direct(system, m)
        read.append(("direct", system._direct))
        return sol

    def smw(mean, factors, m):
        sol = real_smw(mean, factors, m)
        read.append((factors.k_s, mean))
        return sol

    monkeypatch.setattr(lowrank_solver.MeanFactorization, "__init__",
                        counted_init)
    monkeypatch.setattr(cli, "factor_mean", factor_mean)
    monkeypatch.setattr(cli, "solve_sample_direct", direct)
    monkeypatch.setattr(cli, "solve_sample_smw", smw)
    assert main(["theta-sweep", "--output-dir", str(tmp_path), "--n", "4",
                 "--samples", "6", "--theta-list", "1.0,select,0.1"]) == 0
    assert len(built) == 1
    assert {who for who, _ in read} == {"factor_mean", "direct", 35, 15}
    assert all(elim is built[0] for _, elim in read)


def test_theta_sweep_lets_a_programming_error_propagate(tmp_path, monkeypatch):
    def smw(mean, factors, m):
        raise TypeError("bad arg, a programming error")

    monkeypatch.setattr(cli, "solve_sample_smw", smw)
    with pytest.raises(TypeError, match="programming error"):
        main(["theta-sweep", "--output-dir", str(tmp_path), "--n", "4",
              "--samples", "6", "--theta-list", "1.0"])
    assert not (tmp_path / "theta_sweep.csv").exists()


def test_select_theta_outputs(tmp_path, capsys):
    rc = main(["select-theta", "--output-dir", str(tmp_path),
               "--samples", "12"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "selected theta=" in out
    assert "rank=" in out

    txt = (tmp_path / "glram_report.txt").read_text(encoding="utf-8")
    for key in ("rmsre_direct = ", "rmsre_formula = ",
                "storage_reduction = ", "selected_theta = ",
                "selected_k = ", "samples = 12", "dimension = 504"):
        assert key in txt

    header, rows = _read_csv(tmp_path / "gram_spectrum.csv")
    assert header == ["index", "eigenvalue", "cumulative_energy"]
    assert len(rows) == 459
    assert float(rows[-1]["cumulative_energy"]) == pytest.approx(1.0)

    (rec,) = _ledger_records(tmp_path)
    assert rec["command"] == "select-theta"
    assert 1 <= rec["selected_k"] <= rec["rank"]
    assert rec["rmsre_direct"] >= 0.0
    assert isinstance(rec["rejected_fields"], int)
    assert rec["rejected_fields"] >= 0


def test_convergence_small_run(tmp_path, capsys):
    rc = main([
        "convergence", "--output-dir", str(tmp_path),
        "--ref-samples", "16", "--m-list", "4,8", "--seed", "99",
    ])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "convergence.csv")
    assert header == ["M", "err_mean", "err_variance"]
    assert [int(r["M"]) for r in rows] == [4, 8]
    for r in rows:
        assert float(r["err_mean"]) > 0.0
        assert np.isfinite(float(r["err_variance"]))

    rhead, rrows = _read_csv(tmp_path / "reference_moments.csv")
    assert rhead == ["dof", "block", "x", "y", "mean", "variance",
                     "variance_self"]
    assert len(rrows) == 504
    assert {r["block"] for r in rrows} == {"head", "u1", "u2", "pressure"}

    out = capsys.readouterr().out
    assert "slope=" in out
    (rec,) = _ledger_records(tmp_path)
    assert rec["command"] == "convergence"
    assert len(rec["errors"]) == 2
    assert isinstance(rec["rejected_fields"], int)
    assert rec["rejected_fields"] >= 0


def test_convergence_requires_larger_reference(tmp_path, capsys):
    rc = main([
        "convergence", "--output-dir", str(tmp_path),
        "--ref-samples", "8", "--m-list", "4,8",
    ])
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "convergence.csv").exists()


@pytest.mark.parametrize("m_list", ["3,3", "5"])
def test_convergence_rejects_a_single_sample_count(tmp_path, capsys,
                                                   monkeypatch, m_list):
    # the slope needs two distinct M; the run stops before any solve
    def direct(system, m):
        raise AssertionError("solved before the m_list check")

    monkeypatch.setattr(cli, "solve_sample_direct", direct)
    rc = main(["convergence", "--output-dir", str(tmp_path), "--n", "4",
               "--ref-samples", "8", "--m-list", m_list])
    assert rc == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "m_list" in err
    assert not (tmp_path / "convergence.csv").exists()


def test_solve_once_paths_agree(tmp_path, capsys):
    low, direct = tmp_path / "low", tmp_path / "direct"
    assert main(["solve-once", "--output-dir", str(low),
                 "--solver", "lowrank"]) == 0
    assert main(["solve-once", "--output-dir", str(direct),
                 "--solver", "direct"]) == 0

    (sol_low,) = read_solutions(low / "solution.csv")
    (sol_direct,) = read_solutions(direct / "solution.csv")
    assert sol_low.sample_index == 0
    assert sol_low.x.shape == (504,)
    gap = np.linalg.norm(sol_low.x - sol_direct.x)
    assert gap <= 1e-8 * np.linalg.norm(sol_direct.x)

    out = capsys.readouterr().out
    assert "(lowrank)" in out
    assert "(direct)" in out
    residuals = [float(tok.partition("=")[2]) for tok in out.split()
                 if tok.startswith("residual=")]
    assert len(residuals) == 2
    assert max(residuals) <= 1e-9

    for outdir, solver in ((low, "lowrank"), (direct, "direct")):
        (rec,) = _ledger_records(outdir)
        assert rec["command"] == "solve-once"
        assert rec["solver"] == solver
        assert isinstance(rec["rejected_fields"], int)
        assert rec["rejected_fields"] >= 0


def test_solve_once_files_are_deterministic(tmp_path):
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        assert main(["solve-once", "--output-dir", str(d)]) == 0
    assert ((dirs[0] / "solution.csv").read_bytes()
            == (dirs[1] / "solution.csv").read_bytes())


def test_cli_overrides_beat_config_file(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(RunConfig(seed=7, output_dir=str(tmp_path / "orig"))
                        .canonical_string(), encoding="utf-8")
    outdir = tmp_path / "override"
    rc = main(["kl-report", "--config", str(cfg_path),
               "--seed", "11", "--output-dir", str(outdir)])
    assert rc == 0
    (rec,) = _ledger_records(outdir)
    assert rec["seed"] == 11
    assert not (tmp_path / "orig").exists()


def test_flags_and_config_file_give_the_same_run(tmp_path):
    # flags go through the config file's parser: the same settings write
    # the same files and hash to the same config
    outdir = tmp_path / "out"
    settings = [("n", "--n", "4"), ("M", "--samples", "6"),
                ("seed", "--seed", "5"), ("epsilon", "--epsilon", "0.05"),
                ("theta_list", "--theta-list", "1.0,select"),
                ("energy_target", "--energy-target", "0.999"),
                ("output_dir", "--output-dir", str(outdir))]
    flags = [tok for _, flag, value in settings for tok in (flag, value)]
    assert main(["theta-sweep", *flags]) == 0
    written = {p.name: p.read_bytes() for p in outdir.glob("*.csv")}
    assert "theta_sweep.csv" in written
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("".join(f"{key} = {value}\n"
                                for key, _, value in settings),
                        encoding="utf-8")
    assert main(["theta-sweep", "--config", str(cfg_path)]) == 0
    assert {p.name: p.read_bytes() for p in outdir.glob("*.csv")} == written
    by_flags, by_file = _ledger_records(outdir)
    assert by_flags["config_hash"] == by_file["config_hash"]


_RECORD_KEYS = {"command", "config_hash", "seed", "stage_seconds",
                "stage_minflt", "timestamp", "rejected_fields", "environment",
                "peak_rss_mb"}
_ENVIRONMENT_KEYS = {"numpy", "scipy", "blas", "OPENBLAS_NUM_THREADS",
                     "OMP_NUM_THREADS"}
_LOWRANK_STAGES = {"mesh", "kl", "assembly", "gram", "factor_mean",
                   "factorize", "smw_loop"}
# the theta_sweep.csv columns plus the ledger-only ones
_SWEEP_ROW_KEYS = {
    "theta_requested", "theta_effective", "k", "rmsre_formula",
    "rmsre_direct", "energy_ratio", "err_total", "err_darcy", "err_stokes",
    "err_sample_mean", "storage_reduction", "status", "col_dim",
    "span_dim", "factor_bytes", "capacitance_dim", "capacitance_cond_min",
    "capacitance_cond_median", "capacitance_cond_max",
}


@pytest.mark.parametrize("args, keys, stages", [
    (["kl-report"], {"T", "rho_T"}, {"mesh", "kl"}),
    (["theta-sweep", "--samples", "6", "--theta-list", "1.0,select"],
     {"rows", "rank", "gram_support", "perturbation_bytes", "direct_lu"},
     _LOWRANK_STAGES | {"direct_loop", "rmsre"}),
    (["select-theta", "--samples", "6"],
     {"selected_theta", "selected_k", "rank", "gram_support", "span_dim",
      "factor_bytes", "perturbation_bytes", "rmsre_direct",
      "rmsre_formula", "storage_reduction"},
     {"mesh", "kl", "assembly", "gram", "factorize", "rmsre"}),
    (["convergence", "--ref-samples", "8", "--m-list", "3,6"],
     {"selected_theta", "selected_k", "slope", "errors"},
     _LOWRANK_STAGES | {"direct_loop"}),
    (["solve-once", "--solver", "lowrank"],
     {"sample_index", "solver", "xnorm", "residual"}, _LOWRANK_STAGES),
    (["solve-once", "--solver", "direct"],
     {"sample_index", "solver", "xnorm", "residual"},
     {"mesh", "kl", "assembly", "direct_loop"}),
], ids=["kl-report", "theta-sweep", "select-theta", "convergence",
        "solve-once-lowrank", "solve-once-direct"])
def test_ledger_record_schema(tmp_path, args, keys, stages):
    assert main(args + ["--n", "4", "--output-dir", str(tmp_path)]) == 0
    (rec,) = _ledger_records(tmp_path)
    assert rec["command"] == args[0]
    assert set(rec) == _RECORD_KEYS | keys
    assert set(rec["stage_seconds"]) == stages
    # each stage's minor page faults, a count
    assert set(rec["stage_minflt"]) == stages
    assert all(isinstance(f, int) and f >= 0
               for f in rec["stage_minflt"].values())
    assert set(rec["environment"]) == _ENVIRONMENT_KEYS
    assert rec["environment"]["numpy"] == np.__version__
    assert rec["environment"]["scipy"] == scipy.__version__
    # None where numpy < 1.25 cannot name its BLAS
    assert isinstance(rec["environment"]["blas"], (str, type(None)))
    assert rec["peak_rss_mb"] > 0.0
    if "gram_support" in rec:  # the rank of G never exceeds its support
        assert 1 <= rec["rank"] <= rec["gram_support"]
        assert rec["perturbation_bytes"] > 0
        # the span of the 6 perturbations and the bytes of their factors,
        # per sweep row or for the one select-theta factorization
        for r in rec.get("rows", [rec]):
            assert 1 <= r["span_dim"] <= 6
            assert r["factor_bytes"] > 0
    if "rows" in rec:
        assert all(set(row) == _SWEEP_ROW_KEYS for row in rec["rows"])
        # |S| = 35 at n=4: one dense LU per direct sample
        assert rec["direct_lu"] == "dense"
    if "errors" in rec:
        assert all(set(e) == {"M", "err_mean", "err_variance"}
                   for e in rec["errors"])


def test_perturbation_bytes_count_the_shared_pattern_once(tmp_path):
    args = ["--n", "4", "--samples", "6", "--output-dir", str(tmp_path)]
    assert main(["select-theta"] + args) == 0
    (rec,) = _ledger_records(tmp_path)
    cfg = RunConfig(n=4, M=6)
    stages = cli._Stages()
    mesh, kl = cli._build_field(cfg, stages)
    system, _ = cli._family(cfg, stages, mesh, kl, cfg.M, cfg.seed)
    first = system.A_tildes[0]
    assert all(a.indices is first.indices and a.indptr is first.indptr
               for a in system.A_tildes)
    # the block of the six matrices' values plus their one pattern
    assert rec["perturbation_bytes"] == (
        6 * first.data.nbytes + first.indices.nbytes + first.indptr.nbytes)


def test_ledger_blas_is_none_where_numpy_cannot_name_it(tmp_path,
                                                       monkeypatch):
    # numpy < 1.25: show_config prints and takes no mode argument, so
    # mode= raises TypeError; the run goes on and its ledger says null
    monkeypatch.setattr(np, "show_config", lambda: None)
    assert cli._blas() is None
    assert main(["kl-report", "--n", "4", "--output-dir", str(tmp_path)]) == 0
    (rec,) = _ledger_records(tmp_path)
    assert rec["environment"]["blas"] is None
    assert '"blas": null' in (tmp_path / "ledger.jsonl").read_text(
        encoding="utf-8")


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_code_1_for_config_errors(tmp_path, capsys):
    assert main(["kl-report", "--n", "7",
                 "--output-dir", str(tmp_path)]) == 1
    assert main(["kl-report", "--config",
                 str(tmp_path / "missing.cfg")]) == 1
    assert main(["frobnicate"]) == 1                 # unknown subcommand
    assert main([]) == 1                             # subcommand is required
    err = capsys.readouterr().err
    assert "configuration error" in err
    # flag values go through the config file's parser and its messages
    for flag, value, message in (
            ("--n", "eight", "bad value for n: 'eight'"),
            ("--samples", "x", "bad value for M: 'x'"),
            ("--epsilon", "abc", "bad value for epsilon: 'abc'"),
            ("--theta-list", "0.5,zap", "bad theta entry 'zap'"),
            ("--solver", "magic", "solver must be lowrank or direct")):
        assert main(["kl-report", flag, value,
                     "--output-dir", str(tmp_path / "bad")]) == 1
        assert f"configuration error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()
    # a NaN in a config file stops the run before any assembly
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("n = 4\nM = 6\ntheta_list = 1.0\nz = nan\n")
    assert main(["theta-sweep", "--config", str(cfg),
                 "--output-dir", str(tmp_path / "out")]) == 1
    assert "z must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_code_2_for_numerical_failures(monkeypatch, capsys):
    def boom_linalg(cfg):
        raise np.linalg.LinAlgError("factorization blew up")

    monkeypatch.setitem(cli._COMMANDS, "kl-report", boom_linalg)
    assert main(["kl-report"]) == 2

    def boom_runtime(cfg):
        raise RuntimeError("field positivity retries exhausted")

    monkeypatch.setitem(cli._COMMANDS, "kl-report", boom_runtime)
    assert main(["kl-report"]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err


def test_exit_code_2_for_running_out_of_memory(tmp_path, monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError("cannot allocate the right factors")

    monkeypatch.setattr(cli, "factorize", no_memory)
    rc = main(["select-theta", "--n", "4", "--output-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert ("numerical failure: out of memory: "
            "cannot allocate the right factors") in err


def test_exit_code_2_for_a_non_finite_perturbation(tmp_path, monkeypatch,
                                                   capsys):
    real_assemble = cli.assemble_family

    def assemble_family(*args):
        system = real_assemble(*args)
        system.A_tildes[1].data[0] = np.nan
        return system

    monkeypatch.setattr(cli, "assemble_family", assemble_family)
    rc = main(["select-theta", "--n", "4", "--samples", "6",
               "--output-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "numerical failure: perturbation 1 has non-finite entries" in err


def test_exit_code_3_for_io_failures(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n", encoding="utf-8")
    rc = main(["kl-report", "--output-dir", str(blocker / "out")])
    assert rc == 3
    assert "i/o error" in capsys.readouterr().err


def _declared_scripts():
    """The ``[project.scripts]`` table of the checkout's pyproject.toml."""
    toml = tomllib if tomllib is not None else pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        return toml.load(fh)["project"].get("scripts", {})


def test_module_and_script_entry_points():
    proc = subprocess.run(
        [sys.executable, "-m", "sdlowrank", "kl-report", "--n", "7"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "configuration error" in proc.stderr

    # Run the declared `module:function` target with the body of the
    # launcher pip generates for it, so a wrong target fails without an
    # install.
    scripts = _declared_scripts()
    assert "sdlowrank" in scripts
    module, _, func = scripts["sdlowrank"].partition(":")
    launcher = f"import sys\nfrom {module} import {func}\nsys.exit({func}())\n"
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "kl-report", "--n", "7"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "configuration error" in proc.stderr


@pytest.mark.skipif(
    shutil.which("sdlowrank") is None,
    reason="no sdlowrank launcher on PATH; it is made by "
           "`pip install -e \".[test]\"`",
)
def test_installed_console_script():
    script = shutil.which("sdlowrank")
    assert script is not None
    proc = subprocess.run([script, "kl-report", "--n", "7"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "configuration error" in proc.stderr
