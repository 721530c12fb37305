"""Experiment driver for the coupled-flow Monte Carlo pipeline.

Subcommands
-----------
kl-report     eigenvalue decay and truncation diagnostics of the random
              conductivity, plus a few realization dumps
theta-sweep   accuracy/cost sweep of the low-rank solve path over a list
              of compression ratios against the direct baseline
select-theta  energy-based choice of the compression ratio, with the
              Gram spectrum emitted for plotting
convergence   statistical-moment convergence in the sample count against
              a larger direct-path reference run
solve-once    end-to-end solve of a single sample (debug/smoke path)

All outputs are UTF-8 CSV files (plus a key-value report); a line-
delimited ledger records config hash, seed, stage timings and headline
metrics for every run.  Given a fixed config and seed, emitted files are
byte-for-byte reproducible; timing lives only in the ledger.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 I/O error.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy

from .assembly import PhysicalParams, assemble_family
from .glram import (
    build_gram,
    factorize,
    numerical_rank,
    rmsre,
    select_theta,
    write_report,
)
from .lowrank_solver import (
    factor_mean,
    save_solutions,
    solve_sample_direct,
    solve_sample_smw,
)
from .mesh import build_mesh
from .randfield import (
    CovarianceKernel,
    build_kl,
    draw_samples,
    realize_conductivity,
)
from .uq import (
    build_xnorm_weights,
    estimate_moments,
    loglog_slope,
    write_moments,
    xnorm,
    xnorm_components,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "cmd_kl_report",
    "cmd_theta_sweep",
    "cmd_select_theta",
    "cmd_convergence",
    "cmd_solve_once",
    "main",
]


class ConfigError(ValueError):
    """Invalid configuration value or file."""


_SELECT = "select"   # theta_list token meaning "energy-selected ratio"


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; round-trips through a key=value file."""

    n: int = 8
    epsilon: float = 0.01
    M: int = 200
    M_ref: int = 400
    m_list: tuple = (25, 50, 100, 200)
    seed: int = 1234
    theta_list: tuple = (1.0, 0.7, 0.5, _SELECT, 0.1, 0.05)
    energy_target: float = 1.0 - 1e-9
    output_dir: str = "runs"
    solver: str = "lowrank"
    nu: float = 1.0
    g: float = 1.0
    alpha: float = 1.0
    z: float = 0.0
    ell2: float = 0.2        # squared correlation length of the covariance
    sample_index: int = 0

    def validate(self):
        for fld in dataclasses.fields(self):
            value = getattr(self, fld.name)
            if fld.type is float and not np.isfinite(value):
                raise ConfigError(f"{fld.name} must be finite, got {value}")
        if self.n < 2 or self.n % 2 != 0:
            raise ConfigError(f"n must be a positive even integer, got {self.n}")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.M < 1 or self.M_ref < 1:
            raise ConfigError("sample counts must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not self.m_list or any(int(m) < 1 for m in self.m_list):
            raise ConfigError("m_list must hold positive sample counts")
        if not self.theta_list:
            raise ConfigError("theta_list must be nonempty")
        for t in self.theta_list:
            if t == _SELECT:
                continue
            if not isinstance(t, float) or not 0.0 < t <= 1.0:
                raise ConfigError(f"theta entries must be in (0, 1], got {t!r}")
        if not 0.0 < self.energy_target <= 1.0:
            raise ConfigError(
                f"energy_target must lie in (0, 1], got {self.energy_target}"
            )
        if self.solver not in ("lowrank", "direct"):
            raise ConfigError(f"solver must be lowrank or direct, got {self.solver!r}")
        if self.nu <= 0 or self.g <= 0 or self.alpha <= 0:
            raise ConfigError("nu, g and alpha must be positive")
        if self.ell2 <= 0:
            raise ConfigError("ell2 must be positive")
        if self.sample_index < 0:
            raise ConfigError("sample_index must be nonnegative")
        return self

    # -- serialization ----------------------------------------------------
    def canonical_string(self):
        lines = []
        for fld in dataclasses.fields(self):
            value = getattr(self, fld.name)
            lines.append(f"{fld.name} = {_format_value(value)}\n")
        return "".join(lines)

    def config_hash(self):
        """The experiment's hash: where its files go is not part of it."""
        kept = dataclasses.replace(self, output_dir=RunConfig.output_dir)
        text = kept.canonical_string()
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @classmethod
    def from_file(cls, path):
        values = {}
        try:
            with open(path, "r", encoding="utf-8") as f:
                lines = f.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        field_types = {f.name: f for f in dataclasses.fields(cls)}
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in field_types:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _parse_value(key, val.strip())
        return cls(**values).validate()


def _format_value(value):
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(key, text):
    if key == "theta_list":
        return parse_theta_list(text)
    if key == "m_list":
        try:
            return tuple(int(tok) for tok in text.split(",") if tok.strip())
        except ValueError as exc:
            raise ConfigError(f"bad m_list entry in {text!r}") from exc
    example = RunConfig.__dataclass_fields__[key].default
    try:
        if isinstance(example, int):
            return int(text)
        if isinstance(example, float):
            return float(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r}") from exc
    return text


def parse_theta_list(text):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok == _SELECT:
            out.append(_SELECT)
        else:
            try:
                out.append(float(tok))
            except ValueError as exc:
                raise ConfigError(f"bad theta entry {tok!r}") from exc
    if not out:
        raise ConfigError("theta_list is empty")
    return tuple(out)


class _Stages:
    """Wall-clock time and minor page faults per pipeline stage."""

    def __init__(self):
        self.times = {}
        self.minflt = {}

    def run(self, name, fn):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        result = fn()
        self.times[name] = self.times.get(name, 0.0) + time.perf_counter() - t0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
        self.minflt[name] = self.minflt.get(name, 0) + faults
        return result


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------

def _build_field(cfg, stages):
    mesh = stages.run("mesh", lambda: build_mesh(n=cfg.n))
    kernel = CovarianceKernel(correlation_length_sq=cfg.ell2)
    kl = stages.run("kl", lambda: build_kl(kernel, mesh, cfg.epsilon))
    return mesh, kl


def _family(cfg, stages, mesh, kl, count, seed):
    """Draw ``count`` fields; return (constrained system, rejected_fields)."""
    samples = draw_samples(kl, count, seed)
    params = PhysicalParams(nu=cfg.nu, g=cfg.g, alpha=cfg.alpha, z=cfg.z)
    system = stages.run(
        "assembly",
        lambda: assemble_family(mesh, params, kl, samples.coefficients),
    )
    return system, samples.rejected_fields


def _gram(stages, system):
    return stages.run(
        "gram", lambda: build_gram(system.A_tildes, block_dim=system.n_flow)
    )


def _direct(stages, system, indices):
    return stages.run(
        "direct_loop",
        lambda: [solve_sample_direct(system, m) for m in indices],
    )


def _lowrank(stages, gram, system, mean, theta, indices):
    """The Woodbury solves of ``indices`` with the factors at ``theta``."""
    factors = stages.run(
        "factorize", lambda: factorize(gram, system.A_tildes, theta)
    )
    return stages.run(
        "smw_loop",
        lambda: [solve_sample_smw(mean, factors, m) for m in indices],
    )


def _blas():
    """Name and version of the BLAS numpy was built with; None on
    numpy < 1.25, whose show_config has no ``mode``."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        return None
    blas = config["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def _ledger(cfg, command, stages, metrics):
    record = {
        "command": command,
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "stage_seconds": {k: round(v, 6) for k, v in stages.times.items()},
        # minor page faults: pages the stage touched for the first time,
        # e.g. buffers the allocator had returned to the system
        "stage_minflt": dict(stages.minflt),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "environment": {
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": _blas(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        },
        # ru_maxrss of this process, in KiB on Linux
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record.update(metrics)
    path = os.path.join(cfg.output_dir, "ledger.jsonl")
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def _out(cfg, name):
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, name)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_kl_report(cfg):
    """Truncation diagnostics of the random conductivity expansion."""
    stages = _Stages()
    mesh, kl = _build_field(cfg, stages)
    spectrum_path = _out(cfg, "kl_spectrum.csv")
    n_rows = min(max(15, kl.T), kl.spectrum.shape[0])
    total = float(np.sum(kl.spectrum))
    cum = np.cumsum(kl.spectrum) / total
    with open(spectrum_path, "w", encoding="utf-8") as f:
        f.write("t,eigenvalue,energy_ratio\n")
        for t in range(n_rows):
            f.write(f"{t + 1},{kl.spectrum[t]:.12e},{cum[t]:.12e}\n")

    samples = draw_samples(kl, 4, cfg.seed)
    fields, _ = realize_conductivity(kl, samples.coefficients)
    paths = [spectrum_path]
    for i in range(4):
        p = _out(cfg, f"sample_field_{i}.csv")
        with open(p, "w", encoding="utf-8") as f:
            f.write("x,y,conductivity\n")
            for (x, y), v in zip(kl.nodes, fields[i]):
                f.write(f"{x:.12e},{y:.12e},{v:.12e}\n")
        paths.append(p)

    print(f"T={kl.T} rho_T={kl.energy_ratio:.6f} "
          f"(target {1.0 - cfg.epsilon:.6f}, nodes {kl.nodes.shape[0]})")
    for p in paths:
        print(f"wrote {p}")
    _ledger(cfg, "kl-report", stages, {
        "T": kl.T,
        "rho_T": kl.energy_ratio,
        "rejected_fields": samples.rejected_fields,
    })
    return 0


_SWEEP_COLS = ("theta_requested", "theta_effective", "k", "rmsre_formula",
               "rmsre_direct", "energy_ratio", "err_total", "err_darcy",
               "err_stokes", "err_sample_mean", "storage_reduction", "status")
# ledger-only columns of each sweep row; the CSV keeps _SWEEP_COLS
_SWEEP_LEDGER_COLS = ("col_dim", "span_dim", "factor_bytes",
                      "capacitance_dim", "capacitance_cond_min",
                      "capacitance_cond_median", "capacitance_cond_max")


def cmd_theta_sweep(cfg):
    """Low-rank accuracy vs. compression against the direct baseline."""
    stages = _Stages()
    mesh, kl = _build_field(cfg, stages)
    system, rejected = _family(cfg, stages, mesh, kl, cfg.M, cfg.seed)
    weights = build_xnorm_weights(mesh)

    gram = _gram(stages, system)
    direct = _direct(stages, system, range(cfg.M))
    # read before factor_mean, which replaces the loop's elimination on a
    # family of several patterns
    direct_lu = system._direct.direct_lu
    ref_moments = estimate_moments(direct, theta=1.0, mesh=mesh)
    mean_factor = stages.run("factor_mean", lambda: factor_mean(system))

    rows = []
    solved = {}   # k_s -> (solutions, state bytes, capacitance order)
    for tok in cfg.theta_list:
        label, theta = f"{tok}", tok
        if tok == _SELECT:
            theta, _ = select_theta(gram, cfg.energy_target)
            label = f"{_SELECT}({theta:.6f})"
        try:
            factors = stages.run(
                "factorize", lambda: factorize(gram, system.A_tildes, theta))
            # rows of equal k_s read the same U[S, :k_s], so their
            # solutions agree to the bit: each k_s is solved once
            if factors.k_s not in solved:
                sols = stages.run("smw_loop", lambda: [
                    solve_sample_smw(mean_factor, factors, m)
                    for m in range(cfg.M)])
                state = mean_factor.woodbury(factors)
                solved[factors.k_s] = sols, state.nbytes, state.dim
            sols, state_bytes, dim = solved[factors.k_s]
            moments = estimate_moments(sols, theta=factors.theta_effective,
                                       mesh=mesh)
            total, darcy, stokes = xnorm_components(
                moments.mean - ref_moments.mean, weights
            )
            per_sample = float(np.mean([
                xnorm(s.x - d.x, weights) for s, d in zip(sols, direct)
            ]))
            conds = [s.capacitance_cond for s in sols]
            rows.append({
                "theta_requested": label,
                "theta_effective": factors.theta_effective,
                "k": factors.k,
                "rmsre_formula": factors.rmsre,
                "rmsre_direct": stages.run(
                    "rmsre", lambda: rmsre(gram, factors)),
                "energy_ratio": factors.energy_ratio,
                "err_total": total,
                "err_darcy": darcy,
                "err_stokes": stokes,
                "err_sample_mean": per_sample,
                "storage_reduction": factors.storage_reduction,
                "status": "ok",
                "col_dim": factors.col_dim,
                "span_dim": factors.span_dim,
                # U[S, :k_s], the span values and Y plus the solver's
                # cached state (its W and Abar^{-1}[K, R] at k_s = |S|)
                "factor_bytes": factors.nbytes + state_bytes,
                "capacitance_dim": dim,   # the order getrf factors
                "capacitance_cond_min": min(conds),
                "capacitance_cond_median": float(np.median(conds)),
                "capacitance_cond_max": max(conds),
            })
        except np.linalg.LinAlgError as exc:  # record it, keep sweeping
            row = dict.fromkeys(_SWEEP_COLS + _SWEEP_LEDGER_COLS,
                                float("nan"))
            row.update(theta_requested=label, k=0, col_dim=0, span_dim=0,
                       capacitance_dim=0, status=f"failed: {exc}")
            rows.append(row)

    path = _out(cfg, "theta_sweep.csv")
    with open(path, "w", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(_SWEEP_COLS)
        for row in rows:
            writer.writerow(_csv_cell(row[c]) for c in _SWEEP_COLS)
    for row in rows:
        print(f"theta={row['theta_requested']} k={row['k']} "
              f"err_total={_csv_cell(row['err_total'])} status={row['status']}")
    print(f"wrote {path}")
    _ledger(cfg, "theta-sweep", stages, {
        "rows": rows,
        "rank": numerical_rank(gram),
        "gram_support": int(gram.support.size),
        "perturbation_bytes": _perturbation_bytes(system),
        "rejected_fields": rejected,
        "direct_lu": direct_lu,
    })
    return 0


def _perturbation_bytes(system):
    """Bytes held by the sparse A_tilde_m (data, indices and indptr),
    each buffer once: the constrained family shares one pattern."""
    held = {(arr.__array_interface__["data"][0], arr.nbytes)
            for a in system.A_tildes for arr in (a.data, a.indices, a.indptr)}
    return sum(nbytes for _, nbytes in held)


def _csv_cell(value):
    if isinstance(value, float):
        return f"{value:.12e}"
    return str(value)


def cmd_select_theta(cfg):
    """Energy-based compression-ratio choice plus spectrum dump."""
    stages = _Stages()
    mesh, kl = _build_field(cfg, stages)
    system, rejected = _family(cfg, stages, mesh, kl, cfg.M, cfg.seed)
    gram = _gram(stages, system)
    theta, k = select_theta(gram, cfg.energy_target)
    factors = stages.run(
        "factorize", lambda: factorize(gram, system.A_tildes, theta)
    )
    rmsre_direct = stages.run("rmsre", lambda: rmsre(gram, factors))
    txt = _out(cfg, "glram_report.txt")
    spectrum = _out(cfg, "gram_spectrum.csv")
    write_report(gram, factors, rmsre_direct, txt, spectrum)

    w = gram.eigenvalues
    rank = numerical_rank(gram)
    cliff = ""
    if 0 < rank < w.size:  # descending: w[rank] is the first under the cutoff
        cliff = (f"; spectral cliff at index {rank} "
                 f"(lambda_{rank + 1}/lambda_1 = {w[rank] / w[0]:.3e})")
    print(f"selected theta={theta:.6f} k={k} rank={rank}{cliff}")
    print(f"wrote {txt}")
    print(f"wrote {spectrum}")
    _ledger(cfg, "select-theta", stages, {
        "selected_theta": theta,
        "selected_k": k,
        "rank": rank,
        "gram_support": int(gram.support.size),
        "span_dim": factors.span_dim,
        "factor_bytes": factors.nbytes,
        "perturbation_bytes": _perturbation_bytes(system),
        "rmsre_direct": rmsre_direct,
        "rmsre_formula": factors.rmsre,
        "storage_reduction": factors.storage_reduction,
        "rejected_fields": rejected,
    })
    return 0


def cmd_convergence(cfg):
    """Moment convergence in M against a larger direct reference run."""
    m_list = tuple(int(m) for m in cfg.m_list)
    m_max = max(m_list)
    if cfg.M_ref <= m_max:
        raise ConfigError(
            f"M_ref={cfg.M_ref} must exceed the largest entry of "
            f"m_list={m_list}"
        )
    if len(set(m_list)) < 2:
        raise ConfigError(f"m_list={m_list} must hold two distinct sample "
                          f"counts for the slope fit")
    stages = _Stages()
    mesh, kl = _build_field(cfg, stages)
    weights = build_xnorm_weights(mesh)

    # reference: independent sample stream through the direct path
    system_ref, rejected_ref = _family(cfg, stages, mesh, kl, cfg.M_ref,
                                       cfg.seed + 1_000_003)
    direct = _direct(stages, system_ref, range(cfg.M_ref))
    ref = estimate_moments(direct, theta=1.0, mesh=mesh)

    # estimates: nested subsets of one master draw, low-rank path
    system_est, rejected_est = _family(cfg, stages, mesh, kl, m_max,
                                       cfg.seed)
    gram = _gram(stages, system_est)
    theta, k = select_theta(gram, cfg.energy_target)
    mean_factor = stages.run("factor_mean", lambda: factor_mean(system_est))
    sols = _lowrank(stages, gram, system_est, mean_factor, theta,
                    range(m_max))

    rows = []
    for m in m_list:
        est = estimate_moments(sols[:m], theta=theta, mesh=mesh,
                               reference_mean=ref.mean)
        err_mean = xnorm(est.mean - ref.mean, weights)
        err_var = xnorm(est.variance - ref.variance, weights)
        rows.append((m, err_mean, err_var))

    slope = loglog_slope([r[0] for r in rows], [r[1] for r in rows])
    path = _out(cfg, "convergence.csv")
    with open(path, "w", encoding="utf-8") as f:
        f.write("M,err_mean,err_variance\n")
        for m, em, ev in rows:
            f.write(f"{m},{em:.12e},{ev:.12e}\n")
    write_moments(_out(cfg, "reference_moments.csv"), ref)
    for m, em, ev in rows:
        print(f"M={m} err_mean={em:.6e} err_variance={ev:.6e}")
    print(f"slope={slope:.4f} theta={theta:.6f} k={k}")
    print(f"wrote {path}")
    _ledger(cfg, "convergence", stages, {
        "selected_theta": theta,
        "selected_k": k,
        "slope": slope,
        "errors": [{"M": m, "err_mean": em, "err_variance": ev}
                   for m, em, ev in rows],
        "rejected_fields": rejected_ref + rejected_est,
    })
    return 0


def cmd_solve_once(cfg):
    """Solve a single sample end to end and dump the solution."""
    stages = _Stages()
    mesh, kl = _build_field(cfg, stages)
    m = cfg.sample_index
    system, rejected = _family(cfg, stages, mesh, kl, m + 1, cfg.seed)
    weights = build_xnorm_weights(mesh)

    if cfg.solver == "direct":
        (sol,) = _direct(stages, system, [m])
    else:
        gram = _gram(stages, system)
        theta, _ = select_theta(gram, cfg.energy_target)
        mean_factor = stages.run("factor_mean", lambda: factor_mean(system))
        (sol,) = _lowrank(stages, gram, system, mean_factor, theta, [m])

    path = _out(cfg, "solution.csv")
    save_solutions(path, [sol])
    total, darcy, stokes = xnorm_components(sol.x, weights)
    a_m = system.A_bar + system.A_tildes[m]
    resid = float(np.linalg.norm(a_m @ sol.x - system.b)
                  / max(np.linalg.norm(system.b), 1e-300))
    print(f"sample {m} ({cfg.solver}): |x|_X={total:.6e} "
          f"head={darcy:.6e} flow={stokes:.6e} residual={resid:.3e}")
    print(f"wrote {path}")
    _ledger(cfg, "solve-once", stages, {
        "sample_index": m,
        "solver": cfg.solver,
        "xnorm": total,
        "residual": resid,
        "rejected_fields": rejected,
    })
    return 0


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


_COMMANDS = {
    "kl-report": cmd_kl_report,
    "theta-sweep": cmd_theta_sweep,
    "select-theta": cmd_select_theta,
    "convergence": cmd_convergence,
    "solve-once": cmd_solve_once,
}


def _build_parser():
    parser = _Parser(
        prog="sdlowrank",
        description="Monte Carlo experiments for the coupled free-flow/"
                    "porous-media system with random conductivity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key = value config file")
        # every other flag is read as text and parsed as a config value
        p.add_argument("--output-dir")
        p.add_argument("--n", help="grid subdivisions per unit length")
        p.add_argument("--epsilon",
                       help="truncation tolerance of the random field")
        p.add_argument("--samples", dest="M")
        p.add_argument("--ref-samples", dest="M_ref")
        p.add_argument("--m-list",
                       help="comma-separated sample counts for convergence")
        p.add_argument("--seed")
        p.add_argument("--theta-list",
                       help="comma-separated ratios; 'select' picks by energy")
        p.add_argument("--energy-target")
        p.add_argument("--solver", help="lowrank or direct")
        p.add_argument("--sample-index")
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        overrides = {
            f.name: _parse_value(f.name, getattr(args, f.name))
            for f in dataclasses.fields(RunConfig)
            if getattr(args, f.name, None) is not None
        }
        cfg = RunConfig()
        if args.config:
            cfg = RunConfig.from_file(args.config)
        cfg = dataclasses.replace(cfg, **overrides).validate()
        return _COMMANDS[args.command](cfg)
    # ahead of ValueError: np.linalg.LinAlgError is a ValueError subclass
    except (np.linalg.LinAlgError, RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"numerical failure: out of memory: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
