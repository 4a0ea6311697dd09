"""Reproducible experiment harness behind the ``rwre`` command line.

Each experiment reads a line-oriented ``key = value`` config file
(INI sections named after the experiment), runs a deterministic sweep
over seeds and walk lengths, and writes headered CSV files plus a
``manifest.json`` sidecar into a fresh run directory named
``<experiment>-<UTC timestamp>-<config hash prefix>``.  Identical
configs produce byte-identical CSVs; the manifest records the config
hash, parameter echo, effective seeds, package versions, and wall time,
and is flipped from ``incomplete`` to ``complete`` only when every
output has been written.

Floats are written with 17 significant digits (``%.17g``) and ``\\n``
line endings so outputs are bit-reproducible across platforms.  The one
exception is the ``kappa`` row of the ``kappa`` experiment, which uses
12 fixed decimals.

Environments are sampled with counter-based per-site keying, so the
realization attached to a seed is identical no matter which window an
individual task requests: one environment per seed, reused across the
whole n-grid.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from .asymptotics import (
    c1_const,
    exit_mgf_closed,
    exit_mgf_dp,
    fit_constant_lnln,
    fit_exponent,
    lambda_crit,
    lambda_eps,
    longest_fair_run,
    srw_smalldev_constant,
)
from .environment import (
    Regime,
    SiteDistribution,
    classify,
    mn_transform,
    mn_transform_law,
    rate_I0,
    sample_environment,
    solve_kappa,
    speed,
)
from .errors import ConfigError, DomainError, RegimeError, RwreError
from .io import load_distribution
from .kernel import (
    bridge_log_prob,
    bridge_max_quantile,
    confined_log_prob,
    max_disp_bridge_cdf,
)
from .measure_change import verify_com_identity
from .sampling import backward_table, max_disp_samples, sample_bridge

__all__ = ["ExperimentConfig", "EXPERIMENT_NAMES", "load_config", "run"]

_U64 = 1 << 64


# ---------------------------------------------------------------------------
# value parsers


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw.strip())
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw.strip())
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _parse_bool(key: str, raw: str) -> bool:
    val = raw.strip().lower()
    if val in ("true", "yes", "on", "1"):
        return True
    if val in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {raw!r}")


def _parse_int_list(key: str, raw: str) -> list[int]:
    """Comma-separated integers; ``a..b`` expands to the inclusive range."""
    out: list[int] = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if ".." in piece:
            lo_s, _, hi_s = piece.partition("..")
            lo, hi = _parse_int(key, lo_s), _parse_int(key, hi_s)
            if hi < lo:
                raise ConfigError(f"{key}: empty range {piece!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(_parse_int(key, piece))
    if not out:
        raise ConfigError(f"{key}: empty list")
    return out


def _parse_float_list(key: str, raw: str) -> list[float]:
    out = [_parse_float(key, p) for p in raw.split(",") if p.strip()]
    if not out:
        raise ConfigError(f"{key}: empty list")
    return out


def _parse_n_grid(key: str, raw: str) -> list[int]:
    grid = _parse_int_list(key, raw)
    if any(n < 0 for n in grid):
        raise ConfigError(f"{key}: entries must be nonnegative")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"{key}: must be strictly ascending")
    return grid


def _parse_seeds(key: str, raw: str) -> list[int]:
    seeds = _parse_int_list(key, raw)
    for s in seeds:
        if not (0 <= s < _U64):
            raise ConfigError(f"{key}: seed {s} outside [0, 2^64)")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"{key}: duplicate seeds")
    return seeds


def _parse_truncation(key: str, raw: str) -> float | None:
    val = raw.strip().lower()
    if val == "auto":
        return None
    if val in ("none", "off"):
        return 0.0
    return _parse_float(key, raw)


def _parse_regime(key: str, raw: str) -> Regime:
    try:
        return Regime(raw.strip())
    except ValueError:
        names = ", ".join(r.value for r in Regime)
        raise ConfigError(f"{key}: unknown regime {raw!r} (expected one of {names})") from None


# ---------------------------------------------------------------------------
# config schema

# key -> (parser taking (key, raw, config_dir), required)
_DIST = "distribution"

_SCHEMAS: dict[str, dict[str, tuple[Callable[..., Any], bool]]] = {}


def _dist_parser(key: str, raw: str, config_dir: Path) -> SiteDistribution:
    path = Path(raw.strip())
    if not path.is_absolute():
        path = config_dir / path
    if not path.exists():
        raise ConfigError(f"{key}: file not found: {path}")
    try:
        return load_distribution(path)
    except (DomainError, OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _simple(parser: Callable[[str, str], Any]) -> Callable[..., Any]:
    return lambda key, raw, _dir: parser(key, raw)


def _schema(name: str, **keys: tuple[Callable[..., Any], bool]) -> None:
    _SCHEMAS[name] = keys


_schema("kappa", distribution=(_dist_parser, True),
        expect_regime=(_simple(_parse_regime), False))
_schema("bridge-prob", distribution=(_dist_parser, True),
        expect_regime=(_simple(_parse_regime), False),
        n_grid=(_simple(_parse_n_grid), True),
        seeds=(_simple(_parse_seeds), True),
        truncation=(_simple(_parse_truncation), False))
_schema("confined", distribution=(_dist_parser, True),
        expect_regime=(_simple(_parse_regime), False),
        n_grid=(_simple(_parse_n_grid), True),
        seeds=(_simple(_parse_seeds), True),
        m_grid=(_simple(_parse_int_list), False),
        gamma=(_simple(_parse_float), False),
        bridge=(_simple(_parse_bool), False))
_schema("max-disp-exact", distribution=(_dist_parser, True),
        expect_regime=(_simple(_parse_regime), False),
        n_grid=(_simple(_parse_n_grid), True),
        seeds=(_simple(_parse_seeds), True),
        cdf_points=(_simple(_parse_int), False))
_schema("sample-bridge", distribution=(_dist_parser, True),
        expect_regime=(_simple(_parse_regime), False),
        n_grid=(_simple(_parse_n_grid), True),
        seeds=(_simple(_parse_seeds), True),
        n_samples=(_simple(_parse_int), False),
        sampler_seed=(_simple(_parse_int), False),
        export_paths=(_simple(_parse_int), False))
_schema("scaling", distribution=(_dist_parser, True),
        expect_regime=(_simple(_parse_regime), False),
        n_grid=(_simple(_parse_n_grid), True),
        seeds=(_simple(_parse_seeds), True),
        mode=(_simple(lambda k, r: r.strip()), True),
        gamma=(_simple(_parse_float), False),
        subtract_rate=(_simple(_parse_bool), False),
        truncation=(_simple(_parse_truncation), False))
_schema("srw-smalldev",
        n_grid=(_simple(_parse_n_grid), True),
        x=(_simple(_parse_int), True))
_schema("mgf-check",
        ell_grid=(_simple(_parse_int_list), False),
        lam_frac=(_simple(_parse_float), False),
        eps_grid=(_simple(_parse_float_list), False),
        bound_ell_grid=(_simple(_parse_int_list), False))
_schema("com-check", distribution=(_dist_parser, True),
        expect_regime=(_simple(_parse_regime), False),
        n_grid=(_simple(_parse_n_grid), True),
        seeds=(_simple(_parse_seeds), True),
        m=(_simple(_parse_int), False))
_schema("longest-run", distribution=(_dist_parser, True),
        expect_regime=(_simple(_parse_regime), False),
        seeds=(_simple(_parse_seeds), True),
        r=(_simple(_parse_int), False),
        value=(_simple(_parse_float), False),
        transform=(_simple(_parse_bool), False))
_schema("conjecture-explore", distribution=(_dist_parser, True),
        expect_regime=(_simple(_parse_regime), False),
        n_grid=(_simple(_parse_n_grid), True),
        seeds=(_simple(_parse_seeds), True),
        beta_grid=(_simple(_parse_float_list), True))

EXPERIMENT_NAMES: tuple[str, ...] = tuple(_SCHEMAS)


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully parsed experiment invocation.

    ``params`` holds typed values keyed by config-file key; ``threads``
    only affects scheduling and is excluded from the config hash, so the
    same config run at any thread count emits identical data files.
    """

    experiment: str
    params: dict[str, Any]
    out_root: Path
    threads: int = 1
    seed_offset: int = 0

    def __post_init__(self) -> None:
        if self.experiment not in _SCHEMAS:
            names = ", ".join(EXPERIMENT_NAMES)
            raise ConfigError(
                f"unknown experiment {self.experiment!r} (expected one of {names})"
            )
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")
        if not (0 <= self.seed_offset < _U64):
            raise ConfigError("seed-offset must lie in [0, 2^64)")

    def effective_seeds(self) -> list[int]:
        return [(s + self.seed_offset) % _U64 for s in self.params.get("seeds", [])]


def load_config(path: str | Path, experiment: str) -> dict[str, Any]:
    """Parse the ``[experiment]`` section of a config file into typed params.

    Keys in ``[DEFAULT]`` are inherited by every section.  Unknown keys,
    missing required keys, malformed values, missing referenced files,
    and a failed ``expect_regime`` assertion all raise :class:`ConfigError`.
    """
    if experiment not in _SCHEMAS:
        names = ", ".join(EXPERIMENT_NAMES)
        raise ConfigError(f"unknown experiment {experiment!r} (expected one of {names})")
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                   comment_prefixes=("#",), inline_comment_prefixes=("#",))
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except (configparser.Error, OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not cp.has_section(experiment):
        raise ConfigError(f"{path}: missing section [{experiment}]")
    schema = _SCHEMAS[experiment]
    own_keys = set(cp.options(experiment)) - set(cp.defaults())
    unknown = own_keys - set(schema)
    if unknown:
        raise ConfigError(
            f"[{experiment}]: unknown key(s) {sorted(unknown)}; "
            f"allowed: {sorted(schema)}"
        )
    available = dict(cp.items(experiment))
    config_dir = path.resolve().parent
    params: dict[str, Any] = {}
    for key, (parser, required) in schema.items():
        if key in available:
            params[key] = parser(key, available[key], config_dir)
        elif required:
            raise ConfigError(f"[{experiment}]: missing required key {key!r}")
    _validate(experiment, params)
    return params


def _validate(experiment: str, params: dict[str, Any]) -> None:
    dist = params.get(_DIST)
    expected = params.get("expect_regime")
    if expected is not None:
        actual = classify(dist).tag
        if actual is not expected:
            raise ConfigError(
                f"expect_regime: distribution classifies as {actual.value}, "
                f"expected {expected.value}"
            )
    trunc = params.get("truncation")
    if trunc is not None and not 0.0 <= trunc < 1.0:
        raise ConfigError("truncation must be auto, off or a number in [0, 1)")
    if params.get("n_samples", 1) < 1:
        raise ConfigError("n_samples must be at least 1")
    if not 0 <= params.get("sampler_seed", 0) < _U64:
        raise ConfigError("sampler_seed must lie in [0, 2^64)")
    for key in ("export_paths", "cdf_points"):
        if params.get(key, 0) < 0:
            raise ConfigError(f"{key} must be nonnegative")
    if experiment == "confined":
        if ("m_grid" in params) == ("gamma" in params):
            raise ConfigError("confined: set exactly one of m_grid and gamma")
        if "gamma" in params and not (0.0 < params["gamma"] <= 1.0):
            raise ConfigError("gamma must lie in (0, 1]")
        if "m_grid" in params and any(m < 1 for m in params["m_grid"]):
            raise ConfigError("m_grid entries must be at least 1")
    if experiment == "scaling":
        mode = params["mode"]
        if mode not in ("exponent", "lnln"):
            raise ConfigError(f"scaling mode must be 'exponent' or 'lnln', got {mode!r}")
        if "gamma" in params and not (0.0 < params["gamma"] <= 1.0):
            raise ConfigError("gamma must lie in (0, 1]")
        if any(n < 2 for n in params["n_grid"]):
            raise ConfigError("scaling requires n_grid entries >= 2")
        if mode == "lnln":
            regime = classify(dist)
            if regime.tag not in (Regime.MARGINALLY_NESTLING, Regime.NON_NESTLING):
                raise ConfigError(
                    "scaling mode=lnln needs a marginally nestling or "
                    f"non-nestling law; got {regime.tag.value}"
                )
            if not (0.0 < regime.alpha < 1.0):
                raise ConfigError(
                    "scaling mode=lnln needs fair-site weight strictly inside (0, 1)"
                )
    if experiment == "srw-smalldev":
        if params["x"] < 1:
            raise ConfigError("x must be at least 1")
        if any(n < 1 for n in params["n_grid"]):
            raise ConfigError("n_grid entries must be at least 1")
    if experiment == "mgf-check":
        for key in ("ell_grid", "bound_ell_grid"):
            if key in params and any(ell < 2 for ell in params[key]):
                raise ConfigError(f"{key} entries must be at least 2")
        if "lam_frac" in params and not (0.0 < params["lam_frac"] < 1.0):
            raise ConfigError("lam_frac must lie strictly between 0 and 1")
        if "eps_grid" in params and any(not 0.0 < e < 1.0 for e in params["eps_grid"]):
            raise ConfigError("eps_grid entries must lie strictly between 0 and 1")
    if experiment == "com-check":
        if any(not 1 <= n <= 8 for n in params["n_grid"]):
            raise ConfigError("com-check enumerates paths; n_grid entries must be in 1..8")
        if params.get("m", 2) < 1:
            raise ConfigError("m must be at least 1")
    if experiment == "longest-run":
        if params.get("r", 1_000_000) < 1:
            raise ConfigError("r must be at least 1")
    if experiment == "conjecture-explore":
        if any(n < 2 for n in params["n_grid"]):
            raise ConfigError("conjecture-explore requires n_grid entries >= 2")
        if any(b <= 0.0 for b in params["beta_grid"]):
            raise ConfigError("beta_grid entries must be positive")


# ---------------------------------------------------------------------------
# output plumbing


def _fmt(value: Any) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    return str(value)


def _write_csv(path: Path, header: str, rows: Iterable[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _hashable(value: Any) -> Any:
    if isinstance(value, SiteDistribution):
        return value.canonical_id()
    if isinstance(value, Regime):
        return value.value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return [_hashable(v) for v in value]
    return value


def _param_echo(config: ExperimentConfig) -> dict[str, Any]:
    return {k: _hashable(v) for k, v in sorted(config.params.items())}


def config_hash(config: ExperimentConfig) -> str:
    """SHA-256 over everything that determines the data outputs.

    Thread count and output directory are excluded; seed offset and the
    canonical id of any loaded distribution are included.
    """
    payload = {
        "experiment": config.experiment,
        "seed_offset": config.seed_offset,
        "params": _param_echo(config),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _map_tasks(fn: Callable[[Any], Any], tasks: list, threads: int) -> list:
    if threads <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, tasks))


def _derived_seed(*parts: int) -> int:
    """Stable u64 derived from integer parts (sampler-stream keying)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def _versions() -> dict[str, str]:
    import platform

    from . import __version__

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rwre": __version__,
    }


# ---------------------------------------------------------------------------
# experiment bodies (each returns the list of CSV file names it wrote)


def _run_kappa(cfg: ExperimentConfig, run_dir: Path) -> list[str]:
    dist = cfg.params[_DIST]
    regime = classify(dist)
    try:
        kappa = solve_kappa(dist)
    except RegimeError:
        kappa = math.nan
    try:
        rate0 = rate_I0(dist)
    except RegimeError:
        rate0 = math.nan
    try:
        velocity = speed(dist)
    except RegimeError:
        velocity = math.nan
    rows = [
        ("regime", regime.tag.value),
        ("alpha", regime.alpha),
        ("eta", regime.eta),
        ("kappa", "%.12f" % kappa),
        ("speed", velocity),
        ("rate0", rate0),
    ]
    _write_csv(run_dir / "kappa.csv", "quantity,value", rows)
    return ["kappa.csv"]


def _run_bridge_prob(cfg: ExperimentConfig, run_dir: Path) -> list[str]:
    dist = cfg.params[_DIST]
    trunc = cfg.params.get("truncation")
    n_grid = cfg.params["n_grid"]
    tasks = [(s, n) for s in cfg.effective_seeds() for n in n_grid]

    def work(task: tuple[int, int]) -> float:
        seed, n = task
        env = sample_environment(dist, seed, -2 * n, 2 * n)
        return bridge_log_prob(env, n, truncation=trunc)

    values = _map_tasks(work, tasks, cfg.threads)
    rows = [(s, n, lp) for (s, n), lp in zip(tasks, values)]
    _write_csv(run_dir / "bridge_prob.csv", "seed,n,log_prob", rows)
    return ["bridge_prob.csv"]


def _run_confined(cfg: ExperimentConfig, run_dir: Path) -> list[str]:
    dist = cfg.params[_DIST]
    bridge = cfg.params.get("bridge", False)
    gamma = cfg.params.get("gamma")
    n_grid = cfg.params["n_grid"]

    def m_values(n: int) -> list[int]:
        if gamma is not None:
            return [max(2, round(n**gamma))]
        return cfg.params["m_grid"]

    tasks = [(s, n, m) for s in cfg.effective_seeds() for n in n_grid for m in m_values(n)]

    def work(task: tuple[int, int, int]) -> float:
        seed, n, m = task
        r = max(2 * n, m)
        env = sample_environment(dist, seed, -r, r)
        steps = 2 * n if bridge else n
        return confined_log_prob(env, steps, m, require_bridge=bridge)

    values = _map_tasks(work, tasks, cfg.threads)
    rows = [(s, n, m, lp) for (s, n, m), lp in zip(tasks, values)]
    _write_csv(run_dir / "confined.csv", "seed,n,M,log_prob", rows)
    return ["confined.csv"]


def _run_max_disp_exact(cfg: ExperimentConfig, run_dir: Path) -> list[str]:
    dist = cfg.params[_DIST]
    cdf_points = cfg.params.get("cdf_points", 33)
    n_grid = cfg.params["n_grid"]
    tasks = [(s, n) for s in cfg.effective_seeds() for n in n_grid]

    def work(task: tuple[int, int]):
        seed, n = task
        env = sample_environment(dist, seed, -2 * n, 2 * n)
        quantiles = [bridge_max_quantile(env, n, q) for q in (0.05, 0.5, 0.95)]
        cdf_rows = []
        if cdf_points > 0:
            grid = np.unique(
                np.round(np.geomspace(1, max(n, 1), cdf_points)).astype(np.int64)
            )
            cdf = max_disp_bridge_cdf(env, n, grid)
            cdf_rows = [(seed, n, int(m), c) for m, c in zip(grid, cdf)]
        return quantiles, cdf_rows

    results = _map_tasks(work, tasks, cfg.threads)
    summary = [
        (s, n, qs[1], qs[0], qs[2]) for (s, n), (qs, _) in zip(tasks, results)
    ]
    _write_csv(run_dir / "maxdisp_summary.csv", "seed,n,median,q05,q95", summary)
    files = ["maxdisp_summary.csv"]
    if cdf_points > 0:
        all_cdf = [row for _, rows in results for row in rows]
        _write_csv(run_dir / "maxdisp_cdf.csv", "seed,n,m,cdf", all_cdf)
        files.append("maxdisp_cdf.csv")
    return files


def _run_sample_bridge(cfg: ExperimentConfig, run_dir: Path) -> list[str]:
    dist = cfg.params[_DIST]
    n_samples = cfg.params.get("n_samples", 1000)
    base = cfg.params.get("sampler_seed", 0)
    export = cfg.params.get("export_paths", 1)
    seeds = cfg.effective_seeds()
    n_grid = cfg.params["n_grid"]
    tasks = [(s, n) for n in n_grid for s in seeds]

    def work(task: tuple[int, int]):
        seed, n = task
        env = sample_environment(dist, seed, -2 * n, 2 * n)
        table = backward_table(env, n)
        draws = max_disp_samples(
            env, n, n_samples, _derived_seed(base, seed, n, 0), table=table
        )
        paths = []
        if seed == seeds[0] and export > 0:
            paths = [
                sample_bridge(env, n, _derived_seed(base, seed, n, 1 + i), table=table)
                for i in range(export)
            ]
        return draws, paths

    results = _map_tasks(work, tasks, cfg.threads)
    by_n = {n: [] for n in n_grid}
    for (seed, n), (draws, _) in zip(tasks, results):
        by_n[n].append(draws)
    summary = []
    for n in n_grid:
        max_abs = np.concatenate([d.max_abs for d in by_n[n]])
        b_counts = np.concatenate([d.b_counts for d in by_n[n]])
        q05, med, q95 = np.quantile(max_abs, [0.05, 0.5, 0.95], method="inverted_cdf")
        summary.append(
            (n, len(seeds), int(med), int(q05), int(q95), float(b_counts.mean()))
        )
    _write_csv(
        run_dir / "sampler_summary.csv",
        "n,seed_count,median,q05,q95,mean_b_count",
        summary,
    )
    files = ["sampler_summary.csv"]
    for (seed, n), (_, paths) in zip(tasks, results):
        for i, path in enumerate(paths):
            name = f"path-s{seed}-n{n}-{i}.csv"
            _write_csv(
                run_dir / name, "k,x",
                [(k, int(x)) for k, x in enumerate(path.sites)],
            )
            files.append(name)
    return files


def _run_scaling(cfg: ExperimentConfig, run_dir: Path) -> list[str]:
    dist = cfg.params[_DIST]
    mode = cfg.params["mode"]
    gamma = cfg.params.get("gamma")
    trunc = cfg.params.get("truncation")
    n_grid = cfg.params["n_grid"]
    seeds = cfg.effective_seeds()
    regime = classify(dist)

    rate0 = 0.0
    if mode == "lnln" and cfg.params.get("subtract_rate", True):
        if regime.tag is Regime.NON_NESTLING:
            rate0 = rate_I0(dist)

    tasks = [(s, n) for s in seeds for n in n_grid]

    def work(task: tuple[int, int]) -> float:
        seed, n = task
        env = sample_environment(dist, seed, -2 * n, 2 * n)
        if gamma is None:
            return bridge_log_prob(env, n, truncation=trunc)
        m = max(2, round(n**gamma))
        return confined_log_prob(env, 2 * n, m, require_bridge=True)

    values = _map_tasks(work, tasks, cfg.threads)
    _write_csv(
        run_dir / "data.csv", "seed,n,log_prob",
        [(s, n, lp) for (s, n), lp in zip(tasks, values)],
    )
    files = ["data.csv"]

    if mode == "exponent":
        target = None
        if regime.tag is Regime.NESTLING:
            kappa = solve_kappa(dist)
            target = kappa / (kappa + 1.0)
    fit_rows = []
    for seed in seeds:
        lps = [lp for (s, _), lp in zip(tasks, values) if s == seed]
        if mode == "exponent":
            fit = fit_exponent(n_grid, lps, target)
        else:
            fit = fit_constant_lnln(n_grid, lps, regime.alpha, gamma, rate0)
        tgt = math.nan if fit.target is None else fit.target
        resid = fit.residuals()
        name = f"fit-s{seed}.csv"
        _write_csv(
            run_dir / name, "n,raw,transformed,target,residual",
            [
                (n, raw, float(fit.ys[i]), tgt, float(resid[i]))
                for i, (n, raw) in enumerate(zip(n_grid, lps))
            ],
        )
        files.append(name)
        fit_rows.append((seed, fit.slope, fit.intercept, fit.max_residual, tgt))
    _write_csv(
        run_dir / "fits.csv", "seed,slope,intercept,max_residual,target", fit_rows
    )
    files.append("fits.csv")
    return files


def _run_srw_smalldev(cfg: ExperimentConfig, run_dir: Path) -> list[str]:
    x = cfg.params["x"]
    target = -math.pi**2 / 8.0
    rows = []
    for steps in cfg.params["n_grid"]:
        logp, normalized = srw_smalldev_constant(steps, x)
        rows.append((steps, x, logp, normalized, target))
    _write_csv(
        run_dir / "smalldev.csv", "steps,x,log_prob,normalized,target", rows
    )
    return ["smalldev.csv"]


def _run_mgf_check(cfg: ExperimentConfig, run_dir: Path) -> list[str]:
    ells = cfg.params.get("ell_grid", [2, 3, 5])
    frac = cfg.params.get("lam_frac", 0.9)
    rows = []
    for ell in ells:
        lam = frac * lambda_crit(ell)
        closed = exit_mgf_closed(ell, lam)
        dp = exit_mgf_dp(ell, lam)
        rows.append((ell, lam, closed, dp, abs(closed - dp)))
    _write_csv(run_dir / "mgf.csv", "ell,lambda,closed,dp,abs_diff", rows)
    bound_rows = []
    for eps in cfg.params.get("eps_grid", [0.05, 0.1, 0.2]):
        for ell in cfg.params.get("bound_ell_grid", [5, 10, 50, 200]):
            lam = lambda_eps(eps, ell)
            mgf = exit_mgf_closed(ell, lam)
            bound = 1.0 + c1_const(eps) / ell
            bound_rows.append((eps, ell, lam, mgf, bound, mgf < bound))
    _write_csv(
        run_dir / "mgf_bound.csv", "eps,ell,lambda,mgf,bound,holds", bound_rows
    )
    return ["mgf.csv", "mgf_bound.csv"]


def _run_com_check(cfg: ExperimentConfig, run_dir: Path) -> list[str]:
    dist = cfg.params[_DIST]
    m = cfg.params.get("m", 2)
    events = [
        ("bridge", None),
        (f"bridge_max_lt_{m}", lambda sites: int(np.max(np.abs(sites))) < m),
    ]
    files = []
    for seed in cfg.effective_seeds():
        for n in cfg.params["n_grid"]:
            env = sample_environment(dist, seed, -2 * n, 2 * n)
            report = verify_com_identity(env, n, events, dist)
            name = f"com-s{seed}-n{n}.csv"
            _write_csv(
                run_dir / name,
                "event,lhs,rhs,lower,upper,max_abs_violation",
                [
                    (r.event, r.lhs, r.rhs, r.lower, r.upper, r.max_abs_violation)
                    for r in report.rows
                ],
            )
            files.append(name)
    return files


def _run_longest_run(cfg: ExperimentConfig, run_dir: Path) -> list[str]:
    dist = cfg.params[_DIST]
    r = cfg.params.get("r", 1_000_000)
    value = cfg.params.get("value", 0.5)
    transform = cfg.params.get("transform", False)
    seeds = cfg.effective_seeds()

    def work(seed: int) -> tuple[int, int | None]:
        env = sample_environment(dist, seed, 0, max(r - 1, 0))
        if transform:
            env = mn_transform(env, dist)
        return longest_fair_run(env, r, value)

    results = _map_tasks(work, seeds, cfg.threads)
    rows = [
        (seed, r, length, -1 if start is None else start)
        for seed, (length, start) in zip(seeds, results)
    ]
    _write_csv(run_dir / "runs.csv", "seed,r,length,start", rows)

    law = mn_transform_law(dist) if transform else dist
    weight = 0.0
    for omega, w in zip(law.support, law.weights):
        if omega == value:
            weight = w
            break
    target = math.nan
    if 0.0 < weight < 1.0:
        target = 1.0 / abs(math.log(weight))
    mean_length = float(np.mean([length for length, _ in results]))
    mean_ratio = mean_length / math.log(r) if r > 1 else math.nan
    _write_csv(
        run_dir / "runs_summary.csv",
        "r,seed_count,mean_length,mean_ratio,target",
        [(r, len(seeds), mean_length, mean_ratio, target)],
    )
    return ["runs.csv", "runs_summary.csv"]


def _run_conjecture(cfg: ExperimentConfig, run_dir: Path) -> list[str]:
    dist = cfg.params[_DIST]
    betas = cfg.params["beta_grid"]
    n_grid = cfg.params["n_grid"]
    tasks = [(s, n) for s in cfg.effective_seeds() for n in n_grid]

    def work(task: tuple[int, int]) -> list[tuple]:
        seed, n = task
        env = sample_environment(dist, seed, -2 * n, 2 * n)
        ms = [max(1, round(n / math.log(n) ** beta)) for beta in betas]
        cdf = max_disp_bridge_cdf(env, n, ms)
        return [(seed, n, b, m, 1.0 - c) for b, m, c in zip(betas, ms, cdf)]

    results = _map_tasks(work, tasks, cfg.threads)
    rows = [row for chunk in results for row in chunk]
    _write_csv(run_dir / "conjecture.csv", "seed,n,beta,M,p_exceed", rows)
    return ["conjecture.csv"]


_RUNNERS: dict[str, Callable[[ExperimentConfig, Path], list[str]]] = {
    "kappa": _run_kappa,
    "bridge-prob": _run_bridge_prob,
    "confined": _run_confined,
    "max-disp-exact": _run_max_disp_exact,
    "sample-bridge": _run_sample_bridge,
    "scaling": _run_scaling,
    "srw-smalldev": _run_srw_smalldev,
    "mgf-check": _run_mgf_check,
    "com-check": _run_com_check,
    "longest-run": _run_longest_run,
    "conjecture-explore": _run_conjecture,
}


def _make_run_dir(config: ExperimentConfig, digest: str) -> Path:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    base = f"{config.experiment}-{stamp}-{digest[:8]}"
    config.out_root.mkdir(parents=True, exist_ok=True)
    for k in range(1000):
        candidate = config.out_root / (base if k == 0 else f"{base}-{k}")
        try:
            candidate.mkdir()
            return candidate
        except FileExistsError:
            continue
    raise RwreError(f"could not allocate a fresh run directory under {config.out_root}")


def _write_manifest(run_dir: Path, manifest: dict[str, Any]) -> None:
    with open(run_dir / "manifest.json", "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def run(config: ExperimentConfig) -> tuple[int, Path | None]:
    """Execute one experiment; returns ``(exit_code, run_dir)``.

    The run directory is created eagerly with an ``incomplete`` manifest;
    the manifest flips to ``complete`` only after every CSV has been
    written, so interrupted runs are detectable.  Exit code 0 means
    complete; any exception raised by the experiment is recorded in the
    manifest's ``error`` field and re-raised.
    """
    digest = config_hash(config)
    run_dir = _make_run_dir(config, digest)
    manifest: dict[str, Any] = {
        "experiment": config.experiment,
        "config_hash": digest,
        "seed_offset": config.seed_offset,
        "threads": config.threads,
        "params": _param_echo(config),
        "effective_seeds": config.effective_seeds(),
        "status": "incomplete",
        "versions": _versions(),
        "started_utc": datetime.now(timezone.utc).isoformat(),
        "files": [],
    }
    _write_manifest(run_dir, manifest)
    start = time.perf_counter()
    try:
        files = _RUNNERS[config.experiment](config, run_dir)
    except BaseException as exc:
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        manifest["wall_time_s"] = time.perf_counter() - start
        _write_manifest(run_dir, manifest)
        raise
    manifest["status"] = "complete"
    manifest["files"] = files
    manifest["wall_time_s"] = time.perf_counter() - start
    manifest["finished_utc"] = datetime.now(timezone.utc).isoformat()
    _write_manifest(run_dir, manifest)
    return 0, run_dir
