"""Reproducible experiment harness behind the ``rwre`` command line.

Each experiment reads a line-oriented ``key = value`` config file
(INI sections named after the experiment; one table maps every key to
its parser), runs a deterministic sweep over seeds and walk lengths,
and writes headered CSV files plus a ``manifest.json`` sidecar into a
fresh run directory named ``<experiment>-<UTC timestamp>-<config hash
prefix>``.  Identical configs produce byte-identical CSVs; the manifest
records the config hash, parameter echo, effective seeds, package
versions, wall time, any error, and (``bridge-prob``, ``scaling``,
``max-disp-exact``, ``conjecture-explore``) the largest truncation
bound, and is flipped from ``incomplete`` to ``complete`` only when
every output has been written.

Floats are written with 17 significant digits (``%.17g``) and ``\\n``
line endings so outputs are bit-reproducible across platforms.  The one
exception is the ``kappa`` row of the ``kappa`` experiment, which uses
12 fixed decimals.

Every seeded experiment runs its ``(seed, ...)`` tasks through one loop,
:func:`_map_seeded`, which samples each seed's environment once, over
the hull of its tasks' windows, and runs the tasks serially, in task
order, each on a view of its own window.  ``bridge-prob`` and the bridge
``scaling`` run one task per seed, over ``[-max n, max n]``, so that
the ``n`` of its grid can share bridge passes; ``confined`` runs one
task per seed and ``M``, so that the ``n`` probing one corridor share
its squaring chain.  Environments use counter-based per-site keying, so
a seed's realization is the same whatever window a task requests.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import time
from dataclasses import astuple, dataclass
from datetime import datetime, timezone
from functools import partial
from itertools import groupby
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
    Environment,
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
# bridge_log_prob, bridge_max_quantile, confined_log_prob and
# max_disp_bridge_cdf are no longer called here, but perfbench's tracer
# patches the layers under these names
from .kernel import (
    _BridgeLaw,
    _bridge_rows,
    _confined_rows,
    bridge_log_prob,
    bridge_max_quantile,
    confined_log_prob,
    max_disp_bridge_cdf,
)
from .measure_change import verify_com_identity
from .sampling import backward_table, max_disp_samples, sample_bridge

__all__ = ["ExperimentConfig", "EXPERIMENT_NAMES", "load_config", "run"]

_U64 = 1 << 64
_MAX_LIST = 1_000_000  # entries an integer list may expand to


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
            if len(out) + hi - lo >= _MAX_LIST:
                raise ConfigError(f"{key}: more than {_MAX_LIST} entries")
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

_DIST = "distribution"


def _dist_parser(key: str, raw: str, config_dir: Path) -> SiteDistribution:
    path = config_dir / raw.strip()  # an absolute path replaces config_dir
    try:
        return load_distribution(path)
    except DomainError as exc:
        raise ConfigError(f"{key}: {exc}") from None


# key -> parser taking (key, raw); load_config binds the distribution
# parser to the config file's directory.  _REQUIRED keys must be set in
# every section that allows them.
_PARSERS: dict[str, Callable[..., Any]] = {
    _DIST: _dist_parser,
    "expect_regime": _parse_regime,
    "n_grid": _parse_n_grid,
    "seeds": _parse_seeds,
    "truncation": _parse_truncation,
    "m_grid": _parse_int_list,
    "gamma": _parse_float,
    "bridge": _parse_bool,
    "cdf_points": _parse_int,
    "n_samples": _parse_int,
    "sampler_seed": _parse_int,
    "export_paths": _parse_int,
    "mode": lambda key, raw: raw.strip(),
    "x": _parse_int,
    "ell_grid": _parse_int_list,
    "lam_frac": _parse_float,
    "eps_grid": _parse_float_list,
    "bound_ell_grid": _parse_int_list,
    "m": _parse_int,
    "r": _parse_int,
    "value": _parse_float,
    "transform": _parse_bool,
    "beta_grid": _parse_float_list,
}

_REQUIRED = {_DIST, "n_grid", "seeds", "mode", "x", "beta_grid"}

# experiment -> the keys its section may set
_LAW = (_DIST, "expect_regime")
_SWEEP = ("n_grid", "seeds")
_SCHEMAS: dict[str, tuple[str, ...]] = {
    "kappa": _LAW,
    "bridge-prob": (*_LAW, *_SWEEP, "truncation"),
    "confined": (*_LAW, *_SWEEP, "m_grid", "gamma", "bridge"),
    "max-disp-exact": (*_LAW, *_SWEEP, "cdf_points"),
    "sample-bridge": (*_LAW, *_SWEEP, "n_samples", "sampler_seed", "export_paths"),
    "scaling": (*_LAW, *_SWEEP, "mode", "gamma", "truncation"),
    "srw-smalldev": ("n_grid", "x"),
    "mgf-check": ("ell_grid", "lam_frac", "eps_grid", "bound_ell_grid"),
    "com-check": (*_LAW, *_SWEEP, "m"),
    "longest-run": (*_LAW, "seeds", "r", "value", "transform"),
    "conjecture-explore": (*_LAW, *_SWEEP, "beta_grid"),
}

EXPERIMENT_NAMES: tuple[str, ...] = tuple(_SCHEMAS)


def _check_experiment(name: str) -> None:
    if name not in _SCHEMAS:
        names = ", ".join(EXPERIMENT_NAMES)
        raise ConfigError(f"unknown experiment {name!r} (expected one of {names})")


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully parsed experiment invocation.

    ``params`` holds typed values keyed by config-file key; ``out_root``
    is excluded from the config hash, ``seed_offset`` is not.
    """

    experiment: str
    params: dict[str, Any]
    out_root: Path
    seed_offset: int = 0

    def __post_init__(self) -> None:
        _check_experiment(self.experiment)
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
    _check_experiment(experiment)
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
    parsers = {**_PARSERS, _DIST: partial(_dist_parser, config_dir=path.resolve().parent)}
    params: dict[str, Any] = {}
    for key in schema:
        if key in available:
            params[key] = parsers[key](key, available[key])
        elif key in _REQUIRED:
            raise ConfigError(f"[{experiment}]: missing required key {key!r}")
    _validate(experiment, params)
    return params


# key -> least value it, or each of its entries, may take
_LEAST = {"n_samples": 1, "export_paths": 0, "cdf_points": 0, "m_grid": 1, "x": 1,
          "ell_grid": 2, "bound_ell_grid": 2, "m": 1, "r": 1}

# keys that size an allocation or a loop; each may be at most _MAX_LIST
_SIZES = ("n_samples", "export_paths", "cdf_points")

# experiment -> least n_grid entry it can run (0 where unlisted)
_LEAST_N = {"max-disp-exact": 1, "sample-bridge": 1, "srw-smalldev": 1,
            "scaling": 2, "conjecture-explore": 2, "com-check": 1}


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
    if not 0 <= params.get("sampler_seed", 0) < _U64:
        raise ConfigError("sampler_seed must lie in [0, 2^64)")
    for key, least in _LEAST.items():
        value = params.get(key, least)
        if (min(value) if isinstance(value, list) else value) < least:
            raise ConfigError(f"{key} must be at least {least}")
    for key in _SIZES:
        if params.get(key, 0) > _MAX_LIST:
            raise ConfigError(f"{key} must be at most {_MAX_LIST}")
    if not 0.0 < params.get("gamma", 1.0) <= 1.0:
        raise ConfigError("gamma must lie in (0, 1]")
    if "lam_frac" in params and not (0.0 < params["lam_frac"] < 1.0):
        raise ConfigError("lam_frac must lie strictly between 0 and 1")
    if not all(0.0 < e < 1.0 for e in params.get("eps_grid", [])):
        raise ConfigError("eps_grid entries must lie strictly between 0 and 1")
    if not all(b > 0.0 for b in params.get("beta_grid", [])):  # nan too
        raise ConfigError("beta_grid entries must be positive")
    if experiment == "confined" and ("m_grid" in params) == ("gamma" in params):
        raise ConfigError("confined: set exactly one of m_grid and gamma")
    least_n = _LEAST_N.get(experiment, 0)
    if min(params.get("n_grid", [least_n])) < least_n:
        raise ConfigError(f"{experiment} requires n_grid entries >= {least_n}")
    if experiment == "scaling":
        mode = params["mode"]
        if mode not in ("exponent", "lnln"):
            raise ConfigError(f"scaling mode must be 'exponent' or 'lnln', got {mode!r}")
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


# ---------------------------------------------------------------------------
# output plumbing


def _fmt(value: Any) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    return str(value)


class _Outputs:
    """A run directory as a runner writes it.

    ``files`` lists the CSV files in the order they were written;
    ``fields`` holds extra manifest entries, merged in when the run
    completes.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.files: list[str] = []
        self.fields: dict[str, Any] = {}

    def csv(self, name: str, header: str, rows: Iterable[tuple]) -> None:
        lines = (",".join(_fmt(v) for v in row) + "\n" for row in rows)
        self.write(name, header + "\n" + "".join(lines))

    def write(self, name: str, text: str) -> None:
        """Write one CSV file's full text and list it in ``files``."""
        with open(self.path / name, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        self.files.append(name)

    def truncation_bound(self, bounded: Iterable[tuple[float, float]]) -> None:
        """Record, over the ``(log P, log bound)`` pairs of a run's rows,
        the largest log bound on mass dropped by truncation and the
        largest ``log bound - log P`` (both null when nothing was dropped;
        the second also when a row with a bound reads ``P = 0``), and
        whether every row's bound lies below its value."""
        pairs = [(lp, bound) for lp, bound in bounded if bound > -math.inf]
        worst = max((bound for _, bound in pairs), default=None)
        rel = max((bound - lp for lp, bound in pairs), default=-math.inf)
        self.fields["log_discarded_bound"] = worst
        self.fields["log_rel_bound"] = float(rel) if math.isfinite(rel) else None
        self.fields["certified"] = bool(rel < 0.0)


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

    The output directory is excluded; seed offset and the canonical id
    of any loaded distribution are included.
    """
    payload = {
        "experiment": config.experiment,
        "seed_offset": config.seed_offset,
        "params": _param_echo(config),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _map_seeded(
    cfg: ExperimentConfig,
    work: Callable[..., Any],
    tasks: list[tuple] | None = None,
    window: Callable[..., tuple[int, int]] = lambda seed, n: (-n, n),
) -> list:
    """``work(env, *task)`` for every task ``(seed, ...)``, in task order.

    ``env`` is the seed's environment on the sites ``window(*task)``, by
    default ``[-n, n]``, the sites a ``2n``-step bridge can reach.  The
    default tasks are seeds x ``n_grid``, seed-major; the bridge sweeps
    (:func:`_bridge_sweep`) and ``max-disp-exact`` pass one task
    ``(seed,)`` per seed instead.
    Each seed's environment is drawn once for each run of consecutive
    tasks of that seed (once per seed, since every runner's tasks are
    seed-major), over the hull of their windows; each task gets a view of
    its own window.  A site's value depends only on the seed and the site,
    so every task sees the values a draw of its own window would give.
    Tasks run serially on the calling thread.
    """
    dist = cfg.params[_DIST]
    if tasks is None:
        tasks = [(s, n) for s in cfg.effective_seeds() for n in cfg.params["n_grid"]]
    results = []
    for seed, batch in groupby(tasks, key=lambda t: t[0]):
        batch = [(t, window(*t)) for t in batch]
        lo, hi = min(w[0] for _, w in batch), max(w[1] for _, w in batch)
        env = sample_environment(dist, seed, lo, hi)
        results += [work(Environment(a, env.slice(a, b), dist), *t) for t, (a, b) in batch]
    return results


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
# experiment bodies (each writes its CSV files through an _Outputs)


def _run_kappa(cfg: ExperimentConfig, out: _Outputs) -> None:
    dist = cfg.params[_DIST]
    regime = classify(dist)

    def or_nan(solve: Callable[[SiteDistribution], float]) -> float:
        try:
            return solve(dist)
        except RegimeError:
            return math.nan

    kappa, velocity, rate0 = map(or_nan, (solve_kappa, speed, rate_I0))
    rows = [
        ("regime", regime.tag.value),
        ("alpha", regime.alpha),
        ("eta", regime.eta),
        ("kappa", "%.12f" % kappa),
        ("speed", velocity),
        ("rate0", rate0),
    ]
    out.csv("kappa.csv", "quantity,value", rows)


def _bridge_sweep(cfg: ExperimentConfig) -> list[tuple]:
    """``(seed, n, log P, log bound)`` of ``bridge_log_prob`` with the
    config's truncation for every seed and ``n`` of the grid, seed-major:
    one task per seed over ``[-max n, max n]``, whose grid shares passes
    (``kernel._bridge_rows``)."""
    ns, trunc = cfg.params["n_grid"], cfg.params.get("truncation")

    def work(env, seed: int) -> list[tuple]:
        return [(seed, n, *row) for n, row in zip(ns, _bridge_rows(env, ns, trunc))]

    tasks = [(s,) for s in cfg.effective_seeds()]
    chunks = _map_seeded(cfg, work, tasks, window=lambda seed: (-ns[-1], ns[-1]))
    return [row for chunk in chunks for row in chunk]


def _run_bridge_prob(cfg: ExperimentConfig, out: _Outputs) -> None:
    rows = _bridge_sweep(cfg)
    out.csv("bridge_prob.csv", "seed,n,log_prob", [row[:3] for row in rows])
    out.truncation_bound(row[2:] for row in rows)


def _corridor_sweep(cfg: ExperimentConfig, bridge: bool) -> list[tuple]:
    """``(seed, n, M, log P)`` of ``confined_log_prob`` over ``2n`` steps
    (``bridge``) or ``n``, seed-major: one task per seed and ``M``, whose
    corridor serves every ``n`` that probes that ``M`` from one chain."""
    gamma = cfg.params.get("gamma")
    n_grid = cfg.params["n_grid"]

    def m_values(n: int) -> list[int]:
        if gamma is not None:
            return [max(2, round(n**gamma))]
        return cfg.params["m_grid"]

    ns_of: dict[int, list[int]] = {}
    for n in n_grid:
        for m in m_values(n):
            ns_of.setdefault(m, []).append(n)

    def work(env, seed: int, m: int) -> dict[int, float]:
        steps = [2 * n if bridge else n for n in ns_of[m]]
        return dict(zip(ns_of[m], _confined_rows(env.slice(1 - m, m - 1), steps, bridge)))

    seeds = cfg.effective_seeds()
    tasks = [(s, m) for s in seeds for m in ns_of]
    # the corridor reads the sites inside (-M, M) only
    logs = dict(zip(tasks, _map_seeded(cfg, work, tasks, window=lambda seed, m: (1 - m, m - 1))))
    return [(s, n, m, logs[s, m][n]) for s in seeds for n in n_grid for m in m_values(n)]


def _run_confined(cfg: ExperimentConfig, out: _Outputs) -> None:
    rows = _corridor_sweep(cfg, cfg.params.get("bridge", False))
    out.csv("confined.csv", "seed,n,M,log_prob", rows)


def _run_max_disp_exact(cfg: ExperimentConfig, out: _Outputs) -> None:
    """One task per seed over ``[-max n, max n]``, one law per ``n``.  The
    CDF grids run in ascending ``M``, one corridor per ``M`` for every law
    whose grid holds ``M`` below its strip (``kernel._confined_rows``);
    then each law's quantile searches run as they would alone."""
    ns, cdf_points = cfg.params["n_grid"], cfg.params.get("cdf_points", 33)
    # a set, not np.unique, which would import numpy.ma
    grids = {
        n: sorted(set(np.round(np.geomspace(1, n, cdf_points)).astype(np.int64).tolist()))
        for n in ns
    }
    ns_of: dict[int, list[int]] = {}
    for n in ns:
        for m in grids[n]:
            ns_of.setdefault(m, []).append(n)

    def work(env, seed: int) -> list[tuple]:
        laws = {n: _BridgeLaw(env, n) for n in ns}
        for m in sorted(ns_of):
            due = [laws[n] for n in ns_of[m] if laws[n].needs_probe(m)]
            if due:
                joints = _confined_rows(env.slice(1 - m, m - 1), [2 * law.n for law in due], True)
                for law, joint in zip(due, joints):
                    law.record(m, joint)
        results = []
        for n, law in laws.items():
            cdf_rows = [(seed, n, m, law.cdf(m)) for m in grids[n]]
            # the grid's probes bracket each quantile's search
            q05, med, q95 = [law.quantile(q) for q in (0.05, 0.5, 0.95)]
            results.append(((seed, n, med, q05, q95), cdf_rows, law.bridge))
        return results

    tasks = [(s,) for s in cfg.effective_seeds()]
    chunks = _map_seeded(cfg, work, tasks, window=lambda seed: (-ns[-1], ns[-1]))
    results = [r for chunk in chunks for r in chunk]
    out.csv("maxdisp_summary.csv", "seed,n,median,q05,q95", [r[0] for r in results])
    if cdf_points > 0:
        out.csv("maxdisp_cdf.csv", "seed,n,m,cdf", [row for r in results for row in r[1]])
    out.truncation_bound(r[2] for r in results)


def _run_sample_bridge(cfg: ExperimentConfig, out: _Outputs) -> None:
    n_samples = cfg.params.get("n_samples", 1000)
    base = cfg.params.get("sampler_seed", 0)
    export = cfg.params.get("export_paths", 1)
    seeds = cfg.effective_seeds()

    def work(env, seed: int, n: int):
        table = backward_table(env, n)
        draws = max_disp_samples(
            env, n, n_samples, _derived_seed(base, seed, n, 0), table=table
        )
        paths = []
        if seed == seeds[0]:
            paths = [
                sample_bridge(env, n, _derived_seed(base, seed, n, 1 + i), table=table)
                for i in range(export)
            ]
        return seed, n, draws, paths

    # seed-major, so the first seed's paths come first, in n order
    results = _map_seeded(cfg, work)
    summary = []
    for n in cfg.params["n_grid"]:
        draws = [d for _, m, d, _ in results if m == n]
        max_abs, b_counts = map(np.concatenate, zip(*draws))
        q05, med, q95 = np.quantile(max_abs, [0.05, 0.5, 0.95], method="inverted_cdf")
        summary.append(
            (n, len(seeds), int(med), int(q05), int(q95), float(b_counts.mean()))
        )
    out.csv("sampler_summary.csv", "n,seed_count,median,q05,q95,mean_b_count", summary)
    for seed, n, _, paths in results:
        for i, path in enumerate(paths):
            out.write(f"path-s{seed}-n{n}-{i}.csv", "k,x\n" + _path_text(path))


def _path_text(path: np.ndarray) -> str:
    """The rows ``k,x`` of a sampled path, the integer rows :func:`_fmt`
    would write, formatted in one pass."""
    steps = np.arange(path.size, dtype=np.int64)
    return ("%d,%d\n" * path.size) % tuple(np.column_stack((steps, path)).ravel().tolist())


def _run_scaling(cfg: ExperimentConfig, out: _Outputs) -> None:
    dist = cfg.params[_DIST]
    mode = cfg.params["mode"]
    gamma = cfg.params.get("gamma")
    n_grid = cfg.params["n_grid"]
    regime = classify(dist)

    rows = _bridge_sweep(cfg) if gamma is None else [
        (s, n, lp, -math.inf) for s, n, _, lp in _corridor_sweep(cfg, True)
    ]
    out.csv("data.csv", "seed,n,log_prob", [row[:3] for row in rows])
    out.truncation_bound(row[2:] for row in rows)

    target = None
    if mode == "exponent" and regime.tag is Regime.NESTLING:
        kappa = solve_kappa(dist)
        target = kappa / (kappa + 1.0)
    fit_rows = []
    for seed in cfg.effective_seeds():
        lps = [lp for s, _, lp, _ in rows if s == seed]
        if mode == "exponent":
            fit = fit_exponent(n_grid, lps, target)
        else:
            fit = fit_constant_lnln(n_grid, lps, regime.alpha, gamma, rate_I0(dist))
        tgt = math.nan if fit.target is None else fit.target
        resid = fit.residuals()
        out.csv(
            f"fit-s{seed}.csv", "n,raw,transformed,target,residual",
            [
                (n, raw, float(fit.ys[i]), tgt, float(resid[i]))
                for i, (n, raw) in enumerate(zip(n_grid, lps))
            ],
        )
        fit_rows.append((seed, fit.slope, fit.intercept, fit.max_residual, tgt))
    out.csv("fits.csv", "seed,slope,intercept,max_residual,target", fit_rows)


def _run_srw_smalldev(cfg: ExperimentConfig, out: _Outputs) -> None:
    x = cfg.params["x"]
    target = -math.pi**2 / 8.0
    rows = []
    for steps in cfg.params["n_grid"]:
        logp, normalized = srw_smalldev_constant(steps, x)
        rows.append((steps, x, logp, normalized, target))
    out.csv("smalldev.csv", "steps,x,log_prob,normalized,target", rows)


def _run_mgf_check(cfg: ExperimentConfig, out: _Outputs) -> None:
    ells = cfg.params.get("ell_grid", [2, 3, 5])
    frac = cfg.params.get("lam_frac", 0.9)
    rows = []
    for ell in ells:
        lam = frac * lambda_crit(ell)
        closed = exit_mgf_closed(ell, lam)
        dp = exit_mgf_dp(ell, lam)
        rows.append((ell, lam, closed, dp, abs(closed - dp)))
    out.csv("mgf.csv", "ell,lambda,closed,dp,abs_diff", rows)
    bound_rows = []
    for eps in cfg.params.get("eps_grid", [0.05, 0.1, 0.2]):
        for ell in cfg.params.get("bound_ell_grid", [5, 10, 50, 200]):
            lam = lambda_eps(eps, ell)
            mgf = exit_mgf_closed(ell, lam)
            bound = 1.0 + c1_const(eps) / ell
            bound_rows.append((eps, ell, lam, mgf, bound, mgf < bound))
    out.csv("mgf_bound.csv", "eps,ell,lambda,mgf,bound,holds", bound_rows)


def _run_com_check(cfg: ExperimentConfig, out: _Outputs) -> None:
    dist = cfg.params[_DIST]
    m = cfg.params.get("m", 2)

    def work(env, seed: int, n: int):
        return seed, n, [astuple(r) for r in verify_com_identity(env, n, m, dist).rows]

    header = "event,log_lhs,log_rhs,log_lower,log_upper,violation"
    for seed, n, rows in _map_seeded(cfg, work):
        out.csv(f"com-s{seed}-n{n}.csv", header, rows)


def _run_longest_run(cfg: ExperimentConfig, out: _Outputs) -> None:
    dist = cfg.params[_DIST]
    r = cfg.params.get("r", 1_000_000)
    value = cfg.params.get("value", 0.5)
    transform = cfg.params.get("transform", False)
    seeds = cfg.effective_seeds()

    def work(env, seed: int) -> tuple[int, int, int]:
        if transform:
            env = mn_transform(env, dist)
        length, start = longest_fair_run(env, r, value)
        return seed, r, length, -1 if start is None else start

    tasks = [(s,) for s in seeds]
    rows = _map_seeded(cfg, work, tasks, window=lambda seed: (0, max(r - 1, 0)))
    out.csv("runs.csv", "seed,r,length,start", rows)

    law = mn_transform_law(dist) if transform else dist
    weight = 0.0
    for omega, w in zip(law.support, law.weights):
        if omega == value:
            weight = w
            break
    target = math.nan
    if 0.0 < weight < 1.0:
        target = 1.0 / abs(math.log(weight))
    mean_length = float(np.mean([length for _, _, length, _ in rows]))
    mean_ratio = mean_length / math.log(r) if r > 1 else math.nan
    out.csv(
        "runs_summary.csv", "r,seed_count,mean_length,mean_ratio,target",
        [(r, len(seeds), mean_length, mean_ratio, target)],
    )


def _run_conjecture(cfg: ExperimentConfig, out: _Outputs) -> None:
    betas = cfg.params["beta_grid"]

    def corridor(n: int, beta: float) -> int:
        """``round(n / ln(n)**beta)``, at least 1, or ``n + 1`` where it is infinite."""
        try:
            width = n / math.log(n) ** beta
        except OverflowError:  # the power is past the largest double
            return 1
        except ZeroDivisionError:  # ln 2 < 1, and its power underflowed to 0
            return n + 1
        return n + 1 if width == math.inf else max(1, round(width))

    def work(env, seed: int, n: int) -> tuple[list[tuple], tuple[float, float]]:
        law = _BridgeLaw(env, n)
        ms = [corridor(n, beta) for beta in betas]
        return [(seed, n, b, m, 1.0 - law.cdf(m)) for b, m in zip(betas, ms)], law.bridge

    results = _map_seeded(cfg, work)
    rows = [row for chunk, _ in results for row in chunk]
    out.csv("conjecture.csv", "seed,n,beta,M,p_exceed", rows)
    out.truncation_bound(bridge for _, bridge in results)


_RUNNERS: dict[str, Callable[[ExperimentConfig, _Outputs], None]] = {
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
    for k in range(1000):
        candidate = config.out_root / (base if k == 0 else f"{base}-{k}")
        try:
            candidate.mkdir(parents=True)
            return candidate
        except FileExistsError:
            continue
        except OSError as exc:  # out_root is a file, lies under one, or is not writable
            raise RwreError(
                f"cannot create a run directory under {config.out_root}: "
                f"{exc.strerror or exc}"
            ) from None
    raise RwreError(f"could not allocate a fresh run directory under {config.out_root}")


def _write_manifest(run_dir: Path, manifest: dict[str, Any]) -> None:
    with open(run_dir / "manifest.json", "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def run(config: ExperimentConfig) -> Path:
    """Execute one experiment; returns its run directory.

    The run directory is created eagerly with an ``incomplete`` manifest;
    the manifest flips to ``complete`` only after every CSV has been
    written, so interrupted runs are detectable.  Any exception raised by
    the experiment is recorded in the manifest's ``error`` field and
    re-raised.
    """
    digest = config_hash(config)
    run_dir = _make_run_dir(config, digest)
    manifest: dict[str, Any] = {
        "experiment": config.experiment,
        "config_hash": digest,
        "seed_offset": config.seed_offset,
        "params": _param_echo(config),
        "effective_seeds": config.effective_seeds(),
        "status": "incomplete",
        "versions": _versions(),
        "started_utc": datetime.now(timezone.utc).isoformat(),
        "files": [],
    }
    _write_manifest(run_dir, manifest)
    start = time.perf_counter()
    out = _Outputs(run_dir)
    try:
        _RUNNERS[config.experiment](config, out)
    except BaseException as exc:
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        manifest["wall_time_s"] = time.perf_counter() - start
        _write_manifest(run_dir, manifest)
        raise
    manifest.update(out.fields)
    manifest["status"] = "complete"
    manifest["files"] = out.files
    manifest["wall_time_s"] = time.perf_counter() - start
    manifest["finished_utc"] = datetime.now(timezone.utc).isoformat()
    _write_manifest(run_dir, manifest)
    return run_dir
