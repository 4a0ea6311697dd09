"""``rwre`` command line: one subcommand per canned experiment.

Every subcommand takes the same four flags::

    rwre <experiment> --config cfg.ini [--out DIR] [--threads K] [--seed-offset U]

The config file is line-oriented ``key = value`` text with one section
per experiment (see :mod:`rwre.experiments` for the schema).  On success
the path of the freshly created run directory is printed to stdout and
the exit code is 0; config errors exit 2, runtime errors exit 1, both
with a message on stderr.

``--threads`` is accepted and validated (K must be at least 1) but
ignored: every experiment runs its tasks serially on one thread.

To keep the fixed cost of a run small, a plain run (the experiment,
then each flag at most once as two tokens, ``--config`` among them) is
read without importing :mod:`argparse`.  Every other argument list goes
to argparse, which builds the whole parser tree, so help, usage errors
and their exit codes are argparse's own.  Small environment windows are
drawn without importing ``numpy.random`` (see
:func:`rwre.environment.sample_environment`).
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .errors import ConfigError, RwreError
from .experiments import EXPERIMENT_NAMES, ExperimentConfig, load_config, run

if TYPE_CHECKING:
    import argparse

_HELP = {
    "kappa": "regime classification, tail exponent, speed, and zero-velocity rate",
    "bridge-prob": "exact log P(X_{2n} = 0) over a seed/n sweep",
    "confined": "exact log-probability of staying inside a strip",
    "max-disp-exact": "exact conditional quantiles and CDF of the bridge maximum",
    "sample-bridge": "draw exact conditioned bridges and summarize displacements",
    "scaling": "fit decay exponents or (log n)^2/n constants to exact series",
    "srw-smalldev": "simple-random-walk small-deviation constant",
    "mgf-check": "exit-time MGF: closed form vs series, and the 1 + C/ell bound",
    "com-check": "change-of-measure identity and sandwich over all bridges",
    "longest-run": "longest run of fair sites per environment window",
    "conjecture-explore": "P(max >= n/(log n)^beta | bridge) across beta (no gate)",
}


_FLAGS = {"--config": "config", "--out": "out", "--threads": "threads",
          "--seed-offset": "seed_offset"}


def build_parser() -> argparse.ArgumentParser:
    """The ``rwre`` parser, with one subparser per experiment."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="rwre",
        description="Exact quenched computations and conditioned-path "
        "sampling for 1-D random walks in random environment.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="experiment")
    for name in EXPERIMENT_NAMES:
        p = sub.add_parser(name, help=_HELP[name], description=_HELP[name])
        p.add_argument("--config", required=True, metavar="PATH",
                       help="config file with a [%s] section" % name)
        p.add_argument("--out", default="runs", metavar="DIR",
                       help="parent directory for run directories (default: runs)")
        p.add_argument("--threads", type=int, default=1, metavar="K",
                       help="accepted and checked (K >= 1) but ignored: "
                       "tasks run serially (default: 1)")
        p.add_argument("--seed-offset", type=int, default=0, metavar="U",
                       help="added (mod 2^64) to every environment seed (default: 0)")
    return parser


def _read_plain(argv: list[str]) -> dict[str, Any] | None:
    """The parsed fields of ``<experiment> --flag value ...``, or None.

    Returns what ``vars(build_parser().parse_args(argv))`` would, for an
    experiment followed by flags of :data:`_FLAGS`, each at most once and
    with a value that does not start with ``-``, ``--config`` among them,
    and integers where argparse's ``type=int`` wants them.  Any other
    ``argv`` gets None, and is left to argparse.
    """
    if not argv or argv[0] not in EXPERIMENT_NAMES or len(argv) % 2 == 0:
        return None
    read = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        key = _FLAGS.get(flag)
        if key is None or key in read or value.startswith("-"):
            return None
        read[key] = value
    if "config" not in read:
        return None
    try:
        for key in ("threads", "seed_offset"):
            if key in read:
                read[key] = int(read[key])
    except ValueError:
        return None
    return {"experiment": argv[0], "out": "runs", "threads": 1, "seed_offset": 0, **read}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv) or vars(build_parser().parse_args(argv))
    try:
        if args["threads"] < 1:
            raise ConfigError("threads must be at least 1")
        params = load_config(args["config"], args["experiment"])
        config = ExperimentConfig(
            experiment=args["experiment"],
            params=params,
            out_root=Path(args["out"]),
            seed_offset=args["seed_offset"],
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        run_dir = run(config)
    except RwreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    print(run_dir)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
