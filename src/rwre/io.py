"""Text formats for site distributions and realized environment windows.

Distribution files are line oriented: each data line holds an
``omega weight`` pair separated by whitespace, ``#`` starts a comment, and
blank lines are ignored.  Environment exports begin with a single
``offset=<lo>`` header line followed by one omega value per line.  All
floats are written with 17 significant digits so a load/dump round trip is
bit exact.
"""

from __future__ import annotations

import os

import numpy as np

from .environment import Environment, SiteDistribution
from .errors import DomainError

__all__ = [
    "load_distribution",
    "dump_distribution",
    "load_environment",
    "dump_environment",
]


def _data_lines(path: str | os.PathLike) -> list[tuple[int, str]]:
    out = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if line:
                    out.append((lineno, line))
    except FileNotFoundError as exc:
        raise DomainError(f"{path}: file not found") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text: {exc}") from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        reason = getattr(exc, "strerror", None) or exc
        raise DomainError(f"{path}: cannot read: {reason}") from exc
    return out


def load_distribution(path: str | os.PathLike) -> SiteDistribution:
    """Parse a distribution file of ``omega weight`` lines."""
    support, weights = [], []
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise DomainError(
                f"{path}:{lineno}: expected 'omega weight', got {line!r}"
            )
        try:
            support.append(float(parts[0]))
            weights.append(float(parts[1]))
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: {exc}") from exc
    if not support:
        raise DomainError(f"{path}: no data lines")
    return SiteDistribution(tuple(support), tuple(weights))


def dump_distribution(dist: SiteDistribution, path: str | os.PathLike) -> None:
    """Write a distribution in the ``omega weight`` line format."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# omega weight\n")
        for v, w in zip(dist.support, dist.weights):
            fh.write(f"{v:.17g} {w:.17g}\n")


def load_environment(path: str | os.PathLike) -> Environment:
    """Parse an environment export (``offset=<lo>`` header, one omega per line)."""
    lines = _data_lines(path)
    if not lines or not lines[0][1].startswith("offset="):
        raise DomainError(f"{path}: missing 'offset=<lo>' header line")
    try:
        offset = int(lines[0][1].split("=", 1)[1])
    except ValueError as exc:
        raise DomainError(f"{path}: bad offset header: {exc}") from exc
    values = []
    for lineno, line in lines[1:]:
        try:
            values.append(float(line))
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: bad omega line: {exc}") from exc
    omegas = np.array(values, dtype=np.float64)
    if omegas.size == 0:
        raise DomainError(f"{path}: no omega lines")
    return Environment(offset, omegas, provenance=f"file:{os.fspath(path)}")


def dump_environment(env: Environment, path: str | os.PathLike) -> None:
    """Write an environment window in the export format."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"offset={env.offset}\n")
        for w in env.omegas:
            fh.write(f"{w:.17g}\n")
