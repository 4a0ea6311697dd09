"""Text format for site distributions.

Distribution files are line oriented: each data line holds an
``omega weight`` pair separated by whitespace, ``#`` starts a comment, and
blank lines are ignored.  Environments have no file format: a law file,
a seed and a site window reproduce any environment through
:func:`rwre.sample_environment`.
"""

from __future__ import annotations

import os

from .environment import SiteDistribution
from .errors import DomainError

__all__ = ["load_distribution"]


def load_distribution(path: str | os.PathLike) -> SiteDistribution:
    """Parse a distribution file of ``omega weight`` lines."""
    support, weights = [], []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = list(enumerate(fh, start=1))
    except FileNotFoundError as exc:
        raise DomainError(f"{path}: file not found") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text: {exc}") from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        reason = getattr(exc, "strerror", None) or exc
        raise DomainError(f"{path}: cannot read: {reason}") from exc
    for lineno, raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
