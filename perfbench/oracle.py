"""Reference outputs and the row-by-row comparison that feeds ``error_rate``.

A reference holds, for one workload and seed slot, every CSV the experiment
writes.  Tabular files keep their header and rows; exported bridge paths keep
only a SHA-256 of their bytes, since a path must match exactly.  A run's row
passes when it agrees with the reference row by its column's rule and, when a
twin run directory is given (the ``--threads 1`` run for a ``--threads 2``
run, the untraced run for a traced one), is byte-identical to the twin's row.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

INTEGER_COLUMNS = frozenset({"seed", "n", "M", "m", "median", "q05", "q95", "seed_count"})
# 1e-12 relative.  ``mean_b_count`` is a mean of integer counts over the
# sampled paths, so a change of summation order may move its last digit.
RELATIVE_COLUMNS = frozenset({"log_prob", "mean_b_count"})
ABSOLUTE_COLUMNS = frozenset({"cdf"})  # 1e-12 absolute
TOLERANCE = 1e-12


def is_path_file(name: str) -> bool:
    return name.startswith("path-")


def snapshot(run_dir: Path) -> dict[str, Any]:
    """The reference record of every CSV in ``run_dir``."""
    files: dict[str, Any] = {}
    for path in sorted(run_dir.glob("*.csv")):
        data = path.read_bytes()
        if is_path_file(path.name):
            files[path.name] = {"sha256": hashlib.sha256(data).hexdigest()}
        else:
            header, *rows = data.decode(errors="replace").splitlines() or [""]
            files[path.name] = {"header": header, "rows": rows}
    return files


def _cell_ok(column: str, got: str, want: str) -> bool:
    if got == want:
        return True
    if column in INTEGER_COLUMNS:
        return False
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    if not (math.isfinite(g) and math.isfinite(w)):
        return g == w
    if column in RELATIVE_COLUMNS:
        return abs(g - w) <= TOLERANCE * abs(w)
    if column in ABSOLUTE_COLUMNS:
        return abs(g - w) <= TOLERANCE
    return False


def row_ok(columns: list[str], got: str, want: str) -> bool:
    got_cells, want_cells = got.split(","), want.split(",")
    if len(got_cells) != len(columns) or len(want_cells) != len(columns):
        return False
    return all(_cell_ok(c, g, w) for c, g, w in zip(columns, got_cells, want_cells))


@dataclass
class Check:
    """Rows checked and rows failed, with a short note per failing file."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, problem: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if problem is not None and failed:
            self.problems.append(problem)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def _expected_rows(record: dict[str, Any]) -> int:
    return 1 if "sha256" in record else len(record["rows"])


def compare(run_dir: Path | None, reference: dict[str, Any] | None, check: Check,
            label: str, twin: Path | None = None) -> None:
    """Add one run's rows to ``check``.

    A missing run directory (the run failed) fails every reference row; a
    missing reference fails every row the run wrote, and at least one.
    """
    if reference is None:
        written = 0
        if run_dir is not None:
            written = sum(_expected_rows(r) for r in snapshot(run_dir).values())
        check.add(max(written, 1), max(written, 1), f"{label}: no reference for this seed")
        return
    if run_dir is None:
        total = sum(_expected_rows(r) for r in reference.values())
        check.add(total, total, f"{label}: run failed")
        return
    manifest = run_dir / "manifest.json"
    status = json.loads(manifest.read_text()).get("status") if manifest.exists() else None
    if status != "complete":
        total = sum(_expected_rows(r) for r in reference.values())
        check.add(total, total, f"{label}: manifest status {status!r}")
        return
    written = {p.name for p in run_dir.glob("*.csv")}
    for name in sorted(written - set(reference)):
        rows = max(len((run_dir / name).read_text().splitlines()) - 1, 1)
        check.add(rows, rows, f"{label}: unexpected file {name}")
    for name, record in sorted(reference.items()):
        expected = _expected_rows(record)
        path = run_dir / name
        if not path.exists():
            check.add(expected, expected, f"{label}: missing {name}")
            continue
        data = path.read_bytes()
        twin_data = None
        if twin is not None:
            twin_path = twin / name
            twin_data = twin_path.read_bytes() if twin_path.exists() else b""
        if "sha256" in record:
            ok = hashlib.sha256(data).hexdigest() == record["sha256"]
            ok = ok and (twin_data is None or twin_data == data)
            check.add(1, 0 if ok else 1, f"{label}: {name} differs")
            continue
        header, *rows = data.decode(errors="replace").splitlines() or [""]
        if header != record["header"]:
            check.add(max(expected, len(rows)), max(expected, len(rows)),
                      f"{label}: {name} header {header!r}")
            continue
        columns = header.split(",")
        twin_rows = None if twin_data is None else twin_data.decode(errors="replace").splitlines()[1:]
        failed = 0
        for i in range(max(expected, len(rows))):
            if i >= len(rows) or i >= expected:
                failed += 1
                continue
            ok = row_ok(columns, rows[i], record["rows"][i])
            if twin_rows is not None:
                ok = ok and i < len(twin_rows) and twin_rows[i] == rows[i]
            failed += not ok
        if twin_data is not None and twin_data != data:
            failed = max(failed, 1)  # rows agree but the bytes do not (line endings)
        check.add(max(expected, len(rows)), failed, f"{label}: {name} {failed} row(s) differ")


def load_reference(path: Path, slot: int) -> dict[str, Any] | None:
    """The reference for ``slot``, or None when the file or the slot is absent."""
    if not path.exists():
        return None
    return json.loads(path.read_text()).get("slots", {}).get(str(slot))
