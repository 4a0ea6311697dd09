"""The four benchmark workloads and the mapping from workload seed to CLI input.

Each workload is one ``rwre`` CLI experiment over one environment seed.  The
benchmark's ``--seed`` selects one of ``SLOTS`` seed slots, and slot ``k``
runs the experiment with ``--seed-offset k``, so every slot has an
environment of its own.  Reference outputs are committed for every slot;
slot 0 is the default seed and slot 1 the held-out seed a change is
confirmed on.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

SLOTS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    law: str  # file name under demos/dists
    keys: tuple[tuple[str, str], ...]

    def config_text(self, dists_dir: Path) -> str:
        lines = [f"[{self.experiment}]", f"distribution = {dists_dir / self.law}"]
        lines += [f"{key} = {value}" for key, value in self.keys]
        return "\n".join(lines) + "\n"


# Why each workload exists is recorded in README.md next to this file.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("bridge_wide", "bridge-prob", "nestling_k2.txt", (
            ("n_grid", "2048, 4096, 6144"),
            ("seeds", "0"),
        )),
        Workload("maxdisp_probe", "max-disp-exact", "nestling_k2.txt", (
            ("n_grid", "256, 512, 1024"),
            ("seeds", "0"),
        )),
        Workload("corridor_long", "confined", "marginal.txt", (
            ("n_grid", "8192, 32768"),
            ("m_grid", "8, 16, 32, 64"),
            ("seeds", "0"),
            ("bridge", "true"),
        )),
        Workload("bridge_sampling", "sample-bridge", "nestling_k2.txt", (
            ("n_grid", "512, 2048"),
            ("seeds", "0"),
            ("n_samples", "2000"),
            ("export_paths", "8"),
        )),
    )
}


def slot_of(seed: int) -> int:
    return seed % SLOTS


def seed_offset(seed: int) -> int:
    """The CLI ``--seed-offset`` that workload seed ``seed`` runs with."""
    return slot_of(seed)
