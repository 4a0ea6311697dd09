"""Tests of the benchmark itself: work formulas, metric names and the oracle.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import SLOTS, WORKLOADS, seed_offset, slot_of  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _traced_spans() -> list[dict]:
    """Spans of a tiny traced pass through every layer."""
    import rwre.experiments as ex
    from rwre import SiteDistribution

    law = SiteDistribution((0.25, 0.75), (0.1, 0.9))
    t = tracer.Tracer()
    with tracer.installed(t):
        env = ex.sample_environment(law, 3, -8, 8)
        ex.bridge_log_prob(env, 2)
        ex.confined_log_prob(env, 10, 3)
        ex.bridge_max_quantile(env, 4, 0.5)
        ex.max_disp_bridge_cdf(env, 4, [1, 2])
        table = ex.backward_table(env, 4)
        ex.max_disp_samples(env, 4, 5, 0, table=table)
        ex.sample_bridge(env, 4, 1, table=table)
    return t.spans


def test_nominal_work_on_hand_counted_cases():
    assert tracer.bridge_cells({"n": 2}) == 20  # 4 steps x 5 sites
    assert tracer.confined_cells({"steps": 10, "M": 3}) == 50  # 10 steps x 5 sites
    first = {}
    for span in _traced_spans():
        first.setdefault(span["name"], span)
    assert first["kernel.bridge_log_prob"]["work"] == 20  # bridge_log_prob(env, 2)
    assert first["kernel.confined_log_prob"]["work"] == 50  # confined_log_prob(env, 10, 3)
    assert first["environment.sample_environment"]["work"] == 17  # sites -8..8


def test_tracer_restores_every_patched_name():
    import rwre.cli
    import rwre.experiments
    import rwre.kernel
    import rwre.sampling

    before = {(site, layer): getattr(sys.modules[site], layer.rsplit(".", 1)[1])
              for layer, sites in tracer.PATCH_SITES.items() for site in sites}
    _traced_spans()
    for (site, layer), original in before.items():
        assert getattr(sys.modules[site], layer.rsplit(".", 1)[1]) is original


def test_layer_metrics_count_children_and_self_time():
    spans = [
        {"id": 1, "parent": None, "name": "kernel.bridge_max_quantile", "start": 0.0, "end": 1.0},
        {"id": 2, "parent": 1, "name": "kernel.confined_log_prob", "work": 50,
         "start": 0.1, "end": 0.3},
        {"id": 3, "parent": 1, "name": "kernel.confined_log_prob", "work": 50,
         "start": 0.4, "end": 0.6},
    ]
    m = tracer.layer_metrics(spans)
    assert m["kernel.bridge_max_quantile.calls"][0] == 1
    assert m["kernel.bridge_max_quantile.probes_per_call"][0] == 2
    assert m["kernel.bridge_max_quantile.self_s"][0] == pytest.approx(0.6)
    assert m["kernel.confined_log_prob.mcells_per_s"][0] == pytest.approx(100 / 0.4 / 1e6)
    assert m["kernel.bridge_log_prob.calls"][0] == 0


def test_benchmark_declaration_is_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer") for m in spec[kind]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) and m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_emitted_metric_is_declared():
    per_layer = run.per_layer_metrics([tracer.layer_metrics(_traced_spans())], [1], [1.0], [1.1])
    end_to_end = run.end_to_end_metrics({1: [1.0], 2: [1.0]}, {1: [1.0], 2: [1.0]}, [0.1])
    for emitted, kind in ((per_layer, "per_layer"), (end_to_end, "end_to_end")):
        assert {name: unit for name, (_, unit) in emitted.items()} == _declared(kind)
        assert all(NAME.fullmatch(name) for name in emitted)


def _run_dir(tmp_path: Path, files: dict[str, str], status: str = "complete") -> Path:
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text(json.dumps({"status": status}))
    for name, text in files.items():
        (run_dir / name).write_text(text)
    return run_dir


FILES = {
    "maxdisp_cdf.csv": "seed,n,m,cdf\n0,4,1,0.25\n0,4,2,0.75\n",
    "bridge_prob.csv": "seed,n,log_prob\n0,4,-3.5\n",
    "path-s0-n4-0.csv": "k,x\n0,0\n1,1\n2,0\n",
}


def test_identical_run_passes(tmp_path):
    run_dir = _run_dir(tmp_path, FILES)
    check = oracle.Check()
    oracle.compare(run_dir, oracle.snapshot(run_dir), check, "run", twin=run_dir)
    assert (check.attempted, check.failed) == (4, 0)


@pytest.mark.parametrize("name, old, new, fails", [
    ("bridge_prob.csv", "-3.5", "-3.5000000000001", 0),  # 3e-14 relative
    ("bridge_prob.csv", "-3.5", "-3.5000001", 1),
    ("maxdisp_cdf.csv", "0.75", "0.7500000000000005", 0),  # 5e-16 absolute
    ("maxdisp_cdf.csv", "0.75", "0.75000001", 1),
    ("maxdisp_cdf.csv", "0,4,2", "0,4,3", 1),  # integer column
    ("path-s0-n4-0.csv", "1,1", "1,-1", 1),
])
def test_perturbed_reference_value_is_a_failure(tmp_path, name, old, new, fails):
    run_dir = _run_dir(tmp_path, FILES)
    reference = oracle.snapshot(run_dir)
    (run_dir / name).write_text(FILES[name].replace(old, new))
    check = oracle.Check()
    oracle.compare(run_dir, reference, check, "run")
    assert check.failed == fails


def test_twin_that_differs_in_bytes_is_a_failure(tmp_path):
    run_dir = _run_dir(tmp_path, FILES)
    twin = tmp_path / "twin"
    twin.mkdir()
    for name, text in FILES.items():
        (twin / name).write_text(text)
    (twin / "bridge_prob.csv").write_text(FILES["bridge_prob.csv"].replace("-3.5", "-3.50"))
    check = oracle.Check()
    oracle.compare(run_dir, oracle.snapshot(run_dir), check, "run", twin=twin)
    assert check.failed == 1


def test_missing_output_failed_run_and_missing_reference_are_failures(tmp_path):
    run_dir = _run_dir(tmp_path, FILES)
    reference = oracle.snapshot(run_dir)
    (run_dir / "maxdisp_cdf.csv").unlink()
    check = oracle.Check()
    oracle.compare(run_dir, reference, check, "missing file")
    assert (check.attempted, check.failed) == (4, 2)

    check = oracle.Check()
    oracle.compare(None, reference, check, "failed run")
    assert (check.attempted, check.failed) == (4, 4)

    check = oracle.Check()
    oracle.compare(run_dir, None, check, "no reference")
    assert check.attempted == check.failed > 0

    incomplete = tmp_path / "incomplete"
    incomplete.mkdir()
    (incomplete / "manifest.json").write_text(json.dumps({"status": "incomplete"}))
    check = oracle.Check()
    oracle.compare(incomplete, reference, check, "incomplete")
    assert (check.attempted, check.failed) == (4, 4)


def test_every_slot_of_every_workload_has_a_reference():
    for name in WORKLOADS:
        for slot in range(SLOTS):
            ref = oracle.load_reference(BENCH / "reference" / f"{name}.json", slot)
            assert ref, (name, slot)


def test_each_slot_has_its_own_environment_seed():
    assert slot_of(SLOTS + 3) == 3
    assert len({seed_offset(s) for s in range(SLOTS)}) == SLOTS


def test_refuses_more_threads_than_nproc():
    run.require_threads(2, 2)
    with pytest.raises(SystemExit):
        run.require_threads(3, 2)


def test_trimmed_mean_drops_the_outer_tenths():
    assert run.trimmed_mean([1.0, 2.0, 3.0]) == 2.0
    assert run.trimmed_mean([0.0] + [1.0] * 8 + [100.0]) == 1.0
    assert run.trimmed_mean([]) == 0.0
