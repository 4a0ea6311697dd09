"""The repository benchmark: time, memory and exactness of one CLI experiment.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each measured experiment runs through ``rwre.cli.main`` in a fresh process
(``child.py``), so every sample pays what a user's CLI call pays.  With
``--trace 0`` the benchmark alternates ``--threads 1`` and ``--threads 2``
runs for about ``S`` seconds and reports the end-to-end metrics.
With ``--trace 1`` it alternates untraced and traced ``--threads 1`` runs and
reports the per-layer metrics of the traced runs.  Every run's CSVs are
checked against the committed reference for the seed's slot (``oracle.py``).

The second-to-last line of standard output is a JSON object with the machine
and provenance fields, ``error_rate`` and every sample; the last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Iterator

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from oracle import Check, compare, load_reference  # noqa: E402
from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload, seed_offset, slot_of  # noqa: E402

THREAD_COUNTS = (1, 2)
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 40
RUN_LIMIT_S = 170  # a benchmark run, however its children fail, ends within 180 s
SCRATCH_DIR = ".perfbench-runs"  # inside the checkout, ignored by git, removed after each run
# Children may cache bytecode, as an installed package does, so that set-up
# time does not depend on whether the caller's environment forbids it.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def require_threads(threads: int, available: int) -> None:
    """Refuse to start more worker threads than the processor set holds."""
    if threads > available:
        raise SystemExit(f"error: {threads} worker threads requested but nproc is {available}")


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and level in ("2", "3"):
            sizes[f"l{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or "unknown"


def machine_fields(root: Path) -> dict[str, Any]:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: {f: deps.get(k, {}).get(f) for f in ("name", "version", "openblas configuration")}
                for k in ("blas", "lapack")}
    except (TypeError, AttributeError):  # numpy older than 1.25 prints only
        blas = {}
    thread_env = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": blas,
        "thread_env": thread_env,
        "git_commit": _git_commit(root),
    }


class Bench:
    """One benchmark invocation: a workload, a seed slot and a scratch directory."""

    def __init__(self, root: Path, workload: Workload, seed: int, scratch: Path) -> None:
        self.root = root
        self.workload = workload
        self.offset = seed_offset(seed)
        self.reference = load_reference(HERE / "reference" / f"{workload.name}.json", slot_of(seed))
        self.scratch = scratch
        self.config = scratch / f"{workload.name}.ini"
        self.config.write_text(workload.config_text(root / "demos" / "dists"))
        self.check = Check()
        self._count = 0
        self._deadline = time.perf_counter() + RUN_LIMIT_S

    def child(self, threads: int, mode: str = "run") -> dict[str, Any]:
        """Run ``child.py`` once; a failure is reported as ``exit`` != 0."""
        self._count += 1
        out = self.scratch / f"out-{self._count}"
        if mode == "trace":
            mode = str(self.scratch / f"spans-{self._count}.json")
        cmd = [sys.executable, str(HERE / "child.py"), str(self.root), str(self.config),
               self.workload.experiment, str(out), str(threads), str(self.offset), mode]
        timeout = min(CHILD_TIMEOUT_S, self._deadline - time.perf_counter())
        if timeout <= 0:
            return {"exit": -1, "error": "benchmark time limit reached", "run_dir": None}
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                                  cwd=self.root, env=CHILD_ENV, check=False)
        except subprocess.TimeoutExpired:
            return {"exit": -1, "error": "timeout", "run_dir": None}
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            return {"exit": done.returncode or -1, "error": done.stderr[-2000:], "run_dir": None}
        result = json.loads(lines[-1])
        if mode not in ("run", "setup"):
            result["spans"] = json.loads(Path(mode).read_text())
        return result

    def verify(self, result: dict[str, Any], label: str, twin: dict[str, Any] | None = None) -> None:
        run_dir = Path(result["run_dir"]) if result.get("run_dir") else None
        if result.get("exit") != 0 and "error" in result:
            self.check.problems.append(f"{label}: {result['error'].strip()[-300:]}")
        twin_dir = Path(twin["run_dir"]) if twin and twin.get("run_dir") else None
        compare(run_dir, self.reference, self.check, label, twin_dir)

    def setup_times(self) -> list[float]:
        times = []
        for _ in range(SETUP_SAMPLES):
            result = self.child(1, "setup")
            if result.get("exit") == 0:
                times.append(result["setup_s"])
        return times


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def trimmed_mean(values: list[float]) -> float:
    """Mean of the values left after dropping the lowest and highest tenth."""
    cut = len(values) // 10
    kept = sorted(values)[cut:len(values) - cut]
    return statistics.fmean(kept) if kept else 0.0


def end_to_end_metrics(walls: dict[int, list[float]], rss: dict[int, list[float]],
                       setup: list[float]) -> dict[str, tuple[float, str]]:
    """End-to-end metrics from the untraced samples, keyed by thread count.

    The machine the benchmark was tuned on runs in two speeds about 1.6x
    apart, switching every few seconds to minutes.  The median of such a mix
    jumps from one speed to the other as the share of slow samples passes
    one half; a mean moves in proportion, so wall times are trimmed means.
    Memory and set-up time are medians.
    """
    return {
        "wall_s": (trimmed_mean(walls[1]), "s"),
        "wall_s_2t": (trimmed_mean(walls[2]), "s"),
        "setup_s": (_median(setup), "s"),
        "peak_rss_mb": (_median(rss[1]), "MB"),
        "peak_rss_mb_2t": (_median(rss[2]), "MB"),
    }


def per_layer_metrics(per_run: list[dict[str, tuple[float, str]]], csv_bytes: list[int],
                      plain: list[float], traced: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced runs, plus output size and tracing cost.

    Layer metrics and output size are low medians over the traced runs, so
    counts stay exact.
    """
    metrics = {name: (statistics.median_low([run[name][0] for run in per_run]), unit)
               for name, (_, unit) in (per_run[0].items() if per_run else [])}
    metrics["experiments.csv_bytes"] = (statistics.median_low(csv_bytes) if csv_bytes else 0, "bytes")
    metrics["trace.overhead_s"] = (_median(traced) - _median(plain), "s")
    return metrics


def _pairs(seconds: float) -> Iterator[int]:
    """Pair numbers, while the next pair is expected to end within ``seconds`` (at least one)."""
    start = time.perf_counter()
    last = 0.0
    pair = 0
    while pair == 0 or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        yield pair
        last = time.perf_counter() - began
        pair += 1


def _discard(*results: dict[str, Any]) -> None:
    for result in results:
        if result.get("run_dir"):
            shutil.rmtree(result["run_dir"], ignore_errors=True)


def run_untraced(bench: Bench, seconds: float) -> tuple[dict[str, tuple[float, str]], dict]:
    """Alternate ``--threads 1`` and ``--threads 2`` runs until ``seconds`` have passed."""
    walls: dict[int, list[float]] = {t: [] for t in THREAD_COUNTS}
    rss: dict[int, list[float]] = {t: [] for t in THREAD_COUNTS}
    setup: list[float] = []
    for pair in _pairs(seconds):
        order = THREAD_COUNTS if pair % 2 == 0 else THREAD_COUNTS[::-1]
        results = {t: bench.child(t) for t in order}
        bench.verify(results[1], f"pair {pair} threads 1")
        bench.verify(results[2], f"pair {pair} threads 2", twin=results[1])
        for t, result in results.items():
            if result.get("exit") == 0:
                walls[t].append(result["wall_s"])
                rss[t].append(result["maxrss_mb"])
                setup.append(result["setup_s"])
        _discard(*results.values())
    setup += bench.setup_times()
    detail = {"pairs": pair + 1, "wall_s_samples": walls, "peak_rss_mb_samples": rss,
              "setup_s_samples": setup}
    return end_to_end_metrics(walls, rss, setup), detail


def run_traced(bench: Bench, seconds: float) -> tuple[dict[str, tuple[float, str]], dict]:
    """Alternate untraced and traced ``--threads 1`` runs until ``seconds`` have passed."""
    plain: list[float] = []
    traced: list[float] = []
    per_run: list[dict[str, tuple[float, str]]] = []
    csv_bytes: list[int] = []
    for pair in _pairs(seconds):
        order = ("run", "trace") if pair % 2 == 0 else ("trace", "run")
        results = {mode: bench.child(1, mode) for mode in order}
        bench.verify(results["run"], f"pair {pair} untraced")
        bench.verify(results["trace"], f"pair {pair} traced", twin=results["run"])
        if results["run"].get("exit") == 0:
            plain.append(results["run"]["wall_s"])
        if results["trace"].get("exit") == 0:
            traced.append(results["trace"]["wall_s"])
            per_run.append(layer_metrics(results["trace"]["spans"]))
            run_dir = Path(results["trace"]["run_dir"])
            csv_bytes.append(sum(p.stat().st_size for p in run_dir.glob("*.csv")))
        _discard(*results.values())
    for name in (per_run[0] if per_run else {}):
        seen = {run[name][0] for run in per_run}
        if name.endswith(".calls") and len(seen) > 1:
            bench.check.add(1, 1, f"{name} differs between traced runs: {sorted(seen)}")
    detail = {"pairs": pair + 1, "untraced_wall_s": plain, "traced_wall_s": traced}
    return per_layer_metrics(per_run, csv_bytes, plain, traced), detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = HERE.parent
    for needed in (root / "src" / "rwre" / "cli.py", root / "demos" / "dists"):
        if not needed.exists():
            print(f"error: {needed} is missing; run from a checkout of the repository",
                  file=sys.stderr)
            return 2
    machine = machine_fields(root)
    require_threads(max(THREAD_COUNTS), machine["nproc"])

    (root / SCRATCH_DIR).mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / SCRATCH_DIR))
    try:
        bench = Bench(root, WORKLOADS[args.workload], args.seed, scratch)
        bench.child(1, "setup")  # warm-up: byte-compiles a fresh checkout, fills the page cache
        if args.trace:
            metrics, detail = run_traced(bench, args.seconds)
        else:
            metrics, detail = run_untraced(bench, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (root / SCRATCH_DIR).rmdir()
        except OSError:
            pass  # another benchmark process is using it
    check = bench.check
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "slot": slot_of(args.seed),
        "seed_offset": bench.offset,
        "trace": args.trace,
        "machine": machine,
        "error_rate": check.error_rate,
        "problems": check.problems[:20],
        **detail,
    }))
    print(json.dumps({
        "correct": check.failed == 0 and check.attempted > 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
