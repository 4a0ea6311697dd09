"""Run one ``rwre`` CLI experiment in this fresh process and report what it cost.

Usage::

    python3 perfbench/child.py ROOT CONFIG EXPERIMENT OUT THREADS SEED_OFFSET MODE

``ROOT`` is the checkout whose ``src`` holds the package under test.  MODE is
``setup`` (stop after importing ``rwre`` and parsing the config), ``run``, or
a file path: the call then runs with every traced layer patched and the
recorded spans are written to that file as JSON.  The last line of standard
output is a JSON object with ``setup_s`` (time from process start to an
imported ``rwre`` and a parsed config), ``wall_s`` (time spent in
``rwre.cli.main``), ``maxrss_mb`` (the process's peak resident memory),
``exit`` and ``run_dir``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv: list[str]) -> int:
    root, config, experiment, out, threads, offset, mode = argv
    src = Path(root) / "src"
    sys.path.insert(0, str(src))
    import rwre.cli
    from rwre.experiments import load_config

    load_config(config, experiment)
    setup_s = time.perf_counter() - _T0
    if Path(rwre.__file__).resolve().parent != (src / "rwre").resolve():
        raise SystemExit(f"imported rwre from {rwre.__file__}, not from {src}")
    result = {"setup_s": setup_s, "wall_s": 0.0, "exit": 0, "run_dir": None}
    if mode != "setup":
        tracer = None
        captured = io.StringIO()
        with contextlib.ExitStack() as stack:
            if mode != "run":
                sys.path.insert(0, str(Path(__file__).resolve().parent))
                from tracer import Tracer, installed

                tracer = Tracer()
                stack.enter_context(installed(tracer))
            stack.enter_context(contextlib.redirect_stdout(captured))
            start = time.perf_counter()
            try:
                code = rwre.cli.main([experiment, "--config", config, "--out", out,
                                      "--threads", threads, "--seed-offset", offset])
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code if isinstance(exc.code, int) else 2
            result["wall_s"] = time.perf_counter() - start
        printed = captured.getvalue().strip().splitlines()
        result["exit"] = code
        result["run_dir"] = printed[-1] if code == 0 and printed else None
        if tracer is not None:
            Path(mode).write_text(json.dumps(tracer.spans))
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
