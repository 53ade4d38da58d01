"""Run one meetpd CLI command, as ``python -m meetpd.cli`` would.

Usage: python cli_launch.py OUT_JSON MODE ARGS...

Times ``refclock.reference_work`` in this process before and after the
command: the unit its latency is given in.  MODE ``run`` runs the
``meetpd.cli`` module as ``__main__``.  MODE ``trace`` times the import of
meetpd.cli, wraps the layer boundaries with the span tracer and runs
``meetpd.cli.main(ARGS)`` under a root span ``cli.main``.  MODE ``import``
only imports meetpd.cli (a set-up probe).  OUT_JSON gets the mean
reference seconds, the seconds spent timing them (and the spans) before
the process exits with the command's code.  meetpd must be
importable (the benchmark sets PYTHONPATH).
"""

import json
import runpy
import sys
import time

from refclock import ref_seconds


def main():
    out_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    # the host's speed can change while one command runs, so the reference
    # is timed when the command starts and again when it ends
    before, spent = ref_seconds()
    out = {}
    code = 2
    try:
        if mode == "import":
            import meetpd.cli  # noqa: F401
            code = 0
        elif mode == "run":
            sys.argv = ["meetpd.cli", *argv]
            runpy.run_module("meetpd.cli", run_name="__main__", alter_sys=True)
            code = 0
        else:
            from tracer import Tracer
            t0 = time.perf_counter()
            import meetpd.cli
            out["import_s"] = time.perf_counter() - t0
            tracer = Tracer()
            tracer.install()
            code = tracer.call("cli.main", meetpd.cli.main, argv)
            out.update(tracer.export())
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        after, spent_after = ref_seconds()
        out.update(ref_s=(before + after) / 2, ref_spent_s=spent + spent_after)
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(out, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
