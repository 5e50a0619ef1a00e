"""One benchmark repetition, run by ``harness.py`` in a fresh process.

``rep.py setup --kind K --input F --result R`` times the set-up a user
pays before any propagation: import the package, load and validate the
config (or sweep spec), build the mode basis.

``rep.py cli --result R [--trace] [--rerun] -- ARGS...`` calls
``diracpairs.cli.main(ARGS)`` once and times it from call to return.  With
``--trace`` the public functions of the package are wrapped first and the
spans are written next to the result.  With ``--rerun`` (sweeps) the same
command runs again on the filled point cache; the rerun is timed apart and
its CSV/JSON are compared byte for byte with the first run's.

The package is imported from ``src/`` through ``PYTHONPATH``, which the
harness sets the same way the test command does.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import resource
import sys
import time


def _setup(args) -> dict:
    t0 = time.perf_counter()
    import diracpairs
    with open(args.input) as fh:
        data = json.load(fh)
    if args.kind == "sweep":
        config = diracpairs.validate(diracpairs.sweep_spec_from_dict(data).base)
    else:
        config = diracpairs.validate(diracpairs.config_from_dict(data))
    diracpairs.build_basis(config.numerics, config.field)
    return {"setup_s": time.perf_counter() - t0}


def _sweep_outputs(outdir) -> dict:
    out = {}
    for path in sorted(glob.glob(os.path.join(outdir, "sweep_*"))):
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = fh.read()
    return out


def _call(main, argv):
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, time.perf_counter() - t0, buf.getvalue()


def _cli(args) -> dict:
    from diracpairs import cli
    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer().install()
    rc, wall, stdout = _call(cli.main, args.argv)
    result = {"rc": rc, "wall_s": wall, "stdout": stdout,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        from tracer import layer_metrics
        tracer.write(os.path.join(os.path.dirname(args.result), "spans.json"))
        result["layers"] = layer_metrics(tracer.spans)
    if args.rerun:
        outdir = os.environ["DIRACPAIRS_OUTDIR"]
        first = _sweep_outputs(outdir)
        rc2, rerun, _ = _call(cli.main, args.argv)
        result["rerun_s"] = rerun
        result["rerun_identical"] = (rc2 == rc and bool(first)
                                     and _sweep_outputs(outdir) == first)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--kind", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--result", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--rerun", action="store_true")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    result = _setup(args) if args.mode == "setup" else _cli(args)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
