#!/usr/bin/env python3
"""Seeded, single-threaded benchmark of the riskcent command line.

    python3 bench/run.py --workload er-table --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from ``--seed``, then runs whole rounds of its
commands through ``riskcent.cli.main`` in this process until ``--seconds``
have passed, checking every output.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  See bench/README.md.
"""

import os

# One thread for BLAS and OpenMP, set before numpy is first imported: the
# default threading made run-to-run times spread far more than the work.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
TRACES = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 7
# Seconds the calibration task takes on the 2-vCPU virtual machine of the
# reference figures (bench/README.md) when its host is quiet; times are
# reported at that speed (see Calibration).
REFERENCE_CALIBRATION_S = 0.1
WORKLOAD_NAMES = ("er-table", "large-graph", "interlace", "finance")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import riskcent afresh from this checkout's sources."""
    for name in [m for m in sys.modules
                 if m == "riskcent" or m.startswith("riskcent.")]:
        del sys.modules[name]
    cli = importlib.import_module("riskcent.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError("riskcent was imported from %s, not %s"
                          % (cli.__file__, SRC))
    return cli


class Calibration:
    """A fixed task that needs nothing from riskcent, timed between phases.

    On a shared host, other tenants slowed the reference machine by up to
    80 % for minutes at a time, and slowed the task and the commands
    alike.  Each set-up repetition and each timed command is scaled by
    REFERENCE_CALIBRATION_S over the mean of the task times just before
    and just after it, so a time reads as seconds at the speed at which
    the task takes the reference.  The task (small and mid-size symmetric
    eigensolves) was chosen as the one whose time tracked the rounds of all
    four workloads best.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        small = rng.random((100, 100))
        mid = rng.random((500, 500))
        self.small, self.mid = small + small.T, mid + mid.T
        self.samples = [self.measure()]

    def measure(self):
        start = time.perf_counter()
        for _ in range(15):
            np.linalg.eigh(self.small)
        for _ in range(2):
            np.linalg.eigh(self.mid)
        return time.perf_counter() - start

    def scale(self):
        """Factor for the phase since the previous call; takes a sample."""
        self.samples.append(self.measure())
        return 2.0 * REFERENCE_CALIBRATION_S / sum(self.samples[-2:])


def tree_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


class Tally:
    """Operations attempted and failed; a failed check makes the run
    incorrect, a command that exits non-zero only counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures = {}

    def fail(self, what, why, check):
        self.failed += 1
        self.correct = self.correct and not check
        if what not in self.failures:
            print("bench: %s failed: %s" % (what, why), file=sys.stderr)
        self.failures[what] = self.failures.get(what, 0) + 1


def run_round(cli, ops, calibration, tally, tracer):
    """Run one round of the timed and untimed operations.

    Returns the raw and the scaled wall seconds of the timed commands and
    the bytes they wrote.  Each timed command is scaled on its own, by the
    calibration samples taken just before and just after it.
    """
    from workloads import CheckFailed

    wall = scaled = 0.0
    written = 0
    for op in ops:
        if tracer is not None:
            tracer.active = op.timed
        start = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except Exception:
            traceback.print_exc()
            rc = None
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        if op.timed:
            wall += elapsed
            scaled += elapsed * calibration.scale()
            if os.path.isdir(op.out):
                written += tree_bytes(op.out)
        tally.attempted += 1
        if rc != 0:
            tally.fail(op.name, "raised" if rc is None else "exit code %d" % rc,
                       check=False)
            continue
        for name, check in op.checks:
            tally.attempted += 1
            try:
                check(op.out)
            except CheckFailed as exc:
                tally.fail("%s/%s" % (op.name, name), exc, check=True)
            except Exception as exc:  # unreadable or missing output
                tally.fail("%s/%s" % (op.name, name),
                           "%s: %s" % (type(exc).__name__, exc), check=True)
    return wall, scaled, written


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "riskcent", "cli.py")):
        print("error: no riskcent sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # The checks need these anyway; importing them first keeps their import
    # time out of setup_s, which then measures riskcent's own import.
    import scipy.integrate  # noqa: F401
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK)
    try:
        setup = []
        calibration = Calibration()
        folder = os.path.join(work, "inputs")
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(folder, ignore_errors=True)
            os.makedirs(folder)
            start = time.perf_counter()
            cli = import_program()
            ctx = workload.make_inputs(folder, args.seed)
            setup.append((time.perf_counter() - start, calibration.scale()))

        tally = Tally()
        walls = {False: [], True: []}
        layers = []
        first_spans = None
        rounds = 0
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and rounds % 2 == 1
            out = os.path.join(work, "round")
            ops = workload.operations(ctx, out)
            tracer = spans.Tracer() if traced else None
            if tracer is not None:
                tracer.install()
            try:
                wall, scaled, written = run_round(cli, ops, calibration,
                                                  tally, tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            walls[traced].append((wall, scaled))
            if tracer is not None:
                # layers take the round's time-weighted scale
                metrics = {name: v * scaled / wall if name.endswith(".s")
                           else v for name, v in
                           tracer.metrics(workload.replications).items()}
                metrics["cli.output_mb"] = written / 2.0**20
                layers.append(metrics)
                if first_spans is None:
                    first_spans = tracer.spans
            shutil.rmtree(out, ignore_errors=True)
            rounds += 1
            if (time.perf_counter() - start >= args.seconds
                    and (not args.trace or rounds >= 2)):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it

    scaled = {k: [t for _, t in v] for k, v in walls.items()}
    units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
    if args.trace:
        values = {name: median([m[name] for m in layers])
                  for name in units if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (median(scaled[True])
                                      - median(scaled[False]))
        write_trace(args, walls, layers, first_spans)
        report_shares(values, median(scaled[True]))
    else:
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
        values = {
            "setup_s": median([t * f for t, f in setup]),
            "wall_s": median(scaled[False]),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print("bench: %s seed %d: %d rounds, raw setup %s, raw wall %s, "
          "calibration %s"
          % (args.workload, args.seed, rounds, fmt(t for t, _ in setup),
             fmt(t for v in walls.values() for t, _ in v),
             fmt(calibration.samples)), file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def fmt(values):
    return "[%s]" % ", ".join("%.3f" % v for v in values)


def write_trace(args, walls, layers, recorded):
    """Spans of the first traced round (raw seconds) plus every traced
    round's metrics (scaled) and the rounds' (raw, scaled) wall times."""
    os.makedirs(TRACES, exist_ok=True)
    origin = recorded[0][1] if recorded else 0.0
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "untraced_wall_s": walls[False],
        "traced_wall_s": walls[True],
        "rounds": layers,
        "spans": [[name, start - origin, end - origin, parent, value]
                  for name, start, end, parent, value in recorded or []],
    }
    path = os.path.join(TRACES, "trace-%s-seed%d.json"
                        % (args.workload, args.seed))
    with open(path, "w") as fh:
        json.dump(doc, fh)


def report_shares(values, traced_wall):
    """Each layer's self time as a share of the traced wall time."""
    rows = sorted(((v, k) for k, v in values.items()
                   if k.endswith(".s") and v > 0), reverse=True)
    total = sum(v for v, _ in rows)
    for v, k in rows:
        print("bench: %-36s %8.3f s %6.1f %%" % (k, v, 100.0 * v / traced_wall),
              file=sys.stderr)
    print("bench: %-36s %8.3f s %6.1f %%" % ("(outside traced spans)",
                                             traced_wall - total,
                                             100.0 * (1 - total / traced_wall)),
          file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
