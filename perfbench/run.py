"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload fleet_mix --seed 1 --seconds 20 --trace 0

Run from the repository root; the program under test is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics with no
instrumentation.  ``--trace 1`` wraps every layer's entry points (see
``perfbench/layers.py``), reports the per-layer breakdown instead, and
writes the spans of the timed phase as a Chrome trace to
``.perfbench/trace-<workload>-<seed>.json``.

An untraced run serves a closed loop of operations on one set-up copy
for ``--seconds``, in ``SEGMENTS`` stretches with a spare set-up
between two of them (``setup_s`` is the median of all its set-ups),
then replays the first operations on a second copy and requires every
deterministic output to match.  Its times are given at the reference
pace of ``perfbench/pace.py``, which is sampled throughout.  A traced
run alternates: blocks of operations on a traced copy, each followed by
the same operations on an untraced copy, so tracing is checked not to
change behaviour and its cost is measured on identical work.  The deterministic outputs are also
recorded under ``.perfbench/`` and compared on any later run of the same
seed against the same source tree.  Any wrong output, divergence or
expired deadline makes the run exit non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import resource
import signal
import sys
import time

from layers import BENCH_KEY

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench"

#: Whole-run deadline; a run must end well inside three minutes.
DEADLINE_S = 165

#: The untraced timed phase is served in this many stretches with a
#: spare set-up between two of them, so that set-up time is sampled
#: across the whole run rather than in one spell of host speed.
SEGMENTS = 2

#: A traced run alternates traced and untraced blocks of about this long.
BLOCK_S = 1.0


class DeadlineExpired(Exception):
    """The run's deadline passed; carries where it was."""


class Phase:
    """Where the run is, for the deadline report."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.name = "start"
        self.tracer = None

    def describe(self) -> str:
        where = f"workload {self.workload}, phase {self.name}"
        span = self.tracer.innermost() if self.tracer is not None else None
        return f"{where}, last open span {span or self.name}"


def arm_deadline(phase: Phase, seconds: float) -> None:
    def expire(signum, frame):
        raise DeadlineExpired(f"deadline of {seconds:.0f}s expired: {phase.describe()}")

    signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)


def source_digest() -> str:
    """Hash of the program's and the benchmark's sources.

    Keys the cross-run record, so a record is only ever compared with
    runs of exactly the same code.
    """
    digest = hashlib.sha256()
    files = list((ROOT / "src" / "repro").rglob("*.py")) + list(HERE.glob("*.py"))
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def first_divergence(a: dict, b: dict) -> str | None:
    """The first deterministic field that differs between two records."""
    for key in sorted(set(a) | set(b)):
        if a.get(key, "<missing>") != b.get(key, "<missing>"):
            return f"{key}: {a.get(key, '<missing>')!r} != {b.get(key, '<missing>')!r}"
    return None


def machine_totals(instance) -> dict:
    """Summed simulated counters of every machine of an instance."""
    totals = {"instructions": 0, "cycles": 0}
    for machine in instance.machines():
        for core in machine.cores:
            totals["instructions"] += core.instructions_retired
            totals["cycles"] += core.cycles
    return totals


class Loop:
    """Closed loop of operations on one set-up copy, one outstanding at a time.

    The loop may be served in several stretches (see :meth:`serve`);
    ``wall`` sums them.  The deterministic record is taken right after
    the first ``workload.prefix_ops`` operations.
    """

    def __init__(self, workload, instance, phase: Phase, label: str, tracer=None) -> None:
        self.workload = workload
        self.instance = instance
        self.phase = phase
        self.label = label
        self.tracer = tracer
        self.latencies_ns: list[float] = []
        #: ``(start, end)`` of every operation and of every stretch, in
        #: ``time.perf_counter_ns``.
        self.op_spans: list[tuple[int, int]] = []
        self.stretches: list[tuple[int, int]] = []
        self.problems: list[str] = []
        self.failed = 0
        self.wall = 0.0
        self.prefix_record: dict = {}
        self.prefix_counters: dict = {}
        #: Deterministic record before the first operation.
        self.start_record = instance.deterministic()
        self.before = machine_totals(instance)
        #: Tracer totals around the timed phase (traced runs only).
        self.window_start: dict = {}
        self.window_end: dict = {}

    @property
    def ops(self) -> int:
        return len(self.latencies_ns)

    @property
    def instructions(self) -> int:
        """Simulated instructions retired by this copy's operations."""
        return machine_totals(self.instance)["instructions"] - self.before["instructions"]

    def serve(self, seconds: float = 0.0, until: int | None = None) -> None:
        """Serve operations up to ``until`` in all, or else for ``seconds``.

        A stretch timed by ``seconds`` runs at least one operation and
        does not end before the deterministic prefix is complete.
        """
        clock = time.perf_counter_ns
        start = clock()
        deadline = start + int(seconds * 1e9)
        prefix = self.workload.prefix_ops
        while until is None or self.ops < until:
            self._op(clock)
            if self.ops == prefix:
                self.prefix_record = self.instance.deterministic()
                after = machine_totals(self.instance)
                self.prefix_counters = {k: after[k] - self.before[k] for k in after}
            if until is None and self.ops >= prefix and clock() >= deadline:
                break
        end = clock()
        self.stretches.append((start, end))
        self.wall += (end - start) / 1e9

    def _op(self, clock) -> None:
        index = self.ops
        self.phase.name = f"{self.label} op {index}"
        tracer = self.tracer
        t0 = clock()
        if tracer is not None:
            tracer.trace_id = f"{self.workload.name}-op{index:05d}"
            frame = tracer.begin(BENCH_KEY, f"{self.workload.name}.op", t0)
        problems = self.instance.op(index)
        t1 = clock()
        if tracer is not None:
            tracer.end(frame, t1)
        self.op_spans.append((t0, t1))
        if problems:
            self.failed += 1
            self.problems += [f"op {index}: {p}" for p in problems]
            self.latencies_ns.append(math.inf)
        else:
            self.latencies_ns.append(t1 - t0)


def alternate(traced: Loop, untraced: Loop, installation, seconds: float) -> None:
    """Serve the same operations traced and untraced, in alternating blocks.

    Each traced block runs for about ``BLOCK_S``; then the wrappers come
    off and the untraced copy runs the same operations.  Both copies
    see the same spells of host speed, so the ratio of their walls is
    the cost of tracing.  Stops once the two walls add up to ``seconds``.
    """
    tracer = traced.tracer
    traced.window_start = tracer.totals()
    tracer.keeping = True
    while traced.wall + untraced.wall < seconds:
        installation.apply()
        traced.serve(seconds=BLOCK_S)
        installation.undo()
        untraced.serve(until=traced.ops)
    tracer.keeping = False
    traced.window_end = tracer.totals()


def timed_setup(workload, phase: Phase, label: str):
    """Set up one copy; returns it with the ``(start, end)`` of the set-up in ns."""
    phase.name = f"setup {label}"
    t0 = time.perf_counter_ns()
    instance = workload.setup()
    return instance, (t0, time.perf_counter_ns())


def check_record(workload_name: str, seed: int, record: dict) -> str | None:
    """Compare against (or create) the cross-run record for this seed."""
    directory = STATE_DIR / "determinism"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{workload_name}-{seed}-{source_digest()}.json"
    normal = json.loads(json.dumps(record))
    if path.exists():
        return first_divergence(json.loads(path.read_text()), normal)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(normal, sort_keys=True))
    tmp.replace(path)
    return None


def run(args) -> tuple[dict, bool]:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    phase = Phase(args.workload)
    arm_deadline(phase, DEADLINE_S)
    if args.trace:
        loop, replay, metrics, problems = run_traced(args, workload, phase)
    else:
        loop, replay, metrics, problems = run_untraced(args, workload, phase)
    problems = loop.problems + replay.problems + problems
    divergence = first_divergence(loop.prefix_record, replay.prefix_record)
    if divergence is not None:
        problems.append(
            f"determinism: {'traced' if args.trace else 'first'} copy and "
            f"untraced replay copy diverge at {divergence}"
        )
    else:
        phase.name = "cross-run record"
        divergence = check_record(args.workload, args.seed, loop.prefix_record)
        if divergence is not None:
            problems.append(f"determinism: differs from an earlier run of this seed at {divergence}")
    for problem in problems[:20]:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    attempted = loop.ops + replay.ops
    failed = loop.failed + replay.failed
    correct = not problems
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, correct


def run_untraced(args, workload, phase: Phase):
    """End-to-end metrics; set-up is timed before and between stretches.

    The host's pace is sampled throughout (see ``perfbench/pace.py``),
    so every time can be given at the reference pace.
    """
    import reporting
    from pace import Pace

    setup_spans = []

    def setup(label):
        instance, span = timed_setup(workload, phase, label)
        setup_spans.append(span)
        return instance

    with Pace() as pace:
        loop = Loop(workload, setup("measured copy"), phase, "timed")
        replay = Loop(workload, setup("replay copy"), phase, "replay")
        for stretch in range(SEGMENTS):
            if stretch:
                setup(f"spare copy {stretch}")
            loop.serve(seconds=args.seconds / SEGMENTS)
    replay.serve(until=workload.prefix_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = reporting.end_to_end_metrics(workload, loop, setup_spans, pace, peak_rss_mb)
    return loop, replay, metrics, []


def run_traced(args, workload, phase: Phase):
    """Per-layer metrics; the replay copy alternates with the traced one."""
    import layers
    import reporting

    # The replay copy is built before any wrapper exists, so it holds no
    # reference to one and runs untraced whenever the wrappers are off.
    replay_copy = timed_setup(workload, phase, "replay copy")[0]
    tracer = layers.LayerTracer()
    phase.tracer = tracer
    installation = layers.install(tracer, extra_namespaces=[sys.modules["workloads"]])
    boot_windows = []

    def traced_setup(label):
        before = tracer.totals()
        instance = timed_setup(workload, phase, label)[0]
        boot_windows.append((before, tracer.totals()))
        return instance

    measured = traced_setup("measured copy")
    traced_setup("spare copy")
    loop = Loop(workload, measured, phase, "traced", tracer)
    installation.undo()
    replay = Loop(workload, replay_copy, phase, "untraced")
    alternate(loop, replay, installation, args.seconds)
    phase.tracer = None
    problems = []
    divergence = first_divergence(measured.deterministic(), replay_copy.deterministic())
    if divergence is not None:
        problems.append(
            f"determinism: traced and untraced copies diverge after {loop.ops} ops at {divergence}"
        )
    metrics = reporting.layer_metrics(loop, replay, tracer, boot_windows)
    trace_path = STATE_DIR / f"trace-{args.workload}-{args.seed}.json"
    problems += [f"chrome trace: {p}" for p in reporting.write_chrome_trace(tracer, trace_path)]
    return loop, replay, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    try:
        result, correct = run(args)
    except DeadlineExpired as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
