"""clpslice benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs a closed loop: each op starts when the previous one
has returned and been checked.  The loop runs whole cycles of ops until
their summed latency reaches ``--seconds`` and at least 100 ops have
been attempted, so every run times the same mix.  Every reported time
is scaled to a reference host speed (see hostspeed.py).
Every op's output is checked outside the timed region; a wrong answer,
an exception or an unexpected exit code marks that op failed and the
run goes on.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
cycle untraced and then again with every layer wrapped, for half the
time each, and prints the per-layer metrics.  The last line of standard
output is one JSON object; README.md next to this file documents it.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from hostspeed import REFERENCE_S, HostClock
from layers import PER_LAYER, per_layer
from tracer import Tracer, assert_unwrapped

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 100
SETUP_REPEATS = 3
SETUP_KERNEL_RUNS = 3
INTERLEAVE_SETUP_S = 0.01
WORKLOADS = ("derive-forward", "derive-backtrack", "criteria-sweep", "cli-requests")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _refuse(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_checkout() -> Path:
    """Import clpslice from this checkout's src/ and from nowhere else."""
    expected = (ROOT / "src" / "clpslice" / "__init__.py").resolve()
    if not expected.is_file():
        _refuse(f"no clpslice sources in this checkout ({expected} is missing)")
    sys.path.insert(0, str(expected.parent.parent))
    import clpslice

    used = Path(clpslice.__file__).resolve()
    if used != expected:
        _refuse(f"refusing clpslice from {used}; expected {expected}")
    return used.parent


def make_workload(name: str):
    # these import clpslice, so only after import_checkout
    import cli_requests
    import workloads

    return {
        "derive-forward": workloads.DeriveForward,
        "derive-backtrack": workloads.DeriveBacktrack,
        "criteria-sweep": workloads.CriteriaSweep,
        "cli-requests": lambda: cli_requests.CliRequests(ROOT),
    }[name]()


@dataclass
class Pass:
    ops: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # wall-clock seconds
    scaled: list = field(default_factory=list)  # reference-host seconds, with a HostClock
    failures: dict = field(default_factory=dict)  # op index -> message

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


class SetupClock:
    """Times set-ups of the workload from one seed, each scaled by the
    kernel runs around it.  The workload is set up SETUP_REPEATS times
    before the loop, between medians of SETUP_KERNEL_RUNS kernel runs.
    Set-ups cheaper than INTERLEAVE_SETUP_S are also redone after every
    cycle of ops, outside the op timing, so that their median spans the
    whole run:
    the first three take a few milliseconds together, and the speed of
    the file writes in some of them, which the kernel does not track,
    changes from moment to moment."""

    def __init__(self, workload, seed: int, host: HostClock):
        self.workload, self.seed, self.host = workload, seed, host
        self.wall: list[float] = []
        self.scaled: list[float] = []

    def setup(self):
        """Set up SETUP_REPEATS times; the last state is kept."""
        state = None
        before = self.host.median(SETUP_KERNEL_RUNS)
        for _ in range(SETUP_REPEATS):
            if state is not None:
                self.workload.close(state)
            state, before = self._timed(before, SETUP_KERNEL_RUNS)
        return state

    def between_cycles(self) -> None:
        if statistics.median(self.wall) < INTERLEAVE_SETUP_S:
            state, _ = self._timed(self.host.samples[-1], 1)
            self.workload.close(state)

    def _timed(self, before: float, kernel_runs: int):
        start = perf_counter()
        state = self.workload.setup(self.seed)
        self.wall.append(perf_counter() - start)
        after = self.host.median(kernel_runs)
        self.scaled.append(self.host.scale(self.wall[-1], before, after))
        return state, after


def closed_loop(workload, state, cycles, budget_s: float, min_ops: int,
                tracer=None, host: HostClock | None = None, between_cycles=None,
                done: Pass | None = None) -> Pass:
    """Run whole cycles until the ops took budget_s of wall-clock time
    and min_ops ran; ops are appended to ``done`` when given.  With a
    HostClock, the kernel runs after every op, and each op's time is
    also recorded scaled by it and by the kernel run last before it."""
    done = Pass() if done is None else done
    if host is not None and not host.samples:
        host.sample()
    for cycle in cycles:
        for op in cycle:
            index = len(done.ops)
            before = host.samples[-1] if host is not None else None
            start = perf_counter()
            try:
                if tracer is None:
                    result = workload.run(state, op)
                else:
                    with tracer.op(index):
                        result = workload.run(state, op)
            except Exception as exc:  # an op that raises is checked like any other output
                result = exc
            done.latencies.append(perf_counter() - start)
            done.ops.append(op)
            if host is not None:
                after = host.sample()
                done.scaled.append(host.scale(done.latencies[-1], before, after))
            try:
                workload.check(state, op, result)
            except Exception as exc:
                done.failures[index] = f"{type(exc).__name__}: {exc}"
        if between_cycles is not None:
            between_cycles()
        if done.busy_s >= budget_s and len(done.ops) >= min_ops:
            break
    return done


def cycles(workload, state, rng: random.Random):
    while True:
        yield workload.cycle(state, rng)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def _certify(workload, state, seed: int, done: Pass) -> None:
    """The oracle check of criteria-sweep, charged to the first op of
    the tree whose slice it rejects."""
    if not hasattr(workload, "certify"):
        return
    for label, message in workload.certify(state, seed):
        index = next(i for i, op in enumerate(done.ops) if op.label == label)
        done.failures.setdefault(index, message)


def _report_failures(passes: list[Pass]) -> None:
    for p in passes:
        for index, message in sorted(p.failures.items()):
            print(f"perfbench: op {index} ({p.ops[index].label}) FAILED: {message}",
                  file=sys.stderr)


def _timings(setup_s: list[float], latencies: list[float], completed: int) -> dict:
    lat_ms = sorted(t * 1000 for t in latencies)
    return {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": completed / sum(latencies),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
    }


def untraced_run(workload, state, args, host: HostClock, clock: SetupClock) -> dict:
    assert_unwrapped()
    rng = random.Random(f"{args.seed}/order")
    done = closed_loop(workload, state, cycles(workload, state, rng), args.seconds, MIN_OPS,
                       host=host, between_cycles=clock.between_cycles)
    _certify(workload, state, args.seed, done)
    assert_unwrapped()
    attempted, failed = len(done.ops), len(done.failures)
    kernel_s = statistics.median(host.samples)
    values = _timings(clock.scaled, done.scaled, attempted - failed)
    values["peak_rss_mb"] = peak_rss_mb(children=args.workload == "cli-requests")
    wall = _timings(clock.wall, done.latencies, attempted - failed)
    _report_failures([done])
    print(f"perfbench: {attempted} ops attempted, {failed} failed, "
          f"error_rate {failed / attempted}")
    print("perfbench: unscaled wall-clock " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items())
          + f"; kernel median {kernel_s * 1000:.3f} ms over "
          f"{len(host.samples)} runs (reference {REFERENCE_S * 1000:g} ms)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
    }


def traced_run(workload, state, args, host: HostClock) -> dict:
    from cli_requests import deep_term_exit

    assert_unwrapped()
    rng = random.Random(f"{args.seed}/order")
    plain, traced, tracer = Pass(), Pass(), Tracer()
    # Each cycle runs untraced, then again traced, and op times are
    # scaled, so that the host's swings in speed cancel out of
    # trace.overhead_ratio.
    for cycle in cycles(workload, state, rng):
        closed_loop(workload, state, [cycle], 0, 0, host=host, done=plain)
        workload.tracer = tracer
        tracer.enable()
        try:
            closed_loop(workload, state, [cycle], 0, 0, tracer, host, done=traced)
        finally:
            tracer.disable()
            workload.tracer = None
        if plain.busy_s >= args.seconds / 2:
            break
    assert_unwrapped()
    _certify(workload, state, args.seed, traced)
    values = per_layer(
        tracer, traced.ops,
        overhead_ratio=sum(traced.scaled) / sum(plain.scaled),
        deep_term_exit=deep_term_exit(ROOT),
        import_s=getattr(workload, "import_s", []),
        startup_s=getattr(workload, "startup_s", []),
    )
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}.tsv")
    _report_failures([plain, traced])
    attempted = len(plain.ops) + len(traced.ops)
    failed = len(plain.failures) + len(traced.failures)
    print(f"perfbench: {attempted} ops attempted, {failed} failed; "
          f"{len(tracer.spans)} spans written to {out_dir}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    source = import_checkout()
    print(f"perfbench: clpslice imported from {source}")
    workload = make_workload(args.workload)
    host = HostClock()
    clock = SetupClock(workload, args.seed, host)
    state = clock.setup()
    try:
        if args.trace:
            result = traced_run(workload, state, args, host)
        else:
            result = untraced_run(workload, state, args, host, clock)
    finally:
        workload.close(state)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
