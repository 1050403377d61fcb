"""CPU-speed probe used to rescale measured times.

On shared machines the speed of one core can change by up to about 2x
within seconds (this probe measured it so).  A fixed pure-Python task,
independent of dweyl and close to its kind of work (recursion over
tuples, dict inserts), is timed next to every op.  A time ``t`` measured
while the probe took ``p`` seconds is reported as ``t * REFERENCE_S /
p``: the time the op would have taken at the speed where the probe
takes REFERENCE_S.  The raw times are printed beside the rescaled ones.
"""

import signal
import time

# About the probe's time on an undisturbed core of a 2-vCPU x86-64 Linux
# VM with Python 3.11.  Any constant works; it only fixes the unit, so it
# must never change once figures have been recorded.
REFERENCE_S = 0.001


def _task() -> int:
    seen = {}

    def rec(rest: int, cap: int, prefix: tuple) -> None:
        if rest == 0:
            seen[prefix] = len(prefix)
            return
        for part in range(min(rest, cap), 0, -1):
            rec(rest - part, part, prefix + (part,))

    rec(19, 19, ())
    return len(seen)


def probe(repeats: int = 2) -> float:
    """Fastest of ``repeats`` timings of the fixed task, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _task()
        best = min(best, time.perf_counter() - start)
    return best


def factor(probe_s: float) -> float:
    return REFERENCE_S / probe_s


# Ops of the cold workloads last up to about 1.4 s, long enough for the
# speed to change inside one, so they are also probed while they run.
PROBE_INTERVAL_S = 0.1


def timed(fn):
    """Run fn() and return (result, seconds, rescaling factor).

    The speed is probed right before and after fn, and every
    PROBE_INTERVAL_S while it runs, from a SIGALRM handler; the factor is
    the mean over those probes, and the in-op probes' own time is taken
    out of the seconds.
    """
    probes = [probe()]
    spent = 0.0

    def on_alarm(signum, frame):
        nonlocal spent
        start = time.perf_counter()
        probes.append(probe())
        spent += time.perf_counter() - start

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    probes.append(probe())
    return result, elapsed - spent, sum(map(factor, probes)) / len(probes)
