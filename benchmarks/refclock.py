"""The benchmark's time unit, ``ref_ms``: the time of ``reference_work``.

On a shared host the speed of the same code can change by up to 1.8
times, from one second to the next, so seconds measured in two runs are
not comparable.  Every
request is therefore timed twice: in seconds, and in ``ref_ms``, its
seconds over the time ``reference_work`` took in the process that serves
the request, just before it.  The host's speed cancels out; a change to
meetpd does not, since the reference work never calls it.

Only the standard library is imported here, so a CLI process can time
the reference before it imports meetpd.
"""

import time
from fractions import Fraction

REPEATS = 3


def reference_work():
    """Fixed pure-Python work: rational arithmetic and dict updates, as in
    meetpd's own loops."""
    acc, table = Fraction(0), {}
    for i in range(1, 200):
        acc += Fraction(i % 7 - 3, i)
        table[(i, i % 5)] = acc.numerator % 97
    return sum(table.values())


def ref_seconds():
    """(seconds of one reference_work, the fastest of REPEATS runs;
    seconds all REPEATS runs took)."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return min(times), sum(times)
