"""Machine-speed reference for the benchmark's timings.

The benchmark runs on shared virtual machines whose CPU speed moves by up
to a factor of two over minutes, and CPU time moves with it, so raw times
of identical code taken a few minutes apart can disagree by far more than
any change worth measuring.  A fixed chunk of pure-Python work that never
touches gforge is timed next to every pass; dividing a pass's time by the
chunk's time and multiplying by the chunk's nominal duration ``NOMINAL_S``
reports it at one fixed machine speed.  The chunk mixes the interpreter
work gforge does (small objects, attribute access, tuples hashed into
dicts, sorting, integer loops, strings), because different kinds of work
slow down by different amounts on a busy host.

On a 2-vCPU Intel Xeon virtual machine at 2.1 GHz with CPython 3.11 one
chunk takes from about 0.04 to 0.08 s, depending on the host's load; the
times reported are those of a machine on which it takes 0.05 s.
"""
from __future__ import annotations

import time

NOMINAL_S = 0.05


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def join(self, other):
        return _Pair(self.a + other.a, self.b + other.b)


def _objects():
    counts = {}
    acc = _Pair((), ())
    for i in range(7500):
        t = (i % 7, i % 11, i % 13)
        counts[t] = counts.get(t, 0) + 1
        acc = _Pair(t, (i,)) if i % 50 == 0 else acc.join(_Pair((i % 3,), ()))
        sorted(t, reverse=True)
    return len(counts) + len(acc.a)


def _integers():
    x = 0
    for i in range(125000):
        x = (x * 31 + i) & 0xFFFFF
    return x


def _sorting():
    # in small batches, so the chunk adds little to the peak memory
    total = 0
    for b in range(6):
        xs = [(i * 7919 + b) % 10007 for i in range(5000)]
        ys = sorted((x, str(x)) for x in xs)
        total += len({y[1]: y for y in ys})
    return total


def chunk_seconds() -> float:
    """Wall time of one reference chunk."""
    t0 = time.perf_counter()
    _objects()
    _integers()
    _sorting()
    return time.perf_counter() - t0


def factor(before: float, after: float) -> float:
    """Scale for a span bracketed by two chunk timings: multiply a time
    measured in the span by this to get it at the nominal speed."""
    return NOMINAL_S / ((before + after) / 2)
