"""Machine speed, measured alongside the program so that times can be
reported at a fixed reference speed.

The benchmark runs on a shared host whose speed drifts by up to 1.5x over
seconds to minutes; wall times alone then measure the neighbours more than
rellink.  A ``Meter`` runs a small, fixed pure-Python kernel (``slice_``) in
short slices interleaved with the measured work, and ``slowdown()`` is how
much slower than the reference speed the machine ran meanwhile.  A time
divided by the slowdown is the time the same work would take at the
reference speed, where one slice takes ``REF_SLICE_S``.  The kernel shares no
code with rellink, so a change to rellink does not move it.
"""

from __future__ import annotations

from time import perf_counter

# One slice at the reference speed (a 2.1 GHz Xeon vCPU on a quiet host,
# Python 3.11).  Only ratios of reported times matter; this constant keeps
# reported figures near what the reference machine would show.
REF_SLICE_S = 0.000180
_KEYS = [f"k{i}" for i in range(2000)]
_INDEX = {key: i for i, key in enumerate(_KEYS)}


class _Node:
    __slots__ = ("edges",)

    def __init__(self, edges: dict[str, frozenset]):
        self.edges = edges

    def neighbours(self, label: str) -> frozenset:
        return self.edges.get(label, frozenset())


_NODES = {
    f"n{i}": _Node({
        f"p{(i * k) % 40}": frozenset(f"n{(i * 7 + k * 13 + j) % 3000}" for j in range(3))
        for k in range(1, 5)
    })
    for i in range(3000)
}
_NAMES = list(_NODES)


def slice_(n: int) -> int:
    """A fixed amount of work; ``n`` varies the keys.

    Two halves that the host's neighbours slow by different amounts: a tight
    loop of dictionary and string operations, and a walk over small objects
    with method calls, set intersections and sorting, closer to rellink's own
    code.  Neither alone tracked every workload: each workload slows somewhere
    between the two."""
    h = 0
    for j in range(300):
        key = _KEYS[(n * 31 + j * 7) % 2000]
        h += _INDEX[key]
        h ^= len(key + "x")
    for j in range(3):
        node = _NODES[_NAMES[(n * 37 + j * 101) % 3000]]
        found = set()
        for label in sorted(node.edges):
            for other in node.neighbours(label):
                common = _NODES[other].edges.keys() & node.edges.keys()
                found.update(p.upper() for p in common)
        words = " ".join(sorted(found)).split()
        h += len(words) + sum(len(w) for w in words if w.endswith("1"))
    return h


class Meter:
    """Slices of the kernel, spent as a fixed share of the measured time.

    ``charge(seconds)`` runs slices until the time spent in them keeps up with
    ``share`` of all the measured time charged so far, so slices are spread
    over the run in proportion to time.  Their mean duration is then the
    machine's time-weighted harmonic mean speed, which is what scales a
    throughput."""

    def __init__(self, share: float = 0.05):
        self.share = share
        self.debt = 0.0
        self.spent = 0.0
        self.slices = 0

    def charge(self, seconds: float) -> None:
        self.debt += seconds * self.share
        while self.debt > 0.0:
            self.sample(1)

    def sample(self, count: int) -> None:
        """Run ``count`` slices now."""
        for _ in range(count):
            t0 = perf_counter()
            slice_(self.slices)
            elapsed = perf_counter() - t0
            self.spent += elapsed
            self.debt -= elapsed
            self.slices += 1

    def slowdown(self) -> float:
        """Mean slice time over the reference slice time."""
        return (self.spent / self.slices) / REF_SLICE_S
