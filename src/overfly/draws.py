"""Cheap scalar draws on a numpy Generator's own bit stream.

A scalar ``Generator.integers`` call costs about 2 µs, nearly all of it
argument handling; the search loop makes several per mating and hundreds of
thousands of matings per run. :class:`Draws` reads the same bit generator
through its ctypes interface instead and applies numpy's own reduction steps,
so each of its methods returns what the Generator method of the same name
would, and consumes the same words from the shared stream. Calls on a Draws
and on its Generator therefore interleave freely: a run that mixes them
draws exactly the numbers it would draw from the Generator alone.
"""

from __future__ import annotations

from functools import partial

import numpy as np

_U32 = 0xFFFFFFFF


class Draws:
    """The scalar Generator calls of the search loop and its operators.

    ``random()``, ``integers(low, high)``, ``choice(n, size, replace=False)``
    and ``normal(loc, scale)`` match the Generator methods for those argument
    forms (``choice`` returns a list); any other form raises ``ValueError``.
    ``integers`` and ``choice`` use Lemire's bounded rejection on 32-bit
    words, as numpy does for ranges of at most 2**32 values; ``normal`` is
    passed to the Generator.
    """

    __slots__ = ("generator", "random", "_u32", "_state")

    def __init__(self, generator: np.random.Generator) -> None:
        # Holding the Generator keeps its bit generator, and so the state
        # pointer handed to the native calls, alive as long as this object.
        self.generator = generator
        iface = generator.bit_generator.ctypes
        self._u32 = iface.next_uint32
        self._state = iface.state
        # random() -> float in [0, 1): the bit generator's own next_double.
        self.random = partial(iface.next_double, iface.state)

    def bounded(self, span: int) -> int:
        """Uniform integer in ``0..span`` (inclusive, ``0 < span <= 2**32 - 1``).

        ``integers(span + 1)`` for such a span, without its argument handling
        or checks; a caller that knows its span is in range may call it
        directly.
        """
        u32, state = self._u32, self._state
        excl = span + 1
        m = u32(state) * excl
        if (m & _U32) < excl:
            threshold = (_U32 - span) % excl
            while (m & _U32) < threshold:
                m = u32(state) * excl
        return m >> 32

    def integers(self, low: int, high: int | None = None) -> int:
        if high is None:
            low, high = 0, low
        span = high - 1 - low
        if span <= 0:
            if span < 0:
                raise ValueError("high <= low")
            return low  # numpy draws nothing for a one-value range
        if span > _U32:
            raise ValueError("Draws.integers covers ranges of at most 2**32 values")
        return low + self.bounded(span)

    def choice(self, n: int, size: int, replace: bool = False) -> list[int]:
        """``size`` distinct integers from ``0..n-1``, as ``Generator.choice``.

        numpy picks them by Floyd's algorithm and then shuffles them in place;
        the shuffle's draws are spent here too. Above 10000 numpy may shuffle
        a tail of the population instead, so such populations are passed to
        the Generator: mutation draws over a path's genes, and a path on a
        large world can be that long.
        """
        if replace:
            raise ValueError("Draws.choice draws without replacement only")
        if not 0 <= size <= n:
            raise ValueError("size must lie in 0..n")
        if n > 10000:
            return self.generator.choice(n, size=size, replace=False).tolist()
        picked: list[int] = []
        taken: set[int] = set()
        for j in range(n - size, n):
            v = self.bounded(j) if j else 0
            if v in taken:
                v = j
            taken.add(v)
            picked.append(v)
        for i in range(size - 1, 0, -1):
            k = self.bounded(i)
            picked[i], picked[k] = picked[k], picked[i]
        return picked

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        return float(self.generator.normal(loc, scale))
