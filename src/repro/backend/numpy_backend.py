"""The NumPy reference backend — bit-identical to the pre-backend engines.

Every op but ``binomial`` is the corresponding :mod:`numpy` function itself
(no wrappers on the hot path), so routing the engines through this backend
changes *nothing* about their arithmetic: same ufunc loops, same dtypes,
same results down to the last bit.  The equivalence suites pin that
property against pre-refactor golden digests
(``tests/test_backend_equivalence.py``).

The host boundary is the identity here — ``from_host`` / ``to_host`` are
:func:`numpy.asarray`, which returns its argument unchanged for an
``ndarray`` — and the RNG bridge draws from the caller's
:class:`numpy.random.Generator`, preserving the historical bit streams.

:meth:`NumpyBackend.binomial` is an exact blocked kernel: it returns what
``Generator.binomial`` returns and leaves the generator in the same state,
only faster.  Where ``n * min(p, 1 - p) <= 30`` NumPy samples by inversion
(``random_binomial_inversion``): one ``next_double`` ``U`` per sample, then
``while U > px_k: U -= px_k`` over a fixed sequence ``px_k``.  Every step is
monotone in ``U`` and ``U`` lies on the grid of multiples of ``2**-53``, so
the sample is ``#{k : U >= t_k}`` where ``t_k`` is the smallest grid double
that NumPy's own recurrence carries to at least ``k``.
:func:`inversion_thresholds` finds those grid points once per ``(n, p)``
with Python floats that repeat NumPy's IEEE operations (``math`` and NumPy's
C code call the same libm), and the kernel draws the uniforms in blocks of
:data:`~repro.backend.chunking.KERNEL_BLOCK_CELLS` with ``Generator.random``
and counts the thresholds each one reaches.  Everything else — NumPy's
BTPE regime, array-valued ``n`` or ``p``, the degenerate ``n == 0`` /
``p in {0, 1}`` cases, bit generators off the ``2**-53`` grid and the rare
inversion restart — goes to ``Generator.binomial`` itself.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Optional, Tuple, Union

import numpy as np

from .chunking import KERNEL_BLOCK_CELLS
from .dispatch import ArrayBackend

__all__ = ["NumpyBackend", "inversion_thresholds"]

#: NumPy's own bit generators produce uniform doubles ``m * 2**-53`` for an
#: integer ``m`` in ``[0, 2**53)``.
_GRID = 1 << 53
_GRID_STEP = 1.0 / _GRID

#: NumPy samples ``Binomial(n, p)`` by inversion when ``n * min(p, 1 - p)``
#: is at most this, and by BTPE above it.
_INVERSION_MAX_MEAN = 30.0

#: Bit generators whose ``next_double`` is ``m * 2**-53`` and whose
#: ``Generator.random`` and ``Generator.binomial`` share it.
_GRID_BIT_GENERATORS = (
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
)


@functools.lru_cache(maxsize=256)
def inversion_thresholds(n: int, p: float) -> Tuple[np.ndarray, float]:
    """``(thresholds, restart)`` of NumPy's inversion sampler at ``(n, p)``.

    ``thresholds[k - 1]`` is the smallest uniform double ``U`` for which
    NumPy's ``random_binomial_inversion`` returns at least ``k`` (only the
    reachable ones, ``k <= bound``); ``restart`` is the smallest ``U`` that
    drives the sampler past ``bound``, where NumPy would discard ``U`` and
    draw again, or ``inf`` when no double does.  ``p <= 0.5`` and
    ``n * p <= 30`` are the caller's to check.
    """
    q = 1.0 - p
    # The same operations, in the same order, as the C sampler.
    qn = math.exp(n * math.log(q))
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    steps = [qn]
    px = qn
    for x in range(1, bound + 1):
        px = ((n - x + 1) * p * px) / (x * q)
        steps.append(px)

    def reaches(m: int, k: int) -> bool:
        # Does U = m * 2**-53 pass the first k comparisons of the sampler?
        u = m * _GRID_STEP
        for px in steps[:k]:
            if not u > px:
                return False
            u -= px
        return True

    grid = []
    top = _GRID - 1
    for k in range(1, bound + 2):
        if not reaches(top, k):
            break
        bad = grid[-1] if grid else -1
        if bad >= 0 and reaches(bad, k):
            grid.append(bad)
            continue
        # In real arithmetic t_k = t_{k-1} + px_{k-1}; search outward from
        # there.
        guess = int((max(bad, 0) * _GRID_STEP + steps[k - 1]) * _GRID)
        grid.append(_first_reaching(reaches, k, bad, top, guess))
    restart = grid.pop() * _GRID_STEP if len(grid) > bound else math.inf
    thresholds = np.array(grid, dtype=np.float64) * _GRID_STEP
    thresholds.flags.writeable = False
    return thresholds, restart


def _first_reaching(reaches, k: int, bad: int, good: int, guess: int) -> int:
    """Smallest ``m`` in ``(bad, good]`` with ``reaches(m, k)``.

    ``reaches(., k)`` is monotone, false at ``bad`` and true at ``good``.  The
    search gallops out from ``guess`` (usually within a few grid steps of
    the answer) and then bisects.
    """
    guess = min(max(guess, bad + 1), good)
    step = 1
    if reaches(guess, k):
        good = guess
        while good - step > bad and reaches(good - step, k):
            good -= step
            step *= 2
        bad = max(bad, good - step)
    else:
        bad = guess
        while bad + step < good and not reaches(bad + step, k):
            bad += step
            step *= 2
        good = min(good, bad + step)
    while good - bad > 1:
        middle = (bad + good) // 2
        if reaches(middle, k):
            good = middle
        else:
            bad = middle
    return good


def _inversion_case(rng, n, p, size):
    """``(n, p', flipped)`` when ``rng.binomial(n, p, size)`` is pure inversion.

    ``p'`` is ``min(p, 1 - p)`` exactly as NumPy forms it, and ``flipped``
    says the sample is ``n - X``.  ``None`` for every case the kernel
    leaves to ``Generator.binomial``.
    """
    if (
        size is None
        or type(rng.bit_generator) not in _GRID_BIT_GENERATORS
        or np.ndim(n)
        or np.ndim(p)
    ):
        return None
    try:
        n = operator.index(n)
    except TypeError:
        return None
    p = float(p)
    if n <= 0 or not 0.0 < p < 1.0:
        return None
    flipped = p > 0.5
    if flipped:
        p = 1.0 - p
    if p * n > _INVERSION_MAX_MEAN:
        return None
    return n, p, flipped


class NumpyBackend(ArrayBackend):
    """Dispatch table mapping every engine op to NumPy directly."""

    name = "numpy"

    # dtypes
    int64 = np.int64
    int32 = np.int32
    uint8 = np.uint8
    bool_ = np.bool_
    float64 = np.float64
    float32 = np.float32

    # creation / conversion
    asarray = staticmethod(np.asarray)
    ascontiguousarray = staticmethod(np.ascontiguousarray)
    zeros = staticmethod(np.zeros)
    empty = staticmethod(np.empty)
    full = staticmethod(np.full)
    arange = staticmethod(np.arange)
    tile = staticmethod(np.tile)
    concatenate = staticmethod(np.concatenate)
    pad = staticmethod(np.pad)

    # elementwise
    add = staticmethod(np.add)
    subtract = staticmethod(np.subtract)
    multiply = staticmethod(np.multiply)
    maximum = staticmethod(np.maximum)
    minimum = staticmethod(np.minimum)
    equal = staticmethod(np.equal)
    greater = staticmethod(np.greater)
    greater_equal = staticmethod(np.greater_equal)
    less_equal = staticmethod(np.less_equal)
    logical_and = staticmethod(np.logical_and)
    logical_or = staticmethod(np.logical_or)
    logical_not = staticmethod(np.logical_not)
    where = staticmethod(np.where)
    copyto = staticmethod(np.copyto)

    # scans
    cumsum = staticmethod(np.cumsum)
    maximum_accumulate = staticmethod(np.maximum.accumulate)
    minimum_accumulate = staticmethod(np.minimum.accumulate)

    # indexing / sorting
    nonzero = staticmethod(np.nonzero)
    argsort = staticmethod(np.argsort)

    # host boundary (identity on NumPy)
    from_host = staticmethod(np.asarray)
    to_host = staticmethod(np.asarray)

    @staticmethod
    def copy(array) -> np.ndarray:
        """A freshly-owned host-side copy (never a view of scratch memory)."""
        return np.array(array, copy=True)

    # ------------------------------------------------------------------
    # Host-seeded RNG bridge: draws from the caller's Generator, so the
    # bit streams are exactly the historical ones.
    # ------------------------------------------------------------------
    @classmethod
    def binomial(cls, rng: np.random.Generator, n, p, size) -> np.ndarray:
        """``rng.binomial(n, p, size=size)``, bit for bit and state for state.

        Inversion-regime draws (see the module docstring) walk the output in
        C order, one block of uniforms at a time, and add up the thresholds
        each uniform reaches; only thresholds up to the block's largest
        uniform are compared.  A block that reaches the restart threshold
        rewinds the generator and hands the whole draw to
        ``Generator.binomial``, as does every non-inversion case.
        """
        case = _inversion_case(rng, n, p, size)
        if case is None:
            return rng.binomial(n, p, size=size)
        inversion_n, inversion_p, flipped = case
        thresholds, restart = inversion_thresholds(inversion_n, inversion_p)
        out = cls.empty(size, dtype=cls.int64)
        flat = out.reshape(-1)
        cells = flat.size
        if cells == 0:
            return out
        state = rng.bit_generator.state if math.isfinite(restart) else None
        block = min(cells, KERNEL_BLOCK_CELLS)
        uniforms = cls.empty(block, dtype=cls.float64)
        reached = cls.empty(block, dtype=cls.bool_)
        counts = cls.empty(block, dtype=cls.uint8)
        for start in range(0, cells, block):
            stop = min(start + block, cells)
            u = uniforms[: stop - start]
            hit = reached[: stop - start]
            count = counts[: stop - start]
            rng.random(out=u)
            top = u.max()
            if top >= restart:
                rng.bit_generator.state = state
                return rng.binomial(n, p, size=size)
            count.fill(0)
            # bound <= 30 + 10 * sqrt(31) < 86, so counts fit in uint8.
            for threshold in thresholds:
                if threshold > top:
                    break
                cls.greater_equal(u, threshold, out=hit)
                cls.add(count, hit.view(cls.uint8), out=count)
            flat[start:stop] = count
        if flipped:
            cls.subtract(inversion_n, out, out=out)
        return out

    @staticmethod
    def random(rng: np.random.Generator, size) -> np.ndarray:
        return rng.random(size)

    @staticmethod
    def integers(
        rng: np.random.Generator,
        low: int,
        high: int,
        size,
        dtype: Optional[type] = None,
    ) -> np.ndarray:
        if dtype is None:
            return rng.integers(low, high, size=size)
        return rng.integers(low, high, size=size, dtype=dtype)

    @staticmethod
    def geometric(
        rng: np.random.Generator, p: float, size: Union[int, Tuple[int, ...]]
    ) -> np.ndarray:
        return rng.geometric(p, size=size)
