"""The blocked binomial kernel reproduces ``Generator.binomial`` exactly.

:meth:`repro.backend.NumpyBackend.binomial` replaces NumPy's per-sample
inversion loop with a threshold table and blocked uniform draws.  These
properties compare it with ``Generator.binomial`` itself: the samples must
be equal, and so must the generator afterwards, checked by drawing
``random(3)`` from both.  The cases cover the inversion regime and the
BTPE regime that falls back (``n * p`` on both sides of 30), ``p`` near 0,
at 0.5 and above 0.5, shapes that end mid-block or span several blocks,
and every NumPy bit generator (PCG64 and MT19937 in the fixed cases).
The inversion restart, too rare to hit by chance, is forced by shrinking
the table's restart threshold.  Uniforms exactly at a threshold or one grid step below it, which no seed
can be made to produce, are served by a scripted stand-in generator and
checked against a Python copy of NumPy's inversion loop.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.backend.numpy_backend as numpy_backend
from repro.backend import NumpyBackend
from repro.backend.chunking import KERNEL_BLOCK_CELLS
from repro.backend.numpy_backend import inversion_thresholds

BIT_GENERATORS = {
    "pcg64": np.random.PCG64,
    "mt19937": np.random.MT19937,
    "pcg64dxsm": np.random.PCG64DXSM,
    "philox": np.random.Philox,
    "sfc64": np.random.SFC64,
}
#: The bit generators the fixed-seed cases run on.
MAIN_BIT_GENERATORS = ["pcg64", "mt19937"]


def _pair(bit_generator, seed):
    return (
        np.random.Generator(BIT_GENERATORS[bit_generator](seed)),
        np.random.Generator(BIT_GENERATORS[bit_generator](seed)),
    )


def _assert_same_draw(bit_generator, seed, n, p, size):
    reference, kernel = _pair(bit_generator, seed)
    expected = reference.binomial(n, p, size=size)
    drawn = NumpyBackend.binomial(kernel, n, p, size)
    assert drawn.dtype == expected.dtype
    assert drawn.shape == expected.shape
    assert np.array_equal(drawn, expected)
    assert np.array_equal(kernel.random(3), reference.random(3))


@st.composite
def _hardness(draw, n):
    """``p`` near 0, at 0.5 or above 0.5, with ``n * min(p, 1 - p)`` on
    either side of NumPy's inversion limit of 30."""
    kind = draw(st.sampled_from(["small", "inversion", "btpe", "half", "high"]))
    if kind == "small":
        return draw(st.floats(1e-9, 1e-3))
    if kind == "half" or (kind == "btpe" and n <= 60):
        return 0.5
    if kind == "btpe":
        return draw(st.floats(30.0 / n, 0.5, exclude_min=True))
    tail = draw(st.floats(1e-6, min(30.0 / n, 0.5)))
    return tail if kind == "inversion" else 1.0 - tail


_SHAPES = st.one_of(
    st.tuples(st.integers(0, 3 * KERNEL_BLOCK_CELLS // 2)),
    st.tuples(st.integers(1, 40), st.integers(1, 5_000)),
    st.tuples(st.integers(1, 4), st.integers(1, 12), st.integers(1, 3_000)),
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3_000),
    data=st.data(),
    shape=_SHAPES,
    bit_generator=st.sampled_from(sorted(BIT_GENERATORS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_generator_binomial(n, data, shape, bit_generator, seed):
    p = data.draw(_hardness(n))
    _assert_same_draw(bit_generator, seed, n, p, shape)


@pytest.mark.parametrize("bit_generator", MAIN_BIT_GENERATORS)
@pytest.mark.parametrize(
    "size",
    [
        (KERNEL_BLOCK_CELLS,),
        (KERNEL_BLOCK_CELLS + 1,),
        (3, KERNEL_BLOCK_CELLS // 2 + 7),
        (2, 3, KERNEL_BLOCK_CELLS // 5),
    ],
)
def test_block_edges(bit_generator, size):
    """Sizes at, just past and well past whole blocks, in every rank."""
    _assert_same_draw(bit_generator, 7, 800, 1.0 / 2_600, size)
    _assert_same_draw(bit_generator, 8, 60, 0.5, size)


@pytest.mark.parametrize(
    "n,p,size",
    [
        (0, 0.3, 10),  # n == 0 consumes nothing
        (10, 0.0, 10),  # p == 0 consumes nothing
        (10, 1.0, 10),
        (5, 0.3, None),  # scalar draw
        (np.array([3, 800]), 0.01, (4, 2)),  # array-valued n
        (40, np.array([0.1, 0.9]), (4, 2)),  # array-valued p
        (np.int64(800), np.float64(1e-4), [3, 5]),  # NumPy scalars
    ],
)
def test_fallback_cases(n, p, size):
    reference, kernel = _pair("pcg64", 11)
    expected = reference.binomial(n, p, size=size)
    drawn = NumpyBackend.binomial(kernel, n, p, size)
    assert np.array_equal(drawn, expected)
    assert np.array_equal(kernel.random(3), reference.random(3))


@pytest.mark.parametrize(
    "n,p",
    [
        (60, 0.5),  # n * p == 30: inversion
        (61, 0.5),  # 30.5: BTPE
        (100, 0.3),  # 30.000000000000004 in floating point: BTPE
        (1_000, 0.03),  # 30: inversion
        (1_000, 0.031),  # 31: BTPE
        (1_000, 0.969),  # n * (1 - p) = 31: BTPE, flipped
    ],
)
def test_regime_boundary(n, p):
    """The inversion/BTPE switch sits exactly where NumPy puts it."""
    _assert_same_draw("pcg64", 13, n, p, (4, 500))


class _ScriptedUniforms:
    """Stands in for a Generator and serves chosen uniforms to the kernel."""

    def __init__(self, uniforms):
        self.bit_generator = np.random.PCG64(0)
        self._uniforms = np.asarray(uniforms, dtype=np.float64)
        self._served = 0

    def random(self, out):
        out[...] = self._uniforms[self._served : self._served + out.size]
        self._served += out.size
        return out


def _numpy_inversion(u, n, p):
    """NumPy's ``random_binomial_inversion`` for one uniform, in Python.

    The same operations in the same order as the C loop, as the reference
    for uniforms the generators cannot be made to produce on demand.
    """
    q = 1.0 - p
    qn = math.exp(n * math.log(q))
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    x, px = 0, qn
    while u > px:
        x += 1
        assert x <= bound, "uniform past the restart threshold"
        u -= px
        px = ((n - x + 1) * p * px) / (x * q)
    return x


# Powers of two, so that 1 - (1 - p) == p and the flipped draw at 1 - p
# uses exactly the table of p.
@pytest.mark.parametrize(
    "n,p", [(800, 2**-11), (200, 2**-9), (60, 0.5), (3_000, 2**-7), (7, 0.25)]
)
def test_uniforms_at_threshold_edges(n, p):
    """A uniform exactly at a threshold reaches it; one grid step below
    does not — the only uniforms where ``>=`` and ``>`` or an off-by-one
    threshold would differ."""
    thresholds, restart = inversion_thresholds(n, p)
    uniforms = np.concatenate([thresholds, thresholds - 2.0**-53])
    # A top threshold may coincide with the restart, where NumPy redraws.
    uniforms = uniforms[uniforms < restart]
    expected = [_numpy_inversion(u, n, p) for u in uniforms]
    drawn = NumpyBackend.binomial(_ScriptedUniforms(uniforms), n, p, uniforms.size)
    assert drawn.tolist() == expected
    if p < 0.5:
        # 1 - p > 0.5 draws n - X with the table of p.
        flipped = NumpyBackend.binomial(
            _ScriptedUniforms(uniforms), n, 1.0 - p, uniforms.size
        )
        assert flipped.tolist() == [n - x for x in expected]


def test_invalid_arguments_raise_like_numpy():
    generator = np.random.default_rng(0)
    for n, p in ((5, 1.5), (5, -0.1), (-1, 0.3), (5, math.nan)):
        with pytest.raises(ValueError):
            NumpyBackend.binomial(generator, n, p, 3)


def test_inversion_draws_use_the_threshold_table():
    """An inversion-regime draw builds (or reuses) the cached table."""
    inversion_thresholds.cache_clear()
    generator = np.random.default_rng(3)
    NumpyBackend.binomial(generator, 800, 1e-3, (4, 100))
    NumpyBackend.binomial(generator, 800, 1e-3, (4, 100))
    info = inversion_thresholds.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # p > 0.5 samples n - X with the table of 1 - p.
    NumpyBackend.binomial(generator, 800, 1.0 - 1e-3, 5)
    assert inversion_thresholds.cache_info().misses == 2


def test_threshold_table_shape():
    """Thresholds are sorted grid doubles in [0, 1); the restart is either
    unreachable or above every threshold."""
    for n, p in ((800, 3.87e-4), (3_000, 0.01), (60, 0.5), (1, 0.3)):
        thresholds, restart = inversion_thresholds(n, p)
        assert thresholds.size >= 1
        assert np.all(np.diff(thresholds) >= 0.0)
        assert thresholds[0] > 0.0 and thresholds[-1] < 1.0
        assert np.all(np.ldexp(thresholds, 53) % 1.0 == 0.0)
        assert restart == math.inf or thresholds[-1] <= restart < 1.0
    # n = 1 can never pass its bound; this n * p can, at the very top.
    assert inversion_thresholds(1, 0.3)[1] == math.inf
    assert inversion_thresholds(800, 3.87e-4)[1] < 1.0


def _forced_restart(monkeypatch, restart):
    """Move the restart threshold to ``restart`` and zero every count
    threshold, so only a rewind-and-redo can reproduce NumPy's draw."""
    real = inversion_thresholds

    def patched(n, p):
        thresholds, _ = real(n, p)
        return np.zeros_like(thresholds), restart

    monkeypatch.setattr(numpy_backend, "inversion_thresholds", patched)


@pytest.mark.parametrize("bit_generator", MAIN_BIT_GENERATORS)
def test_restart_rewinds_and_falls_back(monkeypatch, bit_generator):
    """A uniform at or past the restart threshold rewinds the generator and
    redoes the whole draw with ``Generator.binomial``."""
    _forced_restart(monkeypatch, 0.5)
    _assert_same_draw(bit_generator, 5, 800, 1e-3, (3, 1_000))
    _assert_same_draw(bit_generator, 5, 800, 1.0 - 1e-3, (3, 1_000))


def test_restart_in_a_later_block_rewinds_every_block(monkeypatch):
    """The restart fires after whole blocks were already drawn."""
    seed, size = 21, 3 * KERNEL_BLOCK_CELLS
    uniforms = np.random.Generator(np.random.PCG64(seed)).random(size)
    first_top = uniforms[:KERNEL_BLOCK_CELLS].max()
    later_top = uniforms[KERNEL_BLOCK_CELLS:].max()
    assert later_top > first_top
    _forced_restart(monkeypatch, (first_top + later_top) / 2)
    _assert_same_draw("pcg64", seed, 200, 2e-3, (size,))
