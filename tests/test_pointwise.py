"""Pointwise kernels of the ViT step: the float32 erf behind GELU, what GELU
keeps for its backward rule, and softmax with the attention scale folded in.
GELU's value at 0 and its dtypes are checked in ``test_primitives``."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.special import erf

from peftseg.autodiff import Tensor, backward, functional as F, no_grad
from peftseg.autodiff.primitives import _REGISTRY, _erf32

F32_FINITE = st.floats(width=32, allow_nan=False, allow_infinity=False)


def _err64(x32: np.ndarray) -> float:
    return float(np.abs(_erf32(x32).astype(np.float64) - erf(x32.astype(np.float64))).max())


def test_erf32_matches_float64_erf_on_a_dense_grid():
    grid = np.linspace(-6.0, 6.0, 1_200_001).astype(np.float32)
    assert _err64(grid) <= 1e-6


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(F32_FINITE, min_size=1, max_size=64))
def test_erf32_matches_float64_erf_on_any_finite_float32(values):
    assert _err64(np.array(values, dtype=np.float32)) <= 1e-6


def test_erf32_is_exactly_odd():
    x = np.linspace(0.0, 6.0, 200_001).astype(np.float32)
    assert np.array_equal(_erf32(-x), -_erf32(x))


def test_erf32_is_one_beyond_four():
    x = np.array([4.0, 4.5, 10.0, 1e30, np.finfo(np.float32).max], dtype=np.float32)
    assert np.array_equal(_erf32(x), np.ones_like(x))
    assert np.array_equal(_erf32(-x), -np.ones_like(x))


def test_erf32_keeps_float32():
    assert _erf32(np.linspace(-1, 1, 5, dtype=np.float32)).dtype == np.float32


def test_float32_gelu_matches_float64_gelu():
    """Across several of the forward's chunks, against x * Phi(x) and its derivative."""
    x = np.random.default_rng(0).normal(scale=3.0, size=(3, 70_001)).astype(np.float32)
    y, d = _REGISTRY["gelu"].forward([x], {})
    x64 = x.astype(np.float64)
    cdf = 0.5 * (1.0 + erf(x64 / np.sqrt(2.0)))
    pdf = np.exp(-0.5 * x64 * x64) / np.sqrt(2.0 * np.pi)
    assert y.dtype == d.dtype == np.float32 and y.shape == d.shape == x.shape
    np.testing.assert_allclose(y, x64 * cdf, rtol=0, atol=3e-6)
    np.testing.assert_allclose(d, cdf + x64 * pdf, rtol=0, atol=3e-6)


def test_gelu_keeps_its_derivative_only_when_grad_is_enabled():
    x = np.linspace(-3, 3, 11, dtype=np.float32)
    y, d = _REGISTRY["gelu"].forward([x], {})
    with no_grad():
        y_eval, ctx = _REGISTRY["gelu"].forward([x], {})
    assert ctx is None and d is not None
    assert y_eval.tobytes() == y.tobytes()


def test_gelu_keeps_no_derivative_when_no_node_is_recorded(monkeypatch):
    """With grad enabled, a GELU whose input needs no gradient (a frozen
    encoder fed leaf images) records no node, so its forward keeps nothing."""
    seen = []
    gelu = _REGISTRY["gelu"]

    def spy(datas, attrs):
        out = gelu.forward(datas, attrs)
        seen.append(out[1])
        return out

    monkeypatch.setitem(_REGISTRY, "gelu", replace(gelu, forward=spy))
    x = np.linspace(-3, 3, 11, dtype=np.float32)
    frozen = F.gelu(Tensor(x))
    trained = F.gelu(Tensor(x, requires_grad=True))
    assert frozen.node is None and seen[0] is None
    assert trained.node is not None and seen[1] is not None
    assert frozen.data.tobytes() == trained.data.tobytes()


def test_softmax_alpha_gives_the_bytes_of_scale_then_softmax():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 3, 7, 7)).astype(np.float32)
    c = Tensor(rng.normal(size=x.shape).astype(np.float32))
    alpha = 1.0 / np.sqrt(16)
    outs = []
    for fold in (False, True):
        a = Tensor(x, requires_grad=True)
        y = F.softmax(a, axis=-1, alpha=alpha) if fold else F.softmax(F.scale(a, alpha), axis=-1)
        backward(F.sum(F.mul(y, c)))
        outs.append((y.data.tobytes(), a.grad.tobytes()))
    assert outs[0] == outs[1]
