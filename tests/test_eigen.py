"""Dense symmetric eigensolver wrappers and spectral invariants."""

import math

import numpy as np
import pytest

from specgap import eigen
from specgap.indices import compute_indices, indices_batch
from specgap.graphs import complete, complete_multipartite, cycle, path, relabel, star


def test_path_spectra_closed_form():
    # P_m eigenvalues are 2 cos(k pi / (m+1)), k = 1..m
    for m in (2, 3, 4, 5, 8):
        vals = eigen.spectrum(path(m))
        expect = sorted((2.0 * math.cos(k * math.pi / (m + 1))
                         for k in range(1, m + 1)), reverse=True)
        assert np.allclose(vals, expect, atol=1e-12)


def test_cycle_spectrum():
    vals = eigen.spectrum(cycle(5))
    expect = sorted((2.0 * math.cos(2.0 * math.pi * k / 5) for k in range(5)),
                    reverse=True)
    assert np.allclose(vals, expect, atol=1e-12)


def test_complete_and_star():
    assert np.allclose(eigen.spectrum(complete(4)), [3, -1, -1, -1], atol=1e-12)
    vals = eigen.spectrum(star(6))
    assert np.allclose(vals, [math.sqrt(5), 0, 0, 0, 0, -math.sqrt(5)],
                       atol=1e-12)
    vals = eigen.spectrum(complete_multipartite([2, 3]))
    assert np.allclose(vals, [math.sqrt(6), 0, 0, 0, -math.sqrt(6)],
                       atol=1e-12)


def test_spectrum_is_descending():
    vals = eigen.spectrum(path(7))
    assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))


def test_interlacing_complete():
    big = eigen.spectrum(complete(5))
    small = eigen.spectrum(complete(4))
    for i in range(4):
        assert big[i] >= small[i] - 1e-12
        assert small[i] >= big[i + 1] - 1e-12


def test_eigensystem_consistency():
    g = cycle(6)
    vals, vecs = eigen.eigensystem(g)
    a = g.adjacency()
    assert np.allclose(a @ vecs, vecs @ np.diag(vals), atol=1e-10)
    assert np.allclose(vecs.T @ vecs, np.eye(6), atol=1e-10)
    assert np.allclose(vals, eigen.spectrum(g), atol=1e-12)


def test_input_validation():
    with pytest.raises(ValueError):
        eigen.eigvals_symmetric(np.ones((2, 3)))
    with pytest.raises(ValueError):
        eigen.eigvals_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_spectra_batch_matches_scalar(census5):
    stack = np.stack([g.adjacency() for g in census5])
    batch = eigen.spectra_batch(stack)
    for row, g in zip(batch, census5):
        assert np.allclose(row, eigen.spectrum(g), atol=1e-10)


def test_trace_invariants(census6):
    for g in census6:
        vals = eigen.spectrum(g)
        assert abs(vals.sum()) < 1e-8
        assert abs((vals ** 2).sum() - 2.0 * g.edge_count) < 1e-8


def test_relabel_invariance():
    rng = np.random.default_rng(7)
    g = cycle(7)
    base = eigen.spectrum(g)
    for _ in range(10):
        perm = rng.permutation(7)
        assert np.allclose(eigen.spectrum(relabel(g, perm.tolist())), base,
                           atol=1e-10)


def test_nullity():
    assert eigen.nullity(eigen.spectrum(path(3))) == 1
    assert eigen.nullity(eigen.spectrum(cycle(4))) == 2
    assert eigen.nullity(eigen.spectrum(complete(4))) == 0
    assert eigen.nullity(eigen.spectrum(star(5))) == 3
    # tolerance is adjustable
    vals = np.array([1.0, 1e-6, -1.0])
    assert eigen.nullity(vals, zero_tol=1e-5) == 1
    assert eigen.nullity(vals, zero_tol=1e-7) == 0


def test_default_zero_tol_scales_with_order():
    assert eigen.default_zero_tol(10) == pytest.approx(1e-8)
    assert eigen.default_zero_tol(1) == pytest.approx(1e-9)


def test_zero_tolerance_resolves_the_default():
    assert eigen.zero_tolerance(10) == eigen.default_zero_tol(10)
    assert eigen.zero_tolerance(10, 0.0) == 0.0
    assert eigen.zero_tolerance(10, 0.5) == 0.5


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf])
def test_negative_or_non_finite_zero_tolerance_is_rejected(tol):
    vals = [2.0, -1.0, -1.0]
    for call in (lambda: eigen.zero_tolerance(3, tol),
                 lambda: eigen.nullity(vals, tol),
                 lambda: compute_indices(vals, tol),
                 lambda: indices_batch(np.array([vals]), tol)):
        with pytest.raises(ValueError, match="zero tolerance must be finite"):
            call()
