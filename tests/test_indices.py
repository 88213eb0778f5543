"""Spectral index extraction and streaming moment statistics."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from specgap import census, eigen
from specgap.graphs import _adjacency, _pair_bits, complete, cycle, path, star
from specgap.indices import (
    INDEX_NAMES,
    WITNESS_BAND,
    WITNESS_CAP,
    DegenerateSpectrumError,
    IndexStats,
    InsufficientDataError,
    compute_indices,
    index_rows,
    index_table,
    indices_batch,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def test_complete_graph_indices():
    idx = compute_indices(eigen.spectrum(complete(4)))
    assert idx.lambda_max == pytest.approx(3.0)
    assert idx.lambda_min == pytest.approx(-1.0)
    assert idx.lambda_plus == pytest.approx(3.0)
    assert idx.lambda_minus == pytest.approx(-1.0)
    assert idx.gap == pytest.approx(4.0)
    assert idx.ind == pytest.approx(3.0)
    assert idx.power == pytest.approx(6.0)


def test_path_indices():
    idx = compute_indices(eigen.spectrum(path(4)))
    assert idx.lambda_plus == pytest.approx(PHI - 1.0)
    assert idx.lambda_minus == pytest.approx(1.0 - PHI)
    assert idx.gap == pytest.approx(2.0 * PHI - 2.0)
    assert idx.ind == pytest.approx(PHI - 1.0)
    assert idx.power == pytest.approx(2.0 * math.sqrt(5.0))


def test_star_indices():
    # K_{1,4}: spectrum {2, 0, 0, 0, -2}
    idx = compute_indices(eigen.spectrum(star(5)))
    assert idx.gap == pytest.approx(4.0)
    assert idx.ind == pytest.approx(2.0)
    assert idx.power == pytest.approx(4.0)


def test_by_name():
    idx = compute_indices(eigen.spectrum(cycle(4)))
    assert idx.by_name("gap") == idx.gap
    assert idx.by_name("pow") == idx.power
    assert idx.by_name("lambda_max") == idx.lambda_max
    with pytest.raises(KeyError):
        idx.by_name("nope")
    assert set(INDEX_NAMES) == {"lambda_max", "lambda_min", "gap", "ind", "pow"}


def test_degenerate_spectra():
    with pytest.raises(DegenerateSpectrumError):
        compute_indices([0.0])
    with pytest.raises(DegenerateSpectrumError):
        compute_indices([1.0, 0.0, 0.0])
    with pytest.raises(DegenerateSpectrumError):
        compute_indices([0.0, -1.0])


def test_zero_tol_controls_sign_classification():
    vals = [1.0, 1e-12, -1.0]
    idx = compute_indices(vals)
    assert idx.lambda_plus == pytest.approx(1.0)
    # with a tolerance below 1e-12 the tiny value becomes lambda_plus
    idx = compute_indices(vals, zero_tol=1e-13)
    assert idx.lambda_plus == pytest.approx(1e-12)


def test_indices_accept_unsorted_input():
    a = compute_indices([-1.0, 3.0, -1.0, -1.0])
    b = compute_indices([3.0, -1.0, -1.0, -1.0])
    assert a == b


def test_degenerate_messages():
    with pytest.raises(DegenerateSpectrumError, match="^empty spectrum$"):
        compute_indices([])
    with pytest.raises(DegenerateSpectrumError, match="^spectrum has no "
                       "eigenvalues of both signs beyond tolerance$"):
        compute_indices([0.0, 1.0])
    with pytest.raises(DegenerateSpectrumError,
                       match="^row 1: spectrum lacks eigenvalues of both signs$"):
        indices_batch(np.array([[1.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(DegenerateSpectrumError,
                       match="^graph 1: spectrum lacks eigenvalues of both signs$"):
        indices_batch(np.array([[1.0, -1.0], [1.0, 0.0]]),
                      name=lambda row: f"graph {row}")


def test_index_rows_of_selected_rows():
    table = index_table(np.array([[1.0, 0.0], [2.0, -1.0], [3.0, 0.0]]))
    assert table["degenerate"].tolist() == [True, False, True]
    assert table["nullity"].tolist() == [1, 0, 1]
    [idx] = index_rows({name: column[~table["degenerate"]]
                        for name, column in table.items()})
    assert idx == compute_indices([2.0, -1.0])
    with pytest.raises(DegenerateSpectrumError):
        index_rows(table)


def test_one_row_call_matches_the_batch_on_the_order8_census(census8_path):
    graphs = list(census.Graph6Source(census8_path))
    vals = eigen.spectra_batch(_adjacency(*_pair_bits(graphs)))
    table = indices_batch(vals)
    fields = ("lambda_max", "lambda_min", "lambda_plus", "lambda_minus",
              "gap", "ind", "pow")
    for i, v in enumerate(vals):
        idx = compute_indices(v)
        one = indices_batch(v[None])
        for name in fields:
            assert one[name][0] == idx.by_name(name) == table[name][i]
        assert one["nullity"][0] == table["nullity"][i] == eigen.nullity(v)


def _charpoly(a):
    """The characteristic polynomials det(xI - A) = sum c_k x^k of a stack
    of integer matrices, as int64 coefficients c_0..c_m per row, by
    Faddeev-LeVerrier; and the largest |entry| of any M_k or A M_k."""
    n, m, _ = a.shape
    coeffs = np.zeros((n, m + 1), np.int64)
    coeffs[:, m] = 1
    eye = np.eye(m, dtype=np.int64)
    mk, peak = np.zeros_like(a), 0
    for k in range(1, m + 1):
        mk = a @ mk + coeffs[:, m - k + 1, None, None] * eye
        amk = a @ mk
        peak = max(peak, int(np.abs(mk).max()), int(np.abs(amk).max()))
        trace = np.trace(amk, axis1=1, axis2=2)
        assert (trace % k == 0).all()  # the division below is exact
        coeffs[:, m - k] = -(trace // k)
    # Cayley-Hamilton: A M_m + c_0 I = 0 checks the whole recurrence
    assert (amk + coeffs[:, 0, None, None] * eye == 0).all()
    return coeffs, peak


def test_nullity_matches_the_exact_characteristic_polynomial(census8_path):
    # the zero tolerance against exact integers on every order-8 graph:
    # the nullity is the number of trailing zero coefficients
    source = census.Graph6Source(census8_path)
    bits = np.concatenate([bits for _, bits, _ in source._batches()])
    adj = _adjacency(8, bits)
    coeffs, peak = _charpoly(adj.astype(np.int64))
    # entries below 2**31 keep every product A @ M (8 terms of 0/1 times an
    # entry) and every trace far inside int64
    assert peak < 2**31
    exact = np.argmax(coeffs != 0, axis=1)
    assert (exact == index_table(eigen.spectra_batch(adj))["nullity"]).all()
    assert len(exact) == 11117 and exact.max() > 0


def test_batch_matches_scalar(census5):
    vals = np.stack([eigen.spectrum(g) for g in census5])
    out = indices_batch(vals, eigen.default_zero_tol(5))
    for i, g in enumerate(census5):
        idx = compute_indices(vals[i])
        for name in INDEX_NAMES:
            assert out[name][i] == pytest.approx(idx.by_name(name), abs=1e-12)


# ---------------------------------------------------------------------------
# streaming statistics


def hand_moments(values):
    """Two-pass reference: mean, Bessel std, population skew and kurtosis."""
    v = np.asarray(values, dtype=float)
    n = v.size
    mean = v.mean()
    d = v - mean
    m2 = float((d ** 2).sum())
    m3 = float((d ** 3).sum())
    m4 = float((d ** 4).sum())
    std = math.sqrt(m2 / (n - 1)) if n > 1 else 0.0
    skew = (m3 / n) / (m2 / n) ** 1.5
    kurt = (m4 / n) / (m2 / n) ** 2
    return mean, std, skew, kurt


def test_two_value_stream():
    # order-3 census lambda_max values: sqrt(2) for the path, 2 for K3
    s = IndexStats()
    s.update(math.sqrt(2.0), "path")
    s.update(2.0, "complete")
    assert s.mean == pytest.approx((math.sqrt(2.0) + 2.0) / 2.0)
    assert s.std() == pytest.approx((2.0 - math.sqrt(2.0)) / math.sqrt(2.0))
    assert s.skewness() == pytest.approx(0.0, abs=1e-12)
    assert s.kurtosis() == pytest.approx(1.0)
    assert s.minimum == pytest.approx(math.sqrt(2.0))
    assert s.maximum == pytest.approx(2.0)
    out = s.finalize()
    assert out.min_witnesses == ("path",)
    assert out.max_witnesses == ("complete",)


def test_single_and_empty_stream():
    s = IndexStats()
    with pytest.raises(InsufficientDataError):
        s.std()
    s.update(5.0)
    assert s.std() == 0.0
    with pytest.raises(InsufficientDataError):
        s.skewness()
    with pytest.raises(InsufficientDataError):
        s.kurtosis()
    out = s.finalize()
    assert out.count == 1 and out.std == 0.0
    assert out.skewness is None and out.kurtosis is None


def test_constant_stream_has_no_shape():
    s = IndexStats()
    for _ in range(5):
        s.update(2.5)
    assert s.std() == 0.0
    with pytest.raises(InsufficientDataError):
        s.skewness()


def test_stream_within_the_tie_band_has_no_shape():
    # the mean of three 0.1s rounds away from 0.1, so m2 > 0 from rounding
    # alone; one ulp apart is no spread either
    for values in ([0.1] * 3, [1.0, np.nextafter(1.0, 2.0), 1.0]):
        s = IndexStats()
        s.update_many(np.array(values))
        out = s.finalize()
        assert out.skewness is None and out.kurtosis is None
        assert out.std == pytest.approx(0.0, abs=1e-15)
    s = IndexStats()
    s.update_many(np.array([1.0, 1.0 + 2e-9, 1.0]))
    assert s.finalize().skewness == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-5)


def test_stream_matches_two_pass():
    rng = np.random.default_rng(42)
    values = rng.normal(3.0, 1.5, size=257)
    s = IndexStats()
    for v in values:
        s.update(float(v))
    mean, std, skew, kurt = hand_moments(values)
    assert s.mean == pytest.approx(mean, rel=1e-12)
    assert s.std() == pytest.approx(std, rel=1e-10)
    assert s.skewness() == pytest.approx(skew, rel=1e-9)
    assert s.kurtosis() == pytest.approx(kurt, rel=1e-9)


def test_update_many_matches_update_loop():
    rng = np.random.default_rng(3)
    values = rng.uniform(-4.0, 9.0, size=1000)
    one = IndexStats()
    for v in values:
        one.update(float(v))
    bulk = IndexStats()
    bulk.update_many(values[:400])
    bulk.update_many(values[400:])
    assert bulk.count == one.count
    assert bulk.mean == pytest.approx(one.mean, rel=1e-12)
    assert bulk.std() == pytest.approx(one.std(), rel=1e-10)
    assert bulk.skewness() == pytest.approx(one.skewness(), rel=1e-8)
    assert bulk.kurtosis() == pytest.approx(one.kurtosis(), rel=1e-8)


def test_merge_matches_single_pass():
    rng = np.random.default_rng(11)
    values = rng.normal(0.0, 2.0, size=10_000)
    whole = IndexStats()
    whole.update_many(values)
    parts = []
    for lo in range(0, 10_000, 1000):
        s = IndexStats()
        s.update_many(values[lo:lo + 1000])
        parts.append(s)
    merged = IndexStats()
    for s in parts:
        merged.absorb(s)
    assert merged.count == whole.count
    assert merged.mean == pytest.approx(whole.mean, abs=1e-9)
    assert merged.std() == pytest.approx(whole.std(), abs=1e-9)
    assert merged.skewness() == pytest.approx(whole.skewness(), abs=1e-9)
    assert merged.kurtosis() == pytest.approx(whole.kurtosis(), abs=1e-9)
    assert merged.minimum == whole.minimum
    assert merged.maximum == whole.maximum


def test_merge_is_order_insensitive():
    a = IndexStats()
    a.update_many(np.array([1.0, 2.0, 3.0]), ["a1", "a2", "a3"].__getitem__)
    b = IndexStats()
    b.update_many(np.array([4.0, 5.0]), ["b1", "b2"].__getitem__)
    ab, ba = IndexStats(), IndexStats()
    ab.absorb(a)
    ab.absorb(b)
    ba.absorb(b)
    ba.absorb(a)
    assert ab.mean == pytest.approx(ba.mean, rel=1e-14)
    assert ab.finalize().min_witnesses == ba.finalize().min_witnesses
    assert ab.finalize().max_witnesses == ba.finalize().max_witnesses


def test_witness_cap_and_overflow():
    s = IndexStats()
    for i in range(WITNESS_CAP + 4):
        s.update(1.0, f"g{i:02d}")
    out = s.finalize()
    assert len(out.min_witnesses) == WITNESS_CAP
    assert out.min_overflow == 4
    assert out.max_overflow == 4
    # retained labels are the lexicographically smallest, independent of order
    assert out.min_witnesses == tuple(f"g{i:02d}" for i in range(WITNESS_CAP))


def test_witness_reset_on_new_extreme():
    s = IndexStats()
    for i in range(20):
        s.update(5.0, f"hi{i}")
    s.update(1.0, "lone")
    out = s.finalize()
    assert out.min_witnesses == ("lone",)
    assert out.min_overflow == 0
    assert out.minimum == 1.0


def test_witnesses_within_band_tie():
    s = IndexStats()
    s.update(1.0, "exact")
    s.update(1.0 + 1e-10, "close")   # inside the 1e-9 tie band
    s.update(1.1, "far")
    out = s.finalize()
    assert set(out.min_witnesses) == {"exact", "close"}


def test_overflow_counts_only_the_final_band():
    # ties at 1.2e-9 overflow the cap first, then fall outside the band of
    # the final minimum 0.0; only offers within that band may count
    offers = [(1.2e-9, f"a{i:02d}") for i in range(WITNESS_CAP + 3)]
    offers += [(0.6e-9, "b"), (0.0, "c")]
    for stream in (offers, sorted(offers), offers[::-1]):
        s = IndexStats()
        for value, label in stream:
            s.update(value, label)
        out = s.finalize()
        assert out.min_witnesses == ("c", "b")
        assert out.min_overflow == 0
        # the maximum 1.2e-9 keeps the cap's 16 smallest labels; the other
        # three ties and 0.6e-9 (inside its band) overflow
        assert out.max_witnesses == tuple(f"a{i:02d}" for i in range(WITNESS_CAP))
        assert out.max_overflow == 4


def _witness_oracle(values, labels, sign):
    """Witnesses and overflow of one extremum straight from the definition:
    the smallest (key, label) pairs within the band of the best key."""
    keys = [sign * v for v in values]
    cut = min(keys) + WITNESS_BAND
    qualifying = sorted(kl for kl in zip(keys, labels) if kl[0] <= cut)
    kept = qualifying[:WITNESS_CAP]
    return tuple(label for _, label in kept), len(qualifying) - len(kept)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 2 * WITNESS_CAP), min_size=4, max_size=4),
       st.data())
def test_absorb_in_any_order_matches_one_pass(counts, data):
    # values a fraction of the tie band apart, with enough repeats to fill
    # the witness cap, so band edges and overflow are exercised
    levels = (0.0, 0.6e-9, 1.2e-9, 1.0)
    values = [v for v, n in zip(levels, counts) for _ in range(n)]
    assume(values)
    values = data.draw(st.permutations(values))
    labels = data.draw(st.permutations([f"g{i:02d}" for i in range(len(values))]))
    want = None
    for stream in (list(zip(values, labels)),
                   sorted(zip(values, labels), reverse=True)):
        whole = IndexStats()
        for value, label in stream:
            whole.update(value, label)
        out = whole.finalize()
        assert (out.min_witnesses, out.min_overflow) == _witness_oracle(
            values, labels, +1)
        assert (out.max_witnesses, out.max_overflow) == _witness_oracle(
            values, labels, -1)
        want = want or out
    cuts = data.draw(st.lists(st.integers(0, len(values)), max_size=6))
    bounds = [0, *sorted(cuts), len(values)]
    parts = []
    for lo, hi in zip(bounds, bounds[1:]):
        part = IndexStats()
        part.update_many(np.array(values[lo:hi]), labels[lo:hi].__getitem__)
        parts.append(part)
    merged = IndexStats()
    for part in data.draw(st.permutations(parts)):
        merged.absorb(part)
    got = merged.finalize()
    assert (got.minimum, got.maximum) == (want.minimum, want.maximum)
    assert got.min_witnesses == want.min_witnesses
    assert got.max_witnesses == want.max_witnesses
    assert got.min_overflow == want.min_overflow
    assert got.max_overflow == want.max_overflow


def test_update_many_witness_callable():
    labels = ["a", "b", "c", "d"]
    s = IndexStats()
    s.update_many(np.array([3.0, 1.0, 2.0, 1.0]), labels.__getitem__)
    out = s.finalize()
    assert set(out.min_witnesses) == {"b", "d"}
    assert out.max_witnesses == ("a",)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("labelled", [False, True])
def test_update_many_rejects_non_finite_values(bad, labelled):
    s = IndexStats()
    s.update_many(np.array([3.0, 1.0, 2.0]), ["a", "b", "c"].__getitem__)
    before = s.finalize()
    state = (s.count, s.mean, s.m2, s.m3, s.m4)
    with pytest.raises(ValueError, match="^index values must be finite$"):
        s.update_many(np.array([0.5, bad, 9.0]),
                      (lambda i: "x") if labelled else None)
    assert (s.count, s.mean, s.m2, s.m3, s.m4) == state
    assert s.finalize() == before


@settings(max_examples=60)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=40),
       st.integers(1, 39))
def test_merge_property(values, cut):
    cut = min(cut, len(values) - 1)
    a = IndexStats()
    a.update_many(np.array(values[:cut]))
    b = IndexStats()
    b.update_many(np.array(values[cut:]))
    merged = IndexStats()
    merged.absorb(a)
    merged.absorb(b)
    whole = IndexStats()
    whole.update_many(np.array(values))
    assert merged.count == whole.count
    assert merged.mean == pytest.approx(whole.mean, rel=1e-9, abs=1e-9)
    assert merged.m2 == pytest.approx(whole.m2, rel=1e-8, abs=1e-7)
