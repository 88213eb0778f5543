"""Closed-form multipartite spectra, perturbed families, bounds, search."""

import math
import random
import signal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specgap import census, eigen, graph6, multipartite as mp
from specgap.graphs import (
    Graph,
    _pair_bits,
    complete,
    complete_multipartite,
    cycle,
    from_edges,
    kmm_minus_e,
    kmm_plus_e,
    path,
    star,
)
from specgap.indices import DegenerateSpectrumError, SpectralIndices, compute_indices
from specgap.verify import partitions

# frozen from an independent root-finder run (numpy.roots on the reduced
# characteristic polynomial, cross-checked against eigvalsh of the graph)
K123_NONZERO = (3.766435483853, -1.282823863309, -2.483611620544)
K234_NONZERO = (5.848674068514, -2.337175446428, -3.511498622085)
K33_PLUS_ROOTS = (3.392344345630, 0.325396771834, -2.717741117464)
K33_MINUS_VALUES = (2.732050807569, 0.732050807569, -0.732050807569,
                    -2.732050807569)


def nonzero_values(spec, tol=1e-9):
    return tuple(e.value for e in spec.entries
                 for _ in range(e.multiplicity) if abs(e.value) > tol)


def test_dispersion_sum():
    # at lambda = 0 each part contributes m_i / m_i = 1
    assert mp.dispersion_sum(0.0, [2, 3, 4]) == pytest.approx(3.0)
    assert mp.dispersion_sum(100.0, [1, 1]) == pytest.approx(2.0 / 101.0)
    with pytest.raises(mp.PoleInputError):
        mp.dispersion_sum(-3.0, [2, 3, 4])


def test_dispersion_roots_solve_equation():
    spec = mp.multipartite_spectrum([2, 3, 4])
    for e in spec.entries:
        if e.provenance == "dispersion_root":
            assert mp.dispersion_sum(e.value, [2, 3, 4]) == pytest.approx(
                1.0, abs=1e-9)


def test_oracle_k123():
    spec = mp.multipartite_spectrum([1, 2, 3])
    assert nonzero_values(spec) == pytest.approx(K123_NONZERO, abs=1e-9)
    assert spec.order == 6


def test_oracle_k234():
    spec = mp.multipartite_spectrum([2, 3, 4])
    assert nonzero_values(spec) == pytest.approx(K234_NONZERO, abs=1e-9)


def test_complete_graph_partition():
    # all parts of size one: spectrum (m-1, -1 x (m-1)), no zeros
    spec = mp.multipartite_spectrum([1] * 5)
    vals = spec.values()
    assert vals == pytest.approx([4, -1, -1, -1, -1])


def test_balanced_bipartite():
    spec = mp.multipartite_spectrum([3, 3])
    vals = spec.values()
    assert vals[0] == 3.0  # equipartite top eigenvalue is exact
    assert vals == pytest.approx([3, 0, 0, 0, 0, -3])


def test_repeated_parts_give_fixed_values():
    spec = mp.multipartite_spectrum([2, 2, 5])
    fixed = [e for e in spec.entries if e.provenance == "fixed_part_value"]
    assert len(fixed) == 1
    assert fixed[0].value == -2.0
    assert fixed[0].multiplicity == 1
    zero = [e for e in spec.entries if e.provenance == "zero_block"]
    assert zero[0].multiplicity == 9 - 3


def test_part_order_is_irrelevant():
    a = mp.multipartite_spectrum([3, 1, 2]).values()
    b = mp.multipartite_spectrum([1, 2, 3]).values()
    assert a == pytest.approx(b, abs=1e-12)


def test_all_partitions_match_dense_solver():
    for total in range(2, 11):
        for parts in partitions(total):
            analytic = mp.multipartite_spectrum(parts).values()
            dense = eigen.spectrum(complete_multipartite(parts))
            assert np.max(np.abs(analytic - dense)) < 1e-8, parts
            # connected multipartite graphs have one positive eigenvalue
            assert int((analytic > 1e-9).sum()) == 1, parts


def test_partition_validation():
    with pytest.raises(mp.InvalidPartitionError):
        mp.multipartite_spectrum([5])
    with pytest.raises(mp.InvalidPartitionError):
        mp.multipartite_spectrum([])
    with pytest.raises(mp.InvalidPartitionError):
        mp.multipartite_spectrum([2, -1])
    with pytest.raises(mp.InvalidPartitionError):
        mp.multipartite_spectrum([2.5, 1])


def test_reduced_part_matrix():
    r = mp.reduced_part_matrix([2, 3])
    assert r.shape == (2, 2)
    assert r[0, 1] == pytest.approx(math.sqrt(6))
    assert r[0, 0] == 0.0
    # its nonzero eigenvalues coincide with the graph's
    vals = np.linalg.eigvalsh(mp.reduced_part_matrix([1, 2, 3]))
    assert sorted(vals, reverse=True) == pytest.approx(K123_NONZERO, abs=1e-9)


def test_tripartite_roots():
    roots = mp.tripartite_roots(1, 2, 3)
    assert roots == pytest.approx(K123_NONZERO, abs=1e-9)
    roots = mp.tripartite_roots(2, 3, 4)
    assert roots == pytest.approx(K234_NONZERO, abs=1e-9)
    # triple root structure for the balanced case: 2m, -m, -m
    roots = mp.tripartite_roots(4, 4, 4)
    assert roots == pytest.approx((8.0, -4.0, -4.0), abs=1e-9)


def test_analytic_indices():
    spec = mp.multipartite_spectrum([1, 2, 3])
    idx = spec.indices()
    direct = compute_indices(spec.values())
    assert idx == direct


# ---------------------------------------------------------------------------
# perturbed balanced bipartite families


def test_kmm_minus_e_small_cases():
    # m=2 leaves the path P4
    vals = mp.kmm_minus_e_spectrum(2).values()
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    assert vals == pytest.approx([phi, phi - 1.0, 1.0 - phi, -phi], abs=1e-12)
    vals = mp.kmm_minus_e_spectrum(3).values()
    assert tuple(v for v in vals if abs(v) > 1e-9) == pytest.approx(
        K33_MINUS_VALUES, abs=1e-9)


def test_kmm_plus_e_small_cases():
    spec = mp.kmm_plus_e_spectrum(3)
    nz = nonzero_values(spec)
    expect = sorted(K33_PLUS_ROOTS + (-1.0,), reverse=True)
    assert nz == pytest.approx(expect, abs=1e-9)
    # diamond graph at m=2: the cubic's middle root degenerates to zero
    vals = mp.kmm_plus_e_spectrum(2).values()
    s17 = math.sqrt(17.0)
    assert vals == pytest.approx(
        [(1 + s17) / 2, 0.0, -1.0, (1 - s17) / 2], abs=1e-12)


def test_perturbed_match_dense(census4):
    for m in range(2, 31):
        a = mp.kmm_minus_e_spectrum(m).values()
        assert np.max(np.abs(a - eigen.spectrum(kmm_minus_e(m)))) < 1e-8
        a = mp.kmm_plus_e_spectrum(m).values()
        assert np.max(np.abs(a - eigen.spectrum(kmm_plus_e(m)))) < 1e-8


def test_kmm_plus_e_exact_minus_one():
    for m in range(2, 40):
        entries = mp.kmm_plus_e_spectrum(m).entries
        assert any(e.value == -1.0 for e in entries), m


def test_gap_sandwich_and_limits():
    prev = None
    for m in range(2, 200):
        gap = mp.kmm_minus_e_spectrum(m).indices().gap
        lo = 2.0 * math.sqrt(1.0 - 2.0 / (m + 1.0))
        hi = 2.0 * math.sqrt(1.0 - 1.0 / m)
        assert lo < gap < hi
        if prev is not None:
            assert gap > prev  # approaches 2 from below, monotonically
        prev = gap
    assert abs(mp.kmm_minus_e_spectrum(10 ** 6).indices().gap - 2.0) < 1e-5


def test_plus_family_limits():
    idx = mp.kmm_plus_e_spectrum(10 ** 6).indices()
    assert abs(idx.gap - 2.0) < 1e-5
    assert idx.ind == 1.0
    # the near-one root follows its asymptotic expansion closely
    for m in range(4, 101):
        r2 = mp.kmm_plus_e_spectrum(m).indices().lambda_plus
        assert abs(r2 - (1.0 - 2.0 / m - 2.0 / m ** 3)) <= 10.0 / m ** 4


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.lists(st.integers(1, 9), min_size=2, max_size=5).map(mp.multipartite_spectrum),
    st.integers(2, 300).map(mp.kmm_minus_e_spectrum),
    st.integers(2, 300).map(mp.kmm_plus_e_spectrum)))
def test_analytic_indices_match_the_expanded_spectrum(spec):
    # from distinct values and multiplicities, as the expanded spectrum
    # gives them with the default tolerance
    got, want = spec.indices(), compute_indices(spec.values())
    for name in ("lambda_max", "lambda_min", "lambda_plus", "lambda_minus",
                 "gap", "ind"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.power == pytest.approx(want.power, rel=1e-12)


def test_perturbed_validation():
    with pytest.raises(mp.InvalidOrderError):
        mp.kmm_minus_e_spectrum(1)
    with pytest.raises(mp.InvalidOrderError):
        mp.kmm_plus_e_spectrum(0)


# ---------------------------------------------------------------------------
# bound reports


def test_multipartite_bounds_hold():
    for parts in ([1, 2, 3], [4, 4], [1, 1, 1, 1], [2, 5, 5], [3, 3, 3, 3]):
        report = mp.multipartite_bounds_check(parts)
        assert report.holds, parts
        assert report.order == sum(parts)


def test_multipartite_gap_equality_at_balanced():
    # the gap bound is tight exactly when all parts share one size
    report = mp.multipartite_bounds_check([1] * 6)
    assert report.idx.gap == pytest.approx(6.0)
    report = mp.multipartite_bounds_check([2, 2, 2])
    assert report.idx.gap == pytest.approx(6.0)
    report = mp.multipartite_bounds_check([1, 2, 3])
    assert report.idx.gap < 6.0 - 1e-9


def test_nonmultipartite_bounds():
    report = mp.nonmultipartite_bounds_check(path(5))
    assert report.premise_ok and report.gap_ok and report.ind_ok
    assert report.order == 5
    with pytest.raises(mp.NotApplicableError):
        mp.nonmultipartite_bounds_check(complete_multipartite([2, 3]))
    with pytest.raises(mp.NotApplicableError):
        mp.nonmultipartite_bounds_check(complete(4))


def test_nonmultipartite_bound_values(monkeypatch):
    # even order: ind <= m/2; odd order: ind <= sqrt(m^2-1)/2
    r = mp.nonmultipartite_bounds_check(path(6))
    assert r.ind_bound == pytest.approx(3.0)
    assert r.gap_bound == pytest.approx(5.0)
    r = mp.nonmultipartite_bounds_check(path(5))
    assert r.ind_bound == pytest.approx(math.sqrt(24.0) / 2.0)
    assert r.gap_bound == pytest.approx(3.5)
    # at slack -0.6 this graph (lambda_+ 0.518, lambda2 1.414) fails only
    # the lambda2 <= floor(m/2) - 1 clause of the premise
    monkeypatch.setattr(mp, "_SLACK", -0.6)
    r = mp.nonmultipartite_bounds_check(graph6.decode("FLQC?"))
    assert 0.0 < r.idx.lambda_plus <= r.lambda2 - 0.6
    assert not r.premise_ok and not r.holds


def test_bipartite_gap_bound_examples():
    r = mp.bipartite_gap_bound(kmm_minus_e(3))
    assert r.holds
    assert r.gap == pytest.approx(1.4641016151, abs=1e-9)
    assert r.bound == pytest.approx(1.8856180832, abs=1e-9)
    r = mp.bipartite_gap_bound(path(4))
    assert r.holds
    assert r.bound == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert r.gap == pytest.approx(math.sqrt(5.0) - 1.0, abs=1e-12)


def test_bipartite_gap_bound_applicability():
    with pytest.raises(mp.NotApplicableError):
        mp.bipartite_gap_bound(complete(3))          # not bipartite
    with pytest.raises(mp.NotApplicableError):
        mp.bipartite_gap_bound(complete_multipartite([2, 3]))  # complete bip.
    with pytest.raises(mp.NotApplicableError):
        mp.bipartite_gap_bound(path(3))              # denominator vanishes
    # a triangle whose BFS layers still count a (m - a) = 6 edges
    odd = from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4)])
    with pytest.raises(mp.NotApplicableError, match="^graph is not bipartite$"):
        mp.bipartite_gap_bound(odd)


def test_bipartite_gap_bound_over_census(census6):
    from specgap.graphs import bipartition, detect_complete_multipartite

    checked = 0
    for g in census6:
        if bipartition(g) is None:
            continue
        if detect_complete_multipartite(g) is not None:
            continue
        r = mp.bipartite_gap_bound(g)
        assert r.holds
        checked += 1
    assert checked == 14


# ---------------------------------------------------------------------------
# the census bounds against per-graph dense eigensolves

def _oracle(g):
    """The four bound outcomes of one graph, derived here from per-graph
    numpy: eigvalsh for spectra, eigh for the lambda_min eigenvector (the
    two LAPACK drivers agree on eigenvalues only to rounding)."""
    m = g.order
    a = g.adjacency()
    vals = np.linalg.eigvalsh(a)[::-1]
    tol = 1e-9 * m
    slack = 1e-9
    pos, neg = vals[vals > tol], vals[vals < -tol]
    lam_plus, lam_minus = float(pos[-1]), float(neg[0])
    idx = SpectralIndices(
        lambda_max=float(vals[0]), lambda_min=float(vals[-1]),
        lambda_plus=lam_plus, lambda_minus=lam_minus,
        gap=lam_plus - lam_minus, ind=max(lam_plus, -lam_minus),
        power=float(np.abs(vals).sum()),
    )
    # Smith: connected and complete multipartite iff one positive eigenvalue;
    # bipartite iff the spectrum is symmetric about zero
    multipartite = pos.size == 1
    bipartite = np.allclose(vals, -vals[::-1], rtol=0.0, atol=1e-9)

    if multipartite:
        nonmulti = None
    else:
        gap_bound, ind_bound = ((m - 1.0, m / 2.0) if m % 2 == 0
                                else (m - 1.5, math.sqrt(m * m - 1.0) / 2.0))
        lambda2, lambda2_bound = float(vals[1]), m // 2 - 1.0
        nonmulti = mp.NonMultipartiteBoundsReport(
            order=m, idx=idx, lambda2=lambda2, gap_bound=gap_bound,
            ind_bound=ind_bound, lambda2_bound=lambda2_bound,
            premise_ok=(0.0 < lam_plus <= lambda2 + slack
                        and lambda2 <= lambda2_bound + slack),
            gap_ok=idx.gap <= gap_bound + slack,
            ind_ok=idx.ind <= ind_bound + slack,
        )

    nullity = int(np.count_nonzero(np.abs(vals) <= tol))
    if not bipartite or multipartite or m - nullity - 2 <= 0:
        bip = None
    else:
        d = 2.0 * g.edge_count / m
        bip = mp.BipartiteBoundReport(
            order=m, avg_degree=d, nullity=nullity, gap=idx.gap,
            bound=2.0 * math.sqrt(d * (m - 2.0 * d) / (m - nullity - 2.0)),
        )

    lam = float(vals[0])
    cone_adj = np.ones((m + 1, m + 1)) - np.eye(m + 1)
    cone_adj[:m, :m] = a
    cone = mp.ConeReport(
        base_value=lam,
        new_value=float(np.linalg.eigvalsh(cone_adj)[-1]),
        bound=(lam + math.sqrt(lam * lam + 4.0)) / 2.0,
    )

    w, v = np.linalg.eigh(a)
    lam = float(w[0])
    i0 = int(np.argmax(np.abs(v[:, 0])))
    pendant_adj = np.zeros((m + 1, m + 1))
    pendant_adj[:m, :m] = a
    pendant_adj[i0, m] = pendant_adj[m, i0] = 1.0
    pendant = mp.PendantReport(
        base_value=lam,
        new_value=float(np.linalg.eigvalsh(pendant_adj)[0]),
        bound=(lam - math.sqrt(lam * lam + 4.0 / m)) / 2.0,
        attach_vertex=i0,
    )
    return nonmulti, bip, cone, pendant


_CENSUS_BOUNDS = (
    (mp._nonmultipartite_columns, mp.nonmultipartite_bounds_check),
    (mp._bipartite_columns, mp.bipartite_gap_bound),
    (mp._cone_columns, mp.cone_lambda_max_bound),
    (mp._pendant_columns, mp.pendant_lambda_min_bound),
)


def _outcome(check, g):
    """One graph's report, or its NotApplicableError where it is off the
    bound's premise."""
    try:
        return check(g)
    except mp.NotApplicableError as exc:
        return exc


def _is_plain(report):
    """Whether every field of a report is a Python float, int or bool, or a
    SpectralIndices of floats: no numpy scalar."""
    fields = dict(vars(report))
    idx = vars(fields.pop("idx")).values() if "idx" in fields else ()
    return (all(type(v) in (float, int, bool) for v in fields.values())
            and all(type(v) is float for v in idx))


def test_batch_reports_match_per_graph_eigensolves(census8_path):
    by_order = {m: census.enumerate_connected(m) for m in range(2, 8)}
    with open(census8_path) as fh:
        lines = fh.read().split()
    by_order[8] = [graph6.decode(s)
                   for s in random.Random(8).sample(lines, 300)]
    seen = [0, 0]
    for graphs in by_order.values():
        for g in graphs:
            want = _oracle(g)
            got = tuple(None if isinstance(r, mp.NotApplicableError) else r
                        for r in (_outcome(check, g)
                                  for _, check in _CENSUS_BOUNDS))
            # the reprs compare every field, floats exactly, and their types
            assert repr(got) == repr(want), graph6.encode(g)
            assert all(_is_plain(r) for r in got if r is not None)
            assert [r.holds for r in got if r is not None] == \
                [r.holds for r in want if r is not None]
            seen[0] += want[0] is not None
            seen[1] += want[1] is not None
    # graphs on premise among the 1,295 (the rest are off it), so both
    # branches of each premised bound ran
    assert seen == [1258, 61]


def _follows_the_rules(r, m, slack):
    """Whether the derived fields of a report on an order-m graph are what
    scalar arithmetic on its other fields gives."""
    if isinstance(r, mp.NonMultipartiteBoundsReport):
        i = r.idx
        return (r.premise_ok == (0.0 < i.lambda_plus <= r.lambda2 + slack
                                 and r.lambda2 <= r.lambda2_bound + slack)
                and r.gap_ok == (i.gap <= r.gap_bound + slack)
                and r.ind_ok == (i.ind <= r.ind_bound + slack))
    if isinstance(r, mp.BipartiteBoundReport):
        d, k = r.avg_degree, r.nullity
        return r.bound == 2.0 * math.sqrt(d * (m - 2.0 * d) / (m - k - 2.0))
    lam = r.base_value
    if isinstance(r, mp.ConeReport):
        return r.bound == (lam + math.sqrt(lam * lam + 4.0)) / 2.0
    return r.bound == (lam - math.sqrt(lam * lam + 4.0 / m)) / 2.0


def _outcome_or_error(call, *args):
    try:
        return call(*args)
    except DegenerateSpectrumError as exc:
        return str(exc)


@pytest.mark.parametrize("slack", [mp._SLACK, -0.3, -0.6])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_columns_agree_with_the_reports(slack, data):
    # random graphs, connected or not, of orders 1 to 9: row k of a bound's
    # columns applies where its one-graph form gives graph k a report, and
    # holds where that report does, and each report's derived fields match
    # scalar arithmetic; the shifted slacks make some reports of every bound
    # hold and some fail (the pendant's at -0.3, the other three's at -0.6)
    order = data.draw(st.integers(1, 9))
    n = order * (order - 1) // 2
    graphs = [Graph(order, b) for b in data.draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12))]
    with mock.patch.object(mp, "_SLACK", slack):
        for columns, check in _CENSUS_BOUNDS:
            got = _outcome_or_error(columns, *_pair_bits(graphs))
            want = [_outcome_or_error(_outcome, check, g) for g in graphs]
            errors = {w for w in want if isinstance(w, str)}
            if errors or isinstance(got, str):
                # a degenerate spectrum raises for the graph and its batch
                assert errors == {got}
                continue
            why, holds, _ = got
            assert why.tolist() == [str(r) if isinstance(r, mp.NotApplicableError)
                                    else "" for r in want]
            assert holds.tolist() == [not isinstance(r, mp.NotApplicableError)
                                      and r.holds for r in want]
            assert all(_follows_the_rules(r, order, slack) for r in want
                       if not isinstance(r, mp.NotApplicableError))


def test_dispersion_root_ends_at_a_root_on_its_bracket():
    # K_{1,1}'s root 1 sits on the near end of (1, 2) and the far end of
    # (0, 1): each approach from inside reaches its end without a sign
    # change and stops there, where no step moves a double any more
    def expire(signum, frame):
        raise TimeoutError("the root search did not end")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        roots = [mp._dispersion_root((1, 1), 1.0, 2.0),
                 mp._dispersion_root((1, 1), 0.0, 1.0)]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert roots == pytest.approx([1.0, 1.0], abs=1e-12)


def test_premised_batches_at_order_one():
    # the one-vertex graph is connected, bipartite and not complete
    # bipartite, and it has no nonzero eigenvalue at all
    with pytest.raises(mp.NotApplicableError,
                       match="^zero multiplicity too large for the bound$"):
        mp.bipartite_gap_bound(Graph(1, 0))
    with pytest.raises(DegenerateSpectrumError,
                       match="^graph @: spectrum lacks eigenvalues of both signs$"):
        mp.nonmultipartite_bounds_check(Graph(1, 0))


def test_premised_bounds_need_a_connected_graph():
    # a path and a disjoint edge would pass the non-multipartite bounds,
    # the edgeless graph has no nonzero eigenvalue, and two paths are
    # bipartite
    for check, g in ((mp.nonmultipartite_bounds_check,
                      from_edges(5, [(0, 1), (2, 3), (3, 4)])),
                     (mp.nonmultipartite_bounds_check, Graph(3, 0)),
                     (mp.bipartite_gap_bound,
                      from_edges(6, [(0, 1), (1, 2), (3, 4)]))):
        with pytest.raises(mp.NotApplicableError,
                           match="^graph is not connected$"):
            check(g)
    # a disconnected graph is off premise for that reason, even with an
    # odd cycle
    triangle = from_edges(5, [(0, 1), (1, 2), (0, 2)])
    why, _, _ = mp._bipartite_columns(*_pair_bits([cycle(5), Graph(5, 0),
                                                    triangle, path(5)]))
    assert why.tolist() == ["graph is not bipartite", "graph is not connected",
                            "graph is not connected", ""]


def test_one_graph_check_raises_the_batch_outcome():
    why, _, _ = mp._bipartite_columns(*_pair_bits([star(5), path(5)]))
    assert why.tolist() == ["graph is complete bipartite", ""]
    with pytest.raises(mp.NotApplicableError,
                       match="^graph is complete bipartite$"):
        mp.bipartite_gap_bound(star(5))
    assert mp.nonmultipartite_bounds_check(path(6)) == _oracle(path(6))[0]


# ---------------------------------------------------------------------------
# density of achievable gaps, vertex addition, approximate counts


def test_density_search_example():
    w = mp.density_search(0.25, 0.36)
    assert (w.m1, w.m2) == (16, 21)
    assert w.order == 37
    assert w.gap == pytest.approx(36.66060555964672, abs=1e-9)
    assert w.order - 0.36 - 1e-9 <= w.gap <= w.order - 0.25 + 1e-9


def test_density_search_validation():
    with pytest.raises(ValueError):
        mp.density_search(-0.1, 0.5)
    with pytest.raises(ValueError):
        mp.density_search(0.5, 0.5)
    with pytest.raises(ValueError):
        mp.density_search(0.2, 1.0)


def test_density_witness_is_bipartite_gap():
    w = mp.density_search(0.1, 0.2)
    g = complete_multipartite([w.m1, w.m2])
    # 2 sqrt(m1 m2) is exactly the spectral gap of K_{m1,m2}
    assert w.gap == pytest.approx(2.0 * math.sqrt(w.m1 * w.m2), abs=1e-12)
    assert g.order == w.order


def test_cone_bound():
    r = mp.cone_lambda_max_bound(cycle(4))
    assert r.base_value == pytest.approx(2.0)
    assert r.new_value == pytest.approx(1.0 + math.sqrt(5.0))
    assert r.bound == pytest.approx(1.0 + math.sqrt(2.0))
    assert r.holds
    # cone over a single vertex is an edge; the bound is met with equality
    r = mp.cone_lambda_max_bound(path(1))
    assert r.new_value == pytest.approx(1.0)
    assert r.bound == pytest.approx(1.0)
    assert r.holds


def test_pendant_bound():
    r = mp.pendant_lambda_min_bound(complete(3))
    assert r.base_value == pytest.approx(-1.0)
    assert r.new_value == pytest.approx(-1.481194304092, abs=1e-9)
    assert r.bound == pytest.approx(-1.2637626158259732, abs=1e-9)
    assert r.holds
    assert r.attach_vertex == 0


def test_vertex_addition_over_census(census5):
    for g in census5:
        assert mp.cone_lambda_max_bound(g).holds
        assert mp.pendant_lambda_min_bound(g).holds


def test_approx_connected_count():
    assert mp.approx_connected_count(9) == 261080.0
    expect = {
        2: 1.0635884292909803,
        3: 1.806232298875166,
        4: 4.64273188372962,
        5: 18.06232298875159,
        6: 106.35884292909795,
        7: 947.9241853937807,
        8: 12787.145416071398,
        10: 8068143.315206482,
    }
    for m, v in expect.items():
        assert mp.approx_connected_count(m) == pytest.approx(v, rel=1e-12)
    with pytest.raises(mp.InvalidOrderError):
        mp.approx_connected_count(1)


def test_spectrum_entry_validation():
    with pytest.raises(ValueError):
        mp.SpectrumEntry(1.0, 0, "closed_form")
    with pytest.raises(ValueError):
        mp.SpectrumEntry(1.0, 1, "made_up_tag")
    with pytest.raises(ValueError):
        mp.AnalyticSpectrum(order=3, entries=(
            mp.SpectrumEntry(1.0, 1, "closed_form"),))
