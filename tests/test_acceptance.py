"""End-to-end acceptance gate.

Nine numbered suites covering enumeration counts, reproduction of the
published order-by-order index statistics, statistics conventions, analytic
spectra against dense eigensolves, perturbation families with their limits,
bound verification, gap density search, the connected-graph count formula,
and the census of all connected order-9 graphs.

The reference statistics table prints four decimals but mixes rounding with
truncation, and its min/max rows for the derived indices were evidently
computed from eigenvalues that had already been rounded to four decimals
(e.g. the order-6 minimum gap prints 0.7423 = 0.1873 + 0.5550 although the
full-precision value is 0.74224).  A cell therefore passes if the computed
value matches the printed one after rounding (|diff| <= 5e-5) or truncation
toward zero, or, for extreme rows, if recomputing the index from the witness
spectrum rounded to four decimals reproduces the printed value exactly.
"""

import math
import time

import numpy as np
import pytest

from specgap import census, eigen, graph6, multipartite as mp
from specgap.census import Graph6Source, enumerate_connected, extremal, run_census
from specgap.graphs import Graph, complete_multipartite, kmm_minus_e, kmm_plus_e
from specgap.indices import IndexStats, compute_indices
from specgap.verify import partitions, run_check

# ---------------------------------------------------------------------------
# published statistics, columns m = 2..8; None marks cells printed as "-"
# rows per index: (mean, std, skewness, kurtosis, maximum, minimum)

LMAX_TABLE = {
    2: (1.0, 0.0, None, None, 1.0, 1.0),
    3: (1.7071, 0.4142, 0.0, 1.0, 2.0, 1.4142),
    4: (2.1802, 0.5228, 0.5096, 1.9715, 3.0, 1.6180),
    5: (2.6417, 0.5968, 0.5171, 2.6351, 4.0, 1.7321),
    6: (3.0582, 0.6368, 0.4142, 2.9901, 5.0, 1.8019),
    7: (3.4856, 0.6562, 0.2855, 3.0804, 6.0, 1.8478),
    8: (3.9288, 0.6595, 0.1536, 3.0578, 7.0, 1.8794),
}
LMIN_TABLE = {
    2: (-1.0, 0.0, None, None, -1.0, -1.0),
    3: (-1.2071, 0.2929, 0.0, 1.0, -1.0, -1.4142),
    4: (-1.5655, 0.3305, 0.5740, 2.7899, -1.0, -2.0),
    5: (-1.7911, 0.2981, 0.2506, 4.2278, -1.0, -2.4495),
    6: (-2.0302, 0.3012, -0.4079, 4.1917, -1.0, -3.0),
    7: (-2.2264, 0.2995, -0.5438, 3.5318, -1.0, -3.4641),
    8: (-2.4191, 0.2994, -0.4937, 3.3933, -1.0, -4.0),
}
# rows per index: (maximum, minimum)
GAP_TABLE = {
    2: (2.0, 2.0), 3: (3.0, 2.8284), 4: (4.0, 1.2360), 5: (5.0, 1.0806),
    6: (6.0, 0.7423), 7: (7.0, 0.6390), 8: (8.0, 0.3468),
}
IND_TABLE = {
    2: (1.0, 1.0), 3: (2.0, 1.4142), 4: (3.0, 0.6180), 5: (4.0, 0.6180),
    6: (5.0, 0.4142), 7: (6.0, 0.3573), 8: (7.0, 0.1826),
}
POW_TABLE = {
    2: (2.0, 2.0), 3: (4.0, 2.8284), 4: (6.0, 3.4642), 5: (8.0, 4.0),
    6: (10.0, 4.4722), 7: (12.0, 4.8990), 8: (14.3253, 5.2916),
}

def cell_ok(computed: float, printed: float) -> bool:
    if abs(computed - printed) <= 5e-5:
        return True
    sign = 1.0 if computed >= 0 else -1.0
    truncated = sign * math.floor(abs(computed) * 1e4 + 1e-9) / 1e4
    return abs(truncated - printed) <= 1e-9


def round4_pipeline(witness_g6: str, name: str) -> float:
    """The index recomputed from the witness spectrum rounded to 4 decimals."""
    vals = np.round(eigen.spectrum(graph6.decode(witness_g6)), 4)
    return compute_indices(vals).by_name(name)


@pytest.fixture(scope="module")
def reports(census8_path):
    out = {}
    for m in range(2, 8):
        out[m] = run_census(enumerate_connected(m))
    out[8] = run_census(Graph6Source(census8_path))
    return out


# ---------------------------------------------------------------------------
# 1. enumeration counts


def test_accept_1_census_counts():
    start = time.monotonic()
    counts = {m: len(enumerate_connected(m)) for m in range(2, 8)}
    elapsed = time.monotonic() - start
    assert counts == {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    assert elapsed <= 60.0


# ---------------------------------------------------------------------------
# 2. reproduction of the published statistics table


def assert_cell(computed, printed, where, witness=None, name=None):
    if printed is None:
        assert computed is None, where
        return
    if cell_ok(computed, printed):
        return
    assert witness is not None, (where, computed, printed)
    derived = round4_pipeline(witness, name)
    assert abs(derived - printed) <= 1e-9, (where, computed, derived, printed)


def test_accept_2_table_lambda_stats(reports):
    for m in range(2, 9):
        for name, table in (("lambda_max", LMAX_TABLE),
                            ("lambda_min", LMIN_TABLE)):
            s = reports[m].stats[name].finalize()
            mean, std, skew, kurt, vmax, vmin = table[m]
            assert_cell(s.mean, mean, (name, "mean", m))
            assert_cell(s.std, std, (name, "std", m))
            assert_cell(s.skewness, skew, (name, "skewness", m))
            assert_cell(s.kurtosis, kurt, (name, "kurtosis", m))
            assert_cell(s.maximum, vmax, (name, "max", m))
            assert_cell(s.minimum, vmin, (name, "min", m))


def test_accept_2_table_index_extremes(reports):
    for m in range(2, 9):
        for name, table in (("gap", GAP_TABLE), ("ind", IND_TABLE),
                            ("pow", POW_TABLE)):
            s = reports[m].stats[name].finalize()
            vmax, vmin = table[m]
            assert_cell(s.maximum, vmax, (name, "max", m),
                        witness=s.max_witnesses[0], name=name)
            assert_cell(s.minimum, vmin, (name, "min", m),
                        witness=s.min_witnesses[0], name=name)


def test_accept_2_order7_power_witnesses(census7):
    res = extremal(census7, "pow", "max")
    assert res.value == pytest.approx(12.0, abs=1e-9)
    assert len(res.witnesses) == 2
    assert res.overflow == 0
    spectra = sorted(
        tuple(np.round(eigen.spectrum(graph6.decode(w)), 6))
        for w in res.witnesses
    )
    assert spectra[0] == pytest.approx((5.0, 1.0, -1.0, -1.0, -1.0, -1.0, -2.0))
    assert spectra[1] == pytest.approx((6.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0))


# ---------------------------------------------------------------------------
# 3. statistics conventions pinned by an independent two-pass computation


def test_accept_3_convention_oracle(census4):
    values = {"lambda_max": [], "lambda_min": []}
    for g in census4:
        vals = eigen.spectrum(g)
        values["lambda_max"].append(float(vals[0]))
        values["lambda_min"].append(float(vals[-1]))
    for name, table in (("lambda_max", LMAX_TABLE), ("lambda_min", LMIN_TABLE)):
        v = np.array(values[name])
        n = v.size
        mean = float(v.mean())
        d = v - mean
        std = math.sqrt(float((d ** 2).sum()) / (n - 1))
        skew = (float((d ** 3).sum()) / n) / (float((d ** 2).sum()) / n) ** 1.5
        kurt = (float((d ** 4).sum()) / n) / (float((d ** 2).sum()) / n) ** 2
        tmean, tstd, tskew, tkurt = table[4][:4]
        assert_cell(mean, tmean, (name, "mean", 4))
        assert_cell(std, tstd, (name, "std", 4))
        assert_cell(skew, tskew, (name, "skewness", 4))
        assert_cell(kurt, tkurt, (name, "kurtosis", 4))
        # and the streaming accumulator implements the same conventions
        s = IndexStats()
        for x in v:
            s.update(x)
        assert s.mean == pytest.approx(mean, rel=1e-12)
        assert s.std() == pytest.approx(std, rel=1e-12)
        assert s.skewness() == pytest.approx(skew, rel=1e-10)
        assert s.kurtosis() == pytest.approx(kurt, rel=1e-10)


# ---------------------------------------------------------------------------
# 4. analytic multipartite spectra against the dense eigensolver


def test_accept_4_multipartite_oracle():
    start = time.monotonic()
    seen = {m: 0 for m in range(2, 13)}
    for total in range(2, 13):
        for parts in partitions(total):
            seen[total] += 1
            spec = mp.multipartite_spectrum(parts)
            vals = spec.values()
            dense = eigen.spectrum(complete_multipartite(parts))
            assert float(np.max(np.abs(vals - dense))) <= 1e-8, parts
            assert int((vals > 1e-9).sum()) == 1, parts
            idx = spec.indices()
            assert abs(idx.power - 2.0 * vals[0]) <= 1e-9, parts
            m, k = total, len(parts)
            assert vals.min() >= -max(parts) - 1e-9, parts
            assert vals.max() <= m - m / k + 1e-9, parts
    assert seen[12] == 76
    assert sum(seen.values()) == 259
    assert time.monotonic() - start <= 5.0


# ---------------------------------------------------------------------------
# 5. perturbed balanced bipartite families


def test_accept_5_perturbation_families():
    for m in range(2, 51):
        analytic = mp.kmm_minus_e_spectrum(m)
        dense = eigen.spectrum(kmm_minus_e(m))
        assert float(np.max(np.abs(analytic.values() - dense))) <= 1e-8, m
        gap = analytic.indices().gap
        assert 2.0 * math.sqrt(1.0 - 2.0 / (m + 1.0)) < gap, m
        assert gap < 2.0 * math.sqrt(1.0 - 1.0 / m), m

        analytic = mp.kmm_plus_e_spectrum(m)
        dense = eigen.spectrum(kmm_plus_e(m))
        assert float(np.max(np.abs(analytic.values() - dense))) <= 1e-8, m
        lam_minus = compute_indices(dense).lambda_minus
        assert abs(lam_minus + 1.0) <= 1e-9, m

    assert abs(mp.kmm_minus_e_spectrum(10 ** 6).indices().gap - 2.0) <= 1e-5
    assert abs(mp.kmm_plus_e_spectrum(10 ** 6).indices().gap - 2.0) <= 1e-5


# ---------------------------------------------------------------------------
# 6. bound suites


def test_accept_6_bound_suites(census8_path):
    for m in range(4, 8):
        assert run_check("prop2a", m).passed, m
        assert run_check("prop2b", m).passed, m
        assert run_check("bipartite-bound", m).passed, m
    for m in range(2, 8):
        assert run_check("classical", m).passed, m
    for m in range(3, 6):
        assert run_check("vertex-add", m).passed, m
    for total in range(2, 9):
        assert run_check("prop1", total).passed, total


# ---------------------------------------------------------------------------
# 7. density search over random windows


def test_accept_7_density_search():
    rng = np.random.default_rng(20260819)
    for _ in range(20):
        delta = float(rng.uniform(0.0, 0.9))
        gamma = delta + float(rng.uniform(0.05, min(0.2, 0.9999 - delta)))
        w = mp.density_search(delta, gamma)
        m = w.order
        assert m - gamma - 1e-9 <= w.gap <= m - delta + 1e-9
        assert w.gap == pytest.approx(2.0 * math.sqrt(w.m1 * w.m2), abs=1e-12)
        assert math.isqrt(w.m1) ** 2 == w.m1


# ---------------------------------------------------------------------------
# 8. approximate connected-graph counts


def test_accept_8_approx_count():
    assert mp.approx_connected_count(9) == 261080.0
    for m in range(2, 11):
        approx = mp.approx_connected_count(m)
        true = census.KNOWN_CONNECTED_COUNTS[m]
        rel = abs(approx - true) / true
        # the formula is anchored at order 9 and drifts away from it
        assert rel == 0.0 if m == 9 else rel < 1.0, (m, approx, true, rel)


# ---------------------------------------------------------------------------
# 9. the census of every connected order-9 graph


# full-precision order-9 statistics (mean, std, skewness, kurtosis, min,
# max) of the census; a regression reference, since the published table
# stops at order 8
ORDER9_STATS = {
    "lambda_max": (4.4001541446839525, 0.6529036043748486, 0.060825069875256925,
                   3.0313247888183796, 1.9021130325903075, 8.0),
    "lambda_min": (-2.601761339540657, 0.2914995839482475, -0.4120497785080881,
                   3.362637831326224, -4.47213595499958, -1.0000000000000004),
    "gap": (1.0167193246295194, 0.3947804053489329, 1.629714775601131,
            15.241263770968725, 0.2833684032764734, 9.0),
    "ind": (0.6962431901958229, 0.29020842532283936, 1.7709566097259068,
            21.777668362547004, 0.150248027880998, 8.0),
    "pow": (14.01111111429865, 1.0527324299730816, -0.5910670292077749,
            3.5445617905371005, 5.656854249492381, 17.05997848692523),
}

# (min witnesses, max witnesses); gap max is shared by K9 and HFzf~z{
ORDER9_WITNESSES = {
    "lambda_max": ({"H?LTAA?"}, {"H~~~~~~"}),
    "lambda_min": ({"H?~vfbo"}, {"H~~~~~~"}),
    "gap": ({"Hhe~mr_"}, {"HFzf~z{", "H~~~~~~"}),
    "ind": ({"Hq]m~Zo"}, {"H~~~~~~"}),
    "pow": ({"HsaCCA?"}, {"HrUh}Zo"}),
}


def test_accept_9_order9_throughput(census9):
    start = time.monotonic()
    order, forms = census9
    report = run_census([Graph(order, f) for f in forms.tolist()])
    assert time.monotonic() - start <= 300.0
    assert report.count == census.KNOWN_CONNECTED_COUNTS[9]
    assert report.order == 9
    summary = {name: report.stats[name].finalize() for name in ORDER9_STATS}
    # the closed-form extremes the classical suite pins
    lmax, lmin = summary["lambda_max"], summary["lambda_min"]
    assert lmax.maximum == pytest.approx(8.0, abs=1e-9)
    assert lmax.max_witnesses == ("H~~~~~~",)
    assert lmax.minimum == pytest.approx(2 * math.cos(math.pi / 10), abs=1e-9)
    assert lmin.minimum == pytest.approx(-math.sqrt(20.0), abs=1e-9)
    assert lmin.maximum == pytest.approx(-1.0, abs=1e-9)
    assert summary["pow"].minimum == pytest.approx(2 * math.sqrt(8.0), abs=1e-9)
    for name, pinned in ORDER9_STATS.items():
        s = summary[name]
        got = (s.mean, s.std, s.skewness, s.kurtosis, s.minimum, s.maximum)
        assert got == pytest.approx(pinned, rel=1e-9), name
        assert (set(s.min_witnesses), set(s.max_witnesses)) == ORDER9_WITNESSES[name]
        assert s.min_overflow == s.max_overflow == 0
