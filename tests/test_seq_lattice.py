"""Norm families and Koethe duals against closed forms and brute oracles."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lattice_calc import (CustomFamily, InputError, LpFamily, OrliczFamily,
                          OrliczFunction, WeightedLpFamily,
                          conjugate_exponent, dual_witness,
                          kothe_dual, kothe_dual_norm, lattice,
                          lattice_valued_norm, parse_gauge, seq_lattice,
                          strong_mixed_norm)
from lattice_calc.mixed_norms import (_pointwise_support, _strong_support,
                                      _witness_support)
from lattice_calc.seq_lattice import _ascent_rows, _dual_rows

# ---------------------------------------------------------------------------
# independent oracles


def luxemburg_oracle(phi, t, rtol=1e-13):
    """Root bracketing of lam -> sum phi(|t_i|/lam) - 1, written without any
    library machinery: geometric scan for a sign change, then plain halving."""
    mags = [abs(v) for v in t if v != 0.0]
    if not mags:
        return 0.0
    level = lambda lam: sum(float(phi(np.asarray(m / lam))) for m in mags) - 1.0
    lo = max(mags) * 1e-6
    while level(lo) <= 0.0:
        lo /= 2.0
    hi = lo
    while level(hi) > 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if level(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rtol * hi:
            break
    return 0.5 * (lo + hi)


def dual_mesh_oracle(family, beta, points=10_000):
    """Brute maximization of sum |alpha beta| over a mesh of the unit sphere
    in R^2 (angles), independent of the package's ascent."""
    angles = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    dirs = dirs / family.norm_array(dirs)[:, None]
    return float(np.abs(dirs * np.asarray(beta)).sum(axis=-1).max())


# ---------------------------------------------------------------------------
# frozen example values

def test_l2_is_euclidean():
    assert LpFamily(2).norm([3, 4]) == 5.0


def test_linf_is_max():
    assert LpFamily(math.inf).norm([1, -2, 3]) == 3.0


def test_weighted_l1_value():
    assert WeightedLpFamily(1, [2, 1]).norm([1, 1]) == 3.0


def test_orlicz_square_matches_euclidean():
    fam = OrliczFamily(parse_gauge("u^2"))
    value = fam.norm([3, 4])
    assert value == pytest.approx(5.0, rel=1e-12)
    oracle = luxemburg_oracle(fam.phi.func, [3, 4])
    assert value == pytest.approx(oracle, rel=1e-11)


def test_orlicz_square_near_overflow_matches_l2():
    fam = OrliczFamily(parse_gauge("u^2"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = fam.norm([1e308, 1e308])
        single = fam.norm([1e308])
        batch = fam.norm_array(np.array([[1e308, 1e308], [3.0, 4.0]]))
    assert huge == pytest.approx(LpFamily(2).norm([1e308, 1e308]), rel=1e-12)
    assert single == pytest.approx(1e308, rel=1e-12)
    assert batch[0] == huge
    assert batch[1] == fam.norm([3.0, 4.0])


def test_orlicz_cubic_matches_bracketing_oracle():
    fam = OrliczFamily(parse_gauge("u^3 + u^1.5"))
    rng = np.random.default_rng(3)
    for _ in range(10):
        t = rng.standard_normal(5) * 2.0
        assert fam.norm(t) == pytest.approx(
            luxemburg_oracle(fam.phi.func, t), rel=1e-10)


def test_dual_l1_is_linf():
    assert kothe_dual_norm(LpFamily(1), [1, -2, 3]).value == 3.0


def test_dual_l2_self():
    assert kothe_dual_norm(LpFamily(2), [3, 4]).value == pytest.approx(5.0)


def test_dual_l3_closed_form_and_mesh():
    fam = LpFamily(3)
    expected = 2.0 ** (2.0 / 3.0)  # conjugate exponent 3/2 on (1, 1)
    res = kothe_dual_norm(fam, [1, 1])
    assert res.value == pytest.approx(expected, rel=1e-12)
    assert dual_mesh_oracle(fam, [1, 1]) == pytest.approx(expected, abs=1e-3)
    oracle = CustomFamily(lambda v: float((np.abs(v) ** 3).sum() ** (1 / 3)))
    numeric = kothe_dual_norm(oracle, [1, 1])  # by ascent
    assert numeric.value == pytest.approx(expected, rel=1e-6)
    assert numeric.converged


def test_weighted_dual_roundtrip():
    fam = WeightedLpFamily(1.5, [2.0, 0.5, 1.0])
    rng = np.random.default_rng(11)
    for _ in range(20):
        b = rng.standard_normal(3) * 2.0
        ana = kothe_dual_norm(fam, b).value
        mesh = _weighted_mesh(fam, b)
        assert ana == pytest.approx(mesh, rel=2e-3)


def _weighted_mesh(family, beta, points=4000):
    rng = np.random.default_rng(0)
    dirs = np.abs(rng.standard_normal((points, len(beta))))
    dirs = dirs / family.norm_array(dirs)[:, None]
    return float(np.abs(dirs * np.asarray(beta)).sum(axis=-1).max())


def test_dual_family_roundtrips():
    l2 = LpFamily(2)
    bidual = kothe_dual(kothe_dual(l2))
    rng = np.random.default_rng(5)
    probes = rng.standard_normal((20, 4))
    assert np.allclose(bidual.norm_array(probes), l2.norm_array(probes),
                       rtol=1e-9)
    orl = OrliczFamily(parse_gauge("u^2"))
    dual = kothe_dual(orl)
    assert np.allclose(dual.norm_array(probes), l2.norm_array(probes),
                       rtol=1e-9)


@pytest.mark.parametrize("base, expect", [
    (OrliczFamily(parse_gauge("u^3")), 3.305744509228972),
    (CustomFamily(lambda v: float(np.abs(v).max() + 0.5 * np.abs(v).sum())),
     6.25),
], ids=["orlicz", "custom"])
def test_bidual_norm_is_the_base_norm(base, expect):
    # the dual of a numeric dual is its base, with no search over it
    beta = [1.0, -2.0, 0.5, 3.0]
    res = kothe_dual_norm(kothe_dual(base), beta)
    assert res.method == "analytic" and res.converged
    assert res.value == base.norm(beta) == expect


def test_dual_witness_attains():
    rng = np.random.default_rng(9)
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        fam = LpFamily(p)
        for _ in range(10):
            b = rng.standard_normal(5)
            w = dual_witness(fam, b)
            assert fam.norm(w) == pytest.approx(1.0, rel=1e-12)
            assert float(w @ b) == pytest.approx(
                kothe_dual_norm(fam, b).value, rel=1e-12)


# ---------------------------------------------------------------------------
# invariants

@seed(7)
@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
       st.floats(-8.0, 8.0))
def test_homogeneity_property(vec, lam):
    for fam in (LpFamily(1), LpFamily(2.5), LpFamily(math.inf)):
        base = fam.norm(vec)
        assert fam.norm([lam * v for v in vec]) == pytest.approx(
            abs(lam) * base, rel=1e-12, abs=1e-9)


@seed(8)
@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8))
def test_padding_property(vec):
    for fam in (LpFamily(1.5), LpFamily(math.inf),
                OrliczFamily(parse_gauge("u^2"))):
        assert fam.norm(vec + [0.0]) == fam.norm(vec)


@seed(9)
@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e2, 1e2), min_size=2, max_size=6),
       st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6))
def test_monotonicity_property(vec, shrink):
    n = min(len(vec), len(shrink))
    fam = OrliczFamily(parse_gauge("u^2 + 0.5*u^4"))
    smaller = [vec[i] * shrink[i] for i in range(n)]
    assert fam.norm(smaller) <= fam.norm(vec[:n]) * (1 + 1e-12) + 1e-12


def test_holder_bounds_and_disjoint_support():
    # sum |a_i b_i| <= ||a|| ||b||_dual: equality at a = b = [1, 1] in l2,
    # and a zero pairing of disjoint supports against ||a||_1 ||b||_inf = 5
    l2, l1 = LpFamily(2), LpFamily(1)
    assert l2.norm([1, 1]) * kothe_dual_norm(l2, [1, 1]).value \
        == pytest.approx(2.0)
    assert np.abs(np.array([1, 0]) * np.array([0, 5])).sum() == 0.0
    assert l1.norm([1, 0]) * kothe_dual_norm(l1, [0, 5]).value \
        == pytest.approx(5.0)


def test_custom_family_wraps_oracle():
    fam = CustomFamily(lambda v: float(np.abs(v).max() + 0.5 * np.abs(v).sum()),
                       label="mix")
    assert fam.norm([1, -2]) == pytest.approx(2.0 + 1.5)
    dual = kothe_dual(fam)
    val = dual.norm([1.0, 1.0])
    # dual of a norm between linf and 1.5*linf lies between l1 scaled values
    assert 2.0 / 3.0 <= val <= 2.0


# ---------------------------------------------------------------------------
# rejection paths

def test_empty_vector_rejected():
    with pytest.raises(InputError):
        LpFamily(2).norm([])


def test_bad_exponent_rejected():
    with pytest.raises(InputError):
        LpFamily(0.5)


def test_nonpositive_weight_rejected():
    with pytest.raises(InputError):
        WeightedLpFamily(2, [1.0, 0.0])


def test_weight_coverage_enforced():
    fam = WeightedLpFamily(2, [1.0, 2.0])
    with pytest.raises(InputError):
        fam.norm([1.0, 1.0, 1.0])


def test_invalid_gauges_rejected():
    # derivatives are given, so each gauge reaches the checks of phi itself
    given = {"derivative": np.ones_like, "second_derivative": np.ones_like}
    with pytest.raises(InputError, match="vanish at 0"):
        OrliczFunction(lambda u: u + 1.0, **given)  # phi(0) != 0
    with pytest.raises(InputError, match="convexity"):
        OrliczFunction(lambda u: np.sqrt(u), **given)  # concave
    with pytest.raises(InputError, match="increasing"):
        OrliczFunction(lambda u: 0.0 * u, **given)  # not increasing
    with pytest.raises(InputError, match="parse_gauge"):
        OrliczFunction(lambda u: u * u)  # no derivatives


def test_orlicz_family_refuses_a_non_gauge():
    for phi in (lambda u: u * u, "u^2", None):
        with pytest.raises(InputError, match="parse_gauge.*CustomFamily"):
            OrliczFamily(phi)


def test_nonfinite_vector_rejected():
    with pytest.raises(InputError):
        LpFamily(2).norm([1.0, float("nan")])


def test_norm_array_keeps_nan_rows():
    # a NaN row is not a zero row: every family reports NaN for it, and
    # the finite rows of the same batch keep their values bit for bit
    batch = np.array([[np.nan, 1.0], [0.0, 0.0], [3.0, -4.0], [1e-300, 2.0]])
    fams = [LpFamily(1), LpFamily(1.5), LpFamily(2), LpFamily(np.inf),
            WeightedLpFamily(3, [2.0, 0.5]), OrliczFamily(parse_gauge("u^2"))]
    for fam in fams:
        vals = fam.norm_array(batch)
        assert np.isnan(vals[0]), fam.label
        assert np.array_equal(vals[1:], fam.norm_array(batch[1:])), fam.label
        assert vals[1] == 0.0


@pytest.mark.parametrize("family", [
    CustomFamily(lambda v: float(np.abs(v).max() + 0.5 * np.abs(v).sum())),
    CustomFamily(lambda v, orl=OrliczFamily(parse_gauge("u^2")):
                 float(orl.norm_array(v))),
], ids=["custom", "custom_luxemburg"])
def test_ascent_dual_keeps_nan_rows(family):
    # the positive-sphere ascent path gave 0.0 for a NaN row
    dual = kothe_dual(family)
    batch = np.array([[np.nan, 1.0], [1.0, 1.0], [0.0, 0.0]])
    vals = dual.norm_array(batch)
    assert np.isnan(vals[0])
    assert np.array_equal(vals[1:], dual.norm_array(batch[1:]))
    assert vals[1] > 0.0 and vals[2] == 0.0


def test_custom_oracle_sees_each_row_at_its_own_length():
    # numpy sums 8 or more entries pairwise, so zero padding moves this
    # oracle's last bit; each row of a zero-tailed batch, the zero row
    # (one entry) too, reaches it at the row's own length
    lengths = []

    def l15(v):
        lengths.append(len(v))
        return float((np.abs(v) ** 1.5).sum() ** (1 / 1.5))

    family = CustomFamily(l15)
    batch = np.random.default_rng(67).standard_normal((6, 24))
    for row, end in zip(batch, (24, 19, 13, 9, 2, 0)):
        row[end:] = 0.0
    values = family.norm_array(batch)
    assert lengths == [24, 19, 13, 9, 2, 1]
    alone = [family.norm_array(row) for row in batch]
    assert lengths[6:] == [24, 19, 13, 9, 2, 1]
    assert np.asarray(alone).tobytes() == values.tobytes()
    assert values[-1] == 0.0


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_lp_vector_norm_equals_its_batch_row(p):
    # numpy's scalar pow once took the root of a lone vector and could
    # differ in the last bit from the array pow of the same row in a batch
    fam = LpFamily(p)
    batch = np.random.default_rng(41).standard_normal((3000, 5))
    rows = fam.norm_array(batch)
    alone = [fam.norm(v) for v in batch]
    assert np.asarray(alone).tobytes() == rows.tobytes()


def test_scalar_entry_points_reject_nan():
    E = lattice(2, LpFamily(2))
    with pytest.raises(InputError):
        strong_mixed_norm(E, LpFamily(2), [[np.nan, 1.0]])
    with pytest.raises(InputError):
        kothe_dual_norm(LpFamily(2), ["a", 1.0])


# ---------------------------------------------------------------------------
# batched Koethe dual norms: each row gets what a call on it alone gets

_BATCH = np.random.default_rng(31).standard_normal((2, 5, 4)) * 2.0
_BATCH[0, 2] = 0.0  # a zero row


@pytest.mark.parametrize("family", [
    LpFamily(1), LpFamily(1.5), LpFamily(2), LpFamily(3), LpFamily(math.inf),
    WeightedLpFamily(1.5, [2.0, 0.5, 1.0, 3.0]),
    OrliczFamily(parse_gauge("u^2")), OrliczFamily(parse_gauge("u*exp(u)")),
    CustomFamily(lambda v: float(np.abs(v).max() + 0.5 * np.abs(v).sum())),
], ids=["l1", "l1.5", "l2", "l3", "linf", "wl1.5", "orlicz_u2", "orlicz_uexp",
        "custom"])
def test_kothe_dual_norm_batch_equals_rows(family, monkeypatch):
    # the custom case's ascent at 12 starts and 40 iterations: at the
    # defaults its finite-difference gradients take about 15 s
    monkeypatch.setattr(seq_lattice, "_DUAL_RESTARTS", 12)
    monkeypatch.setattr(seq_lattice, "_DUAL_ITERATIONS", 40)
    for batch in (_BATCH[0], _BATCH):
        res = kothe_dual_norm(family, batch)
        flat = batch.reshape(-1, batch.shape[-1])
        rows = [kothe_dual_norm(family, b) for b in flat]
        assert all(type(r.value) is float and type(r.converged) is bool
                   and r.witness.shape == (4,) for r in rows)
        assert res.value.shape == res.converged.shape == batch.shape[:-1]
        assert res.witness.shape == batch.shape
        assert np.array_equal(res.value.ravel(), [r.value for r in rows])
        assert np.array_equal(res.witness.reshape(flat.shape),
                              [r.witness for r in rows])
        assert np.array_equal(res.converged.ravel(),
                              [r.converged for r in rows])
    zero = kothe_dual_norm(family, _BATCH[0, 2])
    assert zero.value == 0.0 and zero.converged


def test_numeric_batch_agrees_with_closed_forms():
    fam = LpFamily(1.5)
    flat = _BATCH.reshape(-1, _BATCH.shape[-1])
    value, _, agree = _ascent_rows(fam, np.abs(flat), 40, 12, 3)
    ref = kothe_dual_norm(fam, flat)
    assert ref.method == "analytic"
    assert np.allclose(value, ref.value, rtol=1e-6, atol=0.0)
    assert np.all((agree >= 2) | ~flat.any(axis=-1))  # each row converged


_MAX_PLUS_HALF_L1 = CustomFamily(
    lambda v: float(np.abs(v).max() + 0.5 * np.abs(v).sum()))


def test_numeric_dual_row_ignores_its_batch_length():
    # the ascent once ran this row at the batch's length 4 and stopped
    # 3.5e-4 short of its dual norm sum|b| / 2.5, attained by (0.4, 0.4, 0.4)
    batch = np.array([[1.73353, 0.34781, -0.941413, 0.907049, 0.0],
                      [-0.615219, -0.633509, -0.993432, 0.0, 0.0]])
    dual = kothe_dual(_MAX_PLUS_HALF_L1)
    assert (dual.norm_array(batch)[1] == dual.norm_array(batch[1])
            == dual.norm_array(batch[1, :3]) == 0.896864)


@pytest.mark.parametrize("base", [_MAX_PLUS_HALF_L1, LpFamily(1.5),
                                  LpFamily(3.0)], ids=["custom", "l1.5", "l3"])
def test_numeric_dual_rows_with_zero_tails_equal_rows_alone(base):
    # values and witnesses of batches whose rows end in zero tails of
    # their own lengths, bit for bit those of each row alone
    rng = np.random.default_rng(5)
    for _ in range(8):
        n, k = rng.integers(2, 7), rng.integers(2, 5)
        batch = rng.standard_normal((k, n))
        batch[np.arange(n) >= n - rng.integers(0, n, (k, 1))] = 0.0
        values, witnesses = _dual_rows(base, batch)
        for row, value, witness in zip(batch, values, witnesses):
            alone = _dual_rows(base, row)
            assert value == alone[0] and np.array_equal(witness, alone[1])


# ---------------------------------------------------------------------------
# lp kernels: bit for bit the formulas below, frozen copies of the lp norm,
# trailing-zero strip and support maps that applied every np.where guard and
# the e_0 scatter to every batch (the kernels skip them where they are
# identities), normalized the lp profile with the norm and scattered the l1
# one-hot


def _reference_strip(a):
    n = a.shape[-1]
    keep = n
    while keep > 1 and not a[..., keep - 1].any():
        keep -= 1
    return a[..., :keep] if keep < n else a


def _reference_norm(family, values):
    a = np.asarray(values, dtype=float)
    if isinstance(family, WeightedLpFamily):
        a = _reference_strip(a)
        return _reference_norm(family._core,
                               a * family._scaling[:a.shape[-1]])
    a = _reference_strip(np.abs(a))
    if family.p == math.inf:
        return a.max(axis=-1)
    if family.p == 1.0:
        return a.sum(axis=-1)
    m = a.max(axis=-1, keepdims=True)
    zero = m == 0.0
    scale = np.where(zero, 1.0, m)
    body = ((a / scale) ** family.p).sum(axis=-1, keepdims=True) ** (
        1.0 / family.p)
    return np.where(zero, 0.0, scale * body)[..., 0]


def _reference_witness(family, beta):
    b = np.asarray(beta, dtype=float)
    mags = np.abs(b)
    if isinstance(family, WeightedLpFamily):
        s = family._scaling[:b.shape[-1]]
        alpha = _reference_witness(family._core, mags / s) / s * np.sign(b)
    else:
        if family.p == 1.0:
            alpha = np.zeros_like(b)
            np.put_along_axis(alpha, mags.argmax(axis=-1)[..., None], 1.0, -1)
        elif family.p == math.inf:
            alpha = np.ones_like(b)
        else:
            top = mags.max(axis=-1, keepdims=True)
            prof = (mags / np.where(top > 0.0, top, 1.0)) ** (
                conjugate_exponent(family.p) - 1.0)
            nrm = _reference_norm(family, prof)[..., None]
            alpha = prof / np.where(nrm > 0.0, nrm, 1.0)
        alpha = alpha * np.sign(b)
    zero = ~b.any(axis=-1)
    if np.any(zero):
        e0 = np.zeros(b.shape[-1])
        e0[0] = 1.0
        alpha[zero, 0] = 1.0 / float(_reference_norm(family, e0))
    return alpha


def _reference_strong_support(space_family, family, s):
    rows = _reference_witness(space_family, s)
    pairings = (rows * s).sum(axis=-1)
    coef = _reference_witness(family, pairings)
    return coef[..., None] * rows, (coef * pairings).sum(axis=-1)


def _reference_pointwise_support(space_family, family, s):
    cols = np.swapaxes(s, -1, -2)
    fibers = _reference_witness(family, cols)
    pairings = (fibers * cols).sum(axis=-1)
    scale = _reference_witness(space_family, pairings)
    return (np.swapaxes(scale[..., None] * fibers, -1, -2),
            (scale * pairings).sum(axis=-1))


_WITNESS_P = (1.0, 1.25, 1.5, 2.0, 3.0, 7.0, math.inf)
_WITNESS_FAMILIES = [LpFamily(p) for p in _WITNESS_P] + [
    WeightedLpFamily(p, np.random.default_rng(43).uniform(0.25, 4.0, 17))
    for p in _WITNESS_P]
# each family with its conjugate, a different lp and a weighted family as
# the other side of the support maps
_SUPPORT_PAIRS = [(f, g) for i, f in enumerate(_WITNESS_FAMILIES)
                  for g in (_WITNESS_FAMILIES[(i + 3) % 14],
                            _WITNESS_FAMILIES[13 - i])]


def _assert_bits(got, ref, what):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape, what
    assert got.dtype == ref.dtype == np.float64, what
    assert np.array_equal(got.view(np.int64), ref.view(np.int64)), what


def _assert_witness_bits(family, betas):
    got = dual_witness(family, betas)
    assert got.shape == np.shape(betas), family
    _assert_bits(got, _reference_witness(family, betas), family)


def _assert_norm_bits(family, values):
    _assert_bits(family.norm_array(values), _reference_norm(family, values),
                 family)


def _assert_support_bits(space_family, family, s):
    # the maps the power step calls give any layout of s the bits of the
    # C-ordered s, whose strided pointwise fibers the references sum in
    # sequence and whose coordinates pairwise
    what = (space_family, family)
    c_ordered = np.ascontiguousarray(s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for support, reference in (
                (_strong_support, _reference_strong_support),
                (_pointwise_support, _reference_pointwise_support)):
            for got, ref in zip(support(space_family, family, s),
                                reference(space_family, family, c_ordered)):
                _assert_bits(got, ref, what)
    _assert_bits(lattice_valued_norm(family, s),
                 _reference_norm(family, np.swapaxes(s, -2, -1)), what)


def _witness_batches(rng, rows=(6,), lengths=(1, 3, 8, 9, 17)):
    """(2, k, n) batches, k in ``rows`` and n in ``lengths``: a zero row,
    a NaN row, a row with an infinite entry, zero tails that the batch
    lacks, and in the second sheet twelve decades within rows and row
    maxima of 1e-300 and 1e300."""
    for k, n in itertools.product(rows, lengths):
        b = rng.standard_normal((2, k, n))
        b[1] *= 10.0 ** rng.uniform(-6, 6, (k, n))
        b[0, 0] = 0.0
        b[0, 1, rng.integers(n)] = np.nan
        b[:, 2, n // 2 + 1:] = 0.0
        b[0, 3, 1:] = 0.0
        b[0, 4, rng.integers(n)] = -np.inf
        for row, peak in ((b[1, 0], 1e-300), (b[1, 1], 1e300)):
            row *= peak / np.abs(row).max()
        yield b


def _finite_sheets(b):
    """The sheets of a corpus batch, each without its NaN and inf rows and
    once more without its zero rows."""
    for sheet in b:
        finite = sheet[np.isfinite(sheet).all(axis=-1)]
        yield finite
        yield finite[finite.any(axis=-1)]


@pytest.mark.parametrize("family", _WITNESS_FAMILIES,
                         ids=[f.label for f in _WITNESS_FAMILIES])
def test_lp_support_maps_keep_their_bits(family):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the inf rows
        for b in _witness_batches(np.random.default_rng(47)):
            for x in (b, *b, *b.reshape(-1, b.shape[-1]),
                      *_finite_sheets(b)):
                _assert_witness_bits(family, x)


@pytest.mark.parametrize("family", _WITNESS_FAMILIES,
                         ids=[f.label for f in _WITNESS_FAMILIES])
def test_lp_norms_keep_their_bits(family):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the inf rows
        for b in _witness_batches(np.random.default_rng(53)):
            for x in (b, *b, *b.reshape(-1, b.shape[-1]),
                      *_finite_sheets(b)):
                _assert_norm_bits(family, x)


@pytest.mark.parametrize("space_family, family", _SUPPORT_PAIRS,
                         ids=[f"{f.label}-{g.label}"
                              for f, g in _SUPPORT_PAIRS])
def test_mixed_support_maps_keep_their_bits(space_family, family):
    # NaN and inf rows are left out: their support maps divide NaN by NaN;
    # 7, 8 and 9 entries on the n and the d axis straddle the length where
    # numpy's pairwise sums leave the sequential order, the negated batch
    # has rows of -0 and the padded one a zero tail the whole batch shares
    for b in _witness_batches(np.random.default_rng(59), rows=(6, 7, 8, 9),
                              lengths=(1, 3, 7, 8, 9, 17)):
        finite = np.where(np.isfinite(b), b, 0.0)
        padded = finite.copy()
        padded[..., max(1, padded.shape[-1] - 3):] = 0.0
        for s in (finite, -finite, padded, *finite, *_finite_sheets(b)):
            if len(s):
                _assert_support_bits(space_family, family, s)
                _assert_support_bits(space_family, family, s.swapaxes(-1, -2))


@pytest.mark.parametrize("space_family, family", _SUPPORT_PAIRS,
                         ids=[f"{f.label}-{g.label}"
                              for f, g in _SUPPORT_PAIRS])
def test_support_maps_with_nan_and_inf_rows_are_the_general_path(
        space_family, family):
    # a restart with a NaN or infinite entry leaves the finite restarts of
    # its batch as they are alone, which is the general path's result, and
    # ends with a NaN or infinite pairing itself; both tuple axes stay
    # below 8, under the length where a batch's shared zero tail can
    # reorder a pairwise sum
    for b in _witness_batches(np.random.default_rng(61), rows=(6, 7),
                              lengths=(1, 3, 7)):
        both = np.concatenate([b, -b, np.where(np.isfinite(b), b, 0.0)])
        for s in (both, both.swapaxes(-1, -2)):
            finite = np.isfinite(s).all(axis=(-2, -1))
            assert 0 < finite.sum() < len(s)
            c_ordered = np.ascontiguousarray(s[finite])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                strong = _strong_support(space_family, family, s)
                pointwise = _pointwise_support(space_family, family, s)
            x, pairing = _witness_support(family, space_family,
                                          c_ordered.swapaxes(-1, -2))
            for got, alone, ref in zip(
                    (*strong, *pointwise),
                    (*_strong_support(space_family, family, s[finite]),
                     *_pointwise_support(space_family, family, s[finite])),
                    (*_witness_support(space_family, family, c_ordered),
                     x.swapaxes(-1, -2), pairing)):
                _assert_bits(got[finite], alone, (space_family, family))
                _assert_bits(alone, ref, (space_family, family))
            for _, paired in (strong, pointwise):
                assert not np.isfinite(paired[~finite]).any(), (
                    space_family, family)


@seed(12)
@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_WITNESS_FAMILIES), st.integers(1, 4),
       st.integers(1, 17), st.floats(0.0, 12.0), st.integers(-300, 300),
       st.integers(0, 2**32 - 1))
def test_lp_support_maps_keep_their_bits_property(family, rows, n, decades,
                                                  exponent, draw):
    rng = np.random.default_rng(draw)
    spread = 10.0 ** rng.uniform(-decades / 2, decades / 2, (rows, n))
    betas = rng.standard_normal((rows, n)) * spread * 10.0 ** exponent
    betas[rng.random((rows, n)) < 0.2] = 0.0
    betas[rng.random(rows) < 0.5, n // 2:] = 0.0
    _assert_witness_bits(family, betas)


@seed(13)
@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_SUPPORT_PAIRS), st.integers(1, 3), st.integers(1, 9),
       st.integers(1, 9), st.floats(0.0, 12.0), st.integers(-300, 300),
       st.integers(0, 2**32 - 1))
def test_lp_kernels_keep_their_bits_property(pair, batch, n, d, decades,
                                            exponent, draw):
    # norms, support maps and lattice-valued norms of (batch, n, d) tuples
    # with zero entries, zero rows, zero tails and whole zero tuples
    space_family, family = pair
    rng = np.random.default_rng(draw)
    spread = 10.0 ** rng.uniform(-decades / 2, decades / 2, (batch, n, d))
    s = rng.standard_normal((batch, n, d)) * spread * 10.0 ** exponent
    s[rng.random((batch, n, d)) < 0.2] = 0.0
    s[rng.random((batch, n)) < 0.3] = 0.0
    s[rng.random(batch) < 0.3, :, d // 2:] = 0.0
    s[rng.random(batch) < 0.2] = 0.0
    for x in (s, s[0], s[0, 0]):
        _assert_norm_bits(family, x)
        _assert_witness_bits(space_family, x)
    for x in (s, s[0]):
        _assert_support_bits(space_family, family, x)
