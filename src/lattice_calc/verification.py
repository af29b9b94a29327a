"""Property-verification suites over seeded random instances.

Each suite function returns a list of check records; a record summarizes one
invariant for one configuration (worst observed deviation against its
tolerance), so reports stay compact even for thousand-probe sweeps.  The
batched sweeps draw from substreams of the given seed, the per-instance
loops from ``np.random.default_rng(seed * c + k)`` (c fixed per check, k
the instance) or a like seed; every sweep is sequential, which makes
reports byte-reproducible.
"""

from __future__ import annotations

import numpy as np

from .constants import (brute_force_constant, convexity_ratio, duality_check,
                        estimate_constant, functional_norm, lattice_constants)
from .errors import InputError, ScaleGuardError
from .finite_lattice import (compose, homogeneous, krivine_apply, lattice,
                             lattice_valued_norm, norm_function, projection)
from .mixed_norms import (pointwise_mixed_norm, pointwise_mixed_norm_batch,
                          strong_mixed_norm, strong_mixed_norm_batch,
                          tail_profile)
from .operators import OperatorInstance, apply_n, operator_norm, transpose
from .optimize import AscentBudget
from .reporting import check_record, inputs_digest
from .seeding import spawn_rngs
from .seq_lattice import (LpFamily, NumericDualFamily, OrliczFamily,
                          WeightedLpFamily, _ascent_rows, config_field,
                          dual_witness, kothe_dual, kothe_dual_norm)
from .descriptors import parse_gauge

DEFAULT_COUNTS = {
    "family_probes": 1000,
    "dual_probes": 100,
    "holder_probes": 1000,
    "krivine_instances": 1000,
    "compose_instances": 100,
    "mixed_instances": 1000,
    "pointwise_pairing_instances": 1000,
    "pairing_instances": 1000,
    "join_bound_instances": 125,
    "riesz_instances": 200,
    "bilinear_instances": 1000,
    "lifting_instances": 50,
    "opnorm_pairs": 4,
    "constant_levels": 2,
    "max_length": 8,
}
# caps that keep every array a suite allocates below 10,000,000 entries:
# the largest grow as 128 x dual_probes (the numeric duals' ascent stacks
# 32 starts of (dual_probes, 4)), 10 x family_probes and max_length^2
_MAX_COUNT = 25_000
_MAX_LENGTH = 256


def _merge_counts(counts: dict | None) -> dict:
    """The defaults overridden by ``counts``: integers from 1 to _MAX_COUNT,
    and a ``max_length`` from 2 to _MAX_LENGTH."""
    merged = dict(DEFAULT_COUNTS)
    if counts:
        unknown = set(counts) - set(DEFAULT_COUNTS)
        if unknown:
            raise InputError(f"unknown count keys {sorted(unknown)}")
        for key in counts:
            low, cap = ((2, _MAX_LENGTH) if key == "max_length"
                        else (1, _MAX_COUNT))
            merged[key] = config_field(counts, key, int, where="counts",
                                       low=low)
            if merged[key] > cap:
                raise ScaleGuardError(f"count {key!r} of {merged[key]} "
                                      f"exceeds the cap of {cap}")
    return merged


class _Records:
    """The check records of one suite, in the order they are closed.

    ``feed`` keeps, per op since its last ``close``, the worst deviation
    (the maximum, floored at ``floor``; a NaN sticks, so its record has lhs
    NaN and fails) and the number of probes fed: the leading-axis length
    of an array, one for a scalar.  A check that holds or not feeds 0.0 or
    1.0 per probe and closes at tolerance 0.0.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.records: list[dict] = []
        self._open: dict[str, tuple[float, int]] = {}  # worst, probes

    def feed(self, op: str, deviations, floor: float = 0.0):
        dev = np.asarray(deviations, dtype=float)
        prev, probes = self._open.get(op, (floor, 0))
        worst = float(np.max(dev))
        self._open[op] = (prev if prev != prev or worst <= prev else worst,
                          probes + (len(dev) if dev.ndim else 1))

    def close(self, op: str, tol: float, family: str, *deviations,
              floor: float = 0.0):
        for dev in deviations:
            self.feed(op, dev, floor)
        worst, probes = self._open.pop(op, (0.0, 0))
        self.records.append(check_record(
            op, worst, tol, worst <= tol,
            inputs_digest(op, family, probes, self.seed), seed=self.seed,
            family=family, probes=probes))


def _dual_ball_combos(fam: LpFamily, rows: np.ndarray, samples: int,
                      seed: int):
    """``(combos, winners)``: the rows combined by seeded vectors of the
    dual unit ball, each a pointwise lower bound of the lattice-valued
    norm, and the closed-form maximizer of each coordinate (one row per
    column of ``rows``)."""
    dual = kothe_dual(fam)
    dirs = np.random.default_rng(seed).standard_normal((samples, len(rows)))
    nrm = dual.norm_array(dirs)
    keep = nrm > 0
    return ((dirs[keep] / nrm[keep, None]) @ rows,
            dual_witness(dual, np.ascontiguousarray(rows.T)))


def norm_family_suite(counts: dict | None = None, seed: int = 0) -> list[dict]:
    """Norm axioms on seeded probes: definiteness, homogeneity, monotonicity,
    triangle, exact zero padding and positive canonical vectors."""
    counts = _merge_counts(counts)
    nmax = counts["max_length"]
    weights = [2.0, 1.0, 1.5, 3.0, 0.5, 1.0, 2.0, 1.25]
    # the lp duals are lp families again; of the Koethe duals, what needs
    # probing is the conjugate-weight arithmetic and the Amemiya solve
    families = [LpFamily(1), LpFamily(1.5), LpFamily(2), LpFamily(3),
                LpFamily(np.inf), WeightedLpFamily(1, weights),
                OrliczFamily(parse_gauge("u^2")),
                kothe_dual(WeightedLpFamily(1, weights)),
                kothe_dual(OrliczFamily(parse_gauge("u^2")))]
    acc = _Records(seed)
    per_len = max(1, counts["family_probes"] // (nmax - 1))
    for fam_idx, fam in enumerate(families):
        rngs = spawn_rngs(seed + fam_idx, 6)
        # a weighted family covers as many coordinates as it has weights
        for n in range(2, min(nmax, fam.max_length() or nmax) + 1):
            t = rngs[0].standard_normal((per_len, n)) * 3.0
            s = rngs[1].standard_normal((per_len, n)) * 3.0
            lam = rngs[2].uniform(-4.0, 4.0, per_len)
            shrink = rngs[3].uniform(0.0, 1.0, (per_len, n))
            # probe variants stacked into one evaluation per length; the
            # zero-padded probes need their own batch-uniform call so the
            # trailing-zero canonicalization applies
            blocks = [t, lam[:, None] * t, shrink * t, t + s, s, np.eye(n)]
            vals = fam.norm_array(np.concatenate(blocks))
            base, homv, monov, triv, sv = (
                vals[i * per_len:(i + 1) * per_len] for i in range(5))
            scale = np.maximum(base, 1e-12)
            # positive on the probes and the canonical vectors, 0 at 0
            defined = np.append(
                np.concatenate([base, vals[5 * per_len:]]) > 0.0,
                fam.norm(np.zeros(n)) == 0.0)
            acc.feed("family_definiteness", np.where(defined, 0.0, np.inf))
            hom = np.abs(homv - np.abs(lam) * base)
            acc.feed("family_homogeneity",
                     hom / (np.abs(lam) * scale + 1e-300))
            acc.feed("family_monotonicity", (monov - base) / scale)
            acc.feed("family_triangle", (triv - base - sv) / scale)
            if n + 1 <= (fam.max_length() or nmax + 1):
                padded = np.concatenate([t, np.zeros((per_len, 1))], axis=-1)
                acc.feed("family_padding",
                         np.abs(fam.norm_array(padded) - base))
        for op, tol in (("family_definiteness", 0.0),
                        ("family_homogeneity", 1e-9),
                        ("family_monotonicity", 1e-9),
                        ("family_triangle", 1e-9), ("family_padding", 0.0)):
            acc.close(op, tol, fam.label)
    return acc.records


def kothe_suite(counts: dict | None = None, seed: int = 100) -> list[dict]:
    """Dual-norm facts: numeric matches analytic, biduality, the pairing
    bound with conjugate witnesses, prefix monotonicity, and the dual norm
    as a functional norm."""
    counts = _merge_counts(counts)
    acc = _Records(seed)
    rngs = spawn_rngs(seed, 8)
    analytic = [LpFamily(1), LpFamily(1.5), LpFamily(2), LpFamily(3),
                LpFamily(np.inf),
                WeightedLpFamily(1, [2.0, 1.0, 1.5, 3.0, 0.5, 1.0])]

    # numeric optimization against the closed forms: the batched wrapper on
    # every probe, the seeded-restart path on a sample of them
    probes = counts["dual_probes"]
    for fam in analytic:
        betas = rngs[0].standard_normal((probes, 4)) * 2.0
        ana = kothe_dual(fam).norm_array(betas)
        num = NumericDualFamily(fam).norm_array(betas)
        ref = kothe_dual_norm(fam, betas[:8]).value
        got = _ascent_rows(fam, np.abs(betas[:8]), 150, 12, seed)[0]
        acc.close("dual_numeric_vs_analytic", 1e-3, fam.label,
                  np.abs(num - ana) / np.maximum(ana, 1e-300),
                  np.abs(got - ref) / np.maximum(ref, 1e-300))

    # biduality on probe vectors
    l2 = LpFamily(2)
    bidual = kothe_dual(kothe_dual(l2))
    vecs = rngs[1].standard_normal((16, 5))
    acc.close("dual_bidual_l2", 1e-9, "l2",
              np.abs(bidual.norm_array(vecs) - l2.norm_array(vecs))
              / l2.norm_array(vecs))
    orl = OrliczFamily(parse_gauge("u^2"))
    dual_orl = kothe_dual(orl)
    vecs = rngs[2].standard_normal((16, 4))
    acc.close("dual_orlicz_sq_is_l2", 1e-9, orl.label,
              np.abs(dual_orl.norm_array(vecs) - l2.norm_array(vecs))
              / l2.norm_array(vecs))

    # pairing bound on every instance, with conjugate-witness equality for
    # lp; the pairing bound records its raw margin, negative when it holds
    hp = counts["holder_probes"]
    for fam in [LpFamily(1), LpFamily(1.5), LpFamily(2), orl]:
        n = 5 if fam.max_length() is None else min(5, fam.max_length())
        alphas = rngs[3].standard_normal((hp, n)) * 2.0
        betas = rngs[4].standard_normal((hp, n)) * 2.0
        lhs = np.abs(alphas * betas).sum(axis=-1)
        rhs = fam.norm_array(alphas) * kothe_dual(fam).norm_array(betas)
        acc.close("holder_bound", 1e-9, fam.label,
                  (lhs - rhs) / np.maximum(rhs, 1e-300), floor=-np.inf)
        if isinstance(fam, LpFamily):
            w = dual_witness(fam, betas[:64])
            lhs_eq = np.abs(w * betas[:64]).sum(axis=-1)
            rhs_eq = fam.norm_array(w) * kothe_dual_norm(fam, betas[:64]).value
            acc.close("holder_witness_equality", 1e-9, fam.label,
                      np.abs(lhs_eq - rhs_eq) / np.maximum(rhs_eq, 1e-300))

    # prefix monotonicity of the dual norm, equality on zero tails
    for fam in [LpFamily(1.5), LpFamily(2), orl]:
        dual = kothe_dual(fam)
        betas = rngs[5].standard_normal((32, 6))
        heads = betas[None, :, :] * (np.arange(6)[None, :] <
                                     np.arange(1, 7)[:, None, None])
        vals = dual.norm_array(heads)
        full = vals[-1]
        acc.feed("dual_prefix_monotone", ((vals[:-1] - full[None, :])
                                          / np.maximum(full, 1e-300)).max(0))
        padded = np.concatenate([betas, np.zeros((32, 2))], axis=-1)
        acc.feed("dual_zero_tail_equality",
                 np.abs(dual.norm_array(padded) - full)
                 / np.maximum(full, 1e-300))
    acc.close("dual_prefix_monotone", 1e-9, "l1.5/l2/orlicz")
    acc.close("dual_zero_tail_equality", 1e-9, "l1.5/l2/orlicz")

    # the dual norm is the norm of the pairing functional on (R^n, family)
    for fam in [LpFamily(1.5), LpFamily(2), LpFamily(3)]:
        betas = rngs[6].standard_normal((6, 4))
        for b, ana in zip(betas, kothe_dual_norm(fam, betas).value):
            est = functional_norm(lattice(4, fam), fam, [b], "strong").value
            acc.feed("dual_equals_functional_norm",
                     abs(est - ana) / max(ana, 1e-300))
    acc.close("dual_equals_functional_norm", 1e-6, "lp")
    return acc.records


def krivine_suite(counts: dict | None = None, seed: int = 200) -> list[dict]:
    """Pointwise functional calculus: projection recovery, composition,
    homogeneity, monotonicity, the triangle inequality, the peak-row bound,
    and commutation with lattice homomorphisms."""
    counts = _merge_counts(counts)
    acc = _Records(seed)
    rngs = spawn_rngs(seed, 10)
    fams = [LpFamily(1), LpFamily(2), LpFamily(np.inf),
            OrliczFamily(parse_gauge("u^2"))]

    per_fam = max(1, counts["krivine_instances"] // len(fams))
    for fidx, fam in enumerate(fams):
        n, m = 4, 5
        x = rngs[0].standard_normal((per_fam, n, m)) * 2.0
        y = rngs[1].standard_normal((per_fam, n, m)) * 2.0
        lam = rngs[2].uniform(0.0, 3.0, per_fam)
        vec = lattice_valued_norm(fam, x)
        scale = np.maximum(vec.max(axis=-1), 1e-12)[:, None]

        acc.feed("krivine_homogeneity", np.abs(lattice_valued_norm(
            fam, lam[:, None, None] * x) - lam[:, None] * vec) / scale)
        shrink = rngs[3].uniform(0.0, 1.0, (per_fam, n, m))
        acc.feed("krivine_monotonicity",
                 (lattice_valued_norm(fam, shrink * x) - vec) / scale)
        acc.feed("krivine_abs_invariance",
                 np.abs(lattice_valued_norm(fam, np.abs(x)) - vec))
        tri = lattice_valued_norm(fam, x + y) - vec - lattice_valued_norm(fam, y)
        acc.feed("krivine_triangle", tri / scale)
        peak = vec - fam.norm(np.ones(n)) * np.abs(x).max(axis=-2)
        acc.feed("krivine_peak_bound", peak / scale)

        # lattice homomorphisms: positive diagonal and coordinate permutation
        diag = rngs[4].uniform(0.2, 2.0, (per_fam, 1, m))
        acc.feed("krivine_lattice_homomorphism", np.abs(lattice_valued_norm(
            fam, diag * x) - diag[:, 0, :] * vec) / scale)
        perm = rngs[5].permutation(m)
        acc.feed("krivine_lattice_homomorphism",
                 np.abs(lattice_valued_norm(fam, x[:, :, perm]) - vec[:, perm]))
        # merely positive maps dominate for convex h
        pos = rngs[6].uniform(0.0, 1.0, (m, m))
        mapped = vec @ pos.T
        acc.feed("krivine_positive_map_domination",
                 (lattice_valued_norm(fam, x @ pos.T) - mapped)
                 / np.maximum(mapped.max(-1), 1e-12)[:, None])

        if fidx == 0:
            for j in range(n):
                proj = projection(n, j)
                got = np.stack([proj.func(np.moveaxis(x[i], 0, -1))
                                for i in range(min(per_fam, 50))])
                acc.feed("krivine_projection_recovery",
                         np.abs(got - x[:50, j, :]))

    for op, tol in (("krivine_projection_recovery", 0.0),
                    ("krivine_homogeneity", 1e-12),
                    ("krivine_monotonicity", 1e-12),
                    ("krivine_abs_invariance", 1e-12),
                    ("krivine_triangle", 1e-12), ("krivine_peak_bound", 1e-9),
                    ("krivine_lattice_homomorphism", 1e-12),
                    ("krivine_positive_map_domination", 1e-12)):
        acc.close(op, tol, "all")

    # the calculus turns pointwise maxima of functions into joins of outputs
    for k in range(32):
        rng = np.random.default_rng(seed * 19 + k)
        n, m = 3, 4
        x = rng.standard_normal((n, m))
        coeffs = rng.standard_normal(n)
        h1 = norm_function(LpFamily(1.5), n)
        h2 = homogeneous(lambda a, c=coeffs: a @ c, n)
        joined = homogeneous(
            lambda a, f=h1.func, g=h2.func: np.maximum(f(a), g(a)), n)
        lhs = krivine_apply(joined, x)
        rhs = np.maximum(krivine_apply(h1, x), krivine_apply(h2, x))
        acc.feed("krivine_join_preservation",
                 float(not np.array_equal(lhs, rhs)))
    acc.close("krivine_join_preservation", 0.0, "l1.5")

    # composition identity is bitwise in the pointwise realization
    for k in range(counts["compose_instances"]):
        rng = np.random.default_rng(seed * 1000 + k)
        n, m = rng.integers(2, 5), rng.integers(2, 5)
        x = rng.standard_normal((n, m))
        cols = rng.standard_normal((3, n))
        inner = [homogeneous(lambda a, c=c: a @ c, n)
                 for c in cols]
        inner.append(norm_function(LpFamily(2), n))
        h = norm_function(LpFamily(1), len(inner))
        # each inner map first and h on the resulting tuple, against the
        # composed function: the same arithmetic, so equal bit for bit
        stage = np.stack([krivine_apply(g, x) for g in inner])
        acc.feed("krivine_compose_identity", float(not np.array_equal(
            krivine_apply(h, stage), krivine_apply(compose(h, inner), x))))
    acc.close("krivine_compose_identity", 0.0, "l1/l2")
    return acc.records


def mixed_suite(counts: dict | None = None, seed: int = 300) -> list[dict]:
    """Mixed-norm identities: collapse for matched lp, exact padding, prefix
    monotonicity, the norm-level triangle inequality, equivalence bounds,
    tails, pairings, the pointwise pairing bound and join formulas."""
    counts = _merge_counts(counts)
    acc = _Records(seed)
    rngs = spawn_rngs(seed, 12)

    # matched lp collapse: both mixed norms coincide
    for p in (1.0, 1.5, 2.0, 3.0, np.inf):
        fam = LpFamily(p)
        space = lattice(4, LpFamily(p))
        tuples = rngs[0].standard_normal((64, 3, 4)) * 2.0
        a = strong_mixed_norm_batch(space, fam, tuples)
        b = pointwise_mixed_norm_batch(space, fam, tuples)
        acc.feed("mixed_matched_lp_collapse",
                 np.abs(a - b) / np.maximum(a, 1e-300))
    acc.close("mixed_matched_lp_collapse", 1e-12, "lp")

    fams = [LpFamily(1.5), LpFamily(2), OrliczFamily(parse_gauge("u^2"))]
    spaces = [lattice(3, LpFamily(1)), lattice(3, LpFamily(2)),
              lattice(3, LpFamily(np.inf))]
    per_block = max(1, counts["mixed_instances"]
                    // (len(fams) * len(spaces)))
    for fam in fams:
        for space in spaces:
            tuples = rngs[1].standard_normal((per_block, 3, 3)) * 2.0
            extra = rngs[2].standard_normal((per_block, 1, 3)) * 2.0
            for norm_batch in (strong_mixed_norm_batch,
                               pointwise_mixed_norm_batch):
                base = norm_batch(space, fam, tuples)
                padded = norm_batch(space, fam,
                                    np.concatenate([tuples, np.zeros_like(extra)], 1))
                acc.feed("mixed_zero_padding_exact", np.abs(padded - base))
                grown = norm_batch(space, fam,
                                   np.concatenate([tuples, extra], 1))
                acc.feed("mixed_prefix_monotone",
                         (base - grown) / np.maximum(grown, 1e-300))
            other = rngs[3].standard_normal((per_block, 3, 3)) * 2.0
            t1 = pointwise_mixed_norm_batch(space, fam, tuples + other)
            t2 = (pointwise_mixed_norm_batch(space, fam, tuples)
                  + pointwise_mixed_norm_batch(space, fam, other))
            acc.feed("mixed_norm_triangle", (t1 - t2) / np.maximum(t2, 1e-300))
            # the pointwise norm between the summed row norms times the
            # smallest canonical-vector norm over n and times ||(1, ..., 1)||
            tau = pointwise_mixed_norm_batch(space, fam, tuples[:8])
            summed = space.norm_array(tuples[:8]).sum(axis=-1)
            consts = fam.norm_array(np.vstack([np.ones(3), np.eye(3)]))
            within = ((consts[1:].min() / 3 * summed
                       <= tau * (1.0 + 1e-9) + 1e-300)
                      & (tau <= consts[0] * summed * (1.0 + 1e-9) + 1e-300))
            acc.feed("mixed_equivalence_bounds", np.where(within, 0.0, 1.0))
    acc.close("mixed_zero_padding_exact", 0.0, "all")
    acc.close("mixed_prefix_monotone", 1e-12, "all")
    acc.close("mixed_norm_triangle", 1e-12, "all")
    acc.close("mixed_equivalence_bounds", 0.0, "all")

    # tail profiles are nonincreasing and vanish after the support
    space = lattice(3, LpFamily(2))
    for fam in fams:
        seqs = rngs[4].standard_normal((16, 4, 3))
        seqs[:, -1] = 0.0
        for s in seqs:
            for flavor in ("strong", "pointwise"):
                prof = tail_profile(fam, space, s, flavor)
                rise = np.diff(prof).max() / max(prof[0], 1e-300)
                acc.feed("tail_profile_nonincreasing",
                         rise if prof[-1] == 0.0 else np.inf)
    acc.close("tail_profile_nonincreasing", 1e-12, "all")

    # pairing bound of eventually-zero sequences
    half = max(1, counts["pairing_instances"] // 2)
    for fam in [LpFamily(2), LpFamily(3)]:
        w = rngs[5].standard_normal((half, 4, 3))
        s = rngs[6].standard_normal((half, 4, 3))
        lhs = np.abs((w * s).sum(axis=(1, 2)))
        rhs = (strong_mixed_norm_batch(space.dual(), kothe_dual(fam), s)
               * strong_mixed_norm_batch(space, fam, w))
        acc.feed("sequence_pairing_bound", (lhs - rhs) / np.maximum(rhs, 1e-300))
    acc.close("sequence_pairing_bound", 1e-9, "l2/l3")

    # pointwise pairing bound across four families, batched over instances
    qfams = [LpFamily(1), LpFamily(2), LpFamily(3),
             OrliczFamily(parse_gauge("u^2"))]
    per_fam = max(1, counts["pointwise_pairing_instances"] // len(qfams))
    for fam in qfams:
        x = rngs[7].standard_normal((per_fam, 4, 3)) * 2.0
        phi = rngs[8].standard_normal((per_fam, 4, 3)) * 2.0
        lhs = np.abs((x * phi).sum(axis=-1)).sum(axis=-1)
        rhs = (lattice_valued_norm(fam, x)
               * lattice_valued_norm(kothe_dual(fam), phi)).sum(axis=-1)
        acc.feed("pointwise_pairing_bound",
                 (lhs - rhs) / np.maximum(rhs, 1e-300))
    acc.close("pointwise_pairing_bound", 1e-9, "l1/l2/l3/orlicz")

    # join of dual-ball combinations never beats the pointwise norm (lp)
    for p in (1.5, 2.0, 3.0):
        fam = LpFamily(p)
        for k in range(max(1, counts["join_bound_instances"] // 3)):
            rows = rngs[9].standard_normal((3, 3)) * 2.0
            tau = pointwise_mixed_norm(space, fam, rows)
            combos, winners = _dual_ball_combos(fam, rows, 8, seed + k)
            bounded = (space.norm(np.abs(combos).max(axis=0))
                       <= tau * (1.0 + 1e-9) + 1e-300)
            acc.feed("join_bound_never_exceeds", 0.0 if bounded else np.inf)
            lifted = space.norm((winners @ rows).max(axis=0))
            acc.feed("join_analytic_maximizers",
                     abs(lifted - tau) / max(tau, 1e-300))
    acc.close("join_bound_never_exceeds", 0.0, "lp")
    acc.close("join_analytic_maximizers", 1e-6, "lp")

    # sup representation: sampled from below, closed-form maximizers exact
    for p in (1.0, 2.0, 3.0, np.inf):
        fam = LpFamily(p)
        for k in range(16):
            rows = rngs[10].standard_normal((3, 4)) * 2.0
            ref = lattice_valued_norm(fam, rows)
            combos, winners = _dual_ball_combos(fam, rows, 64, seed + k)
            scale = np.maximum(ref, 1e-12)
            acc.feed("sup_representation_lower",
                     ((combos.max(axis=0) - ref) / scale).max())
            acc.feed("sup_representation_analytic", (np.abs(
                np.einsum("wn,nw->w", winners, rows) - ref) / scale).max())
    acc.close("sup_representation_lower", 1e-9, "lp")
    acc.close("sup_representation_analytic", 1e-6, "lp")

    # join formula for finitely many functionals on x >= 0: the greedy
    # split, each coordinate of x to a functional attaining the max, gives
    # the join value, and 20 random nonnegative splits never exceed it
    for k in range(counts["riesz_instances"]):
        rng = np.random.default_rng(seed * 77 + k)
        phis = rng.standard_normal((3, 4))
        x = np.abs(rng.standard_normal(4))
        join = float(phis.max(axis=0) @ x)
        greedy = np.zeros_like(phis)
        greedy[phis.argmax(axis=0), np.arange(4)] = x
        weights = np.random.default_rng(seed + k).exponential(size=(20, 3, 4))
        weights /= weights.sum(axis=1, keepdims=True)
        splits = (phis * (weights * x)).reshape(20, -1).sum(axis=-1)
        tol = 1e-12 * max(abs(join), 1.0)
        holds = (abs(join - float((phis * greedy).sum())) <= tol
                 and splits.max() <= join + tol)
        acc.feed("riesz_join_formula", float(not holds))
    acc.close("riesz_join_formula", 0.0, "functionals")
    return acc.records


def operator_suite(counts: dict | None = None, seed: int = 400) -> list[dict]:
    """Operator plumbing: application against naive recomputation, padding,
    the transpose pairing identity, norm symmetry under transposition, and
    the lifted-tuple bound."""
    counts = _merge_counts(counts)
    acc = _Records(seed)
    rngs = spawn_rngs(seed, 6)

    for k in range(max(1, counts["bilinear_instances"] // 100)):
        rng = np.random.default_rng(seed * 31 + k)
        d, m = rng.integers(2, 5), rng.integers(2, 5)
        mat = rng.standard_normal((m, d))
        op = OperatorInstance(mat, lattice(d, LpFamily(2)),
                              lattice(m, LpFamily(2)))
        w = rng.standard_normal((100, d))
        phi = rng.standard_normal((100, m))
        got = apply_n(op, w)
        naive = np.array([[sum(mat[i, j] * wv[j] for j in range(d))
                           for i in range(m)] for wv in w])
        # and the transpose of the transpose is the operator itself
        twice = np.array_equal(transpose(transpose(op)).matrix, mat)
        acc.feed("operator_apply_recompute",
                 np.abs(got - naive) + (0.0 if twice else np.inf))
        lhs = (got * phi).sum(axis=-1)
        rhs = (w * apply_n(transpose(op), phi)).sum(axis=-1)
        # relative to |phi|^t |T| |w|, the rounding scale of both sums
        scale = (np.abs(phi) * (np.abs(w) @ np.abs(mat).T)).sum(axis=-1)
        acc.feed("operator_transpose_pairing",
                 np.abs(lhs - rhs) / np.maximum(scale, 1e-300))
    acc.close("operator_apply_recompute", 1e-12, "l2")
    acc.close("operator_transpose_pairing", 1e-12, "l2")

    # norm symmetry under transposition, two independent estimates
    for k in range(counts["opnorm_pairs"]):
        rng = np.random.default_rng(seed * 13 + k)
        op = OperatorInstance(rng.standard_normal((3, 3)),
                              lattice(3, LpFamily([2, 1.5, 3, 1][k % 4])),
                              lattice(3, LpFamily([2, 3, 1.5, np.inf][k % 4])))
        a = operator_norm(op, seed=seed + k).value
        b = operator_norm(transpose(op), seed=seed + 1000 + k).value
        acc.feed("operator_norm_transpose_symmetry",
                 abs(a - b) / max(a, b, 1e-300))
    acc.close("operator_norm_transpose_symmetry", 1e-4, "lp")

    # lifted tuples stay within the operator norm bound; the norm estimate
    # starts from the tuple's own unit rows, so an underestimate cannot
    # fake a pass
    l2 = LpFamily(2)
    for k in range(counts["lifting_instances"]):
        rng = np.random.default_rng(seed * 7 + k)
        op = OperatorInstance(rng.standard_normal((3, 2)),
                              lattice(2, LpFamily(2)), lattice(3, LpFamily(1.5)))
        rows = rng.standard_normal((3, 2))
        norms = op.domain.norm_array(rows)
        alive = norms > 0
        t_est = operator_norm(op, AscentBudget(6, 120), seed + k,
                              extra_inits=rows[alive] / norms[alive, None]).value
        lhs = strong_mixed_norm(op.codomain, l2, apply_n(op, rows))
        rhs = t_est * strong_mixed_norm(op.domain, l2, rows)
        acc.feed("operator_lifting_bound",
                 float(not lhs <= rhs * (1.0 + 1e-6) + 1e-300))
    acc.close("operator_lifting_bound", 0.0, "l2")

    # zero padding commutes with rowwise application
    rng = rngs[0]
    mat = rng.standard_normal((3, 3))
    op = OperatorInstance(mat, lattice(3, LpFamily(2)), lattice(3, LpFamily(2)))
    rows = rng.standard_normal((4, 3))
    padded = np.vstack([rows, np.zeros((1, 3))])
    out = apply_n(op, padded)
    holds = np.array_equal(out[:4], apply_n(op, rows)) and np.all(out[4] == 0)
    acc.close("operator_padding_commutes", 0.0, "l2", float(not holds))
    return acc.records


def constants_suite(counts: dict | None = None, seed: int = 500) -> list[dict]:
    """Constant estimation sanity: collapse cases, scaling, monotone levels,
    oracle agreement, functional-norm duality and the transpose identity."""
    counts = _merge_counts(counts)
    acc = _Records(seed)
    levels = counts["constant_levels"]
    light = AscentBudget(12, 200)

    # identity on matched lp has all levels equal to one
    for p in (1.0, 2.0, np.inf):
        space = lattice(3, LpFamily(p))
        conv, conc = lattice_constants(space, LpFamily(p), levels,
                                       budget=light, seed=seed)
        for est in (conv, conc):
            for b in est.per_n:
                acc.feed("constants_identity_matched_lp", abs(b.value - 1.0))
    acc.close("constants_identity_matched_lp", 1e-6, "lp")

    # scaling the operator scales every level exactly; the level ratios
    # record their raw rise, negative when the levels strictly increase
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((2, 2))
    E = lattice(2, LpFamily(2))
    X = lattice(2, LpFamily(1))
    op = OperatorInstance(mat, E, X)
    scaled = OperatorInstance(2.5 * mat, E, X)
    a = estimate_constant(op, LpFamily(2), "convexity", levels, light, seed)
    b = estimate_constant(scaled, LpFamily(2), "convexity", levels, light, seed)
    acc.close("constants_operator_scaling", 1e-9, "l2",
              *[abs(bb.value - 2.5 * ab.value) / (2.5 * ab.value)
                for ab, bb in zip(a.per_n, b.per_n)])
    acc.close("constants_levels_nondecreasing", 0.0, "l2",
              *[(x1.value - x2.value) / max(x2.value, 1e-300)
                for x1, x2 in zip(a.per_n, a.per_n[1:])], floor=-np.inf)

    # witness reproduces its level value
    for bnd in a.per_n:
        ratio = convexity_ratio(op, LpFamily(2), bnd.witness)
        acc.feed("constants_witness_reproduces",
                 abs(ratio - bnd.value) / max(bnd.value, 1e-300))
    acc.close("constants_witness_reproduces", 1e-9, "l2")

    # ascent against the grid oracle on a tiny instance, at level 2 or,
    # with one level only, at level 1
    n = min(2, levels)
    bf = brute_force_constant(op, LpFamily(2), "convexity", n,
                              grid_resolution=15)
    ref = bf.per_n[0].value
    acc.close("constants_grid_oracle_agreement", 1e-2, "l2",
              abs(a.per_n[n - 1].value - ref) / max(ref, 1e-300))

    # duality at the identity and on one seeded instance
    ident = OperatorInstance(np.eye(2), E, lattice(2, LpFamily(2)))
    rep = duality_check(ident, LpFamily(2), levels, light, seed)
    acc.close("duality_identity_gap", 1e-6, "l2", rep.rel_gap)
    rep2 = duality_check(op, LpFamily(2), levels, light, seed)
    acc.close("duality_seeded_gap", 5e-2, "l2", rep2.rel_gap)

    # functional norms against the closed-form dual mixed norms
    for k in range(3):
        rng = np.random.default_rng(seed * 3 + k)
        s = rng.standard_normal((2, 3))
        space = lattice(3, LpFamily([2, 1.5, 3][k % 3]))
        fam = LpFamily([2, 3, 1.5][k % 3])
        fn = functional_norm(space, fam, s, "strong")
        expect = strong_mixed_norm(space.dual(), kothe_dual(fam), s)
        acc.feed("functional_norm_strong_duality",
                 abs(fn.value - expect) / expect)
        fn2 = functional_norm(space, fam, s, "pointwise")
        expect2 = pointwise_mixed_norm(space.dual(), kothe_dual(fam), s)
        acc.feed("functional_norm_pointwise_duality",
                 abs(fn2.value - expect2) / expect2)
    acc.close("functional_norm_strong_duality", 1e-3, "lp")
    acc.close("functional_norm_pointwise_duality", 1e-3, "lp")
    return acc.records


SUITES = {
    "norm_families": norm_family_suite,
    "kothe_duality": kothe_suite,
    "krivine": krivine_suite,
    "mixed_norms": mixed_suite,
    "operators": operator_suite,
    "constants": constants_suite,
}


def run_all(counts: dict | None = None, seed: int = 42) -> dict:
    """Run every suite; returns {section: records} plus a summary block."""
    sections = {}
    total = 0
    failed = 0
    for offset, (name, suite) in enumerate(SUITES.items()):
        records = suite(counts, seed + 101 * offset)
        sections[name] = records
        total += len(records)
        failed += sum(1 for r in records if not r["holds"])
    sections["summary"] = {"checks": total, "failed": failed,
                           "passed": failed == 0}
    return sections
