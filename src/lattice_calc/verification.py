"""Property-verification suites over seeded random instances.

Each suite function returns a list of check records; a record summarizes one
invariant for one configuration (worst observed deviation against its
tolerance), so reports stay compact even for thousand-probe sweeps.  All
randomness comes from substreams of the given seed and every sweep is
sequential, which makes reports byte-reproducible.
"""

from __future__ import annotations

import numpy as np

from .constants import (brute_force_constant, convexity_ratio, duality_check,
                        estimate_constant, functional_norm, lattice_constants)
from .errors import InputError
from .finite_lattice import (homogeneous, krivine_apply, krivine_compose_check,
                             lattice, lattice_valued_norm, norm_function,
                             projection, sup_representation)
from .mixed_norms import (join_bound_check, mixed_norm_equivalence_check,
                          pointwise_mixed_norm, pointwise_mixed_norm_batch,
                          riesz_join_check, strong_mixed_norm,
                          strong_mixed_norm_batch, tail_profile)
from .operators import (OperatorInstance, apply_n, operator_norm, transpose,
                        tuple_lifting_bound_check)
from .optimize import AscentBudget
from .reporting import check_record, inputs_digest
from .seeding import spawn_rngs
from .seq_lattice import (LpFamily, NumericDualFamily, OrliczFamily,
                          SeqNormFamily, WeightedLpFamily, config_field,
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

FAMILY_TOL = 1e-9


def standard_families() -> list[SeqNormFamily]:
    return [
        LpFamily(1),
        LpFamily(1.5),
        LpFamily(2),
        LpFamily(3),
        LpFamily(np.inf),
        WeightedLpFamily(1, [2.0, 1.0, 1.5, 3.0, 0.5, 1.0, 2.0, 1.25]),
        OrliczFamily(parse_gauge("u^2")),
    ]


def dual_families() -> list[SeqNormFamily]:
    """Koethe duals probed by the same axioms as the primal families.

    The lp duals are lp families again and already covered; what needs
    probing is the conjugate-weight arithmetic and the numeric wrapper
    (the Amemiya solve, for an Orlicz base).
    """
    return [
        kothe_dual(WeightedLpFamily(1, [2.0, 1.0, 1.5, 3.0, 0.5, 1.0,
                                        2.0, 1.25])),
        kothe_dual(OrliczFamily(parse_gauge("u^2"))),
    ]


def _merge_counts(counts: dict | None) -> dict:
    """The defaults overridden by ``counts``: positive integers, and a
    ``max_length`` of at least 2."""
    merged = dict(DEFAULT_COUNTS)
    if counts:
        unknown = set(counts) - set(DEFAULT_COUNTS)
        if unknown:
            raise InputError(f"unknown count keys {sorted(unknown)}")
        for key in counts:
            merged[key] = config_field(counts, key, int, where="counts",
                                       low=2 if key == "max_length" else 1)
    return merged


def _worst_record(op, worst, tol, family, seed, probes):
    return check_record(op, worst, tol, worst <= tol,
                        inputs_digest(op, family, probes, seed),
                        seed=seed, family=family, probes=probes)


def norm_family_suite(counts: dict | None = None, seed: int = 0,
                      families: list[SeqNormFamily] | None = None,
                      tol: float = FAMILY_TOL) -> list[dict]:
    """Norm axioms on seeded probes: definiteness, homogeneity, monotonicity,
    triangle, exact zero padding and positive canonical vectors."""
    counts = _merge_counts(counts)
    probes = counts["family_probes"]
    nmax = counts["max_length"]
    if families is None:
        families = standard_families() + dual_families()
    records = []
    for fam_idx, fam in enumerate(families):
        rngs = spawn_rngs(seed + fam_idx, 6)
        worst = {"homogeneity": 0.0, "monotonicity": 0.0, "triangle": 0.0,
                 "padding": 0.0, "definiteness": 0.0}
        per_len = max(1, probes // (nmax - 1))
        for n in range(2, nmax + 1):
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
            if np.any(base <= 0.0) or fam.norm(np.zeros(n)) != 0.0 \
                    or not np.all(vals[5 * per_len:] > 0.0):
                worst["definiteness"] = np.inf
            hom = np.abs(homv - np.abs(lam) * base)
            worst["homogeneity"] = max(worst["homogeneity"],
                                       float((hom / (np.abs(lam) * scale + 1e-300)).max()))
            worst["monotonicity"] = max(worst["monotonicity"],
                                        float(((monov - base) / scale).max()))
            worst["triangle"] = max(worst["triangle"],
                                    float(((triv - base - sv) / scale).max()))
            if n + 1 <= (fam.max_length() or nmax + 1):
                padded = np.concatenate([t, np.zeros((per_len, 1))], axis=-1)
                pad = np.abs(fam.norm_array(padded) - base)
                worst["padding"] = max(worst["padding"], float(pad.max()))
        records.append(_worst_record("family_definiteness", worst["definiteness"],
                                     0.0, fam.label, seed, probes))
        records.append(_worst_record("family_homogeneity", worst["homogeneity"],
                                     tol, fam.label, seed, probes))
        records.append(_worst_record("family_monotonicity", worst["monotonicity"],
                                     tol, fam.label, seed, probes))
        records.append(_worst_record("family_triangle", worst["triangle"],
                                     tol, fam.label, seed, probes))
        records.append(_worst_record("family_padding", worst["padding"],
                                     0.0, fam.label, seed, probes))
    return records


def kothe_suite(counts: dict | None = None, seed: int = 100) -> list[dict]:
    """Dual-norm facts: numeric matches analytic, biduality, the pairing
    bound with conjugate witnesses, prefix monotonicity, and the dual norm
    as a functional norm."""
    counts = _merge_counts(counts)
    records = []
    rngs = spawn_rngs(seed, 8)
    analytic = [LpFamily(1), LpFamily(1.5), LpFamily(2), LpFamily(3),
                LpFamily(np.inf),
                WeightedLpFamily(1, [2.0, 1.0, 1.5, 3.0, 0.5, 1.0])]

    # numeric optimization against the closed forms: the batched wrapper on
    # every probe, the seeded-restart path on a sample of them
    probes = counts["dual_probes"]
    for fam in analytic:
        n = 4
        betas = rngs[0].standard_normal((probes, n)) * 2.0
        ana = kothe_dual(fam).norm_array(betas)
        num = NumericDualFamily(fam).norm_array(betas)
        ref = kothe_dual_norm(fam, betas[:8], method="analytic").value
        got = kothe_dual_norm(fam, betas[:8], method="numeric", restarts=12,
                              iterations=150, seed=seed).value
        worst = float(max((np.abs(num - ana) / np.maximum(ana, 1e-300)).max(),
                          (np.abs(got - ref) / np.maximum(ref, 1e-300)).max()))
        records.append(_worst_record("dual_numeric_vs_analytic", worst, 1e-3,
                                     fam.label, seed, probes))

    # biduality on probe vectors
    l2 = LpFamily(2)
    bidual = kothe_dual(kothe_dual(l2))
    vecs = rngs[1].standard_normal((16, 5))
    worst = float((np.abs(bidual.norm_array(vecs) - l2.norm_array(vecs))
                   / l2.norm_array(vecs)).max())
    records.append(_worst_record("dual_bidual_l2", worst, 1e-9, "l2", seed, 16))
    orl = OrliczFamily(parse_gauge("u^2"))
    dual_orl = kothe_dual(orl)
    vecs = rngs[2].standard_normal((16, 4))
    worst = float((np.abs(dual_orl.norm_array(vecs) - l2.norm_array(vecs))
                   / l2.norm_array(vecs)).max())
    records.append(_worst_record("dual_orlicz_sq_is_l2", worst, 1e-9,
                                 orl.label, seed, 16))

    # pairing bound on every instance, with conjugate-witness equality for lp
    hp = counts["holder_probes"]
    for fam in [LpFamily(1), LpFamily(1.5), LpFamily(2), orl]:
        n = 5 if fam.max_length() is None else min(5, fam.max_length())
        alphas = rngs[3].standard_normal((hp, n)) * 2.0
        betas = rngs[4].standard_normal((hp, n)) * 2.0
        dual = kothe_dual(fam)
        lhs = np.abs(alphas * betas).sum(axis=-1)
        rhs = fam.norm_array(alphas) * dual.norm_array(betas)
        worst_gap = float(((lhs - rhs) / np.maximum(rhs, 1e-300)).max())
        records.append(_worst_record("holder_bound", worst_gap, 1e-9,
                                     fam.label, seed, hp))
        if isinstance(fam, LpFamily):
            w = dual_witness(fam, betas[:64])
            lhs_eq = np.abs(w * betas[:64]).sum(axis=-1)
            rhs_eq = fam.norm_array(w) * kothe_dual_norm(fam, betas[:64]).value
            worst_eq = float((np.abs(lhs_eq - rhs_eq)
                              / np.maximum(rhs_eq, 1e-300)).max())
            records.append(_worst_record("holder_witness_equality", worst_eq,
                                         1e-9, fam.label, seed, 64))

    # prefix monotonicity of the dual norm, equality on zero tails
    worst = 0.0
    worst_eq = 0.0
    for fam in [LpFamily(1.5), LpFamily(2), orl]:
        dual = kothe_dual(fam)
        betas = rngs[5].standard_normal((32, 6))
        heads = betas[None, :, :] * (np.arange(6)[None, :] <
                                     np.arange(1, 7)[:, None, None])
        vals = dual.norm_array(heads)
        full = vals[-1]
        worst = max(worst, float(((vals[:-1] - full[None, :])
                                  / np.maximum(full, 1e-300)).max()))
        padded = np.concatenate([betas, np.zeros((32, 2))], axis=-1)
        worst_eq = max(worst_eq,
                       float((np.abs(dual.norm_array(padded) - full)
                              / np.maximum(full, 1e-300)).max()))
    records.append(_worst_record("dual_prefix_monotone", worst, 1e-9,
                                 "l1.5/l2/orlicz", seed, 96))
    records.append(_worst_record("dual_zero_tail_equality", worst_eq, 1e-9,
                                 "l1.5/l2/orlicz", seed, 96))

    # the dual norm is the norm of the pairing functional on (R^n, family)
    worst = 0.0
    for fam in [LpFamily(1.5), LpFamily(2), LpFamily(3)]:
        n = 4
        betas = rngs[6].standard_normal((6, n))
        for b, ana in zip(betas, kothe_dual_norm(fam, betas).value):
            est = functional_norm(lattice(n, fam), fam, [b], "strong").value
            worst = max(worst, abs(est - ana) / max(ana, 1e-300))
    records.append(_worst_record("dual_equals_functional_norm", worst, 1e-6,
                                 "lp", seed, 18))
    return records


def krivine_suite(counts: dict | None = None, seed: int = 200) -> list[dict]:
    """Pointwise functional calculus: projection recovery, composition,
    homogeneity, monotonicity, the triangle inequality, the peak-row bound,
    and commutation with lattice homomorphisms."""
    counts = _merge_counts(counts)
    inst = counts["krivine_instances"]
    records = []
    rngs = spawn_rngs(seed, 10)
    fams = [LpFamily(1), LpFamily(2), LpFamily(np.inf),
            OrliczFamily(parse_gauge("u^2"))]

    worst = {k: 0.0 for k in
             ("projection", "homogeneity", "monotonicity", "absinv",
              "triangle", "peak_bound", "homomorphism", "positive_map")}
    per_fam = max(1, inst // len(fams))
    for fidx, fam in enumerate(fams):
        n, m = 4, 5
        x = rngs[0].standard_normal((per_fam, n, m)) * 2.0
        y = rngs[1].standard_normal((per_fam, n, m)) * 2.0
        lam = rngs[2].uniform(0.0, 3.0, per_fam)
        vec = lattice_valued_norm(fam, x)
        scale = np.maximum(vec.max(axis=-1), 1e-12)[:, None]

        hom = np.abs(lattice_valued_norm(fam, lam[:, None, None] * x)
                     - lam[:, None] * vec)
        worst["homogeneity"] = max(worst["homogeneity"],
                                   float((hom / scale).max()))
        shrink = rngs[3].uniform(0.0, 1.0, (per_fam, n, m))
        mono = lattice_valued_norm(fam, shrink * x) - vec
        worst["monotonicity"] = max(worst["monotonicity"],
                                    float((mono / scale).max()))
        absinv = np.abs(lattice_valued_norm(fam, np.abs(x)) - vec)
        worst["absinv"] = max(worst["absinv"], float(absinv.max()))
        tri = lattice_valued_norm(fam, x + y) - vec - lattice_valued_norm(fam, y)
        worst["triangle"] = max(worst["triangle"], float((tri / scale).max()))
        ones = fam.norm(np.ones(n))
        peak = vec - ones * np.abs(x).max(axis=-2)
        worst["peak_bound"] = max(worst["peak_bound"], float((peak / scale).max()))

        # lattice homomorphisms: positive diagonal and coordinate permutation
        diag = rngs[4].uniform(0.2, 2.0, (per_fam, 1, m))
        lhs = lattice_valued_norm(fam, diag * x)
        homm = np.abs(lhs - diag[:, 0, :] * vec)
        worst["homomorphism"] = max(worst["homomorphism"],
                                    float((homm / scale).max()))
        perm = rngs[5].permutation(m)
        homp = np.abs(lattice_valued_norm(fam, x[:, :, perm]) - vec[:, perm])
        worst["homomorphism"] = max(worst["homomorphism"], float(homp.max()))
        # merely positive maps dominate for convex h
        pos = rngs[6].uniform(0.0, 1.0, (m, m))
        mapped = lattice_valued_norm(fam, x @ pos.T)
        dominated = mapped - vec @ pos.T
        worst["positive_map"] = max(worst["positive_map"],
                                    float((dominated / np.maximum(
                                        (vec @ pos.T).max(-1), 1e-12)[:, None]).max()))

        if fidx == 0:
            for j in range(n):
                proj = projection(n, j)
                got = np.stack([proj.func(np.moveaxis(x[i], 0, -1))
                                for i in range(min(per_fam, 50))])
                diff = np.abs(got - x[:50, j, :])
                worst["projection"] = max(worst["projection"], float(diff.max()))

    records.append(_worst_record("krivine_projection_recovery",
                                 worst["projection"], 0.0, "all", seed, inst))
    records.append(_worst_record("krivine_homogeneity", worst["homogeneity"],
                                 1e-12, "all", seed, inst))
    records.append(_worst_record("krivine_monotonicity", worst["monotonicity"],
                                 1e-12, "all", seed, inst))
    records.append(_worst_record("krivine_abs_invariance", worst["absinv"],
                                 1e-12, "all", seed, inst))
    records.append(_worst_record("krivine_triangle", worst["triangle"],
                                 1e-12, "all", seed, inst))
    records.append(_worst_record("krivine_peak_bound", worst["peak_bound"],
                                 1e-9, "all", seed, inst))
    records.append(_worst_record("krivine_lattice_homomorphism",
                                 worst["homomorphism"], 1e-12, "all", seed, inst))
    records.append(_worst_record("krivine_positive_map_domination",
                                 worst["positive_map"], 1e-12, "all", seed, inst))

    # the calculus turns pointwise maxima of functions into joins of outputs
    join_exact = True
    for k in range(32):
        rng = np.random.default_rng(seed * 19 + k)
        n, m = 3, 4
        x = rng.standard_normal((n, m))
        coeffs = rng.standard_normal(n)
        h1 = norm_function(LpFamily(1.5), n)
        h2 = homogeneous(lambda a, c=coeffs: a @ c, n, batched=True,
                         samples=4)
        joined = homogeneous(
            lambda a, f=h1.func, g=h2.func: np.maximum(f(a), g(a)), n,
            batched=True, samples=4)
        lhs = krivine_apply(joined, x)
        rhs = np.maximum(krivine_apply(h1, x), krivine_apply(h2, x))
        join_exact = join_exact and np.array_equal(lhs, rhs)
    records.append(check_record("krivine_join_preservation",
                                0.0 if join_exact else 1.0, 0.0, join_exact,
                                inputs_digest("join", seed), seed=seed,
                                probes=32))

    # composition identity is bitwise in the pointwise realization
    comp = counts["compose_instances"]
    exact = True
    for k in range(comp):
        rng = np.random.default_rng(seed * 1000 + k)
        n, m = rng.integers(2, 5), rng.integers(2, 5)
        x = rng.standard_normal((n, m))
        cols = rng.standard_normal((3, n))
        inner = [homogeneous(lambda a, c=c: a @ c, n, batched=True, samples=4)
                 for c in cols]
        inner.append(norm_function(LpFamily(2), n))
        h = norm_function(LpFamily(1), len(inner))
        _, _, equal = krivine_compose_check(inner, h, x)
        exact = exact and equal
    records.append(check_record("krivine_compose_identity",
                                0.0 if exact else 1.0, 0.0, exact,
                                inputs_digest("compose", seed, comp), seed=seed,
                                probes=comp))
    return records


def mixed_suite(counts: dict | None = None, seed: int = 300) -> list[dict]:
    """Mixed-norm identities: collapse for matched lp, exact padding, prefix
    monotonicity, the norm-level triangle inequality, equivalence bounds,
    tails, pairings, the pointwise pairing bound and join formulas."""
    counts = _merge_counts(counts)
    inst = counts["mixed_instances"]
    records = []
    rngs = spawn_rngs(seed, 12)

    # matched lp collapse: both mixed norms coincide
    worst = 0.0
    for p in (1.0, 1.5, 2.0, 3.0, np.inf):
        fam = LpFamily(p)
        space = lattice(4, LpFamily(p))
        tuples = rngs[0].standard_normal((64, 3, 4)) * 2.0
        a = strong_mixed_norm_batch(space, fam, tuples)
        b = pointwise_mixed_norm_batch(space, fam, tuples)
        worst = max(worst, float((np.abs(a - b) / np.maximum(a, 1e-300)).max()))
    records.append(_worst_record("mixed_matched_lp_collapse", worst, 1e-12,
                                 "lp", seed, 320))

    fams = [LpFamily(1.5), LpFamily(2), OrliczFamily(parse_gauge("u^2"))]
    spaces = [lattice(3, LpFamily(1)), lattice(3, LpFamily(2)),
              lattice(3, LpFamily(np.inf))]
    per_block = max(1, inst // (len(fams) * len(spaces)))
    worst_pad = 0.0
    worst_prefix = 0.0
    worst_tri = 0.0
    worst_equiv_ok = True
    for fam in fams:
        for space in spaces:
            tuples = rngs[1].standard_normal((per_block, 3, 3)) * 2.0
            extra = rngs[2].standard_normal((per_block, 1, 3)) * 2.0
            for kind, norm_batch in (("strong", strong_mixed_norm_batch),
                                     ("pointwise", pointwise_mixed_norm_batch)):
                base = norm_batch(space, fam, tuples)
                padded = norm_batch(space, fam,
                                    np.concatenate([tuples, np.zeros_like(extra)], 1))
                worst_pad = max(worst_pad, float(np.abs(padded - base).max()))
                grown = norm_batch(space, fam,
                                   np.concatenate([tuples, extra], 1))
                worst_prefix = max(worst_prefix,
                                   float(((base - grown) / np.maximum(grown, 1e-300)).max()))
            other = rngs[3].standard_normal((per_block, 3, 3)) * 2.0
            t1 = pointwise_mixed_norm_batch(space, fam, tuples + other)
            t2 = (pointwise_mixed_norm_batch(space, fam, tuples)
                  + pointwise_mixed_norm_batch(space, fam, other))
            worst_tri = max(worst_tri,
                            float(((t1 - t2) / np.maximum(t2, 1e-300)).max()))
            _, _, ok = mixed_norm_equivalence_check(space, fam, tuples[:8])
            worst_equiv_ok = worst_equiv_ok and bool(ok.all())
    records.append(_worst_record("mixed_zero_padding_exact", worst_pad, 0.0,
                                 "all", seed, inst))
    records.append(_worst_record("mixed_prefix_monotone", worst_prefix, 1e-12,
                                 "all", seed, inst))
    records.append(_worst_record("mixed_norm_triangle", worst_tri, 1e-12,
                                 "all", seed, inst))
    records.append(check_record("mixed_equivalence_bounds",
                                0.0 if worst_equiv_ok else 1.0, 0.0,
                                worst_equiv_ok,
                                inputs_digest("equiv", seed), seed=seed))

    # tail profiles are nonincreasing and vanish after the support
    worst = 0.0
    space = lattice(3, LpFamily(2))
    for fam in fams:
        seqs = rngs[4].standard_normal((16, 4, 3))
        seqs[:, -1] = 0.0
        for s in seqs:
            for flavor in ("strong", "pointwise"):
                prof = tail_profile(fam, space, s, flavor)
                worst = max(worst, float(np.diff(prof).max() / max(prof[0], 1e-300)))
                if prof[-1] != 0.0:
                    worst = np.inf
    records.append(_worst_record("tail_profile_nonincreasing", worst, 1e-12,
                                 "all", seed, 96))

    # pairing bound of eventually-zero sequences
    pinst = counts["pairing_instances"]
    half = max(1, pinst // 2)
    worst = 0.0
    for fam in [LpFamily(2), LpFamily(3)]:
        space = lattice(3, LpFamily(2))
        dual_fam = kothe_dual(fam)
        dual_space = space.dual()
        w = rngs[5].standard_normal((half, 4, 3))
        s = rngs[6].standard_normal((half, 4, 3))
        lhs = np.abs((w * s).sum(axis=(1, 2)))
        rhs = (strong_mixed_norm_batch(dual_space, dual_fam, s)
               * strong_mixed_norm_batch(space, fam, w))
        worst = max(worst, float(((lhs - rhs) / np.maximum(rhs, 1e-300)).max()))
    records.append(_worst_record("sequence_pairing_bound", worst, 1e-9,
                                 "l2/l3", seed, pinst))

    # pointwise pairing bound across four families, batched over instances
    qinst = counts["pointwise_pairing_instances"]
    worst = 0.0
    qfams = [LpFamily(1), LpFamily(2), LpFamily(3),
             OrliczFamily(parse_gauge("u^2"))]
    per_fam = max(1, qinst // len(qfams))
    space = lattice(3, LpFamily(2))
    for fam in qfams:
        dual_fam = kothe_dual(fam)
        x = rngs[7].standard_normal((per_fam, 4, 3)) * 2.0
        phi = rngs[8].standard_normal((per_fam, 4, 3)) * 2.0
        lhs = np.abs((x * phi).sum(axis=-1)).sum(axis=-1)
        rhs = (lattice_valued_norm(fam, x)
               * lattice_valued_norm(dual_fam, phi)).sum(axis=-1)
        worst = max(worst, float(((lhs - rhs) / np.maximum(rhs, 1e-300)).max()))
    records.append(_worst_record("pointwise_pairing_bound", worst, 1e-9,
                                 "l1/l2/l3/orlicz", seed, qinst))

    # join of dual-ball combinations never beats the pointwise norm (lp)
    winst = counts["join_bound_instances"]
    worst = 0.0
    worst_gap = 0.0
    for p in (1.5, 2.0, 3.0):
        fam = LpFamily(p)
        for k in range(max(1, winst // 3)):
            rows = rngs[9].standard_normal((3, 3)) * 2.0
            rep = join_bound_check(space, fam, rows, samples=8, seed=seed + k)
            if not rep.holds:
                worst = np.inf
            worst_gap = max(worst_gap, rep.analytic_gap)
    records.append(_worst_record("join_bound_never_exceeds", worst, 0.0,
                                 "lp", seed, winst))
    records.append(_worst_record("join_analytic_maximizers", worst_gap, 1e-6,
                                 "lp", seed, winst))

    # sup representation: sampled from below, closed-form maximizers exact
    worst_below = 0.0
    worst_exact = 0.0
    for p in (1.0, 2.0, 3.0, np.inf):
        fam = LpFamily(p)
        for k in range(16):
            rows = rngs[10].standard_normal((3, 4)) * 2.0
            rep = sup_representation(fam, rows, samples=64, seed=seed + k)
            scale = np.maximum(rep.reference, 1e-12)
            worst_below = max(worst_below,
                              float(((rep.sampled - rep.reference) / scale).max()))
            worst_exact = max(worst_exact,
                              float((np.abs(rep.analytic - rep.reference) / scale).max()))
    records.append(_worst_record("sup_representation_lower", worst_below, 1e-9,
                                 "lp", seed, 64))
    records.append(_worst_record("sup_representation_analytic", worst_exact,
                                 1e-6, "lp", seed, 64))

    # join formula for finitely many functionals on nonnegative vectors
    rinst = counts["riesz_instances"]
    ok_all = True
    for k in range(rinst):
        rng = np.random.default_rng(seed * 77 + k)
        phis = rng.standard_normal((3, 4))
        x = np.abs(rng.standard_normal(4))
        _, _, ok = riesz_join_check(phis, x, trials=20, seed=seed + k)
        ok_all = ok_all and ok
    records.append(check_record("riesz_join_formula", 0.0 if ok_all else 1.0,
                                0.0, ok_all, inputs_digest("riesz", seed),
                                seed=seed, probes=rinst))
    return records


def operator_suite(counts: dict | None = None, seed: int = 400) -> list[dict]:
    """Operator plumbing: application against naive recomputation, padding,
    the transpose pairing identity, norm symmetry under transposition, and
    the lifted-tuple bound."""
    counts = _merge_counts(counts)
    records = []
    rngs = spawn_rngs(seed, 6)

    binst = counts["bilinear_instances"]
    worst_apply = 0.0
    worst_pair = 0.0
    for k in range(max(1, binst // 100)):
        rng = np.random.default_rng(seed * 31 + k)
        d, m = rng.integers(2, 5), rng.integers(2, 5)
        mat = rng.standard_normal((m, d))
        E = lattice(d, LpFamily(2))
        X = lattice(m, LpFamily(2))
        op = OperatorInstance(mat, E, X)
        w = rng.standard_normal((100, d))
        phi = rng.standard_normal((100, m))
        got = apply_n(op, w)
        naive = np.array([[sum(mat[i, j] * wv[j] for j in range(d))
                           for i in range(m)] for wv in w])
        worst_apply = max(worst_apply, float(np.abs(got - naive).max()))
        lhs = (got * phi).sum(axis=-1)
        rhs = (w * apply_n(transpose(op), phi)).sum(axis=-1)
        # relative to |phi|^t |T| |w|, the rounding scale of both sums
        scale = (np.abs(phi) * (np.abs(w) @ np.abs(mat).T)).sum(axis=-1)
        worst_pair = max(worst_pair, float((np.abs(lhs - rhs)
                                            / np.maximum(scale, 1e-300)).max()))
        if not np.array_equal(transpose(transpose(op)).matrix, mat):
            worst_apply = np.inf
    records.append(_worst_record("operator_apply_recompute", worst_apply,
                                 1e-12, "l2", seed, binst))
    records.append(_worst_record("operator_transpose_pairing", worst_pair,
                                 1e-12, "l2", seed, binst))

    # norm symmetry under transposition, two independent estimates
    worst = 0.0
    for k in range(counts["opnorm_pairs"]):
        rng = np.random.default_rng(seed * 13 + k)
        mat = rng.standard_normal((3, 3))
        E = lattice(3, LpFamily([2, 1.5, 3, 1][k % 4]))
        X = lattice(3, LpFamily([2, 3, 1.5, np.inf][k % 4]))
        op = OperatorInstance(mat, E, X)
        a = operator_norm(op, seed=seed + k).value
        b = operator_norm(transpose(op), seed=seed + 1000 + k).value
        worst = max(worst, abs(a - b) / max(a, b, 1e-300))
    records.append(_worst_record("operator_norm_transpose_symmetry", worst,
                                 1e-4, "lp", seed, counts["opnorm_pairs"]))

    # lifted tuples stay within the operator norm bound
    ok_all = True
    for k in range(counts["lifting_instances"]):
        rng = np.random.default_rng(seed * 7 + k)
        mat = rng.standard_normal((3, 2))
        E = lattice(2, LpFamily(2))
        X = lattice(3, LpFamily(1.5))
        op = OperatorInstance(mat, E, X)
        rows = rng.standard_normal((3, 2))
        _, _, holds = tuple_lifting_bound_check(
            op, LpFamily(2), rows, budget=AscentBudget(6, 120, 0.2),
            seed=seed + k)
        ok_all = ok_all and holds
    records.append(check_record("operator_lifting_bound",
                                0.0 if ok_all else 1.0, 0.0, ok_all,
                                inputs_digest("lift", seed), seed=seed,
                                probes=counts["lifting_instances"]))

    # zero padding commutes with rowwise application
    rng = rngs[0]
    mat = rng.standard_normal((3, 3))
    op = OperatorInstance(mat, lattice(3, LpFamily(2)), lattice(3, LpFamily(2)))
    rows = rng.standard_normal((4, 3))
    padded = np.vstack([rows, np.zeros((1, 3))])
    same = np.array_equal(apply_n(op, padded)[:4], apply_n(op, rows))
    zero_row = bool(np.all(apply_n(op, padded)[4] == 0.0))
    records.append(check_record("operator_padding_commutes",
                                0.0 if (same and zero_row) else 1.0, 0.0,
                                same and zero_row,
                                inputs_digest(mat, rows), seed=seed))
    return records


def constants_suite(counts: dict | None = None, seed: int = 500) -> list[dict]:
    """Constant estimation sanity: collapse cases, scaling, monotone levels,
    oracle agreement, functional-norm duality and the transpose identity."""
    counts = _merge_counts(counts)
    records = []
    levels = counts["constant_levels"]
    light = AscentBudget(12, 200, 0.1)

    # identity on matched lp has all levels equal to one
    worst = 0.0
    for p in (1.0, 2.0, np.inf):
        space = lattice(3, LpFamily(p))
        conv, conc = lattice_constants(space, LpFamily(p), levels,
                                       budget=light, seed=seed)
        for est in (conv, conc):
            for b in est.per_n:
                worst = max(worst, abs(b.value - 1.0))
    records.append(_worst_record("constants_identity_matched_lp", worst, 1e-6,
                                 "lp", seed, levels))

    # scaling the operator scales every level exactly
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((2, 2))
    E = lattice(2, LpFamily(2))
    X = lattice(2, LpFamily(1))
    op = OperatorInstance(mat, E, X)
    scaled = OperatorInstance(2.5 * mat, E, X)
    a = estimate_constant(op, LpFamily(2), "convexity", levels, light, seed)
    b = estimate_constant(scaled, LpFamily(2), "convexity", levels, light, seed)
    worst = max(abs(bb.value - 2.5 * ab.value) / (2.5 * ab.value)
                for ab, bb in zip(a.per_n, b.per_n))
    records.append(_worst_record("constants_operator_scaling", worst, 1e-9,
                                 "l2", seed, levels))
    worst = max((x1.value - x2.value) / max(x2.value, 1e-300)
                for x1, x2 in zip(a.per_n, a.per_n[1:])) if levels > 1 else 0.0
    records.append(_worst_record("constants_levels_nondecreasing", worst, 0.0,
                                 "l2", seed, levels))

    # witness reproduces its level value
    worst = 0.0
    for bnd in a.per_n:
        ratio = convexity_ratio(op, LpFamily(2), bnd.witness)
        worst = max(worst, abs(ratio - bnd.value) / max(bnd.value, 1e-300))
    records.append(_worst_record("constants_witness_reproduces", worst, 1e-9,
                                 "l2", seed, levels))

    # ascent against the certified grid oracle on a tiny instance
    bf = brute_force_constant(op, LpFamily(2), "convexity", 2,
                              grid_resolution=15)
    est2 = a.per_n[1].value
    gap = abs(est2 - bf.per_n[0].value) / max(bf.per_n[0].value, 1e-300)
    records.append(_worst_record("constants_grid_oracle_agreement", gap, 1e-2,
                                 "l2", seed, 1))

    # duality at the identity and on one seeded instance
    ident = OperatorInstance(np.eye(2), E, lattice(2, LpFamily(2)))
    rep = duality_check(ident, LpFamily(2), levels, light, seed)
    records.append(_worst_record("duality_identity_gap", rep.rel_gap, 1e-6,
                                 "l2", seed, levels))
    rep2 = duality_check(op, LpFamily(2), levels, light, seed)
    records.append(_worst_record("duality_seeded_gap", rep2.rel_gap, 5e-2,
                                 "l2", seed, levels))

    # functional norms against the closed-form dual mixed norms
    worst_s = 0.0
    worst_t = 0.0
    for k in range(3):
        rng = np.random.default_rng(seed * 3 + k)
        s = rng.standard_normal((2, 3))
        space = lattice(3, LpFamily([2, 1.5, 3][k % 3]))
        fam = LpFamily([2, 3, 1.5][k % 3])
        fn = functional_norm(space, fam, s, "strong")
        expect = strong_mixed_norm(space.dual(), kothe_dual(fam), s)
        worst_s = max(worst_s, abs(fn.value - expect) / expect)
        fn2 = functional_norm(space, fam, s, "pointwise")
        expect2 = pointwise_mixed_norm(space.dual(), kothe_dual(fam), s)
        worst_t = max(worst_t, abs(fn2.value - expect2) / expect2)
    records.append(_worst_record("functional_norm_strong_duality", worst_s,
                                 1e-3, "lp", seed, 3))
    records.append(_worst_record("functional_norm_pointwise_duality", worst_t,
                                 1e-3, "lp", seed, 3))
    return records


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
