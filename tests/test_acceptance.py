"""Acceptance battery: randomized end-to-end checks with pinned tolerances.

Each test seeds its own generator so the battery is reproducible in
isolation; the timed batteries assert their own wall-clock budgets.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from framex import (
    PointSet,
    Projection,
    VectorFamily,
    best_selector,
    canonical_dual,
    certificate_constant,
    cli,
    densify_gabor_frame,
    density,
    extract,
    frame_bounds,
    frame_operator,
    full_lattice_shifts,
    gabor_family,
    gaussian_window,
    GaborSpec,
    modulate,
    rank_one,
    sample,
    translate,
    union_density,
)
from helpers import bounded_rank_ones, rescalable_fixture

REL_TOL = 1e-8


def opnorm(mat):
    vals = np.linalg.eigvalsh((mat + np.conj(mat.T)) / 2.0)
    return float(np.max(np.abs(vals))) if vals.size else 0.0


def random_vectors(rng, count, dim, complex_field):
    v = rng.normal(size=(count, dim))
    if complex_field:
        v = v + 1j * rng.normal(size=(count, dim))
    return v


def unit_probes(rng, count, dim, complex_field):
    p = random_vectors(rng, count, dim, complex_field)
    return p / np.linalg.norm(p, axis=1)[:, None]


def test_frame_inequality_battery():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for trial in range(200):
        dim = int(rng.integers(2, 17))
        count = int(rng.integers(1, 4 * dim + 1))
        complex_field = bool(rng.integers(2))
        vecs = random_vectors(rng, count, dim, complex_field)
        rep = frame_bounds(VectorFamily(vecs))
        probes = unit_probes(rng, 100, dim, complex_field)
        quad = np.sum(np.abs(np.conj(vecs) @ probes.T) ** 2, axis=0)
        slack = REL_TOL * max(1.0, rep.upper)
        assert np.all(quad >= rep.lower * (1.0 - REL_TOL) - slack)
        assert np.all(quad <= rep.upper * (1.0 + REL_TOL) + slack)
    assert time.perf_counter() - start < 30.0


def test_dual_reconstruction_battery():
    rng = np.random.default_rng(102)
    for trial in range(50):
        dim = int(rng.integers(2, 17))
        complex_field = bool(rng.integers(2))
        scaled = bool(rng.integers(2))
        while True:
            count = int(rng.integers(dim + 2, 4 * dim + 1))
            vecs = random_vectors(rng, count, dim, complex_field)
            scalars = rng.uniform(0.5, 2.0, size=count) if scaled else None
            fam = VectorFamily(vecs, scalars=scalars)
            rep = frame_bounds(fam)
            if rep.is_frame and rep.upper < 1e6 * rep.lower:
                break
        duals = canonical_dual(fam)
        probes = unit_probes(rng, 100, dim, complex_field)
        back = (np.conj(duals.vectors) @ probes.T).T @ fam.weighted_vectors()
        residual = np.linalg.norm(back - probes, axis=1)
        assert np.all(residual < 1e-9)


def test_selector_leaf_bound_battery():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    for trial in range(100):
        dim = int(rng.integers(2, 7))
        m = int(rng.integers(2, 13))
        # at depth 1 the telescoped sum defining the constant is empty and
        # the certified bound is vacuous, so meaningful depths start at 2
        order = int(rng.integers(2, 4))
        delta = float(rng.uniform(0.01, 0.1))
        ops = bounded_rank_ones(rng, dim, m, delta)
        tree, cert = best_selector(ops, order, trace_cap=delta, strategy="exhaustive")
        assert cert.satisfied

        mats = [op.matrix for op in ops]
        total = sum(mats)
        bound = certificate_constant(delta, order) * math.sqrt(2**order * delta)
        assert cert.bound == pytest.approx(bound)
        for ids in tree.leaves().values():
            part = sum((mats[i] for i in ids), np.zeros_like(total))
            dev = opnorm(2**order * part - total)
            assert dev <= bound + 1e-9 * max(1.0, bound)

        _, greedy = best_selector(ops, order, trace_cap=delta, strategy="greedy")
        assert cert.worst <= greedy.worst + 1e-12
    assert time.perf_counter() - start < 120.0


def _sampling_instances(count=100):
    """Seeded rank-one sampling instances with exact dyadic weights."""
    rng = np.random.default_rng(104)
    pool = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
    out = []
    for trial in range(count):
        dim = int(rng.integers(2, 6))
        m = int(rng.integers(3, 9))
        dirs = rng.normal(size=(m, dim))
        dirs = dirs / np.linalg.norm(dirs, axis=1)[:, None]
        ops = [rank_one(math.sqrt(0.2) * u) for u in dirs]
        # total weighted trace 0.2 * sum(weights) must stay under 1/2, so
        # keep sum(weights) <= 5/2, reserving 1/4 for every later slot
        weights = []
        total = Fraction(0)
        budget = Fraction(5, 2)
        for slot in range(m):
            reserve = Fraction(1, 4) * (m - slot - 1)
            pick = pool[int(rng.integers(len(pool)))]
            if total + pick + reserve > budget:
                pick = Fraction(1, 4)
            weights.append(pick)
            total += pick
        rank = int(rng.integers(1, dim + 1))
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        subspace = Projection(q[:, :rank], dim=dim)
        out.append((ops, weights, subspace))
    return out


def test_sampling_multiplicity_battery():
    for ops, weights, subspace in _sampling_instances():
        fn, cert = sample(ops, weights, subspace, 0.25)
        assert cert.mult_ok
        cap = Fraction(2) ** (cert.beta + 1)
        for n, times in fn.multiplicity.items():
            assert Fraction(times) <= cap * weights[n]


def test_sampling_sandwich_battery():
    for ops, weights, subspace in _sampling_instances():
        fn, cert = sample(ops, weights, subspace, 0.25)
        assert cert.sandwich_ok

        target = sum(float(c) * op.matrix for c, op in zip(weights, ops))
        scale = 2.0**-cert.beta
        dev = -target
        for n, times in fn.multiplicity.items():
            dev = dev + (scale * times) * ops[n].matrix
        proj = subspace.matrix
        perp = subspace.complement().matrix
        gamma = max(float(np.real(np.trace(proj @ target @ proj))), 0.0)
        bound = 6.0 * math.sqrt(gamma) + 1e-8
        lo = np.min(np.linalg.eigvalsh(dev + 0.125 * perp))
        hi = np.max(np.linalg.eigvalsh(dev - 0.125 * perp))
        assert lo >= -bound and hi <= bound


def test_extraction_battery():
    rng = np.random.default_rng(106)
    start = time.perf_counter()
    for trial in range(50):
        dim = int(rng.integers(2, 9))
        extras = int(rng.integers(1, 4))
        fam = rescalable_fixture(rng, dim, extras=extras)
        res = extract(fam)
        rep_in = frame_bounds(fam)

        assert res.report.is_frame and res.report.lower > 0
        scale = 2.0**res.plan.scale.value
        lo_env = scale * rep_in.lower / 3.0
        hi_env = 3.0 * scale * rep_in.upper
        assert res.report.lower >= lo_env * (1.0 - 1e-6)
        assert res.report.upper <= hi_env * (1.0 + 1e-6)

        c = res.plan.scale.constant
        bound = max(
            144.0 * c * c * rep_in.upper / rep_in.lower**2,
            64.0 * c**4 / rep_in.upper**2,
        )
        assert res.mult_bound_L == pytest.approx(bound)
        norms = fam.norms()
        weights = np.abs(fam.scalars) ** 2 * norms**2
        for n, times in res.sigma.multiplicity.items():
            assert Fraction(times) <= Fraction(bound) * Fraction(float(weights[n]))
    assert time.perf_counter() - start < 300.0


def test_lattice_density_battery():
    for alpha in (0.5, 1.0, 2.0):
        n = int(math.floor(200.0 / alpha))
        pts = np.arange(-n, n + 1) * alpha
        est = density(PointSet(pts, 200.0), radii=[50.0])
        target = 1.0 / alpha
        assert est.lower >= target * 0.95
        assert est.upper <= target * 1.05

    whole = PointSet(np.arange(-200, 201) * 1.0, 200.0)
    shifted = PointSet(np.arange(-200, 200) * 1.0 + 0.5, 200.0)
    est = union_density([whole, shifted], radii=[50.0])
    assert est.lower >= 2.0 * 0.95
    assert est.upper <= 2.0 * 1.05


def test_gabor_identity_battery():
    rng = np.random.default_rng(108)
    for length in (16, 32):
        impulse = np.zeros(length)
        impulse[0] = 1.0
        windows = [
            gaussian_window(length).samples,
            impulse,
            np.ones(length) / math.sqrt(length),
            rng.normal(size=length),
            rng.normal(size=length) + 1j * rng.normal(size=length),
        ]
        for w in windows:
            norm_sq = float(np.linalg.norm(w)) ** 2
            fam = gabor_family(GaborSpec(w, full_lattice_shifts(length)))
            op = frame_operator(fam).matrix
            target = length * norm_sq * np.eye(length)
            assert opnorm(op - target) <= 1e-8 * length * norm_sq

        f = rng.normal(size=length) + 1j * rng.normal(size=length)
        for a, b in [(1, 1), (3, 7), (length - 1, 5)]:
            # M_b T_a = e^{2 pi i ab / L} T_a M_b, exponent reduced mod L
            left = modulate(translate(f, a), b).samples
            phase = np.exp(2j * np.pi * ((a * b) % length) / length)
            right = phase * translate(modulate(f, b), a).samples
            assert np.max(np.abs(left - right)) <= 1e-12
            # shifts reduce mod L exactly, so huge parameters give the same signal
            huge = modulate(translate(f, a + 5 * length), b - 2 * length).samples
            assert np.array_equal(huge, left)


def test_densified_construction_witness():
    length = 64
    counts = (1, 2, 4, 8)
    window = gaussian_window(length)
    leads = [(length // 2, (k * length) // len(counts)) for k in range(len(counts))]
    lattice = list(full_lattice_shifts(length))
    rest = [p for p in lattice if p not in set(leads)]
    spec = GaborSpec(window, leads + rest + lattice)

    base_rep = frame_bounds(gabor_family(spec))
    assert base_rep.is_frame  # the base system is a verified frame

    family, report = densify_gabor_frame(spec, counts, seed=0)
    assert report.operator_deviation < 1.0
    assert report.weights_nonzero
    assert all(w > 0 for w in report.weights)
    assert report.emitted_count == len(spec) + sum(counts) - len(counts)

    half = length / 2.0
    base_pts = np.array([(a - half, b - half) for a, b in spec.shifts])
    out_pts = np.array([(a - half, b - half) for a, b in report.shifts])
    extent = 46.0
    base_est = density(PointSet(base_pts, extent), radii=[20.0])
    out_est = density(PointSet(out_pts, extent), radii=[20.0])
    # clusters add points inside some window, so the upper density must grow
    assert out_est.upper > base_est.upper
    assert out_est.lower >= base_est.lower


def test_two_scale_ratio_battery():
    for dim in (4, 8, 16):
        fam = VectorFamily(np.eye(dim) / np.arange(1, dim + 1)[:, None])
        rep = frame_bounds(fam)
        assert rep.upper / rep.lower == pytest.approx(dim**2, rel=1e-6)


def test_cli_reports_reproducible(tmp_path):
    r3 = math.sqrt(3.0) / 2.0
    payload = {
        "dim": 2,
        "field": "real",
        "vectors": [[0.0, 1.0], [-r3, -0.5], [r3, -0.5]],
    }
    src = tmp_path / "family.json"
    src.write_text(json.dumps(payload), encoding="utf-8")
    bodies = set()
    for rep in range(10):
        dst = tmp_path / f"report{rep}.json"
        code = cli.main(
            [
                "extract",
                "--in",
                str(src),
                "--out",
                str(dst),
                "--seed",
                "7",
                "--no-timestamp",
            ]
        )
        assert code == 0
        bodies.add(dst.read_bytes())
    assert len(bodies) == 1
