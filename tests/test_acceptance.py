"""Acceptance suite.

One test per acceptance criterion.  Each test checks its criterion at
the stated tolerance and runtime budget and prints exactly one
"ACCEPTANCE <n>: PASS/FAIL" line (run with `pytest -s` to see them all).
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction as F

from lelong.demailly import basis_norms, lelong_bounds_check
from lelong.indicator_calculus import (
    directional_lelong_exact,
    generalized_lelong_exact,
    newton_number,
)
from lelong.numeric_oracle import (
    RadialSchedule,
    classical_lelong_numeric,
    generalized_lelong_numeric,
    indicator_profile,
    slice_lelong,
)
from lelong.poly_geom import ExponentSet, gamma_measure
from lelong.weights import CoordLog, MaxOf, NegPowLog, PolyLog, Scale, scaling_transform
from exact_oracles import complement_volume, indicator_eval

STANDARD = RadialSchedule(levels=(-5.0, -10.0, -20.0, -30.0), angular_nodes=256)


def _report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _simplex_weight(a):
    n = len(a)
    rows = []
    for k in range(n):
        row = [F(0)] * n
        row[k] = 1 / F(a[k])
        rows.append(tuple(row))
    return ExponentSet.of(rows)


def _random_exponent_set(rng, n, max_entry=5, max_points=4):
    pts = set()
    for _ in range(rng.randint(1, max_points)):
        p = tuple(F(rng.randint(0, 2 * max_entry), 2) for _ in range(n))
        if any(x > 0 for x in p):
            pts.add(p)
    if not pts:
        pts.add(tuple(F(1) for _ in range(n)))
    return ExponentSet.of(pts)


def _random_axis_touching(rng, n, extra=3, hi=5):
    pts = set()
    for k in range(n):
        p = [F(0)] * n
        p[k] = F(rng.randint(1, hi))
        pts.add(tuple(p))
    for _ in range(rng.randint(0, extra)):
        q = tuple(F(rng.randint(0, hi)) for _ in range(n))
        if any(x > 0 for x in q):
            pts.add(q)
    return ExponentSet.of(pts)


def test_acceptance_1_simplex_weight_rescaling_identity():
    # pairing with the simplex weight of a, times prod(a), equals the
    # directional density: exact rational equality on 100 random instances
    rng = random.Random(2024)
    start = time.monotonic()
    ok = True
    for _ in range(100):
        n = rng.choice((2, 3))
        S_u = _random_exponent_set(rng, n)
        a = tuple(F(rng.randint(1, 12), 3) for _ in range(n))
        lhs = generalized_lelong_exact(S_u, _simplex_weight(a)).value * math.prod(a)
        rhs = directional_lelong_exact(S_u, a).value
        if lhs != rhs:
            ok = False
            break
    elapsed = time.monotonic() - start
    _report(1, ok and elapsed < 5.0,
            f"100/100 exact identities, {elapsed:.2f}s (< 5s)")


def test_acceptance_2_newton_numbers_and_mass_conservation():
    start = time.monotonic()
    values_ok = (
        newton_number(ExponentSet.of([(2, 0), (0, 3)])).value == 6
        and newton_number(ExponentSet.of([(1, 0), (0, 1)])).value == 1
        and newton_number(ExponentSet.of([(4, 0), (1, 1), (0, 4)])).value == 8
    )
    rng = random.Random(4096)
    conserved = 0
    for i in range(200):
        n = 2 if i % 2 == 0 else 3
        S = _random_axis_touching(rng, n, extra=2, hi=4)
        g = gamma_measure(S)
        if g.total_mass == sum(m for _, m in g.atoms) == complement_volume(S):
            conserved += 1
    elapsed = time.monotonic() - start
    _report(2, values_ok and conserved == 200 and elapsed < 5.0,
            f"newton numbers 6/1/8 exact, {conserved}/200 diagrams conserve mass, "
            f"{elapsed:.2f}s (< 5s)")


def test_acceptance_3_swept_measure_cross_validation():
    # twenty piecewise-linear instances realized as unit-coefficient
    # polynomial log-moduli: schedule estimate within 2% of the exact value
    rng = random.Random(777)
    start = time.monotonic()
    worst = 0.0
    checked = 0
    while checked < 20:
        supp = set()
        for _ in range(rng.randint(2, 4)):
            p = (rng.randint(0, 5), rng.randint(0, 5))
            if p != (0, 0):
                supp.add(p)
        if not supp:
            continue
        S_phi = _random_axis_touching(rng, 2, extra=2, hi=4)
        w = PolyLog.of([(1, J) for J in sorted(supp)])
        exact = float(generalized_lelong_exact(ExponentSet.of(supp), S_phi).value)
        est = generalized_lelong_numeric(S_phi, w, STANDARD).value
        rel = abs(est - exact) / exact
        worst = max(worst, rel)
        checked += 1
    elapsed = time.monotonic() - start
    _report(3, worst <= 0.02 and elapsed < 60.0,
            f"20 instances, worst relative gap {worst:.2e} (<= 2%), "
            f"{elapsed:.1f}s (< 60s)")


def test_acceptance_4_cusp_against_diagonal_weight():
    u_support = ExponentSet.of([(2, 0), (0, 3)])
    phi = ExponentSet.of([(1, 0), (0, 1)])
    exact = generalized_lelong_exact(u_support, phi).value
    w = PolyLog.of([(1, (2, 0)), (1, (0, 3))])
    est = generalized_lelong_numeric(phi, w, STANDARD).value
    ok = exact == 2 and abs(est - 2.0) <= 0.02 * 2.0
    _report(4, ok, f"exact value {exact}, estimate {est:.6f} within 2%")


def test_acceptance_5_flat_indicator_with_positive_slice_mass():
    # weight with identically-zero indicator but unit slice mass: the
    # hyperplane route must see 1, every directional probe must see ~0,
    # and the strict gap between the two must survive the error bars
    flat = MaxOf.of(NegPowLog(1, F(1, 2)), CoordLog(2))
    slice_est = slice_lelong(flat, 1, STANDARD)
    slice_ok = abs(slice_est.value - 1.0) <= 0.01
    deep = RadialSchedule(levels=(-1e4, -3e4, -1e5), angular_nodes=64)
    prof = indicator_profile(flat, [(1, 1), (2, 1), (1, 2), (3, 1), (1, 3)], deep)
    prof_max = max(abs(e.estimate.value) for e in prof)
    prof_ok = prof_max <= 0.02
    gap_ok = slice_est.value - 0.01 > prof_max
    _report(5, slice_ok and prof_ok and gap_ok,
            f"slice {slice_est.value:.6f} (1 +/- 1%), profile max {prof_max:.4f} "
            f"(<= 0.02), strict gap holds")


def test_acceptance_6_rescaling_convergence():
    # the density estimate at every rescaling level stays within 5% of the
    # limit value 1 and the
    # deviation does not grow from m=1 to m=8; this family converges at
    # machine precision, so the drift comparison carries a float-noise guard
    u = PolyLog.of([(1, (1, 0)), (1, (0, 2))])
    phi = ExponentSet.of([(1, 0), (0, 1)])
    sched = RadialSchedule(levels=(-5.0, -10.0, -20.0, -30.0), angular_nodes=256,
                           extrapolation="last_level")
    exact = float(generalized_lelong_exact(ExponentSet.of([(1, 0), (0, 2)]), phi).value)
    devs = {}
    for m in (1, 2, 4, 8):
        est = generalized_lelong_numeric(phi, scaling_transform(u, m), sched).value
        devs[m] = abs(est - exact)
    ok = exact == 1.0 and all(d <= 0.05 for d in devs.values()) and devs[8] <= devs[1] + 1e-9
    _report(6, ok,
            f"deviations m=1..8: {devs[1]:.2e}, {devs[2]:.2e}, {devs[4]:.2e}, "
            f"{devs[8]:.2e} (all <= 5%, non-increasing)")


def test_acceptance_7_approximation_bounds_at_desk_scale():
    start = time.monotonic()
    sched = RadialSchedule(levels=(-10.0, -20.0, -40.0), angular_nodes=64)
    one_var_ok = True
    worst_gap = 0.0
    for p, q in [(1, 2), (1, 1), (2, 3)]:
        u = Scale(F(p, q), CoordLog(1))
        for m in range(1, 9):
            basis = basis_norms(u, m, degree_cap=14, dim=1)
            est = classical_lelong_numeric(basis, sched, dim=1).value
            alpha_min = next(a for a in range(30) if 2 * a + 2 - 2 * m * p / q > 1e-12)
            gap = abs(est - alpha_min / m)
            worst_gap = max(worst_gap, gap)
            chain = est <= p / q + 1e-6 and p / q <= est + 1 / m + 1e-6
            if gap > 1e-6 or not chain:
                one_var_ok = False
    u2 = MaxOf.of(Scale(F(2), CoordLog(1)), Scale(F(3), CoordLog(2)))
    phi2 = ExponentSet.of([(1, 0), (0, 1)])
    rep = lelong_bounds_check(u2, phi2, [1, 2, 4], degree_cap=8,
                              sched=RadialSchedule(levels=(-20.0, -40.0, -80.0),
                                                   angular_nodes=64),
                              tolerance=1e-2, dim=2)
    two_var_ok = rep.passed and all(
        abs(rec["estimate"] - (2 - 1 / m)) <= 1e-2
        for m, rec in rep.estimates_by_m.items()
    )
    elapsed = time.monotonic() - start
    _report(7, one_var_ok and two_var_ok and elapsed < 60.0,
            f"one-variable slopes exact to {worst_gap:.1e} (<= 1e-6) with the "
            f"two-sided chain for m=1..8; two-variable bounds within 1e-2; "
            f"{elapsed:.1f}s (< 60s)")


def test_acceptance_8_log_homogeneity():
    rng = random.Random(31337)
    worst = 0.0
    for _ in range(1000):
        n = rng.choice((2, 3))
        S = _random_exponent_set(rng, n)
        y = tuple(
            rng.uniform(0.05, 0.95) * complex(math.cos(t), math.sin(t))
            for t in (rng.uniform(0, 2 * math.pi) for _ in range(n))
        )
        c = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        lhs = indicator_eval(S, y)
        rhs = indicator_eval(S, tuple(abs(v) ** c for v in y)) / c
        worst = max(worst, abs(lhs - rhs))
    _report(8, worst <= 1e-12, f"1000 random rescalings, worst gap {worst:.2e} (<= 1e-12)")


def test_acceptance_9_selftest_determinism():
    cmd = [sys.executable, "-m", "lelong.cli", "selftest"]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    identical = r1.stdout == r2.stdout and len(r1.stdout) > 0
    clean = r1.returncode == 0 and r2.returncode == 0
    payload = json.loads(r1.stdout) if identical else {}
    _report(9, identical and clean and "selftest" in payload,
            f"two selftest runs, {len(r1.stdout)} bytes each, byte-identical")
