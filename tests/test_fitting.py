"""Integer-relation fitting of closed forms from numeric values."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from oddeuler import identities
from oddeuler.identities import _fit_basis, _pslq, fit_closed_form, fit_value
from oddeuler.numerics import constant, ln2
from oddeuler.summation import parse_sumspec
from oddeuler.zeta_algebra import ZetaExpr, ZetaMonomial, evaluate, format_expr, parse_expr


def test_fit_weight3_base_sum():
    got = fit_closed_form(parse_sumspec("h1/k^2"), 3, max_den=16)
    assert got == parse_expr("7/4*z3")


def test_fit_weight6_product_sum_coefficients():
    got = fit_closed_form(parse_sumspec("h1*h2/k^3"), 6, max_den=256)
    assert got == parse_expr("49/8*z3^2 - 27/16*z2^3")


def test_fit_no_closed_form():
    assert fit_closed_form(parse_sumspec("h1/k^3"), 4) is None


def test_fit_mixed_with_ln2():
    with mp.workdps(40):
        value = (3 * constant(2, 40)).div(2, 40) - 2 * ln2(40)
        got = fit_value(value, 2, include_ln2=True, max_den=16)
        assert got == parse_expr("3/2*z2 - 2*ln2")


def test_fit_rejects_oversized_denominators():
    with mp.workdps(40):
        value = constant(3, 40).div(512, 40)
        assert fit_value(value, 3, max_den=256) is None


def test_fit_empty_basis_rejected():
    with pytest.raises(ValueError, match="basis"):
        fit_value(mp.mpf(1), 1)


def test_fit_basis_contents():
    basis5 = _fit_basis(5, include_ln2=False)
    texts = {m.text() for m in basis5}
    assert texts == {"z5", "z2*z3"}
    basis5_ln2 = _fit_basis(5, include_ln2=True)
    texts = {m.text() for m in basis5_ln2}
    assert {"z5", "z2*z3", "ln2", "z3", "z2", "z2^2"} <= texts


def _reference_basis(weight, include_ln2):
    # the basis as a recursion over odd parts, each branch completed by
    # zeta(2)^(rest/2) when the rest is even; PSLQ's answer depends on
    # the order, so _fit_basis must return this exact list
    odds = list(range(3, weight + 1, 2))
    found = []

    def parts_into(remaining, max_odd, chosen):
        if remaining % 2 == 0:
            c2 = dict(chosen)
            if remaining:
                c2[2] = remaining // 2
            found.append(c2)
        for n in odds:
            if n <= min(remaining, max_odd):
                cn = dict(chosen)
                cn[n] = cn.get(n, 0) + 1
                parts_into(remaining - n, n, cn)

    parts_into(weight, weight, {})
    basis = sorted({ZetaMonomial.from_parts(c) for c in found},
                   key=lambda mo: (-mo.weight, mo.sort_key()))
    if include_ln2:
        for j in range(2, weight):
            basis.append(ZetaMonomial.from_parts({2: j // 2} if j % 2 == 0 else {j: 1}))
        basis.append(ZetaMonomial.from_parts({1: 1}))
    seen = []
    for mo in basis:
        if mo not in seen:
            seen.append(mo)
    return seen


@pytest.mark.parametrize("include_ln2", [False, True])
@pytest.mark.parametrize("weight", range(1, 16))
def test_fit_basis_matches_the_recursion_in_order(weight, include_ln2):
    assert _fit_basis(weight, include_ln2) == _reference_basis(weight, include_ln2)


def test_round_trip_twenty_random_expressions():
    rng = random.Random(20240817)
    done = 0
    while done < 20:
        weight = rng.choice([2, 3, 4, 5, 6, 7])
        basis = _fit_basis(weight, include_ln2=False)
        terms = []
        for mono in basis:
            if rng.random() < 0.6:
                num = rng.randint(-40, 40)
                den = rng.choice([1, 2, 4, 8, 16, 32, 64])
                if num:
                    terms.append((mono, Fraction(num, den)))
        if not terms:
            continue
        expr = ZetaExpr.from_terms(terms)
        with mp.workdps(40):
            value = evaluate(expr.terms, 40)
        got = fit_value(value, weight, max_den=64, digits=40)
        assert got == expr, format_expr(expr)
        done += 1
    assert done == 20


@pytest.fixture
def roots(monkeypatch):
    """The fixed-point square roots each PSLQ takes, by side: equal lists
    mean the same number of steps with the same rotation norms."""
    seen = {"mpmath": [], "port": []}
    for module, side in ((mp.identification, "mpmath"), (identities, "port")):
        def spy(*args, real=module.sqrt_fixed, out=seen[side]):
            out.append(real(*args))
            return out[-1]
        monkeypatch.setattr(module, "sqrt_fixed", spy)
    return seen


def _both(x, roots, **kw):
    # (result, roots) of mp.pslq and _pslq on x, at mpmath's working precision
    for found in roots.values():
        found.clear()
    want, got = mp.pslq(x, **kw), _pslq(x, prec=mp.mp.prec, **kw)
    assert got == want and roots["port"] == roots["mpmath"], (len(x), kw)
    return got, roots["port"]


def _pslq_grid():
    # seeded vectors of square roots, half of them with a relation of small
    # coefficients planted in the first entry; tol, maxcoeff and maxsteps vary
    rng = random.Random(2)
    for _ in range(100):
        n, prec = rng.randint(2, 14), rng.randint(53, 340)
        with mp.workprec(prec):
            x = [mp.sqrt(rng.randint(2, 99)) * rng.choice((1, -1)) for _ in range(n)]
            if rng.random() < 0.5:
                x[0] = mp.fsum(rng.randint(-9, 9) * v for v in x[1:]) or x[0]
        kw = {}
        if rng.random() < 0.3:
            kw["tol"] = mp.mpf(2) ** -rng.randint(20, prec + 40)
        if rng.random() < 0.5:
            kw["maxcoeff"] = rng.choice((10, 10 ** 6, 10 ** 14))
        if rng.random() < 0.5:
            kw["maxsteps"] = rng.choice((0, 3, 400))
        yield prec, x, kw


def _diagonals():
    # seeded (gs, H, prec) at small and large precisions, whose rows tie
    # exactly (a row copied to a later index), nearly tie (all near one
    # target), are zero, or lie below 2^64, where floors tie although the
    # products differ; only H's diagonal is read
    rng = random.Random(5)
    for _ in range(3000):
        n, prec = rng.randint(1, 10), rng.choice((rng.randint(1, 64), rng.randint(400, 1200)))
        target = rng.getrandbits(rng.choice((5, 40, 70, 300)))
        gs, diag = [], []
        for i in range(n):
            kind = rng.random()
            if kind < 0.2 and gs:
                j = rng.randrange(i)
                gs.append(gs[j] << prec * (i - j))
                diag.append(diag[j])
                continue
            gi = rng.getrandbits(prec * i + rng.randint(1, 8)) | 1
            h = ((target << prec * i) // gi + rng.randint(-2, 2)) * rng.choice((1, -1))
            gs.append(gi)
            diag.append(h if kind > 0.3 else 0)
        yield gs, [[0] * i + [h] for i, h in enumerate(diag)], prec


def _estimates(gs, H, prec):
    # each row's float log2 of g^(i+1) |H_ii| >> prec*i, worked out afresh
    return [math.log2(gi) - prec * i + math.log2(abs(H[i][i])) if H[i][i] else -math.inf
            for i, gi in enumerate(gs)]


def test_row_choice_is_the_first_largest_of_all_rows_multiplied_out():
    # mpmath's choice: every g^(i+1) |H_ii| >> prec*i formed, the first largest
    for gs, H, prec in _diagonals():
        sz = [gi * abs(H[i][i]) >> prec * i for i, gi in enumerate(gs)]
        est = _estimates(gs, H, prec)
        assert identities._first_largest(gs, est, H, prec) == sz.index(max(sz)), (gs, H, prec)


def _planted(n, digits, seed):
    # n random reals at digits, x[0] = sum(c_i x_i) / 4480 with integer c_i
    # up to 3,000 in size, and the relation (4480, -c_1, ..., -c_(n-1))
    rng = random.Random(seed)
    with mp.workdps(digits):
        bits = mp.mp.prec
        x = [mp.mpf(rng.getrandbits(bits)) / 2 ** bits for _ in range(n)]
        c = [rng.randint(-3000, 3000) for _ in range(n - 1)]
        x[0] = mp.fsum(ci * xi for ci, xi in zip(c, x[1:])) / 4480
    return x, [4480] + [-ci for ci in c]


def test_row_choice_estimates_stay_equal_to_a_fresh_computation(monkeypatch):
    # _pslq refreshes only the estimates of the two rows a step moves; on
    # every step the row choice must still see each row's own estimate
    steps = []

    def spy(gs, est, H, prec, real=identities._first_largest):
        assert est == _estimates(gs, H, prec), (len(steps), est)
        steps.append(len(est))
        return real(gs, est, H, prec)

    monkeypatch.setattr(identities, "_first_largest", spy)
    for prec, x, kw in _pslq_grid():
        _pslq(x, prec=prec, **kw)
    grid = len(steps)
    x, rel = _planted(14, 90, 14)
    with mp.workdps(90):
        got = _pslq(x, prec=mp.mp.prec, maxcoeff=10 ** 14, maxsteps=20000)
    assert got in (rel, [-c for c in rel])
    assert grid > 2000 and len(steps) - grid > 1000, (grid, len(steps))


def test_pslq_matches_mpmath_on_a_seeded_grid(roots):
    found = 0
    for prec, x, kw in _pslq_grid():
        with mp.workprec(prec):
            found += _both(x, roots, **kw)[0] is not None
    assert 40 <= found <= 60  # both outcomes are well covered


def test_pslq_stops_on_exhausted_precision(roots):
    # a tol far below the working precision: the rotation's norm t0 reaches 0
    with mp.workprec(53):
        rel, taken = _both([mp.sqrt(2), mp.mpf(2), mp.sqrt(5)], roots, tol=mp.mpf(2) ** -110,
                           maxcoeff=10 ** 30, maxsteps=500)
    assert rel is None and taken[-1] == 0


def test_pslq_zero_divisor_and_early_exits_match_mpmath(roots):
    with mp.workprec(76):  # a zero diagonal entry ends a reduction row early
        assert _both([mp.sqrt(5)] * 2, roots, tol=mp.mpf(2) ** -75, maxcoeff=10 ** 14,
                     maxsteps=500)[0] == [1, -1]
    with mp.workprec(53):
        # below tol / 100 (about 1.8e-14 here): None before any square root
        assert _both([mp.mpf(1), mp.mpf("1e-14")], roots) == (None, [])
        for bad in ([mp.mpf(1), mp.mpf(0)], [mp.mpf(1)]):
            with pytest.raises(ValueError) as want:
                mp.pslq(bad)
            with pytest.raises(ValueError, match=str(want.value)):
                _pslq(bad, prec=mp.mp.prec)
        with pytest.raises(ValueError, match="resolution"):  # mpmath: AssertionError
            _pslq([mp.mpf(1), mp.sqrt(2)], prec=mp.mp.prec, tol=mp.mpf(2) ** -200)
    with mp.workprec(40), pytest.raises(ValueError, match="prec cannot be less than 53"):
        _pslq([mp.mpf(1), mp.sqrt(2)], prec=mp.mp.prec)


def test_sqrt_fixed_is_mpmaths_and_not_math_isqrt():
    # identities.sqrt_fixed ports mpmath's isqrt_fast-based sqrt_fixed, which
    # may be one unit below floor(sqrt): near-perfect squares show it, and
    # PSLQ's steps follow its values, so the port must match them all
    rng = random.Random(6)
    low = 0
    for _ in range(3000):
        bits = rng.choice((rng.randint(1, 200), rng.randint(200, 900), rng.randint(900, 6000)))
        r = rng.getrandbits(bits) | 1
        x = rng.choice((rng.getrandbits(2 * bits), r * r, r * r - 1, r * r + 1, (r + 1) ** 2 - 1))
        prec = rng.randint(0, 400)
        got = identities.sqrt_fixed(x, prec)
        assert got == mp.libmp.sqrt_fixed(x, prec), (x, prec)
        low += got != math.isqrt(x << prec)
    assert low > 0


def test_pslq_matches_mpmath_on_a_long_planted_run(roots):
    # the seeded grid's relations have coefficients up to 9 and end within
    # a few steps; this one has coefficients up to 4,480 and takes over 1,000
    x, rel = _planted(14, 90, 14)
    with mp.workdps(90):
        got, taken = _both(x, roots, maxcoeff=10 ** 14, maxsteps=20000)
    assert got in (rel, [-c for c in rel]) and len(taken) > 1000, len(taken)


def test_a_reduction_factor_is_zero_wherever_its_division_is_skipped():
    # _pslq skips mpmath's t = round_fixed((h << prec) // d, prec) where
    # 2|h| < |d|; at the edges 2|h| = |d| - 1, |d|, |d| + 1, both signs
    rng = random.Random(7)
    skipped = 0
    for _ in range(2000):
        prec = rng.randint(53, 2000)
        h = rng.getrandbits(rng.randint(1, prec + 64)) + 1
        for d in (2 * h + 1, 2 * h, 2 * h - 1, rng.getrandbits(rng.randint(1, prec + 64)) + 1):
            for hs, ds in ((h, d), (-h, d), (h, -d), (-h, -d)):
                t = mp.identification.round_fixed((hs << prec) // ds, prec)
                skip = 2 * abs(hs) < abs(ds)
                assert t == 0 or not skip, (hs, ds, prec)
                assert t != 0 or d != 2 * h - 1, (hs, ds, prec)  # the rule is tight
                skipped += skip
    assert skipped > 8000


def test_the_norm_threshold_is_mpmaths_stop_test():
    # mpmath stops at ((1 << 2p) // R >> p) // 100 >= maxcoeff, R the largest
    # |H_ij| (at R = 0 always); _pslq stops at R <= (1 << p) // (100 maxcoeff)
    rng = random.Random(8)
    for maxcoeff in (10, 1000, 10 ** 6, 10 ** 14):
        for _ in range(300):
            prec = rng.randint(53, 2000) + 60
            small = (1 << prec) // (100 * maxcoeff)
            for R in (0, small - 1, small, small + 1, rng.getrandbits(rng.randint(1, prec))):
                stop = not R or ((1 << 2 * prec) // R >> prec) // 100 >= maxcoeff
                assert (R <= small) == stop, (R, maxcoeff, prec)
