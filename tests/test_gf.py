"""Field tower tests: frozen small-field oracles, axioms, table/raw agreement,
modulus generation, serialization."""

import pytest

from symrank import BaseField, ExtField, field_from_json, field_to_json, make_field
from helpers import get_field, rand_elt, rand_unit
from symrank.channel import RngStream


# Hand-computed oracles for F_4 = F_2[x]/(x^2+x+1), elements packed 0..3
# with 2 = x, 3 = x+1.
F4_MUL = {(2, 2): 3, (2, 3): 1, (3, 3): 2}
F4_INV = {1: 1, 2: 3, 3: 2}
# Tr: F_4 -> F_2, Tr(a) = a + a^2.
F4_TRACE = {0: 0, 1: 0, 2: 1, 3: 1}


def test_modulus_autogeneration_frozen():
    assert BaseField(2, 2).modulus == (1, 1, 1)
    assert BaseField(3, 2).modulus == (1, 0, 1)
    assert BaseField(5, 2).modulus == (2, 0, 1)
    assert ExtField(BaseField(2), 2).modulus == (1, 1, 1)
    assert ExtField(BaseField(2), 4).modulus == (1, 1, 0, 0, 1)
    assert ExtField(BaseField(3), 2).modulus == (1, 0, 1)
    # Quadratic extension of F_4: x^2 + x + w with w = packed 2.
    assert ExtField(BaseField(2, 2), 2).modulus == (2, 1, 1)
    assert BaseField(2, 3).modulus == (1, 1, 0, 1)
    assert BaseField(2, 4).modulus == (1, 1, 0, 0, 1)
    assert BaseField(3, 3).modulus == (1, 2, 0, 1)
    assert BaseField(5, 3).modulus == (1, 1, 0, 1)
    assert BaseField(7, 2).modulus == (1, 0, 1)
    # over F_9 = F_3[y]/(y^2 + 1): x^2 + (y + 1) and x^3 + x + y
    f9 = BaseField(3, 2)
    assert ExtField(f9, 2).modulus == (4, 0, 1)
    assert ExtField(f9, 3).modulus == (3, 1, 0, 1)


def test_f4_oracles():
    f4 = BaseField(2, 2)
    for (a, b), c in F4_MUL.items():
        assert f4.mul(a, b) == c
        assert f4.mul(b, a) == c
    for a, b in F4_INV.items():
        assert f4.inv(a) == b
    ext = ExtField(BaseField(2), 2)
    for a, t in F4_TRACE.items():
        assert ext.trace(a) == t


def test_f9_norm_is_fourth_power():
    # N: F_9 -> F_3 is a |-> a^(q+1) = a^4.
    f = get_field(3, 1, 2)
    for a in range(9):
        assert f.norm(a) == f.pow(a, 4)
    assert f.norm(4) == 2


@pytest.mark.parametrize("p,e,n", [(2, 1, 4), (3, 1, 3), (2, 2, 2), (3, 2, 2)])
def test_field_axioms_exhaustive(p, e, n):
    f = get_field(p, e, n)
    elems = list(f.elements())
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a in elems:
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(a, b) == f.add(a, f.neg(b))
            if b:
                assert f.mul(f.div(a, b), b) == a
    for a in elems:
        for b in elems:
            for c in elems:
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,e,n", [(2, 1, 8), (3, 1, 5), (2, 2, 4)])
def test_field_axioms_sampled(p, e, n):
    f = get_field(p, e, n)
    rng = RngStream(7)
    for _ in range(2000):
        a, b, c = (rand_elt(f, rng) for _ in range(3))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        if a:
            assert f.mul(a, f.inv(a)) == 1
            assert f.div(b, a) == f.mul(b, f.inv(a))


@pytest.mark.parametrize("p,e,n", [(3, 1, 4), (3, 2, 2), (2, 2, 3)])
def test_tables_vs_raw_agree(p, e, n):
    base = BaseField(p, e)
    tabled = ExtField(base, n, use_tables=True)
    raw = ExtField(base, n, use_tables=False)
    assert tabled.modulus == raw.modulus
    rng = RngStream(11)
    for _ in range(300):
        a = rand_elt(tabled, rng)
        b = rand_elt(tabled, rng)
        assert tabled.mul(a, b) == raw.mul(a, b)
        if a:
            assert tabled.inv(a) == raw.inv(a)
        k = rng.randbelow(200)
        assert tabled.pow(a, k) == raw.pow(a, k)
        for i in range(n):
            assert tabled.frobenius(a, i) == raw.frobenius(a, i)
        assert tabled.trace(a) == raw.trace(a)
        assert tabled.norm(a) == raw.norm(a)


def test_large_field_runs_without_tables():
    f = make_field(2, 1, 17)
    assert f.order == 2**17
    assert f._exp is None
    rng = RngStream(3)
    for _ in range(50):
        a = rand_unit(f, rng)
        assert f.mul(a, f.inv(a)) == 1
        assert f.frobenius(a, 17) == a


@pytest.mark.parametrize("p,e,n", [(2, 1, 4), (3, 1, 3), (5, 1, 2), (2, 2, 2)])
def test_frobenius_is_field_automorphism(p, e, n):
    f = get_field(p, e, n)
    q = f.q
    rng = RngStream(5)
    for _ in range(200):
        a = rand_elt(f, rng)
        b = rand_elt(f, rng)
        i = rng.randbelow(2 * n)
        assert f.frobenius(a, i) == f.pow(a, q ** (i % n))
        assert f.frobenius(f.add(a, b), i) == f.add(f.frobenius(a, i), f.frobenius(b, i))
        assert f.frobenius(f.mul(a, b), i) == f.mul(f.frobenius(a, i), f.frobenius(b, i))
        assert f.frobenius(a, n) == a
    # Constants (packed < q) are fixed points.
    for c in range(q):
        assert f.frobenius(c, 1) == c


@pytest.mark.parametrize("p,e,n", [(2, 1, 4), (3, 1, 2), (2, 2, 2)])
def test_trace_norm_properties(p, e, n):
    f = get_field(p, e, n)
    q = f.q
    rng = RngStream(13)
    traces = set()
    for a in f.elements():
        t = f.trace(a)
        assert t < q
        traces.add(t)
        nm = f.norm(a)
        assert nm < q
        assert (nm == 0) == (a == 0)
    assert traces == set(range(q))  # trace is onto
    for _ in range(200):
        a, b = rand_elt(f, rng), rand_elt(f, rng)
        assert f.trace(f.add(a, b)) == f.base.add(f.trace(a), f.trace(b))
        assert f.norm(f.mul(a, b)) == f.base.mul(f.norm(a), f.norm(b))
        assert f.trace(f.frobenius(a, 1)) == f.trace(a)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2)])
def test_is_square_sqrt_odd_char(p, e):
    f = BaseField(p, e)
    squares = {f.mul(a, a) for a in f.elements()}
    for a in f.elements():
        assert f.is_square(a) == (a in squares)
        if a in squares:
            r = f.sqrt(a)
            assert f.mul(r, r) == a
        else:
            with pytest.raises(ValueError):
                f.sqrt(a)


def test_sqrt_char2_always_exists():
    for f in (BaseField(2), BaseField(2, 2), BaseField(2, 4)):
        for a in f.elements():
            assert f.is_square(a)
            r = f.sqrt(a)
            assert f.mul(r, r) == a


@pytest.mark.parametrize("p,e,n", [(2, 1, 6), (3, 1, 4), (2, 2, 3)])
def test_ext_is_square_matches_exhaustive(p, e, n):
    f = get_field(p, e, n)
    squares = {f.mul(a, a) for a in f.elements()}
    for a in f.elements():
        assert f.is_square(a) == (a in squares or f.base.p == 2)


def test_coeff_packing_roundtrip():
    f = get_field(3, 2, 2)
    for a in f.elements():
        cs = f.coeffs(a)
        assert len(cs) == 2
        assert all(c < 9 for c in cs)
        assert f.from_coeffs(cs) == a
    base = f.base
    for a in base.elements():
        assert base.from_coeffs(base.coeffs(a)) == a


def test_field_json_roundtrip():
    for p, e, n in [(2, 1, 4), (3, 2, 2), (5, 1, 2)]:
        f = get_field(p, e, n)
        blob = field_to_json(f)
        g = field_from_json(blob)
        assert g.order == f.order
        assert g.modulus == f.modulus
        assert g.base.modulus == f.base.modulus
        rng = RngStream(1)
        for _ in range(50):
            a, b = rand_elt(f, rng), rand_elt(f, rng)
            assert g.mul(a, b) == f.mul(a, b)


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        BaseField(4)  # not prime
    with pytest.raises(ValueError):
        BaseField(2, 2, modulus=(1, 0, 1))  # x^2+1 = (x+1)^2 over F_2
    with pytest.raises(ValueError):
        BaseField(2, 2, modulus=(1, 1))  # wrong degree
    base = BaseField(2)
    with pytest.raises(ValueError):
        ExtField(base, 2, modulus=(1, 0, 1))  # reducible over F_2
    with pytest.raises(ValueError):
        ExtField(base, 0)
    f9 = BaseField(3, 2)
    with pytest.raises(ValueError):
        # x^2 + x + 1 = (x - 1)^2 over F_9: reducible.
        ExtField(f9, 2, modulus=(1, 1, 1))


def test_make_field_explicit_moduli():
    f = make_field(2, 2, 2, g=(1, 1, 1), f=(2, 1, 1))
    assert f.modulus == (2, 1, 1)
    assert f.base.modulus == (1, 1, 1)
    assert f.order == 16
