"""Field tower tests: frozen small-field oracles, axioms, table/raw agreement,
modulus generation, serialization."""

import hashlib

import pytest

from symrank import BaseField, ExtField, field_from_json, field_to_json, make_field
from symrank.gf import _Field, _digits, _exp_log_tables, _fq_is_irreducible, _pack
from helpers import (_fq_divmod, _fq_invmod, _fq_mul, frobenius_trace, get_field,
                     irreducible_by_trial_division, rand_elt, rand_unit, ref_exp_log_tables)
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
    # table-free fields: x^17 + x^3 + 1 and x^11 + x^2 + 2
    assert ExtField(BaseField(2), 17).modulus == (1, 0, 0, 1) + (0,) * 13 + (1,)
    assert ExtField(BaseField(3), 11).modulus == (2, 0, 1) + (0,) * 8 + (1,)


def _mobius(m: int) -> int:
    out, d = 1, 2
    while m > 1:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            out = -out
        d += 1
    return out


@pytest.mark.parametrize("p,e,top", [(2, 1, 8), (3, 1, 5), (2, 2, 3), (3, 2, 3)])
def test_rabin_matches_trial_division(p, e, top):
    # every monic polynomial of degree 1..top over F_(p^e), and per degree
    # Gauss's count (1/n) sum_{d | n} mu(d) q^(n/d) of the irreducible ones
    base = BaseField(p, e)
    q = base.order
    for n in range(1, top + 1):
        count = 0
        for packed in range(q**n):
            poly = _digits(packed, q, n) + [1]
            got = _fq_is_irreducible(base, poly)
            assert got == irreducible_by_trial_division(base, poly), poly
            count += got
        assert count == sum(_mobius(d) * q**(n // d)
                            for d in range(1, n + 1) if n % d == 0) // n


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


@pytest.mark.parametrize("p,e,n,tables", [(3, 1, 4, True), (3, 2, 2, True),
                                          (2, 1, 6, True), (3, 1, 5, False)])
def test_norm_is_product_of_conjugates(p, e, n, tables):
    f = ExtField(BaseField(p, e), n, use_tables=tables)
    for a in f.elements():
        want = a
        for i in range(1, n):
            want = f.mul(want, f.frobenius(a, i))
        assert f.norm(a) == want


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


@pytest.mark.parametrize("p,e,n", [(3, 1, 2), (3, 1, 3), (3, 2, 1)])
def test_odd_sub_is_add_neg_exhaustive(p, e, n):
    # F_9 = F_3[x]/(f), F_27 and F_9 = F_3[y]/(g): sub is one Zech lookup
    f = get_field(p, e, n)
    for fld in (f, f.base):
        assert all(fld.sub(a, b) == fld.add(a, fld.neg(b))
                   for a in fld.elements() for b in fld.elements())


def _digit_add(p: int, a: int, b: int, sign: int = 1) -> int:
    """Reference: base-p digit-wise a + sign * b."""
    out, place = 0, 1
    while a or b:
        a, ra = divmod(a, p)
        b, rb = divmod(b, p)
        out += (ra + sign * rb) % p * place
        place *= p
    return out


@pytest.mark.parametrize("fld", [BaseField(3, 2), BaseField(5, 2)]
                         + [make_field(p, e, n) for p, e, n in
                            [(3, 1, 4), (3, 1, 5), (5, 1, 3), (3, 2, 2)]],
                         ids=repr)
def test_zech_add_sub_neg_exhaustive(fld):
    assert fld._zech is not None
    p = fld.p
    for a in fld.elements():
        assert fld.neg(a) == _digit_add(p, 0, a, -1)
        assert fld.add(a, fld.neg(a)) == 0
        for b in fld.elements():
            assert fld.add(a, b) == _digit_add(p, a, b)
            assert fld.sub(a, b) == _digit_add(p, a, b, -1)


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
        assert tabled.add(a, b) == raw.add(a, b)
        assert tabled.sub(a, b) == raw.sub(a, b)
        assert tabled.neg(a) == raw.neg(a)
        if a:
            assert tabled.inv(a) == raw.inv(a)
            assert tabled.div(b, a) == raw.div(b, a)
        k = rng.randbelow(200)
        assert tabled.pow(a, k) == raw.pow(a, k)
        for i in range(n):
            assert tabled.frobenius(a, i) == raw.frobenius(a, i)
        assert tabled.trace(a) == raw.trace(a)
        assert tabled.norm(a) == raw.norm(a)


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)],
                         ids=["F4", "F8", "F9", "F25", "F27"])
def test_list_ops_match_add_and_div_exhaustive(p, n):
    # add_each and div_many against add and div element by element, on the
    # tabled field, the table-free field on the same modulus, and across
    # the two: zeros in the list, b = 0, a = -b (the Zech -1 entry) and
    # quotients whose log difference is negative all occur
    base = BaseField(p)
    tabled = ExtField(base, n, use_tables=True)
    raw = ExtField(base, n, use_tables=False)
    assert tabled.modulus == raw.modulus
    values = list(tabled.elements())
    nums = [a for a in values for _ in tabled.units()]
    dens = [b for _ in values for b in tabled.units()]
    assert any(tabled._log[a] < tabled._log[b] for a, b in zip(nums, dens) if a)
    for b in values:
        ref = [raw.add(a, b) for a in values]
        assert tabled.add_each(values, b) == ref
        assert raw.add_each(values, b) == ref
        assert [tabled.add(a, b) for a in values] == ref
        assert tabled.add_each([tabled.neg(b)], b) == [0]
    ref = [raw.div(a, b) for a, b in zip(nums, dens)]
    assert tabled.div_many(nums, dens) == ref
    assert raw.div_many(iter(nums), iter(dens)) == ref
    assert [tabled.div(a, b) for a, b in zip(nums, dens)] == ref


# sha256 of repr((_exp, _log)) per (p, e, n), ext then base, pinned from
# the per-element build (one product by the generator per power, the
# reference in helpers.py): every table build must reproduce them.  (2,2,8)
# is radix 4 on 16 bits, (2,1,13) an odd bit count; (3,2,3) and (2,3,4) are
# radix 9 and 8 and (5,1,4) an odd prime radix, whose moduli and tables come
# from the table-free product and inverse.
PINNED_TABLES = {
    (2, 1, 16): ("bb70e209c292345671b5312a2b3dfc0dfb3a05447aaa1ffeb30b55af10f6b78a",
                 "d2143c138ab652a72fd3894b4c1e83a0737b1e2ea6184ece8fa8a107a972700c"),
    (2, 1, 10): ("35723b04126939d0f90751e53fcd7414e7b508fbb6dd64ea09617a9efc8380f6",
                 "d2143c138ab652a72fd3894b4c1e83a0737b1e2ea6184ece8fa8a107a972700c"),
    (3, 1, 6): ("e6eb57701c713565dc76390171efb5ddecf9bd383b8087c2b08369f2c87d173c",
                "a055626b03bb1d48cce951db8f80a84944f8da667962ab75e1aa5700e2e7ba6d"),
    (2, 2, 4): ("b4a7ab3ef5aba280d3e4b7200dffab4a61fbaa4f682eccbf8ad7faafaf3d8b6a",
                "83da1267f270ceb0f9c42ac87a22c38655b385e78499dad0a2bcb16b19691172"),
    (2, 2, 8): ("e4ebaa54bd32b0d3b6a0e4936c0cc1603b88f3064325241da1060895a8dc9edd",
                "83da1267f270ceb0f9c42ac87a22c38655b385e78499dad0a2bcb16b19691172"),
    (2, 1, 13): ("161964eb83f7abd977d6adf9752d87734f452858c6828ed38664ab272a439d5f",
                 "d2143c138ab652a72fd3894b4c1e83a0737b1e2ea6184ece8fa8a107a972700c"),
    (3, 2, 3): ("1c9988578c0bd33d01dbfc3118638ea4ff1f78d6355d074376cb71dbb338afcb",
                "57794f2d59131be2471c6878636e75e09fa1f034c2209f3f1a2e2cf3a70dac55"),
    (2, 3, 4): ("e62ec1d3b1353425a34fa9f06e8638289c80f4232b9bd18bc7880af38b67ff0d",
                "35b4832c03402ff6c5a2b29f84709c0308ffc5f66c5cf50d9158a87346a0bf7a"),
    (5, 1, 4): ("1d587d47e52dc7dfb87a096eb3c03d40a7c2cc9465e577293e186f6b500ae2f5",
                "a89e9abeb6290485d176979553c182fc87590d4402b7ac4478c9edf3aae30dea"),
}


@pytest.mark.parametrize("p,e,n", sorted(PINNED_TABLES))
def test_exp_log_tables_pinned(p, e, n):
    f = get_field(p, e, n)
    got = tuple(hashlib.sha256(repr((fld._exp, fld._log)).encode()).hexdigest()
                for fld in (f, f.base))
    assert got == PINNED_TABLES[(p, e, n)]


def test_forced_tables_past_limit_pinned():
    # get_field never forces tables, and use_tables=True is the only way
    # past TABLE_LIMIT: the 2^17 tables, pinned like PINNED_TABLES
    f = ExtField(BaseField(2), 17, use_tables=True)
    got = hashlib.sha256(repr((f._exp, f._log)).encode()).hexdigest()
    assert got == "11c1952e56051662754f6f375cc450f68a2c6a27957dac27c4bca8c11f1546f1"


def test_table_build_matches_per_element_reference():
    # radix 2 at every bit count 1..17 (so every truncated last block), and
    # radix 4 and 8 at small n, against one product per element
    f2 = BaseField(2)
    fields = ([ExtField(f2, d, use_tables=False) for d in range(1, 18)]
              + [ExtField(BaseField(2, e), n, use_tables=False)
                 for e, top in [(2, 5), (3, 3)] for n in range(1, top + 1)])
    for fld in fields:
        exp, log, zech = _exp_log_tables(fld.order, fld._mul_raw, 2)
        assert (exp, log) == ref_exp_log_tables(fld.order, fld._mul_raw), fld
        assert zech is None


def test_carryless_mul_matches_polynomial_product():
    f2 = BaseField(2)
    fields = ([ExtField(f2, n, use_tables=False) for n in range(1, 18)]
              + [BaseField(2, e) for e in range(2, 6)])
    rng = RngStream(17)
    for fld in fields:
        d = fld._degree
        for _ in range(200):
            a, b = rand_elt(fld, rng), rand_elt(fld, rng)
            prod = _fq_mul(f2, _digits(a, 2, d), _digits(b, 2, d))
            want = _pack(_fq_divmod(f2, prod, fld.modulus)[1], 2)
            assert fld._mul_raw(a, b) == want


def _prime_radix_rings():
    """Odd-p instances whose packed digits are base-p: table-free extensions
    of F_p, F_(p^e) itself and rings F_p[x]/(m) of a reducible m."""
    out = [ExtField(BaseField(p), n, use_tables=False)
           for p, top in [(3, 6), (5, 4), (7, 3)] for n in range(1, top + 1)]
    out.append(ExtField(BaseField(3), 11, use_tables=False))
    out += [BaseField(p, e) for p, e in [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)]]
    # (x^2 + 1)(x^2 + x + 2) over F_3, x(x + 1) over F_5, (x - 1)^3 over F_7
    out += [_Field(p, BaseField(p), m, use_tables=False)
            for p, m in [(3, (2, 1, 0, 1, 1)), (5, (0, 1, 1)), (7, (6, 3, 4, 1))]]
    return out


def _coef_field_rings():
    """Instances over a coefficient field F_(p^e), e > 1, radix 4, 8, 9 and
    25: table-free extensions and rings F_(p^e)[x]/(m) of a reducible m."""
    out = [ExtField(BaseField(p, e), n, use_tables=False)
           for p, e, top in [(2, 2, 4), (2, 3, 3), (3, 2, 3), (5, 2, 2)]
           for n in range(1, top + 1)]
    out += [ExtField(BaseField(2, 2), 9, use_tables=False),
            ExtField(BaseField(3, 2), 6, use_tables=False)]
    # over F_4 = F_2[w]/(w^2 + w + 1), w = 2: (x + w)^2 = x^2 + (w + 1);
    # over F_9 = F_3[y]/(y^2 + 1), y = 3: x(x + 1)(x + y) = x^3 + (y + 1)x^2 + yx
    out += [_Field(2, BaseField(2, 2), (3, 0, 1), use_tables=False),
            _Field(3, BaseField(3, 2), (0, 3, 4, 1), use_tables=False)]
    return out


def test_prime_radix_mul_matches_polynomial_product():
    # the twin of the carry-less test for every radix above 2: exhaustive
    # up to 81 elements, zero operands and 300 random pairs above that
    rng = RngStream(23)
    for fld in _prime_radix_rings() + _coef_field_rings():
        r, d, base = fld._radix, fld._degree, fld._coef
        assert r > 2

        def want(a, b):
            prod = _fq_mul(base, _digits(a, r, d), _digits(b, r, d))
            return _pack(_fq_divmod(base, prod, fld.modulus)[1], r)

        if fld.order <= 81:
            pairs = [(a, b) for a in range(fld.order) for b in range(fld.order)]
        else:
            pairs = [(0, 0), (0, fld.order - 1), (fld.order - 1, 0)]
            pairs += [(rand_elt(fld, rng), rand_elt(fld, rng)) for _ in range(300)]
        for a, b in pairs:
            assert fld._mul_raw(a, b) == want(a, b), (fld, a, b)


def test_table_free_f2_inverse_matches_polynomial_euclid():
    f2 = BaseField(2)
    fields = ([ExtField(f2, n, use_tables=False) for n in range(1, 18)]
              + [BaseField(2, e) for e in range(2, 6)])
    rng = RngStream(19)
    for fld in fields:
        d = fld._degree
        for _ in range(100):
            a = rand_unit(fld, rng)
            want = _pack(_fq_invmod(f2, _digits(a, 2, d), fld.modulus), 2)
            assert fld._inv_raw(a) == want
            assert fld.mul(a, fld.inv(a)) == 1


def test_radix_above_2_inverse_matches_polynomial_euclid():
    # the odd and radix-p^e twin of the F_2 test at radix 3, 5, 7, 4, 8, 9
    # and 25: every nonzero element up to 729, 100 random ones above; on a
    # reducible ring the non-units raise ZeroDivisionError like the oracle
    rng = RngStream(29)
    for fld in _prime_radix_rings() + _coef_field_rings():
        r, d, base = fld._radix, fld._degree, fld._coef
        if fld.order <= 729:
            units = range(1, fld.order)
        else:
            units = [rand_unit(fld, rng) for _ in range(100)]
        non_units = 0
        for a in units:
            try:
                want = _pack(_fq_invmod(base, _digits(a, r, d), fld.modulus), r)
            except ZeroDivisionError:
                non_units += 1
                with pytest.raises(ZeroDivisionError):
                    fld._inv_raw(a)
                continue
            got = fld._inv_raw(a)
            assert got == want, (fld, a)
            assert fld._mul_raw(a, got) == 1
        assert (non_units > 0) == (type(fld) is _Field), fld

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


@pytest.mark.parametrize("p,e,n", [(2, 1, 8), (3, 1, 5), (2, 2, 5), (3, 2, 4), (5, 1, 4)])
def test_linear_trace_matches_frobenius_sum_exhaustive(p, e, n):
    f = get_field(p, e, n)
    assert all(f.trace(a) == frobenius_trace(f, a) for a in f.elements())


@pytest.mark.parametrize("p,n", [(2, 17), (3, 11)])
def test_linear_trace_matches_frobenius_sum_table_free(p, n):
    f = get_field(p, 1, n)
    assert f._exp is None
    rng = RngStream(61)
    for _ in range(2000):
        a = rand_elt(f, rng)
        assert f.trace(a) == frobenius_trace(f, a)


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
    # g follows f's rule: a coefficient outside 0..p-1 is refused, never
    # reduced to the valid (1, 1, 1)
    for g in ((1, 3, 1), (-1, 1, 1)):
        with pytest.raises(ValueError):
            BaseField(2, 2, modulus=g)
    with pytest.raises(ValueError):
        ExtField(BaseField(2), 2, modulus=(1, 1.0, 1))  # not an int
    for cs in ([True, 0], [1.0, 0]):
        with pytest.raises(ValueError):
            BaseField(2, 2).from_coeffs(cs)  # not an int
    base = BaseField(2)
    with pytest.raises(ValueError):
        ExtField(base, 2, modulus=(1, 0, 1))  # reducible over F_2
    with pytest.raises(ValueError):
        ExtField(base, 0)
    f9 = BaseField(3, 2)
    with pytest.raises(ValueError):
        # x^2 + x + 1 = (x - 1)^2 over F_9: reducible.
        ExtField(f9, 2, modulus=(1, 1, 1))
    # (x^2 + 1)(x^2 + x + 2) over F_3 has x^(q^4) = x; only its
    # x^(q^2) - x, a non-unit, shows it reducible
    with pytest.raises(ValueError):
        BaseField(3, 4, modulus=(2, 1, 0, 1, 1))
    with pytest.raises(ValueError):
        ExtField(BaseField(3), 4, modulus=(2, 1, 0, 1, 1))


def test_base_field_refuses_q_past_table_limit(monkeypatch):
    # F_q always builds its tables; the refusal comes before any table
    def no_tables(*args):
        raise AssertionError("tables built for a refused base field")
    monkeypatch.setattr("symrank.gf._exp_log_tables", no_tables)
    for p, e in [(2, 17), (2, 28), (3, 11), (1000003, 1), (257, 2)]:
        with pytest.raises(ValueError, match="exceeds the base field limit"):
            BaseField(p, e)
    with pytest.raises(ValueError, match="exceeds the base field limit"):
        make_field(2, 17, 1)
    monkeypatch.undo()
    assert BaseField(2, 16).q == ExtField.TABLE_LIMIT


def test_make_field_explicit_moduli():
    f = make_field(2, 2, 2, g=(1, 1, 1), f=(2, 1, 1))
    assert f.modulus == (2, 1, 1)
    assert f.base.modulus == (1, 1, 1)
    assert f.order == 16
