"""Linearized polynomial tests: ring structure, division, adjoints,
interpolation, and the matrix representations."""

import pytest

from symrank import (
    NEG_INF,
    Matrix,
    QPoly,
    endo_matrix,
    interpolate,
    matrix_of,
    matrix_to_qpoly,
    qpoly_rank,
    select_twist,
    trace_form,
    vector_form,
)
from helpers import get_field, get_setup, rand_elt, rand_nonzero_qpoly, rand_qpoly, rand_unit
from symrank.channel import RngStream, random_matrix


def test_constructor_folds_high_indices():
    f = get_field(2, 1, 4)
    # X^{q^4} = X and X^{q^5} = X^q: indices fold mod n, coefficients add
    p = QPoly(f, [3, 0, 0, 0, 5])
    assert p == QPoly(f, [f.add(3, 5)])
    q = QPoly(f, [0, 1, 0, 0, 0, 1])
    assert q == QPoly(f, [0, 0])
    assert q.is_zero()


def test_q_degree():
    f = get_field(2, 1, 4)
    assert QPoly.zero(f).q_degree == NEG_INF
    assert QPoly.zero(f).q_degree < 0
    assert QPoly.x(f).q_degree == 0
    assert QPoly.monomial(f, 3).q_degree == 3
    assert QPoly(f, [1, 0, 7, 0]).q_degree == 2


def test_evaluate_is_semilinear():
    f = get_field(3, 1, 4)
    rng = RngStream(5)
    for _ in range(100):
        p = rand_qpoly(f, rng)
        a, b = rand_elt(f, rng), rand_elt(f, rng)
        c = rng.randbelow(f.q)  # constants packed below q form the F_q line
        assert p.evaluate(f.add(a, b)) == f.add(p.evaluate(a), p.evaluate(b))
        assert p.evaluate(f.mul(c, a)) == f.mul(c, p.evaluate(a))
    assert QPoly.x(f).evaluate(7) == 7
    assert QPoly.monomial(f, 1).evaluate(7) == f.frobenius(7, 1)


def test_compose_matches_pointwise():
    f = get_field(2, 1, 4)
    rng = RngStream(7)
    for _ in range(40):
        p, q = rand_qpoly(f, rng), rand_qpoly(f, rng)
        comp = p.compose(q)
        for _ in range(6):
            x = rand_elt(f, rng)
            assert comp.evaluate(x) == p.evaluate(q.evaluate(x))


def test_compose_monomial_agrees_with_compose():
    f = get_field(3, 1, 3)
    rng = RngStream(9)
    for s in range(6):
        p = rand_qpoly(f, rng)
        assert p.compose_monomial(s) == p.compose(QPoly.monomial(f, s))


def test_compose_associative_noncommutative():
    f = get_field(2, 1, 6)
    rng = RngStream(11)
    for _ in range(25):
        a, b, c = (rand_qpoly(f, rng) for _ in range(3))
        assert a.compose(b).compose(c) == a.compose(b.compose(c))
        assert a.compose(b + c) == a.compose(b) + a.compose(c)


def test_left_divide_exact_reconstruction():
    f = get_field(2, 1, 8)
    rng = RngStream(13)
    for _ in range(60):
        dl = rng.randbelow(f.n)
        lead = rand_unit(f, rng)
        div = QPoly(f, [rand_elt(f, rng) for _ in range(dl)] + [lead])
        dq = rng.randbelow(f.n - dl)
        quot = QPoly(f, [rand_elt(f, rng) for _ in range(dq)] + [rand_unit(f, rng)])
        rem = QPoly(f, [rand_elt(f, rng) for _ in range(dl)])
        a = div.compose(quot) + rem
        got_q, got_r = a.left_divide(div)
        assert (got_q, got_r) == (quot, rem)


def test_left_divide_identity_random():
    f = get_field(3, 1, 5)
    rng = RngStream(15)
    for _ in range(60):
        a = rand_qpoly(f, rng)
        div = rand_nonzero_qpoly(f, rng)
        quot, rem = a.left_divide(div)
        assert div.compose(quot) + rem == a
        assert rem.q_degree < div.q_degree
    with pytest.raises(ZeroDivisionError):
        a.left_divide(QPoly.zero(f))


@pytest.mark.parametrize("p,e,n", [(2, 1, 4), (3, 1, 4), (3, 1, 3)])
def test_adjoint_monomials(p, e, n):
    f = get_field(p, e, n)
    u = select_twist(f)
    rng = RngStream(17)
    for i in range(n):
        a = rand_unit(f, rng)
        adj = QPoly.monomial(f, i, a).adjoint(u)
        j = (n - i) % n
        coef = f.mul(f.frobenius(f.mul(a, u), j), f.inv(u))
        assert adj == QPoly.monomial(f, j, coef)
    # degree-0 terms are fixed for any twist
    a = rand_unit(f, rng)
    assert QPoly(f, [a]).adjoint(u) == QPoly(f, [a])


def test_adjoint_untwisted_example():
    f = get_field(2, 1, 4)
    assert QPoly.monomial(f, 1).adjoint(1) == QPoly.monomial(f, 3)
    assert QPoly.monomial(f, 2).adjoint(1) == QPoly.monomial(f, 2)


def test_adjoint_defining_property():
    for p, e, n in [(2, 1, 4), (3, 1, 4)]:
        f = get_field(p, e, n)
        u = select_twist(f)
        rng = RngStream(19)
        for _ in range(30):
            poly = rand_qpoly(f, rng)
            adj = poly.adjoint(u)
            for _ in range(10):
                a, b = rand_elt(f, rng), rand_elt(f, rng)
                assert trace_form(f, u, poly.evaluate(a), b) == \
                    trace_form(f, u, a, adj.evaluate(b))


def test_adjoint_involution_anticommutes():
    f = get_field(3, 1, 4)
    u = select_twist(f)
    rng = RngStream(21)
    for _ in range(50):
        p, q = rand_qpoly(f, rng), rand_qpoly(f, rng)
        assert p.adjoint(u).adjoint(u) == p
        assert p.compose(q).adjoint(u) == q.adjoint(u).compose(p.adjoint(u))
        assert (p + q).adjoint(u) == p.adjoint(u) + q.adjoint(u)


def test_adjoint_rejects_zero_twist():
    f = get_field(2, 1, 4)
    with pytest.raises(ValueError):
        QPoly.x(f).adjoint(0)


def test_vector_form_interpolate_roundtrip():
    f = get_field(2, 1, 6)
    st = get_setup(2, 1, 6)
    rng = RngStream(23)
    for _ in range(40):
        p = rand_qpoly(f, rng)
        vals = vector_form(p, st.basis)
        assert vals == tuple(p.evaluate(g) for g in st.basis)
        assert interpolate(f, st.basis, vals) == p
    with pytest.raises(ValueError):
        # dependent evaluation points
        interpolate(f, [1, 1], [0, 1])


def _span(field, vecs):
    out = {0}
    for v in vecs:
        add = [field.mul(c, v) for c in range(1, field.q)]
        out |= {field.add(w, m) for w in out for m in add}
    return out


def test_endo_matrix_rank_kernel():
    f = get_field(2, 1, 4)
    assert qpoly_rank(QPoly.x(f)) == 4
    assert endo_matrix(QPoly.x(f)) == matrix_of(QPoly.x(f), get_setup(2, 1, 4))
    frob_minus_id = QPoly(f, [f.neg(1), 1])
    assert qpoly_rank(frob_minus_id) == 3
    kern = [f.from_coeffs(v) for v in endo_matrix(frob_minus_id).kernel()]
    assert _span(f, kern) == set(range(f.q))  # constants
    rng = RngStream(31)
    for _ in range(200):
        p = rand_nonzero_qpoly(f, rng)
        assert f.n - qpoly_rank(p) <= p.q_degree


def test_matrix_of_is_ring_iso():
    st = get_setup(3, 1, 3)
    f = st.field
    rng = RngStream(33)
    assert matrix_of(QPoly.x(f), st) == Matrix.identity(f.base, 3)
    for _ in range(30):
        p, q = rand_qpoly(f, rng), rand_qpoly(f, rng)
        assert matrix_of(p + q, st) == matrix_of(p, st) + matrix_of(q, st)
        assert matrix_of(p.compose(q), st) == matrix_of(p, st) @ matrix_of(q, st)
        assert matrix_of(p, st).rank() == qpoly_rank(p)
        if not p.is_zero():
            assert not matrix_of(p, st).is_zero()


def test_matrix_to_qpoly_roundtrip():
    # q even, q and n odd (u = 1), q odd with n even (u a norm non-square)
    for p, e, n in [(2, 1, 4), (2, 1, 6), (3, 1, 5), (3, 1, 4)]:
        st = get_setup(p, e, n)
        f = st.field
        rng = RngStream(35)
        for _ in range(100):
            m = random_matrix(f.base, n, n, rng)
            poly = matrix_to_qpoly(m, st)
            assert matrix_of(poly, st) == m
            assert matrix_to_qpoly(matrix_of(poly, st), st) == poly
        assert matrix_to_qpoly(Matrix.identity(f.base, n), st) == QPoly.x(f)


def test_qpoly_json_roundtrip():
    f = get_field(3, 1, 4)
    rng = RngStream(37)
    p = rand_qpoly(f, rng)
    assert QPoly.from_json(f, p.to_json()) == p
