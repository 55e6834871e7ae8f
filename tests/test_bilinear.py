"""Twisted trace form tests: twist selection, orthonormal bases, SymSetup."""

import hashlib
import json

import pytest

from symrank import (
    BaseField,
    ExtField,
    Matrix,
    OrthonormalBasisError,
    SymSetup,
    gram_matrix,
    orthonormal_basis,
    select_twist,
    trace_form,
)
from helpers import get_field, get_setup, rand_elt
from symrank.channel import RngStream


@pytest.mark.parametrize("p,e,n,tables", [
    (2, 1, 4, None), (2, 1, 5, None),                      # q even
    (3, 1, 3, None), (5, 1, 3, None),                      # q and n odd
    (3, 1, 2, None), (5, 1, 2, None), (3, 1, 4, None), (5, 1, 4, None),
    (7, 1, 2, None), (3, 2, 2, None), (5, 2, 2, None), (3, 1, 4, False),
])
def test_select_twist_branches(p, e, n, tables):
    f = ExtField(BaseField(p, e), n, use_tables=tables)
    base = f.base
    squares = {base.mul(a, a) for a in base.elements()}
    # every element of F_q is a sum of two squares, as the rotation in
    # orthonormal_basis needs
    assert {base.add(s, t) for s in squares for t in squares} == set(base.elements())
    u = select_twist(f)
    if p == 2 or n % 2 == 1:
        assert u == 1
        return

    # q odd, n even: the smallest unit whose norm, the product of its n
    # conjugates, is not in the exhaustive list of squares of F_q
    def norm(a):
        out = f.one
        for i in range(f.n):
            out = f.mul(out, f.frobenius(a, i))
        return out

    norms = [norm(v) for v in f.units()]
    assert norms == [f.norm(v) for v in f.units()]
    assert set(norms) == set(base.units())          # onto F_q^*
    assert u == next(v for v, m in zip(f.units(), norms) if m not in squares)
    if (p, e, n) == (3, 1, 2):
        assert u == 4


def test_trace_form_symmetric_bilinear():
    f = get_field(3, 1, 4)
    u = select_twist(f)
    rng = RngStream(3)
    for _ in range(100):
        a, b, c = (rand_elt(f, rng) for _ in range(3))
        s = rng.randbelow(f.q)
        assert trace_form(f, u, a, b) == trace_form(f, u, b, a)
        assert trace_form(f, u, f.add(a, c), b) == f.base.add(
            trace_form(f, u, a, b), trace_form(f, u, c, b))
        assert trace_form(f, u, f.mul(s, a), b) == f.base.mul(
            s, trace_form(f, u, a, b))


def test_trace_form_nondegenerate_small():
    f = get_field(2, 1, 4)
    for a in f.units():
        assert any(trace_form(f, 1, a, b) != 0 for b in f.elements())


@pytest.mark.parametrize("p,e,n", [
    (2, 1, 2), (2, 1, 4), (2, 1, 6), (3, 1, 2), (3, 1, 3),
    (3, 1, 4), (5, 1, 2), (2, 2, 2), (2, 2, 3),
])
def test_orthonormal_basis_gram_identity(p, e, n):
    f = get_field(p, e, n)
    u = select_twist(f)
    basis = orthonormal_basis(f, u)
    assert len(basis) == n
    assert gram_matrix(f, u, basis) == Matrix.identity(f.base, n)
    # independent double check straight from the form
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            assert trace_form(f, u, bi, bj) == (1 if i == j else 0)


@pytest.mark.parametrize("p,e,n", [(3, 1, 2), (5, 1, 2)])
def test_orthonormal_exists_iff_norm_nonsquare(p, e, n):
    f = get_field(p, e, n)
    for u in f.units():
        ok = f.base.is_square(f.norm(u)) is False
        if ok:
            basis = orthonormal_basis(f, u)
            assert gram_matrix(f, u, basis) == Matrix.identity(f.base, n)
        else:
            with pytest.raises(OrthonormalBasisError):
                orthonormal_basis(f, u)


# every twist u of each field, 0 and the bad twists included: the basis, or
# the refusal's class and message.  Some twist of every characteristic-2
# field here with n >= 3, (2,4) among them, takes the characteristic-2
# repair of a zero-norm block, and some twist of every odd field, (3,4)
# among them, the odd repair, so both are pinned with the pivot rounds.
BASIS_GRID = [(2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5), (2, 1, 6),
              (2, 2, 2), (2, 2, 3), (3, 1, 2), (3, 1, 3), (3, 1, 4),
              (5, 1, 2), (5, 1, 3), (7, 1, 2), (3, 2, 2)]
PINNED_BASIS_GRID = (
    "ac12e45acb398d90c1dc90dfdcdd8343e258ac57ce87a0e19c0b97f292fc9551")


def test_orthonormal_basis_grid_pinned():
    lines = []
    for p, e, n in BASIS_GRID:
        f = get_field(p, e, n)
        for u in range(f.order):
            try:
                out = list(orthonormal_basis(f, u))
            except Exception as exc:
                out = [type(exc).__name__, str(exc)]
            lines.append(json.dumps([p, e, n, u, out]))
    assert len(lines) == 601
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_BASIS_GRID


def test_setup_coords_roundtrip():
    for p, e, n in [(2, 1, 4), (3, 1, 2), (3, 1, 3)]:
        st = get_setup(p, e, n)
        f = st.field
        rng = RngStream(9)
        for _ in range(80):
            a = rand_elt(f, rng)
            cs = st.coords(a)
            assert len(cs) == n and all(c < f.q for c in cs)
            assert st.from_coords(cs) == a
        # linearity of coordinates
        a, b = rand_elt(f, rng), rand_elt(f, rng)
        ca, cb = st.coords(a), st.coords(b)
        assert st.coords(f.add(a, b)) == tuple(
            f.base.add(x, y) for x, y in zip(ca, cb))


def test_setup_pair_on_basis():
    st = get_setup(3, 1, 4)
    for i, bi in enumerate(st.basis):
        for j, bj in enumerate(st.basis):
            assert trace_form(st.field, st.u, bi, bj) == (1 if i == j else 0)


def test_setup_json_roundtrip():
    st = get_setup(3, 1, 2)
    doc = st.to_json()
    st2 = SymSetup.from_json(doc)
    assert st2.u == st.u
    assert st2.basis == st.basis
    assert st2.field.modulus == st.field.modulus


def test_setup_rejects_bad_basis():
    f = get_field(3, 1, 2)
    st = get_setup(3, 1, 2)
    # swap is fine (still orthonormal); mixing two vectors breaks the Gram
    SymSetup(f, st.u, (st.basis[1], st.basis[0]))
    bad = (f.add(st.basis[0], st.basis[1]), st.basis[1])
    with pytest.raises(OrthonormalBasisError):
        SymSetup(f, st.u, bad)
    with pytest.raises(OrthonormalBasisError):
        SymSetup(f, st.u, (0, st.basis[1]))


def test_setup_rejects_bad_twist():
    f = get_field(3, 1, 2)
    with pytest.raises(OrthonormalBasisError):
        SymSetup(f, 1)  # norm(1) = 1 is a square: no orthonormal basis
