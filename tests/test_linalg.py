"""Matrix/solver tests over packed-int fields, plus symmetric congruence
diagonalization (including the characteristic-2 cases)."""

import pytest

from symrank import BaseField, LinearSolver, Matrix, congruence_diagonalize
from helpers import get_field, rand_elt
from symrank.channel import RngStream


def rand_matrix(field, nrows, ncols, rng):
    return Matrix(field, [[rand_elt(field, rng) for _ in range(ncols)]
                          for _ in range(nrows)])


def test_small_oracles_f5():
    f5 = BaseField(5)
    a = Matrix(f5, [[1, 2], [3, 4]])
    assert a.det() == 3  # 4 - 6 = -2 = 3 mod 5
    assert a.rank() == 2
    inv = a.inverse()
    assert a @ inv == Matrix.identity(f5, 2)
    assert inv @ a == Matrix.identity(f5, 2)
    s = Matrix(f5, [[1, 2], [2, 4]])
    assert s.det() == 0
    assert s.rank() == 1
    with pytest.raises(ZeroDivisionError):
        s.inverse()


def test_matmul_apply_transpose():
    f = get_field(2, 1, 4)
    rng = RngStream(2)
    a = rand_matrix(f, 3, 4, rng)
    b = rand_matrix(f, 4, 2, rng)
    v = tuple(rand_elt(f, rng) for _ in range(4))
    assert (a @ b).transpose() == b.transpose() @ a.transpose()
    got = (a @ b).apply(tuple(rand_elt(f, rng) for _ in range(2)))
    assert len(got) == 3
    assert a.apply(v) == tuple(
        # manual dot product as reference
        _dot(f, a.row(i), v) for i in range(3)
    )


def _dot(field, xs, ys):
    acc = 0
    for x, y in zip(xs, ys):
        acc = field.add(acc, field.mul(x, y))
    return acc


def test_solve_and_kernel_oracle():
    f5 = BaseField(5)
    a = Matrix(f5, [[1, 2], [2, 4]])
    assert a.solve((1, 3)) is None
    got = a.solve((1, 2))
    assert got is not None
    x, kern = got
    assert a.apply(x) == (1, 2)
    assert len(kern) == 1
    assert a.apply(kern[0]) == (0, 0)


@pytest.mark.parametrize("p,e,n", [(2, 1, 4), (3, 1, 3), (2, 2, 2)])
def test_solve_random_property(p, e, n):
    f = get_field(p, e, n)
    rng = RngStream(17)
    for trial in range(60):
        nrows = 1 + rng.randbelow(5)
        ncols = 1 + rng.randbelow(5)
        a = rand_matrix(f, nrows, ncols, rng)
        assert a.rank() + len(a.kernel()) == ncols
        for v in a.kernel():
            assert all(c == 0 for c in a.apply(v))
        x_true = tuple(rand_elt(f, rng) for _ in range(ncols))
        b = a.apply(x_true)
        got = a.solve(b)
        assert got is not None
        x, _ = got
        assert a.apply(x) == b


@pytest.mark.parametrize("p,e,n", [(2, 1, 4), (3, 1, 2)])
def test_linear_solver_matches_matrix_solve(p, e, n):
    f = get_field(p, e, n)
    rng = RngStream(23)
    for trial in range(40):
        nrows = 1 + rng.randbelow(6)
        ncols = 1 + rng.randbelow(6)
        a = rand_matrix(f, nrows, ncols, rng)
        solver = LinearSolver(a)
        assert solver.rank == a.rank()
        for _ in range(4):
            b = tuple(rand_elt(f, rng) for _ in range(nrows))
            direct = a.solve(b)
            via = solver.solve(b)
            assert (direct is None) == (via is None)
            if via is not None:
                assert a.apply(via) == b


def test_det_multiplicative():
    f = get_field(3, 1, 2)
    rng = RngStream(31)
    for _ in range(50):
        a = rand_matrix(f, 3, 3, rng)
        b = rand_matrix(f, 3, 3, rng)
        assert (a @ b).det() == f.mul(a.det(), b.det())
        assert (a.det() != 0) == (a.rank() == 3)


def test_inverse_random():
    f = get_field(2, 1, 6)
    rng = RngStream(37)
    found = 0
    while found < 20:
        a = rand_matrix(f, 4, 4, rng)
        if a.det() == 0:
            continue
        found += 1
        assert a @ a.inverse() == Matrix.identity(f, 4)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (2, 1), (2, 2)])
def test_congruence_diagonalize_random(p, e):
    f = BaseField(p, e)
    rng = RngStream(41)
    for trial in range(40):
        n = 1 + rng.randbelow(4)
        raw = rand_matrix(f, n, n, rng)
        gram = raw + raw.transpose()
        if f.p == 2:
            # a + a^T has zero diagonal in char 2; put back a random diagonal
            # so the form is not alternating (those are rejected, see below).
            gram = gram + Matrix(f, [[rand_elt(f, rng) if i == j else 0
                                      for j in range(n)] for i in range(n)])
            if all(gram.data[i][i] == 0 for i in range(n)):
                continue
        t, d = congruence_diagonalize(gram)
        assert t.transpose() @ gram @ t == d
        assert all(d.data[i][j] == 0 for i in range(n) for j in range(n) if i != j)
        assert t.det() != 0
        assert d.rank() == gram.rank()


def test_congruence_char2_alternating_rejected():
    f2 = BaseField(2)
    with pytest.raises(ValueError):
        congruence_diagonalize(Matrix(f2, [[0, 1], [1, 0]]))


def test_congruence_char2_zero_diagonal_block():
    # Diagonal entry exists elsewhere, so the hyperbolic 2x2 block can be
    # folded into it.
    f2 = BaseField(2)
    gram = Matrix(f2, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    t, d = congruence_diagonalize(gram)
    assert t.transpose() @ gram @ t == d
    assert all(d.data[i][j] == 0 for i in range(3) for j in range(3) if i != j)
    assert t.det() != 0


def test_matrix_json_roundtrip():
    f = get_field(3, 1, 2)
    rng = RngStream(43)
    a = rand_matrix(f, 2, 3, rng)
    assert Matrix.from_json(f, a.to_json()) == a
