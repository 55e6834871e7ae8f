"""Matrix/solver tests over packed-int fields, plus symmetric congruence
diagonalization (including the characteristic-2 cases)."""

import json

import pytest

from symrank import (BaseField, LinearSolver, Matrix, congruence_diagonalize,
                     linalg)
from helpers import get_field, rand_elt, ref_apply, ref_rank, ref_solve
from symrank.channel import RngStream


def rand_matrix(field, nrows, ncols, rng):
    return Matrix(field, [[rand_elt(field, rng) for _ in range(ncols)]
                          for _ in range(nrows)])


def test_small_oracles_f5():
    f5 = BaseField(5)
    a = Matrix(f5, [[1, 2], [3, 4]])
    assert a.rank() == 2
    s = Matrix(f5, [[1, 2], [2, 4]])
    assert s.rank() == 1


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


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_matmul_matches_field_op_reference(p, e):
    f = BaseField(p, e)
    rng = RngStream(5)
    shapes = [(1, 1, 1), (3, 4, 2), (2, 5, 6), (4, 1, 3), (6, 6, 6)]
    for n, k, m in shapes * 3:
        a, b = rand_matrix(f, n, k, rng), rand_matrix(f, k, m, rng)
        ref_cols = [ref_apply(a, col) for col in zip(*b.data)]
        assert (a @ b).data == tuple(zip(*ref_cols))
    # zero columns on the right: an n x 0 product
    a = rand_matrix(f, 3, 2, rng)
    prod = a @ Matrix(f, [[], []])
    assert (prod.nrows, prod.ncols) == (3, 0)
    with pytest.raises(ValueError):
        a @ rand_matrix(f, 3, 2, rng)


def test_empty_matrices_keep_their_shape():
    # a matrix with no rows still has its columns, and one with no columns
    # its rows, through zeros, transpose and products
    f = BaseField(3)
    shape = lambda m: (m.nrows, m.ncols)
    assert shape(Matrix.zeros(f, 0, 5)) == (0, 5)
    assert shape(Matrix.zeros(f, 0, 5).transpose()) == (5, 0)
    assert shape(Matrix(f, [[], [], []]).transpose()) == (0, 3)
    b = Matrix(f, [[1, 2], [0, 1], [2, 2]])
    assert shape(Matrix.zeros(f, 0, 3) @ b) == (0, 2)
    prod = Matrix(f, [[], []]) @ Matrix.zeros(f, 0, 3)
    assert prod == Matrix.zeros(f, 2, 3)
    assert Matrix.zeros(f, 0, 5) != Matrix.zeros(f, 0, 3)
    with pytest.raises(ValueError):
        Matrix.zeros(f, 0, 2) @ b
    assert len(Matrix.zeros(f, 0, 5).kernel()) == 5


def test_apply_and_solve_reject_wrong_length():
    f3 = BaseField(3)
    a = Matrix(f3, [[1, 2], [0, 1]])
    for mat in (a, Matrix(BaseField(2), [[1, 0], [1, 1]])):
        for vec in ((1,), (1, 0, 0)):
            with pytest.raises(ValueError):
                mat.apply(vec)
            with pytest.raises(ValueError):
                LinearSolver(mat).solve(vec)
            with pytest.raises(ValueError):
                mat.solve(vec)


def test_sum_of_mismatched_shapes_rejected():
    f = get_field(2, 1, 4)
    rng = RngStream(3)
    a, b = rand_matrix(f, 4, 4, rng), rand_matrix(f, 6, 6, rng)
    for x, y in ((a, b), (b, a), (a, rand_matrix(f, 4, 3, rng))):
        with pytest.raises(ValueError):
            x + y
        with pytest.raises(ValueError):
            x - y


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


def test_solve_is_one_elimination(monkeypatch):
    # the solver's reduction of [A | I] also gives the kernel of A, so a
    # solve eliminates once, consistent or not
    calls = []
    rref = linalg._rref

    def counting(*args):
        calls.append(args)
        return rref(*args)

    monkeypatch.setattr(linalg, "_rref", counting)
    f5 = BaseField(5)
    a = Matrix(f5, [[1, 2, 0], [2, 4, 1]])
    for b in ((1, 3), (0, 0)):
        calls.clear()
        x, kern = a.solve(b)
        assert len(calls) == 1
        assert a.apply(x) == b and kern == a.kernel()
    calls.clear()
    assert Matrix(f5, [[1, 2], [2, 4]]).solve((1, 3)) is None
    assert len(calls) == 1


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


@pytest.mark.parametrize("p,e,n", [(2, 1, 4), (3, 1, 2), (2, 1, None)])
def test_linear_solver_matches_matrix_solve(p, e, n):
    # n = None is the prime field itself, where F_2 runs on packed rows.
    # Both solvers are held to ref_solve, a separate elimination on [A | b].
    f = BaseField(p, e) if n is None else get_field(p, e, n)
    rng = RngStream(23)
    consistent = inconsistent = 0
    for trial in range(40):
        nrows = 1 + rng.randbelow(6)
        ncols = 1 + rng.randbelow(6)
        a = rand_matrix(f, nrows, ncols, rng)
        solver = LinearSolver(a)
        assert solver.rank == ref_rank(a)
        for _ in range(4):
            b = tuple(rand_elt(f, rng) for _ in range(nrows))
            x_true = tuple(rand_elt(f, rng) for _ in range(ncols))
            for rhs in (b, ref_apply(a, x_true)):
                want = ref_solve(a, rhs)
                assert solver.solve(rhs) == want
                direct = a.solve(rhs)
                if want is None:
                    assert direct is None
                    inconsistent += 1
                else:
                    assert direct == (want, a.kernel())
                    assert ref_apply(a, want) == rhs
                    consistent += 1
    assert consistent and inconsistent


def _f2_shapes(rng):
    """Matrices over F_2 of the shapes that stress the packed rows."""
    f2 = BaseField(2)
    yield Matrix(f2, [])
    yield Matrix(f2, [[0]])
    yield Matrix(f2, [[1]])
    yield Matrix.zeros(f2, 3, 5)
    for nrows, ncols in [(9, 3), (3, 9), (6, 6), (70, 4), (4, 70), (12, 80)]:
        for _ in range(4):
            yield rand_matrix(f2, nrows, ncols, rng)
    for _ in range(8):
        # duplicated rows and a sum of two of them: rank at most 3 of 6
        a = rand_matrix(f2, 3, 7, rng)
        r0, r1, r2 = a.data
        yield Matrix(f2, [r0, r1, r0, r2, r1,
                          [f2.add(x, y) for x, y in zip(r0, r2)]])


def test_packed_f2_matches_field_op_reference():
    rng = RngStream(29)
    consistent = inconsistent = 0
    for a in _f2_shapes(rng):
        assert a.rank() == ref_rank(a)
        solver = LinearSolver(a)
        for _ in range(6):
            v = tuple(rng.randbelow(2) for _ in range(a.ncols))
            assert a.apply(v) == ref_apply(a, v)
            b = tuple(rng.randbelow(2) for _ in range(a.nrows))
            for rhs in (b, ref_apply(a, v)):
                want = ref_solve(a, rhs)
                assert solver.solve(rhs) == want
                if want is None:
                    inconsistent += 1
                else:
                    consistent += 1
                    assert ref_apply(a, want) == rhs
    assert consistent and inconsistent


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
        assert t.rank() == n
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
    assert t.rank() == 3


def test_matrix_json_roundtrip():
    f = get_field(3, 1, 2)
    rng = RngStream(43)
    a = rand_matrix(f, 2, 3, rng)
    doc = json.loads(json.dumps(a.to_json()))
    assert doc == [list(row) for row in a.data]
    assert Matrix(f, doc) == a
