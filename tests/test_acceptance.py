"""Acceptance campaign: every advertised guarantee at full scale.

Each criterion prints one PASS/FAIL line (visible in normal pytest runs via
capsys.disabled) with its elapsed wall time.  Criteria 1-3 stash their
empirical success frontiers in a module-level dict that criterion 8 compares
against the theoretical radius curves, so run the module as a whole.
"""

import csv
import itertools
import time
from collections import defaultdict
from contextlib import contextmanager

import pytest

from symrank import (
    BaseField,
    GabCode,
    HighRateDecoder,
    LowRateDecoder,
    Matrix,
    QPoly,
    RngStream,
    gram_matrix,
    matrix_code_of,
    matrix_of,
    matrix_to_qpoly,
    orthonormal_basis,
    OrthonormalBasisError,
    qpoly_rank,
    random_codeword,
    random_error,
    random_selfadjoint_qpoly,
    random_symmetric_matrix,
    select_twist,
    trace_form,
    wb_decode,
)
from helpers import get_field, get_setup, rand_elt, rand_qpoly, random_matrix_code
from symrank.cli import main as cli_main

TRIALS = 500

# criteria 1-3 record {case: {rank: ...}} frontier data here for criterion 8
_campaign: dict = {}


@contextmanager
def criterion(capsys, num: int, name: str):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        label = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"\nACCEPTANCE {num} {name}: {label} "
                  f"({time.perf_counter() - start:.1f}s)", flush=True)


def note(capsys, text: str):
    with capsys.disabled():
        print(f"  {text}", flush=True)


def test_criterion_1_standard_decoder(capsys):
    with criterion(capsys, 1, "standard decoder, 500 trials per rank"):
        start = time.perf_counter()
        cases = [(2, 1, 8, 2), (2, 1, 8, 4), (3, 1, 6, 2), (2, 2, 5, 1)]
        results = {}
        for ci, (p, e, n, k) in enumerate(cases):
            f = get_field(p, e, n)
            code = GabCode(f, k)
            t_max = (n - k) // 2
            master = RngStream(1001)
            per_rank = {}
            for t in range(t_max + 1):
                good = 0
                for trial in range(TRIALS):
                    rng = master.fork(ci * 100_000 + t * TRIALS + trial)
                    cw = random_codeword(code, rng)
                    err = random_error(f, t, rng)
                    rep = wb_decode(code, cw + err, t_max)
                    if rep.status == "ok" and rep.codeword == cw and rep.error == err:
                        good += 1
                assert good == TRIALS, \
                    f"(q={f.q}, n={n}, k={k}) rank {t}: {good}/{TRIALS}"
                per_rank[t] = good
            results[(f.q, n, k)] = {"t_max": t_max, "per_rank": per_rank}
        _campaign["standard"] = results
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s (budget 60s)"


def test_criterion_2_low_rate_decoder(capsys):
    with criterion(capsys, 2, "low-rate symmetric decoder, every rank 1..n"):
        start = time.perf_counter()
        results = {}
        for ci, (p, n, k) in enumerate([(2, 6, 2), (3, 5, 2), (2, 8, 3)]):
            st = get_setup(p, 1, n)
            f = st.field
            mcode = matrix_code_of(GabCode(f, k, 1), st)
            dec = LowRateDecoder(mcode)
            master = RngStream(2002)
            per_rank = {}
            for r in range(1, n + 1):
                good = 0
                for trial in range(TRIALS):
                    rng = master.fork(ci * 100_000 + r * TRIALS + trial)
                    cw = mcode.combine([rng.randbelow(f.q) for _ in range(mcode.dim)])
                    err = random_symmetric_matrix(f.base, n, r, rng)
                    got_c, got_e = dec.decode(cw + err)
                    if got_c == cw and got_e == err:
                        good += 1
                assert good == TRIALS, f"(q={p}, n={n}, k={k}) rank {r}: {good}/{TRIALS}"
                per_rank[r] = good
            results[(p, n, k)] = {"per_rank": per_rank}
        _campaign["sym-low"] = results

        # random non-Gabidulin symmetric-free matrix codes
        good = 0
        for qq, nn, idx0 in ((2, 4, 0), (3, 3, 100)):
            base = BaseField(qq)
            max_dim = nn * nn - nn * (nn + 1) // 2
            master = RngStream(2112)
            for i in range(100):
                rng = master.fork(idx0 + i)
                dim = 1 + i % max_dim
                r = i % (nn + 1)
                mcode = random_matrix_code(base, nn, dim, rng)
                dec = LowRateDecoder(mcode)
                cw = mcode.combine([rng.randbelow(qq) for _ in range(dim)])
                err = random_symmetric_matrix(base, nn, r, rng)
                got_c, got_e = dec.decode(cw + err)
                if got_c == cw and got_e == err:
                    good += 1
        assert good == 200, f"random matrix codes: {good}/200"
        elapsed = time.perf_counter() - start
        assert elapsed < 120, f"criterion 2 took {elapsed:.1f}s (budget 120s)"


# the seeded boundary campaign's (unique, ambiguous) split per code, so a
# refactor that moves an instance across it fails here and not only in the
# note line
BOUNDARY_COUNTS = {(2, 8, 5): (500, 0), (2, 8, 6): (382, 118),
                   (3, 6, 4): (349, 151)}


def test_criterion_3_high_rate_decoder(capsys):
    with criterion(capsys, 3, "high-rate decoder to n-k-1, boundary at n-k"):
        start = time.perf_counter()
        results = {}
        for ci, (p, n, k) in enumerate([(2, 8, 5), (2, 8, 6), (3, 6, 4)]):
            st = get_setup(p, 1, n)
            dec = HighRateDecoder(st, k)
            radius = n - k
            master = RngStream(3003)
            per_rank = {}
            for r in range(radius):
                good = 0
                for trial in range(TRIALS):
                    rng = master.fork(ci * 100_000 + r * TRIALS + trial)
                    cw = random_codeword(dec.code, rng)
                    err = random_selfadjoint_qpoly(r, st, rng)
                    rep = dec.decode(cw + err)
                    if rep.status == "ok" and rep.codeword == cw and rep.error == err:
                        good += 1
                assert good == TRIALS, f"(q={p}, n={n}, k={k}) rank {r}: {good}/{TRIALS}"
                per_rank[r] = good
            # boundary rank n-k: unique or ambiguous-with-truth, never wrong
            unique = ambiguous = 0
            for trial in range(TRIALS):
                rng = master.fork(ci * 100_000 + radius * TRIALS + trial)
                cw = random_codeword(dec.code, rng)
                err = random_selfadjoint_qpoly(radius, st, rng)
                received = cw + err
                rep = dec.decode(received)
                if rep.status == "ok":
                    assert rep.codeword == cw and rep.error == err
                    unique += 1
                else:
                    assert rep.status == "ambiguous", \
                        f"boundary decode failed outright: {rep.diagnostics}"
                    assert cw in rep.candidates, "truth missing from candidates"
                    for cand in rep.candidates:
                        e = received - cand
                        assert dec.code.contains(cand)
                        assert e.is_self_adjoint(st.u)
                        assert qpoly_rank(e) <= radius
                    ambiguous += 1
            note(capsys, f"(q={p}, n={n}, k={k}) boundary rank {radius}: "
                         f"{unique} unique, {ambiguous} ambiguous "
                         f"({100.0 * ambiguous / TRIALS:.1f}% ambiguity)")
            assert (unique, ambiguous) == BOUNDARY_COUNTS[(p, n, k)]
            results[(p, n, k)] = {"per_rank": per_rank, "radius": radius,
                                  "boundary_unique": unique,
                                  "boundary_ambiguous": ambiguous}
        _campaign["sym-high"] = results
        elapsed = time.perf_counter() - start
        assert elapsed < 300, f"criterion 3 took {elapsed:.1f}s (budget 300s)"


def test_criterion_4_exhaustive_small_field(capsys):
    with criterion(capsys, 4, "exhaustive (q, n) = (2, 4) against brute force"):
        start = time.perf_counter()
        st = get_setup(2, 1, 4)
        f = st.field
        n = 4

        # all 1024 symmetric matrices over F_2, and their rank <= 1 subset
        sym_matrices = []
        for bits in itertools.product((0, 1), repeat=n * (n + 1) // 2):
            it = iter(bits)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    v = next(it)
                    rows[i][j] = v
                    rows[j][i] = v
            sym_matrices.append(Matrix(f.base, rows))
        selfadj_rank1 = [matrix_to_qpoly(m, st) for m in sym_matrices
                         if m.rank() <= 1]
        assert len(selfadj_rank1) == 16

        # every rank <= 1 q-polynomial: a * b^(q^i) coefficient patterns
        rank_le1 = {QPoly(f).coeffs}
        for a in f.units():
            for b in f.units():
                rank_le1.add(tuple(f.mul(a, f.frobenius(b, i)) for i in range(n)))
        assert len(rank_le1) == 226

        # standard decoder, k = 1, 2, 3 (radius 1, 1, 0)
        for k in (1, 2, 3):
            code = GabCode(f, k)
            t = (n - k) // 2
            errors = [QPoly(f)] if t == 0 else selfadj_rank1
            # y - e lies in Gab_k exactly when e agrees with y outside
            # degrees 0..k-1, so the patterns bucketed by those coefficients
            # give the whole candidate set at distance <= t in one lookup
            bucket = defaultdict(list)
            for ec in rank_le1:
                bucket[ec[k:]].append(QPoly(f, ec))
            for msg in itertools.product(f.elements(), repeat=k):
                cw = code.encode(msg)
                for err in errors:
                    y = cw + err
                    if t == 0:
                        nearest = [y] if code.contains(y) else []
                    else:
                        nearest = [y - e for e in bucket.get(y.coeffs[k:], [])]
                    assert nearest == [cw], "oracle must find exactly the truth"
                    rep = wb_decode(code, y, t)
                    assert rep.status == "ok"
                    assert rep.codeword == cw and rep.error == err

        # low-rate decoder, k = 1: all codewords x all 1024 symmetric errors
        mcode = matrix_code_of(GabCode(f, 1, 1), st)
        dec = LowRateDecoder(mcode)
        words = [mcode.combine(cs)
                 for cs in itertools.product(range(2), repeat=mcode.dim)]
        # y - w is symmetric exactly when w - w^T = y - y^T, so the codewords
        # bucketed by w - w^T give the valid ones in one lookup
        by_skew = defaultdict(list)
        for w in words:
            by_skew[(w - w.transpose()).data].append(w)
        for cw in words:
            for err in sym_matrices:
                y = cw + err
                valid = by_skew.get((y - y.transpose()).data, [])
                assert valid == [cw]
                got_c, got_e = dec.decode(y)
                assert got_c == cw and got_e == err

        # high-rate decoder, k = 3: all codewords x all self-adjoint rank <= 1
        hdec = HighRateDecoder(st, 3)
        assert hdec.radius == 1
        seen_ambiguous = 0
        for msg in itertools.product(f.elements(), repeat=3):
            cw = hdec.code.encode(msg)
            for err in selfadj_rank1:
                y = cw + err
                oracle = {(y - e).coeffs for e in selfadj_rank1
                          if e.coeffs[0] == y.coeffs[0]}
                rep = hdec.decode(y)
                if len(oracle) == 1:
                    assert rep.status == "ok"
                    assert rep.codeword == cw and rep.error == err
                else:
                    assert rep.status == "ambiguous"
                    assert {c.coeffs for c in rep.candidates} == oracle
                    assert cw.coeffs in oracle
                    seen_ambiguous += 1
        note(capsys, f"high-rate k=3: {seen_ambiguous} ambiguous instances "
                     f"out of {16**3 * 16} exhaustive decodes")
        assert seen_ambiguous == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 600, f"criterion 4 took {elapsed:.1f}s (budget 600s)"


def test_criterion_5_adjunction_branches(capsys):
    with criterion(capsys, 5, "adjoint bridge on all three twist branches"):
        for p, e, n in [(2, 1, 6), (3, 1, 5), (3, 1, 4)]:
            st = get_setup(p, e, n)
            f, u = st.field, st.u
            master = RngStream(5005)
            for trial in range(TRIALS):
                rng = master.fork(trial)
                poly = rand_qpoly(f, rng)
                other = rand_qpoly(f, rng)
                adj = poly.adjoint(u)
                assert matrix_of(adj, st) == matrix_of(poly, st).transpose()
                assert adj.adjoint(u) == poly
                assert poly.compose(other).adjoint(u) == \
                    other.adjoint(u).compose(adj)
                for _ in range(50):
                    a, b = rand_elt(f, rng), rand_elt(f, rng)
                    assert trace_form(f, u, poly.evaluate(a), b) == \
                        trace_form(f, u, a, adj.evaluate(b))


def test_criterion_6_orthonormal_basis_exhaustive(capsys):
    with criterion(capsys, 6, "orthonormal basis iff non-square norm"):
        for p, expected in ((3, 4), (5, 12)):
            f = get_field(p, 1, 2)
            hits = 0
            for u in f.units():
                if f.base.is_square(f.norm(u)):
                    with pytest.raises(OrthonormalBasisError):
                        orthonormal_basis(f, u)
                else:
                    basis = orthonormal_basis(f, u)
                    assert gram_matrix(f, u, basis) == Matrix.identity(f.base, 2)
                    hits += 1
            assert hits == expected  # (q-1)/2 non-square norms, fibers q+1


def test_criterion_7_adjoint_code_equivalence(capsys):
    with criterion(capsys, 7, "Gab_k adjoint is Gab_k shifted, n up to 6"):
        for q in (2, 3):
            for n in range(1, 7):
                f = get_field(q, 1, n)
                u = select_twist(f)
                for k in range(1, n + 1):
                    adj_rows = []
                    for i in range(k):
                        poly = QPoly.monomial(f, i).adjoint(u)
                        adj_rows.append(list(poly.compose_monomial(k - 1).coeffs))
                    std_rows = [list(QPoly.monomial(f, i).coeffs) for i in range(k)]
                    ra = Matrix(f, adj_rows).rank()
                    rb = Matrix(f, std_rows).rank()
                    rs = Matrix(f, adj_rows + std_rows).rank()
                    assert ra == rb == rs == k, (q, n, k)


def test_criterion_8_radius_table_and_frontiers(capsys, tmp_path):
    if not all(key in _campaign for key in ("standard", "sym-low", "sym-high")):
        pytest.skip("frontier check needs criteria 1-3 results; "
                    "run the full acceptance module")
    with criterion(capsys, 8, "radius curves match formulas and experiments"):
        out = tmp_path / "radius.csv"
        assert cli_main(["radius-table", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["rate", "thick", "dashed", "dotted"]
        assert len(rows) == 102
        for row in rows[1:]:
            rate = float(row[0])
            thick = 1.0 if rate <= 0.5 else 1.0 - rate
            dashed = (1.0 - rate) / 2.0
            dotted = 2.0 * (1.0 - rate) / 3.0
            assert row[1] == f"{thick:.6f}"
            assert row[2] == f"{dashed:.6f}"
            assert row[3] == f"{dotted:.6f}"

        # standard decoder frontier: tau = floor((n-k)/2)/n, the half-distance
        # curve; must dominate nothing less than the dashed line
        for (q, n, k), res in _campaign["standard"].items():
            assert all(v == TRIALS for v in res["per_rank"].values())
            tau = res["t_max"] / n
            dashed = (1.0 - k / n) / 2.0
            assert tau >= dashed - 1e-9
            assert abs(tau - dashed) < 1e-9  # exact here: n - k even for all cases

        # low-rate symmetric decoder reaches rank n: tau = 1 = thick curve
        for (q, n, k), res in _campaign["sym-low"].items():
            assert res["per_rank"][n] == TRIALS
            assert k / n <= 0.5
            assert 1.0 >= (1.0 - k / n) / 2.0  # dominates dashed

        # high-rate decoder: unique to (n-k-1)/n, never wrong at (n-k)/n,
        # which is exactly the thick curve 1 - R past rate 1/2
        for (q, n, k), res in _campaign["sym-high"].items():
            radius = res["radius"]
            assert all(v == TRIALS for v in res["per_rank"].values())
            assert res["boundary_unique"] + res["boundary_ambiguous"] == TRIALS
            thick = 1.0 - k / n
            assert abs(radius / n - thick) < 1e-9
            assert (radius - 1) / n >= (1.0 - k / n) / 2.0 - 1e-9
        note(capsys, "empirical frontiers: standard = dashed curve, "
                     "sym-low = 1.0, sym-high = thick curve (boundary caveat)")
