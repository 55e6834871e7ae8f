"""Exact arithmetic for the field tower F_p <= F_q <= F_{q^n}.

Both levels are one construction, a field K[x]/(m) on packed integers,
applied twice: ``BaseField`` realises F_q = F_p[y]/(g) for a monic
irreducible g of degree e, and ``ExtField`` realises F_{q^n} = F_q[x]/(f)
for a monic irreducible f of degree n over F_q.

Elements are packed integers.  The F_q element with coefficient vector
(c_0, ..., c_{e-1}) over F_p (little endian) is sum(c_i * p**i); the F_{q^n}
element with coefficients (a_0, ..., a_{n-1}) over F_q is sum(a_i * q**i)
where each a_i is itself a packed F_q value.  Constants of F_q therefore
embed into F_{q^n} unchanged, 0 and 1 are the identities at every level, and
element equality is plain integer equality.  At either level the base-p
digits of a packed element are its coordinates over F_p.

Multiplication, division, inversion and the Frobenius x -> x^q run on
discrete-log tables over a fixed generator whenever the field order fits in
``ExtField.TABLE_LIMIT``; larger fields fall back to direct polynomial
arithmetic modulo the defining polynomial.  Over the coefficient field
F_2 that product is a carry-less shift-xor product of the packed ints, and
the inverse an extended Euclid on them.  Over every larger coefficient
field K, F_p for odd p and F_(p^e) alike, one sparse schoolbook product on
the digits over K and one extended Euclid on digit lists serve, both with
K's own ``add`` and ``mul``.  In characteristic 2 the tables are built by
doubling, two table lookups per element, since multiplication by a fixed
element is F_2-linear on the packed bits; for odd p they take one product
per element.  F_q always runs on its tables, so ``BaseField`` refuses a q
above the limit.

The trace Tr: F_{q^n} -> F_q is F_p-linear on the base-p digits, so
``ExtField.trace`` applies a functional fixed once per field: it is built
from the values Tr(x^i), the power sums of the roots of f that Newton's
identities give on f's coefficients, with no Frobenius power and no table.
Over F_2 it is one and plus a popcount parity.

Addition, subtraction and negation are xor for p = 2 and ``% p`` on a
prime field F_p.  Any other field with tables (odd p) uses its Zech
logarithms, a + b = a(1 + b/a), a few table lookups; only a table-free
field of odd p loops over the base-p digits.  The tables make every
decoder inner loop O(1) per field operation.

Two list-wise operations serve passes over the whole field: ``add_each``
adds one element to every entry of a list (xor, or the Zech lookup inlined,
with no method call per entry), and ``div_many`` divides two lists entry by
entry as exp[log a - log b].  Callers get whole lists and never see the
table format.

A caller that loops over many entries takes its sums and differences from
here.  ``_add_of`` and ``_sub_of`` give one element's sum or difference:
the builtin xor in characteristic 2, else the method.  The q-polynomial
loops use them, and ``linalg.Matrix`` maps them over each pair of rows for
its ``+`` and ``-``.  Five loops still test the field for a path of their
own: ``QPoly.compose`` reads ``_char2`` to accumulate by xor in place;
``qpoly.qpoly_rank`` and ``gabidulin._sample_independent`` test q == 2,
where a packed element of F_(2^n) is its own coordinate row;
``linalg.Matrix.apply`` sums its packed columns with no product when
p == 2; and ``linalg.Matrix.rank`` packs each row of a matrix over the
field of order 2 into one int for an xor basis.

Moduli may be user supplied or auto-generated by scanning monic polynomials
in ascending packed-coefficient order.  Generation is deterministic, so a
given (p, e, n) always denotes the same concrete tower.  Both levels take
their modulus from one rule, ``_modulus``: a supplied g or f is used as
given, monic of the right degree with int coefficients in range, never
reduced or rewritten.  Either way a modulus m passes Rabin's
irreducibility test, which runs in the ring K[x]/(m) with the field's own
table-free product and inverse.
"""

from __future__ import annotations

import operator
from operator import xor


def _prime_factors(m: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return tuple(out)


def _digits(value: int, radix: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        value, r = divmod(value, radix)
        out.append(r)
    return out


def _nonzero_digits(value: int, radix: int) -> list[tuple[int, int]]:
    """The (index, digit) pairs of the nonzero digits of ``value``, low
    first; the loop stops when the rest of ``value`` is 0."""
    out = []
    i = 0
    while value:
        value, r = divmod(value, radix)
        if r:
            out.append((i, r))
        i += 1
    return out


def _pack(digits, radix: int) -> int:
    out = 0
    for d in reversed(list(digits)):
        out = out * radix + d
    return out


def _pow(mul, a: int, m: int) -> int:
    """a^m for m >= 0 by square and multiply with the product ``mul``."""
    out = 1
    while m:
        if m & 1:
            out = mul(out, a)
        a = mul(a, a)
        m >>= 1
    return out


def _span(vectors) -> list[int]:
    """All xor combinations of ``vectors``: entry i is the xor of the
    vectors[j] with bit j set in i."""
    out = [0]
    for v in vectors:
        out += [x ^ v for x in out]
    return out


def _exp_log_tables(order: int, mul, p: int
                    ) -> tuple[list[int], list[int], list[int] | None]:
    """Exp, log and Zech tables of the field of ``order`` elements with
    product ``mul``, over its first generator g in packed order.  ``exp``
    has length 2(order - 1) so a sum of two logs needs no reduction.

    For p = 2 (radix 2 or 2^e alike) ``exp`` is built by doubling:
    exp[m:2m] = h * exp[:m] with h = g^m, and x -> h x is F_2-linear on the
    d packed bits.  So each entry of a block is two lookups, one in a table
    of the low d//2 bits and one in a table of the high bits, each table
    the xor span of the images h * 2^j of the unit vectors.  The images of
    g take d products; those of h^2 are the images of h mapped once more
    by h, so no later block calls ``mul``.  The tables equal those of one
    product per element.  Odd p takes one product per element.

    ``zech[k] = log(1 + g^k)``, or -1 when 1 + g^k = 0, for odd p on a
    field that is not prime (p = 2 adds by xor, F_p by ``% p``), else None.
    It is stored twice over, length 2(order - 1), so that any k in
    (-(order - 1), 2(order - 1)) indexes it without reduction.  Adding 1
    changes only base-p digit 0, so each entry is one lookup in ``log``."""
    units = order - 1
    factors = _prime_factors(units)
    gen = next(c for c in range(1, order)
               if all(_pow(mul, c, units // r) != 1 for r in factors))
    exp = [1]
    if p == 2:
        d = units.bit_length()
        s = d // 2
        mask = (1 << s) - 1
        images = [mul(1 << j, gen) for j in range(d)]   # x -> h x, h = g^len(exp)
        while len(exp) < units:
            lo, hi = _span(images[:s]), _span(images[s:])
            exp += [lo[x & mask] ^ hi[x >> s] for x in exp[:units - len(exp)]]
            images = [lo[x & mask] ^ hi[x >> s] for x in images]
    else:
        for _ in range(units - 1):
            exp.append(mul(exp[-1], gen))
    if mul(exp[-1], gen) != 1:
        raise ArithmeticError("generator order mismatch")
    log = [-1] * order
    for i, x in enumerate(exp):
        log[x] = i
    exp += exp
    zech = None
    if p != 2 and order != p:
        zech = [log[x - x % p + (x % p + 1) % p] for x in exp[:units]] * 2
    return exp, log, zech


# ---------------------------------------------------------------------------
# irreducible polynomials over a field K (little-endian lists of packed K values)

def _fq_is_irreducible(base, poly) -> bool:
    """Rabin's test: f of degree n over K = F_q is irreducible iff
    x^(q^n) = x mod f and x^(q^(n/r)) - x is a unit mod f for every prime
    r | n.  It runs in the ring K[x]/(f), a table-free ``_Field``, whose
    product and inverse need no irreducible modulus."""
    n = len(poly) - 1
    if n <= 1:
        return n == 1
    ring = _Field(base.p, base, poly, use_tables=False)
    x = h = base.order      # the packed x
    frob = [x]              # frob[i] = x^(q^i)
    for _ in range(n):
        h = _pow(ring._mul_raw, h, base.order)
        frob.append(h)
    if frob[n] != x:
        return False
    try:
        for r in _prime_factors(n):
            ring._inv_raw(ring.sub(frob[n // r], x))
    except ZeroDivisionError:
        return False
    return True


def _find_irreducible_fq(base, n: int) -> tuple[int, ...]:
    """The first monic irreducible of degree n over K = ``base`` in
    ascending packed order.  One exists in every degree: Gauss's count
    (1/n) sum_{d | n} mu(d) q^(n/d) of them is positive."""
    cands = (_digits(packed, base.order, n) + [1] for packed in range(base.order**n))
    return tuple(next(c for c in cands if _fq_is_irreducible(base, c)))


def _modulus(coef, order: int, degree: int, modulus, name: str) -> tuple[int, ...]:
    """The modulus of K[x]/(m), K = ``coef`` of ``order`` elements (None for
    F_p itself).  With no ``modulus``, the default: x over F_p, else the
    first monic irreducible of ``degree`` in ascending packed order.  A
    supplied one is returned as given, after checking that it is monic of
    ``degree`` with int coefficients in 0..order-1 and, over a coefficient
    field, irreducible (Rabin's test); ValueError names it ``name``."""
    if modulus is None:
        # x is the first monic polynomial of degree 1
        return (0, 1) if coef is None else _find_irreducible_fq(coef, degree)
    modulus = tuple(modulus)
    if len(modulus) != degree + 1 or modulus[-1] != 1:
        raise ValueError(f"modulus {name} must be monic of degree {degree}")
    if any(type(c) is not int or not 0 <= c < order for c in modulus):
        raise ValueError(f"modulus {name} must have int coefficients in 0..{order - 1}")
    if coef is not None and not _fq_is_irreducible(coef, modulus):
        raise ValueError(f"modulus {name} is reducible over F_{order}")
    return modulus


# ---------------------------------------------------------------------------
# the field construction K[x]/(m), shared by F_q and F_{q^n}

class _Field:
    """K[x]/(modulus) acting on packed integer elements in [0, order).

    ``coef`` is the coefficient field K, or ``None`` for F_p itself, whose
    elements are residues and need no polynomial.  An element with
    coefficients (c_0, ..., c_{d-1}) over K is sum(c_i * |K|**i).

    With ``use_tables=False`` nothing assumes the modulus is irreducible:
    the instance is then also the ring K[x]/(m) of a reducible m, where
    ``_inv_raw`` raises ZeroDivisionError on a non-unit.
    """

    def __init__(self, p: int, coef, modulus, use_tables: bool = True):
        self.p = p
        self._char2 = p == 2     # addition is xor
        self.modulus = tuple(modulus)
        self._coef = coef
        self._degree = len(self.modulus) - 1
        self._radix = p if coef is None else coef.order
        self.order = self._radix**self._degree
        self.zero = 0
        self.one = 1
        self._exp = self._log = self._zech = None
        # the modulus as one int with bit i for x^i, for the xor product
        self._bits = _pack(self.modulus, 2) if self._radix == 2 else None
        # the nonzero terms (j, -m_j) of x^d = -(m_0 + ... + m_(d-1) x^(d-1)),
        # which fold x^k, k >= d, in the digit product on a radix above 2
        self._fold = None if coef is None else tuple(
            (j, coef.neg(c)) for j, c in enumerate(self.modulus[:-1]) if c)
        if use_tables:
            self._exp, self._log, self._zech = _exp_log_tables(
                self.order, self._mul_raw, p)
        # log(-1): -1 = g^((order - 1)/2) for odd p
        self._half = (self.order - 1) // 2

    # -- raw polynomial arithmetic -------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        if self._coef is None:
            return (a * b) % self.p
        r, d = self._radix, self._degree
        if r == 2:
            # carry-less shift-xor product, reduced as it goes: the bit
            # of x^d in a is cleared by the modulus
            m = self._bits
            out = 0
            while b:
                if b & 1:
                    out ^= a
                b >>= 1
                a <<= 1
                if a >> d:
                    a ^= m
            return out
        # schoolbook product on the digits over K, nonzero digit against
        # nonzero digit, with K's own add and mul; each x^k with k >= d is
        # folded down by the nonzero terms of x^d
        add, mul = self._coef.add, self._coef.mul
        bd = _nonzero_digits(b, r)
        prod = [0] * (2 * d - 1)
        for i, x in _nonzero_digits(a, r):
            for j, y in bd:
                prod[i + j] = add(prod[i + j], mul(x, y))
        fold = self._fold
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c:
                for j, m in fold:
                    prod[k - d + j] = add(prod[k - d + j], mul(c, m))
        return _pack(prod[:d], r)

    def _inv_raw(self, a: int) -> int:
        # only table-free instances get here, fields or rings K[x]/(m) of a
        # reducible m (class docstring), and all have a coefficient field
        if self._radix == 2:
            # extended Euclid in F_2[x] on the packed ints, each step a
            # shift-xor; r_i = s_i * a mod the modulus throughout
            r0, r1, s0, s1 = self._bits, a, 0, 1
            while r1:
                d = r1.bit_length()
                while r0.bit_length() >= d:
                    shift = r0.bit_length() - d
                    r0 ^= r1 << shift
                    s0 ^= s1 << shift
                r0, r1, s0, s1 = r1, r0, s1, s0
            if r0 != 1:
                raise ZeroDivisionError("element is not invertible modulo f")
            return s0
        # the same Euclid on little-endian digit lists over K: each step pops
        # the leading digit of r0, cleared by r0 -= c x^shift r1, and does
        # s0 -= c x^shift s1
        coef = self._coef
        sub, mul = coef.sub, coef.mul
        r0, r1 = list(self.modulus), _digits(a, self._radix, self._degree)
        while r1 and not r1[-1]:
            r1.pop()
        s0, s1 = [], [1]
        while r1:
            d, low = len(r1), r1[:-1]
            lead = coef.inv(r1[-1])
            while len(r0) >= d:
                c = mul(r0.pop(), lead)
                if c:
                    shift = len(r0) + 1 - d
                    for j, y in enumerate(low):
                        r0[shift + j] = sub(r0[shift + j], mul(c, y))
                    s0 += [0] * (shift + len(s1) - len(s0))
                    for j, y in enumerate(s1):
                        s0[shift + j] = sub(s0[shift + j], mul(c, y))
            while r0 and not r0[-1]:
                r0.pop()
            r0, r1, s0, s1 = r1, r0, s1, s0
        if len(r0) != 1:
            raise ZeroDivisionError("element is not invertible modulo f")
        c = coef.inv(r0[0])
        return _pack([mul(c, x) for x in s0], self._radix)

    def _digitwise(self, a: int, b: int, sign: int) -> int:
        """a + sign * b on the base-p digits, for an odd-p field without
        Zech tables."""
        p = self.p
        out = 0
        place = 1
        while a or b:
            a, ra = divmod(a, p)
            b, rb = divmod(b, p)
            out += ((ra + sign * rb) % p) * place
            place *= p
        return out

    # -- field operations ------------------------------------------------------
    #
    # With Zech logs, log(a + b) = log a + zech[log b - log a] and
    # log(-b) = log b + half.

    def add(self, a: int, b: int) -> int:
        if self._char2:
            return a ^ b
        p = self.p
        if self.order == p:
            return (a + b) % p
        zech = self._zech
        if zech is not None:
            if not a:
                return b
            if not b:
                return a
            log = self._log
            la = log[a]
            z = zech[log[b] - la]
            return self._exp[la + z] if z >= 0 else 0
        return self._digitwise(a, b, 1)

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def sub(self, a: int, b: int) -> int:
        if self._char2:
            return a ^ b
        p = self.p
        if self.order == p:
            return (a - b) % p
        zech = self._zech
        if zech is not None:
            if not b:
                return a
            log = self._log
            lb = log[b] + self._half
            if not a:
                return self._exp[lb]
            la = log[a]
            z = zech[lb - la]
            return self._exp[la + z] if z >= 0 else 0
        return self._digitwise(a, b, -1)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in {self!r}")
        if self._exp is not None:
            return self._exp[self.order - 1 - self._log[a]]
        return self._inv_raw(a)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    # -- list-wise operations, for passes over many elements -------------------

    def add_each(self, values, b: int) -> list[int]:
        """[a + b for a in values] under the rules of ``add``, with no method
        call per element where the field allows it: xor for p = 2, the Zech
        lookup inlined for odd p with tables, ``add`` otherwise."""
        if self._char2:
            return [a ^ b for a in values]
        zech = self._zech
        if zech is None:
            add = self.add
            return [add(a, b) for a in values]
        if not b:
            return list(values)
        exp, log = self._exp, self._log
        lb = log[b]
        # a + b = b(1 + a/b), so log(a + b) = log b + zech[log a - log b]
        return [(exp[lb + z] if (z := zech[log[a] - lb]) >= 0 else 0) if a else b
                for a in values]

    def div_many(self, nums, dens) -> list[int]:
        """[a / b for a, b in zip(nums, dens)], every b nonzero.  With tables
        each quotient is exp[log a - log b]; ``exp`` has length
        2(order - 1), so a negative index wraps to the same power of the
        generator.  A table-free field maps ``div``."""
        if self._exp is None:
            return list(map(self.div, nums, dens))
        exp, log = self._exp, self._log
        return [exp[log[a] - log[b]] if a else 0 for a, b in zip(nums, dens)]

    def pow(self, a: int, m: int) -> int:
        if a == 0:
            if m == 0:
                return 1
            if m < 0:
                raise ZeroDivisionError(f"negative power of zero in {self!r}")
            return 0
        # a^(order - 1) = 1, so any m, negative too, reduces mod order - 1
        return _pow(self.mul, a, m % (self.order - 1))

    def is_square(self, a: int) -> bool:
        """Quadratic residue test; trivially true in characteristic 2."""
        if self.p == 2 or a == 0:
            return True
        return self.pow(a, (self.order - 1) // 2) == 1

    def elements(self):
        return range(self.order)

    def units(self):
        return range(1, self.order)

    def coeffs(self, a: int) -> tuple[int, ...]:
        return tuple(_digits(a, self._radix, self._degree))

    def from_coeffs(self, cs) -> int:
        cs = list(cs)
        if len(cs) != self._degree or any(type(c) is not int or not 0 <= c < self._radix
                                          for c in cs):
            raise ValueError(f"bad coefficient vector for {self!r} element")
        return _pack(cs, self._radix)


# ---------------------------------------------------------------------------
# inner loops over many entries: the callables a caller loops with, chosen
# once per loop from the field, so that no caller tests the field itself

def _add_of(field):
    """``field.add`` as a callable for inner loops: the builtin xor in
    characteristic 2, where add and sub are both xor, else the method."""
    return xor if field._char2 else field.add


def _sub_of(field):
    """``field.sub`` as a callable for inner loops (see ``_add_of``)."""
    return xor if field._char2 else field.sub


class BaseField(_Field):
    """F_q = F_p[y]/(g) acting on packed integer elements in [0, q).

    ``modulus`` is the little-endian coefficient tuple of g (length e + 1,
    monic, coefficients in 0..p-1).  Omitting it picks the first monic
    irreducible of degree e in ascending packed-coefficient order
    (``_modulus``).

    F_q always runs on its tables, so a q above ``ExtField.TABLE_LIMIT`` is
    refused with ValueError before any table is built; ``sqrt`` reads its
    logs.
    """

    def __init__(self, p: int, e: int = 1, modulus=None):
        if e < 1:
            raise ValueError("extension degree e must be >= 1")
        limit = ExtField.TABLE_LIMIT
        # p >= 2, so p**e > limit once e reaches the bit length of limit
        if p**min(e, limit.bit_length()) > limit:
            raise ValueError(f"q = {p}^{e} exceeds the base field limit {limit}")
        if _prime_factors(p) != (p,):
            raise ValueError(f"p = {p} is not prime")
        prime = BaseField(p) if e > 1 else None
        super().__init__(p, prime, _modulus(prime, p, e, modulus, "g"))
        self.e = e
        self.q = self.order

    def __repr__(self):
        return f"BaseField(p={self.p}, e={self.e})"

    def sqrt(self, a: int) -> int:
        """The smaller of the square roots r, -r of a, read off the logs.

        For odd p the squares are the even logs, and an odd log raises
        ValueError.  In characteristic 2 the unit group has odd order
        q - 1, so every log halves modulo q - 1."""
        if not a:
            return 0
        la = self._log[a]
        if la % 2 and not self._char2:
            raise ValueError(f"{a} is not a square in F_{self.q}")
        r = self._exp[(la + la % 2 * (self.q - 1)) // 2]
        return min(r, self.neg(r))


class ExtField(_Field):
    """F_{q^n} = F_q[x]/(f) acting on packed integer elements in [0, q^n)."""

    TABLE_LIMIT = 1 << 16

    def __init__(self, base: BaseField, n: int, modulus=None,
                 use_tables: bool | None = None):
        if n < 1:
            raise ValueError("extension degree n must be >= 1")
        if use_tables is None:
            use_tables = base.q**n <= self.TABLE_LIMIT
        super().__init__(base.p, base, _modulus(base, base.q, n, modulus, "f"),
                         use_tables)
        self.base = base
        self.n = n
        self.q = base.q
        self._frob_exp = [pow(self.q, i, self.order - 1) for i in range(n)]
        # row j holds log((x^j)^(q^i)) for i < n, the logs that the images
        # of the polynomial basis under a q-polynomial are read from
        # (``qpoly._basis_images``)
        self._basis_frob_logs = None if self._exp is None else [
            [self._log[self.q**j] * fe % (self.order - 1) for fe in self._frob_exp]
            for j in range(n)]
        self._trace_rows = self._trace_functional()

    def __repr__(self):
        return f"ExtField(q={self.q}, n={self.n})"

    def _trace_functional(self) -> list:
        """Row s gives digit s of Tr(a) in F_q from the base-p digits of a:
        digit i e + t of a is coefficient t of a_i, and a_i = sum_t a_it y^t
        gives Tr(a) = sum_i a_i Tr(x^i), so its weight is digit s of
        y^t Tr(x^i).  A row is a bit mask for p = 2, else a list.

        Tr(x^i) is the power sum P_i of the roots of f = x^n + c_(n-1)
        x^(n-1) + ... + c_0, the conjugates of x: P_0 = n and, by Newton's
        identities, P_k = -(k c_(n-k) + sum_(0<i<k) c_(n-i) P_(k-i))."""
        base, n, p, e = self.base, self.n, self.p, self.base.e
        c = self.modulus
        sums = [n % p]
        for k in range(1, n):
            acc = base.mul(k % p, c[n - k])
            for i in range(1, k):
                acc = base.add(acc, base.mul(c[n - i], sums[k - i]))
            sums.append(base.neg(acc))
        weights = [base.coeffs(base.mul(p**t, s_i)) for s_i in sums for t in range(e)]
        rows = [[w[s] for w in weights] for s in range(e)]
        return [_pack(row, 2) for row in rows] if p == 2 else rows

    def frobenius(self, a: int, i: int = 1) -> int:
        """a^(q^i); i is reduced mod n since Frobenius has order n."""
        i %= self.n
        if i == 0 or a == 0:
            return a
        if self._exp is not None:
            return self._exp[(self._log[a] * self._frob_exp[i]) % (self.order - 1)]
        return _pow(self._mul_raw, a, self._frob_exp[i])

    def trace(self, a: int) -> int:
        """Tr(a) = a + a^q + ... + a^(q^(n-1)), a packed F_q value: the
        F_p-linear functional of ``_trace_rows`` on the base-p digits of a,
        one and plus a popcount parity per digit of Tr(a) over F_2."""
        if self._char2:
            return _pack([(a & m).bit_count() & 1 for m in self._trace_rows], 2)
        p = self.p
        digits = _digits(a, p, self.n * self.base.e)
        return _pack([sum(map(operator.mul, digits, row)) % p
                      for row in self._trace_rows], p)

    def norm(self, a: int) -> int:
        """N(a) = a * a^q * ... * a^(q^(n-1)) = a^((q^n-1)/(q-1)), in F_q
        since N(a)^(q-1) = a^(q^n-1) = 1 for a != 0 (and N(0) = 0)."""
        return self.pow(a, (self.order - 1) // (self.q - 1))


def make_field(p: int, e: int, n: int, g=None, f=None) -> ExtField:
    """Build the tower F_p <= F_{p^e} <= F_{p^(e*n)} with optional moduli."""
    return ExtField(BaseField(p, e, g), n, f)


# ---------------------------------------------------------------------------
# JSON forms: little-endian coefficient vectors, plain decimal ints per F_p
# coefficient.  An F_q value is a list of e ints; an F_{q^n} value a list of
# n such lists.

def field_to_json(field: ExtField) -> dict:
    return {
        "p": field.base.p,
        "e": field.base.e,
        "g": list(field.base.modulus),
        "n": field.n,
        "f": [list(field.base.coeffs(c)) for c in field.modulus],
    }


def field_from_json(doc: dict) -> ExtField:
    """The field of ``field_to_json``; ValueError unless p, e and n are
    ints, g is a list and f a list of lists, which are taken as they are."""
    for key, want in (("p", int), ("e", int), ("n", int), ("g", list), ("f", list)):
        if type(doc[key]) is not want:
            raise ValueError(f"field {key} must be {want.__name__}, not {doc[key]!r}")
    if any(type(c) is not list for c in doc["f"]):
        raise ValueError(f"field f must be a list of coefficient lists, not {doc['f']!r}")
    base = BaseField(doc["p"], doc["e"], doc["g"])
    return ExtField(base, doc["n"], [base.from_coeffs(c) for c in doc["f"]])


def ext_to_json(field: ExtField, a: int) -> list[list[int]]:
    return [list(field.base.coeffs(c)) for c in field.coeffs(a)]


def ext_from_json(field: ExtField, data) -> int:
    """The element of ``ext_to_json``; ValueError unless ``data`` is a list
    of n coefficient lists."""
    if type(data) is not list or any(type(c) is not list for c in data):
        raise ValueError(f"an element of {field!r} must be a list of "
                         f"{field.n} coefficient lists, not {data!r}")
    return field.from_coeffs(tuple(field.base.from_coeffs(c) for c in data))
