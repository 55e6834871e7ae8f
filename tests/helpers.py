"""Shared fixtures-by-function for the test suite: cached fields/setups and
seeded random object builders (kept deterministic via RngStream)."""

from functools import lru_cache

from symrank import QPoly, RngStream, SymSetup, make_field


@lru_cache(maxsize=None)
def get_field(p: int, e: int, n: int):
    return make_field(p, e, n)


@lru_cache(maxsize=None)
def get_setup(p: int, e: int, n: int) -> SymSetup:
    return SymSetup(get_field(p, e, n))


def field_size(field) -> int:
    return field.order


def rand_elt(field, rng: RngStream) -> int:
    return rng.randbelow(field_size(field))


def rand_unit(field, rng: RngStream) -> int:
    return 1 + rng.randbelow(field_size(field) - 1)


def rand_qpoly(field, rng: RngStream) -> QPoly:
    return QPoly(field, [rng.randbelow(field.order) for _ in range(field.n)])


def rand_nonzero_qpoly(field, rng: RngStream) -> QPoly:
    while True:
        poly = rand_qpoly(field, rng)
        if not poly.is_zero():
            return poly
