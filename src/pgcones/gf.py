"""Arithmetic in small Galois fields GF(p^h) backed by dense lookup tables.

Elements are encoded as integers 0..q-1: the base-p digits of the code are
the coefficients of the representing polynomial (digit i = coefficient of
x^i).  0 encodes zero and 1 encodes one.  Addition, multiplication, negation
and inversion are all precomputed at construction time, so a Field is a
bundle of numpy arrays that vectorized code indexes directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import isqrt

import numpy as np

from .errors import NonPrimeCharacteristic, OddDegree, OrderTooLarge

MAX_ORDER = 128  # largest field order q = p^h

# Irreducible moduli for the extension fields the test suites exercise,
# coefficient lists in increasing degree (constant term first, monic).
# Keeping these fixed makes the element enumeration reproducible.
_MODULI = {
    (2, 2): (1, 1, 1),                # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),             # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),          # x^4 + x + 1
    (2, 5): (1, 0, 1, 0, 0, 1),       # x^5 + x^2 + 1
    (2, 6): (1, 1, 0, 1, 1, 0, 1),    # x^6 + x^4 + x^3 + x + 1
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1), # x^7 + x + 1
    (3, 2): (2, 2, 1),                # x^2 + 2x + 2
    (3, 3): (1, 2, 0, 1),             # x^3 + 2x + 1
    (3, 4): (2, 0, 0, 2, 1),          # x^4 + 2x^3 + 2
    (5, 2): (2, 4, 1),                # x^2 + 4x + 2
}


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _poly_mul_mod(a: tuple, b: tuple, p: int) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_mod(a: list, m: tuple, p: int) -> tuple:
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - 1 - dm
        factor = a[-1]  # m is monic
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * mi) % p
        while len(a) > 1 and a[-1] == 0:
            a.pop()
    return tuple(a)


def _find_irreducible(p: int, h: int) -> tuple:
    """Smallest monic irreducible of degree h over GF(p), by brute division."""
    def polys(deg, monic):
        for code in range(p ** deg):
            digits = []
            c = code
            for _ in range(deg):
                digits.append(c % p)
                c //= p
            yield tuple(digits) + ((1,) if monic else ())

    low = [f for d in range(1, h // 2 + 1) for f in polys(d, True)]
    for cand in polys(h, True):
        if all(_poly_mod(list(cand), f, p) != (0,) for f in low):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


@dataclass(frozen=True)
class Field:
    """GF(p^h) with dense add/mul/neg/inv tables."""

    p: int
    h: int
    q: int
    modulus: tuple
    add: np.ndarray = dc_field(repr=False)
    mul: np.ndarray = dc_field(repr=False)
    neg: np.ndarray = dc_field(repr=False)
    inv: np.ndarray = dc_field(repr=False)

    def pow(self, x: int, e: int) -> int:
        """x**e by square-and-multiply over the tables (e >= 0)."""
        result, base = 1, x
        while e:
            if e & 1:
                result = int(self.mul[result, base])
            base = int(self.mul[base, base])
            e >>= 1
        return result

    def __repr__(self):
        return f"Field(GF({self.q}))"


def _digits(x: int, p: int, h: int) -> tuple:
    out = []
    for _ in range(h):
        out.append(x % p)
        x //= p
    return tuple(out)


def _encode(digits, p: int) -> int:
    out = 0
    for d in reversed(digits):
        out = out * p + d
    return out


def field_new(p: int, h: int) -> Field:
    """Construct GF(p^h) with full operation tables.

    Raises NonPrimeCharacteristic / OrderTooLarge on bad input.  For h >= 2
    the modulus comes from a fixed table when available, otherwise the
    lexicographically smallest irreducible is used; either way the element
    enumeration is deterministic across runs.
    """
    # p^h > MAX_ORDER for these; refused before trial division or p ** h
    if p > MAX_ORDER or (p >= 2 and h > MAX_ORDER.bit_length()):
        raise OrderTooLarge(f"p^h = {p}^{h} exceeds the bound {MAX_ORDER}")
    if not _is_prime(p):
        raise NonPrimeCharacteristic(f"{p} is not prime")
    if h < 1:
        raise OrderTooLarge(f"extension degree must be >= 1, got {h}")
    q = p ** h
    if q > MAX_ORDER:
        raise OrderTooLarge(f"p^h = {q} exceeds the bound {MAX_ORDER}")

    if h == 1:
        modulus = (0, 1)  # x; unused for prime fields
    else:
        modulus = _MODULI.get((p, h)) or _find_irreducible(p, h)

    add = np.zeros((q, q), dtype=np.int16)
    mul = np.zeros((q, q), dtype=np.int16)
    neg = np.zeros(q, dtype=np.int16)
    inv = np.zeros(q, dtype=np.int16)

    digs = [_digits(x, p, h) for x in range(q)]
    for x in range(q):
        neg[x] = _encode(tuple((-d) % p for d in digs[x]), p)
        for y in range(x, q):
            s = _encode(tuple((a + b) % p for a, b in zip(digs[x], digs[y])), p)
            add[x, y] = add[y, x] = s
            if h == 1:
                m = (x * y) % p
            else:
                m = _encode(_poly_mod(list(_poly_mul_mod(digs[x], digs[y], p)), modulus, p), p)
            mul[x, y] = mul[y, x] = m

    for x in range(1, q):
        row = np.nonzero(mul[x] == 1)[0]
        if row.size != 1:
            raise AssertionError(f"modulus {modulus} is not irreducible over GF({p})")
        inv[x] = row[0]

    return Field(p=p, h=h, q=q, modulus=modulus, add=add, mul=mul, neg=neg, inv=inv)


def factor_prime_power(q: int) -> tuple:
    """q -> (p, h) with q = p^h, p prime; raises ValueError otherwise."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    h, rem = 0, q
    while rem % p == 0:
        rem //= p
        h += 1
    if rem != 1:
        raise ValueError(f"q = {q} is not a prime power")
    return p, h


def subfield(field: Field) -> list:
    """The sqrt(q)-order subfield as a sorted list of element codes.

    Computed as the fixed points of the Frobenius power x -> x^sqrt(q);
    requires even extension degree.
    """
    if field.h % 2 != 0:
        raise OddDegree(f"GF({field.q}) has odd degree {field.h}; no Baer subfield")
    root = field.p ** (field.h // 2)
    return sorted(x for x in range(field.q) if field.pow(x, root) == x)
