"""Arithmetic in small Galois fields GF(p^h) backed by dense lookup tables.

Elements are encoded as integers 0..q-1: the base-p digits of the code are
the coefficients of the representing polynomial (digit i = coefficient of
x^i).  0 encodes zero and 1 encodes one.  Addition, multiplication, negation
and inversion are all precomputed at construction time, so a Field is a
bundle of numpy arrays that vectorized code indexes directly.  The tables
are linear algebra over GF(p) on the digit vectors: addition and negation
digit by digit, multiplication by the matrix of each element, a polynomial
in the companion matrix of the modulus.  The inverse rows are the only
irreducibility test: a modulus is irreducible exactly when every nonzero
element has one inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

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


# Miller-Rabin with the primes 2..41 as bases decides primality exactly
# below MR_BOUND (Sorenson & Webster 2015)
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin.  A witness proves n composite at any
    size; an n at or above MR_BOUND that no base witnesses is refused."""
    if n < 2 or any(n % b == 0 for b in MR_BASES):
        return n in MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    for b in MR_BASES:
        x = pow(b, (n - 1) >> s, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_BOUND:
        raise ValueError(f"{n} passes Miller-Rabin with bases 2..41, which decides"
                         f" primality only below {MR_BOUND}")
    return True


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


def _mul_table(digits: np.ndarray, p: int, modulus: tuple) -> np.ndarray:
    """Products of all element pairs modulo the monic modulus.

    Multiplication by x acts on digit vectors by the companion matrix C of
    the modulus, so element x acts by M_x = sum_i digits[x, i] C^i and the
    digits of x*y are M_x digits[y] (mod p)."""
    h = digits.shape[1]
    companion = np.eye(h, k=-1, dtype=np.int64)  # x * x^i = x^(i+1), and
    companion[:, -1] = np.negative(modulus[:h]) % p  # x^h = -sum_i m_i x^i
    acting, power = 0, np.eye(h, dtype=np.int64)
    for i in range(h):
        acting = acting + digits[:, i, None, None] * power
        power = companion @ power % p
    return p ** np.arange(h) @ (acting @ digits.T % p)


def field_new(p: int, h: int) -> Field:
    """Construct GF(p^h) with full operation tables.

    Raises NonPrimeCharacteristic / OrderTooLarge on bad input.  The
    modulus comes from a fixed table when available, otherwise it is the
    first monic polynomial in code order (constant coefficient least
    significant) whose multiplication table gives every nonzero element
    one inverse, that is, the first irreducible one; either way the
    element enumeration is deterministic across runs.
    """
    # p^h > MAX_ORDER for these; refused before the primality test or p ** h
    if p > MAX_ORDER or (p >= 2 and h > MAX_ORDER.bit_length()):
        raise OrderTooLarge(f"p^h = {p}^{h} exceeds the bound {MAX_ORDER}")
    if not _is_prime(p):
        raise NonPrimeCharacteristic(f"{p} is not prime")
    if h < 1:
        raise OrderTooLarge(f"extension degree must be >= 1, got {h}")
    q = p ** h
    if q > MAX_ORDER:
        raise OrderTooLarge(f"p^h = {q} exceeds the bound {MAX_ORDER}")

    digits = np.arange(q)[:, None] // p ** np.arange(h) % p  # digit i: coefficient of x^i
    encode = p ** np.arange(h)
    add = ((digits[:, None] + digits[None]) % p @ encode).astype(np.int16)
    neg = (-digits % p @ encode).astype(np.int16)
    if (p, h) in _MODULI:
        candidates = [_MODULI[p, h]]
    else:  # for h = 1 the first candidate, x, is the modulus
        candidates = (tuple(d) + (1,) for d in digits.tolist())
    for modulus in candidates:
        mul = _mul_table(digits, p, modulus).astype(np.int16)
        ones = mul[1:] == 1
        if (ones.sum(axis=1) == 1).all():
            inv = np.concatenate(([0], ones.argmax(axis=1))).astype(np.int16)
            return Field(p=p, h=h, q=q, modulus=modulus, add=add, mul=mul, neg=neg, inv=inv)
    raise AssertionError(f"modulus {modulus} is not irreducible over GF({p})")


def factor_prime_power(q: int) -> tuple:
    """q -> (p, h) with q = p^h, p prime; raises ValueError otherwise.

    q = p^k is an exact h-th power only for h | k, so the largest h with an
    exact integer root, found by bisection, is k, and that root is p."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    for h in range(q.bit_length(), 1, -1):
        lo, hi = 1, 1 << -(-q.bit_length() // h)  # lo^h <= q < hi^h
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if mid ** h <= q else (lo, mid)
        if lo ** h == q:
            break
    else:
        lo, h = q, 1
    if not _is_prime(lo):
        raise ValueError(f"q = {q} is not a prime power")
    return lo, h


def factor_field_order(q: int) -> tuple:
    """(p, h) of a field order q; a q over the bound is refused unfactored."""
    if q > MAX_ORDER:
        raise OrderTooLarge(f"p^h = {q} exceeds the bound {MAX_ORDER}")
    return factor_prime_power(q)


def subfield(field: Field) -> list:
    """The sqrt(q)-order subfield as a sorted list of element codes.

    Computed as the fixed points of the Frobenius power x -> x^sqrt(q);
    requires even extension degree.
    """
    if field.h % 2 != 0:
        raise OddDegree(f"GF({field.q}) has odd degree {field.h}; no Baer subfield")
    root = field.p ** (field.h // 2)
    return sorted(x for x in range(field.q) if field.pow(x, root) == x)
