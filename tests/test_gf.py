import itertools
import math

import numpy as np
import pytest

from pgcones import field_new, subfield
from pgcones.gf import (_MODULI, MAX_ORDER, MR_BOUND, _is_prime, factor_field_order,
                        factor_prime_power)
from pgcones.errors import NonPrimeCharacteristic, OddDegree, OrderTooLarge


def test_gf2_basics():
    f = field_new(2, 1)
    assert f.q == 2
    assert f.add[1, 1] == 0
    assert f.mul[1, 1] == 1


def test_gf4_frobenius_fixes_prime_field():
    f = field_new(2, 2)
    fixed = [x for x in range(4) if f.mul[x, x] == x]
    assert fixed == [0, 1]


def test_gf16_subfield_is_gf4():
    f = field_new(2, 4)
    # exhaustive: the fixed points of x -> x^4
    fixed = [x for x in range(16) if f.pow(x, 4) == x]
    assert len(fixed) == 4
    assert subfield(f) == fixed


@pytest.mark.parametrize("p,h", [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (2, 4)])
def test_field_axioms_exhaustive(p, h):
    f = field_new(p, h)
    q = f.q
    for x, y in itertools.product(range(q), repeat=2):
        assert f.add[x, y] == f.add[y, x]
        assert f.mul[x, y] == f.mul[y, x]
        assert f.add[x, f.neg[x]] == 0
    for x, y, z in itertools.product(range(q), repeat=3):
        assert f.add[f.add[x, y], z] == f.add[x, f.add[y, z]]
        assert f.mul[f.mul[x, y], z] == f.mul[x, f.mul[y, z]]
        assert f.mul[x, f.add[y, z]] == f.add[f.mul[x, y], f.mul[x, z]]
    for x in range(1, q):
        assert f.mul[x, f.inv[x]] == 1


@pytest.mark.parametrize("p,h", [(2, 2), (2, 4), (3, 2), (5, 2)])
def test_frobenius_is_homomorphism(p, h):
    f = field_new(p, h)
    frob = [f.pow(x, p) for x in range(f.q)]
    for x, y in itertools.product(range(f.q), repeat=2):
        assert frob[f.add[x, y]] == f.add[frob[x], frob[y]]
        assert frob[f.mul[x, y]] == f.mul[frob[x], frob[y]]


def test_subfield_sizes_and_closure():
    assert subfield(field_new(2, 2)) == [0, 1]
    f9 = field_new(3, 2)
    s9 = subfield(f9)
    assert len(s9) == 3
    f16 = field_new(2, 4)
    s16 = set(subfield(f16))
    for x, y in itertools.product(s16, repeat=2):
        assert int(f16.add[x, y]) in s16
        assert int(f16.mul[x, y]) in s16


def test_subfield_is_itself_a_field():
    f = field_new(2, 4)
    s = subfield(f)
    nonzero = [x for x in s if x]
    for x in nonzero:
        assert int(f.inv[x]) in s


def test_errors():
    with pytest.raises(NonPrimeCharacteristic):
        field_new(4, 1)
    with pytest.raises(OrderTooLarge):
        field_new(2, 8)
    with pytest.raises(OddDegree):
        subfield(field_new(2, 3))


@pytest.mark.parametrize("q,want", [(1_000_000_007, (1_000_000_007, 1)), (3 ** 19, (3, 19)),
                                    (2, (2, 1)), (49, (7, 2)), (2 ** 100, (2, 100)),
                                    ((10 ** 9 + 7) ** 2, (10 ** 9 + 7, 2))])
def test_factor_prime_power(q, want):
    # a large prime is its own first exact root, at h = 1
    assert factor_prime_power(q) == want


@pytest.mark.parametrize("q", [1_000_003 * 1_000_033, 1, 12, 3 * (10 ** 18 + 3)])
def test_factor_prime_power_rejects_other_numbers(q):
    with pytest.raises(ValueError):
        factor_prime_power(q)


def test_factor_field_order_refuses_an_order_over_the_bound_before_factoring():
    assert factor_field_order(MAX_ORDER) == (2, 7)
    # factoring (2^89 - 1)^2 would end in the primality test's ValueError
    q = (2 ** 89 - 1) ** 2
    with pytest.raises(OrderTooLarge, match=rf"^p\^h = {q} exceeds the bound {MAX_ORDER}$"):
        factor_field_order(q)


def _factor_or_none(q):
    try:
        return factor_prime_power(q)
    except ValueError:
        return None


def test_factor_prime_power_agrees_with_trial_division():
    # the smallest prime factor from a sieve, divided out as often as it goes
    limit = 10 ** 5
    spf = np.zeros(limit, dtype=np.int64)
    for d in range(2, limit):
        if spf[d] == 0:
            spf[d::d][spf[d::d] == 0] = d
    want = []
    for q in range(2, limit):
        p, h, rem = int(spf[q]), 0, q
        while rem % p == 0:
            rem //= p
            h += 1
        want.append((p, h) if rem == 1 else None)
    assert [_factor_or_none(q) for q in range(2, limit)] == want


def test_primality_is_exact_below_the_miller_rabin_bound():
    # 318665857834031151167461 is a strong pseudoprime to the bases 2..37,
    # and MR_BOUND itself to 2..41; 2^89 - 1 is a prime above the bound
    assert not _is_prime(318_665_857_834_031_151_167_461)
    assert _is_prime(10 ** 18 + 3) and _is_prime(2 ** 61 - 1)
    assert not _is_prime(3 * (10 ** 18 + 3))
    for n in (MR_BOUND, 2 ** 89 - 1):
        with pytest.raises(ValueError, match=f"only below {MR_BOUND}"):
            _is_prime(n)
    with pytest.raises(ValueError, match=f"only below {MR_BOUND}"):
        factor_prime_power((2 ** 89 - 1) ** 2)


def test_enumeration_deterministic():
    a = field_new(2, 4)
    b = field_new(2, 4)
    assert (a.mul == b.mul).all()
    assert a.modulus == b.modulus


def test_untabled_order_finds_irreducible():
    f = field_new(7, 2)
    assert f.q == 49
    assert all(f.mul[x, f.inv[x]] == 1 for x in range(1, 49))


def _prime_powers(limit):
    for q in range(2, limit + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        h = round(math.log(q, p))
        if p ** h == q:
            yield p, h


def _schoolbook_mul(dx, dy, modulus, p):
    """Digit rows (constant term first) of the products x*y, by convolution
    and long division by the monic modulus."""
    h = dx.shape[1]
    prod = np.zeros((len(dx), 2 * h - 1), dtype=np.int64)
    for i in range(h):
        for j in range(h):
            prod[:, i + j] += dx[:, i] * dy[:, j]
    prod %= p
    m = np.array(modulus, dtype=np.int64)
    for top in range(2 * h - 2, h - 1, -1):
        factor = prod[:, top].copy()
        prod[:, top - h:top + 1] = (prod[:, top - h:top + 1] - factor[:, None] * m) % p
    return prod[:, :h]


def _smallest_irreducible(p, h):
    """First monic degree-h polynomial in code order (constant coefficient
    least significant) without a root in GF(p): irreducible for h <= 3."""
    assert h <= 3
    for code in range(p ** h):
        coeffs = [(code // p ** i) % p for i in range(h)] + [1]
        if all(sum(c * x ** i for i, c in enumerate(coeffs)) % p for x in range(p)):
            return tuple(coeffs)


def test_field_tables_match_schoolbook_arithmetic():
    # pins the element encoding of every field up to the order bound:
    # all pairs for q <= 32, a seeded sample of pairs above that
    fields = list(_prime_powers(MAX_ORDER))
    assert len(fields) == 44
    rng = np.random.default_rng(20221)
    for p, h in fields:
        f = field_new(p, h)
        q = p ** h
        if h == 1:
            assert f.modulus == (0, 1)
        elif (p, h) in _MODULI:
            assert f.modulus == _MODULI[(p, h)]
        else:
            assert q in (49, 121, 125)
            assert f.modulus == _smallest_irreducible(p, h)
        digits = (np.arange(q)[:, None] // p ** np.arange(h)) % p
        if q <= 32:
            x, y = (a.ravel() for a in np.meshgrid(np.arange(q), np.arange(q)))
        else:
            x, y = rng.integers(0, q, size=(2, 1500))
        encode = p ** np.arange(h)
        want_mul = _schoolbook_mul(digits[x], digits[y], f.modulus, p) @ encode
        want_add = ((digits[x] + digits[y]) % p) @ encode
        assert (f.mul[x, y] == want_mul).all(), (p, h)
        assert (f.add[x, y] == want_add).all(), (p, h)
        assert (f.neg == ((-digits) % p) @ encode).all(), (p, h)
        nonzero = np.arange(1, q)
        assert (f.mul[nonzero, f.inv[nonzero]] == 1).all(), (p, h)


def test_reducible_tabled_modulus_is_refused(monkeypatch):
    # x^2 + 1 = (x + 1)^2 over GF(2): the element x + 1 has no inverse
    monkeypatch.setitem(_MODULI, (2, 2), (1, 0, 1))
    with pytest.raises(AssertionError, match="not irreducible"):
        field_new(2, 2)
