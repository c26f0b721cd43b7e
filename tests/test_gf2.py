from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uglab.errors import InvalidParameterError, NotInSpanError
from uglab.gf2 import (
    Gf2Subspace,
    Gf2Vector,
    coefficients_in_basis,
    random_subspace,
    random_vector,
    span_of,
)


def test_vector_basic_ops():
    a = Gf2Vector(0b0110, 4)
    b = Gf2Vector(0b0011, 4)
    assert (a + b).bits == 0b0101
    assert (a + a) == Gf2Vector.zero(4)
    assert a - b == a + b
    assert Gf2Vector.zero(4).bits == 0


def test_vector_validation():
    with pytest.raises(InvalidParameterError):
        Gf2Vector(16, 4)
    with pytest.raises(InvalidParameterError):
        Gf2Vector(0, 0)
    with pytest.raises(InvalidParameterError):
        Gf2Vector(1, 65)
    with pytest.raises(InvalidParameterError):
        Gf2Vector(1, 4) + Gf2Vector(1, 5)


def test_hex_round_trip():
    v = Gf2Vector(0b10110, 5)
    assert v.to_hex() == "16"
    assert Gf2Vector.from_hex("16", 5) == v
    # width is ceil(m/4) digits even for small values
    assert Gf2Vector(1, 8).to_hex() == "01"
    assert Gf2Vector(0, 12).to_hex() == "000"
    with pytest.raises(InvalidParameterError):
        Gf2Vector.from_hex("zz", 4)


def test_span_canonical_form():
    m = 4
    u = Gf2Vector(0b1100, m)
    w = Gf2Vector(0b0110, m)
    s1 = span_of([u, w], m)
    s2 = span_of([u + w, w, u], m)
    assert s1 == s2
    assert s1.rank == 2
    # RREF rows: pivots strictly decreasing and cleared elsewhere
    pivots = [v.bits.bit_length() for v in s1.basis]
    assert pivots == sorted(pivots, reverse=True)
    for i, v in enumerate(s1.basis):
        for j, w2 in enumerate(s1.basis):
            if i != j:
                assert not (w2.bits >> (v.bits.bit_length() - 1)) & 1


def test_membership_matches_enumeration():
    rng = random.Random(7)
    for _ in range(25):
        m = rng.randrange(2, 10)
        ell = rng.randrange(0, m + 1)
        sub = random_subspace(m, ell, rng)
        members = set(sub.element_bits())
        assert len(members) == 2**ell
        for bits in range(2**m):
            assert (Gf2Vector(bits, m) in sub) == (bits in members)


def test_elements_sorted_and_closed():
    m = 5
    sub = span_of([Gf2Vector(0b10010, m), Gf2Vector(0b00111, m)], m)
    els = list(sub.elements())
    assert els[0] == Gf2Vector.zero(m)
    assert [e.bits for e in els] == sorted(e.bits for e in els)
    for a, b in itertools.product(els, els):
        assert a + b in sub


def test_shifted_coset():
    m = 3
    sub = span_of([Gf2Vector(0b001, m)], m)
    coset = sub.shifted(Gf2Vector(0b100, m))
    assert coset == {Gf2Vector(0b100, m), Gf2Vector(0b101, m)}


def test_coefficients_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        m = rng.randrange(2, 12)
        k = rng.randrange(1, m + 1)
        vecs = [random_vector(m, rng) for _ in range(k)]
        sub = span_of(vecs, m)
        target = rng.choice(sub.element_bits())
        tv = Gf2Vector(target, m)
        coeffs = coefficients_in_basis(tv, vecs)
        acc = Gf2Vector.zero(m)
        for c, v in zip(coeffs, vecs):
            if c:
                acc = acc + v
        assert acc == tv


def test_coefficients_not_in_span():
    m = 4
    basis = [Gf2Vector(0b0001, m), Gf2Vector(0b0010, m)]
    with pytest.raises(NotInSpanError):
        coefficients_in_basis(Gf2Vector(0b0100, m), basis)


def test_random_subspace_validation():
    rng = random.Random(0)
    with pytest.raises(InvalidParameterError):
        random_subspace(4, 5, rng)
    with pytest.raises(InvalidParameterError):
        random_subspace(4, -1, rng)
    assert random_subspace(4, 0, rng).rank == 0


def test_random_subspace_uniform_over_rank2_in_dim4():
    # F_2^4 has exactly 35 rank-2 subspaces (Gaussian binomial [4 choose 2]_2).
    rng = random.Random(12345)
    counts: dict = {}
    trials = 10000
    for _ in range(trials):
        sub = random_subspace(4, 2, rng)
        key = tuple(v.bits for v in sub.basis)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 35
    expected = trials / 35
    # 4 sigma binomial band around the uniform expectation
    sigma = (trials * (1 / 35) * (34 / 35)) ** 0.5
    for key, c in counts.items():
        assert abs(c - expected) < 4 * sigma, (key, c)


@given(st.integers(min_value=1, max_value=16), st.data())
@settings(max_examples=60, deadline=None)
def test_add_self_inverse(m, data):
    bits = data.draw(st.integers(min_value=0, max_value=2**m - 1))
    v = Gf2Vector(bits, m)
    assert (v + v) == Gf2Vector.zero(m)
    assert v + Gf2Vector.zero(m) == v


@given(st.integers(min_value=1, max_value=10), st.data())
@settings(max_examples=60, deadline=None)
def test_rank_bounds(m, data):
    k = data.draw(st.integers(min_value=0, max_value=6))
    vecs = [
        Gf2Vector(data.draw(st.integers(min_value=0, max_value=2**m - 1)), m)
        for _ in range(k)
    ]
    sub = span_of(vecs, m)
    assert 0 <= sub.rank <= min(k, m)
    for v in vecs:
        assert v in sub
