"""Field arithmetic: canonical forms, axioms, parsing, primality."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from minrank import GF, QQ, FieldMismatchError, PrimeField, field_from_name
from minrank.fields import require_same_field


def test_rational_examples():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inverse(Fraction(3, 4)) == Fraction(4, 3)
    assert QQ.inverse(QQ.one) == QQ.one
    a = Fraction(-7, 3)
    assert QQ.add(a, QQ.neg(a)) == QQ.zero


def test_prime_field_examples():
    assert GF(5).mul(3, 4) == 2
    assert GF(7).inverse(3) == 5
    assert GF(7).inverse(GF(7).one) == 1
    assert GF(5).sub(1, 3) == 3


def test_elements_enumeration():
    assert tuple(GF(2).elements()) == (0, 1)
    assert tuple(GF(3).elements()) == (0, 1, 2)
    with pytest.raises(ValueError):
        QQ.elements()


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        QQ.inverse(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        GF(5).inverse(0)


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 15, 561, -7, 2**10])
def test_gf_rejects_composites(bad):
    with pytest.raises(ValueError):
        PrimeField(bad)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 97, 2**31 - 1, 2**61 - 1])
def test_gf_accepts_primes(p):
    assert GF(p).p == p


def test_gf_modulus_bound():
    # 2**89 - 1 is prime but exceeds the machine-word bound.
    with pytest.raises(ValueError):
        PrimeField(2**89 - 1)
    with pytest.raises(TypeError):
        PrimeField("5")


def test_gf_instances_are_shared():
    assert GF(5) is GF(5)
    assert GF(5) == PrimeField(5)
    assert GF(5) != GF(7)
    assert QQ != GF(5)


def test_canon_rejects_inexact_scalars():
    for field in (QQ, GF(5)):
        with pytest.raises(TypeError):
            field.canon(0.5)
        with pytest.raises(TypeError):
            field.canon(True)
    with pytest.raises(TypeError):
        GF(5).canon(Fraction(1, 2) + Fraction(1, 3))


def test_canon_residues_and_embedded_rationals():
    assert GF(5).canon(-3) == 2
    assert GF(5).canon(12) == 2
    # an integral fraction has a canonical residue
    assert GF(5).canon(Fraction(10, 2)) == 0
    assert QQ.canon(3) == Fraction(3)


def test_parse_and_format():
    assert QQ.parse(" -6/4 ") == Fraction(-3, 2)
    assert QQ.format(Fraction(-3, 2)) == "-3/2"
    assert QQ.format(Fraction(4)) == "4"
    assert GF(5).parse("12") == 2
    assert GF(5).parse("-1") == 4
    assert GF(5).format(3) == "3"


@pytest.mark.parametrize("bad", ["", "1.5", "a", "1/2/3", "1/0", "--3", "1 2"])
def test_parse_rejects_malformed_rationals(bad):
    with pytest.raises(ValueError):
        QQ.parse(bad)


@pytest.mark.parametrize("bad", ["", "1/2", "0x3", "two"])
def test_parse_rejects_malformed_residues(bad):
    with pytest.raises(ValueError):
        GF(5).parse(bad)


def test_field_from_name():
    assert field_from_name("rational") is QQ
    assert field_from_name("GF(7)") is GF(7)
    assert field_from_name(" gf(2) ") is GF(2)
    with pytest.raises(ValueError):
        field_from_name("gf(6)")
    with pytest.raises(ValueError):
        field_from_name("real")


def test_require_same_field():
    assert require_same_field(GF(5), GF(5)) is GF(5)
    # An equal field that is not the shared instance passes the slow check.
    assert require_same_field(GF(5), PrimeField(5), GF(5)) is GF(5)
    with pytest.raises(FieldMismatchError):
        require_same_field(GF(5), GF(7))
    with pytest.raises(FieldMismatchError):
        require_same_field(GF(5), GF(5), PrimeField(7))
    with pytest.raises(FieldMismatchError):
        require_same_field(QQ, GF(2))


def test_axioms_bulk():
    # 1000 random triples per field, exact identity checks
    rng = random.Random(20240814)
    for field in (QQ, GF(2), GF(5), GF(97)):
        for _ in range(1000):
            if field is QQ:
                a, b, c = (
                    Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(3)
                )
            else:
                a, b, c = (rng.randrange(field.p) for _ in range(3))
            assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            assert field.mul(a, field.add(b, c)) == field.add(
                field.mul(a, b), field.mul(a, c)
            )
            assert field.add(a, field.neg(a)) == field.zero
            if not field.is_zero(a):
                assert field.mul(a, field.inverse(a)) == field.one
            assert field.canon(field.add(a, b)) == field.add(a, b)


@given(st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4))
def test_rational_parse_format_roundtrip(x):
    assert QQ.parse(QQ.format(x)) == x


@given(st.integers(min_value=-10**9, max_value=10**9))
def test_residue_parse_format_roundtrip(k):
    field = GF(101)
    r = field.canon(k)
    assert 0 <= r < 101
    assert field.parse(field.format(r)) == r
    assert field.parse(str(k)) == r
