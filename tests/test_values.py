"""The immutable value type PointCountData: equality and hashing by value,
no assignment, validation in the constructor, and keyword construction."""

import pickle

import pytest

from betticount.zeta import PointCountData

ZETA_A1 = ((1,), (1, -3))

# (instance, an equal one built another way, a different one)
CASES = [
    (
        PointCountData(3, 1, ZETA_A1),
        # a common power of t and trailing zeros are stripped
        PointCountData(q=3, dim=1, zeta=([0, 1], [0, 1, -3, 0])),
        PointCountData(3, 1, counts=(3, 9)),
    ),
]
IDS = [type(value).__name__ for value, _, _ in CASES]


@pytest.mark.parametrize("value, same, other", CASES, ids=IDS)
def test_equality_and_hash_by_value(value, same, other):
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert value != other
    assert {value: 1}[same] == 1
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("value, same, other", CASES, ids=IDS)
def test_assignment_raises(value, same, other):
    name = next(k for k in ("counts", "q") if hasattr(value, k))
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(other, name))
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == same


def test_constructors_normalize_and_keep_their_defaults():
    v = PointCountData(q=2, dim=1, counts=(3, 5))
    assert v.zeta is None and v.counts == (3, 5)


def test_counts_from_any_sequence_equal_and_hash_like_the_tuple():
    v = PointCountData(2, 1, counts=[3, 5])
    assert v == PointCountData(2, 1, counts=(3, 5)) and v.counts == (3, 5)
    assert hash(v) == hash(PointCountData(2, 1, counts=(3, 5)))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PointCountData(6, 1, ZETA_A1), "not a prime power"),
        (lambda: PointCountData(3, 0, ZETA_A1), "dimension"),
        (lambda: PointCountData(3, 1), "exactly one"),
        (lambda: PointCountData(3, 1, ZETA_A1, (3,)), "exactly one"),
        (lambda: PointCountData(3, 1, ((1,), (0, 1))), "regular at t = 0"),
        (lambda: PointCountData(3, 1, ((0, 1), (1,))), "nonzero at t = 0"),
        (lambda: PointCountData(3, 1, ((1,), (1, -3.5))), "coefficients must be integers"),
        (lambda: PointCountData(3, 1, counts=[]), "nonnegative integers"),
        (lambda: PointCountData(3, 1, counts=[-1]), "nonnegative integers"),
        (lambda: PointCountData(3, 1, counts=[1.5]), "nonnegative integers"),
    ],
)
def test_constructor_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()
