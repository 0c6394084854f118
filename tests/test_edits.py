"""The left regular band of edits, kept as the `Edit` oracle in `oracles`,
and the mask product the library computes with, `lattice._backward_step`:
F.y = (F+ | y+ & ~S_F, F- | y- & ~S_F)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    Edit,
    NotAChamber,
    Sign,
    apply,
    chamber_of,
    compose,
    format_edit,
    leq,
    parse_edit,
    prec,
    simple_edit,
    state_of,
    supp,
)

from editwalk import EdgeSet
from editwalk.errors import EdgeOutOfRange, HostMismatch
from editwalk.lattice import _backward_step

M = 4


def edit_from_signs(m, plus=(), minus=()):
    return Edit(m, sum(1 << e for e in plus), sum(1 << e for e in minus))


def masks(x):
    return x.plus, x.minus


def product(x, y):
    """The mask product x.y as the library computes it."""
    return _backward_step(x.plus, x.minus, y.plus, y.minus)


@st.composite
def edits(draw, m=M):
    plus = draw(st.integers(0, (1 << m) - 1))
    minus = draw(st.integers(0, (1 << m) - 1)) & ~plus
    return Edit(m, plus, minus)


def test_simple_edit():
    x = simple_edit(0, Sign.PLUS, 2)
    assert x.plus == 1 and x.minus == 0
    assert supp(x).indices() == (0,)
    y = simple_edit(1, Sign.MINUS, 2)
    assert y.minus == 0b10
    with pytest.raises(EdgeOutOfRange):
        simple_edit(7, Sign.PLUS, 2)


def test_compose_left_factor_wins():
    # forcing an edge in and then composing with forcing it out keeps the
    # later (left) operation
    plus0 = simple_edit(0, Sign.PLUS, 2)
    minus0 = simple_edit(0, Sign.MINUS, 2)
    assert compose(plus0, minus0) == plus0
    assert compose(minus0, plus0) == minus0
    assert product(plus0, minus0) == (1, 0) and product(minus0, plus0) == (0, 1)


def test_compose_identity():
    x = edit_from_signs(3, plus=[0], minus=[1])
    assert compose(Edit.identity(3), x) == x
    assert compose(x, Edit.identity(3)) == x


def test_compose_example_and_functional_equality():
    x = edit_from_signs(3, plus=[0], minus=[1])
    y = edit_from_signs(3, plus=[1], minus=[2])
    z = compose(x, y)
    assert z == edit_from_signs(3, plus=[0], minus=[1, 2])
    assert product(x, y) == (0b001, 0b110)
    # oracle: composed edit acts exactly like applying y then x, on all states
    for mask in range(8):
        state = EdgeSet(3, mask)
        assert apply(z, state) == apply(x, apply(y, state))


def test_apply():
    assert apply(edit_from_signs(2, plus=[0]), EdgeSet(2, 0)).mask == 0b01
    # adding an edge that is already present changes nothing
    full = EdgeSet(2, 0b11)
    assert apply(edit_from_signs(2, plus=[0]), full) == full
    assert apply(edit_from_signs(2, plus=[1], minus=[0]), EdgeSet(2, 0b01)).mask == 0b10
    with pytest.raises(HostMismatch):
        apply(Edit.identity(2), EdgeSet(3, 0))


def test_supp():
    assert supp(Edit.identity(5)).mask == 0
    assert supp(edit_from_signs(3, plus=[0], minus=[1])).indices() == (0, 1)


def test_leq_and_prec_examples():
    x = edit_from_signs(2, plus=[0])
    y = edit_from_signs(2, plus=[0], minus=[1])
    z = edit_from_signs(2, minus=[0, 1])
    assert leq(x, y)
    assert not leq(x, z)
    assert prec(x, z)
    with pytest.raises(HostMismatch):
        leq(Edit.identity(2), Edit.identity(3))


def test_leq_and_prec_definitional_oracles():
    # defining properties: leq(x, y) iff xy == y, prec(x, y) iff yx == y,
    # verified on 500 random pairs
    rng = np.random.default_rng(11)
    for _ in range(500):
        plus_x = int(rng.integers(0, 16))
        minus_x = int(rng.integers(0, 16)) & ~plus_x
        plus_y = int(rng.integers(0, 16))
        minus_y = int(rng.integers(0, 16)) & ~plus_y
        x, y = Edit(M, plus_x, minus_x), Edit(M, plus_y, minus_y)
        assert leq(x, y) == (compose(x, y) == y)
        assert prec(x, y) == (compose(y, x) == y)


@settings(max_examples=150)
@given(edits(), edits())
def test_idempotence_and_lrb_law(x, y):
    assert compose(x, x) == x
    assert compose(compose(x, y), x) == compose(x, y)
    # the library's mask product is the oracle's, and obeys the same laws
    assert product(x, y) == masks(compose(x, y))
    assert product(x, x) == masks(x)
    assert _backward_step(*product(x, y), x.plus, x.minus) == product(x, y)


@settings(max_examples=150)
@given(edits(), edits())
def test_support_homomorphism(x, y):
    assert supp(compose(x, y)).mask == supp(x).mask | supp(y).mask
    plus, minus = product(x, y)
    assert plus | minus == x.support_mask | y.support_mask


@settings(max_examples=150)
@given(edits(), edits(), st.integers(0, (1 << M) - 1))
def test_action_compatibility(x, y, mask):
    state = EdgeSet(M, mask)
    assert apply(compose(x, y), state) == apply(x, apply(y, state))
    # a state is its chamber's + mask: x.y.c acts on it as x after y
    full = (1 << M) - 1
    plus, _ = _backward_step(*product(x, y), mask, full & ~mask)
    assert plus == apply(x, apply(y, state)).mask


@settings(max_examples=100)
@given(st.integers(0, (1 << M) - 1), edits())
def test_chamber_absorption(mask, x):
    c = chamber_of(EdgeSet(M, mask))
    assert compose(c, x) == c
    assert product(c, x) == masks(c)


@settings(max_examples=100)
@given(edits(), edits(), edits())
def test_leq_is_partial_order(x, y, z):
    assert leq(x, x)
    if leq(x, y) and leq(y, x):
        assert x == y
    if leq(x, y) and leq(y, z):
        assert leq(x, z)
    assert prec(x, x)
    if prec(x, y) and prec(y, z):
        assert prec(x, z)


def test_chamber_state_round_trip():
    c = chamber_of(EdgeSet(2, 0b01))
    assert c == edit_from_signs(2, plus=[0], minus=[1])
    for mask in range(16):
        s = EdgeSet(4, mask)
        assert state_of(chamber_of(s)) == s
    with pytest.raises(NotAChamber):
        state_of(edit_from_signs(2, plus=[0]))


def test_text_notation_round_trip():
    x = edit_from_signs(6, plus=[0, 5], minus=[3])
    assert format_edit(x) == "+0 -3 +5"
    assert parse_edit("+0 -3 +5", 6) == x
    assert parse_edit("", 4) == Edit.identity(4)
    assert format_edit(Edit.identity(4)) == ""
    # leftmost token is applied last and therefore wins on a repeated edge
    assert parse_edit("+0 -0", 2) == simple_edit(0, Sign.PLUS, 2)
    assert parse_edit("-0 +0", 2) == simple_edit(0, Sign.MINUS, 2)
    with pytest.raises(Exception):
        parse_edit("0+", 2)


@settings(max_examples=100)
@given(edits(m=6))
def test_notation_round_trip_property(x):
    assert parse_edit(format_edit(x), 6) == x
