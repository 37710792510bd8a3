"""The bit kernels against per-bit reference definitions.

``_reverse``, ``_spread`` and ``_unspread`` go through byte and hex-digit
tables, and ``_bits`` steps from set bit to set bit in a sparse mask and
reads any other one character per bit; each is checked here bit by bit, at
every width from 0 to 70 (so across every byte boundary) and at width 2001.
``_minus`` ANDs over an Apery set instead of over every member, and is
checked against its definition on random sets.
"""

import random

import pytest

from sgdouble.duplication import _spread, _unspread
from sgdouble.semigroup import _bits, _minus, _reverse


def ref_reverse(mask, width):
    return sum(1 << (width - 1 - x) for x in range(width) if mask >> x & 1)


def ref_spread(mask):
    return sum(1 << 2 * x for x in range(mask.bit_length()) if mask >> x & 1)


def ref_unspread(mask):
    return sum(1 << x for x in range(mask.bit_length()) if mask >> 2 * x & 1)


def ref_bits(mask):
    return tuple(x for x in range(mask.bit_length()) if mask >> x & 1)


def masks(width, rng):
    """Masks below 2**width: 0, all ones, single bits (each of them up to
    width 70), and random ones with the top bit at width - 1, dense and
    sparse."""
    singles = range(width) if width <= 70 else [*rng.sample(range(width), 20), width - 1]
    out = {0, (1 << width) - 1, *(1 << x for x in singles)}
    if width:
        top = 1 << (width - 1)
        out |= {top | rng.getrandbits(width - 1) for _ in range(4)}
        out |= {top | 1 << rng.randrange(width) for _ in range(4)}
    return sorted(out)


WIDTHS = [*range(71), 2001]


@pytest.mark.parametrize("width", WIDTHS)
def test_kernels_match_per_bit_definitions(width):
    rng = random.Random(width)
    for mask in masks(width, rng):
        assert _reverse(mask, width) == ref_reverse(mask, width), (mask, width)
        assert _spread(mask) == ref_spread(mask), mask
        assert _unspread(mask) == ref_unspread(mask), mask
        assert _unspread(_spread(mask)) == mask
        assert _bits(mask) == ref_bits(mask), mask
        assert _bits(mask, 5) == tuple(x + 5 for x in ref_bits(mask)), mask
        # odd bits are dropped: the even bits of any mask, spread or not
        assert _unspread(mask | _spread(mask) << 1) == ref_unspread(mask | _spread(mask) << 1)


def test_kernels_at_zero():
    assert _reverse(0, 0) == 0 and _reverse(0, 9) == 0
    assert _spread(0) == 0 and _unspread(0) == 0
    assert _bits(0) == () == _bits(0, 7)


@pytest.mark.parametrize("width", [48, 160, 161, 4096, 4097, 9000])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_bits_on_either_side_of_the_sparse_density(width, extra):
    # a sixteenth of the width, at most 256: set bits step by step below
    # it, one character per bit from it on; both give the same listing
    rng = random.Random(width)
    count = min(width // 16, 256) + extra
    picked = {width - 1, *rng.sample(range(width - 1), count - 1)}
    mask = sum(1 << x for x in picked)
    assert _bits(mask) == tuple(sorted(picked)) == ref_bits(mask)
    assert _bits(mask, 3) == tuple(x + 3 for x in sorted(picked))


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 16, 17, 2001])
def test_reverse_requires_mask_below_two_to_the_width(width):
    # mirrored on [0, width), a bit at width or past would land below 0:
    # _reverse rejects such a mask instead of dropping the bit
    assert _reverse((1 << width) - 1, width) == (1 << width) - 1
    for mask in (1 << width, (1 << width + 9) - 1, -1):
        with pytest.raises(OverflowError):
            _reverse(mask, width)


def closed_under(mask, m, width):
    """The least superset of ``mask`` closed under adding ``m``, below ``width``."""
    for x in range(width - m):
        if mask >> x & 1:
            mask |= 1 << x + m
    return mask


@pytest.mark.parametrize("seed", range(8))
def test_minus_matches_its_definition(seed):
    # F - E = {x >= 0 : x + y in F for every member y of E}, for F closed
    # under adding m with every bit from its conductor on set, and E with or
    # without 0, finite or with every bit from some point on set (x + y is
    # in F once y >= c(F), so the members y < c(F) decide)
    rng = random.Random(seed)
    for _ in range(400):
        m, cf, ce = rng.randint(1, 9), rng.randint(0, 40), rng.randint(0, 40)
        f = closed_under(rng.getrandbits(cf) if cf else 0, m, cf) | -1 << cf
        e = rng.getrandbits(ce) if ce else 0
        e = e | 1 if rng.random() < 0.5 else e & ~1
        if rng.random() < 0.5:
            e |= -1 << ce
        ys = [y for y in range(cf) if e >> y & 1]
        out = _minus(f, e, m)
        for x in range(cf + 1):
            assert (out >> x & 1) == all(f >> x + y & 1 for y in ys), (f, e, m, x)
        assert out >> cf == -1, (f, e, m)  # every x >= c(F) is in F - E
