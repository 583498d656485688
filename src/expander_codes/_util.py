"""Small internal helpers."""

from __future__ import annotations

from fractions import Fraction
from itertools import compress

from .errors import InvalidParameters


def as_fraction(value) -> Fraction:
    """Coerce to an exact Fraction.

    Accepts Fraction, int, decimal strings ("0.1", "1/5"), and floats.
    Floats go through repr so that e.g. 0.1 means 1/10, not the nearest
    binary double; pass a Fraction or string when exactness matters.
    Malformed text, a zero denominator, nan and inf raise InvalidParameters.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    try:
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, float):
            return Fraction(repr(value))
    except (ValueError, ZeroDivisionError):
        pass
    raise InvalidParameters(f"cannot interpret {value!r} as an exact rational")


def mask_to_indices(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of ``mask``, ascending.

    Stripping the lowest bit costs O(N/64) word operations plus a Python step
    per set bit of an N-bit mask; scanning the digits of ``bin(mask)`` in C
    costs O(N) whatever the count k of set bits. Timed on CPython 3.11, the
    strip wins for k below about N/8 (3 of 2000: 1.5 against 60 us), and for
    k up to 8 on short masks, where the scan's fixed cost dominates; past
    about 256 the scan wins at every N measured up to 32 000 (1000 of 2000:
    470 against 95 us). Masks of at most max(8, min(256, N/8)) set bits strip.
    """
    if mask.bit_count() <= max(8, min(256, mask.bit_length() >> 3)):
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return tuple(out)
    digits = bin(mask)[:1:-1].encode().replace(b"0", b"\0")  # bit i at index i
    return tuple(compress(range(len(digits)), digits))


def indices_to_mask(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _echelon(rows) -> dict[int, int]:
    """Row-reduce GF(2) rows (int bitsets) to echelon form.

    Returns ``{col: row}``: each stored row's lowest set bit is its pivot
    ``col``, so every other column of that row is strictly larger. Rows that
    reduce to zero are dropped; the number of pivots is the rank.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            col = (row & -row).bit_length() - 1
            if col not in pivots:
                pivots[col] = row
                break
            row ^= pivots[col]
    return pivots


def _solve(pivots: dict[int, int], *fixed: int) -> tuple[int, ...]:
    """The solutions of the echelon system ``pivots`` (every row has even
    parity) whose non-pivot columns are each of ``fixed``, in order.

    Back-substitutes from the highest pivot down, setting pivot bit ``col``
    when its row's other columns, all already decided, have odd parity. The
    descending pivot order is built once and shared by every solution. No
    word of ``fixed`` may set a pivot column.
    """
    order = [(1 << col, pivots[col]) for col in sorted(pivots, reverse=True)]
    out = []
    for sol in fixed:
        for bit, row in order:
            if (row & sol).bit_count() & 1:
                sol |= bit
        out.append(sol)
    return tuple(out)
