"""Small internal helpers."""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from typing import Iterable, Optional, Sequence

from .errors import InvalidInput, InvalidParameters


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


def _dense_digits(mask: int) -> Optional[bytes]:
    """None where the lowest-bit strip walks ``mask`` faster, else its binary
    digits as bytes, bit i at index i and nonzero exactly where set: the one
    density rule of the bit walkers below.

    Stripping the lowest bit costs O(N/64) word operations plus a Python step
    per set bit of an N-bit mask; scanning the digits of ``bin(mask)`` in C
    costs O(N) whatever the count k of set bits. Timed on CPython 3.11, the
    strip wins for k below about N/8 (3 of 2000: 1.5 against 60 us), and for
    k up to 8 on short masks, where the scan's fixed cost dominates; past
    about 256 the scan wins at every N measured up to 32 000 (1000 of 2000:
    470 against 95 us). Masks of at most max(8, min(256, N/8)) set bits strip.
    """
    if mask.bit_count() <= max(8, min(256, mask.bit_length() >> 3)):
        return None
    return bin(mask)[:1:-1].encode().replace(b"0", b"\0")


def mask_to_indices(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of ``mask``, ascending."""
    digits = _dense_digits(mask)
    if digits is None:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return tuple(out)
    return tuple(compress(range(len(digits)), digits))


def select(mask: int, items: Sequence) -> Iterable:
    """``items[i]`` for each set bit i of ``mask``, ascending; ``items`` must
    cover every set bit. A sparse mask is stripped into a list; a dense one
    is read by ``itertools.compress`` over its digit bytes, so no position is
    built: at N = 2000 with 1000 set bits, folding the selected items costs
    about half of folding them through ``mask_to_indices``."""
    digits = _dense_digits(mask)
    if digits is None:
        out = []
        while mask:
            low = mask & -mask
            out.append(items[low.bit_length() - 1])
            mask ^= low
        return out
    return compress(items, digits)


def indices_to_mask(indices, n: int) -> int:
    """The mask with bit i set for each position i of ``indices``, which must
    all lie in [0, n); a repeated position sets its bit once.

    Reads ``indices`` once, and raises InvalidInput naming the first position
    out of range before it builds anything, or the first one that is not an
    integer (caught from the TypeError it raises, so a valid list pays
    nothing for the check). ORing in ``1 << i`` costs up to
    O(n/64) word operations per position, O(k*n/64) for k positions; writing
    k digits into an n-byte buffer read by one base-2 ``int()`` costs O(n + k).
    Timed on CPython 3.11, the loop wins up to about 12 positions of 60, 20 of
    200, 35 of 512, 95 of 2000, 150 of 8000 and 270 of 32 000, and the buffer
    beyond (1000 of 2000: 83 against 25 us), so the loop runs while k*k < 3n.
    """
    if not isinstance(indices, (list, tuple)):
        indices = tuple(indices)
    if not indices:
        return 0
    try:
        if min(indices) < 0 or max(indices) >= n:
            bad = next(i for i in indices if not 0 <= i < n)
            raise InvalidInput(f"position {bad} out of range [0, {n})")
        if len(indices) ** 2 < 3 * n:
            mask = 0
            for i in indices:
                mask |= 1 << i
            return mask
        digits = bytearray(b"0") * n
        for i in indices:
            digits[i] = 49  # ord("1")
    except TypeError:
        bad = [i for i in indices if not isinstance(i, int)]
        if not bad:
            raise
        raise InvalidInput(f"position {bad[0]!r} is not an integer") from None
    digits.reverse()  # int() reads the most significant digit first
    return int(digits, 2)


def _reduce(pivots: dict[int, int], v: int) -> int:
    """``v`` reduced by its highest set bit against ``pivots``, each keyed by
    its ``bit_length()``: the package's one GF(2) elimination step. What is
    left has no pivot at its highest bit, so it is a new pivot or zero."""
    while hit := pivots.get(v.bit_length()):
        v ^= hit
    return v
