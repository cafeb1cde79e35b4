"""Bitmask helpers shared by every module: subsets of {0, ..., n-1} are ints."""

from __future__ import annotations


def as_mask(x) -> int:
    """Coerce an int bitmask or an iterable of element ids to a bitmask."""
    if isinstance(x, int):
        return x
    mask = 0
    for e in x:
        mask |= 1 << e
    return mask


def bit_members(mask: int) -> list[int]:
    """Element ids present in a bitmask, ascending."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out
