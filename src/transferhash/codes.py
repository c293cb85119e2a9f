"""Binary code matrices: {-1,+1} sign form plus a packed 64-bit word form."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORD_BITS = 64


def sgn(m):
    """Elementwise sign with sgn(0) = +1, as an int8 array over {-1,+1}.

    The array has m's shape; -0.0 counts as 0 and NaN as negative.  Built
    at byte width: the m >= 0 mask read as int8, times 2, minus 1.
    """
    signs = np.asarray(np.asarray(m) >= 0).view(np.int8)
    signs *= 2
    signs -= 1
    return signs


def pack_signs(signs):
    """Pack an n x c {-1,+1} matrix into rows of uint64 words, bit b = 1 iff sign = +1.

    Bits are laid out LSB-first inside each word; columns beyond the code
    length are zero padding and cancel under XOR.  np.packbits packs each
    row's bits LSB-first into bytes, and every 8 bytes are read as one
    little-endian word.
    """
    signs = np.asarray(signs)
    n, c = signs.shape
    words = (c + WORD_BITS - 1) // WORD_BITS
    packed = np.zeros((n, words * (WORD_BITS // 8)), dtype=np.uint8)
    packed[:, :(c + 7) // 8] = np.packbits(signs > 0, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64, copy=False)


@dataclass(frozen=True, eq=False)
class BinaryCodeMatrix:
    """n x c code matrix over {-1,+1} with a packed-bit twin for retrieval."""

    signs: np.ndarray
    packed: np.ndarray = field(init=False)

    def __post_init__(self):
        given = np.asarray(self.signs)  # checked before the cast: 1.7 or 255 is no sign
        if given.ndim != 2:
            raise ValueError("code matrix must be 2-D")
        if given.dtype.kind not in "biuf" or not np.all(np.abs(given) == 1):
            raise ValueError("code entries must be exactly -1 or +1")
        signs = given.astype(np.int8, copy=False)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "packed", pack_signs(signs))

    @property
    def rows(self) -> int:
        return self.signs.shape[0]

    @property
    def bits(self) -> int:
        return self.signs.shape[1]

    def __eq__(self, other):
        return isinstance(other, BinaryCodeMatrix) and np.array_equal(
            self.signs, other.signs
        )

