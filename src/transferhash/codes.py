"""Binary code matrices: {-1,+1} sign form plus a packed 64-bit word form."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORD_BITS = 64
_SHIFTS = np.arange(WORD_BITS, dtype=np.uint64)


def sgn(m):
    """Elementwise sign with sgn(0) = +1, as an int8 matrix over {-1,+1}."""
    m = np.asarray(m)
    return np.where(m >= 0, 1, -1).astype(np.int8)


def pack_signs(signs):
    """Pack a {-1,+1} matrix into rows of uint64 words, bit b = 1 iff sign = +1.

    Bits are laid out LSB-first inside each word; columns beyond the code
    length are zero padding and cancel under XOR.
    """
    signs = np.asarray(signs)
    n, c = signs.shape
    words = (c + WORD_BITS - 1) // WORD_BITS
    bits = np.zeros((n, words * WORD_BITS), dtype=np.uint64)
    bits[:, :c] = signs > 0
    bits = bits.reshape(n, words, WORD_BITS)
    return np.bitwise_or.reduce(bits << _SHIFTS, axis=2)


def unpack_words(packed, bits):
    """Inverse of pack_signs: recover the {-1,+1} sign matrix."""
    packed = np.asarray(packed, dtype=np.uint64)
    n, words = packed.shape
    unpacked = (packed[:, :, None] >> _SHIFTS) & np.uint64(1)
    flat = unpacked.reshape(n, words * WORD_BITS)[:, :bits]
    return (flat.astype(np.int8) * 2) - 1


@dataclass(frozen=True, eq=False)
class BinaryCodeMatrix:
    """n x c code matrix over {-1,+1} with a packed-bit twin for retrieval."""

    signs: np.ndarray
    packed: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        signs = np.asarray(self.signs, dtype=np.int8)
        if signs.ndim != 2:
            raise ValueError("code matrix must be 2-D")
        if not np.all(np.abs(signs) == 1):
            raise ValueError("code entries must be exactly -1 or +1")
        object.__setattr__(self, "signs", signs)
        if self.packed is None:
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

