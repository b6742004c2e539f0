"""Seeded, deterministic hash-function families.

The HyperCube algorithm needs *k independent* hash functions, one per
query variable; the parallel hash join needs one. Python's built-in
``hash`` is salted per process for strings, so we provide a stable family
based on splitmix64 (for integers and tuples of integers) with a blake2b
fallback for arbitrary hashable values. All functions are deterministic
given ``(seed, index)``.

Values equal to an integer (bools, integral floats, numpy scalars) hash
as that integer, and every other value by the ``repr`` of its canonical
form, so values that compare equal always hash alike.

The integer paths — scalar and all-integer tuple — are the *hash spec*
shared with the vectorized kernels of :mod:`repro.kernels.hashing`: the
numpy implementation must reproduce them bit for bit so the columnar
fast path partitions data identically to this tuple-at-a-time code
(``REPRO_KERNELS=off`` must not change any destination).
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any

import numpy as np

_MASK64 = (1 << 64) - 1

# Mixed into the accumulator seed of the tuple chain so that the hash of
# the 1-tuple ``(v,)`` differs from the hash of the bare integer ``v``.
_TUPLE_TAG = 0xA5B35705A3C9B6D1


def splitmix64(x: int) -> int:
    """One step of the splitmix64 mixer — a fast, high-quality 64-bit hash."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def hash_int_tuple(values: tuple[int, ...], salt: int) -> int:
    """The tuple chain: fold splitmix64 over all-integer key tuples.

    This order-sensitive chain is the canonical spec for hashed composite
    join keys; :func:`repro.kernels.hashing.hash_tuple_columns` is its
    vectorized twin (one splitmix64 pass per key column).
    """
    acc = splitmix64((salt ^ _TUPLE_TAG ^ len(values)) & _MASK64)
    for v in values:
        acc = splitmix64((v & _MASK64) ^ acc)
    return acc


def _as_int(value: Any) -> int | None:
    """The value as a plain int when it hashes on the integer path.

    Every value equal to an integer takes this path — bools, integral
    floats and numpy integer/bool/float scalars — because equal values
    must land on the same server: ``1``, ``1.0``, ``True`` and
    ``np.int64(1)`` join with each other, so they must hash alike.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return int(value) if value.is_integer() else None
    if isinstance(value, np.generic):
        item = value.item()
        return None if isinstance(item, np.generic) else _as_int(item)
    return None


def _canonical(value: Any) -> Any:
    """The value in the form whose ``repr`` the blake2b path hashes.

    Integral numbers become ints and numpy scalars their Python twins,
    so equal values share a repr (``np.float64(0.5)`` and ``0.5``,
    ``(1.0, "a")`` and ``(1, "a")``).
    """
    as_int = _as_int(value)
    if as_int is not None:
        return as_int
    if isinstance(value, tuple):
        return tuple(_canonical(element) for element in value)
    if isinstance(value, np.generic):
        return value.item()
    return value


def _hash_value(value: Any, salt: int) -> int:
    """64-bit hash of one value under a salt; int shapes take fast paths."""
    as_int = _as_int(value)
    if as_int is not None:
        return splitmix64((as_int & _MASK64) ^ splitmix64(salt))
    if isinstance(value, tuple):
        ints = []
        for element in value:
            element_int = _as_int(element)
            if element_int is None:
                break
            ints.append(element_int)
        else:
            return hash_int_tuple(tuple(ints), salt)
    data = repr(_canonical(value)).encode() + struct.pack("<Q", salt)
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


class HashFunction:
    """One member of a family: maps any hashable value to ``[0, buckets)``."""

    __slots__ = ("buckets", "_salt")

    def __init__(self, buckets: int, salt: int) -> None:
        if buckets <= 0:
            raise ValueError("buckets must be positive")
        self.buckets = buckets
        self._salt = salt

    @property
    def salt(self) -> int:
        """The 64-bit salt (the vectorized kernels reuse it verbatim)."""
        return self._salt

    def __call__(self, value: Any) -> int:
        return _hash_value(value, self._salt) % self.buckets


class HashFamily:
    """A seeded family of independent hash functions.

    >>> fam = HashFamily(seed=7)
    >>> h = fam.function(index=0, buckets=10)
    >>> 0 <= h(12345) < 10
    True

    Functions with different ``index`` behave as independent hashes, which
    is what the HyperCube analysis assumes for distinct variables.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    # The salt is splitmix64(seed-hash ^ (index + 1)) over 64-bit words,
    # so index -1 would alias seed-only hashing and index 2^64 - 1 would
    # alias index -1 (and generally i aliases i + 2^64). Independence
    # across indices only holds inside this window, so anything outside
    # it is rejected instead of silently colliding.
    _MAX_INDEX = _MASK64 - 1

    def function(self, index: int, buckets: int) -> HashFunction:
        """The ``index``-th function of the family, with ``buckets`` targets.

        ``index`` must lie in ``[0, 2**64 - 2]``: values outside that
        range would alias another index's salt (see above) and break the
        independence assumption the HyperCube analysis rests on.
        """
        if not 0 <= index <= self._MAX_INDEX:
            raise ValueError(
                f"hash-function index must be in [0, 2**64 - 2], got {index}"
            )
        salt = splitmix64(splitmix64(self.seed) ^ (index + 1))
        return HashFunction(buckets, salt)
