"""H3 universal hash family.

The H3 family hashes an ``n``-bit key to an ``m``-bit value by XOR-ing
together per-bit random masks: ``h(x) = XOR over set bits i of x of Q[i]``,
where ``Q`` is an ``n x m`` matrix of random ``m``-bit words.  It is the hash
family the RelaxReplay paper uses for its Bloom-filter read/write signatures
(Table 1: "4 x 256-bit Bloom filters with H3 hash") and is also used here for
the Snoop Table of RelaxReplay_Opt.

H3 is a good fit for hardware models because each hash is a tree of XOR
gates, and for simulation because it is cheap, deterministic and has strong
universality guarantees.
"""

from __future__ import annotations

import random
from typing import Sequence

__all__ = ["H3Hash", "make_h3_family"]

_DEFAULT_KEY_BITS = 64


class H3Hash:
    """A single H3 hash function from ``key_bits``-bit keys to ``[0, 2**out_bits)``.

    Instances are deterministic given ``(key_bits, out_bits, seed)``, so
    simulations are reproducible run to run.
    """

    __slots__ = ("key_bits", "out_bits", "_matrix", "_cache")

    def __init__(self, out_bits: int, *, key_bits: int = _DEFAULT_KEY_BITS, seed: int = 0):
        if out_bits <= 0:
            raise ValueError(f"out_bits must be positive, got {out_bits}")
        if key_bits <= 0:
            raise ValueError(f"key_bits must be positive, got {key_bits}")
        self.key_bits = key_bits
        self.out_bits = out_bits
        rng = random.Random((seed << 16) ^ (out_bits << 8) ^ key_bits)
        mask = (1 << out_bits) - 1
        # One random out_bits-wide mask per input bit.
        self._matrix = tuple(rng.getrandbits(out_bits) & mask for _ in range(key_bits))
        # The hash is pure and the key population (line addresses) is small
        # and heavily repeated, so memoize computed values.
        self._cache: dict[int, int] = {}

    def __call__(self, key: int) -> int:
        """Hash ``key`` (negative keys are rejected; wider keys are truncated)."""
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if key < 0:
            raise ValueError(f"H3 keys must be non-negative, got {key}")
        bits = key & ((1 << self.key_bits) - 1)
        acc = 0
        matrix = self._matrix
        i = 0
        while bits:
            if bits & 1:
                acc ^= matrix[i]
            bits >>= 1
            i += 1
        self._cache[key] = acc
        return acc

    @property
    def range_size(self) -> int:
        """Number of distinct output values (``2**out_bits``)."""
        return 1 << self.out_bits

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"H3Hash(key_bits={self.key_bits}, out_bits={self.out_bits})"


#: One family per ``(count, out_bits, key_bits, seed)``: the functions are
#: pure, so every signature and Snoop Table built with the same parameters
#: shares one tuple (and its memoized hash values).
_FAMILIES: dict[tuple[int, int, int, int], tuple[H3Hash, ...]] = {}


def make_h3_family(count: int, out_bits: int, *, key_bits: int = _DEFAULT_KEY_BITS,
                   seed: int = 0) -> Sequence[H3Hash]:
    """Return ``count`` independent H3 functions with distinct derived seeds.

    Used wherever the paper calls for "a different hash function for each
    array" (Snoop Table, Figure 8) or one hash per Bloom-filter bank.  Calls
    with equal arguments return the same shared tuple.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    key = (count, out_bits, key_bits, seed)
    family = _FAMILIES.get(key)
    if family is None:
        family = _FAMILIES[key] = tuple(
            H3Hash(out_bits, key_bits=key_bits, seed=seed * 7919 + index + 1)
            for index in range(count))
    return family
