"""Bloom-filter address signatures.

Chunk/interval-based memory race recorders summarise the addresses read and
written by the current interval in Bloom-filter *signatures* (Section 2 of the
paper).  The paper's configuration (Table 1) is "4 x 256-bit Bloom filters
with H3 hash" per signature: four independent banks, each 256 bits wide with
its own H3 hash function.  Inserting an address sets one bit in every bank;
an address *may* be present only if its bit is set in every bank.

Bloom filters never produce false negatives, so a conflicting coherence
transaction is never missed; false positives merely terminate intervals
early, which costs log space but not correctness.  Both properties are relied
on by the recorder and checked by the test suite.
"""

from __future__ import annotations

from .h3 import make_h3_family

__all__ = ["BloomSignature"]

#: Shared per-address mask cache, keyed by the hash-family identity
#: ``(banks, bits_per_bank, seed)``.  Recorders on every processor use the
#: same seed, so all their signatures resolve an address to the same mask —
#: one shared cache amortizes the hash work across the machine instead of
#: once per signature object.
_MASK_CACHES: dict[tuple[int, int, int], dict[int, int]] = {}


class BloomSignature:
    """A banked Bloom filter over (line) addresses.

    The banks are stored side by side in one integer, :attr:`bits`: bank
    ``b`` owns bits ``[b * bits_per_bank, (b + 1) * bits_per_bank)``.  An
    address's :meth:`mask_for` sets its one bit in every bank, so inserting
    is ``bits |= mask`` and the membership test is ``bits & mask == mask``.
    Several signatures of one geometry and seed share their masks, so their
    :attr:`bits` can be OR-ed into a union that contains each of them.

    Parameters
    ----------
    banks:
        Number of independent hash banks (the paper uses 4).
    bits_per_bank:
        Width of each bank in bits; must be a power of two (the paper uses
        256).
    seed:
        Seed selecting the H3 functions.  Recorders on different processors
        share the same seed so their signatures are comparable, but any seed
        yields a correct filter.
    """

    __slots__ = ("banks", "bits_per_bank", "bits", "_hashes", "masks")

    def __init__(self, banks: int = 4, bits_per_bank: int = 256, *, seed: int = 0):
        if banks <= 0:
            raise ValueError(f"banks must be positive, got {banks}")
        if bits_per_bank <= 0 or bits_per_bank & (bits_per_bank - 1):
            raise ValueError(
                f"bits_per_bank must be a positive power of two, got {bits_per_bank}")
        self.banks = banks
        self.bits_per_bank = bits_per_bank
        out_bits = bits_per_bank.bit_length() - 1
        self._hashes = make_h3_family(banks, out_bits, seed=seed)
        # All banks in one int used as a bitset; Python ints keep this compact.
        self.bits = 0
        # An address's mask is pure in the (shared) hashes, and the address
        # population is small and heavily repeated: the shared cache lets
        # the hot insert/membership paths skip the per-bank hash calls.
        self.masks = _MASK_CACHES.setdefault((banks, bits_per_bank, seed), {})

    def mask_for(self, address: int) -> int:
        """The address's bit in every bank, as one mask over :attr:`bits`."""
        mask = self.masks.get(address)
        if mask is None:
            mask = 0
            for bank, h in enumerate(self._hashes):
                mask |= 1 << (bank * self.bits_per_bank + h(address))
            self.masks[address] = mask
        return mask

    def insert(self, address: int) -> None:
        """Insert a line address into the signature."""
        self.bits |= self.mask_for(address)

    def may_contain(self, address: int) -> bool:
        """Membership test: ``False`` is definite, ``True`` may be a false positive."""
        mask = self.mask_for(address)
        return self.bits & mask == mask

    def clear(self) -> None:
        """Empty the signature (done at every interval termination)."""
        self.bits = 0

    @property
    def is_empty(self) -> bool:
        """True when no address has been inserted since the last :meth:`clear`."""
        return not self.bits

    @property
    def size_bits(self) -> int:
        """Total storage of the signature in bits (hardware cost)."""
        return self.banks * self.bits_per_bank

    @property
    def set_bits(self) -> int:
        """Number of set bits across all banks."""
        return self.bits.bit_count()

    def occupancy(self) -> float:
        """Fraction of set bits across all banks — a saturation indicator."""
        return self.set_bits / (self.banks * self.bits_per_bank)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"BloomSignature(banks={self.banks}, bits_per_bank={self.bits_per_bank}, "
                f"set_bits={self.set_bits})")
