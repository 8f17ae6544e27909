"""SHA-3 / SHAKE (FIPS 202): stdlib fast path, from-scratch reference.

Sanctorum measures enclaves "via a sha3 cryptographic hash computed for
each enclave as part of initialization" (§VI-A), citing tiny_sha3.  The
hash objects here run on the standard library's ``hashlib``, which has
provided every SHA-3 and SHAKE instance since Python 3.6.

The from-scratch Keccak-f[1600] and :class:`ReferenceSponge` below, in
the spirit of tiny_sha3 (one small, readable file), are the reference
implementation.  Nothing at runtime calls them; ``tests/crypto/
test_sha3.py`` checks both them and the fast path against the FIPS 202
vectors and against each other.
"""

from __future__ import annotations

import copy
import hashlib

_MASK64 = (1 << 64) - 1

# Rotation offsets for the rho step, indexed by lane (x, y) flattened as
# x + 5*y (FIPS 202 Table: offsets of rho).
_RHO_OFFSETS = (
    0, 1, 62, 28, 27,
    36, 44, 6, 55, 20,
    3, 10, 43, 25, 39,
    41, 45, 15, 21, 8,
    18, 2, 61, 56, 14,
)

# Round constants for the iota step (24 rounds of Keccak-f[1600]).
_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)


def _rotl64(value: int, shift: int) -> int:
    """Rotate a 64-bit lane left by ``shift`` bits."""
    if shift == 0:
        return value
    return ((value << shift) | (value >> (64 - shift))) & _MASK64


def keccak_f1600(state: list[int]) -> list[int]:
    """Apply the Keccak-f[1600] permutation to 25 64-bit lanes.

    ``state`` is a list of 25 integers, lane (x, y) at index x + 5*y.
    Returns a new list; the input is not modified.
    """
    if len(state) != 25:
        raise ValueError(f"Keccak-f[1600] state must have 25 lanes, got {len(state)}")
    a = list(state)
    for round_constant in _ROUND_CONSTANTS:
        # theta
        c = [a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20] for x in range(5)]
        d = [c[(x - 1) % 5] ^ _rotl64(c[(x + 1) % 5], 1) for x in range(5)]
        for x in range(5):
            for y in range(0, 25, 5):
                a[x + y] ^= d[x]
        # rho and pi combined: b[y, 2x+3y] = rotl(a[x, y], rho[x, y])
        b = [0] * 25
        for x in range(5):
            for y in range(5):
                b[y + 5 * ((2 * x + 3 * y) % 5)] = _rotl64(
                    a[x + 5 * y], _RHO_OFFSETS[x + 5 * y]
                )
        # chi
        for x in range(5):
            for y in range(0, 25, 5):
                a[x + y] = b[x + y] ^ ((~b[(x + 1) % 5 + y]) & b[(x + 2) % 5 + y] & _MASK64)
        # iota
        a[0] ^= round_constant
    return a


class ReferenceSponge:
    """Sponge construction over Keccak-f[1600] (byte-oriented reference)."""

    def __init__(self, rate_bytes: int, domain_suffix: int) -> None:
        self._rate = rate_bytes
        self._suffix = domain_suffix
        self._state = [0] * 25
        self._buffer = bytearray()
        self._squeezing = False
        self._squeeze_offset = 0

    def absorb(self, data: bytes) -> None:
        if self._squeezing:
            raise ValueError("cannot absorb after squeezing has begun")
        self._buffer += data
        while len(self._buffer) >= self._rate:
            block = self._buffer[: self._rate]
            del self._buffer[: self._rate]
            self._xor_block(block)
            self._state = keccak_f1600(self._state)

    def _xor_block(self, block: bytes) -> None:
        for i in range(0, len(block), 8):
            lane = int.from_bytes(block[i : i + 8], "little")
            self._state[i // 8] ^= lane

    def _pad_and_switch(self) -> None:
        # pad10*1 with the domain-separation suffix prepended.
        block = bytearray(self._buffer)
        self._buffer.clear()
        block.append(self._suffix)
        block += b"\x00" * (self._rate - len(block))
        block[-1] ^= 0x80
        self._xor_block(bytes(block))
        self._state = keccak_f1600(self._state)
        self._squeezing = True
        self._squeeze_offset = 0

    def squeeze(self, n: int) -> bytes:
        if not self._squeezing:
            self._pad_and_switch()
        out = bytearray()
        while len(out) < n:
            if self._squeeze_offset == self._rate:
                self._state = keccak_f1600(self._state)
                self._squeeze_offset = 0
            lane_index, lane_offset = divmod(self._squeeze_offset, 8)
            lane_bytes = self._state[lane_index].to_bytes(8, "little")
            take = min(8 - lane_offset, n - len(out), self._rate - self._squeeze_offset)
            out += lane_bytes[lane_offset : lane_offset + take]
            self._squeeze_offset += take
        return bytes(out)


class _KeccakSponge:
    """A FIPS 202 sponge on a ``hashlib`` object, with the contract of
    :class:`ReferenceSponge`: output is one stream that successive
    squeezes continue, and absorbing ends when squeezing begins.

    Every byte the hash objects hash passes through :meth:`absorb`,
    which is where ``perfbench`` counts ``crypto.sha3_bytes``.
    """

    def __init__(self, hasher) -> None:
        self._hash = hasher
        #: Bytes squeezed so far; ``None`` while absorbing.
        self._squeezed: int | None = None

    def absorb(self, data: bytes) -> None:
        if self._squeezed is not None:
            raise ValueError("cannot absorb after squeezing has begun")
        self._hash.update(data)

    def squeeze(self, n: int) -> bytes:
        start = self._squeezed or 0
        self._squeezed = start + n
        if self._hash.digest_size:  # SHA-3: one fixed-length output
            return self._hash.digest()[start : start + n]
        # SHAKE: hashlib recomputes the stream from its start.
        return self._hash.digest(start + n)[start:]

    def __deepcopy__(self, memo: dict) -> _KeccakSponge:
        # hashlib objects cannot be deep-copied, only ``copy()``-ed.
        clone = copy.copy(self)
        clone._hash = self._hash.copy()
        return clone


class _Sha3Digest:
    """Incremental SHA-3 hash object (hashlib-like interface)."""

    #: Subclasses set these; ``name`` is the ``hashlib`` name.
    digest_size: int = 0
    name: str = "sha3"

    def __init__(self, data: bytes = b"") -> None:
        self._sponge = _KeccakSponge(hashlib.new(self.name))
        self._done: bytes | None = None
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        """Absorb ``data``; raises once the digest has been finalized."""
        if self._done is not None:
            raise ValueError("cannot update a finalized SHA-3 digest")
        self._sponge.absorb(bytes(data))

    def digest(self) -> bytes:
        """Finalize (idempotently) and return the digest."""
        if self._done is None:
            self._done = self._sponge.squeeze(self.digest_size)
        return self._done

    def hexdigest(self) -> str:
        return self.digest().hex()


class SHA3_256(_Sha3Digest):
    """Incremental SHA3-256 (FIPS 202, capacity 512 bits)."""

    digest_size = 32
    name = "sha3_256"


class SHA3_384(_Sha3Digest):
    """Incremental SHA3-384 (FIPS 202, capacity 768 bits)."""

    digest_size = 48
    name = "sha3_384"


class SHA3_512(_Sha3Digest):
    """Incremental SHA3-512 (FIPS 202, capacity 1024 bits)."""

    digest_size = 64
    name = "sha3_512"


class _Shake:
    """Incremental SHAKE extendable-output function."""

    #: Subclasses set the ``hashlib`` name.
    name: str = "shake"

    def __init__(self, data: bytes = b"") -> None:
        self._sponge = _KeccakSponge(hashlib.new(self.name))
        if data:
            self._sponge.absorb(bytes(data))

    def update(self, data: bytes) -> None:
        self._sponge.absorb(bytes(data))

    def read(self, n: int) -> bytes:
        """Squeeze the next ``n`` bytes of output."""
        return self._sponge.squeeze(n)


class SHAKE128(_Shake):
    """SHAKE128 XOF (rate 168 bytes)."""

    name = "shake_128"


class SHAKE256(_Shake):
    """SHAKE256 XOF (rate 136 bytes)."""

    name = "shake_256"


def sha3_256(data: bytes) -> bytes:
    """One-shot SHA3-256."""
    return SHA3_256(data).digest()


def sha3_384(data: bytes) -> bytes:
    """One-shot SHA3-384."""
    return SHA3_384(data).digest()


def sha3_512(data: bytes) -> bytes:
    """One-shot SHA3-512."""
    return SHA3_512(data).digest()


def shake128(data: bytes, n: int) -> bytes:
    """One-shot SHAKE128 with ``n`` output bytes."""
    return SHAKE128(data).read(n)


def shake256(data: bytes, n: int) -> bytes:
    """One-shot SHAKE256 with ``n`` output bytes."""
    return SHAKE256(data).read(n)
