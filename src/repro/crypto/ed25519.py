"""Ed25519 signatures from scratch (RFC 8032).

The paper leaves the attestation signature scheme abstract ("SM produces
an attestation via this signing key", §VI-C); the Keystone
implementation of Sanctorum concepts uses Ed25519, so we do too.  This
is a readable RFC 8032 implementation over the twisted Edwards curve
edwards25519, using extended homogeneous coordinates for group
arithmetic.  RFC 8032 requires SHA-512: the runtime path uses the
standard library's ``hashlib.sha512``, and a from-scratch FIPS 180-4
SHA-512 at the top of this module is kept as its reference.

Scalar multiplication has a fast path and a reference.  The base point
is multiplied from a table of its radix-16 multiples, built once per
process (ref10's ``ge_scalarmult_base``; Bernstein et al., "High-speed
high-security signatures", 2011), and verify's ``[k]A`` uses a 4-bit
window with dedicated doubling.  Textbook double-and-add
(:func:`_point_mul`) is kept as their reference.  The table lookups are
indexed by secret scalar digits, and zero digits are skipped, so host
time depends on secrets.  Host timing is not a channel this model
covers: the simulated crypto unit charges a fixed cycle count per
operation.

Validated against RFC 8032 test vectors in
``tests/crypto/test_ed25519.py``, which also checks the two SHA-512s
against each other; ``tests/crypto/test_curve_kernels.py`` checks the
fast kernels against the reference.
"""

from __future__ import annotations

import hashlib

from repro.errors import CryptoError

# --------------------------------------------------------------------------
# SHA-512 (FIPS 180-4), needed by RFC 8032: stdlib fast path, and a small
# self-contained reference that only the tests call.
# --------------------------------------------------------------------------

_SHA512_K = (
    0x428A2F98D728AE22, 0x7137449123EF65CD, 0xB5C0FBCFEC4D3B2F, 0xE9B5DBA58189DBBC,
    0x3956C25BF348B538, 0x59F111F1B605D019, 0x923F82A4AF194F9B, 0xAB1C5ED5DA6D8118,
    0xD807AA98A3030242, 0x12835B0145706FBE, 0x243185BE4EE4B28C, 0x550C7DC3D5FFB4E2,
    0x72BE5D74F27B896F, 0x80DEB1FE3B1696B1, 0x9BDC06A725C71235, 0xC19BF174CF692694,
    0xE49B69C19EF14AD2, 0xEFBE4786384F25E3, 0x0FC19DC68B8CD5B5, 0x240CA1CC77AC9C65,
    0x2DE92C6F592B0275, 0x4A7484AA6EA6E483, 0x5CB0A9DCBD41FBD4, 0x76F988DA831153B5,
    0x983E5152EE66DFAB, 0xA831C66D2DB43210, 0xB00327C898FB213F, 0xBF597FC7BEEF0EE4,
    0xC6E00BF33DA88FC2, 0xD5A79147930AA725, 0x06CA6351E003826F, 0x142929670A0E6E70,
    0x27B70A8546D22FFC, 0x2E1B21385C26C926, 0x4D2C6DFC5AC42AED, 0x53380D139D95B3DF,
    0x650A73548BAF63DE, 0x766A0ABB3C77B2A8, 0x81C2C92E47EDAEE6, 0x92722C851482353B,
    0xA2BFE8A14CF10364, 0xA81A664BBC423001, 0xC24B8B70D0F89791, 0xC76C51A30654BE30,
    0xD192E819D6EF5218, 0xD69906245565A910, 0xF40E35855771202A, 0x106AA07032BBD1B8,
    0x19A4C116B8D2D0C8, 0x1E376C085141AB53, 0x2748774CDF8EEB99, 0x34B0BCB5E19B48A8,
    0x391C0CB3C5C95A63, 0x4ED8AA4AE3418ACB, 0x5B9CCA4F7763E373, 0x682E6FF3D6B2B8A3,
    0x748F82EE5DEFB2FC, 0x78A5636F43172F60, 0x84C87814A1F0AB72, 0x8CC702081A6439EC,
    0x90BEFFFA23631E28, 0xA4506CEBDE82BDE9, 0xBEF9A3F7B2C67915, 0xC67178F2E372532B,
    0xCA273ECEEA26619C, 0xD186B8C721C0C207, 0xEADA7DD6CDE0EB1E, 0xF57D4F7FEE6ED178,
    0x06F067AA72176FBA, 0x0A637DC5A2C898A6, 0x113F9804BEF90DAE, 0x1B710B35131C471B,
    0x28DB77F523047D84, 0x32CAAB7B40C72493, 0x3C9EBE0A15C9BEBC, 0x431D67C49C100D4C,
    0x4CC5D4BECB3E42B6, 0x597F299CFC657E2A, 0x5FCB6FAB3AD6FAEC, 0x6C44198C4A475817,
)

_MASK64 = (1 << 64) - 1


def _rotr64(x: int, n: int) -> int:
    return ((x >> n) | (x << (64 - n))) & _MASK64


def sha512(message: bytes) -> bytes:
    """One-shot SHA-512 (FIPS 180-4)."""
    return hashlib.sha512(message).digest()


def reference_sha512(message: bytes) -> bytes:
    """One-shot SHA-512 (FIPS 180-4), from scratch: the reference for :func:`sha512`."""
    h = [
        0x6A09E667F3BCC908, 0xBB67AE8584CAA73B, 0x3C6EF372FE94F82B, 0xA54FF53A5F1D36F1,
        0x510E527FADE682D1, 0x9B05688C2B3E6C1F, 0x1F83D9ABFB41BD6B, 0x5BE0CD19137E2179,
    ]
    length_bits = len(message) * 8
    padded = bytearray(message)
    padded.append(0x80)
    while len(padded) % 128 != 112:
        padded.append(0)
    padded += length_bits.to_bytes(16, "big")

    for block_start in range(0, len(padded), 128):
        w = [
            int.from_bytes(padded[block_start + 8 * i : block_start + 8 * i + 8], "big")
            for i in range(16)
        ]
        for i in range(16, 80):
            s0 = _rotr64(w[i - 15], 1) ^ _rotr64(w[i - 15], 8) ^ (w[i - 15] >> 7)
            s1 = _rotr64(w[i - 2], 19) ^ _rotr64(w[i - 2], 61) ^ (w[i - 2] >> 6)
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & _MASK64)
        a, b, c, d, e, f, g, hh = h
        for i in range(80):
            s1 = _rotr64(e, 14) ^ _rotr64(e, 18) ^ _rotr64(e, 41)
            ch = (e & f) ^ ((~e & _MASK64) & g)
            temp1 = (hh + s1 + ch + _SHA512_K[i] + w[i]) & _MASK64
            s0 = _rotr64(a, 28) ^ _rotr64(a, 34) ^ _rotr64(a, 39)
            maj = (a & b) ^ (a & c) ^ (b & c)
            temp2 = (s0 + maj) & _MASK64
            hh, g, f, e, d, c, b, a = (
                g, f, e, (d + temp1) & _MASK64, c, b, a, (temp1 + temp2) & _MASK64,
            )
        h = [(x + y) & _MASK64 for x, y in zip(h, (a, b, c, d, e, f, g, hh))]
    return b"".join(x.to_bytes(8, "big") for x in h)


# --------------------------------------------------------------------------
# edwards25519 group arithmetic (RFC 8032 §5.1)
# --------------------------------------------------------------------------

_P = 2**255 - 19
_L = 2**252 + 27742317777372353535851937790883648493
_D = (-121665 * pow(121666, _P - 2, _P)) % _P

# Base point (x, y) with y = 4/5.
_BASE_Y = (4 * pow(5, _P - 2, _P)) % _P


def _inv(z: int) -> int:
    """Inverse modulo p, mapping 0 to 0 as Fermat's ``z**(p-2)`` does."""
    z %= _P
    return pow(z, -1, _P) if z else 0


_SQRT_M1 = pow(2, (_P - 1) // 4, _P)


def _recover_x(y: int, sign: int) -> int:
    """Recover the x coordinate from y and the sign bit (RFC 8032 §5.1.3)."""
    if y >= _P:
        raise CryptoError("point y coordinate out of range")
    x2 = (y * y - 1) * _inv(_D * y * y + 1) % _P
    if x2 == 0:
        if sign:
            raise CryptoError("invalid point encoding (x=0 with sign bit)")
        return 0
    x = pow(x2, (_P + 3) // 8, _P)
    if (x * x - x2) % _P != 0:
        x = x * _SQRT_M1 % _P
    if (x * x - x2) % _P != 0:
        raise CryptoError("point is not on edwards25519")
    if (x & 1) != sign:
        x = _P - x
    return x


_BASE_X = _recover_x(_BASE_Y, 0)

# Points are extended homogeneous coordinates (X, Y, Z, T), x=X/Z, y=Y/Z,
# T = XY/Z.
_IDENTITY = (0, 1, 1, 0)
_BASE_POINT = (_BASE_X, _BASE_Y, 1, (_BASE_X * _BASE_Y) % _P)

Point = tuple[int, int, int, int]


def _point_add(p: Point, q: Point) -> Point:
    """Add two edwards25519 points (RFC 8032 §5.1.4)."""
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2) % _P
    b = (y1 + x1) * (y2 + x2) % _P
    c = 2 * t1 * t2 * _D % _P
    d = 2 * z1 * z2 % _P
    e, f, g, h = b - a, d - c, d + c, b + a
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


def _point_mul(scalar: int, point: Point) -> Point:
    """Scalar multiplication by repeated doubling.

    The readable reference for :func:`_base_mul` and :func:`_window_mul`;
    only the tests call it.
    """
    result = _IDENTITY
    addend = point
    while scalar > 0:
        if scalar & 1:
            result = _point_add(result, addend)
        addend = _point_add(addend, addend)
        scalar >>= 1
    return result


def _point_double(p: Point) -> Point:
    """Double an edwards25519 point (dbl-2008-hwcd with a = -1): 4M + 4S."""
    x1, y1, z1, _ = p
    a = x1 * x1 % _P
    b = y1 * y1 % _P
    c = 2 * z1 * z1 % _P
    e = ((x1 + y1) ** 2 - a - b) % _P
    g = b - a
    f = g - c
    h = -a - b
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


# --------------------------------------------------------------------------
# Fast scalar multiplication (see the module docstring on secret-indexed
# lookups and host timing)
# --------------------------------------------------------------------------


def _build_base_table() -> tuple[tuple, ...]:
    """Row ``i`` holds ``[k * 16**i]B`` for ``k = ±1..±8`` in affine Niels
    form ``(y + x, y - x, 2dxy)``, indexed by the signed digit itself:
    ``row[k]`` for ``k = 1..8``, ``row[-k]`` (Python's negative index)
    for the negation, which swaps the first two fields and negates the
    third.  One batched inversion makes every multiple affine.
    """
    points = []
    row_base = _BASE_POINT
    for _ in range(64):
        multiple = row_base
        points.append(multiple)
        for _ in range(7):
            multiple = _point_add(multiple, row_base)
            points.append(multiple)
        row_base = _point_double(multiple)
    # Montgomery's trick: 3 multiplications per point and one inversion.
    prefix = []
    acc = 1
    for point in points:
        prefix.append(acc)
        acc = acc * point[2] % _P
    inverse = _inv(acc)
    niels = [None] * len(points)
    for i in reversed(range(len(points))):
        x, y, z, _ = points[i]
        zinv = inverse * prefix[i] % _P
        inverse = inverse * z % _P
        x, y = x * zinv % _P, y * zinv % _P
        niels[i] = ((y + x) % _P, (y - x) % _P, 2 * _D * x * y % _P)
    rows = []
    for i in range(0, len(niels), 8):
        positive = niels[i : i + 8]
        negative = [(ymx, ypx, -xy2d % _P) for ypx, ymx, xy2d in reversed(positive)]
        rows.append((None, *positive, *negative))
    return tuple(rows)


_BASE_TABLE = _build_base_table()


def _base_mul(scalar: int) -> Point:
    """``[scalar]B`` from :data:`_BASE_TABLE`: 64 mixed additions, no
    doublings.

    The scalar is recoded into 64 signed radix-16 digits, the first 63
    in ``[-8, 8)``; the top one is not recentred, and for a scalar
    below ``2**255`` it ends at most at 8, the table's largest multiple.
    """
    if scalar >> 255:
        scalar %= _L
    x, y, z, t = _IDENTITY
    carry = 0
    for i, row in enumerate(_BASE_TABLE):
        digit = ((scalar >> (4 * i)) & 15) + carry
        if i < 63:
            carry = (digit + 8) >> 4
            digit -= carry << 4
        if digit:
            ypx, ymx, xy2d = row[digit]
            a = (y + x) * ypx % _P
            b = (y - x) * ymx % _P
            c = t * xy2d % _P
            d = z + z
            e, f, g, h = a - b, d - c, d + c, a + b
            x, y, z, t = e * f % _P, g * h % _P, f * g % _P, e * h % _P
    return (x, y, z, t)


def _window_mul(scalar: int, point: Point) -> Point:
    """``[scalar]point`` with a 4-bit fixed window: four doublings and at
    most one addition of a cached multiple per nibble."""
    multiples = [_IDENTITY, point]
    for _ in range(14):
        multiples.append(_point_add(multiples[-1], point))
    # (Y + X, Y - X, 2dT, 2Z) per multiple: the addend side of _point_add.
    cached = [((y + x) % _P, (y - x) % _P, 2 * _D * t % _P, 2 * z % _P) for x, y, z, t in multiples]
    shift = max(scalar.bit_length() - 1, 0) & ~3
    x, y, z, t = multiples[(scalar >> shift) & 15]
    while shift:
        shift -= 4
        for _ in range(4):
            x, y, z, t = _point_double((x, y, z, t))
        digit = (scalar >> shift) & 15
        if digit:
            ypx, ymx, t2d, z2 = cached[digit]
            a = (y + x) * ypx % _P
            b = (y - x) * ymx % _P
            c = t * t2d % _P
            d = z * z2 % _P
            e, f, g, h = a - b, d - c, d + c, a + b
            x, y, z, t = e * f % _P, g * h % _P, f * g % _P, e * h % _P
    return (x, y, z, t)


def _point_equal(p: Point, q: Point) -> bool:
    x1, y1, z1, _ = p
    x2, y2, z2, _ = q
    return (x1 * z2 - x2 * z1) % _P == 0 and (y1 * z2 - y2 * z1) % _P == 0


def _point_compress(point: Point) -> bytes:
    x, y, z, _ = point
    zinv = _inv(z)
    x, y = x * zinv % _P, y * zinv % _P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def _point_decompress(data: bytes) -> Point:
    if len(data) != 32:
        raise CryptoError(f"point encoding must be 32 bytes, got {len(data)}")
    value = int.from_bytes(data, "little")
    y = value & ((1 << 255) - 1)
    sign = value >> 255
    x = _recover_x(y, sign)
    return (x, y, 1, (x * y) % _P)


def _secret_expand(secret: bytes) -> tuple[int, bytes]:
    if len(secret) != 32:
        raise CryptoError(f"Ed25519 secret key must be 32 bytes, got {len(secret)}")
    h = sha512(secret)
    a = int.from_bytes(h[:32], "little")
    a &= (1 << 254) - 8
    a |= 1 << 254
    return a, h[32:]


def ed25519_public_key(secret: bytes) -> bytes:
    """Derive the 32-byte public key from a 32-byte secret key."""
    a, _ = _secret_expand(secret)
    return _point_compress(_base_mul(a))


def ed25519_generate_keypair(entropy: bytes) -> tuple[bytes, bytes]:
    """Build a keypair from 32 bytes of entropy; returns (secret, public)."""
    if len(entropy) != 32:
        raise CryptoError(f"need exactly 32 bytes of entropy, got {len(entropy)}")
    return entropy, ed25519_public_key(entropy)


def ed25519_sign(secret: bytes, message: bytes) -> bytes:
    """Sign ``message``; returns the 64-byte signature (RFC 8032 §5.1.6)."""
    a, prefix = _secret_expand(secret)
    public = _point_compress(_base_mul(a))
    r = int.from_bytes(sha512(prefix + message), "little") % _L
    r_point = _point_compress(_base_mul(r))
    k = int.from_bytes(sha512(r_point + public + message), "little") % _L
    s = (r + k * a) % _L
    return r_point + s.to_bytes(32, "little")


def ed25519_verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """Verify a signature; returns True iff valid (RFC 8032 §5.1.7)."""
    if len(public) != 32 or len(signature) != 64:
        return False
    try:
        a_point = _point_decompress(public)
        r_point = _point_decompress(signature[:32])
    except CryptoError:
        return False
    s = int.from_bytes(signature[32:], "little")
    if s >= _L:
        return False
    k = int.from_bytes(sha512(signature[:32] + public + message), "little") % _L
    lhs = _base_mul(s)
    rhs = _point_add(r_point, _window_mul(k, a_point))
    return _point_equal(lhs, rhs)
