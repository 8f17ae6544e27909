"""The hardware crypto accelerator, exercised from real SVM-32 code.

Each function is run in-VM by an untrusted program and its output
compared against the host implementations — the accelerator is the same
math behind a fetch/execute boundary, and its operands travel through
the translated, isolation-checked access path.
"""

import time

import pytest

from repro.crypto.ed25519 import ed25519_public_key, ed25519_sign, ed25519_verify
from repro.crypto.sha3 import sha3_512
from repro.crypto.x25519 import x25519, x25519_base
from repro.hw.isa import CryptoFn
from repro.sm.events import OsEventKind
from repro.hw.traps import TrapCause


def test_sha3_in_vm_matches_host(any_system):
    kernel = any_system.kernel
    out = kernel.alloc_buffer(1)
    message = b"the crypto unit works"
    words = ", ".join(
        str(int.from_bytes(message[i : i + 4].ljust(4, b"\0"), "little"))
        for i in range(0, len(message), 4)
    )
    source = f"""
    li   a1, input
    li   a2, {len(message)}
    li   a3, {out}
    crypto {int(CryptoFn.SHA3_512)}
    halt
    .align 8
input:
    .word {words}
"""
    kernel.run_user_program(source)
    assert kernel.read_shared(out, 64) == sha3_512(message)


def test_ed25519_sign_in_vm_verifies_on_host(any_system):
    kernel = any_system.kernel
    buffers = kernel.alloc_buffer(1)
    secret = bytes(range(32))
    kernel.write_shared(buffers, secret)          # key at +0
    kernel.write_shared(buffers + 0x40, b"msg!")  # message at +0x40
    source = f"""
    li   a1, {buffers}
    li   a2, {buffers + 0x40}
    li   a3, 4
    li   a4, {buffers + 0x80}
    crypto {int(CryptoFn.ED25519_SIGN)}
    li   a1, {buffers}
    li   a2, {buffers + 0xC0}
    crypto {int(CryptoFn.ED25519_PUB)}
    halt
"""
    kernel.run_user_program(source)
    signature = kernel.read_shared(buffers + 0x80, 64)
    public = kernel.read_shared(buffers + 0xC0, 32)
    assert public == ed25519_public_key(secret)
    assert signature == ed25519_sign(secret, b"msg!")
    assert ed25519_verify(public, b"msg!", signature)


def test_x25519_in_vm_matches_host(any_system):
    kernel = any_system.kernel
    buffers = kernel.alloc_buffer(1)
    scalar = bytes(range(1, 33))
    peer = x25519_base(bytes(range(33, 65)))
    kernel.write_shared(buffers, scalar)
    kernel.write_shared(buffers + 0x20, peer)
    source = f"""
    li   a1, {buffers}
    li   a2, {buffers + 0x40}
    crypto {int(CryptoFn.X25519_BASE)}
    li   a1, {buffers}
    li   a2, {buffers + 0x20}
    li   a3, {buffers + 0x60}
    crypto {int(CryptoFn.X25519)}
    halt
"""
    kernel.run_user_program(source)
    assert kernel.read_shared(buffers + 0x40, 32) == x25519_base(scalar)
    assert kernel.read_shared(buffers + 0x60, 32) == x25519(scalar, peer)


def test_random_in_vm_is_nonzero_and_fresh(any_system):
    kernel = any_system.kernel
    out = kernel.alloc_buffer(1)
    source = f"""
    li   a1, {out}
    li   a2, 32
    crypto {int(CryptoFn.RANDOM)}
    li   a1, {out + 0x20}
    li   a2, 32
    crypto {int(CryptoFn.RANDOM)}
    halt
"""
    kernel.run_user_program(source)
    first = kernel.read_shared(out, 32)
    second = kernel.read_shared(out + 0x20, 32)
    assert first != bytes(32) and second != bytes(32)
    assert first != second


def test_bad_crypto_function_traps(any_system):
    kernel = any_system.kernel
    __, events = kernel.run_user_program("crypto 99\nhalt\n")
    assert events and events[0].cause is TrapCause.ILLEGAL_INSTRUCTION


def test_bad_key_material_traps(any_system):
    """A malformed X25519 point (low-order) is an illegal-operand trap."""
    kernel = any_system.kernel
    buffers = kernel.alloc_buffer(1)  # zeros: u=0 is low-order
    source = f"""
    li   a1, {buffers}
    li   a2, {buffers + 0x20}
    li   a3, {buffers + 0x40}
    crypto {int(CryptoFn.X25519)}
    halt
"""
    __, events = kernel.run_user_program(source)
    assert events and events[0].cause is TrapCause.ILLEGAL_INSTRUCTION


def test_crypto_operands_respect_isolation(any_system):
    """The accelerator cannot read across protection domains."""
    kernel = any_system.kernel
    from tests.conftest import trivial_enclave_image

    loaded = kernel.load_enclave(trivial_enclave_image())
    out = kernel.alloc_buffer(1)
    source = f"""
    li   a1, {loaded.region_base}   # hash enclave memory?  no.
    li   a2, 64
    li   a3, {out}
    crypto {int(CryptoFn.SHA3_512)}
    halt
"""
    __, events = kernel.run_user_program(source)
    assert events and events[0].kind is OsEventKind.FAULT
    assert events[0].cause is TrapCause.ACCESS_FAULT_LOAD
    assert kernel.read_shared(out, 64) == bytes(64)


@pytest.mark.parametrize("length", [64, -1], ids=["64", "0xFFFFFFFF"])
def test_random_fault_is_precise_and_draws_nothing(any_system, length):
    """RANDOM into a destination whose tail is another domain's memory
    traps with nothing written and no entropy drawn, however large the
    request: the destination is checked before the TRNG is read."""
    kernel = any_system.kernel
    from tests.conftest import trivial_enclave_image

    loaded = kernel.load_enclave(trivial_enclave_image())
    start = loaded.region_base - 16
    before = kernel.read_shared(start, 16)
    trng = any_system.machine.trng
    state = trng._state
    source = f"""
    li   a1, {start}
    li   a2, {length}
    crypto {int(CryptoFn.RANDOM)}
    halt
"""
    began = time.perf_counter()
    __, events = kernel.run_user_program(source)
    assert time.perf_counter() - began < 1.0
    assert events and events[0].cause is TrapCause.ACCESS_FAULT_STORE
    assert kernel.read_shared(start, 16) == before
    assert trng._state == state


def test_misaligned_pc_traps(any_system):
    kernel = any_system.kernel
    source = """
    li   t0, 4
    jalr zero, t0, 1                # jump to a misaligned address
    halt
"""
    __, events = kernel.run_user_program(source)
    assert events and events[0].cause is TrapCause.ILLEGAL_INSTRUCTION
