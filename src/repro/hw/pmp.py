"""RISC-V-style physical memory protection (PMP).

§VII-B: "Keystone is an enclave framework using RISC-V's powerful
physical memory protection (PMP) primitive, and does not rely on
hardware modifications to standard RISC-V processors.  PMP allows
dynamic white-listing of intervals of memory as being accessible by
specific privilege modes."

This module models the PMP unit the Keystone backend programs: an
ordered list of entries, each granting or denying R/W/X on a physical
interval per privilege mode.  As in RISC-V, the *lowest-numbered
matching entry* decides, M-mode (the SM) is unaffected by entries
unless an entry is locked against it (we model the common Keystone
usage: M-mode always passes), and an access with no matching entry
fails for S/U modes on machines where any PMP entry is implemented.
"""

from __future__ import annotations

import dataclasses
import enum


class Privilege(enum.IntEnum):
    """Privilege modes, ordered by authority."""

    U = 0
    S = 1
    M = 3


class PmpPerm(enum.IntFlag):
    """Permission bits carried by a PMP entry."""

    NONE = 0
    R = 1
    W = 2
    X = 4
    RW = R | W
    RX = R | X
    RWX = R | W | X


#: Mode values index a list of this length.
_MODES = max(Privilege) + 1
#: ``_COVERS[granted][perm]``: whether ``granted`` has every bit of ``perm``.
_COVERS = tuple(tuple(granted & perm == perm for perm in range(8)) for granted in range(8))


@dataclasses.dataclass(frozen=True)
class PmpEntry:
    """One PMP entry: a physical interval with per-mode permissions.

    ``base`` and ``size`` delimit ``[base, base + size)``.  ``perms``
    maps privilege modes to the permissions granted; modes absent from
    the map are denied by this entry (when it matches).
    """

    base: int
    size: int
    perms: dict[Privilege, PmpPerm]
    label: str = ""
    #: :meth:`allows` precomputed as ``_decisions[privilege][perm]`` for
    #: every mode value and permission mask: ``IntFlag`` arithmetic
    #: builds a new enum member per operation, and the check runs on
    #: every access a Keystone core makes.
    _decisions: tuple[tuple[bool, ...], ...] = dataclasses.field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        granted = [PmpPerm.NONE] * _MODES
        for mode, perm in self.perms.items():
            granted[mode] = perm
        object.__setattr__(self, "_decisions", tuple(_COVERS[perm] for perm in granted))

    def matches(self, paddr: int) -> bool:
        return self.base <= paddr < self.base + self.size

    def allows(self, privilege: Privilege, perm: PmpPerm) -> bool:
        return self._decisions[privilege][perm]


class PmpUnit:
    """The per-hart PMP checker.

    Keystone's SM reprograms PMP on every enclave transition; the
    machine model consults :meth:`check` on every physical access a
    core makes (including page-table walks and instruction fetches).
    """

    #: Number of entries on a typical RISC-V hart.
    DEFAULT_ENTRY_SLOTS = 16

    def __init__(self, entry_slots: int = DEFAULT_ENTRY_SLOTS) -> None:
        self.entry_slots = entry_slots
        self._entries: list[PmpEntry | None] = [None] * entry_slots

    def set_entry(self, slot: int, entry: PmpEntry | None) -> None:
        """Program (or clear, with None) one entry slot."""
        if not 0 <= slot < self.entry_slots:
            raise ValueError(f"PMP slot {slot} out of range [0, {self.entry_slots})")
        self._entries[slot] = entry

    def clear(self) -> None:
        """Clear every slot."""
        self._entries = [None] * self.entry_slots

    def entries(self) -> list[tuple[int, PmpEntry]]:
        """Programmed entries as (slot, entry) pairs, in priority order."""
        return [(i, e) for i, e in enumerate(self._entries) if e is not None]

    def check(self, paddr: int, privilege: Privilege, perm: PmpPerm) -> bool:
        """Decide whether the access is permitted.

        The lowest-numbered matching entry decides.  M-mode accesses
        with no matching entry succeed (RISC-V default); S/U accesses
        with no matching entry fail whenever any entry is programmed,
        and succeed on a completely unprogrammed unit (no PMP
        implemented — the pre-boot state).
        """
        any_programmed = False
        for entry in self._entries:
            if entry is None:
                continue
            any_programmed = True
            if entry.matches(paddr):
                return entry.allows(privilege, perm)
        if privilege is Privilege.M:
            return True
        return not any_programmed
