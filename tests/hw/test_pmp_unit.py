"""Direct unit tests of the PMP checker (repro.hw.pmp).

The Keystone backend's isolation rests entirely on this unit's
semantics; these tests pin them down in isolation from any platform:
lowest-slot-wins priority among overlapping entries, slot bounds,
clearing, and the default decision per privilege when no entry matches.
"""

import pytest

from repro.hw.pmp import PmpEntry, PmpPerm, PmpUnit, Privilege

PAGE = 0x1000


def entry(base, size, perms, label=""):
    return PmpEntry(base, size, perms, label=label)


class TestEntryMatching:
    def test_matches_is_half_open(self):
        e = entry(PAGE, PAGE, {Privilege.U: PmpPerm.RWX})
        assert not e.matches(PAGE - 1)
        assert e.matches(PAGE)
        assert e.matches(2 * PAGE - 1)
        assert not e.matches(2 * PAGE)

    def test_allows_requires_every_requested_bit(self):
        e = entry(0, PAGE, {Privilege.U: PmpPerm.RX})
        assert e.allows(Privilege.U, PmpPerm.R)
        assert e.allows(Privilege.U, PmpPerm.X)
        assert e.allows(Privilege.U, PmpPerm.RX)
        assert not e.allows(Privilege.U, PmpPerm.W)
        assert not e.allows(Privilege.U, PmpPerm.RW)

    def test_modes_absent_from_the_perm_map_are_denied(self):
        e = entry(0, PAGE, {Privilege.U: PmpPerm.RWX})
        assert not e.allows(Privilege.S, PmpPerm.R)
        assert e.allows(Privilege.S, PmpPerm.NONE)


class TestSlotPriority:
    def test_lowest_numbered_matching_entry_decides(self):
        pmp = PmpUnit()
        # Slot 0 exposes the page to U; slot 1 denies the same page.
        pmp.set_entry(0, entry(PAGE, PAGE, {Privilege.U: PmpPerm.RWX}, "expose"))
        pmp.set_entry(1, entry(PAGE, PAGE, {}, "deny"))
        assert pmp.check(PAGE, Privilege.U, PmpPerm.R)
        # Swap the priorities: the deny now shadows the exposure.
        pmp.clear()
        pmp.set_entry(0, entry(PAGE, PAGE, {}, "deny"))
        pmp.set_entry(1, entry(PAGE, PAGE, {Privilege.U: PmpPerm.RWX}, "expose"))
        assert not pmp.check(PAGE, Privilege.U, PmpPerm.R)

    def test_overlapping_entries_split_an_interval(self):
        # Keystone's idiom: a narrow high-priority exposure carved out
        # of a broad low-priority deny.
        pmp = PmpUnit()
        pmp.set_entry(0, entry(2 * PAGE, PAGE, {Privilege.U: PmpPerm.RWX}))
        pmp.set_entry(1, entry(0, 8 * PAGE, {}))
        assert not pmp.check(PAGE, Privilege.U, PmpPerm.R)
        assert pmp.check(2 * PAGE, Privilege.U, PmpPerm.R)
        assert not pmp.check(3 * PAGE, Privilege.U, PmpPerm.R)

    def test_gaps_between_slots_do_not_change_priority(self):
        pmp = PmpUnit()
        pmp.set_entry(3, entry(0, PAGE, {}))
        pmp.set_entry(9, entry(0, PAGE, {Privilege.S: PmpPerm.RW}))
        assert not pmp.check(0, Privilege.S, PmpPerm.R)

    def test_entries_lists_programmed_slots_in_priority_order(self):
        pmp = PmpUnit()
        pmp.set_entry(5, entry(0, PAGE, {}))
        pmp.set_entry(2, entry(PAGE, PAGE, {}))
        assert [slot for slot, _ in pmp.entries()] == [2, 5]


class TestSetEntryBounds:
    def test_slot_out_of_range_raises(self):
        pmp = PmpUnit(entry_slots=4)
        with pytest.raises(ValueError):
            pmp.set_entry(4, entry(0, PAGE, {}))
        with pytest.raises(ValueError):
            pmp.set_entry(-1, entry(0, PAGE, {}))

    def test_set_entry_with_none_clears_one_slot(self):
        pmp = PmpUnit()
        pmp.set_entry(0, entry(0, PAGE, {}))
        assert not pmp.check(0, Privilege.U, PmpPerm.R)
        pmp.set_entry(0, None)
        # Unit is now unprogrammed again: U-mode default-allows.
        assert pmp.check(0, Privilege.U, PmpPerm.R)

    def test_clear_resets_every_slot(self):
        pmp = PmpUnit()
        for slot in range(4):
            pmp.set_entry(slot, entry(slot * PAGE, PAGE, {}))
        pmp.clear()
        assert pmp.entries() == []
        assert pmp.check(0, Privilege.U, PmpPerm.RWX)


class TestDefaultDecision:
    def test_unprogrammed_unit_allows_every_mode(self):
        # Pre-boot state: no PMP implemented, physical accesses pass.
        pmp = PmpUnit()
        for privilege in (Privilege.U, Privilege.S, Privilege.M):
            assert pmp.check(0, privilege, PmpPerm.RWX)

    def test_programmed_unit_denies_unmatched_s_and_u(self):
        pmp = PmpUnit()
        pmp.set_entry(0, entry(PAGE, PAGE, {Privilege.U: PmpPerm.RWX}))
        # The access below falls outside every entry.
        assert not pmp.check(4 * PAGE, Privilege.U, PmpPerm.R)
        assert not pmp.check(4 * PAGE, Privilege.S, PmpPerm.R)

    def test_m_mode_default_allows_when_nothing_matches(self):
        pmp = PmpUnit()
        pmp.set_entry(0, entry(0, PAGE, {}))  # denies everyone it maps
        assert not pmp.check(0, Privilege.S, PmpPerm.R)
        # RISC-V default: an M-mode access with no matching entry passes
        # even on a programmed unit.
        assert pmp.check(4 * PAGE, Privilege.M, PmpPerm.RWX)

    def test_matching_entry_decides_even_for_m_mode(self):
        # At the unit level a matching entry with no M grant denies M
        # (a locked entry in RISC-V terms); the Keystone platform keeps
        # the SM exempt by short-circuiting M-mode in check_access,
        # never by relying on the unit.
        pmp = PmpUnit()
        pmp.set_entry(0, entry(0, PAGE, {}))
        assert not pmp.check(0, Privilege.M, PmpPerm.R)
        pmp.set_entry(0, entry(0, PAGE, {Privilege.M: PmpPerm.RWX}))
        assert pmp.check(0, Privilege.M, PmpPerm.R)


def _intflag_allows(entry, privilege, perm):
    """``PmpEntry.allows`` as it was before its decisions were
    precomputed: ``IntFlag`` arithmetic on the perm map."""
    granted = entry.perms.get(privilege, PmpPerm.NONE)
    return (granted & perm) == perm


def test_precomputed_decisions_match_intflag_arithmetic():
    """Every privilege x requested perm x granted perm (or no grant), on
    entries granting one or two modes, decides as the old arithmetic."""
    perms = [PmpPerm(value) for value in range(8)]
    grants = [None, *perms]
    for mode in Privilege:
        for other in Privilege:
            for granted in grants:
                for other_granted in grants:
                    perm_map = {}
                    if granted is not None:
                        perm_map[mode] = granted
                    if other is not mode and other_granted is not None:
                        perm_map[other] = other_granted
                    e = entry(0, PAGE, perm_map)
                    for privilege in Privilege:
                        for perm in perms:
                            assert e.allows(privilege, perm) == _intflag_allows(
                                e, privilege, perm
                            ), (perm_map, privilege, perm)
