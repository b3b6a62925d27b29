"""Tests for the deployment block bitmap and its consistency rules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import params
from repro.vmm.bitmap import BlockBitmap, BlockState


BLOCK_SECTORS = params.COPY_BLOCK_BYTES // params.SECTOR_BYTES


def make_bitmap(blocks=8):
    return BlockBitmap(blocks * BLOCK_SECTORS)


def test_geometry():
    bitmap = make_bitmap(8)
    assert bitmap.block_count == 8
    assert bitmap.block_of(0) == 0
    assert bitmap.block_of(BLOCK_SECTORS) == 1
    assert bitmap.block_range(1) == (BLOCK_SECTORS, BLOCK_SECTORS)


def test_partial_last_block():
    bitmap = BlockBitmap(BLOCK_SECTORS + 100)
    assert bitmap.block_count == 2
    start, count = bitmap.block_range(1)
    assert start == BLOCK_SECTORS
    assert count == 100


def test_invalid_construction():
    with pytest.raises(ValueError):
        BlockBitmap(0)
    with pytest.raises(ValueError):
        BlockBitmap(100, block_bytes=777)


def test_claim_fill_lifecycle():
    bitmap = make_bitmap()
    assert bitmap.state(0) is BlockState.EMPTY
    assert bitmap.try_claim(0)
    assert bitmap.state(0) is BlockState.COPYING
    assert not bitmap.try_claim(0)  # cannot double-claim
    bitmap.commit_fill(0)
    assert bitmap.state(0) is BlockState.FILLED
    assert not bitmap.try_claim(0)  # cannot claim filled


def test_commit_without_claim_rejected():
    bitmap = make_bitmap()
    with pytest.raises(ValueError):
        bitmap.commit_fill(0)


def test_release_claim():
    bitmap = make_bitmap()
    bitmap.try_claim(2)
    bitmap.release_claim(2)
    assert bitmap.state(2) is BlockState.EMPTY
    assert bitmap.try_claim(2)


def test_complete_flag():
    bitmap = make_bitmap(3)
    for block in range(3):
        bitmap.try_claim(block)
        bitmap.commit_fill(block)
    assert bitmap.complete
    assert bitmap.filled_count == 3


def test_first_empty_from_prefers_locality_and_wraps():
    bitmap = make_bitmap(6)
    for block in (3, 4):
        bitmap.try_claim(block)
        bitmap.commit_fill(block)
    assert bitmap.first_empty_from(3) == 5
    assert bitmap.first_empty_from(5) == 5
    # After 5 is filled, search from 5 wraps to 0.
    bitmap.try_claim(5)
    bitmap.commit_fill(5)
    assert bitmap.first_empty_from(5) == 0


def test_first_empty_skips_copying():
    bitmap = make_bitmap(3)
    bitmap.try_claim(0)
    assert bitmap.first_empty_from(0) == 1


def test_first_empty_none_when_done():
    bitmap = make_bitmap(2)
    for block in range(2):
        bitmap.try_claim(block)
        bitmap.commit_fill(block)
    assert bitmap.first_empty_from(0) is None


def test_guest_full_block_write_fills():
    bitmap = make_bitmap()
    start, count = bitmap.block_range(2)
    bitmap.record_guest_write(start, count)
    assert bitmap.state(2) is BlockState.FILLED


def test_guest_partial_write_marks_dirty_not_filled():
    bitmap = make_bitmap()
    bitmap.record_guest_write(10, 20)
    assert bitmap.state(0) is BlockState.EMPTY
    assert bitmap.dirty.covered_length(10, 20) == 20


def test_guest_write_spanning_blocks():
    bitmap = make_bitmap()
    # Covers all of block 1, tails of block 0 and head of block 2.
    lba = BLOCK_SECTORS - 10
    count = BLOCK_SECTORS + 30
    bitmap.record_guest_write(lba, count)
    assert bitmap.state(0) is BlockState.EMPTY
    assert bitmap.state(1) is BlockState.FILLED
    assert bitmap.state(2) is BlockState.EMPTY
    assert bitmap.dirty.covered_length(lba, 10) == 10
    assert bitmap.dirty.covered_length(2 * BLOCK_SECTORS, 20) == 20


def test_guest_write_during_copying_protects_sectors():
    """The paper's race: guest writes while the block is being fetched.
    The copier's writable_runs (the atomic check) must exclude them."""
    bitmap = make_bitmap()
    assert bitmap.try_claim(0)
    bitmap.record_guest_write(100, 50)
    runs = bitmap.writable_runs(*bitmap.block_range(0))
    covered = sum(count for _, count in runs)
    assert covered == BLOCK_SECTORS - 50
    for start, count in runs:
        assert start + count <= 100 or start >= 150


def test_guest_full_block_write_during_copying_cancels_claim():
    bitmap = make_bitmap()
    bitmap.try_claim(0)
    start, count = bitmap.block_range(0)
    bitmap.record_guest_write(start, count)
    assert bitmap.state(0) is BlockState.FILLED
    # The copier's commit would now be wrong; the claim is gone.
    with pytest.raises(ValueError):
        bitmap.commit_fill(0)


def test_commit_fill_clears_dirty_overlay():
    bitmap = make_bitmap()
    bitmap.try_claim(0)
    bitmap.record_guest_write(5, 10)
    bitmap.commit_fill(0)
    assert bitmap.dirty.covered_length(0, BLOCK_SECTORS) == 0


def test_sectors_local_decision():
    bitmap = make_bitmap()
    bitmap.try_claim(0)
    bitmap.commit_fill(0)
    assert bitmap.sectors_local(0, BLOCK_SECTORS)
    assert not bitmap.sectors_local(0, BLOCK_SECTORS + 1)
    # Dirty sectors count as local.
    bitmap.record_guest_write(BLOCK_SECTORS, 10)
    assert bitmap.sectors_local(0, BLOCK_SECTORS + 10)


def test_local_subranges():
    bitmap = make_bitmap()
    bitmap.try_claim(0)
    bitmap.commit_fill(0)
    bitmap.record_guest_write(BLOCK_SECTORS + 100, 10)
    ranges = list(bitmap.local_subranges(0, 2 * BLOCK_SECTORS))
    assert (0, BLOCK_SECTORS) in ranges
    assert (BLOCK_SECTORS + 100, 10) in ranges
    assert len(ranges) == 2


def test_snapshot_restore_roundtrip():
    bitmap = make_bitmap(4)
    bitmap.try_claim(1)
    bitmap.commit_fill(1)
    bitmap.record_guest_write(7, 5)
    restored = BlockBitmap.restore(bitmap.snapshot())
    assert restored.block_count == 4
    assert restored.state(1) is BlockState.FILLED
    assert restored.dirty.covered_length(7, 5) == 5
    # COPYING state is transient and intentionally not persisted.


def test_filled_count_survives_restore_and_load_snapshot():
    bitmap = make_bitmap(8)
    assert bitmap.claim_run(1, 3) == 3
    bitmap.commit_fill_run(1, 3)
    bitmap.record_guest_write(*bitmap.block_range(6))
    snapshot = bitmap.snapshot()
    restored = BlockBitmap.restore(snapshot)
    assert restored.filled_count == bitmap.filled_count == 4
    assert not restored.complete
    # Loading over a bitmap with other fills replaces, not adds to, them.
    other = make_bitmap(8)
    for block in range(8):
        other.record_guest_write(*other.block_range(block))
    assert other.complete
    other.load_snapshot(snapshot)
    assert other.filled_count == 4
    assert not other.complete


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["fill", "write"]),
                          st.integers(0, 7),
                          st.integers(0, BLOCK_SECTORS - 1),
                          st.integers(1, BLOCK_SECTORS)),
                max_size=25))
def test_property_filled_blocks_never_writable_by_copier(ops):
    """Invariant: writable_runs never includes a sector the guest wrote
    (unless the block was subsequently filled, which clears the overlay
    only after the copier's data is known stale-proof)."""
    bitmap = make_bitmap(8)
    guest_written = set()
    for kind, block, offset, length in ops:
        base, block_len = bitmap.block_range(block)
        if kind == "fill":
            if bitmap.try_claim(block):
                bitmap.commit_fill(block)
                # Filling overwrites nothing the guest wrote afterwards;
                # model keeps only still-relevant writes.
                guest_written = {
                    s for s in guest_written
                    if not base <= s < base + block_len
                }
        else:
            lba = base + min(offset, block_len - 1)
            count = min(length, base + block_len - lba)
            bitmap.record_guest_write(lba, count)
            if not bitmap.is_filled(block):
                guest_written.update(range(lba, lba + count))
    for block in range(8):
        if bitmap.state(block) is BlockState.FILLED:
            continue
        if not bitmap.try_claim(block):
            continue
        for start, count in bitmap.writable_runs(*bitmap.block_range(block)):
            for sector in range(start, start + count):
                assert sector not in guest_written
        bitmap.release_claim(block)


# -- run operations (transfer coalescing) -------------------------------------

def test_claim_run_extends_over_empty_blocks():
    bitmap = make_bitmap(8)
    assert bitmap.claim_run(0, 4) == 4
    for block in range(4):
        assert bitmap.state(block) is BlockState.COPYING
    assert bitmap.state(4) is BlockState.EMPTY


def test_claim_run_stops_at_non_empty_block():
    bitmap = make_bitmap(8)
    bitmap.try_claim(2)
    bitmap.commit_fill(2)
    assert bitmap.claim_run(0, 8) == 2  # blocks 0-1 only
    assert bitmap.state(2) is BlockState.FILLED
    assert bitmap.state(3) is BlockState.EMPTY


def test_claim_run_zero_when_first_block_taken():
    bitmap = make_bitmap(8)
    bitmap.try_claim(0)
    assert bitmap.claim_run(0, 4) == 0


def test_claim_run_clipped_at_image_end():
    bitmap = make_bitmap(4)
    assert bitmap.claim_run(2, 8) == 2


def test_claim_run_rejects_empty_request():
    bitmap = make_bitmap(4)
    with pytest.raises(ValueError):
        bitmap.claim_run(0, 0)


def test_commit_fill_run_fills_atomically():
    bitmap = make_bitmap(8)
    assert bitmap.claim_run(0, 3) == 3
    bitmap.commit_fill_run(0, 3)
    for block in range(3):
        assert bitmap.state(block) is BlockState.FILLED


def test_commit_fill_run_validates_before_mutating():
    bitmap = make_bitmap(8)
    bitmap.try_claim(0)  # block 1 deliberately unclaimed
    with pytest.raises(ValueError, match="block 1 was not claimed"):
        bitmap.commit_fill_run(0, 2)
    # Validation failed before any mutation: block 0 keeps its claim.
    assert bitmap.state(0) is BlockState.COPYING
    assert bitmap.state(1) is BlockState.EMPTY


def test_release_run_returns_blocks_to_empty():
    bitmap = make_bitmap(8)
    assert bitmap.claim_run(0, 3) == 3
    bitmap.release_run(0, 3)
    for block in range(3):
        assert bitmap.state(block) is BlockState.EMPTY


def test_run_operations_emit_per_block_notifications():
    """Sanitizers and simcheck consume per-block transition streams;
    a coalesced run must notify exactly like per-block operations."""
    bitmap = make_bitmap(8)
    events = []
    bitmap.transition_listeners.append(
        lambda event, block, **details: events.append((event, block)))
    bitmap.claim_run(0, 2)
    bitmap.commit_fill_run(0, 2)
    bitmap.claim_run(2, 1)
    bitmap.release_run(2, 1)
    assert events == [
        ("claim", 0), ("claim", 1),
        ("commit", 0), ("commit", 1),
        ("claim", 2), ("release", 2),
    ]


def test_commit_fill_run_clears_dirty_overlay():
    bitmap = make_bitmap(4)
    bitmap.claim_run(0, 2)
    bitmap.record_guest_write(3, 5)  # partial write inside block 0
    bitmap.commit_fill_run(0, 2)
    assert bitmap.dirty.covered_length(0, 2 * BLOCK_SECTORS) == 0


@st.composite
def claim_layouts(draw):
    """A bitmap layout of FILLED/COPYING/EMPTY blocks plus a claim."""
    blocks = draw(st.integers(1, 24))
    states = draw(st.lists(st.sampled_from(["empty", "copying", "filled"]),
                           min_size=blocks, max_size=blocks))
    start = draw(st.integers(0, blocks - 1))
    max_blocks = draw(st.integers(1, blocks + 2))
    return states, start, max_blocks


def _layout_bitmap(states):
    bitmap = BlockBitmap(len(states) * BLOCK_SECTORS)
    for block, state in enumerate(states):
        if state == "filled":
            bitmap.record_guest_write(*bitmap.block_range(block))
        elif state == "copying":
            assert bitmap.try_claim(block)
    events = []
    bitmap.transition_listeners.append(
        lambda event, block, **details: events.append(
            (event, block, tuple(sorted(details.items())))))
    return bitmap, events


@settings(max_examples=200, deadline=None)
@given(claim_layouts())
def test_claim_run_matches_per_block_reference(layout):
    """``claim_run`` claims exactly the blocks, and sends exactly the
    ``"claim"`` notifications, of a ``try_claim`` loop that stops at the
    first non-EMPTY block (only the first block's refusal is tried, and
    so notified and counted)."""
    states, start, max_blocks = layout
    bitmap, events = _layout_bitmap(states)
    reference, reference_events = _layout_bitmap(states)
    claimed = bitmap.claim_run(start, max_blocks)
    expected = 0
    for block in range(start, min(start + max_blocks, len(states))):
        if block > start and reference.state(block) is not BlockState.EMPTY:
            break
        if not reference.try_claim(block):
            break
        expected += 1
    assert claimed == expected
    assert events == reference_events
    for block in range(len(states)):
        assert bitmap.state(block) is reference.state(block)
    assert bitmap.copier_skips == reference.copier_skips
    assert bitmap.double_claims == reference.double_claims
