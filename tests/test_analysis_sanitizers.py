"""Runtime sanitizers detect injected violations; clean runs stay clean.

Each of the four sanitizer families gets at least one ablation-style
test that seeds the race/bug it exists to catch (ISSUE 3 acceptance
criterion), plus a clean-run control proving zero false positives.
"""

import pytest

from repro.analysis import SanitizerSuite
from repro.analysis.aoe_conformance import AoeConformanceValidator
from repro.analysis.consistency import BitmapDiskChecker
from repro.analysis.sanitizers import SanitizerError
from repro.analysis.write_race import WriteRaceDetector
from repro.aoe.client import AoeInitiator, AoeTimeoutError
from repro.cloud.scenario import build_testbed
from repro.dist.fabric import DistFabric
from repro.guest.kernel import GuestOs
from repro.guest.osimage import OsImage
from repro.sim import Environment
from repro.storage.blockdev import BlockOp, BlockRequest
from repro.storage.disk import Disk
from repro.vmm import copier as copier_module
from repro.vmm.bitmap import BlockBitmap
from repro.vmm.bmcast import BmcastVmm
from repro.vmm.moderation import FULL_SPEED

MB = 2**20


# -- shared scenario: guest writes racing a full-speed copier ----------------

class UncheckedCopier(copier_module.BackgroundCopier):
    """Copier with the at-write-time revalidation ripped out."""

    def _write_run(self, first_block, block_count, runs):
        bitmap = self.deployment.bitmap
        start = first_block * bitmap.block_sectors
        count = min(block_count * bitmap.block_sectors,
                    bitmap.image_sectors - start)
        request = BlockRequest(BlockOp.WRITE, start, count, origin="vmm")
        request.buffer.runs = list(runs)
        # No revalidate: whatever was fetched gets written, even over
        # sectors the guest has written since.
        yield from self.mediator.vmm_request(request)
        for block in range(first_block, first_block + block_count):
            try:
                bitmap.commit_fill(block)
                self.blocks_filled += 1
            except ValueError:
                pass


def run_sanitized_race(copier_cls, fluid=False, write_count=24):
    """Racing-writes deployment with the full suite attached.

    Returns ``(suite, lost)`` where ``lost`` lists guest writes whose
    tokens no longer sit on disk (ground truth for the detector).
    ``fluid`` opts the deployment into the fluid fast path, which must
    stay active with the sanitizers attached.
    """
    image = OsImage(size_bytes=24 * MB, boot_read_bytes=1 * MB,
                    boot_think_seconds=0.2)
    testbed = build_testbed(image=image)
    node = testbed.node
    env = testbed.env
    vmm = BmcastVmm(env, node.machine, node.vmm_nic, testbed.server_port,
                    image_sectors=image.total_sectors, policy=FULL_SPEED,
                    fluid=fluid)
    if copier_cls is not copier_module.BackgroundCopier:
        vmm.copier = copier_cls(env, vmm.deployment, vmm.mediator,
                                policy=FULL_SPEED)
    suite = SanitizerSuite(env)
    suite.attach_deployment(vmm, image=image)  # after the copier swap
    guest = GuestOs(node.machine, image)
    writes = {}

    def scenario():
        yield from node.machine.power_on()
        yield from node.machine.firmware.network_boot()
        yield from vmm.boot()
        for index in range(write_count):
            lba = index * 2048 + 7  # mid-block, partial
            token = ("race", index)
            yield from guest.driver.write(lba, 16, token)
            guest.written.set_range(lba, 16, True)
            writes[lba] = token
            yield env.timeout(5e-3)
        yield vmm.copier.done

    env.run(until=env.process(scenario()))
    env.run(until=env.now + 5.0)
    if fluid:
        assert vmm.fluid.describe() == "active"
    disk = node.disk.contents
    lost = [lba for lba, token in writes.items()
            if disk.get(lba) != token]
    suite.finalize()
    return suite, lost


@pytest.mark.parametrize("fluid", [False, True], ids=["packet", "fluid"])
def test_clean_racing_deploy_reports_nothing(fluid):
    suite, lost = run_sanitized_race(copier_module.BackgroundCopier, fluid)
    assert lost == []
    suite.assert_clean()
    assert len(suite.sanitizers) == 3


@pytest.mark.parametrize("fluid", [False, True], ids=["packet", "fluid"])
def test_write_race_detector_catches_unchecked_copier(fluid):
    suite, lost = run_sanitized_race(UncheckedCopier, fluid)
    assert lost, "the ablation should actually lose writes"
    rules = {violation.rule for violation in suite.violations}
    assert "vmm-overwrote-guest" in rules
    # The consistency checker independently sees the same lost updates.
    assert "guest-overwritten" in rules
    with pytest.raises(SanitizerError):
        suite.assert_clean()


# -- claim-protocol violations (unit level) ----------------------------------

def make_detector(image_sectors=4096):
    env = Environment()
    bitmap = BlockBitmap(image_sectors)
    detector = WriteRaceDetector(env, bitmap=bitmap, disk=Disk(env))
    return bitmap, detector


def test_double_claim_detected():
    bitmap, detector = make_detector()
    assert bitmap.try_claim(0)
    assert not bitmap.try_claim(0)
    assert [v.rule for v in detector.violations] == ["double-claim"]
    assert bitmap.double_claims == 1


def test_commit_fill_without_claim_raises_and_reports():
    bitmap, detector = make_detector()
    with pytest.raises(ValueError):
        bitmap.commit_fill(1)
    assert [v.rule for v in detector.violations] == ["fill-without-claim"]


def test_release_after_commit_detected():
    bitmap, detector = make_detector()
    bitmap.try_claim(0)
    bitmap.commit_fill(0)
    bitmap.release_claim(0)
    assert [v.rule for v in detector.violations] == ["release-after-commit"]


def test_release_without_claim_detected():
    bitmap, detector = make_detector()
    bitmap.release_claim(1)
    assert [v.rule for v in detector.violations] == \
        ["release-without-claim"]


def test_guest_fill_then_release_is_benign():
    bitmap, detector = make_detector()
    bitmap.try_claim(0)
    bitmap.record_guest_write(0, bitmap.block_sectors)  # whole block
    bitmap.release_claim(0)  # copier notices its claim evaporated
    assert detector.violations == []


# -- bitmap<->disk consistency: injected silent corruption -------------------

def test_consistency_checker_catches_silent_corruption():
    image = OsImage(size_bytes=16 * MB, boot_read_bytes=1 * MB,
                    boot_think_seconds=0.2)
    testbed = build_testbed(image=image)
    node = testbed.node
    env = testbed.env
    vmm = BmcastVmm(env, node.machine, node.vmm_nic, testbed.server_port,
                    image_sectors=image.total_sectors, policy=FULL_SPEED)
    suite = SanitizerSuite(env)
    suite.attach_deployment(vmm, image=image)

    def scenario():
        yield from node.machine.power_on()
        yield from node.machine.firmware.network_boot()
        yield from vmm.boot()
        yield vmm.copier.done

    env.run(until=env.process(scenario()))
    env.run(until=env.now + 5.0)
    checker = next(s for s in suite.sanitizers
                   if isinstance(s, BitmapDiskChecker))
    assert checker.check(when="pre-corruption") == 0
    # Flip sectors in a FILLED block behind every observer's back —
    # the kind of bug a buggy redirector or DMA error would cause.
    target = image.total_sectors // 2 + 3
    node.disk.contents.set_range(target, 4, ("corrupt",))
    assert checker.check(when="post-corruption") > 0
    rules = {v.rule for v in checker.violations}
    assert rules == {"filled-mismatch"}


# -- AoE conformance: Karn's algorithm ---------------------------------------

class KarnIgnorantInitiator(AoeInitiator):
    """Feeds the estimator from retransmitted replies (the bug)."""

    def _sample_rtt(self, transaction):
        self._record_rtt_sample(transaction)


def run_lossy_reads(initiator_cls, reads=60):
    image = OsImage(size_bytes=8 * MB, boot_read_bytes=1 * MB,
                    boot_think_seconds=0.2)
    testbed = build_testbed(image=image, loss_probability=0.05)
    env = testbed.env
    initiator = initiator_cls(env, testbed.node.vmm_nic,
                              testbed.server_port)
    validator = AoeConformanceValidator(env, initiator=initiator)

    def scenario():
        for index in range(reads):
            lba = (index * 64) % (image.total_sectors - 64)
            try:
                yield from initiator.read_blocks(lba, 64)
            except AoeTimeoutError:
                pass

    env.run(until=env.process(scenario()))
    validator.finalize()
    return initiator, validator


def test_karn_gate_keeps_clean_initiator_clean():
    initiator, validator = run_lossy_reads(AoeInitiator)
    assert initiator.retransmissions > 0, \
        "scenario must actually provoke retransmissions"
    assert validator.samples_seen > 0
    assert validator.violations == []


def test_karn_violation_detected_on_buggy_initiator():
    initiator, validator = run_lossy_reads(KarnIgnorantInitiator)
    assert initiator.retransmissions > 0
    rules = [v.rule for v in validator.violations]
    assert "karn-violation" in rules


# -- AoE conformance: duplicate tags -----------------------------------------

def test_duplicate_tag_detected():
    from itertools import chain, count

    image = OsImage(size_bytes=8 * MB, boot_read_bytes=1 * MB,
                    boot_think_seconds=0.2)
    testbed = build_testbed(image=image)
    env = testbed.env
    initiator = AoeInitiator(env, testbed.node.vmm_nic,
                             testbed.server_port)
    initiator._tags = chain([7, 7], count(100))
    validator = AoeConformanceValidator(env, initiator=initiator)

    def read(lba):
        try:
            yield from initiator.read_blocks(lba, 64)
        except AoeTimeoutError:
            pass

    env.process(read(0))
    env.process(read(1024))
    env.run(until=env.now + 10.0)
    rules = [v.rule for v in validator.violations]
    assert "duplicate-tag" in rules


# -- AoE conformance: NAK must invalidate the directory ----------------------

class _StubInitiator:
    def __init__(self):
        self.observers = []

    def emit(self, kind, **fields):
        for observer in self.observers:
            observer(kind, **fields)


def make_nak_validator():
    env = Environment()
    fabric = DistFabric(["server-0"], p2p=True)
    stub = _StubInitiator()
    validator = AoeConformanceValidator(env, initiator=stub,
                                        fabric=fabric)
    return fabric, stub, validator


def _nak(stub, fabric, target, block):
    stub.emit("nak", tag=3, target=target,
              lba=block * fabric.block_sectors,
              sector_count=fabric.block_sectors, reason="stale")


def test_nak_without_invalidate_reported():
    fabric, stub, validator = make_nak_validator()
    fabric.directory.publish("peer-1", {0, 1, 2})
    _nak(stub, fabric, "peer-1", 0)
    validator.finalize()
    assert [v.rule for v in validator.violations] == \
        ["nak-without-invalidate"]


def test_invalidate_resolves_nak_expectation():
    fabric, stub, validator = make_nak_validator()
    fabric.directory.publish("peer-1", {0, 1, 2})
    _nak(stub, fabric, "peer-1", 0)
    fabric.directory.invalidate("peer-1", 0)
    validator.finalize()
    assert validator.violations == []


def test_republish_dropping_block_resolves_nak_expectation():
    fabric, stub, validator = make_nak_validator()
    fabric.directory.publish("peer-1", {0, 1})
    _nak(stub, fabric, "peer-1", 1)
    fabric.directory.publish("peer-1", {0})
    validator.finalize()
    assert validator.violations == []


def test_nak_from_origin_server_needs_no_invalidation():
    fabric, stub, validator = make_nak_validator()
    _nak(stub, fabric, "server-0", 0)  # origins are not in the directory
    validator.finalize()
    assert validator.violations == []


# -- the sanitized-deploy fixture (cluster-wide attachment) ------------------

def test_sanitized_cluster_fixture_runs_clean(sanitized_cluster):
    testbed, cluster, suite = sanitized_cluster(node_count=2, p2p=True)
    assert len(suite.sanitizers) == 6  # 3 per VMM
    suite.assert_clean()
