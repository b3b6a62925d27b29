"""The reclaim path: resident vs full re-virtualization, scrub vs
preserve, taint exclusion, warm peers feeding the next scale-up, and
replay determinism over a whole grow -> shrink -> grow run."""

from repro import params
from repro.analysis import check_replay
from repro.cloud import build_testbed
from repro.ctl import (
    FREE,
    NodePool,
    elasticity_scenario,
)
from repro.ctl.lifecycle import RESIDENT_REARM_SECONDS
from repro.guest.osimage import OsImage
from repro.storage.blockdev import BlockOp, BlockRequest

MB = 2**20


def small_image(mb=32):
    return OsImage(size_bytes=mb * MB, boot_read_bytes=2 * MB,
                   boot_think_seconds=0.5)


def make_pool(node_count=1, p2p=True, vmxoff_mode="resident", image_mb=32,
              **kwargs):
    testbed = build_testbed(node_count=node_count, server_count=1,
                            p2p=p2p, image=small_image(image_mb), **kwargs)
    return testbed, NodePool(testbed, vmxoff_mode=vmxoff_mode)


def run(env, generator, name="scenario"):
    process = env.process(generator, name=name)
    env.run(until=process)
    return process.value


def deploy_to_baremetal(testbed, pool, index=0):
    """Deploy one node and wait until de-virtualization completes."""

    def scenario():
        yield from pool.deploy(index)
        while pool.nodes[index].vmm.phase != "baremetal":
            yield testbed.env.timeout(1.0)

    run(testbed.env, scenario(), name=f"deploy-{index}")


# -- resident vs full re-virtualization ---------------------------------------

def test_resident_reclaim_is_subsecond_after_drain():
    testbed, pool = make_pool(vmxoff_mode="resident")
    deploy_to_baremetal(testbed, pool)
    elapsed = run(testbed.env, pool.reclaim(0, preserve=True), "reclaim")
    assert pool.nodes[0].state == FREE
    # Drain + re-arm + snapshot write: nowhere near a firmware cycle.
    assert elapsed < pool.drain_seconds + RESIDENT_REARM_SECONDS + 2.0


def test_full_mode_reclaim_pays_the_firmware_cycle():
    testbed, pool = make_pool(vmxoff_mode="full")
    deploy_to_baremetal(testbed, pool)
    elapsed = run(testbed.env, pool.reclaim(0, preserve=True), "reclaim")
    assert pool.nodes[0].state == FREE
    assert elapsed > params.FIRMWARE_INIT_SECONDS


# -- scrub vs preserve ---------------------------------------------------------

def read_sector(testbed, index, lba):
    request = BlockRequest(BlockOp.READ, lba, 1)
    run(testbed.env, testbed.nodes[index].disk.execute(request), "read")
    runs = request.buffer.runs
    return runs[0][2] if runs else None


def test_scrub_wipes_the_image_and_clears_the_warm_set():
    testbed, pool = make_pool()
    deploy_to_baremetal(testbed, pool)
    vmm = pool.nodes[0].vmm
    assert vmm.taint.pristine_blocks()  # the image really was copied
    assert read_sector(testbed, 0, 0) is not None
    run(testbed.env, pool.reclaim(0, preserve=False), "scrub")
    record = pool.nodes[0]
    assert record.state == FREE
    assert record.warm_blocks == set()
    assert read_sector(testbed, 0, 0) is None  # tenant data gone
    # The protected bitmap-save region must not survive either: a new
    # deployment starts cold, not from a stale snapshot.
    instance = run(testbed.env, pool.deploy(0), "redeploy")
    assert not instance.platform.resumed_from_disk


def test_preserve_keeps_pristine_blocks_and_resumes_warm():
    testbed, pool = make_pool()
    deploy_to_baremetal(testbed, pool)
    first_ttr = pool.time_to_ready[0]
    pristine = pool.nodes[0].vmm.taint.pristine_blocks()
    run(testbed.env, pool.reclaim(0, preserve=True), "reclaim")
    record = pool.nodes[0]
    assert record.warm_blocks == pristine
    assert record.warm_blocks

    instance = run(testbed.env, pool.deploy(0), "redeploy")
    vmm = instance.platform
    assert vmm.resumed_from_disk
    assert vmm.router.origin_fetches == 0  # nothing refetched
    assert pool.time_to_ready[-1] < first_ttr
    assert record.warm_blocks == set()  # consumed by the deploy


def test_guest_written_blocks_are_not_preserved():
    testbed, pool = make_pool()
    deploy_to_baremetal(testbed, pool)
    vmm = pool.nodes[0].vmm
    # A bare-metal guest overwrites the start of the image (tenant
    # data): direct-I/O taint must exclude that block from preserve.
    block_sectors = vmm.bitmap.block_sectors
    request = BlockRequest(BlockOp.WRITE, 0, block_sectors,
                           origin="guest")
    request.buffer.fill_constant("tenant-secret")
    run(testbed.env, testbed.nodes[0].disk.execute(request), "write")
    assert 0 in vmm.taint.tainted
    assert 0 not in vmm.taint.pristine_blocks()
    run(testbed.env, pool.reclaim(0, preserve=True), "reclaim")
    assert 0 not in pool.nodes[0].warm_blocks
    assert pool.nodes[0].warm_blocks  # untouched blocks still warm


def test_peer_advertises_exactly_the_preserve_set():
    testbed, pool = make_pool()
    env = testbed.env
    instance = run(env, pool.deploy(0), "deploy")
    vmm = instance.platform
    service = vmm.peer_service
    block_sectors = vmm.bitmap.block_sectors
    mediated, direct = 3, 5
    # Mid-deployment the write goes through the device mediator.
    assert vmm.phase == "deployment"
    run(env, instance.write(mediated * block_sectors + 5, 8), "mediated")
    while vmm.phase != "baremetal":
        env.run(until=env.now + 1.0)
    # After de-virtualization it is raw direct I/O.
    run(env, instance.write(direct * block_sectors, 8), "direct")
    assert not service.servable(mediated * block_sectors, 8)
    assert not service.servable(direct * block_sectors, 8)

    pristine = vmm.taint.pristine_blocks()
    run(env, pool.reclaim(0, preserve=True), "reclaim")
    advertised = testbed.fabric.directory.advertised(pool.peer_port_of(0))
    assert advertised == pristine == pool.nodes[0].warm_blocks
    assert pristine
    for block in (mediated, direct):
        assert block not in pristine and block not in advertised


def test_warm_source_after_mid_deployment_shrink_shares_the_taint():
    testbed, pool = make_pool(image_mb=256)
    env = testbed.env
    vmm = run(env, pool.deploy(0), "deploy").platform
    run(env, pool.reclaim(0, preserve=True), "reclaim")
    assert vmm.phase == "off"  # drained by the mid-deployment shutdown
    block = min(pool.nodes[0].warm_blocks)
    # The free node is a warm source with no mediator: a raw write to
    # its disk taints the block for the peer and the VMM alike.
    lba = block * vmm.bitmap.block_sectors
    request = BlockRequest(BlockOp.WRITE, lba, 8, origin="guest")
    request.buffer.fill_constant("stray")
    run(env, testbed.nodes[0].disk.execute(request), "write")
    vmm.peer_service.publish()
    advertised = testbed.fabric.directory.advertised(pool.peer_port_of(0))
    assert advertised == vmm.taint.pristine_blocks()
    assert block not in advertised


# -- warm peers feed the next scale-up ----------------------------------------

def test_reclaimed_warm_node_serves_the_next_deployment():
    testbed, pool = make_pool(node_count=2)
    deploy_to_baremetal(testbed, pool, index=0)
    run(testbed.env, pool.reclaim(0, preserve=True), "reclaim")
    assert pool.nodes[0].state == FREE

    run(testbed.env, pool.deploy(1), "deploy-cold")
    router = pool.nodes[1].vmm.router
    warm_port = pool.peer_port_of(0)
    assert router.peer_hits_by_target.get(warm_port, 0) > 0
    assert router.peer_hits > 0


# -- replay determinism over grow -> shrink -> grow ---------------------------

def test_autoscaling_run_replays_identically():
    scenario = elasticity_scenario(lambda: small_image(16),
                                   node_count=4, duration=1800.0)
    report = check_replay(scenario, runs=2)
    assert not report.divergent, report.describe()
