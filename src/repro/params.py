"""Central calibration constants for the simulated testbed.

Values are taken from the paper's own description of its environment
(Section 5: FUJITSU PRIMERGY RX200 S6, Xeon X5680, Seagate Constellation.2,
gigabit Ethernet with 9000-byte MTU, Mellanox 4X QDR InfiniBand) or, where
the paper gives a measured number, back-derived from that number.  Each
constant notes its provenance.  Benchmarks may override any of these, but
defaults reproduce the paper's setting.
"""

# --------------------------------------------------------------------------
# Machine (FUJITSU PRIMERGY RX200 S6)
# --------------------------------------------------------------------------

#: Number of CPU cores (2 sockets x 6 cores, hyper-threading disabled).
CPU_CORES = 12

#: CPU clock (Xeon X5680).
CPU_HZ = 3.33e9

#: Physical memory in bytes (96 GB).
MEMORY_BYTES = 96 * 2**30

#: Memory reserved by the BMcast VMM (paper 4.3: 128 MB, not released).
VMM_RESERVED_BYTES = 128 * 2**20

#: Firmware (BIOS) initialization time; paper 5.1 measured 133 s on the
#: server-class board.
FIRMWARE_INIT_SECONDS = 133.0

#: OS boot time on bare metal once firmware is done (paper 5.1: 29 s).
OS_BOOT_SECONDS = 29.0

# --------------------------------------------------------------------------
# Local disk (Seagate Constellation.2 ST9500620NS, 500 GB, 7200 rpm SATA)
# --------------------------------------------------------------------------

#: Sector size in bytes.
SECTOR_BYTES = 512

#: Disk capacity in bytes.
DISK_BYTES = 500 * 10**9

#: Sequential read bandwidth; paper Fig. 10 measured 116.6 MB/s bare metal.
DISK_READ_BW = 116.6e6

#: Sequential write bandwidth; paper Fig. 10 measured 111.9 MB/s.
DISK_WRITE_BW = 111.9e6

#: Average seek time for a random seek (7200 rpm nearline drive).
DISK_SEEK_AVG_SECONDS = 8.5e-3

#: Full-stroke seek time.
DISK_SEEK_MAX_SECONDS = 16.0e-3

#: Rotational period (7200 rpm -> 8.33 ms; average latency is half).
DISK_ROTATION_SECONDS = 60.0 / 7200

#: Command processing overhead per request at the drive.
DISK_COMMAND_OVERHEAD_SECONDS = 50e-6

#: Size of the drive's track/read cache (used by the dummy-sector restart
#: trick: re-reading a just-read sector hits this cache).
DISK_CACHE_BYTES = 64 * 2**20

#: Service time of a read that hits the drive cache.
DISK_CACHE_HIT_SECONDS = 120e-6

# --------------------------------------------------------------------------
# Network (gigabit Ethernet, FUJITSU SR-S348TC1 switch, 9000-byte MTU)
# --------------------------------------------------------------------------

#: Link rate in bits/second.
GBE_BITS_PER_SECOND = 1e9

#: Jumbo-frame MTU used in the paper's testbed.
GBE_MTU = 9000

#: Standard Ethernet MTU (for the non-jumbo ablation).
ETH_MTU_STANDARD = 1500

#: One-way propagation + switch forwarding latency per hop.
SWITCH_LATENCY_SECONDS = 20e-6

#: Ethernet per-frame overhead (preamble + header + FCS + IFG), bytes.
ETH_FRAME_OVERHEAD = 38

#: AoE header size in bytes (Ethernet header + AoE common + ATA header).
AOE_HEADER_BYTES = 36

# --------------------------------------------------------------------------
# InfiniBand (Mellanox MT26428 4X QDR via Grid Director 4036E)
# --------------------------------------------------------------------------

#: 4X QDR data rate after 8b/10b encoding = 32 Gbit/s.
IB_BITS_PER_SECOND = 32e9

#: Base RDMA one-way latency on bare metal.
IB_BASE_LATENCY_SECONDS = 1.9e-6

#: Extra RDMA latency under KVM direct device assignment
#: (IOMMU + cache pollution + nested paging; paper Fig. 13: +23.6%).
KVM_IB_LATENCY_FACTOR = 1.236

#: Extra RDMA latency under BMcast during deployment (paper: <1%).
BMCAST_IB_LATENCY_FACTOR = 1.008

# --------------------------------------------------------------------------
# Virtualization cost model
# --------------------------------------------------------------------------

#: Time for one VM exit + entry round trip (hardware VMX transition plus
#: minimal VMM dispatch), seconds.
VM_EXIT_SECONDS = 1.2e-6

#: Extra handling time for an exit that the mediator must interpret
#: (register decode, bookkeeping).
MEDIATOR_HANDLE_SECONDS = 0.8e-6

#: Default BMcast preemption-timer polling interval during deployment.
POLL_INTERVAL_SECONDS = 100e-6

#: Polling interval granularity when falling back to soft timers
#: (no preemption timer): coarser and jittery.
SOFT_TIMER_INTERVAL_SECONDS = 1e-3

#: Fraction of one core consumed by the BMcast deployment threads
#: (paper 5.2: 5% of total CPU time for threads + 1% VMM core = 6%).
BMCAST_DEPLOY_CPU_FRACTION = 0.06

#: TLB miss rate multiplier while nested paging is enabled
#: (paper 5.2: TLB misses increased up to 5x).
EPT_TLB_MISS_MULTIPLIER = 5.0

#: TLB miss service latency multiplier under two-dimensional page walks
#: (paper 5.2: latency on TLB misses doubled).
EPT_TLB_WALK_MULTIPLIER = 2.0

# --------------------------------------------------------------------------
# KVM (+ELI) baseline overhead model
# --------------------------------------------------------------------------

#: KVM hypervisor + host boot time (paper 5.1: 30 s).
KVM_BOOT_SECONDS = 30.0

#: BMcast VMM boot time (paper 5.1: 5 s, network-booted, parallel init).
BMCAST_VMM_BOOT_SECONDS = 5.0

#: Guest OS boot time on KVM with NFS-backed image (paper 5.1: 42 s).
KVM_GUEST_BOOT_NFS_SECONDS = 42.0

#: Guest OS boot time on KVM with iSCSI-backed image (paper 5.1: 55 s).
KVM_GUEST_BOOT_ISCSI_SECONDS = 55.0

#: KVM CPU-bound slowdown (kernbench +3%, paper Fig. 7).
KVM_CPU_OVERHEAD = 0.03

#: KVM memory-bandwidth overhead at large block sizes (paper Fig. 9: 35%).
KVM_MEMORY_OVERHEAD = 0.35

#: KVM lock-holder preemption: added per-thread contention cost slope;
#: produces ~68% overhead at 24 threads on 12 cores (paper Fig. 8).
KVM_LHP_OVERHEAD_AT_2X_THREADS = 0.68

#: KVM virtio storage throughput penalties (paper Fig. 10).
KVM_STORAGE_READ_OVERHEAD_LOCAL = 0.105
KVM_STORAGE_WRITE_OVERHEAD_LOCAL = 0.136
KVM_STORAGE_READ_OVERHEAD_NFS = 0.123
KVM_STORAGE_WRITE_OVERHEAD_NFS = 0.153

# --------------------------------------------------------------------------
# OS image / deployment workload
# --------------------------------------------------------------------------

#: OS image size used in all deployment experiments (32 GB).
OS_IMAGE_BYTES = 32 * 2**30

#: Bytes the guest actually reads from disk while booting (paper 5.1:
#: BMcast transferred 72 MB during the 58 s boot).
OS_BOOT_READ_BYTES = 72 * 2**20

#: Installer OS network-boot time in the image-copy baseline (paper: 50 s).
IMAGE_COPY_INSTALLER_BOOT_SECONDS = 50.0

#: Reboot time after image copy, excluding the initial firmware pass
#: (paper: 145 s restart, which includes a second firmware init).
IMAGE_COPY_RESTART_SECONDS = 145.0

#: Background copy block size (paper 5.6: 1024 KB).
COPY_BLOCK_BYTES = 1024 * 2**10

#: Backoff before a VMM fetch that exhausted its AoE retries (server
#: unreachable) is tried again.  Copier and redirect both stall and
#: retry rather than fail the deployment.
FETCH_RETRY_BACKOFF_SECONDS = 2.0

# --------------------------------------------------------------------------
# Background-copy moderation defaults (Section 3.3's three parameters)
# --------------------------------------------------------------------------

#: Guest I/O frequency threshold (requests/second) above which the copier
#: suspends itself.  Calibrated between ioping's ~50 req/s (the paper
#: measures +4.3 ms guest latency *with* background copy active, so
#: moderate I/O must coexist with the copier) and the OS boot burst of
#: ~165 req/s (paper 3.3: "the VMM will not perform excessive background
#: copy operations during OS startup").
MODERATION_GUEST_IO_THRESHOLD = 100.0

#: Interval between VMM block writes when the guest is quiet.
MODERATION_WRITE_INTERVAL_SECONDS = 10e-3

#: How long the copier suspends when the guest is busy.  Under sustained
#: heavy guest I/O the copier concedes one write per suspend interval,
#: producing the small residual interference Figure 10 measures (-4.1%
#: sequential read) instead of stalling deployment entirely.
MODERATION_SUSPEND_INTERVAL_SECONDS = 1.0
