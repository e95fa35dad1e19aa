//! Full-system data-integrity tests: every virtualization path must be a
//! faithful block device under arbitrary access patterns.

use nesc_hypervisor::DiskKind;
use nesc_storage::BLOCK_SIZE;
use nesc_system_tests::{system_with_disk, ReferenceDisk};
use proptest::prelude::*;

const DISK_BYTES: u64 = 4 << 20;

fn all_kinds() -> [DiskKind; 4] {
    [
        DiskKind::NescDirect,
        DiskKind::Virtio,
        DiskKind::Emulated,
        DiskKind::HostRaw,
    ]
}

#[test]
fn sequential_roundtrip_every_path() {
    for kind in all_kinds() {
        let (mut sys, _vm, disk) = system_with_disk(kind, DISK_BYTES);
        for i in 0..16u64 {
            let data = vec![i as u8 + 1; 16 * 1024];
            sys.write(disk, i * 16 * 1024, &data);
        }
        for i in 0..16u64 {
            let mut out = vec![0u8; 16 * 1024];
            sys.read(disk, i * 16 * 1024, &mut out);
            assert!(
                out.iter().all(|&b| b == i as u8 + 1),
                "{kind:?} corrupted chunk {i}"
            );
        }
    }
}

#[test]
fn interleaved_writes_last_writer_wins() {
    for kind in all_kinds() {
        let (mut sys, _vm, disk) = system_with_disk(kind, DISK_BYTES);
        sys.write(disk, 0, &vec![0x11; 64 * 1024]);
        sys.write(disk, 32 * 1024, &vec![0x22; 8 * 1024]);
        sys.write(disk, 34 * 1024, &vec![0x33; 1024]);
        let mut out = vec![0u8; 64 * 1024];
        sys.read(disk, 0, &mut out);
        assert!(out[..32 * 1024].iter().all(|&b| b == 0x11), "{kind:?}");
        assert!(
            out[32 * 1024..34 * 1024].iter().all(|&b| b == 0x22),
            "{kind:?}"
        );
        assert!(
            out[34 * 1024..35 * 1024].iter().all(|&b| b == 0x33),
            "{kind:?}"
        );
        assert!(
            out[35 * 1024..40 * 1024].iter().all(|&b| b == 0x22),
            "{kind:?}"
        );
        assert!(out[40 * 1024..].iter().all(|&b| b == 0x11), "{kind:?}");
    }
}

#[test]
fn latency_is_strictly_positive_and_bounded() {
    for kind in all_kinds() {
        let (mut sys, _vm, disk) = system_with_disk(kind, DISK_BYTES);
        let lat = sys.write(disk, 0, &[1u8; 1024]);
        assert!(lat.as_nanos() > 1_000, "{kind:?}: implausibly fast {lat}");
        assert!(
            lat.as_nanos() < 10_000_000,
            "{kind:?}: implausibly slow {lat}"
        );
    }
}

#[test]
fn clock_is_monotonic_across_operations() {
    let (mut sys, _vm, disk) = system_with_disk(DiskKind::NescDirect, DISK_BYTES);
    let mut last = sys.now();
    for i in 0..50u64 {
        sys.write(disk, (i % 8) * 4096, &[i as u8; 1024]);
        assert!(sys.now() > last);
        last = sys.now();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Differential test: random block-aligned writes and reads against an
    /// in-memory reference, on the NeSC and virtio paths (the two paths
    /// with interesting machinery).
    #[test]
    fn prop_matches_reference(
        ops in proptest::collection::vec(
            (0u64..(DISK_BYTES / BLOCK_SIZE - 32), 1usize..32, any::<u8>(), any::<bool>()),
            1..25,
        )
    ) {
        for kind in [DiskKind::NescDirect, DiskKind::Virtio] {
            let (mut sys, _vm, disk) = system_with_disk(kind, DISK_BYTES);
            let mut reference = ReferenceDisk::new(DISK_BYTES as usize);
            for &(block, nblocks, byte, is_write) in &ops {
                let offset = block * BLOCK_SIZE;
                let len = nblocks * BLOCK_SIZE as usize;
                if is_write {
                    let data = vec![byte; len];
                    sys.write(disk, offset, &data);
                    reference.write(offset as usize, &data);
                } else {
                    let mut out = vec![0u8; len];
                    sys.read(disk, offset, &mut out);
                    prop_assert_eq!(
                        &out[..],
                        reference.read(offset as usize, len),
                        "{:?} diverged at block {}",
                        kind,
                        block
                    );
                }
            }
        }
    }
}

/// Bytes of the sparse disks the path-equivalence property drives.
const SPARSE_BYTES: u64 = 512 << 10;

/// A fresh system with one `kind` disk of [`SPARSE_BYTES`]: file-backed
/// kinds sit on a sparse image, so unwritten ranges are holes in its
/// mapping; the host-raw disk is the device itself.
fn sparse_disk(kind: DiskKind) -> (nesc_hypervisor::System, nesc_hypervisor::DiskId) {
    let mut sys = nesc_system_tests::small_system();
    let disk = match kind {
        DiskKind::HostRaw => sys.quick_disk(kind, "raw", SPARSE_BYTES).disk,
        _ => {
            let vm = sys.create_vm();
            let img = sys
                .create_image("sparse.img", SPARSE_BYTES, false)
                .expect("fresh host fs");
            sys.attach(vm, kind, Some(img))
        }
    };
    (sys, disk)
}

/// `len` bytes of a pattern that differs from byte to byte and from seed
/// to seed, so a shifted or misplaced byte shows.
fn pattern(seed: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| (j as u64 * 7 + u64::from(seed)) as u8 ^ 0x5A)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every path is the same block device: random writes and reads on a
    /// NeSC-direct, a virtio, an emulated and a host-raw disk read back
    /// what a byte-level shadow holds. Offsets and lengths are 512 B
    /// aligned, up to 32 KiB, so requests start and end mid-block (the
    /// paravirtual backend's edge read-modify-write), cross the block
    /// store's 16-block chunks and land on holes of the sparse images.
    /// With 1 KiB blocks no 512 B-aligned request leaves both edges of
    /// one block partial, so each case also writes 256 B inside block
    /// `inner`, then reads the block back whole.
    #[test]
    fn prop_every_path_reads_back_its_shadow(
        ops in proptest::collection::vec(
            (0u64..(SPARSE_BYTES / 512 - 64), 1u64..65, any::<u8>(), any::<bool>()),
            1..30,
        ),
        inner in 0u64..(SPARSE_BYTES / BLOCK_SIZE),
    ) {
        for kind in all_kinds() {
            let (mut sys, disk) = sparse_disk(kind);
            let mut shadow = ReferenceDisk::new(SPARSE_BYTES as usize);
            let both_edges = inner * BLOCK_SIZE + 384;
            let ops = ops
                .iter()
                .map(|&(sector, sectors, seed, write)| (sector * 512, sectors * 512, seed, write))
                .chain([(both_edges, 256, 0xB0, true), (inner * BLOCK_SIZE, BLOCK_SIZE, 0, false)]);
            for (offset, len, seed, write) in ops {
                let len = len as usize;
                if write {
                    let data = pattern(seed, len);
                    sys.write(disk, offset, &data);
                    shadow.write(offset as usize, &data);
                } else {
                    let mut out = vec![0xEEu8; len];
                    sys.read(disk, offset, &mut out);
                    prop_assert!(
                        out[..] == *shadow.read(offset as usize, len),
                        "{:?}: {} B at {} diverged from the shadow",
                        kind,
                        len,
                        offset
                    );
                }
            }
            // Finally the whole disk, holes included, reads as the shadow.
            let mut whole = vec![0xEEu8; SPARSE_BYTES as usize];
            for (i, piece) in whole.chunks_mut(32 << 10).enumerate() {
                sys.read(disk, i as u64 * (32 << 10), piece);
            }
            prop_assert!(
                whole[..] == *shadow.read(0, SPARSE_BYTES as usize),
                "{:?}: the disk diverged from the shadow",
                kind
            );
        }
    }
}
