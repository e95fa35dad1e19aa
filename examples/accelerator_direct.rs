//! Accelerator-direct storage: a PCIe accelerator (GPGPU/FPGA) pulls file
//! data straight out of a NeSC virtual function with peer-to-peer DMA —
//! the extension of paper §IV-D — versus the traditional host-mediated
//! path. Both go through one `System`: the dataset is an image file on
//! the hypervisor's filesystem, attached as a NeSC-direct disk.
//!
//! ```text
//! cargo run -p nesc-examples --bin accelerator_direct
//! ```

use nesc_accel::{Accelerator, HostMediated};
use nesc_extent::Vlba;
use nesc_hypervisor::{DiskId, DiskKind, System};
use nesc_sim::SimTime;

/// A system whose hypervisor exports a 4 MiB dataset file as a NeSC-direct
/// disk (offset 0 of the VF is offset 0 of the file), plus its own
/// raw-device disk for the host-mediated path.
fn dataset_system() -> (System, DiskId, DiskId) {
    let mut sys = System::builder().build();
    let file_blocks = 4096;
    let data = sys
        .quick_disk(DiskKind::NescDirect, "dataset.bin", file_blocks * 1024)
        .disk;
    let raw = sys.quick_disk(DiskKind::HostRaw, "raw", 0).disk;
    // Seed the dataset on the device (untimed set-up).
    for b in 0..file_blocks {
        let plba = file_block(&sys, data, b);
        sys.device_mut()
            .store_mut()
            .write_block(plba, &vec![(b % 251) as u8; 1024])
            .expect("in capacity");
    }
    (sys, data, raw)
}

/// Where block `b` of `disk`'s image file lives on the device: where the
/// set-up seeds it and the host-mediated path reads it.
fn file_block(sys: &System, disk: DiskId, b: u64) -> nesc_extent::Plba {
    let ino = sys.disk_image(disk).expect("file-backed");
    let tree = sys.host_fs().extent_tree(ino).expect("image");
    let plba = tree.lookup(Vlba(b)).and_then(|e| e.translate(Vlba(b)));
    plba.expect("preallocated")
}

fn main() {
    let (mut sys, data, _) = dataset_system();
    let mem = sys.memory();

    // The accelerator: 16 MiB of BAR-mapped local memory.
    let window = mem.borrow_mut().alloc(16 << 20, 4096);
    let mut acc = Accelerator::new(window, 16 << 20);

    // Direct path: the accelerator fetches 1 MiB of the dataset itself.
    let t_direct = acc
        .fetch_direct(SimTime::ZERO, &mut sys, data, 0, 1 << 20, 0)
        .expect("fetch");
    // Verify the bytes actually landed in accelerator memory.
    let probe = mem.borrow().read_vec(window + 7 * 1024, 4);
    assert!(probe.iter().all(|&b| b == 7));

    // Host-mediated baseline on a fresh system (so timelines are clean).
    let (mut sys2, data2, raw2) = dataset_system();
    let staging = sys2.memory().borrow_mut().alloc(16 << 20, 4096);
    let mut host = HostMediated::new();
    let first = file_block(&sys2, data2, 0);
    let t_host = host
        .fetch_via_host(SimTime::ZERO, &mut sys2, raw2, first, 1 << 20, staging)
        .expect("PF read");

    println!("1 MiB dataset fetch into the accelerator:");
    println!("  NeSC VF peer-to-peer DMA : {t_direct}");
    println!("  host-mediated            : {t_host}");
    println!(
        "  direct is {:.2}x faster and uses zero host CPU cycles",
        t_host.as_nanos() as f64 / t_direct.as_nanos() as f64
    );

    // The gap explodes for the small, frequent transfers accelerator
    // kernels actually make (a descriptor ring pull, an index probe):
    let t_small = acc
        .fetch_direct(t_direct, &mut sys, data, 1 << 20, 16 * 1024, 1 << 20)
        .expect("fetch")
        .saturating_since(t_direct);
    let t_small_host = {
        // Fresh system so the measurement is not queued behind the 1 MiB
        // transfer above.
        let (mut sys3, data3, raw3) = dataset_system();
        let staging3 = sys3.memory().borrow_mut().alloc(1 << 20, 4096);
        let at = file_block(&sys3, data3, 1024);
        let mut host2 = HostMediated::new();
        host2
            .fetch_via_host(SimTime::ZERO, &mut sys3, raw3, at, 16 * 1024, staging3)
            .expect("PF read")
            .saturating_since(SimTime::ZERO)
    };
    println!(
        "
16 KiB fetch (latency-sensitive kernel access):"
    );
    println!("  direct {t_small} vs host-mediated {t_small_host}");
    println!(
        "  direct is {:.1}x faster",
        t_small_host.as_nanos() as f64 / t_small.as_nanos() as f64
    );

    // And writing results back is just as direct.
    mem.borrow_mut()
        .write(window + (2 << 20), &vec![0xEE; 64 * 1024]);
    let t_flush = acc
        .flush_direct(t_direct, &mut sys, data, 2 << 20, 64 * 1024, 2 << 20)
        .expect("flush");
    acc.fetch_direct(t_flush, &mut sys, data, 2 << 20, 1024, 3 << 20)
        .expect("read back");
    assert_eq!(
        mem.borrow().read_vec(window + (3 << 20), 1024),
        vec![0xEE; 1024]
    );
    println!(
        "\nresults written back through the same VF ({} transfers, {} KiB total)",
        acc.transfers(),
        acc.bytes_moved() / 1024
    );
}
