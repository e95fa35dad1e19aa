//! Host physical memory.
//!
//! NeSC's defining trick is that the vLBA→pLBA mapping tables (extent trees)
//! live in *host memory* and are traversed *by the device* over DMA (paper
//! §IV-B). To reproduce that faithfully, the model keeps an actual byte-
//! addressable host memory: the hypervisor serializes real extent-tree nodes
//! into it, and the device model reads them back during block walks. Data
//! transfers also move real bytes, which is what lets the test suite verify
//! isolation end to end (a VF can never observe bytes outside its file).
//!
//! The store is sparse (4 KiB pages allocated on first touch) so simulating
//! a machine with tens of gigabytes of address space costs only what is
//! actually touched. Unwritten memory reads as zeros, like freshly-zeroed
//! physical pages.

use std::collections::HashMap;
use std::fmt;

use nesc_sim::IntHashBuilder;

/// A host physical address (byte-granular).
pub type HostAddr = u64;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// One resident 4 KiB page, on a host cache-line boundary.
///
/// The simulated addresses the data path uses are line-aligned (ring
/// descriptors, buffers, tree nodes), so a 64-byte-aligned page keeps
/// them line-aligned on the host too: a 64-byte descriptor read is one
/// host line, and a copy between two pages is co-aligned. Plain
/// `Box<[u8; PAGE_SIZE]>` comes from malloc at any 16-byte offset, and
/// three descriptors in four then straddle two lines (DESIGN.md §10).
#[repr(C, align(64))]
struct Page([u8; PAGE_SIZE]);

impl Page {
    fn zeroed() -> Box<Page> {
        Box::new(Page([0; PAGE_SIZE]))
    }
}

/// Sparse byte-addressable host memory with a bump allocator for buffer and
/// table placement.
///
/// # Example
///
/// ```
/// use nesc_pcie::HostMemory;
/// let mut mem = HostMemory::new();
/// let buf = mem.alloc(8, 8);
/// mem.write_u64(buf, 0xDEAD_BEEF);
/// assert_eq!(mem.read_u64(buf), 0xDEAD_BEEF);
/// // Untouched memory reads as zeros:
/// assert_eq!(mem.read_u64(buf + 4096), 0);
/// ```
pub struct HostMemory {
    // Keyed by page number with a cheap deterministic integer hasher: the
    // data path pays one lookup per page moved, and SipHash would dominate
    // the batched transfer loop.
    pages: HashMap<u64, Box<Page>, IntHashBuilder>,
    next_free: HostAddr,
}

impl fmt::Debug for HostMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostMemory")
            .field("resident_pages", &self.pages.len())
            .field("next_free", &self.next_free)
            .finish()
    }
}

impl Default for HostMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl HostMemory {
    /// Creates an empty memory. The allocator starts above the first page so
    /// address 0 (the traditional NULL) is never handed out.
    pub fn new() -> Self {
        HostMemory {
            pages: HashMap::default(),
            next_free: PAGE_SIZE as u64,
        }
    }

    /// Allocates `len` bytes aligned to `align`; returns the base address.
    ///
    /// This is a bump allocator — the model never frees, which is fine for
    /// the bounded experiments we run (and mirrors pinned DMA regions that
    /// live for the lifetime of a device).
    ///
    /// A non-power-of-two alignment (a contract violation) is rounded up
    /// to the next power of two.
    pub fn alloc(&mut self, len: u64, align: u64) -> HostAddr {
        debug_assert!(align.is_power_of_two(), "alignment must be a power of two");
        let align = align.max(1).next_power_of_two();
        let base = (self.next_free + align - 1) & !(align - 1);
        self.next_free = base + len.max(1);
        base
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read(&self, addr: HostAddr, buf: &mut [u8]) {
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr + off as u64;
            let page = a >> PAGE_SHIFT;
            let in_page = (a as usize) & (PAGE_SIZE - 1);
            let n = (PAGE_SIZE - in_page).min(buf.len() - off);
            match self.pages.get(&page) {
                Some(p) => buf[off..off + n].copy_from_slice(&p.0[in_page..in_page + n]),
                None => buf[off..off + n].fill(0),
            }
            off += n;
        }
    }

    /// The `N` bytes at `addr`, borrowed where they live when the range
    /// lies inside one page: a resident page lends its own bytes, an
    /// unmaterialized one reads as zeros without a copy. A range that
    /// crosses a page boundary is copied into `scratch` by
    /// [`read`](HostMemory::read), which is returned instead. Either way
    /// the bytes equal what `read(addr, scratch)` would leave in `scratch`;
    /// `scratch` itself is written only on the fallback.
    ///
    /// ```
    /// use nesc_pcie::HostMemory;
    ///
    /// let mut mem = HostMemory::new();
    /// mem.write(0x1000, &[1, 2, 3, 4]);
    /// let mut scratch = [0u8; 4];
    /// assert_eq!(mem.read_in_place(0x1000, &mut scratch), &[1, 2, 3, 4]);
    /// assert_eq!(scratch, [0; 4], "lent from the page, not copied");
    /// // Across a page boundary the bytes come back through `scratch`.
    /// assert_eq!(mem.read_in_place(0xFFE, &mut scratch), &[0, 0, 1, 2]);
    /// ```
    pub fn read_in_place<'a, const N: usize>(
        &'a self,
        addr: HostAddr,
        scratch: &'a mut [u8; N],
    ) -> &'a [u8; N] {
        static ZEROS: Page = Page([0; PAGE_SIZE]);
        let in_page = (addr as usize) & (PAGE_SIZE - 1);
        if in_page + N <= PAGE_SIZE {
            let page = match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(p) => &p.0[..],
                None => &ZEROS.0[..],
            };
            if let Some(bytes) = page
                .get(in_page..in_page + N)
                .and_then(|s| s.try_into().ok())
            {
                return bytes;
            }
        }
        self.read(addr, scratch);
        scratch
    }

    /// Writes `data` starting at `addr`, allocating backing pages on demand.
    pub fn write(&mut self, addr: HostAddr, data: &[u8]) {
        let mut off = 0usize;
        while off < data.len() {
            let a = addr + off as u64;
            let page = a >> PAGE_SHIFT;
            let in_page = (a as usize) & (PAGE_SIZE - 1);
            let n = (PAGE_SIZE - in_page).min(data.len() - off);
            let p = self.pages.entry(page).or_insert_with(Page::zeroed);
            p.0[in_page..in_page + n].copy_from_slice(&data[off..off + n]);
            off += n;
        }
    }

    /// Writes `len` bytes starting at `addr` by handing the caller each
    /// page-bounded destination chunk in address order: `f(offset, chunk)`
    /// receives the chunk's byte offset within the transfer and a mutable
    /// slice of the (allocated-on-demand) backing page. This is the no-copy
    /// sibling of [`write`](HostMemory::write) — a DMA source can render
    /// straight into the pages instead of staging a contiguous buffer. The
    /// caller must fill every byte of every chunk, exactly as a
    /// [`write`](HostMemory::write) of `len` bytes would.
    pub fn write_with(&mut self, addr: HostAddr, len: usize, mut f: impl FnMut(usize, &mut [u8])) {
        let mut off = 0usize;
        while off < len {
            let a = addr + off as u64;
            let page = a >> PAGE_SHIFT;
            let in_page = (a as usize) & (PAGE_SIZE - 1);
            let n = (PAGE_SIZE - in_page).min(len - off);
            let p = self.pages.entry(page).or_insert_with(Page::zeroed);
            f(off, &mut p.0[in_page..in_page + n]);
            off += n;
        }
    }

    /// Fills `len` bytes at `addr` with zeros *without* materializing
    /// backing pages: chunks on pages that have never been written already
    /// read as zeros and are left unallocated — the sparse-store
    /// equivalent of punching a hole, and the reason zero-dominated
    /// transfers (POSIX hole reads, freshly-trimmed ranges) cost no page
    /// allocation and no memset on untouched destinations. Present pages
    /// are zeroed in place. Observationally identical to
    /// `fill(addr, len, 0)` for every subsequent read.
    pub fn fill_zero(&mut self, addr: HostAddr, len: u64) {
        let mut off = 0u64;
        while off < len {
            let a = addr + off;
            let page = a >> PAGE_SHIFT;
            let in_page = (a as usize) & (PAGE_SIZE - 1);
            let n = ((PAGE_SIZE - in_page) as u64).min(len - off);
            if let Some(p) = self.pages.get_mut(&page) {
                p.0[in_page..in_page + n as usize].fill(0);
            }
            off += n;
        }
    }

    /// Copies `len` bytes from `src` to `dst` page to page: one
    /// `copy_from_slice` per piece bounded by a source and a destination
    /// page, with no staging buffer. A piece whose source page was never
    /// written reads as zeros, so it zeroes a present destination page in
    /// place and leaves an absent one absent, as
    /// [`fill_zero`](HostMemory::fill_zero) does; any other destination
    /// page is allocated on demand. Observationally identical to
    /// `write(dst, &read_vec(src, len))`, overlapping ranges included (a
    /// destination that starts inside the source is staged through a
    /// vector, the one case a forward page walk would overwrite bytes it
    /// has yet to read).
    pub fn copy(&mut self, src: HostAddr, dst: HostAddr, len: u64) {
        if dst > src && dst - src < len {
            let staged = self.read_vec(src, len as usize);
            self.write(dst, &staged);
            return;
        }
        let mut off = 0u64;
        while off < len {
            let (s, d) = (src + off, dst + off);
            let (s_page, d_page) = (s >> PAGE_SHIFT, d >> PAGE_SHIFT);
            let (si, di) = (
                (s as usize) & (PAGE_SIZE - 1),
                (d as usize) & (PAGE_SIZE - 1),
            );
            let n = ((PAGE_SIZE - si.max(di)) as u64).min(len - off) as usize;
            if s_page == d_page {
                // An absent page reads as zeros on both sides already.
                if let Some(p) = self.pages.get_mut(&s_page) {
                    p.0.copy_within(si..si + n, di);
                }
            } else {
                match self.pages.get_disjoint_mut([&s_page, &d_page]) {
                    [Some(sp), Some(dp)] => dp.0[di..di + n].copy_from_slice(&sp.0[si..si + n]),
                    [None, Some(dp)] => dp.0[di..di + n].fill(0),
                    [None, None] => {}
                    [Some(sp), None] => {
                        let mut page = Page::zeroed();
                        page.0[di..di + n].copy_from_slice(&sp.0[si..si + n]);
                        self.pages.insert(d_page, page);
                    }
                }
            }
            off += n as u64;
        }
    }

    /// Fills `len` bytes at `addr` with `byte`.
    pub fn fill(&mut self, addr: HostAddr, len: u64, byte: u8) {
        // Chunked so a large fill does not materialize one huge buffer.
        let chunk = [byte; PAGE_SIZE];
        let mut remaining = len;
        let mut a = addr;
        while remaining > 0 {
            let n = remaining.min(PAGE_SIZE as u64) as usize;
            self.write(a, &chunk[..n]);
            a += n as u64;
            remaining -= n as u64;
        }
    }

    /// Reads a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: HostAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: HostAddr, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Reads a little-endian `u32` at `addr`.
    pub fn read_u32(&self, addr: HostAddr) -> u32 {
        let mut b = [0u8; 4];
        self.read(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian `u32` at `addr`.
    pub fn write_u32(&mut self, addr: HostAddr, v: u32) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Convenience: reads `len` bytes into a fresh vector.
    pub fn read_vec(&self, addr: HostAddr, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.read(addr, &mut v);
        v
    }

    /// Number of resident (touched) 4 KiB pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_fill_semantics() {
        let mem = HostMemory::new();
        let mut buf = [0xFFu8; 64];
        mem.read(0x1_0000, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn cross_page_write_read() {
        let mut mem = HostMemory::new();
        let addr = (PAGE_SIZE as u64) * 3 - 10; // straddles a page boundary
        let data: Vec<u8> = (0..40).collect();
        mem.write(addr, &data);
        assert_eq!(mem.read_vec(addr, 40), data);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn alloc_respects_alignment() {
        let mut mem = HostMemory::new();
        let a = mem.alloc(10, 1);
        let b = mem.alloc(100, 4096);
        assert_eq!(b % 4096, 0);
        assert!(b >= a + 10);
        // NULL is never allocated.
        assert_ne!(a, 0);
    }

    #[test]
    fn scalar_accessors() {
        let mut mem = HostMemory::new();
        mem.write_u32(0x2000, 0xA1B2_C3D4);
        assert_eq!(mem.read_u32(0x2000), 0xA1B2_C3D4);
        mem.write_u64(0x2008, u64::MAX);
        assert_eq!(mem.read_u64(0x2008), u64::MAX);
    }

    #[test]
    fn write_with_renders_into_pages() {
        let mut mem = HostMemory::new();
        let addr = (PAGE_SIZE as u64) * 2 - 100; // straddles a boundary
        mem.write_with(addr, 300, |off, chunk| {
            for (i, b) in chunk.iter_mut().enumerate() {
                *b = (off + i) as u8;
            }
        });
        let got = mem.read_vec(addr, 300);
        let want: Vec<u8> = (0..300usize).map(|i| i as u8).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn fill_zero_skips_untouched_pages() {
        let mut mem = HostMemory::new();
        let base = (PAGE_SIZE as u64) * 8;
        // Zeroing virgin memory allocates nothing...
        mem.fill_zero(base, 3 * PAGE_SIZE as u64);
        assert_eq!(mem.resident_pages(), 0);
        // ...but still reads as zeros.
        assert!(mem.read_vec(base, PAGE_SIZE).iter().all(|&b| b == 0));
        // A present page really is scrubbed, including partial spans.
        mem.write(base, &[0xEEu8; 64]);
        mem.fill_zero(base + 8, 16);
        let got = mem.read_vec(base, 64);
        assert!(got[..8].iter().all(|&b| b == 0xEE));
        assert!(got[8..24].iter().all(|&b| b == 0));
        assert!(got[24..].iter().all(|&b| b == 0xEE));
    }

    #[test]
    fn fill_large_region() {
        let mut mem = HostMemory::new();
        mem.fill(0x3000, 3 * PAGE_SIZE as u64 + 17, 0xAB);
        let v = mem.read_vec(0x3000, 3 * PAGE_SIZE + 17);
        assert!(v.iter().all(|&b| b == 0xAB));
        // One byte past the fill is still zero.
        assert_eq!(mem.read_vec(0x3000 + 3 * PAGE_SIZE as u64 + 17, 1)[0], 0);
    }

    #[test]
    fn read_in_place_borrows_within_a_page_and_copies_across() {
        let mut mem = HostMemory::new();
        let page = PAGE_SIZE as u64;
        let data: Vec<u8> = (0..2 * PAGE_SIZE).map(|i| (i % 253) as u8 + 1).collect();
        mem.write(page * 3, &data);
        // Inside a resident page: the page's own bytes, scratch untouched.
        let mut scratch = [0xEEu8; 64];
        let got = mem.read_in_place(page * 3 + 100, &mut scratch);
        assert_eq!(got[..], data[100..164]);
        assert!(!std::ptr::eq(got, &scratch));
        assert_eq!(scratch, [0xEE; 64]);
        // Across the boundary: copied into scratch.
        let got = *mem.read_in_place(page * 4 - 32, &mut scratch);
        assert_eq!(got[..], data[PAGE_SIZE - 32..PAGE_SIZE + 32]);
        assert_eq!(scratch, got);
        // An unmaterialized page reads as zeros and stays absent.
        let mut scratch = [0xEEu8; 64];
        assert_eq!(*mem.read_in_place(page * 9 + 8, &mut scratch), [0; 64]);
        assert_eq!(scratch, [0xEE; 64]);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn resident_pages_lend_line_aligned_bytes() {
        let mut mem = HostMemory::new();
        let page = PAGE_SIZE as u64;
        // Enough pages that malloc's 16-byte granularity would show.
        for k in 0..64 {
            mem.write(page * (k + 1), &[k as u8 + 1; PAGE_SIZE]);
        }
        for k in 0..64 {
            for line in [0, 1, 17, 63] {
                let addr = page * (k + 1) + line * 64;
                let mut scratch = [0u8; 64];
                let got = mem.read_in_place(addr, &mut scratch);
                let (at, bytes) = (got.as_ptr(), *got);
                assert_ne!(at, scratch.as_ptr(), "lent from the page");
                assert_eq!(at as usize % 64, 0, "page {k} line {line}");
                assert_eq!(bytes, [k as u8 + 1; 64]);
            }
        }
        // An absent page lends its zeros on a line boundary too.
        let mut scratch = [0u8; 64];
        let got = mem.read_in_place(page * 100 + 128, &mut scratch);
        assert_eq!(got.as_ptr() as usize % 64, 0);
    }

    #[test]
    fn read_in_place_borrows_a_range_that_ends_at_the_page_end() {
        let mut mem = HostMemory::new();
        let page = PAGE_SIZE as u64;
        mem.write(page * 2 - 64, &[7u8; 64]);
        let mut scratch = [0xEEu8; 64];
        let got = mem.read_in_place(page * 2 - 64, &mut scratch);
        assert_eq!(*got, [7u8; 64]);
        assert!(
            !std::ptr::eq(got, &scratch),
            "the last bytes of a page are lent"
        );
        assert_eq!(scratch, [0xEE; 64]);
    }

    #[test]
    fn read_in_place_across_a_half_resident_boundary_zeroes_the_absent_side() {
        let mut mem = HostMemory::new();
        let page = PAGE_SIZE as u64;
        // Only the page after the boundary is resident.
        mem.write(page * 6, &[5u8; 16]);
        let mut scratch = [0xEEu8; 32];
        let got = *mem.read_in_place(page * 6 - 16, &mut scratch);
        assert_eq!(got[..16], [0; 16]);
        assert_eq!(got[16..], [5; 16]);
        assert_eq!(mem.resident_pages(), 1, "reading materializes nothing");
    }

    /// `mem` after copying the model's way: stage the source, write it.
    fn model_copy(mem: &HostMemory, src: HostAddr, dst: HostAddr, len: u64) -> HostMemory {
        let mut model = HostMemory::new();
        for (&page, bytes) in &mem.pages {
            model.write(page << PAGE_SHIFT, &bytes.0);
        }
        let staged = model.read_vec(src, len as usize);
        model.write(dst, &staged);
        model
    }

    #[test]
    fn copy_across_differently_misaligned_pages() {
        let mut mem = HostMemory::new();
        let page = PAGE_SIZE as u64;
        // Source starts 100 bytes before a page end, destination 3000:
        // the pieces split at both sides' page boundaries.
        let (src, dst, len) = (page * 4 - 100, page * 9 - 3000, 2 * page + 500);
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        mem.write(src, &data);
        mem.copy(src, dst, len);
        assert_eq!(mem.read_vec(dst, len as usize), data);
        // The bytes around the destination are untouched zeros.
        assert_eq!(mem.read_vec(dst - 1, 1), [0]);
        assert_eq!(mem.read_vec(dst + len, 1), [0]);
        // The source is unchanged.
        assert_eq!(mem.read_vec(src, len as usize), data);
    }

    #[test]
    fn copy_within_one_page_matches_the_model_both_ways() {
        let base = PAGE_SIZE as u64 * 5;
        for (src, dst) in [
            (base + 10, base + 700),
            (base + 700, base + 10),
            (base + 40, base),
            (base, base + 40),
        ] {
            let mut mem = HostMemory::new();
            let data: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
            mem.write(base, &data);
            let want = model_copy(&mem, src, dst, 300);
            mem.copy(src, dst, 300);
            assert_eq!(mem.read_vec(base, 2000), want.read_vec(base, 2000));
        }
    }

    #[test]
    fn copy_from_unwritten_memory_zeroes_without_allocating() {
        let mut mem = HostMemory::new();
        let page = PAGE_SIZE as u64;
        let (src, dst) = (page * 20 + 123, page * 40 + 3000);
        // An absent destination stays absent...
        mem.copy(src, dst, 3 * page);
        assert_eq!(mem.resident_pages(), 0);
        assert!(mem.read_vec(dst, 3 * PAGE_SIZE).iter().all(|&b| b == 0));
        // ...and a present one is zeroed, beside bytes the copy misses.
        mem.fill(dst - 10, 3 * page + 20, 0xCC);
        let resident = mem.resident_pages();
        mem.copy(src, dst, 3 * page);
        assert_eq!(mem.resident_pages(), resident);
        assert!(mem.read_vec(dst, 3 * PAGE_SIZE).iter().all(|&b| b == 0));
        assert_eq!(mem.read_vec(dst - 10, 10), [0xCC; 10]);
        assert_eq!(mem.read_vec(dst + 3 * page, 10), [0xCC; 10]);
    }

    proptest! {
        /// A page-to-page copy leaves memory reading exactly as staging
        /// the source through a vector and writing it back does, for any
        /// sparse contents, alignments and overlap; it never materializes
        /// a page the model would not.
        #[test]
        fn prop_copy_matches_staged_model(
            writes in proptest::collection::vec((0u64..40_000, 1usize..6000), 0..6),
            src in 0u64..40_000,
            dst in 0u64..40_000,
            len in 0u64..12_000,
        ) {
            let mut mem = HostMemory::new();
            for (k, &(addr, n)) in writes.iter().enumerate() {
                mem.write(addr, &vec![k as u8 + 1; n]);
            }
            let want = model_copy(&mem, src, dst, len);
            mem.copy(src, dst, len);
            prop_assert_eq!(mem.read_vec(0, 60_000), want.read_vec(0, 60_000));
            prop_assert!(mem.resident_pages() <= want.resident_pages());
        }

        /// A borrowed read equals a copying one at any address, over
        /// resident, absent and half-resident ranges alike.
        #[test]
        fn prop_read_in_place_matches_read(
            writes in proptest::collection::vec((0u64..20_000, 1usize..3000), 0..4),
            addr in 0u64..24_000,
        ) {
            let mut mem = HostMemory::new();
            for (k, &(at, n)) in writes.iter().enumerate() {
                mem.write(at, &vec![k as u8 + 1; n]);
            }
            let mut scratch = [0u8; 512];
            let got = *mem.read_in_place(addr, &mut scratch);
            prop_assert_eq!(got.to_vec(), mem.read_vec(addr, 512));
        }

        /// What you write is what you read, at arbitrary (mis)alignments.
        #[test]
        fn prop_write_read_roundtrip(
            addr in 0u64..1_000_000,
            data in proptest::collection::vec(any::<u8>(), 1..5000)
        ) {
            let mut mem = HostMemory::new();
            mem.write(addr, &data);
            prop_assert_eq!(mem.read_vec(addr, data.len()), data);
        }

        /// Non-overlapping writes do not disturb each other.
        #[test]
        fn prop_disjoint_writes_independent(
            a_len in 1usize..2000,
            gap in 0u64..100,
            b_len in 1usize..2000,
        ) {
            let mut mem = HostMemory::new();
            let a_addr = 0x8000u64;
            let b_addr = a_addr + a_len as u64 + gap;
            let a_data = vec![0x11u8; a_len];
            let b_data = vec![0x22u8; b_len];
            mem.write(a_addr, &a_data);
            mem.write(b_addr, &b_data);
            prop_assert_eq!(mem.read_vec(a_addr, a_len), a_data);
            prop_assert_eq!(mem.read_vec(b_addr, b_len), b_data);
        }
    }
}
