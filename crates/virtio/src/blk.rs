//! virtio-blk request encoding.
//!
//! A virtio-blk request is a three-part descriptor chain: a 16-byte header
//! (`type`, reserved, `sector`), the data buffers, and a one-byte status
//! the device writes last. [`BlkRequest::build_chain`] produces the chain a
//! guest driver would publish, and [`BlkRequest::parse_chain`] is the
//! backend-side decode, with real header bytes moving through
//! [`HostMemory`].

use nesc_extent::{validate_sector, GuestFault, Untrusted, Vlba};
use nesc_pcie::{HostAddr, HostMemory};

use crate::queue::Descriptor;

/// Bytes per virtio-blk sector. The wire format always addresses in
/// 512-byte sectors regardless of the backing device's block size.
pub const SECTOR_BYTES: u64 = 512;

/// virtio-blk command type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlkRequestType {
    /// Device-to-driver data transfer (`VIRTIO_BLK_T_IN`).
    In,
    /// Driver-to-device data transfer (`VIRTIO_BLK_T_OUT`).
    Out,
    /// Flush volatile caches (`VIRTIO_BLK_T_FLUSH`).
    Flush,
}

impl BlkRequestType {
    fn code(self) -> u32 {
        match self {
            BlkRequestType::In => 0,
            BlkRequestType::Out => 1,
            BlkRequestType::Flush => 4,
        }
    }

    fn from_code(c: u32) -> Option<Self> {
        match c {
            0 => Some(BlkRequestType::In),
            1 => Some(BlkRequestType::Out),
            4 => Some(BlkRequestType::Flush),
            _ => None,
        }
    }
}

/// Completion status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlkStatus {
    /// `VIRTIO_BLK_S_OK`
    Ok,
    /// `VIRTIO_BLK_S_IOERR`
    IoErr,
    /// `VIRTIO_BLK_S_UNSUPP`
    Unsupported,
}

impl BlkStatus {
    /// The wire byte.
    pub fn byte(self) -> u8 {
        match self {
            BlkStatus::Ok => 0,
            BlkStatus::IoErr => 1,
            BlkStatus::Unsupported => 2,
        }
    }

    /// Decodes a wire byte.
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(BlkStatus::Ok),
            1 => Some(BlkStatus::IoErr),
            2 => Some(BlkStatus::Unsupported),
            _ => None,
        }
    }
}

/// A decoded virtio-blk request.
///
/// The header a backend decodes lives in guest-writable memory, so the
/// sector and length arrive quarantined in [`Untrusted`]; a backend
/// releases the sector through [`validated_sector`](Self::validated_sector)
/// (or the raw boundary accessors below, which live in this module by
/// design). The buffer addresses stay bare [`HostAddr`]s — DMA targets are
/// policed by the memory model, not the block validators.
// nesc-lint: guest-input
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlkRequest {
    /// Command.
    pub rtype: BlkRequestType,
    /// First 512-byte sector (virtio-blk addresses in sectors regardless of
    /// the backing block size). Guest-chosen and unproven until validated.
    pub sector: Untrusted<u64>,
    /// Guest data buffer.
    pub data: HostAddr,
    /// Data length in bytes. Guest-chosen and unproven until validated.
    pub len: Untrusted<u32>,
    /// Where the device writes the status byte.
    pub status: HostAddr,
}

/// The descriptor chain a virtio-blk driver publishes: header, data
/// (absent for `Flush`) and status, held inline. Derefs to the chain's
/// descriptors in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlkChain {
    descriptors: [Descriptor; 3],
    len: usize,
}

impl std::ops::Deref for BlkChain {
    type Target = [Descriptor];

    fn deref(&self) -> &[Descriptor] {
        &self.descriptors[..self.len]
    }
}

/// Chain-decoding error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// The chain did not have header + (data) + status layout.
    BadLayout,
    /// Unknown request type code.
    BadType {
        /// The code found in the header.
        code: u32,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadLayout => write!(f, "malformed virtio-blk descriptor chain"),
            ParseError::BadType { code } => write!(f, "unknown virtio-blk type {code}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl BlkRequest {
    /// Builds a request from trusted driver-side values (drivers, tests,
    /// benches), quarantining them exactly as [`parse_chain`](Self::parse_chain)
    /// would.
    pub fn new(
        rtype: BlkRequestType,
        sector: u64,
        data: HostAddr,
        len: u32,
        status: HostAddr,
    ) -> Self {
        BlkRequest {
            rtype,
            sector: Untrusted::new(sector),
            data,
            len: Untrusted::new(len),
            status,
        }
    }

    /// Proves the starting sector against a device capacity, releasing it
    /// from quarantine.
    ///
    /// # Errors
    ///
    /// [`GuestFault::SectorOutOfRange`] if the sector does not fit the
    /// device.
    pub fn validated_sector(&self, capacity_sectors: u64) -> Result<u64, GuestFault> {
        validate_sector(self.sector, capacity_sectors)
    }

    /// The request's starting byte offset in the guest's virtual disk.
    ///
    /// Boundary accessor: the offset is still guest-derived; callers
    /// outside this module should prefer
    /// [`validated_sector`](Self::validated_sector).
    pub fn byte_offset(&self) -> u64 {
        self.sector.into_unchecked() * SECTOR_BYTES
    }

    /// The virtual block containing the request's first sector.
    ///
    /// virtio-blk sectors are guest-disk offsets, so the provenance of the
    /// address is virtual by construction — a backend must still walk the
    /// file's extent map before it can touch physical blocks.
    pub fn start_vlba(&self) -> Vlba {
        Vlba::from_byte_offset(self.byte_offset())
    }

    /// Driver side: writes the 16-byte header into guest memory at
    /// `header_addr` and returns the descriptor chain to publish.
    ///
    /// For `Flush`, `data`/`len` are ignored and the chain is header +
    /// status only.
    pub fn build_chain(&self, mem: &mut HostMemory, header_addr: HostAddr) -> BlkChain {
        let mut header = [0u8; 16];
        header[0..4].copy_from_slice(&self.rtype.code().to_le_bytes());
        header[8..16].copy_from_slice(&self.sector.into_unchecked().to_le_bytes());
        mem.write(header_addr, &header);
        let header = Descriptor {
            addr: header_addr,
            len: 16,
            device_writes: false,
        };
        let status = Descriptor {
            addr: self.status,
            len: 1,
            device_writes: true,
        };
        if self.rtype == BlkRequestType::Flush {
            // The third slot is unused; it repeats the status descriptor.
            return BlkChain {
                descriptors: [header, status, status],
                len: 2,
            };
        }
        let data = Descriptor {
            addr: self.data,
            len: self.len.into_unchecked(),
            device_writes: self.rtype == BlkRequestType::In,
        };
        BlkChain {
            descriptors: [header, data, status],
            len: 3,
        }
    }

    /// Backend side: decodes a popped chain back into a request, reading
    /// the header bytes from guest memory.
    ///
    /// # Errors
    ///
    /// [`ParseError`] if the chain layout or type code is invalid.
    // nesc-lint: guest-input
    pub fn parse_chain(
        mem: &HostMemory,
        descriptors: &[Descriptor],
    ) -> Result<BlkRequest, ParseError> {
        let (header, rest) = descriptors.split_first().ok_or(ParseError::BadLayout)?;
        if header.len != 16 || header.device_writes {
            return Err(ParseError::BadLayout);
        }
        let mut bytes = [0u8; 16];
        mem.read(header.addr, &mut bytes);
        let [c0, c1, c2, c3, _, _, _, _, sector @ ..] = bytes;
        let code = u32::from_le_bytes([c0, c1, c2, c3]);
        let sector = u64::from_le_bytes(sector);
        let rtype = BlkRequestType::from_code(code).ok_or(ParseError::BadType { code })?;
        match (rtype, rest) {
            (BlkRequestType::Flush, [status]) if status.device_writes && status.len == 1 => {
                Ok(BlkRequest {
                    rtype,
                    sector: Untrusted::new(sector),
                    data: 0,
                    len: Untrusted::new(0),
                    status: status.addr,
                })
            }
            (_, [data, status]) if status.device_writes && status.len == 1 => {
                let expect_write = rtype == BlkRequestType::In;
                if data.device_writes != expect_write {
                    return Err(ParseError::BadLayout);
                }
                Ok(BlkRequest {
                    rtype,
                    sector: Untrusted::new(sector),
                    data: data.addr,
                    len: Untrusted::new(data.len),
                    status: status.addr,
                })
            }
            _ => Err(ParseError::BadLayout),
        }
    }

    /// Backend side: writes the completion status byte into guest memory.
    pub fn complete(&self, mem: &mut HostMemory, status: BlkStatus) {
        mem.write(self.status, &[status.byte()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_request_roundtrip() {
        let mut mem = HostMemory::new();
        let req = BlkRequest::new(BlkRequestType::In, 128, 0x4000, 4096, 0x5000);
        let chain = req.build_chain(&mut mem, 0x3000);
        assert_eq!(chain.len(), 3);
        assert!(chain[1].device_writes, "IN data is device-written");
        let parsed = BlkRequest::parse_chain(&mem, &chain).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn out_request_roundtrip() {
        let mut mem = HostMemory::new();
        let req = BlkRequest::new(BlkRequestType::Out, 7, 0x4000, 512, 0x5000);
        let chain = req.build_chain(&mut mem, 0x3000);
        assert!(!chain[1].device_writes, "OUT data is device-read");
        assert_eq!(BlkRequest::parse_chain(&mem, &chain).unwrap(), req);
    }

    #[test]
    fn flush_has_no_data_descriptor() {
        let mut mem = HostMemory::new();
        let req = BlkRequest::new(BlkRequestType::Flush, 0, 0, 0, 0x5000);
        let chain = req.build_chain(&mut mem, 0x3000);
        assert_eq!(chain.len(), 2);
        let parsed = BlkRequest::parse_chain(&mem, &chain).unwrap();
        assert_eq!(parsed.rtype, BlkRequestType::Flush);
    }

    #[test]
    fn status_byte_lands_in_memory() {
        let mut mem = HostMemory::new();
        let req = BlkRequest::new(BlkRequestType::Out, 0, 0x4000, 512, 0x5000);
        req.complete(&mut mem, BlkStatus::IoErr);
        assert_eq!(
            BlkStatus::from_byte(mem.read_vec(0x5000, 1)[0]),
            Some(BlkStatus::IoErr)
        );
    }

    #[test]
    fn sector_maps_to_containing_virtual_block() {
        // Sector 3 is 1536 bytes in: mid-block for 1 KiB blocks.
        let req = BlkRequest::new(BlkRequestType::In, 3, 0, 512, 0);
        assert_eq!(req.byte_offset(), 1536);
        assert_eq!(req.start_vlba(), Vlba(1));
    }

    #[test]
    fn malformed_chains_rejected() {
        let mem = HostMemory::new();
        assert_eq!(
            BlkRequest::parse_chain(&mem, &[]),
            Err(ParseError::BadLayout)
        );
        // Header with the wrong size.
        let bad = [Descriptor {
            addr: 0,
            len: 8,
            device_writes: false,
        }];
        assert_eq!(
            BlkRequest::parse_chain(&mem, &bad),
            Err(ParseError::BadLayout)
        );
    }

    #[test]
    fn unknown_type_rejected() {
        let mut mem = HostMemory::new();
        mem.write_u32(0x3000, 99);
        let chain = [
            Descriptor {
                addr: 0x3000,
                len: 16,
                device_writes: false,
            },
            Descriptor {
                addr: 0x4000,
                len: 512,
                device_writes: false,
            },
            Descriptor {
                addr: 0x5000,
                len: 1,
                device_writes: true,
            },
        ];
        assert_eq!(
            BlkRequest::parse_chain(&mem, &chain),
            Err(ParseError::BadType { code: 99 })
        );
    }
}
