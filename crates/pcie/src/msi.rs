//! Message-signalled interrupts.
//!
//! NeSC interrupts the hypervisor when a VF write misses in its extent tree
//! (so the host can allocate blocks and rebuild the mapping) and interrupts
//! guests on request completion. An MSI is just a tagged memory write; the
//! model represents it as an identity `(source function, vector)` that the
//! system glue delivers as an event after the link's posted-write latency.

use crate::addr::Bdf;

/// Identity of a message-signalled interrupt.
///
/// # Example
///
/// ```
/// use nesc_pcie::{MsiVector, Bdf};
/// let v = MsiVector::new(Bdf::new(3, 0, 1), 0);
/// assert_eq!(v.to_string(), "msi(03:00.1/0)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MsiVector {
    source: Bdf,
    vector: u16,
}

impl MsiVector {
    /// Creates a vector identity for interrupts raised by `source`.
    pub fn new(source: Bdf, vector: u16) -> Self {
        MsiVector { source, vector }
    }

    /// The function that raises this interrupt.
    pub fn source(&self) -> Bdf {
        self.source
    }

    /// The vector number within the source's MSI table.
    pub fn vector(&self) -> u16 {
        self.vector
    }
}

impl std::fmt::Display for MsiVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "msi({}/{})", self.source, self.vector)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_semantics() {
        let a = MsiVector::new(Bdf::new(1, 0, 0), 3);
        let b = MsiVector::new(Bdf::new(1, 0, 0), 3);
        let c = MsiVector::new(Bdf::new(1, 0, 1), 3);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.vector(), 3);
        assert_eq!(a.source(), Bdf::new(1, 0, 0));
    }

    #[test]
    fn vectors_order_by_source_then_vector() {
        let mut v = [
            MsiVector::new(Bdf::new(2, 0, 0), 0),
            MsiVector::new(Bdf::new(1, 0, 1), 0),
            MsiVector::new(Bdf::new(1, 0, 0), 7),
            MsiVector::new(Bdf::new(1, 0, 0), 2),
        ];
        v.sort();
        let shown: Vec<String> = v.iter().map(ToString::to_string).collect();
        assert_eq!(
            shown,
            [
                "msi(01:00.0/2)",
                "msi(01:00.0/7)",
                "msi(01:00.1/0)",
                "msi(02:00.0/0)"
            ]
        );
    }
}
