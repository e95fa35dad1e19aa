//! Per-function service counters.
//!
//! The device-wide aggregates ([`DeviceStats`][crate::DeviceStats]) are
//! folded by the probe's tally from the device's reports. The
//! per-function counters stay here, in [`FuncStats`], a struct-of-arrays
//! indexed by dense function id so the request completion path touches
//! two adjacent `u64` slots instead of a wide per-function context
//! struct; they reset when a VF slot is reused, which the probe does not
//! see.

/// Per-function service counters in struct-of-arrays layout, indexed by
/// dense function id (the device's function table index). The hot
/// completion path increments one slot in each array; the fairness and
/// QoS harnesses read them back per function.
#[derive(Debug, Clone, Default)]
pub struct FuncStats {
    requests: Vec<u64>,
    blocks: Vec<u64>,
}

impl FuncStats {
    /// Counters for `functions` dense function slots, all zero.
    pub fn with_len(functions: usize) -> Self {
        FuncStats {
            requests: vec![0; functions],
            blocks: vec![0; functions],
        }
    }

    /// Ensures at least `functions` slots exist (new slots start at zero).
    pub fn grow_to(&mut self, functions: usize) {
        if self.requests.len() < functions {
            self.requests.resize(functions, 0);
            self.blocks.resize(functions, 0);
        }
    }

    /// Zeroes one function's counters (VF slot reuse).
    pub fn reset(&mut self, func: usize) {
        if let Some(r) = self.requests.get_mut(func) {
            *r = 0;
        }
        if let Some(b) = self.blocks.get_mut(func) {
            *b = 0;
        }
    }

    /// Credits one served request moving `blocks` blocks to `func`.
    pub fn credit(&mut self, func: usize, requests: u64, blocks: u64) {
        self.requests[func] += requests;
        self.blocks[func] += blocks;
    }

    /// `(requests, blocks)` served for `func`; zeros for unknown slots.
    pub fn get(&self, func: usize) -> (u64, u64) {
        (
            self.requests.get(func).copied().unwrap_or(0),
            self.blocks.get(func).copied().unwrap_or(0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn func_stats_grow_reset_credit() {
        let mut f = FuncStats::with_len(2);
        f.credit(1, 1, 64);
        f.credit(1, 1, 4);
        assert_eq!(f.get(1), (2, 68));
        assert_eq!(f.get(0), (0, 0));
        assert_eq!(f.get(9), (0, 0), "unknown slots read as zero");
        f.grow_to(4);
        f.credit(3, 1, 8);
        assert_eq!(f.get(3), (1, 8));
        f.grow_to(2); // never shrinks
        assert_eq!(f.get(3), (1, 8));
        f.reset(1);
        assert_eq!(f.get(1), (0, 0));
        f.reset(17); // out of range is a no-op
    }
}
