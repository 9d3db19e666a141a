//! Address decoding.
//!
//! The bus decodes each request against a set of `[low, high]` ranges, one
//! per slave — exactly the information the paper's mandatory
//! `get_low_add()` / `get_high_add()` interface methods expose (§5.4,
//! limitation 2).

use drcf_kernel::prelude::ComponentId;

use crate::protocol::Addr;

/// One slave's claim on the address space (inclusive on both ends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range {
    /// Lowest claimed address.
    pub low: Addr,
    /// Highest claimed address (inclusive).
    pub high: Addr,
    /// The slave component.
    pub slave: ComponentId,
}

impl Range {
    /// Does this range contain `addr`?
    pub fn contains(&self, addr: Addr) -> bool {
        (self.low..=self.high).contains(&addr)
    }

    /// Do two ranges overlap?
    pub fn overlaps(&self, other: &Range) -> bool {
        self.low <= other.high && other.low <= self.high
    }

    /// Size of the range in addressable units.
    pub fn len(&self) -> u64 {
        self.high - self.low + 1
    }

    /// Ranges are never empty (both bounds inclusive).
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// The full decode table of one bus.
#[derive(Debug, Clone, Default)]
pub struct AddressMap {
    ranges: Vec<Range>,
}

impl AddressMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Claim `[low, high]` for `slave`. Fails on inverted bounds or overlap
    /// with an existing claim.
    pub fn add(&mut self, low: Addr, high: Addr, slave: ComponentId) -> Result<(), String> {
        if low > high {
            return Err(format!("inverted range [{low:#x}, {high:#x}]"));
        }
        let r = Range { low, high, slave };
        for e in &self.ranges {
            if e.overlaps(&r) {
                return Err(format!(
                    "range [{low:#x}, {high:#x}] overlaps [{:#x}, {:#x}] of slave {}",
                    e.low, e.high, e.slave
                ));
            }
        }
        self.ranges.push(r);
        Ok(())
    }

    /// Find the slave claiming `addr`.
    pub fn decode(&self, addr: Addr) -> Option<ComponentId> {
        self.ranges
            .iter()
            .find(|r| r.contains(addr))
            .map(|r| r.slave)
    }

    /// Find the slave claiming the *whole* burst `[addr, addr + words)`.
    /// Bursts may not cross slave boundaries.
    pub fn decode_burst(&self, addr: Addr, words: usize) -> Option<ComponentId> {
        self.range_of_burst(addr, words).map(|r| r.slave)
    }

    /// The claim holding the whole burst `[addr, addr + words)`, if one does.
    pub fn range_of_burst(&self, addr: Addr, words: usize) -> Option<&Range> {
        let end = addr.checked_add(words.saturating_sub(1) as u64)?;
        self.ranges
            .iter()
            .find(|r| r.contains(addr) && r.contains(end))
    }

    /// All claims, in registration order.
    pub fn ranges(&self) -> &[Range] {
        &self.ranges
    }

    /// Number of claims.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// No claims yet?
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcf_kernel::testing::ok;

    #[test]
    fn decode_hits_the_right_slave() {
        let mut m = AddressMap::new();
        ok(m.add(0x000, 0x0FF, 1));
        ok(m.add(0x100, 0x1FF, 2));
        assert_eq!(m.decode(0x000), Some(1));
        assert_eq!(m.decode(0x0FF), Some(1));
        assert_eq!(m.decode(0x100), Some(2));
        assert_eq!(m.decode(0x200), None);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn overlap_rejected() {
        let mut m = AddressMap::new();
        ok(m.add(0x100, 0x1FF, 1));
        assert!(m.add(0x1FF, 0x2FF, 2).is_err());
        assert!(m.add(0x000, 0x100, 2).is_err());
        assert!(m.add(0x150, 0x160, 2).is_err());
        assert!(m.add(0x200, 0x2FF, 2).is_ok());
    }

    #[test]
    fn inverted_range_rejected() {
        let mut m = AddressMap::new();
        assert!(m.add(0x10, 0x0F, 1).is_err());
    }

    #[test]
    fn single_address_range_works() {
        let mut m = AddressMap::new();
        ok(m.add(0x42, 0x42, 9));
        assert_eq!(m.decode(0x42), Some(9));
        assert_eq!(m.decode(0x41), None);
        assert_eq!(m.ranges()[0].len(), 1);
    }

    #[test]
    fn burst_must_fit_one_slave() {
        let mut m = AddressMap::new();
        ok(m.add(0x00, 0x0F, 1));
        ok(m.add(0x10, 0x1F, 2));
        assert_eq!(m.decode_burst(0x0C, 4), Some(1)); // 0x0C..=0x0F
        assert_eq!(m.decode_burst(0x0D, 4), None); // crosses into slave 2
        assert_eq!(m.decode_burst(0x10, 16), Some(2));
        assert_eq!(m.decode_burst(0x10, 17), None);
    }

    #[test]
    fn burst_overflow_is_a_decode_miss() {
        let mut m = AddressMap::new();
        ok(m.add(0x00, Addr::MAX, 1));
        assert_eq!(m.decode_burst(Addr::MAX, 2), None);
    }
}
