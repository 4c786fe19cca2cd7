//! The correctness gate every timed run passes its outputs through, the
//! failure accounting behind `attempted`/`failed`, and the output digest
//! that makes runs comparable against the byte-identity contract.

use diffpattern::drc::{check_pattern, DesignRules};
use diffpattern::geometry::BitGrid;
use diffpattern::library::codec::{fnv1a, FNV_OFFSET};
use diffpattern::squish::{DeepSquishTensor, SquishPattern};
use diffpattern::FrozenRegion;
use std::collections::BTreeMap;

/// Operations attempted and failed, by cause. One operation is one
/// requested pattern slot: a refused or errored request fails all of
/// its slots, a delivered pattern that is DRC-dirty or lost a frozen bit
/// fails its own slot. Shortfall (a slot the generator gave up on) is
/// counted separately and is not a failure.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Requested slots.
    pub attempted: u64,
    /// Slots lost to any failure below.
    pub failed: u64,
    /// Patterns delivered and passing the gate.
    pub delivered: u64,
    /// Slots the request reported as shortfall.
    pub shortfall: u64,
    /// Slots of requests the service or server refused.
    pub refused: u64,
    /// Slots of requests that ended in an error.
    pub errored: u64,
    /// Delivered patterns that failed `dp_drc::check_pattern`.
    pub drc_dirty: u64,
    /// Delivered patterns that changed a frozen bit.
    pub frozen_broken: u64,
}

impl Tally {
    /// A request the service or server refused: every slot fails.
    pub fn refused(&mut self, count: usize) {
        self.attempted += count as u64;
        self.failed += count as u64;
        self.refused += count as u64;
    }

    /// A request that ended in an error: every slot fails.
    pub fn errored(&mut self, count: usize) {
        self.attempted += count as u64;
        self.failed += count as u64;
        self.errored += count as u64;
    }

    /// A request that completed with `shortfall` undelivered slots; its
    /// delivered patterns go through [`Tally::check`] one by one.
    pub fn completed(&mut self, count: usize, shortfall: usize) {
        self.attempted += count as u64;
        self.shortfall += shortfall as u64;
    }

    /// Re-checks one delivered pattern under its own request's rules and
    /// frozen region; returns whether it passed.
    pub fn check(
        &mut self,
        pattern: &SquishPattern,
        rules: &DesignRules,
        frozen: Option<&FrozenRegion>,
        channels: usize,
    ) -> bool {
        let clean = check_pattern(pattern, rules).is_clean();
        let kept = frozen.is_none_or(|region| frozen_kept(pattern, region, channels));
        if !clean {
            self.drc_dirty += 1;
        }
        if !kept {
            self.frozen_broken += 1;
        }
        if clean && kept {
            self.delivered += 1;
        } else {
            self.failed += 1;
        }
        clean && kept
    }

    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Whether the pattern's topology still carries every frozen bit.
pub fn frozen_kept(pattern: &SquishPattern, region: &FrozenRegion, channels: usize) -> bool {
    frozen_grid_kept(pattern.topology(), region, channels)
}

/// Whether a topology matrix still carries every frozen bit.
pub fn frozen_grid_kept(grid: &BitGrid, region: &FrozenRegion, channels: usize) -> bool {
    let Ok(tensor) = DeepSquishTensor::fold(grid, channels) else {
        return false;
    };
    region
        .mask()
        .iter()
        .zip(region.bits())
        .zip(tensor.bits())
        .all(|((&frozen, &want), &got)| !frozen || want == got)
}

/// Canonical output bytes keyed by (request, slot), hashed in key order
/// so the digest does not depend on completion order.
#[derive(Debug, Default)]
pub struct Digest {
    lines: BTreeMap<(u64, usize), String>,
}

impl Digest {
    /// Records one delivered output's canonical bytes.
    pub fn add(&mut self, request: u64, slot: usize, bytes: String) {
        self.lines.insert((request, slot), bytes);
    }

    /// Keeps only the outputs of requests `keep` accepts.
    pub fn retain_requests(&mut self, keep: impl Fn(u64) -> bool) {
        self.lines.retain(|(request, _), _| keep(*request));
    }

    /// Outputs recorded.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether every output both digests recorded has the same bytes
    /// (time-bounded runs of one seed complete different prefixes of the
    /// same request sequence).
    pub fn agrees_with(&self, other: &Digest) -> bool {
        self.lines
            .iter()
            .all(|(key, bytes)| other.lines.get(key).is_none_or(|b| b == bytes))
    }

    /// FNV-1a over every `request:slot:bytes` line in key order.
    pub fn value(&self) -> u64 {
        self.lines
            .iter()
            .fold(FNV_OFFSET, |h, ((request, slot), bytes)| {
                let h = fnv1a(h, format!("{request}:{slot}:").as_bytes());
                fnv1a(fnv1a(h, bytes.as_bytes()), b"\n")
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 10 nm square in the middle of the tile: narrower than any
    /// preset's `width_min`, away from the exempt border.
    fn dirty_pattern() -> SquishPattern {
        let mut grid = BitGrid::new(3, 3).unwrap();
        grid.set(1, 1, true);
        SquishPattern::new(grid, vec![1000, 10, 1000], vec![1000, 10, 1000]).unwrap()
    }

    fn empty_pattern() -> SquishPattern {
        SquishPattern::new(BitGrid::new(2, 2).unwrap(), vec![1024; 2], vec![1024; 2]).unwrap()
    }

    #[test]
    fn a_drc_dirty_delivery_counts_as_failed() {
        let mut tally = Tally::default();
        tally.completed(2, 0);
        assert!(tally.check(&empty_pattern(), &DesignRules::standard(), None, 4));
        assert!(!tally.check(&dirty_pattern(), &DesignRules::standard(), None, 4));
        assert_eq!((tally.attempted, tally.failed, tally.drc_dirty), (2, 1, 1));
        assert_eq!(tally.delivered, 1);
        assert!(!tally.correct());
    }

    #[test]
    fn a_refused_or_errored_request_fails_every_slot() {
        let mut tally = Tally::default();
        tally.refused(2);
        tally.errored(1);
        tally.completed(3, 3);
        assert_eq!((tally.attempted, tally.failed), (6, 3));
        assert_eq!((tally.refused, tally.errored, tally.shortfall), (2, 1, 3));
        assert!(!tally.correct());
    }

    #[test]
    fn shortfall_alone_is_not_a_failure() {
        let mut tally = Tally::default();
        tally.completed(4, 4);
        assert!(tally.correct());
    }

    #[test]
    fn a_changed_frozen_bit_counts_as_failed() {
        // 4x4 grid folded at C = 4 gives a 4 x 2 x 2 tensor; freeze all.
        let mut grid = BitGrid::new(4, 4).unwrap();
        grid.set(0, 0, true);
        let pattern = SquishPattern::new(grid.clone(), vec![512; 4], vec![512; 4]).unwrap();
        let bits = DeepSquishTensor::fold(&grid, 4).unwrap().bits().to_vec();
        let kept = FrozenRegion::new(vec![true; 16], bits.clone()).unwrap();
        let flipped: Vec<bool> = bits.iter().map(|b| !b).collect();
        let broken = FrozenRegion::new(vec![true; 16], flipped).unwrap();
        // The lone shape touches the tile border, which the rules exempt.
        let rules = DesignRules::standard();
        let mut tally = Tally::default();
        tally.completed(2, 0);
        tally.check(&pattern, &rules, Some(&kept), 4);
        tally.check(&pattern, &rules, Some(&broken), 4);
        assert_eq!((tally.failed, tally.frozen_broken), (1, 1));
    }

    #[test]
    fn digest_ignores_arrival_order() {
        let mut a = Digest::default();
        a.add(1, 0, "x".into());
        a.add(0, 1, "y".into());
        let mut b = Digest::default();
        b.add(0, 1, "y".into());
        b.add(1, 0, "x".into());
        assert_eq!(a.value(), b.value());
        b.add(2, 0, "z".into());
        assert_ne!(a.value(), b.value());
    }
}
