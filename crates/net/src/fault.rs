//! Deterministic, seeded fault injection for the simulated transport.
//!
//! A [`FaultPlan`] describes an *unreliable* network: per-link probabilities
//! of a data frame being dropped, duplicated or delivered late, plus a
//! schedule of crash-without-drain [`FaultEvent`]s (a cut link, a crashed
//! node) that discard every in-flight frame on the affected links instead of
//! letting them drain.
//!
//! Every decision is a pure function of `(seed, src, dst, frame seq,
//! attempt)` through a splitmix64-style mixer: the same plan on the same
//! frame stream makes the same calls in every run, which is what lets the
//! engine's reliability layer promise bit-identical re-convergence and
//! repeatable fault counters.
//!
//! Loss is *bounded-burst*: once a frame has been dropped
//! [`FaultPlan::max_consecutive_drops`] times in a row, the next attempt is
//! always delivered.  Retransmission with a retry budget above that bound
//! therefore always succeeds eventually — only a scheduled [`FaultEvent`]
//! can kill a frame for good.

/// A scheduled crash-without-drain event: unlike the graceful churn
/// teardown (which waits for in-flight frames to drain), these discard
/// whatever is on the wire at the instant they fire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// The directed link `src → dst` is cut: every in-flight frame on it is
    /// discarded, its session channel is evicted without drain, and the
    /// `link(src, dst)` base fact is withdrawn.
    LinkCut {
        /// Source node index.
        src: u32,
        /// Destination node index.
        dst: u32,
    },
    /// The node crash-stops without drain: all links touching it are cut
    /// (in-flight frames in both directions die) and its base assertions
    /// are withdrawn as under a node failure.
    NodeCrash {
        /// The crashing node index.
        node: u32,
    },
}

/// A deterministic, seeded unreliable-network schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed every decision is derived from.
    pub seed: u64,
    /// Per-attempt probability (in ‰) that a data frame is dropped.
    pub drop_per_mille: u16,
    /// Probability (in ‰) that a data frame is delivered twice.
    pub duplicate_per_mille: u16,
    /// Probability (in ‰) that a data frame is delivered late.
    pub delay_per_mille: u16,
    /// Upper bound (µs) on the extra delay of a late frame.
    pub max_delay_us: u64,
    /// Bounded-burst loss: an attempt at or beyond this count always
    /// delivers.  Keep it below the engine's retry budget so retransmission
    /// converges.
    pub max_consecutive_drops: u8,
    /// Crash-without-drain events, as `(microseconds, event)` pairs.
    pub events: Vec<(u64, FaultEvent)>,
}

impl FaultPlan {
    /// A plan with the default loss profile (≈6% drops, 2% duplicates, 3%
    /// late frames, bursts capped at 3) and no scheduled crash events.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_per_mille: 60,
            duplicate_per_mille: 20,
            delay_per_mille: 30,
            max_delay_us: 2_000,
            max_consecutive_drops: 3,
            events: Vec::new(),
        }
    }

    /// A plan that injects no probabilistic faults (useful as a base for a
    /// pure crash schedule).
    pub fn lossless(seed: u64) -> Self {
        FaultPlan {
            drop_per_mille: 0,
            duplicate_per_mille: 0,
            delay_per_mille: 0,
            ..Self::new(seed)
        }
    }

    /// Sets the per-attempt drop probability in ‰.
    pub fn with_drop_per_mille(mut self, per_mille: u16) -> Self {
        self.drop_per_mille = per_mille;
        self
    }

    /// Schedules a [`FaultEvent::LinkCut`] at `at_us`.
    pub fn cut_link(mut self, at_us: u64, src: u32, dst: u32) -> Self {
        self.events.push((at_us, FaultEvent::LinkCut { src, dst }));
        self
    }

    /// Schedules a [`FaultEvent::NodeCrash`] at `at_us`.
    pub fn crash_node(mut self, at_us: u64, node: u32) -> Self {
        self.events.push((at_us, FaultEvent::NodeCrash { node }));
        self
    }

    /// True when delivery attempt `attempt` (0 = the original send) of the
    /// frame with per-link sequence `seq` on `src → dst` is dropped.
    pub fn drops(&self, src: u32, dst: u32, seq: u64, attempt: u8) -> bool {
        if self.drop_per_mille == 0 || attempt >= self.max_consecutive_drops {
            return false;
        }
        self.roll(1, src, dst, seq, attempt as u64) < self.drop_per_mille as u64
    }

    /// True when the frame is delivered twice (the duplicate is deduped by
    /// the receiver).
    pub fn duplicates(&self, src: u32, dst: u32, seq: u64) -> bool {
        self.duplicate_per_mille != 0
            && self.roll(2, src, dst, seq, 0) < self.duplicate_per_mille as u64
    }

    /// Extra delivery delay (µs) for the frame, `0` when it is on time.
    pub fn extra_delay_us(&self, src: u32, dst: u32, seq: u64) -> u64 {
        if self.delay_per_mille == 0 || self.max_delay_us == 0 {
            return 0;
        }
        if self.roll(3, src, dst, seq, 0) >= self.delay_per_mille as u64 {
            return 0;
        }
        1 + self.mix(4, src, dst, seq, 0) % self.max_delay_us
    }

    /// A uniform roll in `0..1000` for the decision `salt`.
    fn roll(&self, salt: u64, src: u32, dst: u32, seq: u64, attempt: u64) -> u64 {
        self.mix(salt, src, dst, seq, attempt) % 1000
    }

    /// splitmix64-style avalanche over the full decision identity.
    fn mix(&self, salt: u64, src: u32, dst: u32, seq: u64, attempt: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(salt)
            .wrapping_add((src as u64) << 40)
            .wrapping_add((dst as u64) << 20)
            .wrapping_add(seq.wrapping_mul(0x2545f4914f6cdd1d))
            .wrapping_add(attempt.wrapping_mul(0x9e3779b97f4a7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let a = FaultPlan::new(7);
        let b = FaultPlan::new(7);
        for seq in 0..2_000u64 {
            assert_eq!(a.drops(0, 1, seq, 0), b.drops(0, 1, seq, 0));
            assert_eq!(a.duplicates(0, 1, seq), b.duplicates(0, 1, seq));
            assert_eq!(a.extra_delay_us(0, 1, seq), b.extra_delay_us(0, 1, seq));
        }
    }

    #[test]
    fn drop_rate_tracks_the_configured_probability() {
        let plan = FaultPlan::new(42).with_drop_per_mille(100);
        let dropped = (0..10_000u64).filter(|&s| plan.drops(2, 3, s, 0)).count();
        // 10% ± generous slack.
        assert!((700..1_300).contains(&dropped), "{dropped}");
    }

    #[test]
    fn bursts_are_bounded_below_the_retry_budget() {
        let plan = FaultPlan::new(1).with_drop_per_mille(999);
        for seq in 0..100u64 {
            assert!(!plan.drops(0, 1, seq, plan.max_consecutive_drops));
        }
    }

    #[test]
    fn seeds_diverge_and_links_diverge() {
        let a = FaultPlan::new(1).with_drop_per_mille(500);
        let b = FaultPlan::new(2).with_drop_per_mille(500);
        let diff = (0..1_000u64)
            .filter(|&s| a.drops(0, 1, s, 0) != b.drops(0, 1, s, 0))
            .count();
        assert!(diff > 100, "seeds should decorrelate: {diff}");
        let link_diff = (0..1_000u64)
            .filter(|&s| a.drops(0, 1, s, 0) != a.drops(1, 0, s, 0))
            .count();
        assert!(link_diff > 100, "links should decorrelate: {link_diff}");
    }

    #[test]
    fn builders_compose_a_crash_schedule() {
        let plan = FaultPlan::lossless(9)
            .cut_link(5_000_000, 0, 1)
            .crash_node(8_000_000, 2);
        assert_eq!(plan.events.len(), 2);
        assert_eq!(plan.events[0].1, FaultEvent::LinkCut { src: 0, dst: 1 });
        assert_eq!(plan.events[1].1, FaultEvent::NodeCrash { node: 2 });
        assert!(!plan.drops(0, 1, 3, 0));
    }
}
