//! Seeded input generation.  The engine only ever sees what is built here —
//! a `Topology`, a time-ordered churn stream, a list of query picks — and
//! everything is a pure function of `--seed` through the benchmark's own
//! splitmix64, so no engine-side generator (nor the `rand` stand-in) can
//! change the inputs behind a measurement.

use pasn::prelude::*;
use pasn_net::Link;
use std::collections::HashSet;

/// splitmix64 (Steele, Lea, Flood 2014): the whole generator is one `u64`.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (multiply-shift; the bias at these bounds is
    /// below 2⁻⁴⁰ and irrelevant to a workload generator).
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// An independent stream for one labelled purpose, so adding draws to
    /// one part of a workload never shifts another part's inputs.
    pub fn fork(&self, label: u64) -> SplitMix64 {
        let mut child = SplitMix64(self.0 ^ label.wrapping_mul(0xd6e8_feb8_6659_fd93));
        child.next_u64();
        child
    }
}

/// The paper's evaluation topology (Section 6): `n` nodes, `out_degree`
/// outgoing links each, costs uniform in `1..=max_cost`.  A ring backbone
/// keeps the graph strongly connected so every pair has a best path and
/// every node reaches every other.
pub fn random_topology(rng: &mut SplitMix64, n: u32, out_degree: u32, max_cost: u32) -> Topology {
    assert!(
        n > out_degree,
        "each node needs {out_degree} distinct neighbours"
    );
    let cost = |rng: &mut SplitMix64| 1 + rng.below(max_cost as u64) as u32;
    let mut links = Vec::with_capacity((n * out_degree) as usize);
    let mut taken: HashSet<(u32, u32)> = HashSet::new();
    for src in 0..n {
        let dst = (src + 1) % n;
        taken.insert((src, dst));
        links.push(Link {
            src: NodeId(src),
            dst: NodeId(dst),
            cost: cost(rng),
        });
    }
    for src in 0..n {
        let mut added = 1;
        while added < out_degree {
            let dst = rng.below(n as u64) as u32;
            if dst != src && taken.insert((src, dst)) {
                links.push(Link {
                    src: NodeId(src),
                    dst: NodeId(dst),
                    cost: cost(rng),
                });
                added += 1;
            }
        }
    }
    Topology::new((0..n).map(NodeId), links)
}

/// Simulated time between two generations of the churn stream.
pub const GENERATION_GAP_US: u64 = 200_000;

/// Lifetime of a generation's links and derived soft state: 2.5 gaps, so
/// about three generations are live at any instant however long the run.
pub const GENERATION_TTL_US: u64 = 500_000;

/// The generational churn stream: `generations` disjoint clusters of
/// `cluster_size` nodes, each a directed ring plus one seeded chord per node,
/// whose links come up one generation every [`GENERATION_GAP_US`] and go
/// down [`GENERATION_TTL_US`] later.  Returns the deployment's locations and
/// the time-ordered event stream.
pub fn generational_stream(
    rng: &mut SplitMix64,
    generations: u32,
    cluster_size: u32,
) -> (Vec<Value>, Vec<(SimTime, ChurnEvent)>) {
    assert!(cluster_size >= 4, "a ring plus a chord needs >= 4 nodes");
    let locations = (0..generations * cluster_size).map(Value::Addr).collect();
    let mut events = Vec::with_capacity((generations * cluster_size * 4) as usize);
    for g in 0..generations {
        let up_at = SimTime::from_micros(g as u64 * GENERATION_GAP_US);
        let down_at = SimTime::from_micros(up_at.as_micros() + GENERATION_TTL_US);
        let base = g * cluster_size;
        // One chord offset per generation, never the ring's own offset.
        let chord = 2 + rng.below(cluster_size as u64 - 2) as u32;
        for j in 0..cluster_size {
            for offset in [1, chord] {
                let src = Value::Addr(base + j);
                let dst = Value::Addr(base + (j + offset) % cluster_size);
                events.push((
                    up_at,
                    ChurnEvent::LinkUp {
                        src: src.clone(),
                        dst: dst.clone(),
                        cost: None,
                    },
                ));
                events.push((down_at, ChurnEvent::LinkDown { src, dst }));
            }
        }
    }
    // Stable: same-instant events keep their per-generation order.
    events.sort_by_key(|(at, _)| *at);
    (locations, events)
}

/// `count` seeded picks from `0..population`, with replacement.
pub fn picks(rng: &mut SplitMix64, population: usize, count: usize) -> Vec<usize> {
    (0..count)
        .map(|_| rng.below(population as u64) as usize)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_vector_and_repeats() {
        // First outputs of the reference implementation for seed 0.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(rng.next_u64(), 0x06c4_5d18_8009_454f);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..64).map(|_| rng.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(2008), draw(2008));
        assert_ne!(draw(2008), draw(2009));
        assert!(draw(7).iter().all(|v| *v < 1000));
        // Forked streams are independent of the parent's later draws.
        let parent = SplitMix64::new(5);
        assert_eq!(parent.fork(1).next_u64(), parent.fork(1).next_u64());
        assert_ne!(parent.fork(1).next_u64(), parent.fork(2).next_u64());
    }

    #[test]
    fn random_topology_has_the_paper_shape() {
        let topo = random_topology(&mut SplitMix64::new(11), 40, 3, 10);
        assert_eq!(topo.node_count(), 40);
        assert_eq!(topo.link_count(), 120);
        assert!(topo.is_strongly_connected());
        assert!(topo.links().iter().all(|l| (1..=10).contains(&l.cost)));
        assert!(topo.links().iter().all(|l| l.src != l.dst));
        assert_eq!(topo, random_topology(&mut SplitMix64::new(11), 40, 3, 10));
        assert_ne!(topo, random_topology(&mut SplitMix64::new(12), 40, 3, 10));
    }

    #[test]
    fn generational_stream_is_time_ordered_and_balanced() {
        let (locations, events) = generational_stream(&mut SplitMix64::new(3), 5, 8);
        assert_eq!(locations.len(), 40);
        assert_eq!(events.len(), 5 * 8 * 2 * 2);
        assert!(events.windows(2).all(|w| w[0].0 <= w[1].0));
        let ups = events
            .iter()
            .filter(|(_, e)| matches!(e, ChurnEvent::LinkUp { .. }))
            .count();
        assert_eq!(ups * 2, events.len());
        assert_eq!(events, generational_stream(&mut SplitMix64::new(3), 5, 8).1);
    }
}
