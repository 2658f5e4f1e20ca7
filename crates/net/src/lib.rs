//! # pasn-net
//!
//! Deterministic network substrate for the *Provenance-aware Secure
//! Networks* reproduction (Zhou, Cronin, Loo — ICDE 2008).
//!
//! The paper evaluates its prototype by running up to 100 P2 processes on a
//! single machine and measuring query completion time and total bandwidth.
//! This crate provides the equivalent substrate for an in-process
//! reproduction:
//!
//! * [`topology`] — topology generators, including the random
//!   average-out-degree-3 graphs of the evaluation and the three-node example
//!   of Figure 1;
//! * [`sim`] — a discrete-event transport with a simulated clock, a
//!   per-operation [`sim::CostModel`], per-node CPU serialisation and global
//!   traffic statistics (the sources of Figures 3 and 4);
//! * [`wire`] — shared wire-format accounting so every crate charges
//!   identical byte counts;
//! * [`fault`] — deterministic, seeded fault plans (frame loss, duplication,
//!   extra delay, crash-without-drain link cuts and node crashes) consumed
//!   by the engine's reliability layer.
//!
//! ```
//! use pasn_net::{NodeId, topology::Topology, sim::{NetworkSim, CostModel, Message, SimTime}};
//!
//! let topo = Topology::random_out_degree(10, 3, 10, 42);
//! assert!(topo.is_strongly_connected());
//!
//! let mut net: NetworkSim<Vec<u8>> = NetworkSim::new(CostModel::paper_2008());
//! net.send(SimTime::ZERO, Message {
//!     src: NodeId(0), dst: NodeId(1), payload: vec![1, 2, 3],
//!     wire_bytes: pasn_net::wire::message_wire_bytes(3),
//! });
//! let (at, msg) = net.deliver_next().unwrap();
//! assert_eq!(msg.dst, NodeId(1));
//! assert!(at > SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod fault;
pub mod sim;
pub mod topology;
pub mod wire;

pub use fault::{FaultEvent, FaultPlan};
pub use sim::{CostModel, Message, NetworkSim, SimTime, TrafficStats};
pub use topology::{Link, Topology};

/// Identifier of a simulated network node.
///
/// Nodes double as security principals: `NodeId(i)` corresponds to
/// `PrincipalId(i)` in `pasn-crypto`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_conversion() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(NodeId::from(3u32), NodeId(3));
        assert!(NodeId(1) < NodeId(2));
    }
}
