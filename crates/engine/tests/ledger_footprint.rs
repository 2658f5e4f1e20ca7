//! Footprint of the deletion ledger: what a lossy deployment holds at
//! quiescence, per firing its ledgers recorded.
//!
//! A fault plan arms the ledger, and on a lossy reachability run nothing
//! dies, so every firing is alive at the fixpoint: its record, its antecedent
//! occurrences and its index links are all on the heap together with the
//! rows and supports they describe.  That is the largest thing a dynamic
//! deployment holds, and a byte count of a deterministic run repeats closely
//! enough to gate on a noisy host where resident-set size cannot.  This file
//! holds a single test on purpose: the tracking allocator is process-wide,
//! so a sibling test running in parallel would pollute the count.

use pasn_datalog::Value;
use pasn_engine::{DistributedEngine, EngineConfig, Tuple};
use pasn_net::FaultPlan;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, tracking the bytes currently live.
struct Tracking;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`; `new_size` is
        // the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

const REACHABILITY: &str = "
    r1 reachable(@S,D) :- link(@S,D).
    r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).
";

/// Nodes of the deployment: a directed ring plus two chords per node.
const NODES: u32 = 48;

/// Live heap bytes the quiescent deployment may hold per recorded firing:
/// 15 % above the 445 this engine measures, with each ledger one firing
/// arena plus one antecedent-occurrence arena and its indexes chains
/// through them, and a 16-byte provenance tag in every firing and
/// contribution.  The ledger that gave every firing its own antecedent
/// `Vec` and every index key its own id `Vec` held 803; with 32-byte tags
/// and link buffers kept after they drained, 627.
const BYTES_PER_FIRING: usize = 512;

#[test]
fn a_recorded_firing_costs_a_bounded_share_of_the_heap() {
    let program = pasn_datalog::parse_program(REACHABILITY).unwrap();
    let locations: Vec<Value> = (0..NODES).map(Value::Addr).collect();
    let config = EngineConfig::ndlog()
        .with_batching()
        .with_fault_plan(FaultPlan::new(2008));
    let before = LIVE.load(Ordering::Relaxed);
    let mut engine = DistributedEngine::new(&program, config, &locations).unwrap();
    for i in 0..NODES {
        for offset in [1, 5, 11] {
            let (src, dst) = (Value::Addr(i), Value::Addr((i + offset) % NODES));
            let link = Tuple::new("link", vec![src.clone(), dst]);
            engine.insert_fact(src, link).unwrap();
        }
    }
    let metrics = engine.run_to_fixpoint().unwrap();
    let held = LIVE.load(Ordering::Relaxed) - before;

    // Every pair is reachable; each link is stored at both of its ends (r2
    // is localized, so a copy joins at `Z`).
    assert_eq!(
        metrics.tuples_stored,
        u64::from(NODES * NODES + 2 * 3 * NODES)
    );
    assert!(metrics.frames_dropped > 0, "the plan must lose frames");
    let firings = metrics.peak_ledger_firings as usize;
    assert!(firings > 5_000, "the run must be worth measuring");
    engine.check_ledger_consistency().unwrap();
    let per_firing = held / firings;
    assert!(
        per_firing <= BYTES_PER_FIRING,
        "{held} B live for {firings} recorded firings = {per_firing} B per firing, \
         budget {BYTES_PER_FIRING}"
    );
}
