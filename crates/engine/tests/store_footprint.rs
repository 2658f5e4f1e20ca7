//! Footprint of the tuple store: what a converged Best-Path deployment holds
//! at quiescence, per stored row.
//!
//! A cleartext Best-Path run keeps no ledger, no provenance and no channel
//! state worth counting, so at its fixpoint the heap is the stored rows and
//! the store structure around them: slot lists, the dedup maps and the
//! secondary indexes the planner installs (`(S,D,C)` on `path` and
//! `bestPathCost` gets close to one index key per row).  A byte count of a
//! deterministic run repeats closely enough to gate on a noisy host where
//! resident-set size cannot.  This file holds a single test on purpose: the
//! tracking allocator is process-wide, so a sibling test running in
//! parallel would pollute the count.

use pasn_datalog::Value;
use pasn_engine::{DistributedEngine, EngineConfig, Tuple};
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

/// The Best-Path query of the paper's evaluation (Section 6).
const BEST_PATH: &str = "
    sp1 path(@S,D,P,C) :- link(@S,D,C), P := f_init(S,D).
    sp2 path(@S,D,P,C) :- link(@S,Z,C1), bestPath(@Z,D,P2,C2), f_member(P2,S) == false, C := C1 + C2, P := f_concat(S,P2).
    sp3 bestPathCost(@S,D,a_MIN<C>) :- path(@S,D,P,C).
    sp4 bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C).
";

/// Nodes of the deployment: a ring with uneven costs plus chords seven hops
/// ahead, both directions.
const NODES: u32 = 32;

/// Live heap bytes the quiescent deployment may hold per stored row: 15 %
/// above the 399 this engine measures, with each relation one slot list
/// of 64-byte slots and its dedup map and indexes chains threaded through
/// it.  The store that gave every index key its own key copy and seq
/// `Vec`, and kept an `Arc` of every row as its dedup key, held 564; with
/// 80-byte slots (a 32-byte provenance tag in each), 436.
const BYTES_PER_ROW: usize = 459;

#[test]
fn a_stored_row_costs_a_bounded_share_of_the_heap() {
    let program = pasn_datalog::parse_program(BEST_PATH).unwrap();
    let locations: Vec<Value> = (0..NODES).map(Value::Addr).collect();
    let before = LIVE.load(Ordering::Relaxed);
    let mut engine = DistributedEngine::new(&program, EngineConfig::ndlog(), &locations).unwrap();
    for i in 0..NODES {
        for (j, cost) in [
            ((i + 1) % NODES, 1 + i64::from(i % 3)),
            ((i + 7) % NODES, 5),
        ] {
            for (src, dst) in [(i, j), (j, i)] {
                let values = vec![Value::Addr(src), Value::Addr(dst), Value::Int(cost)];
                engine
                    .insert_fact(Value::Addr(src), Tuple::new("link", values))
                    .unwrap();
            }
        }
    }
    let metrics = engine.run_to_fixpoint().unwrap();
    let held = LIVE.load(Ordering::Relaxed) - before;

    let rows = metrics.tuples_stored as usize;
    assert!(
        rows > 10_000,
        "the run must be worth measuring: {rows} rows"
    );
    let per_row = held / rows;
    assert!(
        per_row <= BYTES_PER_ROW,
        "{held} B live for {rows} stored rows = {per_row} B per row, budget {BYTES_PER_ROW}"
    );
}
