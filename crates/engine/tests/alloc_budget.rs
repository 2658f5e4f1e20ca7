//! Allocation budget of the per-tuple path: a fixed 12-node cleartext
//! Best-Path run to its fixpoint may allocate only so often per derivation.
//!
//! Host time on the evaluation path is dominated by what one derivation
//! allocates and hashes, and a wall-clock assertion cannot run on a shared
//! host; the allocation count of a deterministic run can — it repeats
//! exactly.  This file holds a single test on purpose: the counting
//! allocator is process-wide, so a sibling test running in parallel would
//! pollute the count.

use pasn_datalog::Value;
use pasn_engine::{DistributedEngine, EngineConfig, Tuple};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`; `new_size` is
        // the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The Best-Path query of the paper's evaluation (Section 6).
const BEST_PATH: &str = "
    sp1 path(@S,D,P,C) :- link(@S,D,C), P := f_init(S,D).
    sp2 path(@S,D,P,C) :- link(@S,Z,C1), bestPath(@Z,D,P2,C2), f_member(P2,S) == false, C := C1 + C2, P := f_concat(S,P2).
    sp3 bestPathCost(@S,D,a_MIN<C>) :- path(@S,D,P,C).
    sp4 bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C).
";

const NODES: u32 = 12;

/// Allocations per derivation the run may spend: a quarter above the 12.8
/// this path measures (13.6 while every event allocated its own effect log;
/// 21.4 on the `Vec`/`String`-cell, SipHash path before that).
const BUDGET: f64 = 16.0;

#[test]
fn best_path_stays_within_its_allocation_budget() {
    let program = pasn_datalog::parse_program(BEST_PATH).unwrap();
    let locations: Vec<Value> = (0..NODES).map(Value::Addr).collect();
    let mut engine = DistributedEngine::new(&program, EngineConfig::ndlog(), &locations).unwrap();
    // A ring with uneven costs plus chords five hops ahead, both directions.
    for i in 0..NODES {
        for (j, cost) in [
            ((i + 1) % NODES, 1 + i64::from(i % 3)),
            ((i + 5) % NODES, 4),
        ] {
            for (src, dst) in [(i, j), (j, i)] {
                let values = vec![Value::Addr(src), Value::Addr(dst), Value::Int(cost)];
                engine
                    .insert_fact(Value::Addr(src), Tuple::new("link", values))
                    .unwrap();
            }
        }
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let metrics = engine.run_to_fixpoint().unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let mut pairs: Vec<Vec<Value>> = engine
        .query_all("bestPathCost")
        .into_iter()
        .map(|(_, tuple, _)| tuple.values[..2].to_vec())
        .collect();
    pairs.sort();
    pairs.dedup();
    assert_eq!(
        pairs.len(),
        (NODES * (NODES - 1)) as usize,
        "all pairs route"
    );
    assert!(
        metrics.derivations > 1_000,
        "the run must be worth counting"
    );
    let per_derivation = allocations as f64 / metrics.derivations as f64;
    assert!(
        per_derivation <= BUDGET,
        "{allocations} allocations over {} derivations = {per_derivation:.2} per derivation, \
         budget {BUDGET}",
        metrics.derivations
    );
}
