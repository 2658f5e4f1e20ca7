//! Allocation budget of the provenance read path: one
//! `forensics::investigate` on a converged 12-node deployment with
//! distributed provenance and offline archives may allocate what its report
//! owns, and little else.
//!
//! The traceback borrows its keys from the stores and finds its nodes
//! through the engine's name directory, so a query's allocations are the
//! strings the report returns — one per visited and per unresolved key,
//! three per archived entry (key, location, annotation) — plus a fixed
//! handful of containers.  A wall-clock assertion cannot run on a shared
//! host; the allocation count of a deterministic query can.  This file holds
//! a single test on purpose: the counting allocator is process-wide, so a
//! sibling test running in parallel would pollute the count.

use pasn::forensics;
use pasn::prelude::*;
use pasn::workload;
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

const NODES: u32 = 12;

/// Containers a query may allocate beyond the strings it returns: the
/// report's key, the walk's queue and `seen` set, the `visited` vector, the
/// base-tuple set's nodes and the growth steps of the `unresolved` and
/// `archived` vectors.
const FIXED: u64 = 16;

/// Runs `investigate` and returns its report with the allocations it made.
fn counted_investigate(
    net: &SecureNetwork,
    at: &Value,
    key: &str,
) -> (forensics::ForensicReport, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = forensics::investigate(net, at, key);
    (report, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn investigate_allocates_what_its_report_owns() {
    let mut config = EngineConfig::ndlog()
        .with_cost_model(CostModel::zero_cpu())
        .with_graph_mode(GraphMode::Distributed);
    config.archive_offline = true;
    let mut net = SecureNetwork::builder()
        .program(pasn::programs::reachability_ndlog())
        .topology(workload::evaluation_topology(NODES, 2008))
        .config(config)
        .build()
        .expect("program compiles");
    net.run().expect("fixpoint reached");

    let rows = net.query_all("reachable");
    assert!(rows.len() >= (NODES * (NODES - 1)) as usize, "all pairs");
    let (mut visited, mut archived) = (0, 0);
    for (at, tuple, _) in &rows {
        let key = tuple.render_located(Some(0));
        let (report, allocations) = counted_investigate(&net, at, &key);
        assert!(report.has_origin() && report.traceback.unresolved.is_empty());
        let owned = report.traceback.visited.len() as u64
            + report.traceback.unresolved.len() as u64
            + 3 * report.archived.len() as u64;
        assert!(
            allocations <= owned + FIXED,
            "{key}: {allocations} allocations for {} visited, {} archived (budget {})",
            report.traceback.visited.len(),
            report.archived.len(),
            owned + FIXED
        );
        visited += report.traceback.visited.len();
        archived += report.archived.len();
    }
    // The queries must be worth counting: tens of keys walked and several
    // archived derivations each, on average.
    assert!(visited >= 20 * rows.len(), "{visited} visited");
    assert!(archived >= 2 * rows.len(), "{archived} archived");

    // Nothing per deployed node: a query that walks one key allocates fewer
    // times than there are nodes, so no by-name store map (one key string
    // per node and the table) was built for it.
    let (report, allocations) = counted_investigate(&net, &Value::Addr(0), "bogus(@n0)");
    assert_eq!(report.traceback.unresolved, ["bogus(@n0)"]);
    assert!(
        allocations < u64::from(NODES),
        "{allocations} allocations for a one-key query"
    );
}
