//! Allocation budgets of the two read paths.
//!
//! The provenance read: one `forensics::investigate` on a converged 12-node
//! deployment with distributed provenance and offline archives may allocate
//! what its report owns, and little else.  The traceback borrows its keys
//! from the stores and finds its nodes through the engine's name directory,
//! so a query's allocations are the strings the report returns — one per
//! visited and per unresolved key, three per archived entry (key, location,
//! annotation) — plus a fixed handful of containers.
//!
//! The relation read: a `query` hands out tuples that share the stored rows
//! and the interned predicate name, into a `Vec` sized from the relation's
//! live row count, so it allocates exactly once however many rows it
//! returns, and an empty answer not at all.  (Copying a `String` and a
//! `Vec<Value>` per row made ≈126 allocations for the ≈60 rows of one
//! `bestPathCost` read on the 40-node deployment below.)
//!
//! A wall-clock assertion cannot run on a shared host; the allocation count
//! of a deterministic query can.  This file holds a single test on purpose:
//! the counting allocator is process-wide, so a sibling test running in
//! parallel would pollute the count.

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

/// Runs `read` and returns its result with the allocations it made.
fn counted<T>(read: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = read();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Runs `investigate` and returns its report with the allocations it made.
fn counted_investigate(
    net: &SecureNetwork,
    at: &Value,
    key: &str,
) -> (forensics::ForensicReport, u64) {
    counted(|| forensics::investigate(net, at, key))
}

/// A converged 40-node Best-Path deployment: `query` allocates its result
/// `Vec` once when there are rows and never when there are none, and
/// `query_all` fills one `Vec`.
fn relation_reads_allocate_once_per_query() {
    let probe = |at: u32| Tuple::new("probe", vec![Value::Addr(at)]);
    let mut net = SecureNetwork::builder()
        .program(pasn::programs::best_path())
        .topology(workload::evaluation_topology(40, 2008))
        .config(EngineConfig::ndlog().with_cost_model(CostModel::zero_cpu()))
        // A relation only n0 holds rows of: every other node's is empty.
        .fact(Value::Addr(0), probe(0))
        .build()
        .expect("program compiles");
    net.engine_mut()
        .run_to_fixpoint()
        .expect("fixpoint reached");

    let locations = net.engine().locations().to_vec();
    let mut rows = 0;
    for at in &locations {
        for predicate in ["bestPathCost", "path", "link"] {
            let (tuples, allocations) = counted(|| net.engine().query(at, predicate));
            assert!(!tuples.is_empty(), "{predicate} at {at} holds rows");
            assert_eq!(
                allocations,
                1,
                "{predicate} at {at}: {allocations} allocations for {} rows",
                tuples.len()
            );
            rows += tuples.len();
        }
        let (tuples, allocations) = counted(|| net.engine().query(at, "probe"));
        assert_eq!(tuples.len(), usize::from(*at == Value::Addr(0)));
        assert_eq!(allocations, u64::from(!tuples.is_empty()), "probe at {at}");
        let (tuples, allocations) = counted(|| net.engine().query(at, "bogus"));
        assert!(tuples.is_empty());
        assert_eq!(allocations, 0, "an unknown predicate at {at}");
    }
    // The reads must be worth counting: dozens of rows per query.
    assert!(rows >= 30 * 3 * locations.len(), "{rows} rows");
    let (tuples, allocations) = counted(|| net.engine().query(&Value::Addr(999), "bestPathCost"));
    assert!(tuples.is_empty());
    assert_eq!(allocations, 0, "an unknown location");

    let (tuples, allocations) = counted(|| net.engine().query_all("bestPathCost"));
    assert!(
        tuples.len() >= locations.len() * 39,
        "{} rows",
        tuples.len()
    );
    assert!(allocations <= 1, "query_all: {allocations} allocations");
    let (tuples, allocations) = counted(|| net.engine().query_all("bogus"));
    assert!(tuples.is_empty());
    assert_eq!(allocations, 0, "query_all of an unknown predicate");
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
    net.engine_mut()
        .run_to_fixpoint()
        .expect("fixpoint reached");

    let rows = net.engine().query_all("reachable");
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

    relation_reads_allocate_once_per_query();
}
