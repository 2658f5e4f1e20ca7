//! Retained heap of a generational stream: what a deployment still holds
//! once its generations have died, and the most it ever held, must follow
//! live state — not the number of derivations ever made.
//!
//! The store gauges already pin this for rows (`peak_store_bytes`); the
//! process pays for everything else — the deletion ledgers' firing logs,
//! capacity parked in emptied tables, maps and expiry heaps, transport
//! bookkeeping.  A byte count of a deterministic run repeats closely enough
//! to gate on a noisy host where resident-set size cannot.  This file holds a
//! single test on purpose: the tracking allocator is process-wide, so a
//! sibling test running in parallel would pollute the count.

use pasn_datalog::Value;
use pasn_engine::{ChurnEvent, DistributedEngine, EngineConfig};
use pasn_net::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, tracking the bytes currently live and their peak.
struct Tracking;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are a side effect only.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
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
        grew(new_size);
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

/// Nodes per generation: a directed ring plus one chord per node.
const CLUSTER: u32 = 20;
/// Simulated time between two generations.
const GAP_US: u64 = 200_000;
/// Lifetime of a generation's links and derived soft state: 2.5 gaps, so
/// about three generations are live at any instant however long the run.
const TTL_US: u64 = 500_000;

/// Bytes each further generation may leave behind once dead — the slope of
/// the retained heap between the 8- and the 32-generation run, so whatever
/// does not grow with the run (the work queue's high-water capacity) cancels.
/// A fifth above the 87 kB this engine measures: the `retracted` history
/// behind the `rederivations` counter and each node's smallest buffers (a
/// dead generation's ledger arenas go back whole).  An append-only firing
/// log, capacity parked in emptied containers and a never-drained transport
/// queue left 630 kB.
const RETAINED_PER_GENERATION: usize = 105_000;

/// How far the 32-generation peak may exceed the 8-generation one: the same
/// three generations are live at both sizes, so only the retained history
/// grows.  Measured x1.77 (2.76 -> 4.89 MB); the ledger with a `Vec` per
/// firing and per index key peaked 0.4 MB higher at both sizes (x1.68), and
/// the append-only log grew x3.4, linearly.
const PEAK_GROWTH: f64 = 2.1;

/// Runs `generations` generations to quiescence; returns the bytes still
/// live after the run and the run's peak, both beyond what the deployment
/// (and the event script, which outlives the run) held before it.
fn stream(generations: u32) -> (usize, usize) {
    let program = pasn_datalog::parse_program(REACHABILITY).unwrap();
    let locations: Vec<Value> = (0..generations * CLUSTER).map(Value::Addr).collect();
    let mut events = Vec::new();
    for g in 0..generations {
        let up_at = SimTime::from_micros(u64::from(g) * GAP_US);
        let down_at = SimTime::from_micros(up_at.as_micros() + TTL_US);
        let (base, chord) = (g * CLUSTER, 2 + (g * 7) % (CLUSTER - 2));
        for j in 0..CLUSTER {
            for offset in [1, chord] {
                let src = Value::Addr(base + j);
                let dst = Value::Addr(base + (j + offset) % CLUSTER);
                let up = ChurnEvent::LinkUp {
                    src: src.clone(),
                    dst: dst.clone(),
                    cost: None,
                };
                events.push((up_at, up));
                events.push((down_at, ChurnEvent::LinkDown { src, dst }));
            }
        }
    }
    // Stable: same-instant events keep their per-generation order.
    events.sort_by_key(|(at, _)| *at);
    let config = EngineConfig::ndlog()
        .with_batching()
        .with_dynamics()
        .with_default_ttl_us(TTL_US);
    let mut engine = DistributedEngine::new(&program, config, &locations).unwrap();

    let deployed = LIVE.load(Ordering::Relaxed);
    PEAK.store(deployed, Ordering::Relaxed);
    let metrics = engine.run_streaming(events.iter().cloned()).unwrap();
    let retained = LIVE.load(Ordering::Relaxed).saturating_sub(deployed);
    let peak = PEAK.load(Ordering::Relaxed) - deployed;

    assert_eq!(metrics.tuples_stored, 0, "every generation must have died");
    assert!(
        metrics.derivations > u64::from(generations) * 500,
        "the run must be worth measuring"
    );
    engine.check_ledger_consistency().unwrap();
    (retained, peak)
}

#[test]
fn a_dead_generation_gives_its_memory_back() {
    let [(retained_8, peak_8), (retained_32, peak_32)] = [8, 32].map(stream);
    let per_generation = retained_32.saturating_sub(retained_8) / 24;
    assert!(
        per_generation <= RETAINED_PER_GENERATION,
        "{retained_8} B still live after 8 generations, {retained_32} B after 32 = \
         {per_generation} B per generation, budget {RETAINED_PER_GENERATION}"
    );
    let growth = peak_32 as f64 / peak_8 as f64;
    assert!(
        growth <= PEAK_GROWTH,
        "peak live heap grew x{growth:.2} from 8 generations ({peak_8} B) to 32 ({peak_32} B), \
         budget x{PEAK_GROWTH}"
    );
}
