//! Wave-parallel dispatch: sharding one same-instant wave across the worker
//! pool and merging the partitions' effect logs back deterministically.

use super::eval::{Effect, EvalShared, PartitionCtx};
use super::queue::WaveItem;
use super::{DistributedEngine, EngineError, NodeRuntime};
use crate::metrics::RunMetrics;
use pasn_net::SimTime;
use pasn_provenance::VarTable;
use pasn_trace::TraceEvent;
use std::thread;

/// One evaluated event's logs: queue seq, owning node id, effects, trace.
type EventLog = (u64, u32, Vec<Effect>, Vec<TraceEvent>);

/// What one partition hands back after draining its slice of a wave.
struct PartitionOutcome {
    events: Vec<EventLog>,
    metrics: RunMetrics,
    completion: SimTime,
    /// Simulated CPU executed by this partition's nodes during the wave
    /// (the wave charges only the maximum across partitions to the modeled
    /// wall, banking the rest as parallel savings).
    busy: SimTime,
    /// First evaluation error, tagged with its event seq; the merge
    /// surfaces the globally-lowest one.
    error: Option<(u64, EngineError)>,
}

/// A partition's slice of a wave: its events in seq order and exclusive
/// borrows of the runtimes that own them, sorted by node id.
struct PartitionSlice<'a> {
    events: Vec<WaveItem>,
    nodes: Vec<(u32, &'a mut NodeRuntime)>,
}

/// Drains one partition's slice of a wave on the calling thread: every
/// event runs through a [`PartitionCtx`] over its owning node, the
/// partition's metrics shard and a per-event effect log.  Stops at the
/// first error (matching the sequential loop, which would have aborted
/// there too).
fn run_partition(shared: &EvalShared, slice: PartitionSlice<'_>) -> PartitionOutcome {
    let PartitionSlice { events, mut nodes } = slice;
    let mut metrics = RunMetrics::default();
    let mut completion = SimTime::ZERO;
    // Scratch: parallel waves only run under provenance-free configs, so
    // the table is never consulted — the real table stays with the engine.
    let mut var_table = VarTable::new();
    let mut out = Vec::with_capacity(events.len());
    let cpu_spent = |nodes: &[(u32, &mut NodeRuntime)]| -> u64 {
        nodes.iter().map(|(_, n)| n.cpu_spent.as_micros()).sum()
    };
    let cpu_before = cpu_spent(&nodes);
    let mut error = None;
    for (at, seq, work) in events {
        let owner = work.owner();
        let slot = nodes
            .binary_search_by_key(&owner.0, |(id, _)| *id)
            .expect("the slice borrows every owner of its events");
        let mut effects = Vec::new();
        let mut trace = Vec::new();
        let result = PartitionCtx {
            shared,
            id: owner,
            node: &mut *nodes[slot].1,
            var_table: &mut var_table,
            metrics: &mut metrics,
            completion: &mut completion,
            effects: &mut effects,
            trace: &mut trace,
        }
        .run(at, work);
        out.push((seq, owner.0, effects, trace));
        if let Err(e) = result {
            error = Some((seq, e));
            break;
        }
    }
    PartitionOutcome {
        events: out,
        metrics,
        completion,
        busy: SimTime::from_micros(cpu_spent(&nodes) - cpu_before),
        error,
    }
}

impl DistributedEngine {
    /// Processes one wave on the worker pool: groups members by owning
    /// partition (`node_id % workers`), lends each partition disjoint
    /// `&mut` borrows of the runtimes its events are owned by, fans the
    /// groups out over scoped worker threads, then merges deterministically
    /// — metric shards fold in, and every event's effects
    /// replay in queue-seq order, the exact order the sequential loop would
    /// have applied them.
    pub(super) fn process_wave(&mut self, wave: Vec<WaveItem>) -> Result<(), EngineError> {
        let workers = self.shared.config.workers.max(1) as u32;
        let wave_at = wave[0].0;
        let wave_rank = wave[0].2.rank();

        // Carve the owners' runtimes out of the node vector: ascending
        // unique ids split the slice into disjoint `&mut` slots, each
        // handed to the partition that owns it for the duration of the
        // wave (stores, aggregate groups, channels, CPU lane, link
        // horizons).
        let mut owners: Vec<u32> = wave.iter().map(|(_, _, work)| work.owner().0).collect();
        owners.sort_unstable();
        owners.dedup();
        let mut slices: Vec<PartitionSlice<'_>> = (0..workers)
            .map(|_| PartitionSlice {
                events: Vec::new(),
                nodes: Vec::new(),
            })
            .collect();
        let mut rest: &mut [NodeRuntime] = &mut self.nodes;
        let mut base = 0usize;
        for id in owners {
            let (_, tail) = std::mem::take(&mut rest).split_at_mut(id as usize - base);
            let (node, tail) = tail
                .split_first_mut()
                .expect("wave owners are deployed nodes");
            slices[(id % workers) as usize].nodes.push((id, node));
            rest = tail;
            base = id as usize + 1;
        }
        for item in wave {
            slices[(item.2.owner().0 % workers) as usize]
                .events
                .push(item);
        }
        slices.retain(|slice| !slice.events.is_empty());
        let largest = slices.iter().map(|s| s.events.len()).max().unwrap_or(0) as u64;
        self.metrics.max_partition_queue = self.metrics.max_partition_queue.max(largest);

        let shared = &self.shared;
        // The first group runs on the coordinating thread while the rest
        // fan out (the merge below is order-insensitive: shards add or
        // max, effects sort by seq).
        let mut slices = slices.into_iter();
        let first = slices.next().expect("wave is non-empty");
        let outcomes: Vec<PartitionOutcome> = thread::scope(|scope| {
            let workers: Vec<_> = slices
                .map(|slice| scope.spawn(move || run_partition(shared, slice)))
                .collect();
            let mut outcomes = vec![run_partition(shared, first)];
            for worker in workers {
                outcomes.push(worker.join().expect("partition worker panicked"));
            }
            outcomes
        });

        let wave_total: u64 = outcomes.iter().map(|o| o.busy.as_micros()).sum();
        let wave_max = outcomes
            .iter()
            .map(|o| o.busy.as_micros())
            .max()
            .unwrap_or(0);
        let mut events: Vec<EventLog> = Vec::new();
        let mut first_error: Option<(u64, EngineError)> = None;
        for outcome in outcomes {
            self.metrics.absorb(&outcome.metrics);
            self.completion = self.completion.max(outcome.completion);
            events.extend(outcome.events);
            if let Some((seq, error)) = outcome.error {
                if first_error.as_ref().is_none_or(|(s, _)| seq < *s) {
                    first_error = Some((seq, error));
                }
            }
        }
        events.sort_unstable_by_key(|(seq, ..)| *seq);
        for (_, owner, effects, trace) in events {
            let feed = (wave_at.as_micros(), wave_rank, Some(owner));
            self.replay_event(Some(feed), effects, trace);
        }
        // Only the slowest partition gates the wave: everything the other
        // partitions executed concurrently comes off the modeled host wall.
        self.cpu_saved += SimTime::from_micros(wave_total - wave_max);
        first_error.map_or(Ok(()), |(_, error)| Err(error))
    }
}
