//! The simulated-time work queue: what the engine schedules, the order it
//! pops in, the open batches same-window tuples append to, and
//! [`WorkQueue::pop_wave`], which hands the engine's one evaluation loop a
//! whole same-instant wave at a time.

use super::Link;
use crate::dynamics::ChurnEvent;
use crate::hash::FastMap;
use pasn_crypto::channel::ChannelHandshake;
use pasn_crypto::says::SaysAssertion;
use pasn_datalog::{PredId, Value};
use pasn_net::{NodeId, SimTime};
use pasn_provenance::{DistributedStore, ProvTag};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

/// One tuple riding in a delta batch or a pending shipment frame.  The row
/// is an `Arc`-shared slice; frame-level facts (destination, predicate,
/// signature) live on the containing [`DeltaBatch`] / [`ShipFrame`].
pub(super) struct BatchRow {
    pub values: Arc<[Value]>,
    pub tag: ProvTag,
    /// The node that derived / asserted the row; its principal
    /// (`principal_of(origin)`) is the asserting principal.
    pub origin: NodeId,
    /// `GraphMode::Local` only: the sender's records reachable from the
    /// row's key, piggybacked for the receiver to merge.
    pub bundle: Option<Box<DistributedStore>>,
    pub is_base: bool,
    pub location_index: Option<usize>,
}

// Every effect and frame carries rows: a provenance bundle is boxed so a row
// that ships none stays small.
const _: () = assert!(std::mem::size_of::<BatchRow>() <= 64);

impl BatchRow {
    /// A base assertion; its tag is minted when the batch is processed.
    pub(super) fn base(
        values: Arc<[Value]>,
        origin: NodeId,
        location_index: Option<usize>,
    ) -> Self {
        BatchRow {
            is_base: true,
            ..Self::derived(values, ProvTag::None, origin, location_index)
        }
    }

    /// A row derived at node `origin` (or the withdrawal of one), asserted
    /// by that node's principal.
    pub(super) fn derived(
        values: Arc<[Value]>,
        tag: ProvTag,
        origin: NodeId,
        location_index: Option<usize>,
    ) -> Self {
        BatchRow {
            values,
            tag,
            origin,
            bundle: None,
            is_base: false,
            location_index,
        }
    }
}

/// Whether a batch/frame asserts its rows or withdraws them.  Retraction
/// batches are processed through the deletion ledger instead of the
/// insert-and-fire path, and retraction frames are signed over
/// polarity-marked payloads so a data frame can never be replayed as a
/// deletion (see `pasn_crypto::says::tombstone_payloads`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(super) enum Polarity {
    Assert,
    Retract,
}

/// Where a delta batch comes from.
pub(super) enum Origin {
    /// Base insertions and same-node derivations.
    Local,
    /// A shipment frame delivered from node `from`, under the frame
    /// signature covering every row — produced once per shipped frame over
    /// the canonical concatenated payload (authenticated runs only; boxed,
    /// so every queued item does not carry a proof's worth of bytes).
    Remote {
        from: NodeId,
        assertion: Option<Box<SaysAssertion>>,
    },
}

/// A unit of work at a destination node: a batch of delta tuples of one
/// predicate (base insertions, local derivations, or a delivered shipment
/// frame).  With `batch_window = 0` every batch holds exactly one tuple,
/// reproducing per-tuple evaluation bit for bit.
pub(super) struct DeltaBatch {
    pub destination: NodeId,
    pub pred: PredId,
    pub rows: Vec<BatchRow>,
    pub origin: Origin,
    pub polarity: Polarity,
}

/// A pending shipment frame accumulating head tuples at the sender until
/// its flush time: one `(source, destination, predicate, due, polarity)`
/// frame is deduplicated (assertions only), signed once and charged one
/// message header when sealed.
pub(super) struct ShipFrame {
    pub src: NodeId,
    pub dst: NodeId,
    pub pred: PredId,
    pub rows: Vec<BatchRow>,
    pub polarity: Polarity,
}

/// Work that evaluates at one node, inside that node's `NodeCtx`.
pub(super) enum NodeWork {
    /// Deliver a delta batch to its destination node.
    Deliver(DeltaBatch),
    /// Seal a pending shipment frame at the sender: dedup, sign once, ship.
    Ship(ShipFrame),
    /// Deliver session-channel key-establishment handshakes to their
    /// receiver, who verifies each RSA-signed transcript and installs the
    /// channel (`SaysLevel::Session` only), charging one contiguous CPU
    /// window of `k × rsa_verify_us` on its lane.  Queued one handshake at
    /// a time; [`WorkQueue::pop_wave`] merges a wave's same-receiver items.
    Handshakes {
        destination: NodeId,
        handshakes: Vec<ChannelHandshake>,
    },
}

/// Work that runs on the engine: it walks several nodes, reschedules queue
/// work or drives the unreliable transport, and never joins a wave.
pub(super) enum GlobalWork {
    /// Apply one scripted network-dynamics event (dynamics runs only).
    Churn(ChurnEvent),
    /// Graceful session-channel teardown for a churned link: executes once
    /// the link's in-flight frames have drained (re-scheduling itself while
    /// the delivery horizon keeps advancing), and only if the channel still
    /// carries the epoch captured at teardown time — a link that already
    /// rebound keeps its fresh channel.
    Evict {
        link: Link,
        /// The sender half's and the receiver half's epoch at teardown.
        epochs: (Option<u32>, Option<u32>),
    },
    /// Sweep a node's store for rows whose TTL has passed and cascade the
    /// deletions through the ledger (dynamics runs only; scheduled at each
    /// distinct expiry instant).
    Expire { node: NodeId },
    /// One sequenced frame reaching the far end of a faulty link
    /// (fault-plan runs only): resolves to the buffered in-flight payload,
    /// deduplicates replays, and releases the link's in-order prefix
    /// through normal evaluation.
    FrameArrival {
        link: Link,
        /// Per-link frame sequence number.
        seq: u64,
    },
    /// Retransmission timer for one unacknowledged frame on a faulty link:
    /// re-rolls the fault plan with an incremented attempt and exponential
    /// backoff until the frame lands or the retry budget is exhausted.
    Retransmit {
        link: Link,
        /// Per-link frame sequence number.
        seq: u64,
    },
    /// A delayed, coalesced cumulative acknowledgement for a link,
    /// travelling against it: prunes every in-flight frame below the
    /// receiver's in-order cursor and charges the ack's wire bytes.
    AckFrame { link: Link },
}

/// What the simulated-time work queue holds, split by who evaluates it.
pub(super) enum QueuedWork {
    Node(NodeWork),
    Global(GlobalWork),
}

// The queue slab and the transport's in-flight buffers hold these by value.
const _: () = assert!(std::mem::size_of::<QueuedWork>() <= 64);

impl NodeWork {
    /// Same-instant ordering rank: retraction work runs after assertion
    /// work so a tombstone is never applied before the assertion it
    /// withdraws (see [`WorkQueue`]).
    pub(super) fn rank(&self) -> u8 {
        u8::from(!self.wave_safe())
    }

    /// Whether the item may join a wave: assertion deliveries, assertion
    /// frame sealings and handshakes each touch exactly one node's runtime.
    /// A retraction's effects must surface in strict sequential order, like
    /// engine-global work's.
    pub(super) fn wave_safe(&self) -> bool {
        match self {
            NodeWork::Deliver(batch) => batch.polarity == Polarity::Assert,
            NodeWork::Ship(frame) => frame.polarity == Polarity::Assert,
            NodeWork::Handshakes { .. } => true,
        }
    }

    /// The node whose runtime evaluates the item: deliveries and handshakes
    /// run at their destination, frame sealing at the sender (signing/MAC
    /// cost lands on the sender's CPU lane).
    pub(super) fn owner(&self) -> NodeId {
        match self {
            NodeWork::Deliver(batch) => batch.destination,
            NodeWork::Ship(frame) => frame.src,
            NodeWork::Handshakes { destination, .. } => *destination,
        }
    }
}

impl QueuedWork {
    /// Same-instant ordering rank (see [`NodeWork::rank`]); channel
    /// evictions run last of all so a frame delivered at exactly the
    /// teardown horizon is still verified against the channel it was MAC'd
    /// under.
    fn rank(&self) -> u8 {
        match self {
            QueuedWork::Node(work) => work.rank(),
            QueuedWork::Global(GlobalWork::Evict { .. }) => 2,
            QueuedWork::Global(_) => 0,
        }
    }

    /// The rows an open delta batch or shipment frame appends to; no other
    /// work holds any.
    fn rows_mut(&mut self) -> Option<&mut Vec<BatchRow>> {
        match self {
            QueuedWork::Node(NodeWork::Deliver(batch)) => Some(&mut batch.rows),
            QueuedWork::Node(NodeWork::Ship(frame)) => Some(&mut frame.rows),
            QueuedWork::Node(NodeWork::Handshakes { .. }) | QueuedWork::Global(_) => None,
        }
    }
}

/// Identity of an open (still appendable) batch *within one flush
/// boundary*: local delta batches are keyed by `(node, predicate,
/// polarity)`, shipment frames additionally by their source.  The flush
/// boundary itself is the bucket key of the queue's open-batch map, so
/// sealed history never lingers — a whole boundary's key map is dropped
/// (and pooled) the moment the clock reaches it.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(super) enum BatchKey {
    Local {
        destination: NodeId,
        pred: PredId,
        polarity: Polarity,
    },
    Ship {
        src: NodeId,
        dst: NodeId,
        pred: PredId,
        polarity: Polarity,
    },
}

impl BatchKey {
    /// The work item a fresh batch under this key starts as.
    fn open(self, rows: Vec<BatchRow>) -> NodeWork {
        match self {
            BatchKey::Local {
                destination,
                pred,
                polarity,
            } => NodeWork::Deliver(DeltaBatch {
                destination,
                pred,
                rows,
                origin: Origin::Local,
                polarity,
            }),
            BatchKey::Ship {
                src,
                dst,
                pred,
                polarity,
            } => NodeWork::Ship(ShipFrame {
                src,
                dst,
                pred,
                rows,
                polarity,
            }),
        }
    }
}

/// One member of a popped wave: its due time, queue seq and payload.
pub(super) type WaveItem = (SimTime, u64, NodeWork);

/// The streaming driver's exclusive cut `(event time, pre-run seq
/// horizon)`: exactly where a scripted event's own queue item would sort.
pub(super) type Bound = Option<(SimTime, u64)>;

/// Work ordered by `(time, polarity rank, seq)`: at one instant,
/// retraction batches/frames run after every assertion.  Together with
/// per-link in-order delivery this makes "a tombstone never precedes the
/// assertion it withdraws" a hard invariant, so a tombstone whose row is
/// absent always means the row was force-killed already (expiry, node
/// failure, sweep) and is safely dropped.
pub(super) struct WorkQueue {
    /// `(due, rank, seq, slot)`: the order is decided by the first three —
    /// seqs are unique — and `slot` says where in `items` the payload waits.
    heap: BinaryHeap<Reverse<(SimTime, u8, u64, usize)>>,
    /// Queued payloads in a slab: a popped item's slot is reused by a later
    /// push, so the slab stays as long as the queue was ever deep.
    items: Vec<Option<QueuedWork>>,
    /// Vacant slots of `items`.
    free: Vec<usize>,
    /// Open (still appendable) batches, bucketed by flush boundary:
    /// `due µs → batch key → slot of the queued batch`.  Only populated while
    /// `window_us > 0`.  The flush boundary is strictly in the future, so
    /// no tuple can ever append to a boundary the clock has reached —
    /// which makes the whole bucket droppable the moment work at `due`
    /// pops, keeping steady-state memory O(open boundaries × open keys)
    /// instead of O(batch history).
    open_batches: BTreeMap<u64, FastMap<BatchKey, usize>>,
    /// Key maps recycled from flushed boundaries, so sustained batching
    /// reuses a few allocations instead of growing fresh tables per window.
    batch_map_pool: Vec<FastMap<BatchKey, usize>>,
    next_seq: u64,
    /// `EngineConfig::batch_window_us`.
    window_us: u64,
    /// `EngineConfig::max_batch_tuples`, clamped to at least one.
    max_batch_tuples: usize,
}

impl WorkQueue {
    pub(super) fn new(window_us: u64, max_batch_tuples: usize) -> Self {
        WorkQueue {
            heap: BinaryHeap::new(),
            items: Vec::new(),
            free: Vec::new(),
            open_batches: BTreeMap::new(),
            batch_map_pool: Vec::new(),
            next_seq: 0,
            window_us,
            max_batch_tuples: max_batch_tuples.max(1),
        }
    }

    /// Schedules node-evaluated `work` at `at`; returns the slot holding it.
    pub(super) fn push_node(&mut self, at: SimTime, work: NodeWork) -> usize {
        self.push(at, QueuedWork::Node(work))
    }

    /// Schedules engine-global `work` at `at`.
    pub(super) fn push_global(&mut self, at: SimTime, work: GlobalWork) {
        self.push(at, QueuedWork::Global(work));
    }

    fn push(&mut self, at: SimTime, work: QueuedWork) -> usize {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.free.pop().unwrap_or(self.items.len());
        self.heap.push(Reverse((at, work.rank(), seq, slot)));
        if slot == self.items.len() {
            self.items.push(Some(work));
        } else {
            self.items[slot] = Some(work);
        }
        slot
    }

    /// Takes the payload out of `slot`, freeing it for reuse.
    fn take(&mut self, slot: usize) -> QueuedWork {
        self.free.push(slot);
        self.items[slot].take().expect("queued item exists")
    }

    /// The seq the next pushed item will get.
    pub(super) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    pub(super) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Queued items (the trace gauge's queue depth).
    pub(super) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Due time of the queue head.
    pub(super) fn head_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse((at, ..))| at)
    }

    /// Routes one row to the batch `key` names.  With batching off a local
    /// delta is queued at `at` as its own one-row batch, and a shipment row
    /// comes straight back as a one-row frame for the caller to seal now.
    /// Otherwise the row appends to the window's open batch under `key`,
    /// opening (and scheduling at the window's flush boundary — the first
    /// boundary strictly after `at`) a new one if absent.  A batch that
    /// reaches `max_batch_tuples` — whether on creation or on append — is
    /// sealed: it leaves the open-batch map, and later tuples of the same
    /// window start a fresh batch flushed at the same boundary (after the
    /// full one, by queue seq).
    pub(super) fn enqueue(
        &mut self,
        at: SimTime,
        key: BatchKey,
        row: BatchRow,
    ) -> Option<ShipFrame> {
        if self.window_us == 0 {
            return match key.open(vec![row]) {
                NodeWork::Ship(frame) => Some(frame),
                work => {
                    self.push_node(at, work);
                    None
                }
            };
        }
        let due = (at.as_micros() / self.window_us + 1) * self.window_us;
        let mut bucket = self.open_batches.get_mut(&due);
        let slot = bucket.as_mut().and_then(|b| b.get(&key).copied());
        let open = slot.and_then(|slot| self.items[slot].as_mut()?.rows_mut());
        if let (Some(rows), Some(bucket)) = (open, bucket) {
            rows.push(row);
            if rows.len() >= self.max_batch_tuples {
                bucket.remove(&key);
            }
        } else {
            let slot = self.push_node(SimTime::from_micros(due), key.open(vec![row]));
            // A cap of 1 is already met on creation: never left open, so
            // no batch ever exceeds the cap.
            if self.max_batch_tuples > 1 {
                let pool = &mut self.batch_map_pool;
                self.open_batches
                    .entry(due)
                    .or_insert_with(|| pool.pop().unwrap_or_default())
                    .insert(key, slot);
            }
        }
        None
    }

    /// Drops every open-batch bucket whose flush boundary the clock has
    /// reached: their queue items are popping (or have popped), and no
    /// future tuple can append to them.  Emptied key maps are recycled
    /// through a small pool.
    pub(super) fn release_flushed(&mut self, now: SimTime) {
        let now_us = now.as_micros();
        while let Some(boundary) = self.open_batches.first_entry() {
            if *boundary.key() > now_us {
                break;
            }
            let mut bucket = boundary.remove();
            bucket.clear();
            if self.batch_map_pool.len() < 8 {
                self.batch_map_pool.push(bucket);
            }
        }
    }

    /// True when a queue triple sorts strictly below the streaming cut.
    fn within(at: SimTime, rank: u8, seq: u64, bound: Bound) -> bool {
        bound.is_none_or(|(cut_at, cut_seq)| (at, rank, seq) < (cut_at, 0, cut_seq))
    }

    /// Pops the queue head if it sorts below `bound`.
    pub(super) fn pop_next(&mut self, bound: Bound) -> Option<(SimTime, QueuedWork)> {
        let &Reverse((at, rank, seq, slot)) = self.heap.peek()?;
        if !Self::within(at, rank, seq, bound) {
            return None;
        }
        self.heap.pop();
        Some((at, self.take(slot)))
    }

    /// Pops the maximal prefix of same-instant, same-rank wave-safe work
    /// (see [`NodeWork::wave_safe`]) in seq order, with every handshake
    /// delivery in it coalesced per receiver.  Returns `None` when the
    /// queue is empty, bounded out, or its head is a retraction or
    /// engine-global work, which [`WorkQueue::pop_next`] hands out one item
    /// at a time.
    /// Everything inside a wave is due at one simulated instant, and
    /// per-link delivery horizons guarantee nothing queued later can be due
    /// earlier.  `drain_queue` is the one consumer: it evaluates the wave
    /// in seq order, and a wave is also the unit the modeled pool's
    /// accounting (and the trace's wave spans) are kept per.
    pub(super) fn pop_wave(&mut self, bound: Bound) -> Option<Vec<WaveItem>> {
        let &Reverse((wave_at, wave_rank, ..)) = self.heap.peek()?;
        let mut wave = Vec::new();
        let mut handshakes = false;
        while let Some(&Reverse((at, rank, seq, slot))) = self.heap.peek() {
            if at != wave_at || rank != wave_rank || !Self::within(at, rank, seq, bound) {
                break;
            }
            match self.items[slot].take() {
                Some(QueuedWork::Node(work)) if work.wave_safe() => {
                    handshakes |= matches!(work, NodeWork::Handshakes { .. });
                    self.heap.pop();
                    self.free.push(slot);
                    wave.push((at, seq, work));
                }
                // The wave ends here: the item stays queued.
                unsafe_work => {
                    self.items[slot] = unsafe_work;
                    break;
                }
            }
        }
        if wave.is_empty() {
            return None;
        }
        Some(if handshakes {
            coalesce_handshakes(wave)
        } else {
            wave
        })
    }
}

/// Merges a seq-ordered wave's handshake deliveries into one
/// [`NodeWork::Handshakes`] per receiver, preserving arrival order within
/// each receiver; the merged item keeps its first member's place (and seq),
/// so a frame delivery queued between two handshakes for one receiver
/// still charges that receiver's lane *after* them all.  Handshake
/// processing emits no effects and different receivers charge disjoint
/// CPU lanes, so the coalescing leaves every simulated time and counter
/// untouched — only the number of scheduling events shrinks.
fn coalesce_handshakes(wave: Vec<WaveItem>) -> Vec<WaveItem> {
    let mut out: Vec<WaveItem> = Vec::with_capacity(wave.len());
    for (at, seq, work) in wave {
        let NodeWork::Handshakes {
            destination,
            handshakes,
        } = work
        else {
            out.push((at, seq, work));
            continue;
        };
        let earlier = out.iter_mut().find_map(|(_, _, work)| match work {
            NodeWork::Handshakes {
                destination: receiver,
                handshakes,
            } if *receiver == destination => Some(handshakes),
            _ => None,
        });
        match earlier {
            Some(merged) => merged.extend(handshakes),
            None => out.push((
                at,
                seq,
                NodeWork::Handshakes {
                    destination,
                    handshakes,
                },
            )),
        }
    }
    out
}
