//! Layer probes: unit costs of single layers, timed from outside on the
//! traced run's *own data* — its rows, its tags, its frame sizes and
//! message counts.  A probe never runs inside an end-to-end repetition; its
//! numbers are per-layer metrics and feed the `*.busy_s_est` attribution
//! (`count from RunMetrics × unit cost measured here`).
//!
//! Store probes use only the id-based `NodeStore` API, so removing the
//! name-keyed shims never touches this file.

use crate::spans::Tracer;
use crate::workloads::investigate_keys;
use pasn::forensics;
use pasn::prelude::*;
use pasn_crypto::{Authenticator, KeyAuthority, Principal, PrincipalId, SaysLevel};
use pasn_datalog::{compile_program, parse_program, CompiledProgram};
use pasn_engine::{NodeStore, TupleMeta};
use pasn_net::{Message, NetworkSim};
use pasn_provenance::{traceback, BaseTupleId, VarTable};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer metric values by catalogue name.
pub type Values = BTreeMap<&'static str, f64>;

/// Seconds per call of `f` over `iterations` calls.
fn per_call(iterations: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..iterations {
        f();
    }
    started.elapsed().as_secs_f64() / iterations.max(1) as f64
}

/// `datalog.*`: parse and compile the workload's source text.
pub fn datalog(source: &str, tracer: &mut Tracer, out: &mut Values) -> CompiledProgram {
    const ITERATIONS: usize = 200;
    let mut parse_s = 0.0;
    let mut compile_s = 0.0;
    for _ in 0..ITERATIONS {
        let (program, seconds) = tracer.time("datalog.parse", |_| {
            parse_program(std::hint::black_box(source)).expect("built-in program parses")
        });
        parse_s += seconds;
        compile_s += tracer
            .time("datalog.compile", |_| {
                std::hint::black_box(compile_program(&program).expect("built-in program compiles"));
            })
            .1;
    }
    let compiled = compile_program(&parse_program(source).expect("parses")).expect("compiles");
    out.insert("datalog.parse_us", parse_s / ITERATIONS as f64 * 1e6);
    out.insert("datalog.compile_us", compile_s / ITERATIONS as f64 * 1e6);
    out.insert("datalog.rules", compiled.program.rules.len() as f64);
    out.insert("datalog.index_specs", compiled.index_specs().len() as f64);
    compiled
}

/// `crypto.*` unit costs at the deployment's key size, on frames of the
/// run's mean occupancy built from its own rows.  Skipped (all zero) on a
/// cleartext deployment, where every crypto count is zero too.
pub fn crypto(net: &SecureNetwork, rows: &[Row], occupancy: f64, out: &mut Values) {
    let config = net.engine().config();
    if config.says_level.is_none() {
        return;
    }
    let nodes = net.engine().locations().len();
    out.insert("crypto.principals", nodes as f64);

    // Key provisioning is linear in principals; time a sample of them.
    let sample: Vec<Principal> = (0..nodes.min(8) as u32)
        .map(|i| Principal::new(i, format!("n{i}")))
        .collect();
    let started = Instant::now();
    let authority =
        KeyAuthority::provision_with_modulus(&sample, config.key_seed, config.rsa_modulus_bits)
            .expect("key provisioning");
    out.insert(
        "crypto.keygen_ms",
        started.elapsed().as_secs_f64() * 1e3 / sample.len() as f64,
    );

    let frame: Vec<Vec<u8>> = rows
        .iter()
        .take((occupancy.round() as usize).max(1))
        .map(|row| row.tuple.encode())
        .collect();
    let keyring = |id| authority.keyring_for(PrincipalId(id)).expect("provisioned");
    let sender = Authenticator::new(keyring(0), SaysLevel::Rsa);
    let receiver = Authenticator::new(keyring(1), SaysLevel::Rsa);
    let assertion = sender.assert_frame(&frame);
    out.insert(
        "crypto.rsa_sign_us",
        per_call(40, || {
            std::hint::black_box(sender.assert_frame(&frame));
        }) * 1e6,
    );
    out.insert(
        "crypto.rsa_verify_us",
        per_call(400, || {
            receiver
                .verify_frame(&frame, &assertion)
                .expect("own signature verifies");
        }) * 1e6,
    );

    // One MAC and one verification per frame on an established channel.
    let sender = Authenticator::new(keyring(0), SaysLevel::Session);
    let receiver = Authenticator::new(keyring(1), SaysLevel::Session);
    let (handshake, mut tx) = sender.open_channel(PrincipalId(1), 1, u64::MAX);
    let mut rx = receiver.accept_channel(&handshake).expect("handshake");
    const FRAMES: usize = 2_000;
    let seconds = per_call(FRAMES, || {
        let assertion = sender.assert_frame_on(&mut tx, &frame);
        receiver
            .verify_frame_on(&mut rx, &frame, &assertion, SaysLevel::Session)
            .expect("own MAC verifies");
    });
    out.insert("crypto.hmac_frame_ns", seconds / 2.0 * 1e9);
}

/// One stored row of the traced run's fixpoint.
pub struct Row {
    pub location: Value,
    pub tuple: Tuple,
    pub meta: TupleMeta,
}

/// Every stored row of the deployment, grouped by node in location order.
pub fn fixpoint_rows(net: &SecureNetwork, compiled: &CompiledProgram) -> Vec<Row> {
    let mut rows = Vec::new();
    for (_, predicate) in compiled.symbols.iter() {
        for (location, tuple, meta) in net.query_all(predicate) {
            rows.push(Row {
                location,
                tuple,
                meta,
            });
        }
    }
    rows.sort_by_key(|row| row.location.as_addr());
    rows
}

/// One index probe to replay: predicate, key columns, key values.
type ProbeKey<'a> = (pasn_datalog::PredId, &'a [usize], Vec<Value>);

/// `store.*` unit costs: the fixpoint's rows re-inserted, probed, scanned
/// and expired in fresh per-node stores under the compiled index specs —
/// the same table sizes and key shapes the run had.
pub fn store(rows: &[Row], compiled: &CompiledProgram, out: &mut Values) {
    if rows.is_empty() {
        return;
    }
    let specs = compiled.index_specs();
    let expiry = SimTime::from_micros(1_000);
    let fresh_stores = |expires_at: Option<SimTime>| {
        // (store, rows as (pred, shared values, meta)) per node.
        let mut stores: Vec<(NodeStore, Vec<_>)> = Vec::new();
        let mut current: Option<&Value> = None;
        for row in rows {
            if current != Some(&row.location) {
                current = Some(&row.location);
                let mut store = NodeStore::new();
                for spec in &specs {
                    let pred = store.intern(&spec.predicate);
                    store.register_index_id(pred, &spec.key_columns);
                }
                stores.push((store, Vec::new()));
            }
            let (store, pending) = stores.last_mut().expect("pushed above");
            let pred = store.intern(&row.tuple.predicate);
            let values: Arc<[Value]> = Arc::from(row.tuple.values.clone());
            let meta = TupleMeta {
                expires_at,
                ..row.meta.clone()
            };
            pending.push((pred, values, meta));
        }
        stores
    };
    // Enough passes that each timing covers some hundred thousand operations.
    let passes = (200_000 / rows.len()).clamp(1, 50);

    let mut insert_s = 0.0;
    let mut expire_s = 0.0;
    for _ in 0..passes {
        let mut stores = fresh_stores(Some(expiry));
        let started = Instant::now();
        for (store, pending) in &mut stores {
            for (pred, values, meta) in pending.drain(..) {
                store.insert_row(pred, values, meta, |old, _| old.clone());
            }
        }
        insert_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        for (store, _) in &mut stores {
            std::hint::black_box(store.take_expired(expiry));
        }
        expire_s += started.elapsed().as_secs_f64();
    }
    let operations = (passes * rows.len()) as f64;
    out.insert("store.insert_ns", insert_s / operations * 1e9);
    out.insert("store.expire_ns", expire_s / operations * 1e9);

    // Probe and scan against filled, unexpired stores.
    let mut stores = fresh_stores(None);
    let mut keys: Vec<Vec<ProbeKey>> = Vec::new();
    for (store, pending) in &mut stores {
        let mut node_keys = Vec::new();
        for (pred, values, meta) in pending.drain(..) {
            let name = store.pred_name(pred).expect("interned").to_string();
            for spec in specs.iter().filter(|spec| spec.predicate == name) {
                let key = spec
                    .key_columns
                    .iter()
                    .map(|c| values[*c].clone())
                    .collect();
                node_keys.push((pred, spec.key_columns.as_slice(), key));
            }
            store.insert_row(pred, values, meta, |old, _| old.clone());
        }
        keys.push(node_keys);
    }
    let probes: usize = keys.iter().map(Vec::len).sum();
    let started = Instant::now();
    let mut hits = 0usize;
    for _ in 0..passes {
        for ((store, _), node_keys) in stores.iter().zip(&keys) {
            for (pred, columns, key) in node_keys {
                hits += store
                    .probe_id(*pred, columns, key)
                    .map_or(0, Iterator::count);
            }
        }
    }
    std::hint::black_box(hits);
    if probes > 0 {
        out.insert(
            "store.probe_ns",
            started.elapsed().as_secs_f64() / (passes * probes) as f64 * 1e9,
        );
    }
    let started = Instant::now();
    let mut scanned = 0usize;
    for _ in 0..passes {
        for (store, _) in &stores {
            for (pred, _) in compiled.symbols.iter() {
                if let Some(pred) = store.pred_id(store_name(compiled, pred)) {
                    scanned += store.scan_ordered_rows(pred).count();
                }
            }
        }
    }
    out.insert(
        "store.scan_ns",
        started.elapsed().as_secs_f64() / scanned.max(1) as f64 * 1e9,
    );
}

fn store_name(compiled: &CompiledProgram, pred: pasn_datalog::PredId) -> &str {
    compiled.symbols.name(pred).expect("interned predicate")
}

/// `provenance.*` / `bdd.*` unit costs over the stored tags.  Each stored
/// condensed tag is rebuilt in a fresh `VarTable` from its cubes — a product
/// per cube, a sum across cubes — which is exactly the `times` / `plus`
/// traffic that produced it; the same cubes as why-provenance witnesses
/// time `condense`.  Skipped on deployments that keep no tags.
pub fn provenance(net: &SecureNetwork, rows: &[Row], out: &mut Values) {
    let engine_table = net.var_table();
    out.insert("bdd.node_count", engine_table.manager().node_count() as f64);
    let cubes_of: Vec<Vec<Vec<u32>>> = rows
        .iter()
        .filter_map(|row| match &row.meta.tag {
            ProvTag::Condensed(bdd) => Some(
                engine_table
                    .manager()
                    .cubes(*bdd, 64)
                    .into_iter()
                    .map(|cube| {
                        cube.into_iter()
                            .filter(|(_, positive)| *positive)
                            .map(|(var, _)| var)
                            .collect()
                    })
                    .collect(),
            ),
            _ => None,
        })
        .take(20_000)
        .collect();
    if cubes_of.is_empty() {
        return;
    }

    let mut table = VarTable::new();
    let base = |kind, table: &mut VarTable, var: u32| {
        ProvTag::base(
            kind,
            table,
            BaseTupleId(var as u64),
            "",
            PrincipalId(var),
            1,
        )
    };
    let (mut times_s, mut times_n, mut plus_s, mut plus_n) = (0.0, 0u64, 0.0, 0u64);
    let mut rebuilt = Vec::with_capacity(cubes_of.len());
    for cubes in &cubes_of {
        let mut sum: Option<ProvTag> = None;
        for cube in cubes {
            let literals: Vec<ProvTag> = cube
                .iter()
                .map(|var| base(ProvenanceKind::Condensed, &mut table, *var))
                .collect();
            let started = Instant::now();
            let mut product = ProvTag::one(ProvenanceKind::Condensed, &mut table);
            for literal in &literals {
                product = product.times(literal, &mut table);
            }
            times_s += started.elapsed().as_secs_f64();
            times_n += literals.len() as u64;
            sum = Some(match sum {
                None => product,
                Some(acc) => {
                    let started = Instant::now();
                    let acc = acc.plus(&product, &mut table);
                    plus_s += started.elapsed().as_secs_f64();
                    plus_n += 1;
                    acc
                }
            });
        }
        rebuilt.extend(sum);
    }
    out.insert(
        "provenance.tag_times_ns",
        times_s / times_n.max(1) as f64 * 1e9,
    );
    out.insert(
        "provenance.tag_plus_ns",
        plus_s / plus_n.max(1) as f64 * 1e9,
    );

    // Raw BDD conjunction of neighbouring stored tags.
    let refs: Vec<_> = rebuilt
        .iter()
        .filter_map(|tag| match tag {
            ProvTag::Condensed(bdd) => Some(*bdd),
            _ => None,
        })
        .collect();
    let started = Instant::now();
    for pair in refs.windows(2) {
        std::hint::black_box(table.manager_mut().and(pair[0], pair[1]));
    }
    out.insert(
        "bdd.and_ns",
        started.elapsed().as_secs_f64() / refs.len().saturating_sub(1).max(1) as f64 * 1e9,
    );

    let started = Instant::now();
    for tag in &rebuilt {
        std::hint::black_box(tag.wire_size(&table));
    }
    out.insert(
        "provenance.tag_wire_ns",
        started.elapsed().as_secs_f64() / rebuilt.len() as f64 * 1e9,
    );

    // The same functions as uncondensed witness sets, then condensed.
    let mut why_table = VarTable::new();
    let why: Vec<ProvTag> = cubes_of
        .iter()
        .take(2_000)
        .map(|cubes| {
            let mut sum: Option<ProvTag> = None;
            for cube in cubes {
                let mut product = ProvTag::one(ProvenanceKind::Why, &mut why_table);
                for var in cube {
                    let literal = base(ProvenanceKind::Why, &mut why_table, *var);
                    product = product.times(&literal, &mut why_table);
                }
                sum = Some(match sum {
                    None => product,
                    Some(acc) => acc.plus(&product, &mut why_table),
                });
            }
            sum.expect("a stored tag has at least one cube")
        })
        .collect();
    let started = Instant::now();
    for tag in &why {
        std::hint::black_box(tag.condense(&mut why_table));
    }
    out.insert(
        "provenance.condense_us",
        started.elapsed().as_secs_f64() / why.len() as f64 * 1e6,
    );
}

/// `provenance.snapshot` / `provenance.traceback` / `core.archive_scan`:
/// the public parts `forensics::investigate` is assembled from, timed one
/// by one over the sorted `reachable` rows.
pub fn investigate_parts(net: &SecureNetwork, tracer: &mut Tracer, out: &mut Values) {
    let rows = investigate_keys(net);
    let (mut snapshot_s, mut traceback_s, mut archive_s) = (0.0, 0.0, 0.0);
    const SNAPSHOTS: usize = 20;
    let mut stores = None;
    for _ in 0..SNAPSHOTS {
        let (snapshot, seconds) = tracer.time("provenance.snapshot", |_| net.distributed_stores());
        snapshot_s += seconds;
        stores = Some(snapshot);
    }
    let stores = stores.expect("snapshotted");
    let sample: Vec<_> = rows.iter().step_by((rows.len() / 200).max(1)).collect();
    for (location, key) in &sample {
        let start = Value::Addr(*location).to_string();
        traceback_s += tracer
            .time("provenance.traceback", |_| {
                std::hint::black_box(traceback(&stores, &start, key));
            })
            .1;
        archive_s += tracer
            .time("core.archive_scan", |_| {
                std::hint::black_box(forensics::archived_activity(net, key, None, None));
            })
            .1;
    }
    out.insert(
        "provenance.snapshot_ms",
        snapshot_s / SNAPSHOTS as f64 * 1e3,
    );
    out.insert(
        "provenance.traceback_us",
        traceback_s / sample.len() as f64 * 1e6,
    );
    out.insert(
        "core.archive_scan_us",
        archive_s / sample.len() as f64 * 1e6,
    );
}

/// `provenance.render_us`: `render_provenance` of stored rows, where the
/// deployment keeps tags to render.
pub fn render(net: &SecureNetwork, rows: &[Row], tracer: &mut Tracer, out: &mut Values) {
    if net.engine().config().provenance == ProvenanceKind::None || rows.is_empty() {
        return;
    }
    let sample = &rows[..rows.len().min(500)];
    let seconds = tracer
        .time("provenance.render", |_| {
            for row in sample {
                std::hint::black_box(net.render_provenance(&row.location, &row.tuple));
            }
        })
        .1;
    out.insert("provenance.render_us", seconds / sample.len() as f64 * 1e6);
}

/// `net.sim_send_ns`: one `NetworkSim::send` plus its `deliver_next` at the
/// run's frame count and mean frame size, with the fault plan's three rolls
/// per frame when the deployment has one.
pub fn net_sim(net: &SecureNetwork, metrics: &RunMetrics, out: &mut Values) {
    let frames = (metrics.frames as usize).clamp(1, 200_000);
    let wire_bytes = (metrics.bytes / metrics.frames.max(1)) as usize;
    let nodes = net.engine().locations().len().max(2) as u32;
    let plan = net.engine().config().fault_plan.clone();
    let mut sim: NetworkSim<()> = NetworkSim::new(net.engine().config().cost_model);
    let started = Instant::now();
    let mut faults = 0u64;
    for i in 0..frames as u32 {
        let (src, dst) = (i % nodes, (i + 1) % nodes);
        if let Some(plan) = &plan {
            faults += u64::from(plan.drops(src, dst, i as u64, 0))
                + u64::from(plan.duplicates(src, dst, i as u64))
                + plan.extra_delay_us(src, dst, i as u64);
        }
        sim.send(
            SimTime::from_micros(i as u64),
            Message {
                src: NodeId(src),
                dst: NodeId(dst),
                payload: (),
                wire_bytes,
            },
        );
        // Keep a window in flight, as the engine's queue does.
        if i % 4 == 3 {
            for _ in 0..4 {
                std::hint::black_box(sim.deliver_next());
            }
        }
    }
    while sim.deliver_next().is_some() {}
    std::hint::black_box(faults);
    out.insert(
        "net.sim_send_ns",
        started.elapsed().as_secs_f64() / frames as f64 * 1e9,
    );
}
