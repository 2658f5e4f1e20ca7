//! One measurement run of one workload — the unit the acceptance driver
//! invokes (`--workload W --seed N --seconds S --trace 0|1`) and the unit
//! the suite spawns as a child process, so `VmHWM` is per workload.
//!
//! `--trace 0` measures the end-to-end metrics with every recorder off.
//! `--trace 1` repeats one input untraced, then once more under the
//! benchmark's span recorder and the engine's flight recorder, runs the
//! layer probes on that run's data, and reports the per-layer metrics.  The
//! traced-minus-untraced difference is the tracing overhead; it never
//! enters an end-to-end metric.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::probes::{self, Values};
use crate::spans::Tracer;
use crate::stats::{self, Summary};
use crate::workloads::{same_run, Case, Ops, Workload, TIMED_WORKERS};
use pasn::prelude::*;
use std::collections::HashMap;
use std::time::Instant;

/// What one run was asked to do.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Measurement budget in host seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: sizes ÷ 4, one repetition; never comparable to a full run.
    pub quick: bool,
}

/// Set-ups per run: set-up takes milliseconds, so it is repeated until its
/// best time means something.
const SETUP_REPS: usize = 25;
/// Reads per window of the end-to-end run: enough for a median, few enough
/// that a window fits between two bursts of host noise.
const READ_SAMPLES: usize = 50;
/// Read windows per round.
const READ_WINDOWS: usize = 4;
/// Reads of the traced run's single round: leaves ten samples beyond the
/// 99th percentile it reports.
const TAIL_SAMPLES: usize = 1_000;

/// Best-of-k per input, averaged over the input pool.
///
/// Host noise on a shared machine is one-sided — a neighbour can only slow a
/// repetition down, and does so for seconds at a time — so the fastest of an
/// input's repetitions is the steadiest estimate of what that input costs,
/// where a median follows the neighbour.  Inputs differ in size, so each
/// keeps its own best and the metric is their mean: every input weighs the
/// same however many repetitions the host had time for.
struct BestOf {
    per_input: Vec<f64>,
    samples: Vec<f64>,
}

impl BestOf {
    fn new(inputs: usize) -> Self {
        BestOf {
            per_input: vec![f64::INFINITY; inputs],
            samples: Vec::new(),
        }
    }

    fn offer(&mut self, input: usize, value: f64) {
        self.per_input[input] = self.per_input[input].min(value);
        self.samples.push(value);
    }

    /// The metric's value, with the quartiles and count of everything
    /// offered beside it.  Runs end on whole passes over the pool, so every
    /// input has been offered at least once.
    fn value(&self) -> (f64, Summary) {
        (
            self.per_input.iter().sum::<f64>() / self.per_input.len() as f64,
            Summary::of(&self.samples),
        )
    }
}

/// The outcome of one run: the result line (exactly `correct`, `attempted`,
/// `failed`, `metrics`) and, printed on the line before it, the detail
/// behind the numbers — quartiles and sample counts of each timing, or the
/// span self-times of the traced run.
pub struct Outcome {
    pub result: Json,
    pub detail: Json,
}

/// Runs one measurement.
pub fn run(args: RunArgs) -> Outcome {
    if args.trace {
        run_traced(args)
    } else {
        run_end_to_end(args)
    }
}

fn run_end_to_end(args: RunArgs) -> Outcome {
    let workload = args.workload;
    let mut setup = BestOf::new(1);
    let mut case = None;
    for _ in 0..if args.quick { 1 } else { SETUP_REPS } {
        let started = Instant::now();
        case = Some(Case::set_up(workload, args.seed, args.quick));
        setup.offer(0, started.elapsed().as_secs_f64());
    }
    let case = case.expect("set up at least once");

    let inputs = case.sizes.pool;
    let mut tracer = Tracer::off(workload.name());
    let mut ops = Ops::default();
    let mut deploy = BestOf::new(inputs);
    let mut fixpoint = BestOf::new(inputs);
    let mut query_p50 = BestOf::new(inputs);
    let mut first_seen: Vec<Option<RunMetrics>> = vec![None; inputs];
    let started = Instant::now();
    let mut rep = 0;
    loop {
        // The previous round's deployment was dropped with its scope: peak
        // RSS is one deployment's (two during the worker cross-check).
        let input = case.instance_of(rep);
        let outcome = case.rep(rep, TIMED_WORKERS, false, &mut tracer);
        deploy.offer(input, outcome.deploy_s);
        fixpoint.offer(input, outcome.fixpoint_s);
        ops.absorb(case.check(rep, &outcome));
        match &first_seen[input] {
            // The same input must reproduce every counter and model output.
            Some(first) => ops.record(same_run(first, &outcome.metrics)),
            None => first_seen[input] = Some(outcome.metrics.clone()),
        }
        if rep == 0 {
            if let Some(cross) = case.two_worker_run(rep, &outcome) {
                ops.absorb(cross.ops);
            }
        }
        // Reads against this repetition's deployment, in short windows of
        // the same picks so the best window compares like with like.
        for _ in 0..if args.quick { 1 } else { READ_WINDOWS } {
            let reads = case.read_phase(&outcome.net, READ_SAMPLES, &mut tracer);
            ops.absorb(reads.ops);
            let reads_us: Vec<f64> = reads.latencies_s.iter().map(|s| s * 1e6).collect();
            query_p50.offer(input, stats::median(&reads_us));
        }
        rep += 1;
        // Whole passes over the input pool only, so every input gets the
        // same number of tries whatever the host's speed.
        let whole_pass = rep % inputs == 0;
        if args.quick || (whole_pass && started.elapsed().as_secs_f64() >= args.seconds) {
            break;
        }
    }

    let rss_mb = peak_rss_mb();
    let values: HashMap<&str, (f64, Summary)> = HashMap::from([
        ("setup_s", setup.value()),
        ("deploy_s", deploy.value()),
        ("fixpoint_s", fixpoint.value()),
        ("query_p50_us", query_p50.value()),
        ("peak_rss_mb", (rss_mb, Summary::of(&[rss_mb]))),
    ]);
    let mut metrics = Vec::new();
    let mut detail = Vec::new();
    for metric in END_TO_END {
        let (value, summary) = values[metric.name];
        metrics.push((metric.name, metric_json(value, metric.unit)));
        detail.push((
            metric.name,
            Json::obj([
                ("median", Json::Num(summary.median)),
                ("q1", Json::Num(summary.q1)),
                ("q3", Json::Num(summary.q3)),
                ("n", Json::Num(summary.n as f64)),
            ]),
        ));
    }
    result_line(ops, metrics, detail)
}

fn run_traced(args: RunArgs) -> Outcome {
    let workload = args.workload;
    let case = Case::set_up(workload, args.seed, args.quick);
    let mut ops = Ops::default();
    let mut out = Values::new();

    // Untraced repetitions of input 0: the baseline the traced run and the
    // busy-time attribution are held against.
    // Best-of, like every timing here (see `BestOf`).
    let mut fixpoint_s = f64::INFINITY;
    let mut tries = 0;
    let started = Instant::now();
    let baseline = loop {
        let outcome = case.rep(0, TIMED_WORKERS, false, &mut Tracer::off(workload.name()));
        fixpoint_s = fixpoint_s.min(outcome.fixpoint_s);
        tries += 1;
        if args.quick || (tries >= 3 && started.elapsed().as_secs_f64() >= args.seconds * 0.4) {
            break outcome.metrics;
        }
    };
    let extra_tries = if args.quick { 0 } else { 2 };

    // The traced repetition: benchmark spans plus the engine's recorder.
    let mut tracer = Tracer::on(workload.name());
    let traced = case.rep(0, TIMED_WORKERS, true, &mut tracer);
    ops.absorb(case.check(0, &traced));
    // Tracing is observation only: every counter must survive it.
    ops.record(same_run(&baseline, &traced.metrics));
    let metrics = &traced.metrics;
    let mut traced_s = traced.fixpoint_s;
    for _ in 0..extra_tries {
        let again = case.rep(0, TIMED_WORKERS, true, &mut Tracer::off(workload.name()));
        traced_s = traced_s.min(again.fixpoint_s);
    }
    out.insert("trace.overhead_ratio", traced_s / fixpoint_s);
    if let Some(recorder) = traced.net.trace() {
        out.insert("trace.events", recorder.len() as f64);
        let started = Instant::now();
        std::hint::black_box(recorder.to_chrome_json());
        out.insert("trace.export_ms", started.elapsed().as_secs_f64() * 1e3);
    }

    // The same input on two workers: the pool's layout gauges and the
    // 2-worker ÷ 1-worker ratio ROADMAP item 2's decision is read off.
    if let Some(cross) = case.two_worker_run(0, &traced) {
        ops.absorb(cross.ops);
        let mut w2_s = cross.fixpoint_s;
        for _ in 0..extra_tries {
            let again = case.two_worker_run(0, &traced).expect("a stream workload");
            ops.absorb(again.ops);
            w2_s = w2_s.min(again.fixpoint_s);
        }
        let pool = &cross.metrics;
        out.insert("runtime.fixpoint_w2_s", w2_s);
        out.insert("runtime.w2_ratio", w2_s / fixpoint_s);
        out.insert("runtime.partitions", pool.partitions as f64);
        out.insert(
            "runtime.cross_partition_frames",
            pool.cross_partition_frames as f64,
        );
        out.insert(
            "runtime.cross_share",
            pool.cross_partition_frames as f64 / pool.frames.max(1) as f64,
        );
        out.insert(
            "runtime.max_partition_queue",
            pool.max_partition_queue as f64,
        );
    }

    // Reads under spans; on prov_query each is followed by probes of the
    // layers `investigate` is made of, as sibling spans of the real call.
    let samples = if args.quick { 20 } else { TAIL_SAMPLES };
    let reads = case.read_phase(&traced.net, samples, &mut tracer);
    ops.absorb(reads.ops);
    let reads_us: Vec<f64> = reads.latencies_s.iter().map(|s| s * 1e6).collect();
    out.insert("query.p50_us", stats::median(&reads_us));
    out.insert("query.p99_us", stats::percentile(&reads_us, 99.0));
    out.insert("query.samples", reads_us.len() as f64);
    if workload == Workload::ProvQuery {
        let calls = reads.latencies_s.len() as f64;
        out.insert(
            "core.investigate_us",
            reads.latencies_s.iter().sum::<f64>() / calls * 1e6,
        );
        out.insert("provenance.visited_per_query", reads.visited as f64 / calls);
        out.insert(
            "provenance.remote_hops_per_query",
            reads.remote_hops as f64 / calls,
        );
        probes::investigate_parts(&traced.net, &mut tracer, &mut out);
    }

    // Layer probes on the traced run's own data.
    let compiled = probes::datalog(workload.source(), &mut tracer, &mut out);
    let probe_net = case.probe_deployment();
    let probe_net = probe_net.as_ref().unwrap_or(&traced.net);
    let rows = probes::fixpoint_rows(probe_net, &compiled);
    tracer.time("probe.crypto", |_| {
        probes::crypto(&traced.net, &rows, metrics.mean_batch_occupancy(), &mut out)
    });
    tracer.time("probe.store", |_| probes::store(&rows, &compiled, &mut out));
    tracer.time("probe.provenance", |_| {
        probes::provenance(&traced.net, &rows, &mut out)
    });
    tracer.time("probe.net", |_| {
        probes::net_sim(&traced.net, metrics, &mut out)
    });
    probes::render(&traced.net, &rows, &mut tracer, &mut out);
    if workload == Workload::LossySession {
        // The same deployment on a reliable transport ships only first
        // transmissions: its bytes over the lossy run's are the goodput.
        let reliable = case.reliable_twin(0);
        out.insert(
            "net.goodput_share",
            reliable.bytes as f64 / metrics.bytes as f64,
        );
    } else {
        out.insert("net.goodput_share", 1.0);
    }

    counts(metrics, fixpoint_s, &mut out);
    out.insert("trace.spans", tracer.len() as f64);
    write_spans(workload, &tracer);

    let layer_metrics = PER_LAYER
        .iter()
        .map(|metric| {
            let value = out.get(metric.name).copied().unwrap_or(0.0);
            (metric.name, metric_json(value, metric.unit))
        })
        .collect();
    let self_times = tracer
        .totals()
        .into_iter()
        .map(|(name, totals)| {
            (
                name,
                Json::obj([
                    ("count", Json::Num(totals.count as f64)),
                    ("total_s", Json::Num(totals.total_ns as f64 / 1e9)),
                    ("self_s", Json::Num(totals.self_ns as f64 / 1e9)),
                ]),
            )
        })
        .collect();
    result_line(ops, layer_metrics, self_times)
}

/// Counts read from the run's `RunMetrics`, and the busy-time attribution:
/// `*.busy_s_est = Σ count × unit cost`, with `runtime.residual_s` the rest
/// of `fixpoint_s` (queue, dispatch, effect replay, allocation), so the
/// parts sum to the whole by construction.
fn counts(m: &RunMetrics, fixpoint_s: f64, out: &mut Values) {
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let unit = |out: &Values, name: &str, scale: f64| out.get(name).copied().unwrap_or(0.0) * scale;

    out.insert("crypto.rsa_sign_ops", m.rsa_sign_ops as f64);
    out.insert("crypto.rsa_verify_ops", m.rsa_verify_ops as f64);
    out.insert("crypto.handshakes", m.handshakes as f64);
    out.insert("crypto.handshake_batches", m.handshake_batches as f64);
    out.insert("crypto.hmac_ops", m.hmac_ops as f64);
    let crypto_busy = m.rsa_sign_ops as f64 * unit(out, "crypto.rsa_sign_us", 1e-6)
        + m.rsa_verify_ops as f64 * unit(out, "crypto.rsa_verify_us", 1e-6)
        + m.hmac_ops as f64 * unit(out, "crypto.hmac_frame_ns", 1e-9);
    out.insert("crypto.busy_s_est", crypto_busy);
    out.insert("crypto.share", crypto_busy / fixpoint_s);

    out.insert("store.index_probes", m.index_probes as f64);
    out.insert("store.index_hits", m.index_hits as f64);
    out.insert("store.hit_ratio", ratio(m.index_hits, m.index_probes));
    out.insert("store.scan_probes", m.scan_probes as f64);
    out.insert("store.bytes_per_tuple", m.bytes_per_tuple());
    out.insert(
        "store.peak_bytes",
        (m.peak_store_bytes.max(m.store_bytes) + m.peak_index_bytes.max(m.index_bytes)) as f64,
    );
    out.insert("store.compaction_walked", m.compaction_walked as f64);
    out.insert(
        "store.walk_per_retraction",
        ratio(m.compaction_walked, m.retractions),
    );
    let store_busy = m.derivations as f64 * unit(out, "store.insert_ns", 1e-9)
        + m.index_probes as f64 * unit(out, "store.probe_ns", 1e-9)
        + m.scan_probes as f64 * unit(out, "store.scan_ns", 1e-9)
        + m.retractions as f64 * unit(out, "store.expire_ns", 1e-9);
    out.insert("store.busy_s_est", store_busy);

    out.insert("runtime.fixpoint_s", fixpoint_s);
    out.insert("runtime.derivations", m.derivations as f64);
    out.insert("runtime.tuples_stored", m.tuples_stored as f64);
    out.insert("runtime.messages", m.messages as f64);
    out.insert("runtime.frames", m.frames as f64);
    out.insert("runtime.batched_tuples", m.batched_tuples as f64);
    out.insert("runtime.mean_batch_occupancy", m.mean_batch_occupancy());
    out.insert(
        "runtime.ns_per_derivation",
        fixpoint_s * 1e9 / m.derivations.max(1) as f64,
    );
    out.insert(
        "runtime.derivations_per_s",
        m.derivations as f64 / fixpoint_s,
    );
    out.insert("runtime.retractions", m.retractions as f64);
    out.insert("runtime.rederivations", m.rederivations as f64);
    out.insert("runtime.tombstone_frames", m.tombstone_frames as f64);
    out.insert("runtime.churn_events", m.churn_events as f64);

    out.insert("provenance.ops", m.provenance_ops as f64);
    out.insert(
        "provenance.tag_wire_bytes",
        ratio(m.provenance_bytes, m.batched_tuples),
    );
    let provenance_busy = m.provenance_ops as f64 * unit(out, "provenance.tag_times_ns", 1e-9)
        + m.batched_tuples as f64 * unit(out, "provenance.tag_wire_ns", 1e-9);
    out.insert("provenance.busy_s_est", provenance_busy);

    out.insert("net.frames_dropped", m.frames_dropped as f64);
    out.insert("net.frames_duplicated", m.frames_duplicated as f64);
    out.insert("net.retransmits", m.retransmits as f64);
    out.insert("net.acks", m.acks as f64);
    out.insert("net.backoff_events", m.backoff_events as f64);
    out.insert(
        "net.max_retransmit_per_frame",
        m.max_retransmit_per_frame as f64,
    );
    let net_busy = (m.frames + m.acks + m.retransmits + m.handshakes) as f64
        * unit(out, "net.sim_send_ns", 1e-9);
    out.insert("net.busy_s_est", net_busy);

    out.insert(
        "runtime.residual_s",
        fixpoint_s - crypto_busy - store_busy - provenance_busy - net_busy,
    );
    out.insert("sim.completion_s", m.completion_secs());
    out.insert("sim.bandwidth_mb", m.megabytes());
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn result_line(ops: Ops, metrics: Vec<(&str, Json)>, detail: Vec<(&str, Json)>) -> Outcome {
    Outcome {
        result: Json::obj([
            ("correct", Json::Bool(ops.failed == 0)),
            ("attempted", Json::Num(ops.attempted as f64)),
            ("failed", Json::Num(ops.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ]),
        detail: Json::obj(detail),
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Spans are written once, at exit, beside the build's other outputs.
fn write_spans(workload: Workload, tracer: &Tracer) {
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()),
    )
    .join("hostbench");
    let path = dir.join(format!("{}.trace.json", workload.name()));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_chrome_json()));
    match written {
        Ok(()) => eprintln!("hostbench: spans written to {}", path.display()),
        Err(error) => eprintln!("hostbench: could not write {}: {error}", path.display()),
    }
}
