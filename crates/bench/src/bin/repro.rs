//! `repro` — regenerates every figure of the paper's evaluation section.
//!
//! ```text
//! cargo run --release -p pasn-bench --bin repro -- [fig3|fig4|summary|all|trace] [--quick] [--runs K] [--max-n N] [--trace PATH]
//! ```
//!
//! The full sweep runs the Best-Path query over random topologies of
//! N = 10..100 nodes (average out-degree three) under NDLog, SeNDLog and
//! SeNDLogProv, prints the Figure 3 and Figure 4 series as markdown tables,
//! and reproduces the Section 6 summary statistics (average and at-max-N
//! relative overheads).  Results are also appended to
//! `target/repro_results.md`; PAPER.md describes what they reproduce.
//!
//! Every run additionally writes `BENCH_engine.json`, the engine's perf
//! trajectory: one point per join, batching, session-channel, lossy, churn,
//! modeled-pool and order-of-magnitude scale workload.  A point carries every
//! row of the `RunMetrics` table (`pasn_engine::RunMetrics::COUNTERS` — the
//! writer loops over it, so the key inventory lives in
//! `crates/engine/src/metrics.rs` and nowhere else; times are `*_us`, so the
//! modeled critical path on a pool of `worker_threads` is `parallel_wall_us`)
//! plus `fixpoint_wall_ms` (host wall clock, on every point), the derived
//! gauges `host_tuples_per_sec` (`derivations` / host wall), `bytes_per_tuple`
//! and `mean_batch_occupancy`.  The document's `mode` is `"quick"` or
//! `"full"`, as run.  Before the file is written, `check_points` asserts
//! the cross-point invariants (seed pins, re-convergence, w1 ≡ w4, memory
//! and retry budgets) on the typed metrics; a failed assert fails the
//! process, which is what CI relies on.
//!
//! With `--trace PATH`, the lossy session workload is re-run under the
//! deterministic flight recorder and its Chrome/Perfetto `trace.json` is
//! written to PATH — after asserting that the frame-lifecycle events in the
//! trace reconstruct the run's transport counters exactly.  The `trace`
//! subcommand instead records the streaming 10k-node generational workload
//! (downscaled under `--quick`); because the recorder runs on simulated
//! time, its output is byte-identical on every run and every host.

use pasn::experiment::{
    render_figure, render_summary, run_sweep, summarize, FigureMetric, SweepConfig,
};
use pasn::prelude::*;
use pasn_engine::Scope;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: repro [fig3|fig4|summary|all|trace] [--quick] [--runs K] [--max-n N] [--trace PATH]";

/// Rejects a malformed command line before any work runs.
fn usage_error(problem: String) -> ! {
    eprintln!("repro: {problem}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let mut what: Option<String> = None;
    let (mut quick, mut runs, mut max_n, mut trace_path) = (false, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || match args.next() {
            Some(v) if !v.starts_with("--") => v,
            _ => usage_error(format!("{arg} needs a value")),
        };
        let mut number = || {
            let v = value();
            v.parse::<u32>()
                .unwrap_or_else(|_| usage_error(format!("{arg} needs a number, got `{v}`")))
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--runs" => runs = Some(number()),
            "--max-n" => max_n = Some(number()),
            "--trace" => trace_path = Some(value()),
            "fig3" | "fig4" | "summary" | "all" | "trace" if what.is_none() => what = Some(arg),
            _ => usage_error(format!("unknown argument `{arg}`")),
        }
    }
    let what = what.unwrap_or_else(|| "all".to_string());
    let runs = runs.unwrap_or(if quick { 1 } else { 2 });
    let max_n = max_n.unwrap_or(if quick { 30 } else { 100 });

    if what == "trace" {
        let out = trace_path.unwrap_or_else(|| "trace.json".to_string());
        record_scale_trace(quick, &out);
        return;
    }

    let mut sizes: Vec<u32> = (1..=10).map(|i| i * 10).filter(|n| *n <= max_n).collect();
    if sizes.is_empty() {
        sizes = vec![max_n.max(10)];
    }
    let config = SweepConfig {
        runs_per_point: runs,
        sizes,
        ..SweepConfig::default()
    };

    eprintln!(
        "running Best-Path sweep: sizes {:?}, {} run(s) per point, 3 variants ...",
        config.sizes, config.runs_per_point
    );
    let started = Instant::now();
    let points = run_sweep(&config).expect("sweep completes");
    eprintln!("sweep finished in {:.1}s", started.elapsed().as_secs_f64());

    let mut report = String::new();
    report.push_str(&format!(
        "# Reproduction run ({} sizes × 3 variants × {} runs)\n\n",
        config.sizes.len(),
        config.runs_per_point
    ));

    if what == "fig3" || what == "all" {
        report.push_str("## Figure 3 — query completion time (s), Best-Path query\n\n");
        report.push_str(&render_figure(&points, FigureMetric::CompletionTime));
        report.push('\n');
    }
    if what == "fig4" || what == "all" {
        report.push_str("## Figure 4 — bandwidth utilization (MB), Best-Path query\n\n");
        report.push_str(&render_figure(&points, FigureMetric::Bandwidth));
        report.push('\n');
    }
    if what == "summary" || what == "all" {
        report.push_str("## Section 6 summary statistics\n\n");
        report.push_str(&render_summary(&summarize(&points)));
        report.push('\n');
    }

    println!("{report}");

    if let Ok(mut f) = std::fs::File::create("target/repro_results.md") {
        let _ = f.write_all(report.as_bytes());
        eprintln!("written to target/repro_results.md");
    }

    let points = engine_points(
        if quick { 400 } else { 1_200 },
        quick,
        trace_path.as_deref(),
    );
    check_points(&points);
    // A failed write must be fatal: exiting 0 without writing would leave a
    // stale committed copy standing in for this run.
    std::fs::write("BENCH_engine.json", bench_json(&points, quick))
        .expect("write BENCH_engine.json");
    eprintln!("written to BENCH_engine.json");
}

/// The `trace` subcommand: records the streaming generational reachability
/// workload (the `reachability_10k` point, downscaled under `--quick`)
/// under the flight recorder and writes the Chrome/Perfetto export.  The
/// recorder runs on simulated time, so the written file is byte-identical
/// on every run (`cmp` it against the parent commit's when touching the
/// runtime).
fn record_scale_trace(quick: bool, out: &str) {
    let clusters = if quick { 50 } else { 500 };
    let started = Instant::now();
    let (mut net, events) = pasn_bench::generational_reachability_workload(
        clusters,
        20,
        EngineConfig::ndlog()
            .with_batching()
            .with_tracing(TraceConfig::new().with_gauge_interval_us(1_000)),
    );
    let metrics = net
        .engine_mut()
        .run_streaming(events)
        .expect("streaming fixpoint");
    let trace = net.engine().trace().expect("tracing enabled");
    eprintln!(
        "traced reachability workload ({} clusters, {} derivations): {} events in {:.1}s host time",
        clusters,
        metrics.derivations,
        trace.len(),
        started.elapsed().as_secs_f64()
    );
    std::fs::write(out, trace.to_chrome_json()).expect("write trace.json");
    eprintln!("written to {out}");
}

/// One measurement point of `BENCH_engine.json`.
struct Point {
    name: String,
    /// Minimum host wall clock of the fixpoint across repetitions.
    host_wall: Duration,
    metrics: RunMetrics,
}

impl Point {
    /// Rule firings per second of host wall clock (`0.0` on an empty run).
    fn host_tuples_per_sec(&self) -> f64 {
        let secs = self.host_wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.metrics.derivations as f64 / secs
        }
    }
}

/// Renders one point: host wall, the derived gauges, then every row of the
/// `RunMetrics` table under its table name.
fn point_json(point: &Point) -> String {
    let m = &point.metrics;
    let mut out = format!("    {{\n      \"workload\": \"{}\"", point.name);
    for (key, gauge) in [
        ("fixpoint_wall_ms", point.host_wall.as_secs_f64() * 1_000.0),
        ("host_tuples_per_sec", point.host_tuples_per_sec()),
        ("bytes_per_tuple", m.bytes_per_tuple()),
        ("mean_batch_occupancy", m.mean_batch_occupancy()),
    ] {
        write!(out, ",\n      \"{key}\": {gauge:.3}").expect("write to String");
    }
    for counter in RunMetrics::COUNTERS {
        let value = (counter.get)(m);
        write!(out, ",\n      \"{}\": {value}", counter.name).expect("write to String");
    }
    out + "\n    }"
}

/// Renders the `BENCH_engine.json` document.
fn bench_json(points: &[Point], quick: bool) -> String {
    let points: Vec<String> = points.iter().map(point_json).collect();
    format!(
        "{{\n  \"bench\": \"engine_fixpoint\",\n  \"mode\": \"{}\",\n  \"points\": [\n{}\n  ]\n}}\n",
        if quick { "quick" } else { "full" },
        points.join(",\n")
    )
}

/// Panics, naming the counters that moved, unless `a` and `b` agree on every
/// table row of scope `up_to` or narrower.
fn assert_same(a: &RunMetrics, b: &RunMetrics, up_to: Scope, what: &str) {
    let moved = a.diff(b, up_to);
    assert!(moved.is_empty(), "{what}: {moved:?}");
}

/// Number of times each host-wall-measured workload is rebuilt and rerun;
/// the reported wall time is the minimum across repetitions.  A single
/// `Instant` span around a run of a few milliseconds absorbs first-touch
/// page faults, cold caches and scheduler preemption; min-of-N is the
/// standard low-noise estimator, applied uniformly to every workload so
/// cross-workload ratios stay honest.
const WALL_REPS: u32 = 5;

/// Builds and runs one workload [`WALL_REPS`] times, returning the point:
/// the minimum wall time and the metrics — which double as a determinism
/// oracle: every repetition must produce bit-identical counters.
/// Construction (topology build, key provisioning) happens outside the
/// timed span; only `run` is measured.
fn measured<T, B, R>(name: &str, build: B, run: R) -> Point
where
    B: FnMut() -> T,
    R: FnMut(&mut T) -> RunMetrics,
{
    measured_reps(name, WALL_REPS, build, run)
}

/// [`measured`] with an explicit repetition count: the order-of-magnitude
/// scale workloads run seconds per repetition, so they trade estimator
/// quality for total runtime (two repetitions still exercise the
/// determinism oracle).
fn measured_reps<T, B, R>(name: &str, reps: u32, mut build: B, mut run: R) -> Point
where
    B: FnMut() -> T,
    R: FnMut(&mut T) -> RunMetrics,
{
    let mut best: Option<Point> = None;
    for _ in 0..reps.max(1) {
        let mut subject = build();
        let started = Instant::now();
        let metrics = run(&mut subject);
        let host_wall = started.elapsed();
        if let Some(best) = &mut best {
            // Host time is expected to jitter; nothing else may.
            let what = "nondeterministic workload run";
            assert_same(&metrics, &best.metrics, Scope::Layout, what);
            best.host_wall = best.host_wall.min(host_wall);
        } else {
            let name = name.to_string();
            best = Some(Point {
                name,
                host_wall,
                metrics,
            });
        }
    }
    best.expect("at least one repetition")
}

/// Runs the engine join workloads (indexed and scan-forced equijoin at
/// `rows` tuples per relation, plus the N=30 reachability deployment) and
/// the order-of-magnitude scale workloads (streaming generational
/// reachability, sustained expiry churn, Chord under churn — downscaled
/// when `quick`), one [`Point`] each.  When `trace_path` is set, the lossy
/// session workload is additionally re-run under the flight recorder and
/// its Perfetto export written there.
fn engine_points(rows: u32, quick: bool, trace_path: Option<&str>) -> Vec<Point> {
    let mut points = Vec::new();

    // The equijoin three ways: through the secondary index, scan-forced,
    // and indexed with local delta batching — plan dispatch, slot setup and
    // rule-clone overhead amortise over each batch, so the fixpoint wall
    // time drops below `equijoin_indexed` while derivations and stored
    // tuples stay identical.
    let ndlog = || EngineConfig::ndlog().with_cost_model(CostModel::zero_cpu());
    for (path, config) in [
        ("indexed", ndlog()),
        ("scan", ndlog().without_secondary_indexes()),
        ("batched", ndlog().with_batching()),
    ] {
        points.push(measured(
            &format!("equijoin_{path}_{rows}"),
            || pasn_bench::equijoin_engine(rows, config.clone()),
            |engine| engine.run_to_fixpoint().expect("fixpoint"),
        ));
    }

    points.push(measured(
        "reachability_30",
        || pasn_bench::reachability_network(30, ndlog(), 7),
        |net| net.engine_mut().run_to_fixpoint().expect("fixpoint"),
    ));

    // The same reachability deployment, authenticated and batched: one RSA
    // signature per multi-tuple frame instead of one per shipped tuple, so
    // `signatures == frames` and both undercut the per-tuple message count
    // above while `derivations`/`tuples_stored` stay identical.
    points.push(measured(
        "batched_reachability_30",
        || {
            pasn_bench::reachability_network(
                30,
                EngineConfig::sendlog()
                    .with_cost_model(CostModel::zero_cpu())
                    .with_batching(),
                7,
            )
        },
        |net| net.engine_mut().run_to_fixpoint().expect("fixpoint"),
    ));

    // The same deployment again over session-keyed channels: RSA collapses
    // from one sign per frame to one key-establishment handshake per live
    // directed link (`rsa_sign_ops == handshakes`, far below `frames`),
    // with every frame HMAC-authenticated instead — while `derivations`,
    // `tuples_stored`, `frames` and `batched_tuples` stay bit-identical to
    // `batched_reachability_30` and the fixpoint wall time drops with the
    // per-frame bignum exponentiations.
    let session_config = || {
        EngineConfig::sendlog_session()
            .with_cost_model(CostModel::zero_cpu())
            .with_batching()
    };
    let session = measured(
        "session_reachability_30",
        || pasn_bench::reachability_network(30, session_config(), 7),
        |net| net.engine_mut().run_to_fixpoint().expect("fixpoint"),
    );

    // trace_overhead: the flight recorder is observation only.  The traced
    // session run must reproduce every counter bit for bit, and its wall
    // time must stay within 1.3x of the untraced run (plus a small absolute
    // allowance — these runs are a few milliseconds, so a fixed floor keeps
    // scheduler jitter from failing the ratio on an otherwise healthy run).
    let traced = measured(
        "trace_overhead",
        || {
            let config = session_config().with_tracing(TraceConfig::new());
            pasn_bench::reachability_network(30, config, 7)
        },
        |net| net.engine_mut().run_to_fixpoint().expect("fixpoint"),
    );
    let what = "trace_overhead: tracing perturbed session_reachability_30";
    assert_same(&traced.metrics, &session.metrics, Scope::Layout, what);
    let (session_wall, traced_wall) = (session.host_wall, traced.host_wall);
    let budget = session_wall.mul_f64(1.3) + Duration::from_millis(2);
    assert!(
        traced_wall <= budget,
        "trace_overhead: traced run took {traced_wall:?}, budget {budget:?} \
         (untraced {session_wall:?})"
    );
    eprintln!(
        "trace_overhead ok: untraced {:.3}ms, traced {:.3}ms (budget {:.3}ms)",
        session_wall.as_secs_f64() * 1_000.0,
        traced_wall.as_secs_f64() * 1_000.0,
        budget.as_secs_f64() * 1_000.0
    );
    points.push(session);

    // The session deployment again over lossy links: a seeded fault plan
    // drops, duplicates and delays frames while the reliability layer
    // (per-link send buffers, cumulative acks, retransmission with
    // exponential backoff) recovers every loss, so the fixpoint
    // re-converges to `session_reachability_30`'s `tuples_stored` exactly
    // — with `frames_dropped > 0` and `retransmits` bounded by the retry
    // budget per frame.  The fault counters must be bit-identical across
    // repetitions (the determinism oracle in `measured` enforces it): every
    // transport decision is a pure function of `(seed, link, seq, attempt)`.
    let lossy_config = || session_config().with_fault_plan(FaultPlan::new(41));
    let lossy = measured(
        "lossy_reachability_30",
        || pasn_bench::reachability_network(30, lossy_config(), 7),
        |net| {
            net.engine_mut()
                .run_to_fixpoint()
                .expect("post-loss fixpoint")
        },
    );

    // `--trace PATH`: export the lossy run's flight-recorder trace — the
    // acceptance bar of the recorder.  Before writing, assert that the
    // frame-lifecycle events reconstruct the transport counters exactly and
    // that tracing left the measured point's counters untouched.
    if let Some(path) = trace_path {
        let config = lossy_config().with_tracing(TraceConfig::new());
        let mut net = pasn_bench::reachability_network(30, config, 7);
        let traced = net
            .engine_mut()
            .run_to_fixpoint()
            .expect("post-loss fixpoint");
        let what = "tracing perturbed lossy_reachability_30";
        assert_same(&traced, &lossy.metrics, Scope::Layout, what);
        let trace = net.engine().trace().expect("tracing enabled");
        let cycles = trace.link_lifecycles();
        let total = |f: fn(&pasn_engine::LinkLifecycle) -> u64| cycles.iter().map(f).sum::<u64>();
        assert_eq!(total(|c| c.shipped), traced.frames, "trace/frames mismatch");
        assert_eq!(
            total(|c| c.dropped),
            traced.frames_dropped,
            "trace/frames_dropped mismatch"
        );
        assert_eq!(
            total(|c| c.duplicated),
            traced.frames_duplicated,
            "trace/frames_duplicated mismatch"
        );
        assert_eq!(
            total(|c| c.retransmits),
            traced.retransmits,
            "trace/retransmits mismatch"
        );
        assert_eq!(total(|c| c.acks), traced.acks, "trace/acks mismatch");
        std::fs::write(path, trace.to_chrome_json()).expect("write trace.json");
        eprintln!(
            "written lossy flight-recorder trace ({} events) to {path}",
            trace.len()
        );
    }
    points.push(lossy);

    // The session deployment once more, under network dynamics: one
    // topology link flaps down (provenance-guided deletion withdraws
    // everything derived through it, shipping signed tombstone frames and
    // rebinding the link's session channel) and back up (evaluation
    // re-derives).  The post-churn fixpoint re-converges to
    // `session_reachability_30`'s `tuples_stored` exactly; `derivations`
    // exceeds it by the re-derivation work, which the churn counters
    // itemise.
    points.push(measured(
        "churn_reachability_30",
        || {
            let net = pasn_bench::reachability_network(30, session_config(), 7);
            let flap = net.topology().expect("topology-built deployment").links()[0];
            let (src, dst) = (Value::Addr(flap.src.0), Value::Addr(flap.dst.0));
            let script = ChurnScript::new()
                .link_down(5_000_000, src.clone(), dst.clone())
                .link_up(10_000_000, src, dst);
            (net, script)
        },
        |(net, script)| {
            net.engine_mut()
                .run_scenario(script)
                .expect("post-churn fixpoint")
        },
    ));

    // Modeled parallelism: 50 disjoint 20-node reachability clusters (1000
    // nodes) under the paper's CPU cost model, with no pool modeled and
    // with a four-worker one.  Evaluation is the same sequential loop both
    // times, so the schedule counters must match bit for bit, while
    // `parallel_wall_us` records the modeled critical path (total charged
    // CPU minus, per wave, everything but the busiest partition's), which
    // is what shrinks with workers.
    for workers in [1usize, 4] {
        points.push(measured(
            &format!("par_reachability_1k_w{workers}"),
            || {
                let config = EngineConfig::ndlog().with_batching().with_workers(workers);
                pasn_bench::clustered_reachability_network(50, 20, config)
            },
            |net| net.engine_mut().run_to_fixpoint().expect("fixpoint"),
        ));
    }

    // Store churn (insert / expire / re-insert): the memory-layout paths —
    // seq-ordered expiry, lazy compaction, index maintenance — that the join
    // workloads above never stress.
    let churn_rows = 10_000u32;
    points.push(measured(
        &format!("store_churn_{churn_rows}"),
        || (),
        |()| {
            let store = pasn_bench::store_churn_cycle(churn_rows);
            let (tuples, bytes, index) = (
                store.total_tuples() as u64,
                store.store_bytes() as u64,
                store.index_bytes() as u64,
            );
            RunMetrics {
                tuples_stored: tuples,
                store_bytes: bytes,
                index_bytes: index,
                peak_tuples: tuples,
                peak_store_bytes: bytes,
                peak_index_bytes: index,
                ..RunMetrics::default()
            }
        },
    ));

    // Sustained expiry churn: eight full soft-state generations through one
    // store, proving compaction debt amortises against removals (the
    // `compaction_walked` gauge) and that the peak footprint stays O(one
    // generation) rather than O(history).
    let churn_generations = 8u32;
    points.push(measured_reps(
        &format!("sustained_expiry_churn_{churn_rows}x{churn_generations}"),
        2,
        || (),
        |()| {
            let report = pasn_bench::sustained_expiry_churn(churn_rows, churn_generations);
            RunMetrics {
                tuples_stored: report.store.total_tuples() as u64,
                retractions: report.expired,
                compaction_walked: report.compaction_walked,
                store_bytes: report.store.store_bytes() as u64,
                index_bytes: report.store.index_bytes() as u64,
                peak_store_bytes: report.peak_store_bytes,
                peak_index_bytes: report.peak_index_bytes,
                peak_tuples: report.inserted.min(2 * churn_rows as u64),
                ..RunMetrics::default()
            }
        },
    ));

    // Order-of-magnitude scale: the streaming generational reachability
    // workload — 10k nodes full / 1k nodes quick, links arriving and
    // retiring as a time-ordered event stream, derived soft state killed
    // mid-run by scheduled TTL expiry.  Peak memory stays O(live
    // generations) no matter how many generations the run visits, and the
    // schedule counters are bit-identical with and without a modeled
    // four-worker pool — both pinned by `check_points`.
    let scale_clusters = if quick { 50 } else { 500 };
    for workers in [1usize, 4] {
        points.push(measured_reps(
            &format!("reachability_10k_w{workers}"),
            2,
            || {
                pasn_bench::generational_reachability_workload(
                    scale_clusters,
                    20,
                    EngineConfig::ndlog().with_batching().with_workers(workers),
                )
            },
            |(net, events)| {
                net.engine_mut()
                    .run_streaming(events.clone())
                    .expect("streaming fixpoint")
            },
        ));
    }

    // Chord under churn: `pasn::programs::CHORD` over a stabilised ring (1k
    // members full / 128 quick) at `Hmac`, three phases of 96 standing
    // lookups — stable, after every eighth member departs, after they
    // rejoin — streamed through the engine.  The counters are the engine's
    // own; every lookup must end where the re-stabilised ring says.
    let chord_nodes = if quick { 128 } else { 1_000 };
    points.push(measured_reps(
        "chord_churn_1k",
        2,
        || pasn_bench::chord_churn_deployment(chord_nodes, 96),
        |(dht, events)| {
            let metrics = dht.net.engine_mut().run_streaming(events.clone());
            let metrics = metrics.expect("streaming fixpoint");
            pasn_bench::assert_lookups_end_at_their_owner(dht, events);
            metrics
        },
    ));

    points
}

/// The point whose name starts with `prefix`.
fn find<'a>(points: &'a [Point], prefix: &str) -> &'a RunMetrics {
    let point = points.iter().find(|p| p.name.starts_with(prefix));
    &point
        .unwrap_or_else(|| panic!("no `{prefix}*` point"))
        .metrics
}

/// The cross-point invariants of the perf trajectory, asserted on the typed
/// metrics before `BENCH_engine.json` is written.
fn check_points(points: &[Point]) {
    use Scope::Schedule;
    let stores = |p: &Point| p.metrics.store_bytes > 0 && p.metrics.index_bytes > 0;
    assert!(points.iter().any(stores), "storage gauges are all zero");

    let baseline = find(points, "reachability_30");
    let batched = find(points, "batched_reachability_30");
    assert_eq!(
        batched.signatures, batched.frames,
        "frames must be signed once each"
    );
    assert!(
        batched.frames < baseline.messages,
        "batching must undercut the per-tuple message count"
    );
    assert!(
        batched.mean_batch_occupancy() > 1.0,
        "batched frames must carry more than one tuple on average"
    );
    let fixpoint = |m: &RunMetrics| (m.derivations, m.tuples_stored);
    assert_eq!(
        fixpoint(batched),
        fixpoint(baseline),
        "batching must not change the derivation or fixpoint tuple count"
    );
    assert_eq!(
        batched.rsa_sign_ops, batched.frames,
        "the Rsa level pays one RSA sign per frame"
    );

    let session = find(points, "session_reachability_30");
    assert!(
        session.handshakes > 0 && session.rsa_sign_ops == session.handshakes,
        "session channels pay RSA once per handshake (one per link)"
    );
    assert!(
        session.rsa_sign_ops < session.frames,
        "session handshakes must undercut the per-frame RSA count"
    );
    assert!(
        session.hmac_ops > 0,
        "session frames must be HMAC-authenticated"
    );
    assert!(
        0 < session.handshake_batches && session.handshake_batches <= session.handshakes,
        "same-instant handshakes must coalesce into shared windows"
    );
    let shipped = |m: &RunMetrics| (m.derivations, m.tuples_stored, m.frames, m.batched_tuples);
    assert_eq!(
        shipped(session),
        shipped(batched),
        "session channels must not change what is derived, stored or shipped"
    );
    // Seed-pinned evaluation counters: the CRT/window/batching work may
    // only move wall time and CPU-charge accounting, never what gets
    // derived, stored or shipped.
    assert_eq!(
        shipped(session),
        (2880, 1080, 553, 2790),
        "session derivations / tuple count / frame count / batched-tuple count moved"
    );

    let lossy = find(points, "lossy_reachability_30");
    assert!(
        lossy.frames_dropped > 0,
        "the seeded fault plan must actually drop frames"
    );
    assert!(
        lossy.retransmits > 0,
        "dropped frames must be retransmitted"
    );
    assert!(
        lossy.acks > 0,
        "the reliability layer must send cumulative acks"
    );
    // No frame may need more attempts than the retry budget, and the total
    // retransmission volume stays a small multiple of the loss.
    let retry_budget = u64::from(pasn_engine::DEFAULT_RETRY_BUDGET);
    assert!(
        lossy.max_retransmit_per_frame < retry_budget,
        "per-frame retransmits must stay under the retry budget"
    );
    assert!(
        lossy.retransmits <= retry_budget * lossy.frames_dropped,
        "retransmission volume must be bounded by the retry budget"
    );
    assert_eq!(
        fixpoint(lossy),
        fixpoint(session),
        "the lossy run must re-converge to the reliable fixpoint, deriving the same"
    );

    let churn = find(points, "churn_reachability_30");
    assert!(churn.churn_events > 0, "the flap script must run");
    assert!(
        churn.retractions > 0,
        "provenance-guided deletion must withdraw tuples"
    );
    assert!(
        churn.rederivations > 0,
        "the restored link must re-derive withdrawn tuples"
    );
    assert!(
        churn.tombstone_frames > 0,
        "remote retractions must ship as tombstone frames"
    );
    assert_eq!(
        churn.tuples_stored, session.tuples_stored,
        "the churned run must re-converge to the static fixpoint"
    );
    assert!(
        churn.derivations >= session.derivations,
        "re-derivation work can only add rule firings"
    );
    assert!(
        churn.rsa_sign_ops == churn.handshakes && churn.handshakes > session.handshakes,
        "the flapped link rebinds its channel at a fresh epoch"
    );

    // The modeled pool is accounting on the one evaluation loop: it must
    // not perturb a single schedule counter.
    let par1 = find(points, "par_reachability_1k_w1");
    let par4 = find(points, "par_reachability_1k_w4");
    let what = "the modeled pool must not change a schedule counter";
    assert_same(par4, par1, Schedule, what);
    assert_eq!((par1.worker_threads, par1.partitions), (1, 1));
    assert_eq!(
        par1.cross_partition_frames, 0,
        "a single partition has no cross-partition traffic"
    );
    assert_eq!((par4.worker_threads, par4.partitions), (4, 4));
    assert!(
        par4.cross_partition_frames > 0,
        "interleaved clusters must ship across partitions"
    );
    assert!(
        par4.max_partition_queue > 0,
        "waves must be accounted to the modeled partitions"
    );
    // parallel_wall is modeled in simulated CPU terms, so the speedup is
    // deterministic and safe to pin even on a one-core runner.
    assert!(
        par4.parallel_wall <= par1.parallel_wall.mul_f64(0.6),
        "four workers must cut the modeled critical path to <= 0.6x"
    );

    // Order-of-magnitude scale points (streaming driver): the same holds
    // under the streaming driver.
    let scale1 = find(points, "reachability_10k_w1");
    let scale4 = find(points, "reachability_10k_w4");
    let what = "the modeled pool must not change a schedule counter at scale";
    assert_same(scale4, scale1, Schedule, what);
    let live = |p: &&Point| p.name.starts_with("reachability_10k") && p.host_tuples_per_sec() > 0.0;
    let live_points = points.iter().filter(live).count();
    assert_eq!(live_points, 2, "throughput gauge must be live");
    for p in [scale1, scale4] {
        assert!(p.churn_events > 0, "generations must churn");
        assert!(
            p.retractions > 0,
            "soft-state TTL must evict old generations mid-run"
        );
        assert!(p.bytes_per_tuple() > 0.0, "footprint gauge must be live");
        assert!(
            p.peak_tuples > p.tuples_stored,
            "the peak must be sampled mid-run, not at the drained end"
        );
        // Pinned memory budget: peak residency is O(live generations), not
        // O(total nodes).  Measured 55,200 B (store+index) at both 50 and
        // 500 clusters; 150 kB leaves headroom without letting an O(N)
        // residue regression slip through.
        assert!(
            p.peak_store_bytes + p.peak_index_bytes < 150_000,
            "streaming peak memory must stay within the pinned budget"
        );
        // The same bound for the deletion ledgers: they hold the firings
        // of the live generations, not of every derivation ever made.
        // Measured 2,640 (three live generations x 880 firings, every dead
        // generation's log dropped whole) at both 50 and 500 clusters; the
        // budget leaves room for a fourth and fifth live generation, not for
        // history.
        assert!(
            0 < p.peak_ledger_firings && p.peak_ledger_firings <= 2 * 2_640,
            "streaming peak ledger size must stay within twice the live generations' firings"
        );
    }

    let expiry = find(points, "sustained_expiry_churn");
    assert!(expiry.retractions > 0, "expiry churn must evict rows");
    assert!(
        expiry.compaction_walked <= 4 * expiry.retractions,
        "lazy compaction must amortise to O(1) walked per eviction"
    );
    assert!(
        expiry.peak_store_bytes < 2 * expiry.store_bytes,
        "peak residency must stay within 2x the live set"
    );

    let chord = find(points, "chord_churn");
    assert!(chord.churn_events > 0, "chord nodes must leave and rejoin");
    assert!(
        chord.derivations > 0 && chord.frames > chord.tombstone_frames,
        "chord lookups must route across nodes"
    );
    assert!(
        chord.hmac_ops > 0 && chord.verifications == chord.frames,
        "every chord frame must be authenticated and verified"
    );
    assert_eq!(chord.verification_failures, 0, "no chord frame is forged");
    assert!(
        chord.retractions > 0 && chord.tombstone_frames > 0,
        "re-stabilisation must withdraw stale routes through the ledger"
    );
    assert!(
        chord.rederivations > 0,
        "returning members' lookups must be re-derived"
    );
    eprintln!("BENCH_engine.json checks ok: {} points", points.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_writer_emits_every_table_row_exactly_once() {
        let json = point_json(&Point {
            name: "p".into(),
            host_wall: Duration::from_millis(2),
            metrics: RunMetrics::default(),
        });
        for counter in RunMetrics::COUNTERS {
            let key = format!("\"{}\":", counter.name);
            assert_eq!(json.matches(&key).count(), 1, "{key}");
        }
    }
}
