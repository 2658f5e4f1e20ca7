//! Real-time diagnostics: route-flap detection plus online provenance
//! diagnosis (Section 3, "Real-time Diagnostics").
//!
//! The monitor is two rules (`pasn::programs::ROUTE_MONITOR`): `updateCount`
//! counts a node's route updates per destination, `alarm` holds while that
//! count exceeds a threshold.  Every update is a `routeUpdate` fact that
//! lives `T` seconds — inserted when it happens, retracted `T` later — so
//! the count is over a sliding window: the alarm is raised inside a burst of
//! updates and withdrawn once the window slides past it.  The alarmed
//! destination's routing entry is then traced through its online provenance
//! to locate the origin of the instability.
//!
//! ```text
//! cargo run --example diagnostics_monitor
//! ```

use pasn::diagnostics::diagnose;
use pasn::prelude::*;
use pasn::workload;

fn main() {
    println!("== real-time diagnostics: route-flap detection ==\n");

    // ---- 1. The monitor: two rules over a sliding window ----------------
    // Node n0 receives one routing update a second; destination n3 flaps
    // eight times in a row.  Each update counts for 4.5 s.
    let n0 = Value::Addr(0);
    let window = SimTime::from_millis(4_500);
    let destinations: Vec<NodeId> = (1..6).map(NodeId).collect();
    let stream = workload::route_update_stream(NodeId(0), &destinations, NodeId(3), 8, window, 42);
    let mut monitor = SecureNetwork::builder()
        .program(pasn::programs::route_monitor())
        .locations((0..6).map(Value::Addr).collect())
        .config(
            EngineConfig::ndlog()
                .with_cost_model(CostModel::zero_cpu())
                .with_dynamics(),
        )
        .fact(
            n0.clone(),
            Tuple::new("threshold", vec![n0.clone(), Value::Int(3)]),
        )
        .build()
        .expect("program compiles");
    println!(
        "{:>6}  {:<8} {:<24} alarm",
        "t", "update", "updates in the window"
    );
    let mut raised: Option<(SimTime, Tuple)> = None;
    for (at, event) in stream {
        let kind = match event {
            ChurnEvent::Insert { .. } => "arrives",
            _ => "expires",
        };
        monitor
            .engine_mut()
            .run_streaming([(at, event)])
            .expect("the monitor runs");
        let rows = |pred: &str| {
            monitor
                .engine()
                .query(&n0, pred)
                .into_iter()
                .map(|(tuple, _)| tuple)
        };
        let counts: Vec<String> = rows("updateCount")
            .map(|t| format!("{}:{}", t.values[1], t.values[2]))
            .collect();
        let alarm = rows("alarm").next();
        if raised.is_none() {
            raised = alarm.clone().map(|tuple| (at, tuple));
        }
        let shown = alarm.map_or("-".to_string(), |tuple| tuple.to_string());
        let counts = counts.join(" ");
        println!("{:>5.1}s  {kind:<8} {counts:<24} {shown}", at.as_secs_f64());
    }
    let (raised_at, alarm) = raised.expect("the burst to n3 raises an alarm");
    assert_eq!(alarm.values[1], Value::Addr(3), "only n3 flaps");
    assert!(
        monitor.engine().query(&n0, "alarm").is_empty()
            && monitor.engine().query(&n0, "updateCount").is_empty(),
        "the window slid past the burst: every count and the alarm are withdrawn"
    );
    println!("\nALARM {alarm} raised at {raised_at}, withdrawn once the window slid past\n");

    // ---- 2. Diagnose the alarm via online provenance --------------------
    // Run the routing protocol with distributed provenance so the alarmed
    // destination's entry can be traced back to the links it depends on.
    let topology = Topology::random_out_degree(6, 3, 5, 9);
    let mut routing = SecureNetwork::builder()
        .program(pasn::programs::reachability_ndlog())
        .topology(topology)
        .config(
            EngineConfig::ndlog()
                .with_cost_model(CostModel::zero_cpu())
                .with_graph_mode(GraphMode::Distributed),
        )
        .build()
        .expect("program compiles");
    routing
        .engine_mut()
        .run_to_fixpoint()
        .expect("fixpoint reached");

    let entry = Tuple::new("reachable", vec![n0.clone(), alarm.values[1].clone()]);
    let diagnosis = diagnose(routing.engine(), &n0, &entry.render_located(Some(0)));
    println!("diagnosis of {}:", diagnosis.key);
    println!("  provenance hops crossed : {}", diagnosis.provenance_hops);
    println!("  suspected origin links  :");
    for origin in diagnosis.suspected_origins.iter().take(6) {
        println!("    {origin}");
    }
    println!();

    // ---- 3. Flight-recorder forensics on a lossy deployment -------------
    // Re-run the session deployment over a faulty network with the
    // deterministic flight recorder attached: the hot-rule profile shows
    // where the simulated CPU went, and the per-link frame lifecycles show
    // how the reliability layer fought the losses.
    let mut lossy = SecureNetwork::builder()
        .program(pasn::programs::reachability_ndlog())
        .topology(workload::evaluation_topology(30, 7))
        .config(
            EngineConfig::sendlog_session()
                .with_batching()
                .with_fault_plan(FaultPlan::new(41))
                .with_tracing(TraceConfig::new()),
        )
        .build()
        .expect("program compiles");
    let metrics = lossy
        .engine_mut()
        .run_to_fixpoint()
        .expect("fixpoint reached");
    let trace = lossy.engine().trace().expect("tracing enabled");
    println!("== flight recorder: lossy N=30 session run ==\n");
    println!(
        "{} trace events over {} of simulated time\n",
        trace.len(),
        metrics.completion
    );

    println!("hot rules by simulated CPU:");
    println!(
        "  {:<28} {:>7} {:>12} {:>9}",
        "rule", "fires", "cpu (us)", "derived"
    );
    for profile in trace.hot_rules(5) {
        println!(
            "  {:<28} {:>7} {:>12} {:>9}",
            profile.rule, profile.fires, profile.cpu_us, profile.derived
        );
    }
    println!();

    let mut lifecycles = trace.link_lifecycles();
    lifecycles.sort_by_key(|c| std::cmp::Reverse(c.dropped + c.retransmits));
    println!("loss-affected links (ship/drop/retx/ack):");
    for cycle in lifecycles.iter().filter(|c| c.dropped > 0).take(6) {
        let (src, dst) = cycle.link;
        println!(
            "  n{src:<3}-> n{dst:<3} shipped {:>3}  dropped {:>2}  retransmits {:>2}  acks {:>3}",
            cycle.shipped, cycle.dropped, cycle.retransmits, cycle.acks
        );
    }
    let dropped: u64 = lifecycles.iter().map(|c| c.dropped).sum();
    let retransmits: u64 = lifecycles.iter().map(|c| c.retransmits).sum();
    println!(
        "\ntrace totals: {dropped} drops / {retransmits} retransmits \
         (RunMetrics agrees: {} / {})",
        metrics.frames_dropped, metrics.retransmits
    );
}
