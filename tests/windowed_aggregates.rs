//! Aggregates under dynamics are elections over their live candidates, for
//! every function: the Section 3 route monitor's sliding window is two rules
//! over `routeUpdate` facts that each live `T`, and an `a_SUM` row's tag is
//! the product of its live candidates' tags.

use pasn::prelude::*;
use pasn_engine::TupleMeta;

fn rows(net: &SecureNetwork, at: &Value, pred: &str) -> Vec<String> {
    let rows = net.engine().query(at, pred).into_iter();
    rows.map(|(tuple, _)| tuple.render_located(Some(0)))
        .collect()
}

/// `pasn::programs::ROUTE_MONITOR` with `threshold(@n0,3)`, and n3's eight
/// updates at 0, 1, …, 7 s, each retracted 4.5 s after it arrived.  A
/// stream that stops at 4.2 s holds five updates: one count row, and the
/// alarm it raises.  Once the whole stream has run, the window has slid
/// past every update: no count and no alarm are left.
#[test]
fn the_route_monitor_window_is_two_rules() {
    let n0 = Value::Addr(0);
    let mut events = Vec::new();
    for id in 0..8u64 {
        let values = vec![n0.clone(), Value::Addr(3), Value::Int(id as i64)];
        let tuple = Tuple::new("routeUpdate", values);
        let location = n0.clone();
        let retract = ChurnEvent::Retract {
            location: location.clone(),
            tuple: tuple.clone(),
        };
        let at = SimTime::from_micros(id * 1_000_000);
        events.push((at, ChurnEvent::Insert { location, tuple }));
        events.push((at + SimTime::from_millis(4_500), retract));
    }
    events.sort_by_key(|(at, _)| *at);
    let monitor = || {
        SecureNetwork::builder()
            .program(pasn::programs::route_monitor())
            .locations((0..4).map(Value::Addr).collect())
            .config(EngineConfig::ndlog().with_cost_model(CostModel::zero_cpu()))
            .fact(
                n0.clone(),
                Tuple::new("threshold", vec![n0.clone(), Value::Int(3)]),
            )
            .build()
            .expect("program compiles")
    };

    let mut prefix = monitor();
    let until = SimTime::from_millis(4_200);
    let early = events.iter().filter(|(at, _)| *at <= until).cloned();
    prefix
        .engine_mut()
        .run_streaming(early)
        .expect("stream prefix runs");
    assert_eq!(rows(&prefix, &n0, "updateCount"), ["updateCount(@n0,n3,5)"]);
    assert_eq!(rows(&prefix, &n0, "alarm"), ["alarm(@n0,n3,5)"]);

    let mut whole = monitor();
    whole
        .engine_mut()
        .run_streaming(events)
        .expect("stream runs");
    assert_eq!(rows(&whole, &n0, "updateCount"), Vec::<String>::new());
    assert_eq!(rows(&whole, &n0, "alarm"), Vec::<String>::new());
    assert_eq!(whole.engine().check_ledger_consistency(), Ok(()));
}

/// An `a_SUM` row depends on every live candidate, so its tag is their
/// semiring product: on the inbound-cost program under condensed
/// provenance, the product of the principals of a node's live in-links —
/// a function of the live set, so a churned run and a from-scratch run of
/// what the churn left agree on it.
#[test]
fn an_a_sum_row_is_tagged_with_every_live_candidate() {
    let program = "
        s0 inLink(@D,S,C) :- link(@S,D,C).
        s1 inbound(@D,a_SUM<C>) :- inLink(@D,S,C).
    ";
    let link = |src: u32, dst: u32, cost: i64| {
        let values = vec![Value::Addr(src), Value::Addr(dst), Value::Int(cost)];
        (Value::Addr(src), Tuple::new("link", values))
    };
    let deploy = |links: &[(u32, u32, i64)]| {
        let config = EngineConfig::ndlog()
            .with_provenance(ProvenanceKind::Condensed)
            .with_cost_model(CostModel::zero_cpu())
            .with_dynamics();
        let mut builder = SecureNetwork::builder()
            .program_text(program)
            .expect("program parses")
            .locations((0..4).map(Value::Addr).collect())
            .config(config);
        for &(src, dst, cost) in links {
            let (at, tuple) = link(src, dst, cost);
            builder = builder.fact(at, tuple);
        }
        builder.build().expect("program compiles")
    };
    let tagged = |net: &SecureNetwork, at: u32| -> Vec<String> {
        let rows = net.engine().query(&Value::Addr(at), "inbound").into_iter();
        let render = |(tuple, meta): (Tuple, TupleMeta)| {
            format!(
                "{} {}",
                tuple.render_located(Some(0)),
                meta.tag.render(net.engine().var_table())
            )
        };
        rows.map(render).collect()
    };

    // n1, n2 and n3 link into n0; n0 links into n1.
    let links = [(1, 0, 2), (2, 0, 3), (3, 0, 5), (0, 1, 7)];
    let mut net = deploy(&links);
    net.engine_mut().run_to_fixpoint().expect("fixpoint");
    assert_eq!(tagged(&net, 0), ["inbound(@n0,10) <p1*p2*p3>"]);
    assert_eq!(tagged(&net, 1), ["inbound(@n1,7) <p0>"]);

    // n2's link goes down: the sum and the product both lose it.
    let mut churned = deploy(&links);
    let script = ChurnScript::new().link_down(5_000_000, Value::Addr(2), Value::Addr(0));
    churned
        .engine_mut()
        .run_scenario(&script)
        .expect("post-churn fixpoint");
    assert_eq!(tagged(&churned, 0), ["inbound(@n0,7) <p1*p3>"]);
    let fresh = {
        let mut net = deploy(&[(1, 0, 2), (3, 0, 5), (0, 1, 7)]);
        net.engine_mut().run_to_fixpoint().expect("fixpoint");
        net
    };
    assert_eq!(tagged(&churned, 0), tagged(&fresh, 0));
}
