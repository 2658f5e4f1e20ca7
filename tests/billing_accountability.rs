//! Diverse billing over accountability data (the introduction's billing use
//! case): charges follow the provenance-attributed traffic of each
//! principal, and different principals can be on different plans.

use pasn::accountability::AccountabilityReport;
use pasn::billing::{BillingRun, RatePlan};
use pasn::prelude::*;
use pasn::workload;
use std::collections::HashMap;

fn run_best_path(n: u32, seed: u64) -> SecureNetwork {
    let topology = workload::evaluation_topology(n, seed);
    let mut config = SystemVariant::SeNDLog.config();
    config.cost_model = CostModel::zero_cpu();
    let mut net = SecureNetwork::builder()
        .program(pasn::programs::best_path())
        .topology(topology)
        .config(config)
        .build()
        .expect("program compiles");
    net.run().expect("fixpoint reached");
    net
}

#[test]
fn charges_track_attributed_bytes() {
    let net = run_best_path(10, 31);
    let report = AccountabilityReport::collect(&net);
    let total_bytes: u64 = report.usage.iter().map(|u| u.bytes_sent).sum();
    assert!(total_bytes > 0);

    let plan = RatePlan::flat("standard", 1.0);
    let run = BillingRun::compute(&report, &plan, &HashMap::new());
    assert_eq!(run.invoices.len(), report.usage.len());

    // Total revenue equals the flat rate applied to the total attributed
    // traffic (within floating-point tolerance).
    let expected = total_bytes as f64 / 1_000_000.0;
    assert!((run.total() - expected).abs() < 1e-6);

    // The biggest sender pays the biggest bill under a uniform plan.
    let top = &report.usage[0];
    let top_invoice = run
        .invoices
        .iter()
        .find(|i| i.principal == top.location)
        .unwrap();
    assert!(run
        .invoices
        .iter()
        .all(|i| i.amount <= top_invoice.amount + 1e-12));
}

#[test]
fn diverse_plans_change_the_ranking_but_not_the_attribution() {
    let net = run_best_path(8, 17);
    let report = AccountabilityReport::collect(&net);
    let standard = RatePlan::flat("standard", 1.0);

    // Put the *lightest* sender on a plan ten times more expensive.
    let lightest = report.usage.last().unwrap().location.clone();
    let mut overrides = HashMap::new();
    overrides.insert(lightest.clone(), RatePlan::flat("premium", 1000.0));

    let uniform = BillingRun::compute(&report, &standard, &HashMap::new());
    let diverse = BillingRun::compute(&report, &standard, &overrides);

    // Attribution (bytes) is identical across runs — only prices change.
    for invoice in &diverse.invoices {
        let other = uniform
            .invoices
            .iter()
            .find(|i| i.principal == invoice.principal)
            .unwrap();
        assert_eq!(invoice.bytes, other.bytes);
    }
    assert!(diverse.total() > uniform.total());
    assert_eq!(
        diverse
            .invoices
            .iter()
            .find(|i| i.principal == lightest)
            .unwrap()
            .plan,
        "premium"
    );
}

#[test]
fn tiered_plans_spare_light_senders() {
    let net = run_best_path(9, 7);
    let report = AccountabilityReport::collect(&net);
    // Every principal's usage fits inside the included volume of a generous
    // tiered plan, so everyone pays exactly the flat fee.
    let generous = RatePlan::tiered("generous", 5.0, u64::MAX, 100.0);
    let run = BillingRun::compute(&report, &generous, &HashMap::new());
    for invoice in &run.invoices {
        assert!((invoice.amount - 5.0).abs() < 1e-9);
    }
    assert!((run.total() - 5.0 * report.usage.len() as f64).abs() < 1e-6);
}
