//! Diverse billing over provenance-derived usage data.
//!
//! The paper's introduction lists *"imposing diverse billing over the
//! Internet"* among the applications that motivate network accountability.
//! Once the accountability report of [`crate::accountability`] attributes
//! traffic to principals (and the provenance behind it makes that
//! attribution auditable), billing is a pure policy layer on top: a rate
//! plan maps attributed bytes to charges, possibly with different plans for
//! different principals — the "diverse" part.

use crate::accountability::AccountabilityReport;
use pasn_datalog::Value;
use std::collections::HashMap;
use std::fmt;

const BYTES_PER_MB: f64 = 1_000_000.0;

/// One pricing tier: traffic up to `up_to_bytes` (cumulative) is charged at
/// `price_per_mb`.
#[derive(Clone, Debug, PartialEq)]
pub struct Tier {
    /// Upper bound (in bytes, cumulative) of the tier; `None` means
    /// unbounded (the final tier).
    pub up_to_bytes: Option<u64>,
    /// Price per megabyte within the tier.
    pub price_per_mb: f64,
}

/// A rate plan: a flat subscription fee plus tiered per-megabyte pricing.
#[derive(Clone, Debug, PartialEq)]
pub struct RatePlan {
    /// Human-readable plan name (appears on invoices).
    pub name: String,
    /// Flat fee charged regardless of usage.
    pub flat_fee: f64,
    /// Pricing tiers in increasing order of `up_to_bytes`; the last tier
    /// should be unbounded.
    pub tiers: Vec<Tier>,
}

impl RatePlan {
    /// A flat-rate plan: a single price per megabyte, no subscription fee.
    pub fn flat(name: &str, price_per_mb: f64) -> Self {
        RatePlan {
            name: name.to_string(),
            flat_fee: 0.0,
            tiers: vec![Tier {
                up_to_bytes: None,
                price_per_mb,
            }],
        }
    }

    /// A tiered plan: `included_bytes` are covered by the flat fee, traffic
    /// beyond that is charged per megabyte.
    pub fn tiered(name: &str, flat_fee: f64, included_bytes: u64, overage_per_mb: f64) -> Self {
        RatePlan {
            name: name.to_string(),
            flat_fee,
            tiers: vec![
                Tier {
                    up_to_bytes: Some(included_bytes),
                    price_per_mb: 0.0,
                },
                Tier {
                    up_to_bytes: None,
                    price_per_mb: overage_per_mb,
                },
            ],
        }
    }

    /// The charge for `bytes` of attributed traffic under this plan.
    pub(crate) fn charge(&self, bytes: u64) -> f64 {
        let mut remaining = bytes;
        let mut previous_bound = 0u64;
        let mut total = self.flat_fee;
        for tier in &self.tiers {
            if remaining == 0 {
                break;
            }
            let span = match tier.up_to_bytes {
                Some(bound) => bound.saturating_sub(previous_bound),
                None => remaining,
            };
            let in_tier = remaining.min(span);
            total += in_tier as f64 / BYTES_PER_MB * tier.price_per_mb;
            remaining -= in_tier;
            if let Some(bound) = tier.up_to_bytes {
                previous_bound = bound;
            }
        }
        total
    }
}

/// The bill of one principal.
#[derive(Clone, Debug, PartialEq)]
pub struct Invoice {
    /// The billed principal's location value.
    pub principal: Value,
    /// Name of the rate plan applied.
    pub plan: String,
    /// Attributed bytes.
    pub bytes: u64,
    /// The resulting charge.
    pub amount: f64,
}

/// A billing run over an accountability report.
#[derive(Clone, Debug, Default)]
pub struct BillingRun {
    /// One invoice per principal, sorted by descending amount.
    pub invoices: Vec<Invoice>,
}

impl BillingRun {
    /// Bills every principal of `report` under `default_plan`, except those
    /// with an entry in `overrides` (the "diverse" billing of the paper's
    /// introduction: different principals may be on different plans).
    pub fn compute(
        report: &AccountabilityReport,
        default_plan: &RatePlan,
        overrides: &HashMap<Value, RatePlan>,
    ) -> Self {
        let mut invoices: Vec<Invoice> = report
            .usage
            .iter()
            .map(|usage| {
                let plan = overrides.get(&usage.location).unwrap_or(default_plan);
                Invoice {
                    principal: usage.location.clone(),
                    plan: plan.name.clone(),
                    bytes: usage.bytes_sent,
                    amount: plan.charge(usage.bytes_sent),
                }
            })
            .collect();
        invoices.sort_by(|a, b| {
            b.amount
                .partial_cmp(&a.amount)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.principal.cmp(&b.principal))
        });
        BillingRun { invoices }
    }

    /// Total revenue of the run.
    pub fn total(&self) -> f64 {
        self.invoices.iter().map(|i| i.amount).sum()
    }
}

impl fmt::Display for BillingRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:<16} {:>12} {:>10}",
            "principal", "plan", "bytes", "amount"
        )?;
        for invoice in &self.invoices {
            writeln!(
                f,
                "{:<12} {:<16} {:>12} {:>10.4}",
                invoice.principal.to_string(),
                invoice.plan,
                invoice.bytes,
                invoice.amount
            )?;
        }
        writeln!(f, "total: {:.4}", self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accountability::PrincipalUsage;

    fn report(byte_counts: &[(u32, u64)]) -> AccountabilityReport {
        AccountabilityReport {
            usage: byte_counts
                .iter()
                .map(|(node, bytes)| PrincipalUsage {
                    location: Value::Addr(*node),
                    bytes_sent: *bytes,
                    derivations: 0,
                    tuples_stored: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn flat_plan_charges_proportionally() {
        let plan = RatePlan::flat("flat", 2.0);
        assert_eq!(plan.charge(0), 0.0);
        assert!((plan.charge(1_000_000) - 2.0).abs() < 1e-9);
        assert!((plan.charge(2_500_000) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn tiered_plan_charges_only_overage() {
        let plan = RatePlan::tiered("tiered", 10.0, 1_000_000, 4.0);
        // Under the included volume only the flat fee applies.
        assert!((plan.charge(0) - 10.0).abs() < 1e-9);
        assert!((plan.charge(999_999) - 10.0).abs() < 1e-9);
        // One megabyte of overage.
        assert!((plan.charge(2_000_000) - 14.0).abs() < 1e-9);
    }

    #[test]
    fn multi_tier_plans_charge_progressively() {
        let plan = RatePlan {
            name: "progressive".into(),
            flat_fee: 0.0,
            tiers: vec![
                Tier {
                    up_to_bytes: Some(1_000_000),
                    price_per_mb: 1.0,
                },
                Tier {
                    up_to_bytes: Some(3_000_000),
                    price_per_mb: 2.0,
                },
                Tier {
                    up_to_bytes: None,
                    price_per_mb: 5.0,
                },
            ],
        };
        // 1 MB at 1.0 + 2 MB at 2.0 + 1 MB at 5.0.
        assert!((plan.charge(4_000_000) - 10.0).abs() < 1e-9);
        // Entirely inside the first tier.
        assert!((plan.charge(500_000) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn billing_run_applies_overrides_and_sorts_by_amount() {
        let report = report(&[(0, 3_000_000), (1, 1_000_000), (2, 0)]);
        let default_plan = RatePlan::flat("standard", 1.0);
        let mut overrides = HashMap::new();
        overrides.insert(Value::Addr(1), RatePlan::flat("premium", 10.0));

        let run = BillingRun::compute(&report, &default_plan, &overrides);
        assert_eq!(run.invoices.len(), 3);
        // Principal 1 pays the premium rate and tops the bill despite sending
        // less traffic.
        assert_eq!(run.invoices[0].principal, Value::Addr(1));
        assert_eq!(run.invoices[0].plan, "premium");
        assert!((run.invoices[0].amount - 10.0).abs() < 1e-9);
        assert!((run.total() - 13.0).abs() < 1e-9);
        let invoice_for = |p: Value| run.invoices.iter().find(|i| i.principal == p);
        assert_eq!(invoice_for(Value::Addr(2)).unwrap().amount, 0.0);
        assert!(invoice_for(Value::Addr(9)).is_none());
        let rendered = run.to_string();
        assert!(rendered.contains("premium"));
        assert!(rendered.contains("total"));
    }

    #[test]
    fn empty_report_produces_an_empty_run() {
        let run = BillingRun::compute(
            &AccountabilityReport::default(),
            &RatePlan::flat("standard", 1.0),
            &HashMap::new(),
        );
        assert!(run.invoices.is_empty());
        assert_eq!(run.total(), 0.0);
    }
}
