//! The evaluation harness: regenerates Figures 3 and 4 and the summary
//! statistics of Section 6.
//!
//! The paper runs the Best-Path query over random topologies of N = 10..100
//! nodes (average out-degree three) under three system variants — NDLog,
//! SeNDLog (authenticated) and SeNDLogProv (authenticated + condensed
//! provenance) — and reports query completion time (Figure 3) and total
//! bandwidth (Figure 4), averaged over 10 runs.  [`run_sweep`] reproduces
//! that protocol; [`Summary`] computes the relative-overhead statistics the
//! paper quotes (53% / 36% average SeNDLog overhead, 41% / 54% SeNDLogProv
//! overhead, both shrinking at N = 100).

use crate::network::SecureNetwork;
use crate::programs;
use crate::workload::evaluation_topology;
use pasn_engine::{EngineConfig, EngineError, RunMetrics, SystemVariant};
use pasn_net::CostModel;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Parameters of a Best-Path evaluation sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Network sizes to evaluate (the paper uses 10, 20, ..., 100).
    pub sizes: Vec<u32>,
    /// Independent runs (distinct random topologies) averaged per point; the
    /// paper averages 10.
    pub runs_per_point: u32,
    /// Base random seed.
    pub seed: u64,
    /// RSA modulus size used by the authenticated variants.
    pub rsa_modulus_bits: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            sizes: (1..=10).map(|i| i * 10).collect(),
            runs_per_point: 10,
            seed: 0x1cde_2008,
            rsa_modulus_bits: 512,
        }
    }
}

/// One measured point of the evaluation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExperimentPoint {
    /// Number of nodes.
    pub n: u32,
    /// System variant name (`NDLog`, `SeNDLog`, `SeNDLogProv`).
    pub variant: String,
    /// Query completion time in seconds (Figure 3's y-axis), averaged over
    /// the runs.
    pub completion_secs: f64,
    /// Bandwidth utilization in MB (Figure 4's y-axis), averaged over the
    /// runs.
    pub megabytes: f64,
    /// Average number of inter-node messages.
    pub messages: f64,
    /// Average number of rule firings.
    pub derivations: f64,
    /// Average number of signatures generated.
    pub signatures: f64,
}

/// Runs one (N, variant) point: `runs` topologies, metrics averaged.
pub fn run_point(
    n: u32,
    variant: SystemVariant,
    config: &SweepConfig,
    cost_model: CostModel,
) -> Result<ExperimentPoint, EngineError> {
    let mut completion = 0.0;
    let mut megabytes = 0.0;
    let mut messages = 0.0;
    let mut derivations = 0.0;
    let mut signatures = 0.0;
    for run in 0..config.runs_per_point {
        let metrics = run_best_path_once(n, variant, config, cost_model, run as u64)?;
        completion += metrics.completion_secs();
        megabytes += metrics.megabytes();
        messages += metrics.messages as f64;
        derivations += metrics.derivations as f64;
        signatures += metrics.signatures as f64;
    }
    let runs = config.runs_per_point.max(1) as f64;
    Ok(ExperimentPoint {
        n,
        variant: variant.name().to_string(),
        completion_secs: completion / runs,
        megabytes: megabytes / runs,
        messages: messages / runs,
        derivations: derivations / runs,
        signatures: signatures / runs,
    })
}

/// Runs the Best-Path query once for a given size, variant and run index.
fn run_best_path_once(
    n: u32,
    variant: SystemVariant,
    config: &SweepConfig,
    cost_model: CostModel,
    run: u64,
) -> Result<RunMetrics, EngineError> {
    let topology_seed = config
        .seed
        .wrapping_mul(31)
        .wrapping_add(n as u64)
        .wrapping_add(run.wrapping_mul(7919));
    let topology = evaluation_topology(n, topology_seed);
    let mut engine_config: EngineConfig = variant.config();
    engine_config.cost_model = cost_model;
    engine_config.rsa_modulus_bits = config.rsa_modulus_bits;
    engine_config.key_seed = config.seed;
    let mut network = SecureNetwork::builder()
        .program(programs::best_path())
        .topology(topology)
        .config(engine_config)
        .build()?;
    network.engine_mut().run_to_fixpoint()
}

/// Runs the full sweep under the paper's cost model: every size × every
/// variant.
pub fn run_sweep(config: &SweepConfig) -> Result<Vec<ExperimentPoint>, EngineError> {
    let mut points = Vec::new();
    for &n in &config.sizes {
        for variant in SystemVariant::ALL {
            points.push(run_point(n, variant, config, CostModel::paper_2008())?);
        }
    }
    Ok(points)
}

/// The overhead statistics the paper quotes in Section 6.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Summary {
    /// Average SeNDLog-over-NDLog completion-time overhead (paper: ~53%).
    pub sendlog_time_overhead: f64,
    /// Average SeNDLog-over-NDLog bandwidth overhead (paper: ~36%).
    pub sendlog_bandwidth_overhead: f64,
    /// SeNDLog overheads at the largest N (paper: 44% / 17% at N = 100).
    pub sendlog_time_overhead_at_max: f64,
    /// SeNDLog bandwidth overhead at the largest N.
    pub sendlog_bandwidth_overhead_at_max: f64,
    /// Average SeNDLogProv-over-SeNDLog completion-time overhead (paper: ~41%).
    pub prov_time_overhead: f64,
    /// Average SeNDLogProv-over-SeNDLog bandwidth overhead (paper: ~54%).
    pub prov_bandwidth_overhead: f64,
    /// SeNDLogProv overheads at the largest N (paper: 6% / 10% at N = 100).
    pub prov_time_overhead_at_max: f64,
    /// SeNDLogProv bandwidth overhead at the largest N.
    pub prov_bandwidth_overhead_at_max: f64,
    /// The largest N in the sweep.
    pub max_n: u32,
}

/// Groups points by size, then by variant name.
fn by_size(points: &[ExperimentPoint]) -> BTreeMap<u32, BTreeMap<String, ExperimentPoint>> {
    let mut map: BTreeMap<u32, BTreeMap<String, ExperimentPoint>> = BTreeMap::new();
    for p in points {
        map.entry(p.n)
            .or_default()
            .insert(p.variant.clone(), p.clone());
    }
    map
}

/// Computes the Section 6 summary statistics from a sweep.
pub fn summarize(points: &[ExperimentPoint]) -> Summary {
    let grouped = by_size(points);
    let mut summary = Summary::default();
    let mut sendlog_time = Vec::new();
    let mut sendlog_bw = Vec::new();
    let mut prov_time = Vec::new();
    let mut prov_bw = Vec::new();
    for (n, variants) in &grouped {
        let (Some(nd), Some(se), Some(sp)) = (
            variants.get("NDLog"),
            variants.get("SeNDLog"),
            variants.get("SeNDLogProv"),
        ) else {
            continue;
        };
        let st = se.completion_secs / nd.completion_secs - 1.0;
        let sb = se.megabytes / nd.megabytes - 1.0;
        let pt = sp.completion_secs / se.completion_secs - 1.0;
        let pb = sp.megabytes / se.megabytes - 1.0;
        sendlog_time.push(st);
        sendlog_bw.push(sb);
        prov_time.push(pt);
        prov_bw.push(pb);
        if *n >= summary.max_n {
            summary.max_n = *n;
            summary.sendlog_time_overhead_at_max = st;
            summary.sendlog_bandwidth_overhead_at_max = sb;
            summary.prov_time_overhead_at_max = pt;
            summary.prov_bandwidth_overhead_at_max = pb;
        }
    }
    let avg = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    summary.sendlog_time_overhead = avg(&sendlog_time);
    summary.sendlog_bandwidth_overhead = avg(&sendlog_bw);
    summary.prov_time_overhead = avg(&prov_time);
    summary.prov_bandwidth_overhead = avg(&prov_bw);
    summary
}

/// Renders a figure as a markdown table: one row per N, one column per
/// variant; `metric` selects completion time (Figure 3) or bandwidth
/// (Figure 4).
pub fn render_figure(points: &[ExperimentPoint], metric: FigureMetric) -> String {
    let grouped = by_size(points);
    let mut out = String::new();
    let unit = match metric {
        FigureMetric::CompletionTime => "s",
        FigureMetric::Bandwidth => "MB",
    };
    let _ = writeln!(
        out,
        "| N | NDLog ({unit}) | SeNDLog ({unit}) | SeNDLogProv ({unit}) |"
    );
    let _ = writeln!(out, "|---|---|---|---|");
    for (n, variants) in grouped {
        let value = |name: &str| {
            variants
                .get(name)
                .map(|p| match metric {
                    FigureMetric::CompletionTime => p.completion_secs,
                    FigureMetric::Bandwidth => p.megabytes,
                })
                .unwrap_or(f64::NAN)
        };
        let _ = writeln!(
            out,
            "| {n} | {:.2} | {:.2} | {:.2} |",
            value("NDLog"),
            value("SeNDLog"),
            value("SeNDLogProv"),
        );
    }
    out
}

/// Which figure to render.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FigureMetric {
    /// Figure 3: query completion time.
    CompletionTime,
    /// Figure 4: bandwidth utilization.
    Bandwidth,
}

/// Renders the Section 6 summary in the same phrasing as the paper.
pub fn render_summary(summary: &Summary) -> String {
    format!(
        "SeNDlog overhead: authenticated communication adds {:.0}% completion time and {:.0}% \
         bandwidth on average vs NDLog (at N={}: {:.0}% / {:.0}%).\n\
         Condensed provenance overhead: SeNDLogProv adds {:.0}% completion time and {:.0}% \
         bandwidth on average vs SeNDLog (at N={}: {:.0}% / {:.0}%).\n",
        summary.sendlog_time_overhead * 100.0,
        summary.sendlog_bandwidth_overhead * 100.0,
        summary.max_n,
        summary.sendlog_time_overhead_at_max * 100.0,
        summary.sendlog_bandwidth_overhead_at_max * 100.0,
        summary.prov_time_overhead * 100.0,
        summary.prov_bandwidth_overhead * 100.0,
        summary.max_n,
        summary.prov_time_overhead_at_max * 100.0,
        summary.prov_bandwidth_overhead_at_max * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_points() -> Vec<ExperimentPoint> {
        let mut points = Vec::new();
        for (n, base) in [(10u32, 10.0f64), (100, 100.0)] {
            // Overheads shrink with N, as in the paper.
            let (se_t, se_b, sp_t, sp_b) = if n == 10 {
                (1.6, 1.5, 1.7, 1.9)
            } else {
                (1.44, 1.17, 1.06, 1.10)
            };
            points.push(ExperimentPoint {
                n,
                variant: "NDLog".into(),
                completion_secs: base,
                megabytes: base,
                messages: 0.0,
                derivations: 0.0,
                signatures: 0.0,
            });
            points.push(ExperimentPoint {
                n,
                variant: "SeNDLog".into(),
                completion_secs: base * se_t,
                megabytes: base * se_b,
                messages: 0.0,
                derivations: 0.0,
                signatures: 0.0,
            });
            points.push(ExperimentPoint {
                n,
                variant: "SeNDLogProv".into(),
                completion_secs: base * se_t * sp_t,
                megabytes: base * se_b * sp_b,
                messages: 0.0,
                derivations: 0.0,
                signatures: 0.0,
            });
        }
        points
    }

    #[test]
    fn summary_computes_average_and_at_max_overheads() {
        let summary = summarize(&synthetic_points());
        assert_eq!(summary.max_n, 100);
        assert!((summary.sendlog_time_overhead - 0.52).abs() < 1e-9);
        assert!((summary.sendlog_time_overhead_at_max - 0.44).abs() < 1e-9);
        assert!((summary.prov_bandwidth_overhead_at_max - 0.10).abs() < 1e-9);
        let rendered = render_summary(&summary);
        assert!(rendered.contains("SeNDlog overhead"));
        assert!(rendered.contains("N=100"));
    }

    #[test]
    fn figure_rendering_produces_markdown_tables() {
        let points = synthetic_points();
        let fig3 = render_figure(&points, FigureMetric::CompletionTime);
        assert!(fig3.contains("| N | NDLog (s)"));
        assert!(fig3.lines().count() >= 4);
        let fig4 = render_figure(&points, FigureMetric::Bandwidth);
        assert!(fig4.contains("MB"));
    }

    #[test]
    fn default_sweep_is_the_papers() {
        let full = SweepConfig::default();
        assert_eq!(full.sizes, vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(full.runs_per_point, 10);
    }

    // The full sweep is exercised by the bench harness; here we only check a
    // single tiny point end to end so the test suite stays fast.
    #[test]
    fn single_point_runs_end_to_end() {
        let config = SweepConfig {
            sizes: vec![6],
            runs_per_point: 1,
            seed: 3,
            rsa_modulus_bits: 512,
        };
        let nd = run_point(6, SystemVariant::NDLog, &config, CostModel::paper_2008()).unwrap();
        let se = run_point(6, SystemVariant::SeNDLog, &config, CostModel::paper_2008()).unwrap();
        assert_eq!(nd.n, 6);
        assert!(nd.completion_secs > 0.0);
        assert!(se.completion_secs > nd.completion_secs);
        assert!(se.megabytes > nd.megabytes);
        assert!(se.signatures > 0.0);
        assert_eq!(nd.signatures, 0.0);
    }
}
