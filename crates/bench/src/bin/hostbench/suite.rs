//! The suite: every workload, each measured in its own sequential child
//! process (so `VmHWM` is per workload and no run warms another's caches),
//! once with every recorder off and once traced, assembled into one JSON
//! document that prints every metric by name with its unit.

use crate::catalog::{Better, END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::run::Outcome;
use crate::workloads::Workload;
use crate::ENGINE_ENV_OVERRIDES;
use std::process::{Command, Stdio};

pub struct SuiteArgs {
    /// `--workload NAME`: run only this one.
    pub only: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    /// 2 = self-agreement mode: measure everything twice and compare.
    pub repeat: u32,
}

/// Version of the document layout; bump on any change a reader could trip on.
const SCHEMA: &str = "pasn-hostbench/1";

/// One workload's two runs.
pub struct Measured {
    pub workload: Workload,
    pub end_to_end: Outcome,
    pub per_layer: Outcome,
}

/// Runs the suite and prints the document.  Returns whether every
/// correctness check passed (and, with `--repeat 2`, whether the two sets of
/// runs agree within each metric's own bound).
pub fn run(args: SuiteArgs) -> bool {
    let mut ok = true;
    let mut sets = Vec::new();
    for pass in 0..args.repeat {
        let mut set = Vec::new();
        for workload in Workload::ALL {
            if args.only.is_some_and(|only| only != workload) {
                continue;
            }
            eprintln!(
                "hostbench: {} (pass {} of {})",
                workload.name(),
                pass + 1,
                args.repeat
            );
            match (child(&args, workload, false), child(&args, workload, true)) {
                (Ok(end_to_end), Ok(per_layer)) => set.push(Measured {
                    workload,
                    end_to_end,
                    per_layer,
                }),
                (Err(error), _) | (_, Err(error)) => {
                    eprintln!("hostbench: {}: {error}", workload.name());
                    ok = false;
                }
            }
        }
        sets.push(set);
    }
    let mut doc = document(&args, &sets[0]);
    ok &= all_correct(&sets[0]);
    if let [first, second] = sets.as_slice() {
        ok &= all_correct(second);
        let (rows, agree) = agreement(first, second);
        ok &= agree;
        if let Json::Obj(pairs) = &mut doc {
            pairs.push(("repeat".into(), Json::Arr(rows)));
            pairs.push(("repeat_agrees".into(), Json::Bool(agree)));
        }
    }
    print!("{}", doc.render_pretty());
    ok
}

/// Spawns one measurement as a child process with the engine's environment
/// overrides removed, and reads its detail and result lines back.
fn child(args: &SuiteArgs, workload: Workload, trace: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.quick {
        command.arg("--quick");
    }
    for name in ENGINE_ENV_OVERRIDES {
        command.env_remove(name);
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev().filter(|line| !line.trim().is_empty());
    let result = lines.next().ok_or("child printed no result line")?;
    let detail = lines.next().ok_or("child printed no detail line")?;
    Ok(Outcome {
        result: Json::parse(result)?,
        detail: Json::parse(detail)?,
    })
}

fn all_correct(set: &[Measured]) -> bool {
    set.iter().all(|m| {
        [&m.end_to_end, &m.per_layer]
            .iter()
            .all(|o| o.result.get("correct").and_then(Json::as_bool) == Some(true))
    })
}

/// `schema`, `mode`, seed and the host descriptor: enough to tell whether
/// two documents may be compared at all.
fn header(args: &SuiteArgs) -> Vec<(String, Json)> {
    let tool = |program: &str, arguments: &[&str]| {
        Command::new(program)
            .args(arguments)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .filter(|text| !text.is_empty())
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("schema".into(), Json::str(SCHEMA)),
        (
            "mode".into(),
            Json::str(if args.quick { "quick" } else { "full" }),
        ),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("run_seconds".into(), Json::Num(args.seconds)),
        (
            "host".into(),
            Json::obj([
                ("nproc", Json::Num(nproc as f64)),
                ("rustc", Json::Str(tool("rustc", &["-V"]))),
                ("git_rev", Json::Str(tool("git", &["rev-parse", "HEAD"]))),
            ]),
        ),
    ]
}

/// The suite document: header, the metric definitions, then per workload
/// every end-to-end metric (with quartiles and sample count) and every
/// per-layer metric, each by name with its unit.
pub fn document(args: &SuiteArgs, set: &[Measured]) -> Json {
    let mut doc = header(args);
    if args.quick {
        doc.push((
            "note".into(),
            Json::str(
                "quick mode: sizes / 4, one repetition — a smoke test, not comparable \
                 with a full run",
            ),
        ));
    }
    doc.push((
        "end_to_end".into(),
        Json::Arr(
            END_TO_END
                .iter()
                .map(|m| {
                    Json::obj([
                        ("name", Json::str(m.name)),
                        ("unit", Json::str(m.unit)),
                        ("better", Json::str(m.better.as_str())),
                        ("bound", Json::Num(m.bound)),
                        ("what", Json::str(m.what)),
                    ])
                })
                .collect(),
        ),
    ));
    doc.push((
        "per_layer".into(),
        Json::Arr(
            PER_LAYER
                .iter()
                .map(|m| {
                    Json::obj([
                        ("name", Json::str(m.name)),
                        ("layer", Json::str(m.layer())),
                        ("unit", Json::str(m.unit)),
                        ("better", Json::str(m.better.as_str())),
                        ("moves", Json::str(m.moves)),
                    ])
                })
                .collect(),
        ),
    ));
    doc.push((
        "workloads".into(),
        Json::Arr(set.iter().map(workload_report).collect()),
    ));
    Json::Obj(doc)
}

fn workload_report(measured: &Measured) -> Json {
    let count = |outcome: &Outcome, key: &str| {
        outcome
            .result
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let attempted =
        count(&measured.end_to_end, "attempted") + count(&measured.per_layer, "attempted");
    let failed = count(&measured.end_to_end, "failed") + count(&measured.per_layer, "failed");
    // Each end-to-end metric with the quartiles and count behind it.
    let end_to_end = END_TO_END
        .iter()
        .filter_map(|metric| {
            let Json::Obj(mut pairs) = measured
                .end_to_end
                .result
                .get("metrics")?
                .get(metric.name)?
                .clone()
            else {
                return None;
            };
            if let Some(Json::Obj(detail)) = measured.end_to_end.detail.get(metric.name) {
                pairs.extend(detail.iter().cloned());
            }
            Some((metric.name, Json::Obj(pairs)))
        })
        .collect::<Vec<_>>();
    Json::obj([
        ("name", Json::str(measured.workload.name())),
        ("why", Json::str(measured.workload.why())),
        ("correct", Json::Bool(failed == 0.0 && attempted > 0.0)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("failed_share", Json::Num(failed / attempted.max(1.0))),
        ("end_to_end", Json::obj(end_to_end)),
        (
            "per_layer",
            measured
                .per_layer
                .result
                .get("metrics")
                .cloned()
                .unwrap_or(Json::Null),
        ),
        ("span_self_times", measured.per_layer.detail.clone()),
    ])
}

/// `--repeat 2`: per (workload, end-to-end metric) the two medians and how
/// far the second is from the first, as a share of the first, against the
/// metric's own bound; per (workload, count or model output) whether the
/// two runs agree exactly.  Returns the rows and the overall verdict.
pub fn agreement(first: &[Measured], second: &[Measured]) -> (Vec<Json>, bool) {
    let value = |outcome: &Outcome, name: &str| {
        outcome
            .result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
    };
    let mut rows = Vec::new();
    let mut agree = first.len() == second.len();
    for (a, b) in first.iter().zip(second) {
        for metric in END_TO_END {
            let (Some(x), Some(y)) = (
                value(&a.end_to_end, metric.name),
                value(&b.end_to_end, metric.name),
            ) else {
                agree = false;
                continue;
            };
            let worse = match metric.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let within = worse.abs() <= metric.bound;
            agree &= within;
            rows.push(Json::obj([
                ("workload", Json::str(a.workload.name())),
                ("metric", Json::str(metric.name)),
                ("first", Json::Num(x)),
                ("second", Json::Num(y)),
                ("worse_by", Json::Num(worse)),
                ("bound", Json::Num(metric.bound)),
                ("within_bound", Json::Bool(within)),
            ]));
        }
        // Counts and model outputs are exact: any difference is a bug.
        for metric in PER_LAYER
            .iter()
            .filter(|m| m.unit == "count" || m.layer() == "sim")
        {
            let (x, y) = (
                value(&a.per_layer, metric.name),
                value(&b.per_layer, metric.name),
            );
            if x != y || x.is_none() {
                agree = false;
                rows.push(Json::obj([
                    ("workload", Json::str(a.workload.name())),
                    ("metric", Json::str(metric.name)),
                    ("first", x.map_or(Json::Null, Json::Num)),
                    ("second", y.map_or(Json::Null, Json::Num)),
                    ("exact", Json::Bool(false)),
                ]));
            }
        }
    }
    (rows, agree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{self, RunArgs};
    use std::collections::HashMap;

    fn quick(workload: Workload, seed: u64) -> Measured {
        let args = |trace| RunArgs {
            workload,
            seed,
            seconds: 1.0,
            trace,
            quick: true,
        };
        Measured {
            workload,
            end_to_end: run::run(args(false)),
            per_layer: run::run(args(true)),
        }
    }

    fn suite_args() -> SuiteArgs {
        SuiteArgs {
            only: None,
            seed: 2008,
            seconds: 1.0,
            quick: true,
            repeat: 1,
        }
    }

    /// `BENCHMARK.json` at the repository root, five levels up.
    fn benchmark_json() -> Json {
        Json::parse(include_str!("../../../../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn the_document_names_every_benchmark_json_metric_once_per_workload() {
        let contract = benchmark_json();
        let measured: Vec<Measured> = [Workload::BestpathSecprov, Workload::ReachStream]
            .into_iter()
            .map(|w| quick(w, 2008))
            .collect();
        let text = document(&suite_args(), &measured).render_pretty();
        let doc = Json::parse(&text).expect("the emitted document parses");
        assert_eq!(doc.get("mode").and_then(Json::as_str), Some("quick"));
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        for key in ["nproc", "rustc", "git_rev"] {
            assert!(doc.get("host").unwrap().get(key).is_some(), "host.{key}");
        }
        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), 2);
        for report in workloads {
            assert_eq!(report.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(report.get("failed_share"), Some(&Json::Num(0.0)));
            for (section, key) in [("end_to_end", "end_to_end"), ("per_layer", "per_layer")] {
                let printed = report.get(section).and_then(Json::as_obj).unwrap();
                let mut seen: HashMap<&str, usize> = HashMap::new();
                for (name, metric) in printed {
                    *seen.entry(name).or_default() += 1;
                    assert!(
                        metric.get("value").and_then(Json::as_f64).is_some(),
                        "{name}"
                    );
                    assert!(
                        metric.get("unit").and_then(Json::as_str).is_some(),
                        "{name}"
                    );
                }
                let wanted = names(&contract, key);
                assert_eq!(seen.len(), wanted.len(), "{section} metric count");
                for name in wanted {
                    assert_eq!(seen.get(name.as_str()), Some(&1), "{section}: {name}");
                }
            }
            // The busy-time attribution sums to the whole by construction,
            // and no part of it is negative.
            let layers = report.get("per_layer").and_then(Json::as_obj).unwrap();
            let value = |name: &str| {
                let metric = &layers.iter().find(|(n, _)| n == name).expect(name).1;
                metric.get("value").and_then(Json::as_f64).unwrap()
            };
            let mut parts = value("runtime.residual_s");
            for (name, _) in layers.iter().filter(|(n, _)| n.ends_with(".busy_s_est")) {
                assert!(value(name) >= 0.0, "{name} is negative");
                parts += value(name);
            }
            let whole = value("runtime.fixpoint_s");
            assert!((parts - whole).abs() <= 1e-9 * whole, "{parts} vs {whole}");
            assert!(value("trace.overhead_ratio") > 0.0);
        }
    }

    #[test]
    fn benchmark_json_follows_the_catalogue() {
        let contract = benchmark_json();
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names(&contract, "workloads"), workloads);
        for (entry, workload) in contract
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(Workload::ALL)
        {
            let why = entry.get("why").and_then(Json::as_str).unwrap();
            assert_eq!(why, workload.why());
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        let end_to_end = contract.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, metric) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(metric.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(metric.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(metric.better.as_str())
            );
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                Some(metric.bound)
            );
        }
        let per_layer = contract.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, metric) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(metric.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(metric.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(metric.better.as_str())
            );
        }
        assert_eq!(
            contract.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn self_agreement_holds_counts_exact_and_timings_to_their_bounds() {
        let first = [quick(Workload::LossySession, 5)];
        let second = [quick(Workload::LossySession, 5)];
        let (rows, _) = agreement(&first, &second);
        // Timings of a quick run may disagree; counts and model outputs of
        // the same seed may not.
        assert!(
            rows.iter().all(|row| row.get("exact").is_none()),
            "{rows:?}"
        );
        assert_eq!(rows.len(), END_TO_END.len());
        // Another seed is another input: its counts must be told apart.
        let other = [quick(Workload::LossySession, 6)];
        let (rows, agree) = agreement(&first, &other);
        assert!(!agree);
        assert!(rows
            .iter()
            .any(|row| row.get("exact") == Some(&Json::Bool(false))));
    }
}
