//! A program is compiled completely before any tuple moves: every shipped
//! program still passes the planner's checks, and a program it rejects fails
//! `SecureNetwork::builder().build()` instead of a run that already derived
//! state.

use pasn::prelude::*;
use pasn::programs;
use pasn_datalog::{compile_program, parse_program, PlanError};
use pasn_engine::EngineError;

#[test]
fn every_shipped_program_compiles() {
    let sources = [
        ("REACHABILITY_NDLOG", programs::REACHABILITY_NDLOG),
        ("REACHABILITY_SENDLOG", programs::REACHABILITY_SENDLOG),
        ("BEST_PATH", programs::BEST_PATH),
        ("ROUTE_MONITOR", programs::ROUTE_MONITOR),
        ("DISTANCE_VECTOR", programs::DISTANCE_VECTOR),
        ("PATH_VECTOR", programs::PATH_VECTOR),
        ("PATH_VECTOR_POLICY", programs::PATH_VECTOR_POLICY),
        ("DNSSEC", programs::DNSSEC),
        ("CHORD", programs::CHORD),
    ];
    for (name, source) in sources {
        let program = parse_program(source).unwrap_or_else(|e| panic!("{name}: {e}"));
        let compiled = compile_program(&program).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!compiled.plans.is_empty(), "{name} has rules");
    }
}

#[test]
fn rejected_programs_fail_the_build_before_anything_runs() {
    let cases = [
        (
            "bad path(@S,D,P) :- link(@S,D), P := f_frobnicate(S,D).",
            "unknown function `f_frobnicate`",
        ),
        (
            "bad path(@S,D,P) :- link(@S,D), P := f_init(S).",
            "`f_init` expects 2 arguments, got 1",
        ),
        ("bad best(@S,a_MIN<C>) :- link(@S,D).", "`C`"),
    ];
    for (source, needle) in cases {
        let builder = SecureNetwork::builder().program_text(source).unwrap();
        let err = match builder.topology(Topology::line(3)).build() {
            Ok(_) => panic!("{source}: built"),
            Err(err) => err,
        };
        assert!(
            matches!(
                err,
                EngineError::Compile(PlanError::Plan { .. } | PlanError::Validation(_))
            ),
            "{source}: {err:?}"
        );
        let message = err.to_string();
        assert!(message.contains("rule bad"), "{source}: {message}");
        assert!(message.contains(needle), "{source}: {message}");
    }
}
