//! The benchmark's inputs: reproducible from the seed, every case
//! exposing its fault, and the grep stall still a stall.
//!
//! Run with `cargo test --release --manifest-path perfbench/harness/Cargo.toml`
//! (a debug build makes the grep screening slow).

use omislice::omislice_lang::compile;
use omislice_perfbench::cases::{draw_case, exposes};
use omislice_perfbench::pipeline::{locate_op, Laps};
use omislice_perfbench::workloads::{plan, COLD_SPEC, COLD_STREAM, WORKLOADS};

#[test]
fn same_seed_same_inputs() {
    for workload in WORKLOADS {
        let a = plan(workload, 7).unwrap();
        let b = plan(workload, 7).unwrap();
        assert_eq!(a, b, "{workload}");
        let c = plan(workload, 8).unwrap();
        assert_ne!(
            a.cases.iter().map(|c| &c.inputs).collect::<Vec<_>>(),
            c.cases.iter().map(|c| &c.inputs).collect::<Vec<_>>(),
            "{workload}: another seed draws other inputs"
        );
    }
    let cold = |i| draw_case(&COLD_SPEC, 7, COLD_STREAM, i).unwrap();
    assert_eq!(cold(3), cold(3));
    assert_ne!(cold(3).inputs, cold(4).inputs);
}

#[test]
fn every_case_exposes_its_fault() {
    for workload in WORKLOADS {
        for case in plan(workload, 7).unwrap().cases {
            let fixed = compile(case.fixed_src).unwrap();
            let faulty = compile(&case.faulty_src).unwrap();
            assert!(
                exposes(&fixed, &faulty, &case.inputs),
                "{workload} {}: fixed and faulty print the same output",
                case.label
            );
        }
    }
}

#[test]
fn grep_case_stalls_at_the_iteration_cap() {
    let p = plan("locate-verify", 7).unwrap();
    let greps: Vec<_> = p.cases.iter().filter(|c| c.bench == "grep").collect();
    assert!(!greps.is_empty(), "locate-verify keeps its grep cases");
    for case in greps {
        let run = locate_op(case, None, &mut Laps::off()).unwrap();
        assert!(
            !run.outcome.found && !run.root_in_slice(),
            "{}: found",
            case.label
        );
        assert_eq!(
            run.outcome.iterations, run.lc.max_iterations,
            "{}",
            case.label
        );
    }
}

#[test]
fn op_list_mixes_trace_and_load_on_the_big_trace_workload() {
    let p = plan("locate-bigtrace", 7).unwrap();
    let loads = p.ops.iter().filter(|op| op.from_file).count();
    assert_eq!(2 * loads, p.ops.len(), "half of the ops load a saved trace");
    for workload in ["locate-verify", "serve-mixed"] {
        assert!(plan(workload, 7)
            .unwrap()
            .ops
            .iter()
            .all(|op| !op.from_file));
    }
    let serve = plan("serve-mixed", 7).unwrap();
    let journals = serve.ops.iter().filter(|op| op.journal).count();
    assert_eq!(
        4 * journals,
        serve.ops.len(),
        "a quarter of warm requests ask for the journal"
    );
}
