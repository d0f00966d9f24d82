//! Benchmark cases: exposing draws from the corpus workload generator.
//!
//! A case is one corpus fault run on one generated input of a fixed
//! scale. Every draw is derived from `(seed, stream, case index,
//! attempt)` alone, where the stream names the workload and the case
//! family. No generator state is shared between cases, so a case never
//! changes when another case is added, removed or reordered.
//! A draw is kept only when the fixed and the faulty program both end
//! normally on it and print different output.

use omislice::omislice_interp::{run_plain, run_traced, RunConfig};
use omislice::omislice_lang::{compile, Program};
use omislice::omislice_trace::Supervisor;
use omislice::prelude::ProgramAnalysis;
use omislice_corpus::{all_benchmarks, WorkloadGen};

use crate::pipeline::{locate_op_supervised, Laps};

/// Attempts per case before the case is declared unbuildable.
pub const MAX_DRAWS: u64 = 4096;

/// Which draws a case accepts besides "exposes the fault". Every rule
/// is a count, so the accepted draw depends on the seed only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Screen {
    /// Any exposing draw.
    Exposing,
    /// An exposing draw whose first wrong output comes in the first half
    /// of the output, so the failure shows in the program's main output
    /// and not only in a closing summary line.
    EarlyFailure,
    /// An exposing draw whose faulty trace has at most this many events.
    /// Keeps a family in one input mode, so the seed changes the input's
    /// content but not the amount of work.
    MaxEvents(usize),
    /// An exposing draw that reproduces the iteration-cap stall: its
    /// faulty trace has at most `max_events` events, and a screening
    /// locate ends not found at the iteration cap after at most
    /// `max_reexecutions` switched runs. The limits bound the op's cost:
    /// an unscreened draw can thrash the verification memo and run for
    /// minutes.
    Stall {
        max_events: usize,
        max_reexecutions: usize,
    },
}

/// Wall-clock safety net for one screening locate. A draw that needs
/// longer is far past any `max_reexecutions` in use and would be
/// rejected anyway; the net only stops it early.
pub const SCREEN_DEADLINE_MS: u64 = 3_000;

/// A case family: one corpus fault at one input scale.
#[derive(Debug, Clone, Copy)]
pub struct CaseSpec {
    /// Stable label, e.g. `sed-V3-F2-x1000`.
    pub label: &'static str,
    /// Corpus benchmark name.
    pub bench: &'static str,
    /// Corpus fault id.
    pub fault: &'static str,
    /// Payload handed to `WorkloadGen::sized_for_benchmark`.
    pub scale: usize,
    /// Extra acceptance rule for draws.
    pub screen: Screen,
}

/// One concrete case: sources plus the exposing input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// The family this case was drawn from.
    pub label: &'static str,
    /// Corpus benchmark name.
    pub bench: &'static str,
    /// Corpus fault id.
    pub fault: &'static str,
    /// The fault-free source.
    pub fixed_src: &'static str,
    /// The faulty source.
    pub faulty_src: String,
    /// The exposing input.
    pub inputs: Vec<i64>,
    /// Which attempt exposed the fault (0-based).
    pub attempt: u64,
}

/// SplitMix64 finaliser: a well-mixed 64-bit hash step.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generator seed of one draw, from its coordinates only.
pub fn draw_seed(seed: u64, stream: &str, index: u64, attempt: u64) -> u64 {
    let name = stream.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    mix(mix(mix(seed ^ name) ^ index) ^ attempt)
}

/// Whether `inputs` exposes the fault: both runs end normally and print
/// different output.
pub fn exposes(fixed: &Program, faulty: &Program, inputs: &[i64]) -> bool {
    first_difference(fixed, faulty, inputs).is_some()
}

/// When `inputs` exposes the fault: the index of the first output the
/// two runs print differently, and the fixed run's output count.
fn first_difference(fixed: &Program, faulty: &Program, inputs: &[i64]) -> Option<(usize, usize)> {
    let cfg = RunConfig::with_inputs(inputs.to_vec());
    let want = run_plain(fixed, &cfg);
    if !want.is_normal() {
        return None;
    }
    let got = run_plain(faulty, &cfg);
    if !got.is_normal() || got.outputs == want.outputs {
        return None;
    }
    let first = (want.outputs.iter().zip(&got.outputs))
        .position(|(a, b)| a != b)
        .unwrap_or(want.outputs.len().min(got.outputs.len()));
    Some((first, want.outputs.len()))
}

/// Draws case `index` of `stream` for `seed`: the first attempt that
/// exposes the fault and passes the spec's screen.
///
/// # Errors
///
/// Fails when the spec names no corpus fault or no attempt within
/// [`MAX_DRAWS`] is accepted.
pub fn draw_case(spec: &CaseSpec, seed: u64, stream: &str, index: u64) -> Result<Case, String> {
    let bench = all_benchmarks()
        .into_iter()
        .find(|b| b.name == spec.bench)
        .ok_or_else(|| format!("no corpus benchmark `{}`", spec.bench))?;
    let fault = bench
        .fault(spec.fault)
        .ok_or_else(|| format!("no fault {} in {}", spec.fault, spec.bench))?;
    let faulty_src = fault.apply(bench.fixed_src);
    let fixed = compile(bench.fixed_src).map_err(|e| format!("{}: {e:?}", spec.label))?;
    let faulty = compile(&faulty_src).map_err(|e| format!("{}: {e:?}", spec.label))?;
    let analysis = ProgramAnalysis::build(&faulty);
    for attempt in 0..MAX_DRAWS {
        let inputs = WorkloadGen::new(draw_seed(seed, stream, index, attempt))
            .sized_for_benchmark(spec.bench, spec.scale);
        let Some((first_wrong, outputs)) = first_difference(&fixed, &faulty, &inputs) else {
            continue;
        };
        let case = Case {
            label: spec.label,
            bench: bench.name,
            fault: fault.id,
            fixed_src: bench.fixed_src,
            faulty_src: faulty_src.clone(),
            inputs,
            attempt,
        };
        let events = || {
            let cfg = RunConfig::with_inputs(case.inputs.clone());
            run_traced(&faulty, &analysis, &cfg).trace.len()
        };
        let accepted = match spec.screen {
            Screen::Exposing => true,
            Screen::EarlyFailure => 2 * first_wrong < outputs,
            Screen::MaxEvents(max) => events() <= max,
            Screen::Stall {
                max_events,
                max_reexecutions,
            } => events() <= max_events && stalls(&case, max_reexecutions),
        };
        if accepted {
            return Ok(case);
        }
    }
    Err(format!(
        "{}: no accepted draw in {MAX_DRAWS} attempts (seed {seed}, case {index})",
        spec.label
    ))
}

/// Whether a screening locate of `case` ends in the iteration-cap stall
/// within `max_reexecutions` switched runs.
fn stalls(case: &Case, max_reexecutions: usize) -> bool {
    let sup = Supervisor::new().with_deadline_ms(SCREEN_DEADLINE_MS);
    let Ok(run) = locate_op_supervised(case, None, &mut Laps::off(), &sup) else {
        return false;
    };
    let o = &run.outcome;
    !o.found
        && !o.deadline_expired
        && o.iterations == run.lc.max_iterations
        && o.reexecutions <= max_reexecutions
}
