//! The locate op: the calls `omislice locate` makes, in the same order,
//! in process and with the command-line defaults (jobs 1, resume auto,
//! the default scheduler, a fresh shared verification memo per op).

use crate::cases::Case;
use omislice::omislice_interp::{run_traced, RunConfig};
use omislice::omislice_lang::printer::stmt_head;
use omislice::omislice_lang::{compile, Program, StmtId};
use omislice::omislice_slicing::ValueProfile;
use omislice::omislice_trace::{take_recovery, Supervisor, Trace};
use omislice::prelude::ProgramAnalysis;
use omislice::{
    locate_fault, render_report, GroundTruthOracle, LocateConfig, LocateOutcome, VerifyMemo,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// Optional lap clock: records the time since the previous lap under a
/// phase name when enabled, and does nothing otherwise. The phase names
/// are the per-layer metrics the self-times are published under.
pub struct Laps {
    last: Option<Instant>,
    /// Recorded `(phase, self time)` pairs, in order.
    pub laps: Vec<(&'static str, Duration)>,
}

impl Laps {
    /// A clock that records nothing.
    pub fn off() -> Laps {
        Laps {
            last: None,
            laps: Vec::new(),
        }
    }

    /// A clock that starts now.
    pub fn on() -> Laps {
        Laps {
            last: Some(Instant::now()),
            laps: Vec::new(),
        }
    }

    fn lap(&mut self, phase: &'static str) {
        if let Some(last) = self.last {
            let now = Instant::now();
            self.laps.push((phase, now - last));
            self.last = Some(now);
        }
    }
}

/// Everything one op built, for the output checks and the traced run's
/// off-path probes.
pub struct OpRun {
    /// The compiled faulty program.
    pub faulty: Program,
    /// The compiled fixed program.
    pub fixed: Program,
    /// Analysis of the faulty program.
    pub analysis: ProgramAnalysis,
    /// The run configuration (inputs, default budget).
    pub config: RunConfig,
    /// The failing trace.
    pub trace: Trace,
    /// The value profile built from the failing trace.
    pub profile: ValueProfile,
    /// Seeded roots from the fixed/faulty diff.
    pub roots: Vec<StmtId>,
    /// The configuration the locator ran with.
    pub lc: LocateConfig,
    /// The locator's result.
    pub outcome: LocateOutcome,
    /// The human report, as `omislice locate` prints it.
    pub report: String,
}

impl OpRun {
    /// Whether the final pruned slice contains a seeded root.
    pub fn root_in_slice(&self) -> bool {
        self.roots
            .iter()
            .any(|r| self.outcome.ips.contains_stmt(*r))
    }
}

/// Runs one locate op on `case`. With `trace_in`, the failing trace is
/// loaded from that file (the `--trace-in` path) instead of recorded.
///
/// # Errors
///
/// Returns a description of whichever step failed.
pub fn locate_op(case: &Case, trace_in: Option<&Path>, laps: &mut Laps) -> Result<OpRun, String> {
    locate_op_supervised(case, trace_in, laps, &Supervisor::new())
}

/// [`locate_op`] under a given supervisor (the command line builds one
/// from `--chaos` and `--deadline`; the default has neither).
///
/// # Errors
///
/// Returns a description of whichever step failed.
pub fn locate_op_supervised(
    case: &Case,
    trace_in: Option<&Path>,
    laps: &mut Laps,
    sup: &Supervisor,
) -> Result<OpRun, String> {
    let faulty = compile(&case.faulty_src).map_err(|e| format!("faulty: {e:?}"))?;
    let fixed = compile(case.fixed_src).map_err(|e| format!("fixed: {e:?}"))?;
    let config = RunConfig::with_inputs(case.inputs.clone());
    laps.lap("lang.compile_ms");

    let analysis = ProgramAnalysis::build(&faulty);
    let fixed_analysis = ProgramAnalysis::build(&fixed);
    laps.lap("analysis.build_ms");

    let trace = match trace_in {
        Some(path) => {
            let trace = sup
                .load_trace(path)
                .map_err(|e| format!("cannot load `{}`: {e}", path.display()))?;
            laps.lap("trace.load_ms");
            trace
        }
        None => {
            let trace = sup.run(|| run_traced(&faulty, &analysis, &config).trace);
            laps.lap("interp.base_trace_ms");
            trace
        }
    };
    let _ = sup.check_deadline();

    let mut profile = ValueProfile::new();
    profile.add_trace(&trace);
    laps.lap("slicing.profile_ms");

    let roots = omislice_corpus::try_seeded_roots(&fixed, &faulty)?;
    if roots.is_empty() {
        return Err("fixed and faulty programs are identical".into());
    }
    let oracle = GroundTruthOracle::new(&fixed, &fixed_analysis, &config, roots.clone());
    let lc = LocateConfig {
        memo: Some(VerifyMemo::shared()),
        deadline: sup.deadline(),
        ..LocateConfig::default()
    };
    laps.lap("omission.oracle_ms");

    let outcome = locate_fault(&faulty, &analysis, &config, &trace, &profile, &oracle, &lc)
        .map_err(|e| e.to_string())?;
    laps.lap("omission.locate_ms");

    let _ = take_recovery();
    let mut report = render_report(&outcome, &trace, &analysis);
    report.push('\n');
    report.push_str("seeded root statement(s):\n");
    for r in &roots {
        if let Some(stmt) = faulty.stmt(*r) {
            report.push_str(&format!("  {r} {}\n", stmt_head(stmt)));
        }
    }
    laps.lap("obs.report_ms");

    Ok(OpRun {
        faulty,
        fixed,
        analysis,
        config,
        trace,
        profile,
        roots,
        lc,
        outcome,
        report,
    })
}

/// The report with its `re-executions` line removed. A served report may
/// differ from an in-process one only there: the server's verification
/// memo outlives requests, so a repeat request re-executes less.
pub fn strip_reexecutions(report: &str) -> String {
    report
        .lines()
        .filter(|l| !l.starts_with("re-executions"))
        .map(|l| format!("{l}\n"))
        .collect()
}
