//! The benchmark's workloads: which cases each one draws and the fixed
//! op list of one pass. `BENCHMARK.json` and `perfbench/README.md` say
//! why each case is in.

use crate::cases::{draw_case, Case, CaseSpec, Screen};

/// Names accepted by `--workload`.
pub const WORKLOADS: [&str; 3] = ["locate-bigtrace", "locate-verify", "serve-mixed"];

const fn spec(
    label: &'static str,
    bench: &'static str,
    fault: &'static str,
    scale: usize,
    screen: Screen,
) -> CaseSpec {
    CaseSpec {
        label,
        bench,
        fault,
        scale,
        screen,
    }
}

// Trace sizes are stable across draws at these scales (about 215k and
// 52k events). A sed draw whose substitution changes no text (say
// `s/ / /`) fails only in the closing count; its slice spans the whole
// trace and one op runs for minutes, so the sed family keeps draws
// whose edited text is already wrong.
const SED_BIG: CaseSpec = spec(
    "sed-V3-F2-x1000",
    "sed",
    "V3-F2",
    1000,
    Screen::EarlyFailure,
);
const FLEX_BIG: CaseSpec = spec(
    "flex-V3-F10-x2000",
    "flex",
    "V3-F10",
    2000,
    Screen::Exposing,
);
// sed V3-F3 draws fall into two input modes (about 10-12k vs 14-19k
// events at x50); the cap keeps the lower one.
const SED_LEAVES_50: CaseSpec = spec(
    "sed-V3-F3-x50",
    "sed",
    "V3-F3",
    50,
    Screen::MaxEvents(12_000),
);
const SED_LEAVES_100: CaseSpec = spec(
    "sed-V3-F3-x100",
    "sed",
    "V3-F3",
    100,
    Screen::MaxEvents(23_000),
);
const FLEX_LEAVES: CaseSpec = spec("flex-V5-F6-x100", "flex", "V5-F6", 100, Screen::Exposing);
// The escalating run's cost grows with the trace; the cap keeps the
// cheaper third of the draws.
const FLEX_ESCALATE: CaseSpec = spec(
    "flex-V4-F6-x100",
    "flex",
    "V4-F6",
    100,
    Screen::MaxEvents(2_600),
);
const GZIP_ESCALATE: CaseSpec = spec("gzip-V2-F3-x64", "gzip", "V2-F3", 64, Screen::Exposing);
const GREP_STALL: CaseSpec = spec(
    "grep-V4-F2-x10",
    "grep",
    "V4-F2",
    10,
    Screen::Stall {
        max_events: 4_500,
        max_reexecutions: 250,
    },
);

/// The stream cold serve requests draw their fresh versions from.
pub const COLD_SPEC: CaseSpec = FLEX_LEAVES;
/// Stream name of the cold draws (distinct from every workload name, so
/// a cold version never coincides with a hot one).
pub const COLD_STREAM: &str = "serve-mixed/cold";

/// One op of a pass: which case, and whether its failing trace is loaded
/// from the file saved at set-up (the `--trace-in` path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Index into [`Plan::cases`].
    pub case: usize,
    /// Load the trace instead of recording it.
    pub from_file: bool,
    /// Ask for the journal (served requests only).
    pub journal: bool,
}

/// A workload's cases and the op list of one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The drawn cases.
    pub cases: Vec<Case>,
    /// One pass, in order.
    pub ops: Vec<Op>,
}

/// One case family of a workload and its share of a pass.
struct Family {
    spec: CaseSpec,
    /// Independent draws of the family.
    draws: u64,
    /// Ops per pass, spread evenly over the draws.
    ops: usize,
    /// How many of those ops load the trace saved at set-up.
    loads: usize,
}

const fn fam(spec: CaseSpec, draws: u64, ops: usize, loads: usize) -> Family {
    Family {
        spec,
        draws,
        ops,
        loads,
    }
}

/// The families a workload draws from.
///
/// The op counts place p50 and p90 inside one group of like ops, never
/// on the gap between two groups. An op that loads its trace is faster
/// than one that records it (about 100 ms on sed, 10 ms on flex), so on
/// locate-bigtrace the one sed draw's ops all load: they are the top
/// fifth of the pass, and p90 falls in their middle. Of the flex ops, the
/// 6 that load sit below the 10 that record, and p50 falls inside the
/// recording ones. Half of the pass loads a saved trace.
fn families(workload: &str) -> Option<Vec<Family>> {
    Some(match workload {
        "locate-bigtrace" => vec![fam(SED_BIG, 1, 4, 4), fam(FLEX_BIG, 4, 16, 6)],
        "locate-verify" => vec![
            fam(GZIP_ESCALATE, 3, 4, 0),
            fam(FLEX_LEAVES, 3, 4, 0),
            fam(SED_LEAVES_50, 3, 8, 0),
            fam(FLEX_ESCALATE, 3, 3, 0),
            fam(GREP_STALL, 2, 2, 0),
            fam(SED_LEAVES_100, 2, 5, 0),
        ],
        "serve-mixed" => vec![
            fam(GZIP_ESCALATE, 2, 4, 0),
            fam(FLEX_LEAVES, 2, 4, 0),
            fam(SED_LEAVES_50, 2, 8, 0),
        ],
        _ => return None,
    })
}

/// Draws `workload`'s cases for `seed` and lays out one pass.
///
/// # Errors
///
/// Fails on an unknown workload or an unbuildable case.
pub fn plan(workload: &str, seed: u64) -> Result<Plan, String> {
    let fams = families(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let mut cases = Vec::new();
    let mut groups = Vec::new();
    for fam in &fams {
        let first = cases.len();
        let stream = format!("{workload}/{}", fam.spec.label);
        for d in 0..fam.draws {
            cases.push(draw_case(&fam.spec, seed, &stream, d)?);
        }
        groups.push(first..cases.len());
    }
    // Interleave the families: op i of family f goes to slot
    // i * total / ops, so equal latency classes spread over the pass.
    let mut slots: Vec<(usize, usize, Op)> = Vec::new();
    for (f, (group, fam)) in groups.iter().zip(&fams).enumerate() {
        for i in 0..fam.ops {
            let op = Op {
                case: group.start + i % group.len(),
                from_file: i < fam.loads,
                journal: workload == "serve-mixed" && i % 4 == 3,
            };
            slots.push((i * 1000 / fam.ops, f, op));
        }
    }
    slots.sort_by_key(|&(pos, f, _)| (pos, f));
    Ok(Plan {
        cases,
        ops: slots.into_iter().map(|(_, _, op)| op).collect(),
    })
}
