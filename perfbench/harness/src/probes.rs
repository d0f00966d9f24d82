//! Per-layer probes for the traced run. Each probe calls one layer's
//! public functions again, from outside the program, on the artifacts a
//! finished op built. Nothing here runs inside a timed end-to-end op.

use crate::pipeline::OpRun;
use omislice::omislice_align::Aligner;
use omislice::omislice_interp::{run_plain, run_traced, ResumeMode, SwitchSpec};
use omislice::omislice_slicing::{prune_slice, relevant_slice_on, DepGraph, Feedback};
use omislice::omislice_trace::{load_trace, save_trace};
use omislice::{build_journal, JournalMeta, RequestPhase, Verifier, VerifyRequest};
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::Instant;

/// Logged requests switched and aligned by the `interp.switched_ms` and
/// `align.*` probes, per case.
pub const ALIGN_SAMPLE: usize = 8;

const MIB: f64 = 1024.0 * 1024.0;

/// Weighted sums of per-layer values. Plain metrics publish the
/// weighted mean; ratio metrics publish a ratio of weighted sums.
#[derive(Debug, Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, (f64, f64)>,
    ratios: BTreeMap<&'static str, (f64, f64)>,
}

impl Layers {
    /// Adds one observation of `name` with weight `w`.
    pub fn add(&mut self, name: &'static str, value: f64, w: f64) {
        let e = self.sums.entry(name).or_default();
        e.0 += value * w;
        e.1 += w;
    }

    /// Adds `num / den` parts of the ratio metric `name`.
    pub fn add_ratio(&mut self, name: &'static str, num: f64, den: f64, w: f64) {
        let e = self.ratios.entry(name).or_default();
        e.0 += num * w;
        e.1 += den * w;
    }

    /// The published value of `name`: a weighted mean or a ratio, 0 when
    /// nothing was observed.
    pub fn value(&self, name: &str) -> f64 {
        if let Some(&(num, den)) = self.ratios.get(name) {
            return if den > 0.0 { num / den } else { 0.0 };
        }
        match self.sums.get(name) {
            Some(&(sum, w)) if w > 0.0 => sum / w,
            _ => 0.0,
        }
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The op's logged verification requests, deduplicated, as the locator
/// issued them (primary requests carry the expected value).
pub fn logged_requests(run: &OpRun) -> Vec<VerifyRequest> {
    let o = &run.outcome;
    let mut seen = HashSet::new();
    o.iteration_log
        .iter()
        .flat_map(|it| it.requests.iter())
        .filter(|r| seen.insert((r.p, r.u, r.var)))
        .map(|r| VerifyRequest {
            p: r.p,
            u: r.u,
            var: r.var,
            wrong_output: o.wrong_output,
            expected: match r.phase {
                RequestPhase::Primary => o.outputs.expected,
                RequestPhase::Secondary => None,
            },
        })
        .collect()
}

/// Runs every off-path probe on one finished op and adds the results to
/// `layers` with weight `w` (the case's share of the pass).
///
/// # Errors
///
/// Fails when the trace cannot be saved or reloaded in `dir`.
pub fn probe(run: &OpRun, dir: &Path, w: f64, layers: &mut Layers) -> Result<(), String> {
    let o = &run.outcome;
    let s = &o.stats;

    // Interpreter: plain vs traced run of the same input.
    let t = Instant::now();
    let plain = run_plain(&run.faulty, &run.config);
    let plain_ms = ms(t);
    let t = Instant::now();
    let fresh = run_traced(&run.faulty, &run.analysis, &run.config).trace;
    let traced_ms = ms(t);
    if !plain.is_normal() || fresh.len() != run.trace.len() {
        return Err("probe re-run diverged from the op's trace".into());
    }
    drop(fresh);
    layers.add("interp.plain_ms", plain_ms, w);
    layers.add("interp.events", run.trace.len() as f64, w);
    layers.add_ratio("interp.trace_over_plain", traced_ms, plain_ms, w);

    // Trace file and index.
    let path = dir.join("probe.omitrace");
    let t = Instant::now();
    save_trace(&run.trace, &path).map_err(|e| format!("probe save: {e}"))?;
    layers.add("trace.save_ms", ms(t), w);
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    layers.add("trace.file_mb", bytes as f64 / MIB, w);
    let loaded = load_trace(&path).map_err(|e| format!("probe load: {e}"))?;
    std::fs::remove_file(&path).ok();
    let t = Instant::now();
    loaded.build_index(run.lc.jobs);
    layers.add("trace.index_ms", ms(t), w);
    drop(loaded);

    // Slicing: graph, dynamic, relevant and pruned slices of o×.
    let wrong = o.wrong_output;
    let t = Instant::now();
    let graph = DepGraph::with_jobs(&run.trace, run.lc.jobs);
    layers.add("slicing.graph_ms", ms(t), w);
    let t = Instant::now();
    let ds = graph.backward_slice(wrong);
    layers.add("slicing.ds_ms", ms(t), w);
    let t = Instant::now();
    let rs = relevant_slice_on(&graph, &run.analysis, wrong, run.lc.jobs);
    layers.add("slicing.rs_ms", ms(t), w);
    let t = Instant::now();
    let pruned = prune_slice(
        &graph,
        &run.analysis,
        &run.profile,
        &o.outputs.correct,
        wrong,
        &Feedback::default(),
    );
    layers.add("slicing.prune_ms", ms(t), w);
    layers.add("slicing.ds_size", ds.dynamic_size() as f64, w);
    layers.add("slicing.rs_size", rs.dynamic_size() as f64, w);
    layers.add(
        "slicing.ps_size",
        pruned.pruned_slice(&graph).dynamic_size() as f64,
        w,
    );
    drop(graph);

    // Verification: the op's own requests, resumed vs from scratch.
    let requests = logged_requests(run);
    for (name, resume) in [
        ("omission.verify_replay_ms", ResumeMode::Auto),
        ("omission.verify_scratch_ms", ResumeMode::Disabled),
    ] {
        let mut v = Verifier::new(
            &run.faulty,
            &run.analysis,
            &run.config,
            &run.trace,
            run.lc.mode,
        )
        .with_resume(resume);
        let t = Instant::now();
        v.verify_all(&requests);
        layers.add(name, ms(t), w);
    }

    // One switched run and its alignment per sampled request.
    let mut specs = HashSet::new();
    let sample: Vec<_> = o
        .iteration_log
        .iter()
        .flat_map(|it| it.requests.iter())
        .filter(|r| specs.insert((r.p_stmt, r.p_occ)))
        .take(ALIGN_SAMPLE)
        .collect();
    for r in &sample {
        let mut cfg = run.config.clone();
        cfg.switch = Some(SwitchSpec::new(r.p_stmt, r.p_occ as u32));
        let t = Instant::now();
        let switched = run_traced(&run.faulty, &run.analysis, &cfg).trace;
        layers.add("interp.switched_ms", ms(t), w);
        let t = Instant::now();
        let aligner = Aligner::new(&run.trace, &switched);
        layers.add("align.regions_ms", ms(t), w);
        let t = Instant::now();
        let _ = aligner.match_inst(r.p, r.u);
        layers.add("align.match_ms", ms(t), w);
    }

    // Counters the locator already reports.
    let reexec = s.reexecutions as f64;
    layers.add("interp.reexecutions", reexec, w);
    layers.add_ratio("interp.resumed_frac", s.resumed_runs as f64, reexec, w);
    layers.add("interp.steps_saved", s.steps_saved as f64, w);
    layers.add("interp.budget_exhausted", s.budget_exhausted_runs as f64, w);
    layers.add("interp.budget_retries", s.budget_retries as f64, w);
    layers.add("omission.iterations", o.iterations as f64, w);
    layers.add("omission.verifications", o.verifications as f64, w);
    layers.add("omission.user_prunings", o.user_prunings as f64, w);
    layers.add("omission.expanded_edges", o.expanded_edges as f64, w);
    layers.add_ratio(
        "omission.memo_hit_frac",
        s.memo_hits as f64,
        (s.memo_hits + s.reexecutions) as f64,
        w,
    );
    layers.add("omission.memo_evictions", s.memo_evictions as f64, w);
    layers.add("omission.checkpoint_mb", s.checkpoint_bytes as f64 / MIB, w);

    // Journal assembly, as a served `"journal": true` request does it.
    let meta = JournalMeta {
        program: "perfbench".to_string(),
    };
    let t = Instant::now();
    let records = build_journal(&meta, &run.lc, o, &run.trace, None, None, None);
    layers.add("obs.journal_ms", ms(t), w);
    if records.is_empty() {
        return Err("empty journal".into());
    }
    Ok(())
}
