//! `perfbench`: one benchmark run of one workload.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --server-bin <path/to/omislice> --work-dir <dir>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that measures the per-layer metrics. Either way
//! the last line of standard output is one JSON object
//! `{"correct","attempted","failed","metrics"}`; a human table with each
//! metric's unit and sample count goes to standard error. The exit code
//! is 0 only when every output check passed.

use omislice_perfbench::cases::{draw_case, Case};
use omislice_perfbench::pipeline::{locate_op, strip_reexecutions, Laps, OpRun};
use omislice_perfbench::probes::{probe, Layers};
use omislice_perfbench::serve::{self, metric, Server};
use omislice_perfbench::stats::{median, peak_rss_mb, quantile, reset_peak_rss};
use omislice_perfbench::workloads::{plan, Op, Plan, COLD_SPEC, COLD_STREAM, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Minimum timed ops per run in the kept passes, so at least ten lie
/// beyond p90.
const MIN_OPS: usize = 100;
/// The timed window never runs longer than this, whatever the op count.
const HARD_CAP: Duration = Duration::from_secs(120);
/// Every `COLD_EVERY`-th served request is a cold, never-seen version.
const COLD_EVERY: usize = 5;
/// Artifact cache budget of the served workload (MiB): holds the hot set
/// (about 2.3 MiB) and the cold versions of about one pass, so the cold
/// stream evicts cold versions and never a hot one.
const CACHE_MB: usize = 4;
/// Tolerance of the traced run's check that on-path self-times sum to
/// the op's wall time: `|wall - sum| <= SELF_TIME_FRAC * wall + SELF_TIME_ABS`.
/// The op wall also covers freeing what the op built (its trace, graph
/// and verification memo), which no phase covers.
const SELF_TIME_FRAC: f64 = 0.10;
const SELF_TIME_ABS: Duration = Duration::from_millis(2);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    server_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let (mut server_bin, mut work_dir) = (None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} `{value}` (need {what})");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("a number"))?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        server_bin: server_bin.ok_or("--server-bin is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// One published metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// The result of one run.
#[derive(Default)]
struct Run {
    attempted: usize,
    failed: usize,
    /// Run-level check failures (not tied to one op).
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

impl Run {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Records one op's check result.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: check failed: {}", what());
            }
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Timings of one pass: its wall time (s) and each op's latency (ms).
struct Pass {
    wall: f64,
    ops: Vec<f64>,
}

/// The passes a run's timings come from: the fastest two thirds. The
/// host is shared, and its slow spells last seconds; dropping the slowest
/// third keeps a spell that covers less than a third of the run out of
/// the timings. Every op still counts for `found_frac` and `ok_frac`.
fn kept(passes: &[Pass]) -> Vec<&Pass> {
    let mut by_wall: Vec<&Pass> = passes.iter().collect();
    by_wall.sort_by(|a, b| a.wall.total_cmp(&b.wall));
    by_wall.truncate((2 * passes.len()).div_ceil(3));
    by_wall
}

/// Whether the kept passes hold at least `min_ops` ops.
fn enough(passes: &[Pass], min_ops: usize) -> bool {
    !passes.is_empty() && kept(passes).iter().map(|p| p.ops.len()).sum::<usize>() >= min_ops
}

/// Publishes `pass_s`, `op_p50_ms` and `op_p90_ms` from the kept passes.
fn push_timings(run: &mut Run, passes: &[Pass]) {
    let kept = kept(passes);
    let walls: Vec<f64> = kept.iter().map(|p| p.wall).collect();
    let lat: Vec<f64> = kept.iter().flat_map(|p| p.ops.iter().copied()).collect();
    run.push("pass_s", median(&walls), "s", walls.len());
    run.push("op_p50_ms", quantile(&lat, 0.5), "ms", lat.len());
    run.push("op_p90_ms", quantile(&lat, 0.9), "ms", lat.len());
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// --- set-up -----------------------------------------------------------

/// A workload's prepared inputs: the cases and the traces saved for the
/// `--trace-in` ops.
struct Prepared {
    plan: Plan,
    files: Vec<Option<PathBuf>>,
}

/// Draws the cases and saves the traces the `--trace-in` ops load.
fn prepare(a: &Args) -> Result<Prepared, String> {
    use omislice::omislice_interp::{run_traced, RunConfig};
    use omislice::omislice_lang::compile;
    use omislice::omislice_trace::save_trace;
    use omislice::prelude::ProgramAnalysis;
    let plan = plan(&a.workload, a.seed)?;
    let mut files = vec![None; plan.cases.len()];
    for op in plan.ops.iter().filter(|op| op.from_file) {
        if files[op.case].is_some() {
            continue;
        }
        let case = &plan.cases[op.case];
        let program = compile(&case.faulty_src).map_err(|e| format!("{e:?}"))?;
        let analysis = ProgramAnalysis::build(&program);
        let trace = run_traced(
            &program,
            &analysis,
            &RunConfig::with_inputs(case.inputs.clone()),
        )
        .trace;
        let path = a.work_dir.join(format!("case-{}.omitrace", op.case));
        save_trace(&trace, &path).map_err(|e| format!("cannot save {}: {e}", path.display()))?;
        files[op.case] = Some(path);
    }
    Ok(Prepared { plan, files })
}

/// Runs `prepare` [`SETUP_REPS`] times, checks every repetition drew the
/// same inputs and wrote the same trace bytes, and returns the last one
/// with the set-up times.
fn setup_locate(a: &Args, run: &mut Run) -> Result<(Prepared, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut first: Option<(Plan, Vec<Vec<u8>>)> = None;
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let p = prepare(a)?;
        times.push(secs(t.elapsed()));
        let bytes: Vec<Vec<u8>> = p
            .files
            .iter()
            .flatten()
            .map(|f| std::fs::read(f).unwrap_or_default())
            .collect();
        match &first {
            None => first = Some((p.plan.clone(), bytes)),
            Some((plan, b)) => {
                if *plan != p.plan || *b != bytes {
                    run.problems
                        .push("set-up is not reproducible for one seed".into());
                }
            }
        }
        last = Some(p);
    }
    Ok((last.expect("SETUP_REPS > 0"), times))
}

/// The in-process result every timed op of a case must reproduce.
struct Reference {
    report: String,
    found: bool,
}

/// Peak resident memory of one op, the largest over the ops measured.
#[derive(Default)]
struct PeakRss {
    mb: f64,
    ops: usize,
}

impl PeakRss {
    /// Runs `op` from a trimmed heap with `VmHWM` reset, so the reading
    /// after it is what the op itself held, as in a fresh `omislice
    /// locate` process, and not the freed memory the allocator keeps from
    /// the run's earlier ops (whose amount depends on their number).
    fn measure<T>(&mut self, run: &mut Run, op: impl FnOnce() -> T) -> T {
        if !reset_peak_rss() && self.ops == 0 {
            run.problems
                .push("cannot reset VmHWM through /proc/self/clear_refs".into());
        }
        let out = op();
        self.mb = self.mb.max(peak_rss_mb("self").unwrap_or(0.0));
        self.ops += 1;
        out
    }
}

/// One op per case (and one per saved trace): the reference results,
/// which also warm the process up before timing, and the peak resident
/// memory of those ops.
fn references(p: &Prepared, run: &mut Run) -> Result<(Vec<Reference>, PeakRss), String> {
    let mut refs = Vec::new();
    let mut peak = PeakRss::default();
    for (i, case) in p.plan.cases.iter().enumerate() {
        let r = peak
            .measure(run, || locate_op(case, None, &mut Laps::off()))
            .map_err(|e| format!("{}: set-up op failed: {e}", case.label))?;
        if r.outcome.found != r.root_in_slice() {
            run.problems.push(format!(
                "{}: `found` disagrees with the seeded roots",
                case.label
            ));
        }
        let reference = Reference {
            found: r.root_in_slice(),
            report: r.report.clone(),
        };
        drop(r);
        if let Some(path) = &p.files[i] {
            let loaded = peak
                .measure(run, || locate_op(case, Some(path), &mut Laps::off()))
                .map_err(|e| format!("{}: set-up op from file failed: {e}", case.label))?;
            if loaded.report != reference.report {
                run.problems.push(format!(
                    "{}: report from the saved trace differs",
                    case.label
                ));
            }
        }
        refs.push(reference);
    }
    Ok((refs, peak))
}

/// Runs one op and checks it against its reference. Returns the op's
/// wall time (including freeing what it built), whether every check
/// passed, and whether the final slice holds a seeded root.
fn timed_op(
    p: &Prepared,
    refs: &[Reference],
    op: &Op,
    laps: &mut Laps,
) -> (Duration, bool, bool, Option<String>) {
    let case = &p.plan.cases[op.case];
    let file = if op.from_file {
        p.files[op.case].as_deref()
    } else {
        None
    };
    let t = Instant::now();
    let result = locate_op(case, file, laps);
    let (ok, found, why) = match &result {
        Ok(r) => {
            let found = r.root_in_slice();
            let ok = r.outcome.found == found
                && found == refs[op.case].found
                && r.report == refs[op.case].report;
            (
                ok,
                found,
                (!ok).then(|| format!("{}: report or `found` differs from set-up", case.label)),
            )
        }
        Err(e) => (false, false, Some(format!("{}: {e}", case.label))),
    };
    drop(result);
    (t.elapsed(), ok, found, why)
}

// --- locate workloads -------------------------------------------------

fn run_locate(a: &Args, run: &mut Run) -> Result<(), String> {
    let (p, setup) = setup_locate(a, run)?;
    let (refs, peak) = references(&p, run)?;

    let mut passes = Vec::new();
    let mut by_case: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    let (mut n, mut found, mut ok) = (0usize, 0usize, 0usize);
    let start = Instant::now();
    let window = Duration::from_secs_f64(a.seconds);
    while (start.elapsed() < window || !enough(&passes, MIN_OPS)) && start.elapsed() < HARD_CAP {
        let t = Instant::now();
        let mut ops = Vec::new();
        for op in &p.plan.ops {
            let (d, good, f, why) = timed_op(&p, &refs, op, &mut Laps::off());
            ops.push(ms(d));
            by_case
                .entry(p.plan.cases[op.case].label)
                .or_default()
                .push(ms(d));
            n += 1;
            found += usize::from(f);
            ok += usize::from(good);
            run.check(good, || why.unwrap_or_default());
        }
        passes.push(Pass {
            wall: secs(t.elapsed()),
            ops,
        });
    }
    for (label, lat) in &by_case {
        eprintln!(
            "perfbench: {label:<20} median {:8.2} ms over {}",
            median(lat),
            lat.len()
        );
    }
    push_timings(run, &passes);
    run.push("found_frac", found as f64 / n as f64, "ratio", n);
    run.push("ok_frac", ok as f64 / n as f64, "ratio", n);
    run.push("setup_s", median(&setup), "s", setup.len());
    run.push("peak_rss_mb", peak.mb, "MiB", peak.ops);
    Ok(())
}

// --- serve-mixed ------------------------------------------------------

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Starts a server and primes it with one (cold) request per hot case.
fn start_primed(a: &Args, plan: &Plan) -> Result<Server, String> {
    let server = Server::start(&a.server_bin, workers(), CACHE_MB)?;
    for case in &plan.cases {
        let s = serve::locate(&server, case, false)?;
        if s.status != 200 {
            return Err(format!(
                "{}: priming request answered {}",
                case.label, s.status
            ));
        }
    }
    Ok(server)
}

/// What one served pass window saw.
#[derive(Default)]
struct ServedWindow {
    /// Warm latencies by case label.
    by_case: std::collections::BTreeMap<&'static str, Vec<f64>>,
    warm: Vec<f64>,
    cold: Vec<f64>,
    passes: Vec<Pass>,
    found: usize,
    ok: usize,
    errors: usize,
}

/// Drives the mixed request stream: the plan's warm ops, with a fresh
/// cold version after every `COLD_EVERY - 1` of them. Served reports are
/// checked against the in-process reports (cold ones after the window,
/// so the check never runs inside it).
fn serve_window(
    a: &Args,
    server: &Server,
    plan: &Plan,
    refs: &[Reference],
    window: Duration,
    min_ops: usize,
    run: &mut Run,
) -> Result<ServedWindow, String> {
    let mut w = ServedWindow::default();
    let mut colds: Vec<(Case, serve::Served)> = Vec::new();
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let mut since_cold = 0;
    while (start.elapsed() - paused < window || !enough(&w.passes, min_ops))
        && start.elapsed() < HARD_CAP
    {
        let t = Instant::now();
        let mut pass_paused = Duration::ZERO;
        let mut ops = Vec::new();
        for op in &plan.ops {
            let case = &plan.cases[op.case];
            let s = serve::locate(server, case, op.journal)?;
            let good = s.status == 200
                && strip_reexecutions(&s.report) == strip_reexecutions(&refs[op.case].report)
                && s.found == refs[op.case].found
                && s.has_journal == op.journal;
            w.errors += usize::from(s.status != 200);
            w.found += usize::from(s.status == 200 && s.found);
            w.ok += usize::from(good);
            w.warm.push(ms(s.latency));
            ops.push(ms(s.latency));
            w.by_case.entry(case.label).or_default().push(ms(s.latency));
            run.check(good, || {
                format!("served {} differs from in-process", case.label)
            });
            since_cold += 1;
            if since_cold == COLD_EVERY - 1 {
                since_cold = 0;
                let d = Instant::now();
                let cold = draw_case(&COLD_SPEC, a.seed, COLD_STREAM, colds.len() as u64)?;
                pass_paused += d.elapsed();
                let s = serve::locate(server, &cold, false)?;
                w.errors += usize::from(s.status != 200);
                w.cold.push(ms(s.latency));
                ops.push(ms(s.latency));
                colds.push((cold, s));
            }
        }
        paused += pass_paused;
        w.passes.push(Pass {
            wall: secs(t.elapsed() - pass_paused),
            ops,
        });
    }
    for (case, s) in &colds {
        let r = locate_op(case, None, &mut Laps::off())?;
        let found = r.root_in_slice();
        let good = s.status == 200
            && s.cache == "miss"
            && strip_reexecutions(&s.report) == strip_reexecutions(&r.report)
            && s.found == found
            && r.outcome.found == found;
        w.found += usize::from(s.status == 200 && s.found);
        w.ok += usize::from(good);
        run.check(good, || {
            format!("served cold {} differs from in-process", case.label)
        });
    }
    Ok(w)
}

/// Set-up of the served workload, repeated: draw the hot cases, start a
/// server, wait for `/healthz`, prime the hot set. Keeps the last server.
/// The hot cases' ops always record their trace.
fn setup_serve(a: &Args, run: &mut Run) -> Result<(Prepared, Server, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept: Option<(Plan, Server)> = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take().map(|(_, s)| s));
        let t = Instant::now();
        let plan = plan(&a.workload, a.seed)?;
        let server = start_primed(a, &plan)?;
        times.push(secs(t.elapsed()));
        if let Some((prev, _)) = &kept {
            if *prev != plan {
                run.problems
                    .push("set-up is not reproducible for one seed".into());
            }
        }
        kept = Some((plan, server));
    }
    let (plan, server) = kept.expect("SETUP_REPS > 0");
    let files = vec![None; plan.cases.len()];
    Ok((Prepared { plan, files }, server, times))
}

fn run_serve(a: &Args, run: &mut Run) -> Result<(), String> {
    let (p, server, setup) = setup_serve(a, run)?;
    let scrape = server.metrics()?;
    eprintln!(
        "perfbench: hot set holds {:.2} MiB in {} cache entries",
        metric(&scrape, "serve_cache_bytes") / (1024.0 * 1024.0),
        metric(&scrape, "serve_cache_entries")
    );
    let (refs, _) = references(&p, run)?;
    // Warm-up: one warm request per hot version.
    for case in &p.plan.cases {
        serve::locate(&server, case, false)?;
    }
    let window = Duration::from_secs_f64(a.seconds);
    let w = serve_window(a, &server, &p.plan, &refs, window, MIN_OPS, run)?;
    let after = server.metrics()?;
    let delta = |name: &str| metric(&after, name) - metric(&scrape, name);
    eprintln!(
        "perfbench: window cache hits {}, misses {}, evictions {}; memo evictions {}",
        delta("serve_cache_hits"),
        delta("serve_cache_misses"),
        delta("serve_cache_evictions"),
        delta("serve_memo_evictions")
    );
    let rss = server.peak_rss_mb().unwrap_or(0.0);
    drop(server);
    for (label, lat) in &w.by_case {
        eprintln!(
            "perfbench: warm {label:<20} median {:8.2} ms over {}",
            median(lat),
            lat.len()
        );
    }
    eprintln!(
        "perfbench: cold {:<20} median {:8.2} ms over {}",
        COLD_SPEC.label,
        median(&w.cold),
        w.cold.len()
    );
    let n = w.warm.len() + w.cold.len();
    if w.errors > 0 {
        run.problems.push(format!("{} non-200 replies", w.errors));
    }
    push_timings(run, &w.passes);
    run.push("found_frac", w.found as f64 / n as f64, "ratio", n);
    run.push("ok_frac", w.ok as f64 / n as f64, "ratio", n);
    run.push("setup_s", median(&setup), "s", setup.len());
    run.push("peak_rss_mb", rss, "MiB", 1);
    Ok(())
}

// --- traced run -------------------------------------------------------

/// Per-layer metric names and units, in output order.
const LAYER_METRICS: [(&str, &str); 49] = [
    ("lang.compile_ms", "ms"),
    ("analysis.build_ms", "ms"),
    ("interp.base_trace_ms", "ms"),
    ("trace.load_ms", "ms"),
    ("slicing.profile_ms", "ms"),
    ("omission.oracle_ms", "ms"),
    ("omission.locate_ms", "ms"),
    ("obs.report_ms", "ms"),
    ("interp.plain_ms", "ms"),
    ("interp.events", "count"),
    ("interp.trace_over_plain", "ratio"),
    ("trace.index_ms", "ms"),
    ("trace.save_ms", "ms"),
    ("trace.file_mb", "MiB"),
    ("slicing.graph_ms", "ms"),
    ("slicing.ds_ms", "ms"),
    ("slicing.rs_ms", "ms"),
    ("slicing.prune_ms", "ms"),
    ("slicing.ds_size", "count"),
    ("slicing.rs_size", "count"),
    ("slicing.ps_size", "count"),
    ("omission.verify_replay_ms", "ms"),
    ("omission.verify_scratch_ms", "ms"),
    ("interp.switched_ms", "ms"),
    ("align.regions_ms", "ms"),
    ("align.match_ms", "ms"),
    ("interp.reexecutions", "count"),
    ("interp.resumed_frac", "ratio"),
    ("interp.steps_saved", "count"),
    ("interp.budget_exhausted", "count"),
    ("interp.budget_retries", "count"),
    ("omission.iterations", "count"),
    ("omission.verifications", "count"),
    ("omission.user_prunings", "count"),
    ("omission.expanded_edges", "count"),
    ("omission.memo_hit_frac", "ratio"),
    ("omission.memo_evictions", "count"),
    ("omission.checkpoint_mb", "MiB"),
    ("obs.journal_ms", "ms"),
    ("serve.warm_ms", "ms"),
    ("serve.cold_ms", "ms"),
    ("serve.hit_frac", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.memo_evictions", "count"),
    ("serve.errors", "count"),
    ("serve.server_cpu_s", "s"),
    ("bench.traced_op_ms", "ms"),
    ("bench.selftime_gap_frac", "ratio"),
    ("bench.trace_overhead_s", "s"),
];

fn run_traced(a: &Args, run: &mut Run) -> Result<(), String> {
    let mut layers = Layers::default();
    let served_workload = a.workload == "serve-mixed";
    let (p, primed) = if served_workload {
        let (p, server, _) = setup_serve(a, run)?;
        (p, Some(server))
    } else {
        (setup_locate(a, run)?.0, None)
    };
    let (refs, _) = references(&p, run)?;
    // The served workload runs its hot cases in process here too.
    let ops = &p.plan.ops;

    // Untraced pass, then the traced pass over the same ops.
    let t = Instant::now();
    for op in ops {
        let (_, good, _, why) = timed_op(&p, &refs, op, &mut Laps::off());
        run.check(good, || why.unwrap_or_default());
    }
    let untraced = t.elapsed();
    let mut traced = Duration::ZERO;
    let mut worst_gap: f64 = 0.0;
    let mut walls = Vec::new();
    for op in ops {
        let mut laps = Laps::on();
        let (wall, good, _, why) = timed_op(&p, &refs, op, &mut laps);
        traced += wall;
        walls.push(ms(wall));
        run.check(good, || why.unwrap_or_default());
        let sum: Duration = laps.laps.iter().map(|(_, d)| *d).sum();
        let gap = wall.abs_diff(sum);
        worst_gap = worst_gap.max(secs(gap) / secs(wall));
        if gap > wall.mul_f64(SELF_TIME_FRAC) + SELF_TIME_ABS {
            run.problems.push(format!(
                "{}: on-path self-times sum to {:.1} ms, op wall {:.1} ms",
                p.plan.cases[op.case].label,
                ms(sum),
                ms(wall)
            ));
        }
        for (phase, d) in &laps.laps {
            layers.add(phase, ms(*d), 1.0);
        }
    }
    let overhead = secs(traced) - secs(untraced);
    eprintln!(
        "perfbench: {} tracing overhead: traced pass {:.3} s - untraced pass {:.3} s = {overhead:+.3} s",
        a.workload,
        secs(traced),
        secs(untraced)
    );

    // Off-path probes, once per case, weighted by the case's share of
    // the pass.
    eprintln!(
        "{:<20} {:>7} {:>8} {:>6} {:>5} {:>7} {:>7} {:>8} {:>7}",
        "case", "attempt", "events", "found", "iters", "verifs", "reexec", "resumed", "evicts"
    );
    for (i, case) in p.plan.cases.iter().enumerate() {
        let weight = ops.iter().filter(|op| op.case == i).count() as f64 / ops.len() as f64;
        if weight == 0.0 {
            continue;
        }
        let r: OpRun = locate_op(case, None, &mut Laps::off())?;
        let s = &r.outcome.stats;
        eprintln!(
            "{:<20} {:>7} {:>8} {:>6} {:>5} {:>7} {:>7} {:>8.3} {:>7}",
            case.label,
            case.attempt,
            r.trace.len(),
            r.root_in_slice(),
            r.outcome.iterations,
            r.outcome.verifications,
            s.reexecutions,
            s.resumed_runs as f64 / s.reexecutions.max(1) as f64,
            s.memo_evictions
        );
        probe(&r, &a.work_dir, weight, &mut layers)?;
    }

    // Served layer: the workload's own versions through a server.
    let server = match primed {
        Some(s) => s,
        None => Server::start(&a.server_bin, workers(), CACHE_MB)?,
    };
    let before = server.metrics()?;
    let cpu0 = server.cpu_seconds().unwrap_or(0.0);
    let w = if served_workload {
        serve_window(a, &server, &p.plan, &refs, Duration::ZERO, 1, run)?
    } else {
        let mut w = ServedWindow::default();
        for (i, case) in p.plan.cases.iter().enumerate() {
            for journal in [false, true] {
                let s = serve::locate(&server, case, journal)?;
                let good = s.status == 200
                    && strip_reexecutions(&s.report) == strip_reexecutions(&refs[i].report)
                    && s.found == refs[i].found
                    && s.has_journal == journal;
                w.errors += usize::from(s.status != 200);
                if journal { &mut w.warm } else { &mut w.cold }.push(ms(s.latency));
                run.check(good, || {
                    format!("served {} differs from in-process", case.label)
                });
            }
        }
        w
    };
    let cpu = server.cpu_seconds().unwrap_or(0.0) - cpu0;
    let after = server.metrics()?;
    drop(server);
    let delta = |name: &str| metric(&after, name) - metric(&before, name);
    let lookups = delta("serve_cache_hits") + delta("serve_cache_misses");
    layers.add("serve.warm_ms", median(&w.warm), 1.0);
    layers.add("serve.cold_ms", median(&w.cold), 1.0);
    layers.add_ratio("serve.hit_frac", delta("serve_cache_hits"), lookups, 1.0);
    layers.add("serve.cache_evictions", delta("serve_cache_evictions"), 1.0);
    layers.add("serve.memo_evictions", delta("serve_memo_evictions"), 1.0);
    layers.add("serve.errors", w.errors as f64, 1.0);
    layers.add("serve.server_cpu_s", cpu, 1.0);
    layers.add("bench.traced_op_ms", median(&walls), 1.0);
    layers.add("bench.selftime_gap_frac", worst_gap, 1.0);
    layers.add("bench.trace_overhead_s", overhead, 1.0);

    for (name, unit) in LAYER_METRICS {
        let samples = if name.starts_with("serve.") {
            w.warm.len() + w.cold.len()
        } else {
            ops.len()
        };
        run.push(name, layers.value(name), unit, samples);
    }
    Ok(())
}

// --- output -----------------------------------------------------------

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn print_result(a: &Args, run: &Run) {
    eprintln!(
        "perfbench: {} seed {} ({}): {} ops, {} failed",
        a.workload,
        a.seed,
        if a.traced { "traced" } else { "end-to-end" },
        run.attempted,
        run.failed
    );
    for p in &run.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    eprintln!(
        "{:<28} {:>14} {:<6} {:>7}",
        "metric", "value", "unit", "samples"
    );
    for m in &run.metrics {
        eprintln!(
            "{:<28} {:>14.4} {:<6} {:>7}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.correct(),
        run.attempted.max(1),
        run.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&a.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", a.work_dir.display());
        return ExitCode::from(2);
    }
    let mut run = Run::default();
    let result = match (a.traced, a.workload.as_str()) {
        (true, _) => run_traced(&a, &mut run),
        (false, "serve-mixed") => run_serve(&a, &mut run),
        (false, _) => run_locate(&a, &mut run),
    };
    std::fs::remove_dir_all(&a.work_dir).ok();
    match result {
        Ok(()) => {
            print_result(&a, &run);
            if run.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", a.workload);
            ExitCode::from(1)
        }
    }
}
