//! hyperroute's benchmark: two workloads, end to end (untraced) and
//! layer by layer (traced). Normally started by `run.py`, which builds
//! this binary, its `profile` twin and `hyperroute-grid` first:
//!
//! ```text
//! hyperroute-perfbench --workload paper-grid|service-mix
//!     --seed N --seconds S --trace 0|1 --grid-bin PATH --work-dir DIR
//!     --profile-bin PATH --out-dir DIR
//! hyperroute-perfbench --phase-split SCENARIOS.json
//! ```
//!
//! Prints one `metric` line per metric (name, value, unit), the host
//! facts, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 when any output check
//! failed.

mod checks;
mod host;
mod inproc;
mod mix;
mod points;
mod probe;
mod service;
mod speed;
mod stats;
mod trace;

use hyperroute_core::scenario::Scenario;
use speed::Sample;
use stats::{median, quantile};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use trace::Tracer;

const WORKLOADS: [&str; 2] = ["paper-grid", "service-mix"];
/// Set-up repetitions per round of paper-grid (the median over the run is
/// kept).
const INPROC_SETUP_REPS: usize = 8;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    grid_bin: PathBuf,
    profile_bin: PathBuf,
    work_dir: PathBuf,
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| value(flag).ok_or(format!("{flag} is required"));
    let workload = need("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let number = |flag: &str| -> Result<f64, String> {
        need(flag)?
            .parse::<f64>()
            .map_err(|_| format!("{flag}: not a number"))
    };
    Ok(Args {
        workload,
        seed: need("--seed")?
            .parse()
            .map_err(|_| "--seed: not a whole number".to_string())?,
        seconds: number("--seconds")?,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: `{other}` is not 0 or 1")),
        },
        grid_bin: PathBuf::from(need("--grid-bin")?),
        profile_bin: PathBuf::from(need("--profile-bin")?),
        work_dir: PathBuf::from(need("--work-dir")?),
        out_dir: PathBuf::from(need("--out-dir")?),
    })
}

/// Metrics in print order, and the run's operation counts.
#[derive(Default)]
struct Outcome {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Extra lines printed before the result.
    notes: Vec<String>,
}

impl Outcome {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Add a pass's operation counts and problems to the run's.
    fn count(&mut self, attempted: u64, failed: u64, problems: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        self.problems.extend(problems.iter().cloned());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--phase-split") {
        std::process::exit(phase_split(args.get(i + 1).map(Path::new)));
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hyperroute-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if !args.grid_bin.is_file() {
        eprintln!(
            "hyperroute-perfbench: no hyperroute-grid binary at {}",
            args.grid_bin.display()
        );
        std::process::exit(2);
    }
    let _ = std::fs::remove_dir_all(&args.work_dir);
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("hyperroute-perfbench: {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }

    let mut out = Outcome::default();
    let missed = checks::self_test(&args.work_dir);
    fail_each(
        &mut out,
        missed
            .into_iter()
            .map(|m| format!("check of the checks: {m}"))
            .collect(),
    );
    let result = match (args.workload.as_str(), args.trace) {
        ("service-mix", false) => service_mix(&args, &mut out),
        ("service-mix", true) => service_mix_traced(&args, &mut out),
        (_, false) => paper_grid(&args, &mut out),
        (_, true) => paper_grid_traced(&args, &mut out),
    };
    if let Err(e) = result {
        fail_each(&mut out, vec![e]);
    }
    let _ = std::fs::remove_dir_all(&args.work_dir);
    std::process::exit(report(&args, &out));
}

/// Print every metric, the host facts and the final JSON line; the exit
/// code.
fn report(args: &Args, out: &Outcome) -> i32 {
    let correct = out.failed == 0 && out.problems.is_empty();
    for p in &out.problems {
        println!("FAILED {p}");
    }
    for note in &out.notes {
        println!("{note}");
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!("metric failed_frac = {failed_frac} ratio");
    for (name, value, unit) in &out.metrics {
        println!("metric {name} = {value} {unit}");
    }
    println!(
        "host {{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"nproc\":{},\"l2\":\"{}\",\"l3\":\"{}\",\"commit\":\"{}\"}}",
        args.workload,
        args.seed,
        args.trace as u8,
        host::nproc(),
        host::cache_size(2),
        host::cache_size(3),
        host::git_commit(Path::new(".")),
    );
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted.max(1),
        out.failed
    );
    for (i, (name, value, unit)) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        0
    } else {
        1
    }
}

/// End-to-end metrics shared by all workloads, from either the scaled or
/// the raw times.
struct EndToEnd {
    events_per_s: f64,
    points_per_s: f64,
    /// Cold and warm campaign latency: (p50, p90) in ms.
    cold_ms: (f64, f64),
    warm_ms: (f64, f64),
    setup_s: f64,
}

impl EndToEnd {
    fn named(&self) -> [(&'static str, f64, &'static str); 7] {
        [
            ("events_per_s", self.events_per_s, "1/s"),
            ("points_per_s", self.points_per_s, "1/s"),
            ("cold_campaign_p50_ms", self.cold_ms.0, "ms"),
            ("cold_campaign_p90_ms", self.cold_ms.1, "ms"),
            ("warm_campaign_p50_ms", self.warm_ms.0, "ms"),
            ("warm_campaign_p90_ms", self.warm_ms.1, "ms"),
            ("setup_s", self.setup_s, "s"),
        ]
    }
}

/// End-to-end metrics not in the result: BENCHMARK.json leaves them out
/// because their run-to-run spread exceeds any allowed bound.
const UNDECLARED: [&str; 2] = ["cold_campaign_p90_ms", "warm_campaign_p90_ms"];

/// Put the scaled end-to-end metrics in the result and print the raw
/// ones beside them.
fn end_to_end(
    out: &mut Outcome,
    scaled: &EndToEnd,
    raw: &EndToEnd,
    peak_rss_mb: f64,
    samples: String,
) {
    for (name, value, unit) in scaled.named() {
        if UNDECLARED.contains(&name) {
            out.notes.push(format!("metric {name} = {value} {unit}"));
        } else {
            out.put(name, value, unit);
        }
    }
    out.put("peak_rss_mb", peak_rss_mb, "MB");
    for (name, value, unit) in raw.named() {
        out.notes.push(format!("raw {name} = {value} {unit}"));
    }
    out.notes.push(format!(
        "times are scaled to a host where the reference kernel takes {} s; raw lines are unscaled",
        speed::NOMINAL_S
    ));
    out.notes.push(format!("samples {samples}"));
}

/// Paper-grid figures from one kind of time. A shared host has slow
/// spells of seconds. Each point slot's median over the rounds is its
/// typical latency; the typical round is their sum, and the latency
/// percentiles are taken over the slots. Also returns the slot medians
/// (cold, warm).
fn grid_figures(
    pass: &inproc::PassResult,
    time: fn(&Sample) -> f64,
) -> (EndToEnd, Vec<f64>, Vec<f64>) {
    let times = |v: &[Sample]| v.iter().map(time).collect::<Vec<_>>();
    let cold: Vec<f64> = pass
        .slots
        .iter()
        .map(|s| median(&times(&s.cold_ms)))
        .collect();
    let warm: Vec<f64> = pass
        .slots
        .iter()
        .map(|s| median(&times(&s.warm_ms)))
        .collect();
    let events: f64 = pass
        .slots
        .iter()
        .map(|s| median(&s.events.iter().map(|&e| e as f64).collect::<Vec<_>>()))
        .sum();
    let round_s = (cold.iter().sum::<f64>() + warm.iter().sum::<f64>()) / 1e3;
    let figures = EndToEnd {
        events_per_s: events / round_s,
        points_per_s: (cold.len() + warm.len()) as f64 / round_s,
        cold_ms: (quantile(&cold, 0.5), quantile(&cold, 0.9)),
        warm_ms: (quantile(&warm, 0.5), quantile(&warm, 0.9)),
        setup_s: median(&times(&pass.setup_s)),
    };
    (figures, cold, warm)
}

fn paper_grid(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let seed = args.seed;
    let pass = inproc::run_pass(
        &Tracer::new(false),
        &|round| points::paper_grid(seed, round),
        args.seconds,
        INPROC_SETUP_REPS,
        None,
        &args.work_dir.join("pass"),
    );
    out.count(pass.attempted, pass.failed, &pass.problems);

    let (scaled, cold, warm) = grid_figures(&pass, Sample::scaled);
    let (raw, _, _) = grid_figures(&pass, |s| s.raw);
    let rss_kib = if pass.round_rss_kib.is_empty() {
        host::peak_rss_kib("self") as f64
    } else {
        median(
            &pass
                .round_rss_kib
                .iter()
                .map(|&k| k as f64)
                .collect::<Vec<_>>(),
        )
    };
    end_to_end(
        out,
        &scaled,
        &raw,
        rss_kib / 1024.0,
        format!(
            "slots={} rounds={} setup={} (each slot's latency is its median over the rounds)",
            pass.slots.len(),
            pass.inputs.len(),
            pass.setup_s.len()
        ),
    );
    let ms = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.notes.push(format!("slot_cold_ms {}", ms(&cold)));
    out.notes.push(format!("slot_warm_ms {}", ms(&warm)));
    for s in pass.inputs[0].iter().step_by(points::RHOS.len()) {
        out.notes.push(format!(
            "working_set {} d={}: {} arcs x 16 B = {} KiB",
            s.topology.name(),
            points::dim(&s.topology),
            points::arcs(&s.topology),
            points::arcs(&s.topology) * 16 / 1024
        ));
    }
    Ok(())
}

/// Service-mix figures from one kind of time: rates are medians over
/// blocks, latency quantiles medians over windows of campaigns.
fn mix_figures(pass: &mix::MixPass, time: fn(&Sample) -> f64) -> EndToEnd {
    let rate = |count: fn(&(u64, u64, Sample)) -> u64| -> f64 {
        median(
            &pass
                .blocks
                .iter()
                .map(|b| count(b) as f64 / time(&b.2))
                .collect::<Vec<_>>(),
        )
    };
    let times = |v: &[Sample]| v.iter().map(time).collect::<Vec<_>>();
    let window = |v: &[Sample], q| stats::windowed_quantile(&times(v), mix::MIN_PER_CLASS, q);
    EndToEnd {
        events_per_s: rate(|b| b.0),
        points_per_s: rate(|b| b.1),
        cold_ms: (window(&pass.cold_ms, 0.5), window(&pass.cold_ms, 0.9)),
        warm_ms: (window(&pass.warm_ms, 0.5), window(&pass.warm_ms, 0.9)),
        setup_s: median(&times(&pass.setup_s)),
    }
}

fn service_mix(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let pass = mix::run_pass(
        &Tracer::new(false),
        args.seed,
        args.seconds,
        true,
        None,
        &args.grid_bin,
        &args.work_dir.join("pass"),
    )?;
    record_mix(out, &pass);
    end_to_end(
        out,
        &mix_figures(&pass, Sample::scaled),
        &mix_figures(&pass, |s| s.raw),
        pass.peak_rss_kib as f64 / 1024.0,
        format!(
            "cold_campaign={} warm_campaign={} blocks={} setup={} (rates: median over blocks of {} campaigns; \
             latency quantiles: median over windows of {} campaigns of a class)",
            pass.cold_ms.len(),
            pass.warm_ms.len(),
            pass.blocks.len(),
            pass.setup_s.len(),
            mix::BLOCK,
            mix::MIN_PER_CLASS
        ),
    );
    Ok(())
}

/// Each problem outside a measured pass (the check of the checks, the
/// probe, an aborted pass) counts as one failed operation.
fn fail_each(out: &mut Outcome, problems: Vec<String>) {
    let n = problems.len() as u64;
    out.count(n, n, &problems);
}

/// Operation counts and failures of a service pass, including the
/// after-the-loop comparison with in-process runs.
fn record_mix(out: &mut Outcome, pass: &mix::MixPass) {
    out.count(pass.attempted, pass.failed, &pass.problems);
    let mismatched = mix::check_against_inprocess(pass);
    out.failed += mismatched.len() as u64;
    out.problems.extend(mismatched);
}

// ---------------------------------------------------------------------
// Traced runs.
// ---------------------------------------------------------------------

fn paper_grid_traced(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let seed = args.seed;
    // One untimed round first, so that the untraced pass does not pay
    // alone for the process's first simulations (heap growth, page
    // faults) and the overhead compares like with like.
    let warm_up = inproc::run_pass(
        &Tracer::new(false),
        &|round| points::paper_grid(seed, round),
        0.0,
        0,
        None,
        &args.work_dir.join("warm_up"),
    );
    out.count(warm_up.attempted, warm_up.failed, &warm_up.problems);
    let untraced = inproc::run_pass(
        &Tracer::new(false),
        &|round| points::paper_grid(seed, round),
        args.seconds / 2.0,
        0,
        None,
        &args.work_dir.join("untraced"),
    );
    out.count(untraced.attempted, untraced.failed, &untraced.problems);
    let t = Tracer::new(true);
    let pass = inproc::run_pass(
        &t,
        &|_| Vec::new(),
        0.0,
        0,
        Some(&untraced.inputs),
        &args.work_dir.join("traced"),
    );
    out.count(pass.attempted, pass.failed, &pass.problems);

    // The probe calls the hidden layers on the first round's points; the
    // cheapest few carry the backend and service probes.
    let first = &pass.inputs[0];
    let mut sample = first.clone();
    sample.sort_by_key(approx_cost);
    sample.truncate(3);
    let probe = probe::run(
        &t,
        seed,
        first,
        &sample,
        &args.grid_bin,
        &args.work_dir,
        true,
    );
    let phase = phase_split_of(args, &phase_points(&args.workload, first))?;
    layer_metrics(
        out,
        &t,
        &LayerInputs {
            engine: &probe.engine,
            report_bytes: pass.report_bytes,
            sparse_arcs: probe.sparse_arcs,
            hit_ratio: pass.hit_ratio,
            spawns: probe.spawns,
            reuses: probe.reuses,
            wait_ms: &probe.wait_ms,
            stream_ms: &probe.stream_ms,
            rejected: probe.rejected,
            threads_slice_s: probe.threads_slice_s,
            subprocess_slice_s: probe.subprocess_slice_s,
            traced_pass_s: pass.scaled_s,
            untraced_pass_s: untraced.scaled_s,
            phase,
        },
    );
    fail_each(out, probe.problems);
    write_trace(args, &t);
    Ok(())
}

fn service_mix_traced(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let untraced = mix::run_pass(
        &Tracer::new(false),
        args.seed,
        args.seconds / 2.0,
        false,
        None,
        &args.grid_bin,
        &args.work_dir.join("untraced"),
    )?;
    // Its cold reports are compared with in-process runs through the
    // traced pass, which replays the same sweeps.
    out.count(untraced.attempted, untraced.failed, &untraced.problems);
    let t = Tracer::new(true);
    let pass = mix::run_pass(
        &t,
        args.seed,
        0.0,
        false,
        Some((&untraced.sweeps, &untraced.sequence)),
        &args.grid_bin,
        &args.work_dir.join("traced"),
    )?;
    record_mix(out, &pass);

    // The service's own layers run in other processes. The probe runs the
    // first new sweeps' points as in-process campaigns, then calls the
    // layers those campaigns hide on the same points.
    let mut sample = Vec::new();
    for sweep in pass.sweeps[1..].iter().take(4) {
        sample.extend(sweep.scenarios().map_err(|e| e.to_string())?);
    }
    let inner = t.span("probe", |t| {
        inproc::run_pass(
            t,
            &|_| Vec::new(),
            0.0,
            0,
            Some(std::slice::from_ref(&sample)),
            &args.work_dir.join("probe"),
        )
    });
    out.count(inner.attempted, inner.failed, &inner.problems);
    let probe = probe::run(
        &t,
        args.seed,
        &sample,
        &sample[..16.min(sample.len())],
        &args.grid_bin,
        &args.work_dir,
        false,
    );
    let phase = phase_split_of(args, &phase_points(&args.workload, &sample))?;
    let s = &pass.summary;
    layer_metrics(
        out,
        &t,
        &LayerInputs {
            engine: &probe.engine,
            report_bytes: pass.report_bytes,
            sparse_arcs: probe.sparse_arcs,
            hit_ratio: s.hits as f64 / (s.hits + s.misses).max(1) as f64,
            spawns: s.spawns,
            reuses: s.reuses,
            wait_ms: &pass.wait_ms,
            stream_ms: &pass.stream_ms,
            rejected: pass.rejected,
            threads_slice_s: probe.threads_slice_s,
            subprocess_slice_s: probe.subprocess_slice_s,
            traced_pass_s: pass.scaled_s,
            untraced_pass_s: untraced.scaled_s,
            phase,
        },
    );
    fail_each(out, probe.problems);
    write_trace(args, &t);
    Ok(())
}

/// A rough simulation cost: packet births in the run.
fn approx_cost(s: &Scenario) -> u64 {
    (points::sources(&s.topology) * s.workload.lambda * s.run.horizon) as u64
}

/// Points whose engine phases the profile build times.
fn phase_points(workload: &str, points: &[Scenario]) -> Vec<Scenario> {
    match workload {
        // The ρ = 0.8 row of the paper grid: every network, mid load.
        "paper-grid" => points
            .iter()
            .filter(|s| (s.workload.lambda - 1.6).abs() < 1e-9)
            .cloned()
            .collect(),
        _ => points.iter().take(64).cloned().collect(),
    }
}

/// Engine phase shares from the `profile` build: (sched_pop, arc_choice,
/// metrics), each as a share of engine drive time.
fn phase_split_of(args: &Args, points: &[Scenario]) -> Result<[f64; 3], String> {
    let bin = &args.profile_bin;
    let file = args.work_dir.join("phase_points.json");
    std::fs::write(
        &file,
        serde_json::to_string(&points.to_vec()).expect("scenarios serialise"),
    )
    .map_err(|e| e.to_string())?;
    let output = std::process::Command::new(bin)
        .arg("--phase-split")
        .arg(&file)
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let numbers: Vec<f64> = text
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .collect();
    match numbers[..] {
        [drive, sched, arc, metrics] if output.status.success() && drive > 0.0 => {
            Ok([sched / drive, arc / drive, metrics / drive])
        }
        _ => Err(format!("profile build phase split failed: {text}")),
    }
}

/// `--phase-split FILE` (profile build only): drive every scenario in
/// FILE and print `drive_s sched_pop_s arc_choice_s metrics_s`.
fn phase_split(file: Option<&Path>) -> i32 {
    let Some(file) = file else {
        eprintln!("--phase-split needs a scenario file");
        return 2;
    };
    if !hyperroute_core::profile::enabled() {
        eprintln!("--phase-split needs the `profile` feature");
        return 2;
    }
    let points: Vec<Scenario> = match std::fs::read_to_string(file)
        .map_err(|e| e.to_string())
        .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))
    {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}: {e}", file.display());
            return 2;
        }
    };
    let _ = hyperroute_core::profile::take();
    let mut drive = 0.0;
    for s in &points {
        let Ok(sim) = s.into_simulator() else {
            return 1;
        };
        let t0 = std::time::Instant::now();
        sim.run_unobserved();
        drive += t0.elapsed().as_secs_f64();
    }
    let profile = hyperroute_core::profile::take();
    let secs = |name: &str| {
        profile
            .phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0.0, |p| p.nanos as f64 / 1e9)
    };
    println!(
        "{drive} {} {} {}",
        secs("sched_pop"),
        secs("arc_choice"),
        secs("metrics")
    );
    0
}

struct LayerInputs<'a> {
    engine: &'a inproc::EngineTally,
    report_bytes: u64,
    sparse_arcs: u64,
    hit_ratio: f64,
    spawns: u64,
    reuses: u64,
    wait_ms: &'a [f64],
    stream_ms: &'a [f64],
    rejected: u64,
    threads_slice_s: f64,
    subprocess_slice_s: f64,
    /// Campaign time of the traced and the untraced pass, both scaled to
    /// the nominal host, so the overhead is not the host's drift between
    /// the two passes.
    traced_pass_s: f64,
    untraced_pass_s: f64,
    phase: [f64; 3],
}

/// Layers with spans in a workload's measured pass, whose self-time
/// shares of the pass's traced time are reported. The other layers only
/// have spans in the probe, outside the pass.
const LAYERS: [&str; 7] = [
    "campaign", "scenario", "cache", "backend", "report", "io", "service",
];

fn layer_metrics(out: &mut Outcome, t: &Tracer, x: &LayerInputs) {
    let engines = ["hypercube_sim", "butterfly_sim", "graph_sim"];
    let drive: f64 = engines
        .iter()
        .map(|e| t.total(&format!("engine.{e}")))
        .sum();
    out.put("engine.drive_s", drive, "s");
    for e in engines {
        out.put(
            &format!("engine.{e}.drive_s"),
            t.total(&format!("engine.{e}")),
            "s",
        );
    }
    let e = x.engine;
    out.put("engine.events", e.events as f64, "count");
    out.put("engine.events_per_s", e.events as f64 / drive, "1/s");
    out.put(
        "engine.delivered_ratio",
        e.delivered as f64 / e.generated.max(1) as f64,
        "ratio",
    );
    out.put("engine.dropped", e.dropped as f64, "count");
    out.put("sparse.generate_s", t.total("sparse.generate"), "s");
    out.put("sparse.arcs", x.sparse_arcs as f64, "count");
    for (metric, span) in [
        ("scenario.decode_s", "scenario.decode"),
        ("scenario.validate_s", "scenario.validate"),
        ("scenario.build_s", "scenario.build"),
        ("report.encode_s", "report.encode"),
        ("report.decode_s", "report.decode"),
        ("cache.key_s", "cache.key"),
        ("cache.get_s", "cache.get"),
        ("cache.insert_s", "cache.insert"),
        ("slice.partition_s", "slice.partition"),
        ("slice.merge_s", "slice.merge"),
    ] {
        out.put(metric, t.total(span), "s");
    }
    out.put("report.bytes", x.report_bytes as f64, "count");
    out.put("cache.hit_ratio", x.hit_ratio, "ratio");
    out.put("subprocess.slice_s", x.subprocess_slice_s, "s");
    out.put("backend.threads_slice_s", x.threads_slice_s, "s");
    out.put("warm.spawns", x.spawns as f64, "count");
    out.put("warm.reuses", x.reuses as f64, "count");
    out.put("service.wait_ms", median(x.wait_ms), "ms");
    out.put("service.stream_ms", median(x.stream_ms), "ms");
    out.put("service.rejected", x.rejected as f64, "count");
    // From the separate `--features profile` build.
    out.put("profile.sched_pop_share", x.phase[0], "ratio");
    out.put("profile.arc_choice_share", x.phase[1], "ratio");
    out.put("profile.metrics_share", x.phase[2], "ratio");

    let self_times = t.pass_self_times();
    let traced: f64 = self_times.values().sum();
    for layer in LAYERS {
        let share = self_times.get(layer).copied().unwrap_or(0.0) / traced;
        out.put(&format!("share.{layer}"), share, "ratio");
    }
    out.put("trace.traced_s", traced, "s");
    out.put("trace.pass_s", x.traced_pass_s, "s");
    out.put("trace.untraced_pass_s", x.untraced_pass_s, "s");
    out.put("trace.overhead_s", x.traced_pass_s - x.untraced_pass_s, "s");
    out.put(
        "trace.overhead_share",
        (x.traced_pass_s - x.untraced_pass_s) / x.untraced_pass_s,
        "ratio",
    );
    out.notes.push(
        "profile.* shares come from the separate `--features profile` build, not this binary"
            .into(),
    );
}

/// Write the spans, once, at the end of a traced run.
fn write_trace(args: &Args, t: &Tracer) {
    let _ = std::fs::create_dir_all(&args.out_dir);
    let path = args
        .out_dir
        .join(format!("trace_{}_{}.ndjson", args.workload, args.seed));
    match std::fs::write(&path, t.to_ndjson()) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}
