//! The in-process campaign path of `paper-grid` (and of the traced
//! service-mix probe).
//!
//! Every grid point is its own one-point campaign, run the way
//! `hyperroute-grid run --workers 1` runs a sweep file: decode the Sweep
//! JSON, run the campaign on `ThreadPoolBackend::new(1)` (behind a disk
//! report cache), pretty-print the reports and write them to a file. A
//! round submits each point once cold (a cache miss: simulate, insert)
//! and then warm (exact resubmissions: cache hits).
//!
//! Both the untraced and the traced path call `Campaign::run_cached` as
//! a user would; the traced path wraps the cache and the backend it
//! hands the campaign in spans. Layers the campaign calls internally
//! (key, partition, merge, the engine) are timed by the probe instead.
//!
//! Each round resubmits every point [`WARM_REPEATS`] times; throughput is
//! reported for a round of one cold and one warm campaign per point.
//!
//! A [`Gauge`] reading follows every cold campaign and every warm pass
//! over the points, and brackets the set-up; each time is kept with the
//! host-speed factor of the readings around it.

use crate::checks::{check_report, check_same_bytes};
use crate::host;
use crate::points::{one_point, spec_of};
use crate::speed::{self, Gauge, Sample};
use crate::trace::{Traced, Tracer};
use hyperroute_core::scenario::{Report, Scenario, Sweep};
use hyperroute_grid::{Campaign, DiskCache, ReportCache, ThreadPoolBackend};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Warm resubmissions of every point per round. A warm campaign takes
/// well under a millisecond, so it is sampled more often than the cold one.
pub const WARM_REPEATS: usize = 5;

/// Engine work, summed over simulated reports.
#[derive(Default)]
pub struct EngineTally {
    pub events: u64,
    pub generated: u64,
    pub delivered: u64,
    pub dropped: u64,
}

impl EngineTally {
    pub fn add(&mut self, report: &Report) {
        self.events += report.events;
        self.generated += report.generated;
        self.delivered += report.delivered;
        self.dropped += report.graph().map_or(0, |g| g.dropped);
    }
}

/// One point slot of the round, across rounds.
#[derive(Default)]
pub struct Slot {
    pub cold_ms: Vec<Sample>,
    pub warm_ms: Vec<Sample>,
    pub events: Vec<u64>,
}

/// What a pass of rounds measured.
#[derive(Default)]
pub struct PassResult {
    /// Per point slot of the round (every round has the same slots).
    pub slots: Vec<Slot>,
    /// Set-up times, `setup_reps` at the start of every round.
    pub setup_s: Vec<Sample>,
    /// Peak resident memory of each round, in KiB.
    pub round_rss_kib: Vec<u64>,
    /// Time of the pass's campaigns, scaled to the nominal host.
    pub scaled_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Bytes of report JSON read back by the caller.
    pub report_bytes: u64,
    /// Hits ÷ lookups of the pass's disk cache.
    pub hit_ratio: f64,
    /// The scenarios of every round run, in order.
    pub inputs: Vec<Vec<Scenario>>,
}

impl PassResult {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }
}

/// One one-point campaign as the CLI runs it; returns the bytes written.
/// With tracing on, the same calls run inside spans, and the campaign's
/// own cache and backend calls are wrapped in [`Traced`].
fn campaign(t: &Tracer, json: &str, cache: &dyn ReportCache, out: &Path) -> Result<String, String> {
    t.span("campaign", |t| {
        let sweep: Sweep = t
            .span("scenario.decode", |_| serde_json::from_str(json))
            .map_err(|e| e.to_string())?;
        let campaign = Campaign::new(sweep, 1);
        let backend = ThreadPoolBackend::new(1);
        let reports = if t.enabled() {
            campaign.run_cached(&Traced { t, inner: &backend }, &Traced { t, inner: cache })
        } else {
            campaign.run_cached(&backend, cache)
        }
        .map_err(|e| e.to_string())?;
        let mut text = t.span("report.encode", |_| {
            serde_json::to_string_pretty(&reports).expect("reports serialise")
        });
        text.push('\n');
        t.span("io.write", |_| write_in_place(out, &text))
            .map_err(|e| format!("{}: {e}", out.display()))?;
        Ok(text)
    })
}

/// Write `text` over the file `out` without truncating it first, then cut
/// it to length. A resubmitted campaign rewrites the same bytes, so the
/// write stays in the page cache: creating or truncating a file instead
/// makes it wait for the filesystem's block allocation and journal,
/// whose latency on a shared virtual disk swamps the campaign's own cost.
fn write_in_place(out: &Path, text: &str) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(out)?;
    file.write_all(text.as_bytes())?;
    if file.metadata()?.len() > text.len() as u64 {
        file.set_len(text.len() as u64)?;
    }
    Ok(())
}

/// Build and drive one scenario inside `scenario.build` and
/// `engine.<spec>` spans.
pub fn drive_traced(t: &Tracer, scenario: &Scenario) -> Result<Report, String> {
    let sim = t
        .span("scenario.build", |_| scenario.into_simulator())
        .map_err(|e| e.to_string())?;
    let name = match spec_of(scenario) {
        "hypercube_sim" => "engine.hypercube_sim",
        "butterfly_sim" => "engine.butterfly_sim",
        _ => "engine.graph_sim",
    };
    Ok(t.span(name, |_| sim.run_unobserved()))
}

/// Run rounds `gen(0), gen(1), …` until `seconds` have passed (at least
/// one round), or exactly the rounds in `replay` when given. Each round
/// times its set-up `setup_reps` times, then runs its points cold, then
/// warm, against a fresh disk cache in `dir`. Spreading the set-up
/// repetitions over the run keeps their median clear of slow spells of
/// a shared host.
pub fn run_pass(
    t: &Tracer,
    gen: &dyn Fn(u64) -> Vec<Scenario>,
    seconds: f64,
    setup_reps: usize,
    replay: Option<&[Vec<Scenario>]>,
    dir: &Path,
) -> PassResult {
    let _ = std::fs::remove_dir_all(dir);
    let cache = DiskCache::open(dir.join("cache")).expect("cache directory opens");
    // One output file per point slot, rewritten in place by every
    // campaign of that slot.
    let out_dir = dir.join("out");
    let _ = std::fs::create_dir_all(&out_dir);
    let mut pass = PassResult::default();
    let mut gauge = Gauge::new();
    let started = Instant::now();
    for round in 0.. {
        let points = match replay {
            Some(rounds) if round as usize >= rounds.len() => break,
            Some(rounds) => rounds[round as usize].clone(),
            None if round > 0 && started.elapsed().as_secs_f64() >= seconds => break,
            None => gen(round),
        };
        // The sweep files a user would hand to the CLI.
        let files: Vec<String> = points
            .iter()
            .map(|s| serde_json::to_string(&one_point(s)).expect("sweeps serialise"))
            .collect();
        if setup_reps > 0 {
            let before = gauge.sample();
            let mut secs = Vec::with_capacity(setup_reps);
            for _ in 0..setup_reps {
                match setup(&files) {
                    Ok(s) => secs.push(s),
                    Err(e) => pass.fail(format!("set-up: {e}")),
                }
            }
            let scale = speed::scale(&[before, gauge.sample()]);
            pass.setup_s
                .extend(secs.into_iter().map(|raw| Sample { raw, scale }));
        }
        pass.slots.resize_with(files.len(), Slot::default);
        let before = cache.stats();
        let rss_reset = host::reset_peak_rss();
        let mut last = gauge.sample();
        // texts[0] is the cold pass, texts[1..] the warm resubmissions.
        let mut texts: Vec<Vec<Result<String, String>>> = Vec::new();
        for rep in 0..=WARM_REPEATS {
            let mut pass_texts = Vec::with_capacity(files.len());
            let mut times = Vec::with_capacity(files.len());
            for (k, file) in files.iter().enumerate() {
                let out = out_dir.join(format!("{k}.json"));
                let t0 = Instant::now();
                let text = campaign(t, file, &cache, &out);
                let raw = t0.elapsed().as_secs_f64() * 1e3;
                let mut scale = f64::NAN;
                if rep == 0 {
                    let next = gauge.sample();
                    scale = speed::scale(&[last, next]);
                    last = next;
                }
                times.push(Sample { raw, scale });
                pass_texts.push(text);
            }
            if rep > 0 {
                // Warm campaigns take microseconds: one reading per pass.
                let next = gauge.sample();
                let scale = speed::scale(&[last, next]);
                last = next;
                times.iter_mut().for_each(|s| s.scale = scale);
            }
            for (slot, time) in pass.slots.iter_mut().zip(times) {
                pass.scaled_s += time.scaled() / 1e3;
                if rep == 0 {
                    slot.cold_ms.push(time);
                } else {
                    slot.warm_ms.push(time);
                }
            }
            texts.push(pass_texts);
        }
        if rss_reset {
            pass.round_rss_kib.push(host::peak_rss_kib("self"));
        }

        // Checks, outside the timed region. Every cold campaign misses
        // the cache and every warm one hits it.
        let after = cache.stats();
        let n = points.len() as u64;
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        if hits != n * WARM_REPEATS as u64 || misses != n {
            pass.fail(format!(
                "round {round}: cache served {hits} hits / {misses} misses, want {} / {n}",
                n * WARM_REPEATS as u64
            ));
        }
        for (k, scenario) in points.iter().enumerate() {
            pass.attempted += 1 + WARM_REPEATS as u64;
            let name = scenario.topology.name();
            let cold = &texts[0][k];
            // The caller reads the results file back.
            let cold_reports = match cold {
                Ok(text) => {
                    pass.report_bytes += text.len() as u64;
                    t.span("report.decode", |_| {
                        serde_json::from_str::<Vec<Report>>(text)
                    })
                    .map_err(|e| e.to_string())
                }
                Err(e) => Err(e.clone()),
            };
            let mut events = 0;
            match cold_reports {
                Ok(reports) => {
                    let mut problems = Vec::new();
                    for report in &reports {
                        events += report.events;
                        problems.extend(check_report(scenario, report));
                    }
                    if !problems.is_empty() {
                        pass.fail(format!("cold {name}: {}", problems.join("; ")));
                    }
                }
                Err(e) => pass.fail(format!("cold {name}: {e}")),
            }
            pass.slots[k].events.push(events);
            for warm in texts[1..].iter().map(|rep| &rep[k]) {
                match (cold, warm) {
                    (Ok(c), Ok(w)) => {
                        if let Some(p) = check_same_bytes("warm vs cold", c, w) {
                            pass.fail(format!("warm {name}: {p}"));
                        }
                    }
                    (_, Err(e)) => pass.fail(format!("warm {name}: {e}")),
                    (Err(_), Ok(_)) => pass.fail(format!("warm {name}: no cold pass")),
                }
            }
        }
        pass.inputs.push(points);
    }
    let stats = cache.stats();
    pass.hit_ratio = stats.hits as f64 / stats.lookups().max(1) as f64;
    let _ = std::fs::remove_dir_all(dir);
    pass
}

/// Set-up of an in-process run: decode, validate and expand the round's
/// sweep files, as the CLI does before it simulates anything.
fn setup(files: &[String]) -> Result<f64, String> {
    let t0 = Instant::now();
    for file in files {
        let sweep: Sweep = serde_json::from_str(file).map_err(|e| e.to_string())?;
        for scenario in sweep.scenarios().map_err(|e| e.to_string())? {
            scenario.validate().map_err(|e| e.to_string())?;
        }
    }
    Ok(t0.elapsed().as_secs_f64())
}
