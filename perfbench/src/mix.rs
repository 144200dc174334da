//! The `service-mix` workload: one closed-loop client drives the real
//! `hyperroute-grid serve --backend subprocess --workers 1` with 32-point
//! campaigns, half of them new sweeps (all cache misses) and half exact
//! resubmissions of earlier ones (all hits).
//!
//! A [`Gauge`] reading follows every campaign (with the client's decoding
//! and checks of its results); each time in a block of campaigns, and the
//! set-up after it, is kept with the host-speed factor of the block's
//! readings. Block times exclude the readings.

use crate::checks::check_report;
use crate::host::tree_peak_rss_kib;
use crate::inproc::EngineTally;
use crate::points::{service_sweep, Rng, CAMPAIGN_POINTS};
use crate::service::{parse_summary, report_payload, submit_line, Serve, ServeSummary};
use crate::speed::{self, Gauge, Sample};
use crate::trace::Tracer;
use hyperroute_core::scenario::Sweep;
use hyperroute_grid::ServiceReply;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::Instant;

/// Campaigns per block; each block holds as many new sweeps as
/// resubmissions, in seeded order.
pub const BLOCK: usize = 10;
/// Campaigns of each class a run measures at least.
pub const MIN_PER_CLASS: usize = 100;
/// Warm subprocess workers behind the service. One: the worker and
/// `serve` then keep at most the host's two cores busy. Two workers
/// beside `serve` and the client oversubscribe them, and the campaign
/// latency then follows the scheduler and the other tenants of the host
/// more than the program.
const WORKERS: usize = 1;

/// How a campaign's sweep is chosen.
#[derive(Clone, Copy)]
enum Pick {
    /// A fresh sweep: every point misses the cache.
    New,
    /// An earlier sweep, uniformly: every point hits.
    Again,
    /// Sweep `i` of the pass being replayed.
    Replay(usize),
}

/// What a service-mix pass measured.
#[derive(Default)]
pub struct MixPass {
    pub setup_s: Vec<Sample>,
    pub cold_ms: Vec<Sample>,
    pub warm_ms: Vec<Sample>,
    pub wait_ms: Vec<f64>,
    pub stream_ms: Vec<f64>,
    /// Per block: (simulated events, points delivered, wall seconds).
    pub blocks: Vec<(u64, u64, Sample)>,
    /// Time of the measured blocks, scaled to the nominal host.
    pub scaled_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub rejected: u64,
    pub problems: Vec<String>,
    pub summary: ServeSummary,
    pub peak_rss_kib: u64,
    pub report_bytes: u64,
    /// Every sweep submitted (index 0 is the set-up warm-up campaign),
    /// and the sweep index of every measured campaign in order.
    pub sweeps: Vec<Sweep>,
    pub sequence: Vec<usize>,
    /// Per sweep, the digests of its cold pass's report payloads.
    pub cold: ColdDigests,
}

impl MixPass {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }
}

fn digest(bytes: &str) -> (u64, usize) {
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    (h.finish(), bytes.len())
}

/// The (hash, length) digests of a campaign's report payloads.
type Digests = Vec<(u64, usize)>;

/// Per sweep, the digests of its cold pass's report payloads.
type ColdDigests = Vec<Option<Digests>>;

/// One set-up: decode and expand the warm-up sweep from its file, start
/// `serve` on a fresh cache in `cache_dir`, and run the warm-up campaign,
/// which spawns and handshakes the worker. Returns the seconds that
/// took, the running service and the warm-up's report digests.
fn set_up(
    grid_bin: &Path,
    cache_dir: &Path,
    sweep_file: &str,
    submit: &str,
) -> Result<(f64, Serve, Digests), String> {
    let t0 = Instant::now();
    let sweep: Sweep = serde_json::from_str(sweep_file).map_err(|e| e.to_string())?;
    sweep.scenarios().map_err(|e| e.to_string())?;
    let mut serve = Serve::spawn(grid_bin, cache_dir, WORKERS)?;
    let reply = serve.campaign(&Tracer::new(false), submit);
    let secs = t0.elapsed().as_secs_f64();
    if let Some(e) = reply.error {
        return Err(format!("warm-up campaign: {e}"));
    }
    let (digests, problems, _) = decode_campaign(&Tracer::new(false), &sweep, &reply.frames, None);
    if !problems.is_empty() {
        return Err(format!("warm-up campaign: {}", problems.join("; ")));
    }
    Ok((secs, serve, digests))
}

/// Run the service-mix loop for `seconds` (and at least
/// [`MIN_PER_CLASS`] campaigns of each class), or replay exactly
/// `replay = (sweeps, sequence)` of an earlier pass. One set-up starts
/// the service that the loop measures. With `spread_setups`, one more
/// set-up on a fresh cache follows every block, outside the block's wall
/// time, so the set-up median spans the whole run.
pub fn run_pass(
    t: &Tracer,
    seed: u64,
    seconds: f64,
    spread_setups: bool,
    replay: Option<(&[Sweep], &[usize])>,
    grid_bin: &Path,
    dir: &Path,
) -> Result<MixPass, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut rng = Rng::new(seed, 3_000);
    let mut pass = MixPass {
        sweeps: match replay {
            Some((sweeps, _)) => sweeps.to_vec(),
            None => vec![service_sweep(&mut rng)],
        },
        ..MixPass::default()
    };
    let mut submits: Vec<String> = pass.sweeps.iter().map(submit_line).collect();
    let mut cold: ColdDigests = vec![None; pass.sweeps.len()];
    let sweep_file = serde_json::to_string(&pass.sweeps[0]).expect("sweeps serialise");
    let mut gauge = Gauge::new();
    let before = gauge.sample();
    let (secs, mut serve, digests) =
        set_up(grid_bin, &dir.join("cache"), &sweep_file, &submits[0])?;
    pass.setup_s.push(Sample {
        raw: secs,
        scale: speed::scale(&[before, gauge.sample()]),
    });
    cold[0] = Some(digests);

    let started = Instant::now();
    let mut next = 0usize;
    loop {
        let order: Vec<Pick> = match replay {
            Some((_, sequence)) => {
                if next >= sequence.len() {
                    break;
                }
                let end = (next + BLOCK).min(sequence.len());
                let block = sequence[next..end]
                    .iter()
                    .map(|&i| Pick::Replay(i))
                    .collect();
                next = end;
                block
            }
            None => {
                let enough = pass.cold_ms.len() >= MIN_PER_CLASS
                    && pass.warm_ms.len() >= MIN_PER_CLASS
                    && started.elapsed().as_secs_f64() >= seconds;
                if enough {
                    break;
                }
                let mut order: Vec<Pick> = (0..BLOCK)
                    .map(|k| {
                        if k < BLOCK / 2 {
                            Pick::New
                        } else {
                            Pick::Again
                        }
                    })
                    .collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i + 1));
                }
                order
            }
        };
        let (mut events, mut points, mut block_s) = (0u64, 0u64, 0.0);
        // Raw latencies (cold, warm) of the block, and its kernel readings.
        let (mut cold_ms, mut warm_ms) = (Vec::new(), Vec::new());
        let mut readings = vec![gauge.sample()];
        for pick in order {
            let idx = match pick {
                Pick::Again => rng.below(pass.sweeps.len()),
                Pick::Replay(i) => i,
                Pick::New => {
                    let sweep = service_sweep(&mut rng);
                    submits.push(submit_line(&sweep));
                    pass.sweeps.push(sweep);
                    cold.push(None);
                    pass.sweeps.len() - 1
                }
            };
            let is_cold = cold[idx].is_none();
            pass.sequence.push(idx);
            pass.attempted += 1;
            let op_start = Instant::now();
            let reply = serve.campaign(t, &submits[idx]);
            if !reply.accepted {
                pass.rejected += 1;
            }
            let latency_ms = reply.latency_s * 1e3;
            let answered = reply.error.is_none();
            match reply.error {
                Some(e) => pass.fail(format!("campaign {}: {e}", pass.attempted)),
                None => {
                    pass.wait_ms.push(reply.wait_s * 1e3);
                    pass.stream_ms.push(reply.stream_s * 1e3);
                    points += reply.frames.len().saturating_sub(1) as u64;

                    // The client reads its results: decode and check every frame.
                    let expect = cold[idx].as_deref();
                    let (digests, problems, tally) =
                        decode_campaign(t, &pass.sweeps[idx], &reply.frames, expect);
                    pass.report_bytes += digests.iter().map(|d| d.1 as u64).sum::<u64>();
                    if is_cold {
                        events += tally.events;
                        cold[idx] = Some(digests);
                    }
                    if !problems.is_empty() {
                        pass.fail(format!(
                            "campaign {}: {}",
                            pass.attempted,
                            problems.join("; ")
                        ));
                    }
                }
            }
            block_s += op_start.elapsed().as_secs_f64();
            readings.push(gauge.sample());
            match (answered, is_cold) {
                (false, _) => {}
                (true, true) => cold_ms.push(latency_ms),
                (true, false) => warm_ms.push(latency_ms),
            }
        }
        // The service's processes keep working for some milliseconds
        // after a cold campaign and slow the reading right after it, so
        // the whole block takes its fastest reading.
        let scale = speed::scale(&readings);
        let sample = |raw| Sample { raw, scale };
        pass.cold_ms.extend(cold_ms.into_iter().map(sample));
        pass.warm_ms.extend(warm_ms.into_iter().map(sample));
        pass.blocks.push((events, points, sample(block_s)));
        pass.scaled_s += sample(block_s).scaled();

        if spread_setups {
            let cache = dir.join("setup_cache");
            let (secs, extra, digests) = set_up(grid_bin, &cache, &sweep_file, &submits[0])?;
            extra.shutdown()?;
            let _ = std::fs::remove_dir_all(&cache);
            pass.setup_s.push(sample(secs));
            if cold[0].as_ref() != Some(&digests) {
                pass.fail("a set-up's warm-up reports differ from the first set-up's".into());
            }
        }
    }
    pass.peak_rss_kib = tree_peak_rss_kib(std::process::id());
    let stderr = serve.shutdown()?;
    pass.summary =
        parse_summary(&stderr).ok_or_else(|| format!("no serve summary in: {stderr}"))?;
    // Every point of a new sweep (the warm-up's too) misses the cache and
    // every point of a resubmission hits it.
    let want_hits = (pass.warm_ms.len() * CAMPAIGN_POINTS) as u64;
    let want_misses = ((pass.cold_ms.len() + 1) * CAMPAIGN_POINTS) as u64;
    if (pass.summary.hits, pass.summary.misses) != (want_hits, want_misses) {
        pass.fail(format!(
            "serve cache counted {} hits / {} misses, want {want_hits} / {want_misses}",
            pass.summary.hits, pass.summary.misses
        ));
    }
    pass.cold = cold;
    let _ = std::fs::remove_dir_all(dir);
    Ok(pass)
}

/// Decode one campaign's frames (inside `report.decode` spans) and check
/// each report: conservation and, for the paper's networks, the delay
/// bracket; with `expect`, byte-identity to the sweep's cold pass.
/// Returns the payload digests, the problems and the engine tally.
fn decode_campaign(
    t: &Tracer,
    sweep: &Sweep,
    frames: &[String],
    expect: Option<&[(u64, usize)]>,
) -> (Digests, Vec<String>, EngineTally) {
    let mut digests = Vec::with_capacity(CAMPAIGN_POINTS);
    let mut problems = Vec::new();
    let mut tally = EngineTally::default();
    let (reports, done) = frames.split_at(frames.len().saturating_sub(1));
    if reports.len() != sweep.len() || !done.iter().any(|d| d.starts_with("{\"ResultsDone\":")) {
        problems.push(format!(
            "{} report frames for {} points",
            reports.len(),
            sweep.len()
        ));
    }
    for (index, frame) in reports.iter().enumerate() {
        let decoded = t.span("report.decode", |_| {
            serde_json::from_str::<ServiceReply>(frame)
        });
        let payload = report_payload(frame).unwrap_or("");
        let digest = digest(payload);
        match decoded {
            Ok(ServiceReply::Report {
                index: at, report, ..
            }) if at == index => {
                tally.add(&report);
                match sweep.scenario_at(index) {
                    Ok(scenario) => problems.extend(check_report(&scenario, &report)),
                    Err(e) => problems.push(e.to_string()),
                }
            }
            other => problems.push(format!("frame {index}: {:?}", other.err())),
        }
        if let Some(cold) = expect {
            if cold.get(index) != Some(&digest) {
                problems.push(format!(
                    "point {index}: warm report bytes differ from the cold pass"
                ));
            }
        }
        digests.push(digest);
    }
    (digests, problems, tally)
}

/// Each cold service report must be byte-identical to an in-process
/// `Scenario::run` of the same scenario. Runs after the timed loop, on
/// two threads; returns the problems of each sweep that has any.
pub fn check_against_inprocess(pass: &MixPass) -> Vec<String> {
    let jobs: Vec<(usize, usize)> = pass
        .cold
        .iter()
        .enumerate()
        .flat_map(|(s, digests)| (0..digests.as_ref().map_or(0, Vec::len)).map(move |i| (s, i)))
        .collect();
    let check = |&(s, i): &(usize, usize)| -> Option<usize> {
        let want = pass.cold[s].as_ref()?[i];
        let bytes = pass.sweeps[s]
            .scenario_at(i)
            .and_then(|scenario| scenario.run())
            .map(|r| serde_json::to_string(&r).expect("reports serialise"));
        match bytes {
            Ok(b) if digest(&b) == want => None,
            _ => Some(s),
        }
    };
    let (mut bad, mut problems) = (Vec::new(), Vec::new());
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(jobs.len().div_ceil(2).max(1))
            .map(|chunk| scope.spawn(move || chunk.iter().filter_map(check).collect::<Vec<_>>()))
            .collect();
        for h in handles {
            match h.join() {
                Ok(sweeps) => bad.extend(sweeps),
                Err(_) => problems.push("an in-process check thread panicked".to_string()),
            }
        }
    });
    bad.sort_unstable();
    bad.dedup();
    problems.extend(
        bad.into_iter()
            .map(|s| format!("sweep {s}: a cold service report differs from Scenario::run")),
    );
    problems
}
