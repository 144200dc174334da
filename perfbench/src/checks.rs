//! Output checks. Every failed check fails the operation it belongs to
//! and makes the benchmark exit nonzero.

use hyperroute_analysis::{butterfly_bounds, hypercube_bounds};
use hyperroute_core::config::Scheme;
use hyperroute_core::scenario::{Report, Scenario, Topology};
use hyperroute_core::ArrivalModel;
use hyperroute_grid::{CacheKey, DiskCache, ReportCache};
use std::path::Path;

/// Problems found in one report; empty when it passes.
pub fn check_report(scenario: &Scenario, report: &Report) -> Vec<String> {
    let mut problems = Vec::new();
    let dropped = report.graph().map_or(0, |g| g.dropped);
    if report.generated != report.delivered + dropped {
        problems.push(format!(
            "conservation: generated {} != delivered {} + dropped {dropped}",
            report.generated, report.delivered
        ));
    }
    let w = &scenario.workload;
    let paper_point = w.faults.is_none()
        && w.arrivals == ArrivalModel::Poisson
        && scenario.policy.scheme == Scheme::Greedy;
    let bounds = match scenario.topology {
        Topology::Hypercube { dim } if paper_point => {
            Some(hypercube_bounds::greedy_delay_bounds(dim, w.lambda, w.p))
        }
        Topology::Butterfly { dim } if paper_point => {
            Some(butterfly_bounds::greedy_delay_bounds(dim, w.lambda, w.p))
        }
        _ => None,
    };
    if let Some(b) = bounds {
        let mean = report.delay.mean;
        if !(mean >= b.lower && mean <= b.upper) {
            problems.push(format!(
                "delay: mean {mean} outside the Prop. 12/13 bracket [{}, {}]",
                b.lower, b.upper
            ));
        }
    }
    problems
}

/// The problem with a report served again (`warm`) whose bytes differ
/// from its first computation (`cold`), if any.
pub fn check_same_bytes(what: &str, cold: &str, warm: &str) -> Option<String> {
    if cold == warm {
        return None;
    }
    let at = cold
        .bytes()
        .zip(warm.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(cold.len().min(warm.len()));
    Some(format!("{what}: bytes differ from offset {at}"))
}

/// The check of the checks: a perturbed delay, a broken conservation
/// count and a flipped byte in a cached report must each be caught.
/// Returns the cases the checker let through.
pub fn self_test(work_dir: &Path) -> Vec<String> {
    let scenario = Scenario::builder(Topology::Hypercube { dim: 6 })
        .lambda(1.2)
        .p(0.5)
        .warmup(20.0)
        .horizon(120.0)
        .seed(11)
        .build()
        .expect("self-test scenario is valid");
    let good = scenario.run().expect("self-test scenario runs");
    let mut missed = Vec::new();
    if !check_report(&scenario, &good).is_empty() {
        missed.push("an unmodified report was flagged".to_string());
    }

    let mut delayed = good.clone();
    delayed.delay.mean *= 10.0;
    if check_report(&scenario, &delayed).is_empty() {
        missed.push("a perturbed delay passed".to_string());
    }

    let mut leaky = good.clone();
    leaky.delivered -= 1;
    if check_report(&scenario, &leaky).is_empty() {
        missed.push("a broken conservation count passed".to_string());
    }

    let cold = serde_json::to_string(&good).expect("reports serialise");
    let flipped = match flip_cached_byte(work_dir, &scenario, &good) {
        Ok(served) => served,
        Err(e) => {
            missed.push(format!("could not set up the flipped-byte case: {e}"));
            return missed;
        }
    };
    // The flipped digit leaves valid JSON, so the cache serves the entry;
    // a miss here would mean the case tested nothing.
    let caught = match &flipped {
        None => false,
        Some(warm) => check_same_bytes("self-test", &cold, warm).is_some(),
    };
    if !caught {
        missed.push("a flipped byte in a cached report passed".to_string());
    }
    missed
}

/// Store `report` in a disk cache, flip one digit of the stored file and
/// read it back; the served report's bytes, or `None` on a miss.
fn flip_cached_byte(
    work_dir: &Path,
    scenario: &Scenario,
    report: &Report,
) -> Result<Option<String>, String> {
    let dir = work_dir.join("self_test_cache");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = DiskCache::open(&dir).map_err(|e| e.to_string())?;
    let key = CacheKey::for_scenario(scenario);
    cache.put(&key, report);
    let file = dir.join(format!("{key}.report.json"));
    let mut bytes = std::fs::read(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    let needle = b"\"mean\":";
    let at = bytes
        .windows(needle.len())
        .position(|w| w == needle)
        .ok_or("no delay mean in the cached report")?
        + needle.len();
    bytes[at] = if bytes[at] == b'9' { b'8' } else { b'9' };
    std::fs::write(&file, bytes).map_err(|e| e.to_string())?;
    let served = cache
        .get(&key)
        .map(|r| serde_json::to_string(&r).expect("reports serialise"));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(served)
}
