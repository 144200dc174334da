//! The traced run's probe. A workload's own path does not put a span on
//! every layer: a campaign keys its points, partitions, merges and
//! drives the engine inside `Campaign::run_cached` and its backend;
//! paper-grid generates no graphs and starts no service; the
//! service-mix client runs no engine in its own process. So the traced
//! run ends by calling each of those layers directly on the workload's
//! own points and, where a workload has no point for an engine spec or a
//! generator, on a small seeded stand-in. Everything here runs under a
//! `probe` span, apart from the pass the end-to-end metrics describe.

use crate::inproc::{drive_traced, EngineTally};
use crate::points::{one_point, spec_of, Rng};
use crate::service::{parse_summary, submit_line, Serve};
use crate::trace::Tracer;
use hyperroute_core::config::{FaultFallback, FaultMode, FaultSpec};
use hyperroute_core::scenario::{Report, Scenario, Topology};
use hyperroute_grid::{
    merge, partition, CacheKey, ExecBackend, GridSlice, SliceResult, SubprocessBackend,
    ThreadPoolBackend, WorkerPool,
};
use hyperroute_sparse::{expander, hyperbolic, scale_free, small_world};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

#[derive(Default)]
pub struct Probe {
    /// Engine work of every scenario the probe drove.
    pub engine: EngineTally,
    pub sparse_arcs: u64,
    pub threads_slice_s: f64,
    pub subprocess_slice_s: f64,
    pub spawns: u64,
    pub reuses: u64,
    pub wait_ms: Vec<f64>,
    pub stream_ms: Vec<f64>,
    pub rejected: u64,
    pub problems: Vec<String>,
}

/// Generate the graph of a generated-topology scenario inside a
/// `sparse.generate` span; returns its arcs (0 for other topologies).
fn generate(t: &Tracer, s: &Scenario) -> u64 {
    let topo = match s.topology {
        Topology::SmallWorld {
            side,
            dims,
            links,
            alpha,
            seed,
        } => t.span("sparse.generate", |_| {
            small_world(side, dims, links, alpha, seed)
        }),
        Topology::Hyperbolic {
            nodes,
            alpha,
            radius_offset,
            seed,
        } => t.span("sparse.generate", |_| {
            hyperbolic(nodes, alpha, radius_offset, seed)
        }),
        Topology::ScaleFree {
            nodes,
            gamma,
            min_degree,
            seed,
        } => t.span("sparse.generate", |_| {
            scale_free(nodes, gamma, min_degree, seed)
        }),
        Topology::Expander {
            nodes,
            degree,
            seed,
        } => t.span("sparse.generate", |_| expander(nodes, degree, seed)),
        _ => return 0,
    };
    topo.graph().num_arcs() as u64
}

/// Small stand-ins for the engine specs and generators the declared
/// workloads lack: a butterfly (service-mix has none), a faulty
/// hypercube (`graph_sim`; no workload has faults) and one graph of each
/// `hyperroute-sparse` generator.
fn stand_ins(seed: u64) -> Vec<Scenario> {
    let mut rng = Rng::new(seed, 4_000);
    let packed = |topology| {
        Scenario::builder(topology)
            .lambda(1.0)
            .p(0.5)
            .warmup(10.0)
            .horizon(40.0)
    };
    let faults = FaultSpec {
        mode: FaultMode::Seeded {
            fraction: 0.1,
            seed: rng.next(),
        },
        fallback: FaultFallback::Retry { budget: 4 },
        dynamics: None,
    };
    let mut out = vec![
        packed(Topology::Butterfly { dim: 6 })
            .seed(rng.next())
            .build(),
        packed(Topology::Hypercube { dim: 8 })
            .faults(Some(faults))
            .seed(rng.next())
            .build(),
    ];
    let generated = [
        Topology::Hyperbolic {
            nodes: 4_096,
            alpha: 0.7,
            radius_offset: -1.5,
            seed: rng.next(),
        },
        Topology::SmallWorld {
            side: 64,
            dims: 2,
            links: 1,
            alpha: 2.0,
            seed: rng.next(),
        },
        Topology::ScaleFree {
            nodes: 4_096,
            gamma: 2.5,
            min_degree: 2,
            seed: rng.next(),
        },
        Topology::Expander {
            nodes: 4_096,
            degree: 4,
            seed: rng.next(),
        },
    ];
    for topology in generated {
        out.push(
            Scenario::builder(topology)
                .lambda(0.01)
                .warmup(5.0)
                .horizon(20.0)
                .seed(rng.next())
                .build(),
        );
    }
    out.into_iter()
        .map(|s| s.expect("stand-in scenarios are valid"))
        .collect()
}

/// The layer calls a one-point campaign makes inside
/// `Campaign::run_cached` and its backend, made directly, each in its
/// own span.
fn campaign_layers(t: &Tracer, scenario: &Scenario) -> Result<Report, String> {
    let sweep = one_point(scenario);
    t.span("scenario.validate", |_| scenario.validate())
        .map_err(|e| e.to_string())?;
    t.span("cache.key", |_| CacheKey::for_scenario(scenario));
    let slices = t.span("slice.partition", |_| partition(&sweep, 1));
    let [slice] = &slices[..] else {
        return Err(format!(
            "a one-point sweep cut into {} slices",
            slices.len()
        ));
    };
    let report = drive_traced(t, scenario)?;
    let result = SliceResult {
        id: slice.id,
        start: slice.start,
        reports: vec![report.clone()],
    };
    t.span("slice.merge", |_| merge(sweep.len(), vec![result]))
        .map_err(|e| e.to_string())?;
    Ok(report)
}

/// Run the probe. Every scenario of `points` goes through
/// [`campaign_layers`]; `sample` are a few of them for the backends and,
/// with `service`, a one-worker `serve` session that runs each as a
/// one-point campaign, cold and then warm.
pub fn run(
    t: &Tracer,
    seed: u64,
    points: &[Scenario],
    sample: &[Scenario],
    grid_bin: &Path,
    dir: &Path,
    service: bool,
) -> Probe {
    t.span("probe", |t| {
        let mut probe = Probe::default();
        for s in points {
            match campaign_layers(t, s) {
                Ok(report) => probe.engine.add(&report),
                Err(e) => probe.problems.push(format!("{}: {e}", s.topology.name())),
            }
        }
        for s in stand_ins(seed) {
            if spec_of(&s) == "butterfly_sim" && t.count("engine.butterfly_sim") > 0 {
                continue;
            }
            probe.sparse_arcs += generate(t, &s);
            match campaign_layers(t, &s) {
                Ok(report) => probe.engine.add(&report),
                Err(e) => probe.problems.push(format!("stand-in: {e}")),
            }
        }
        backends(t, sample, grid_bin, &mut probe);
        if service {
            service_session(t, sample, grid_bin, dir, &mut probe);
        }
        probe
    })
}

/// The same one-point slices on the in-process and the subprocess
/// backend; the difference per slice is the worker IPC round trip.
fn backends(t: &Tracer, sample: &[Scenario], grid_bin: &Path, probe: &mut Probe) {
    let slices: Vec<GridSlice> = sample
        .iter()
        .enumerate()
        .map(|(i, s)| GridSlice {
            id: i as u64,
            sweep: one_point(s),
            start: 0,
            len: 1,
        })
        .collect();
    let n = slices.len().max(1) as f64;
    let mut sink = |_: SliceResult| Ok(());
    let threads = ThreadPoolBackend::new(1);
    // The pass has `backend.threads` spans too, so time this call itself.
    let t0 = Instant::now();
    if let Err(e) = t.span("backend.threads", |_| threads.execute(&slices, &mut sink)) {
        probe.problems.push(format!("threads backend: {e}"));
    }
    probe.threads_slice_s = t0.elapsed().as_secs_f64() / n;

    let pool = Arc::new(WorkerPool::new());
    let worker = vec![grid_bin.display().to_string(), "worker".to_string()];
    let sub = SubprocessBackend::new(worker, 1).with_pool(Arc::clone(&pool));
    // The first campaign spawns and handshakes the worker; the second
    // checks it out warm, and is the one timed per slice.
    let spawn = t.span("subprocess.spawn", |_| sub.execute(&slices[..1], &mut sink));
    let warm = t.span("subprocess.slices", |_| sub.execute(&slices, &mut sink));
    for r in [spawn, warm] {
        if let Err(e) = r {
            probe.problems.push(format!("subprocess backend: {e}"));
        }
    }
    probe.subprocess_slice_s = t.total("subprocess.slices") / n;
    probe.spawns = pool.spawns();
    probe.reuses = pool.reuses();
    pool.shutdown();
}

fn service_session(
    t: &Tracer,
    sample: &[Scenario],
    grid_bin: &Path,
    dir: &Path,
    probe: &mut Probe,
) {
    let cache = dir.join("probe_cache");
    let _ = std::fs::remove_dir_all(&cache);
    let mut serve = match Serve::spawn(grid_bin, &cache, 1) {
        Ok(serve) => serve,
        Err(e) => return probe.problems.push(format!("probe serve: {e}")),
    };
    for s in sample {
        let line = submit_line(&one_point(s));
        for _ in 0..2 {
            let reply = serve.campaign(t, &line);
            if !reply.accepted {
                probe.rejected += 1;
            }
            match reply.error {
                Some(e) => probe.problems.push(format!("probe campaign: {e}")),
                None => {
                    probe.wait_ms.push(reply.wait_s * 1e3);
                    probe.stream_ms.push(reply.stream_s * 1e3);
                }
            }
        }
    }
    match serve.shutdown() {
        Ok(stderr) if parse_summary(&stderr).is_some() => {}
        Ok(stderr) => probe
            .problems
            .push(format!("probe serve summary: {stderr}")),
        Err(e) => probe.problems.push(format!("probe serve: {e}")),
    }
    let _ = std::fs::remove_dir_all(&cache);
}
