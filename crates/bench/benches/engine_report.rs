//! `BENCH_engine.json` emitter: engine-throughput grid over
//! d ∈ {6, 8, 10} × ρ ∈ {0.5, 0.8, 0.95}, run on three engines in the same
//! process —
//!
//! * `seed`: the frozen seed engine (binary heap + `VecDeque` arc queues +
//!   per-event asserts + in-queue arrival events; see
//!   `hyperroute_bench::seed_baseline`) — the baseline the generic engine
//!   is measured against;
//! * `heap` and `calendar`: the shipped generic engine, run with
//!   `RunControl::scheduler` set to each backend. The knob only selects
//!   the equivalent network's event list; the engine keeps its
//!   unit-service completions in one FIFO ring, so for engine-backed
//!   topologies both columns time the **same** engine and their ratio is
//!   run-to-run noise.
//!
//! Both shipped rows measure the **dequeued arrival stream**
//! (arrivals/slot boundaries self-schedule in a side channel instead of
//! the event list) and the completion ring, while `seed` still pays a
//! heap push+pop per arrival and per completion, so the seed/shipped gap
//! records their effect. A `ring` section benches the
//! fifth topology on the same engine (n = 256 bidirectional ring near
//! ρ = 0.8).
//!
//! Each cell reports wall seconds (best of `reps` alternating repetitions,
//! to shed scheduler noise), events/sec and packets/sec, plus the speedup
//! of the default engine over both baselines. The JSON lands at the repo
//! root (override with `HYPERROUTE_BENCH_OUT`) so the perf trajectory is
//! tracked in-tree from PR 1 onward. The emitter stamps
//! `"schema_version"` and self-checks the required keys before writing;
//! CI's bench-schema job fails if the checked-in report predates the
//! current schema.
//!
//! A `ring` section benches the fifth topology on the same engine, and
//! `torus` / `debruijn` / `fattree` sections bench the blanket
//! `GraphSpec` trait-impl-only topologies (same cell keys at every
//! scale, so CI can diff cells across reports). Schema v4 adds the
//! generated sparse topologies: a 65536-node Kleinberg `smallworld`
//! and a 65536-node Krioukov `hyperbolic` disk, both routed by metric
//! greedy over the CSR — each cell pays the seeded generator *and* the
//! routed run, so it tracks the build+route budget the sparse subsystem
//! promises. The `ci` scale shrinks those two to 4096 nodes.
//!
//! Scale: `HYPERROUTE_SCALE=full` lengthens the horizon and adds
//! repetitions; the default `quick` keeps the grid under a minute;
//! `ci` shrinks the horizon further for the `bench-compare` CI job
//! (same grid, noisier cells — the job normalises by the in-process
//! seed baseline before comparing).
//!
//! Schema v6 adds the intra-run sharded engine
//! (`RunControl::workers`, PR 9): every cell now carries a `workers`
//! key (1 for the classic engine), and a sharded grid runs the d12
//! hypercube at `workers ∈ {1, 2, 4, 8}` plus the generated
//! small-world at `workers ∈ {2, 4, 8}` (its `workers = 1` baseline is
//! the existing calendar cell — same scenario). The top-level
//! `host_cores` records `std::thread::available_parallelism()` so the
//! self-relative speedups in `parallel` are interpretable: on a
//! single-core host the sharded rows are *slower* than their
//! single-threaded baselines (window-barrier overhead with no
//! parallel hardware underneath), and the report says so rather than
//! extrapolating.

use hyperroute_bench::seed_baseline::run_seed_engine;
use hyperroute_core::{Scenario, Topology};
use hyperroute_desim::SchedulerKind;
use std::fmt::Write as _;
use std::time::Instant;

/// Bump when the report layout changes; CI checks the checked-in JSON
/// carries the current value.
const SCHEMA_VERSION: u32 = 6;

struct Cell {
    sim: &'static str,
    dim: usize,
    rho: f64,
    engine: &'static str,
    workers: usize,
    wall_s: f64,
    events: u64,
    generated: u64,
    events_per_sec: f64,
    packets_per_sec: f64,
}

fn run_hypercube(
    kind: SchedulerKind,
    dim: usize,
    rho: f64,
    horizon: f64,
    workers: usize,
) -> (f64, u64, u64) {
    let scenario = Scenario::builder(Topology::Hypercube { dim })
        .lambda(rho / 0.5)
        .p(0.5)
        .horizon(horizon)
        .warmup(horizon * 0.2)
        .seed(7)
        .scheduler(kind)
        .workers(workers)
        .build()
        .expect("valid scenario");
    let start = Instant::now();
    let r = scenario.run().expect("scenario runs");
    (start.elapsed().as_secs_f64(), r.events, r.generated)
}

fn run_ring(kind: SchedulerKind, nodes: usize, lambda: f64, horizon: f64) -> (f64, u64, u64) {
    let scenario = Scenario::builder(Topology::Ring {
        nodes,
        bidirectional: true,
    })
    .lambda(lambda)
    .horizon(horizon)
    .warmup(horizon * 0.2)
    .seed(7)
    .scheduler(kind)
    .build()
    .expect("valid scenario");
    let start = Instant::now();
    let r = scenario.run().expect("scenario runs");
    (start.elapsed().as_secs_f64(), r.events, r.generated)
}

fn run_torus(
    kind: SchedulerKind,
    radix: usize,
    dim: usize,
    lambda: f64,
    horizon: f64,
) -> (f64, u64, u64) {
    let scenario = Scenario::builder(Topology::Torus { radix, dim })
        .lambda(lambda)
        .horizon(horizon)
        .warmup(horizon * 0.2)
        .seed(7)
        .scheduler(kind)
        .build()
        .expect("valid scenario");
    let start = Instant::now();
    let r = scenario.run().expect("scenario runs");
    (start.elapsed().as_secs_f64(), r.events, r.generated)
}

fn run_debruijn(kind: SchedulerKind, dim: usize, lambda: f64, horizon: f64) -> (f64, u64, u64) {
    let scenario = Scenario::builder(Topology::DeBruijn { dim })
        .lambda(lambda)
        .horizon(horizon)
        .warmup(horizon * 0.2)
        .seed(7)
        .scheduler(kind)
        .build()
        .expect("valid scenario");
    let start = Instant::now();
    let r = scenario.run().expect("scenario runs");
    (start.elapsed().as_secs_f64(), r.events, r.generated)
}

fn run_fattree(kind: SchedulerKind, levels: usize, lambda: f64, horizon: f64) -> (f64, u64, u64) {
    let scenario = Scenario::builder(Topology::FatTree { levels })
        .lambda(lambda)
        .horizon(horizon)
        .warmup(horizon * 0.2)
        .seed(7)
        .scheduler(kind)
        .build()
        .expect("valid scenario");
    let start = Instant::now();
    let r = scenario.run().expect("scenario runs");
    (start.elapsed().as_secs_f64(), r.events, r.generated)
}

fn run_smallworld(
    kind: SchedulerKind,
    side: u32,
    lambda: f64,
    horizon: f64,
    workers: usize,
) -> (f64, u64, u64) {
    let scenario = Scenario::builder(Topology::SmallWorld {
        side,
        dims: 2,
        links: 2,
        alpha: 2.0,
        seed: 7,
    })
    .lambda(lambda)
    .horizon(horizon)
    .warmup(horizon * 0.2)
    .seed(7)
    .scheduler(kind)
    .workers(workers)
    .build()
    .expect("valid scenario");
    let start = Instant::now();
    let r = scenario.run().expect("scenario runs");
    (start.elapsed().as_secs_f64(), r.events, r.generated)
}

fn run_hyperbolic(kind: SchedulerKind, nodes: u32, lambda: f64, horizon: f64) -> (f64, u64, u64) {
    let scenario = Scenario::builder(Topology::Hyperbolic {
        nodes,
        alpha: 0.7,
        radius_offset: -1.5,
        seed: 7,
    })
    .lambda(lambda)
    .horizon(horizon)
    .warmup(horizon * 0.2)
    .seed(7)
    .scheduler(kind)
    .build()
    .expect("valid scenario");
    let start = Instant::now();
    let r = scenario.run().expect("scenario runs");
    (start.elapsed().as_secs_f64(), r.events, r.generated)
}

fn run_seed(dim: usize, rho: f64, horizon: f64) -> (f64, u64, u64) {
    let start = Instant::now();
    let r = run_seed_engine(dim, rho / 0.5, 0.5, horizon, 7);
    (start.elapsed().as_secs_f64(), r.events, r.generated)
}

fn main() {
    let scale = std::env::var("HYPERROUTE_SCALE").unwrap_or_default();
    let scale = match scale.to_ascii_lowercase().as_str() {
        "full" => "full",
        "ci" => "ci",
        _ => "quick",
    };
    let (horizon, reps) = match scale {
        "full" => (400.0, 9),
        "ci" => (60.0, 3),
        _ => (120.0, 5),
    };
    let dims = [6usize, 8, 10];
    let rhos = [0.5f64, 0.8, 0.95];

    let mut cells: Vec<Cell> = Vec::new();
    #[allow(clippy::too_many_arguments)]
    let record = |cells: &mut Vec<Cell>,
                  sim: &'static str,
                  dim: usize,
                  rho: f64,
                  engine: &'static str,
                  workers: usize,
                  wall_s: f64,
                  events: u64,
                  generated: u64| {
        cells.push(Cell {
            sim,
            dim,
            rho,
            engine,
            workers,
            wall_s,
            events,
            generated,
            events_per_sec: events as f64 / wall_s,
            packets_per_sec: generated as f64 / wall_s,
        });
    };

    for &dim in &dims {
        for &rho in &rhos {
            // Alternate engines within each repetition so slow drift in
            // machine speed cancels out of the ratios; keep each engine's
            // best (least-interference) time.
            let mut best = [f64::MAX; 3];
            let mut meta = [(0u64, 0u64); 3];
            for _ in 0..reps {
                let runs = [
                    run_seed(dim, rho, horizon),
                    run_hypercube(SchedulerKind::Heap, dim, rho, horizon, 1),
                    run_hypercube(SchedulerKind::Calendar, dim, rho, horizon, 1),
                ];
                for (i, &(t, ev, gen)) in runs.iter().enumerate() {
                    best[i] = best[i].min(t);
                    meta[i] = (ev, gen);
                }
            }
            for (i, engine) in ["seed", "heap", "calendar"].into_iter().enumerate() {
                let (events, generated) = meta[i];
                record(
                    &mut cells,
                    "hypercube",
                    dim,
                    rho,
                    engine,
                    1,
                    best[i],
                    events,
                    generated,
                );
            }
            let speed = |engine: &str| {
                let c = cells
                    .iter()
                    .rfind(|c| c.dim == dim && c.rho == rho && c.engine == engine)
                    .expect("cell recorded");
                c.events as f64 / c.wall_s
            };
            eprintln!(
                "d{dim} rho{rho}: seed {:.2} Mev/s | heap {:.2} Mev/s | calendar {:.2} Mev/s | calendar/seed {:.2}x, calendar/heap {:.2}x",
                speed("seed") / 1e6,
                speed("heap") / 1e6,
                speed("calendar") / 1e6,
                speed("calendar") / speed("seed"),
                speed("calendar") / speed("heap"),
            );
        }
    }

    // The non-hypercube topologies on the same engine, both scheduler
    // backends (cell key = sim name + node count + nominal load):
    // a 256-node bidirectional ring near per-direction ρ ≈ 0.8, a
    // 16-ary 2-cube at ρ ≈ 0.8, a 1024-node de Bruijn graph at a mean
    // per-arc load ≈ 0.45, and a 256-leaf fat tree at a nominal up-link
    // load ≈ 0.5 — all but the ring on the blanket GraphSpec.
    let ring_nodes = 256usize;
    // The sparse generators run at 65536 nodes except under the CI
    // scale, whose shared runners can't hold the full build+route grid.
    let sparse_n: u32 = if scale == "ci" { 4096 } else { 65536 };
    let sw_side = (sparse_n as f64).sqrt() as u32;
    type TopoRun = (
        &'static str,
        usize,
        f64,
        Box<dyn Fn(SchedulerKind) -> (f64, u64, u64)>,
    );
    let extra: Vec<TopoRun> = vec![
        (
            "ring",
            ring_nodes,
            0.8,
            Box::new(move |kind| run_ring(kind, ring_nodes, 0.025, horizon)),
        ),
        (
            "torus",
            256,
            0.8,
            Box::new(move |kind| run_torus(kind, 16, 2, 0.355, horizon)),
        ),
        (
            "debruijn",
            1024,
            0.45,
            Box::new(move |kind| run_debruijn(kind, 10, 0.1, horizon)),
        ),
        (
            "fattree",
            256,
            0.5,
            Box::new(move |kind| run_fattree(kind, 8, 0.18, horizon)),
        ),
        (
            "smallworld",
            sparse_n as usize,
            0.3,
            Box::new(move |kind| run_smallworld(kind, sw_side, 0.02, horizon, 1)),
        ),
        (
            "hyperbolic",
            sparse_n as usize,
            0.3,
            Box::new(move |kind| run_hyperbolic(kind, sparse_n, 0.02, horizon)),
        ),
    ];
    for (sim, size, rho, runner) in &extra {
        let mut best = [f64::MAX; 2];
        let mut meta = [(0u64, 0u64); 2];
        for _ in 0..reps {
            let runs = [runner(SchedulerKind::Heap), runner(SchedulerKind::Calendar)];
            for (i, &(t, ev, gen)) in runs.iter().enumerate() {
                best[i] = best[i].min(t);
                meta[i] = (ev, gen);
            }
        }
        for (i, engine) in ["heap", "calendar"].into_iter().enumerate() {
            let (events, generated) = meta[i];
            record(
                &mut cells, sim, *size, *rho, engine, 1, best[i], events, generated,
            );
        }
        eprintln!(
            "{sim} n{size}: heap {:.2} Mev/s | calendar {:.2} Mev/s",
            meta[0].0 as f64 / best[0] / 1e6,
            meta[1].0 as f64 / best[1] / 1e6,
        );
    }

    // The intra-run sharded engine (schema v6): the d12 hypercube at
    // workers ∈ {1, 2, 4, 8} and the generated small-world at
    // workers ∈ {2, 4, 8} (its workers = 1 baseline is the calendar
    // cell recorded above — same scenario, seed, and horizon). Reports
    // are byte-identical at every worker count (the corpus/proptest
    // gates prove it), so these cells measure pure execution cost:
    // on a multi-core host they show the scaling, on a single-core
    // host they honestly show the window-barrier overhead.
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let par_dim = 12usize;
    let par_reps = if scale == "full" { 5 } else { 3 };
    for &w in &[1usize, 2, 4, 8] {
        let mut best = f64::MAX;
        let mut m = (0u64, 0u64);
        for _ in 0..par_reps {
            let (t, ev, gen) = run_hypercube(SchedulerKind::Calendar, par_dim, 0.8, horizon, w);
            best = best.min(t);
            m = (ev, gen);
        }
        record(
            &mut cells,
            "hypercube",
            par_dim,
            0.8,
            "calendar",
            w,
            best,
            m.0,
            m.1,
        );
        eprintln!(
            "hypercube d{par_dim} rho0.8 workers={w}: {:.2} Mev/s",
            m.0 as f64 / best / 1e6
        );
    }
    for &w in &[2usize, 4, 8] {
        let mut best = f64::MAX;
        let mut m = (0u64, 0u64);
        for _ in 0..par_reps {
            let (t, ev, gen) = run_smallworld(SchedulerKind::Calendar, sw_side, 0.02, horizon, w);
            best = best.min(t);
            m = (ev, gen);
        }
        record(
            &mut cells,
            "smallworld",
            sparse_n as usize,
            0.3,
            "calendar",
            w,
            best,
            m.0,
            m.1,
        );
        eprintln!(
            "smallworld n{sparse_n} workers={w}: {:.2} Mev/s",
            m.0 as f64 / best / 1e6
        );
    }

    let rate = |sim: &str, dim: usize, rho: f64, engine: &str, workers: usize| {
        cells
            .iter()
            .find(|c| {
                c.sim == sim
                    && c.dim == dim
                    && (c.rho - rho).abs() < 1e-9
                    && c.engine == engine
                    && c.workers == workers
            })
            .map(|c| c.events_per_sec)
            .expect("grid cell present")
    };
    let headline_seed =
        rate("hypercube", 8, 0.8, "calendar", 1) / rate("hypercube", 8, 0.8, "seed", 1);
    let headline_heap =
        rate("hypercube", 8, 0.8, "calendar", 1) / rate("hypercube", 8, 0.8, "heap", 1);
    // Self-relative sharded speedups (>1 only where the host has the
    // cores to back it; the single-threaded engine is the oracle and
    // the baseline).
    let d12_w8 = rate("hypercube", par_dim, 0.8, "calendar", 8)
        / rate("hypercube", par_dim, 0.8, "calendar", 1);
    let sw_w8 = rate("smallworld", sparse_n as usize, 0.3, "calendar", 8)
        / rate("smallworld", sparse_n as usize, 0.3, "calendar", 1);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"engine\",");
    let _ = writeln!(json, "  \"schema_version\": {SCHEMA_VERSION},");
    let _ = writeln!(json, "  \"scale\": \"{scale}\",");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"kernel\": \"hypercube_sim greedy p=0.5 (+ ring n={ring_nodes} bidirectional, torus 16^2, de Bruijn n=1024, fat tree 256 leaves on the blanket GraphSpec; smallworld/hyperbolic n={sparse_n} generated CSR + metric greedy, build included; sharded d12 + smallworld at workers 1/2/4/8), horizon {horizon}, warmup 20%, best of {reps}\",");
    let _ = writeln!(
        json,
        "  \"baseline\": \"seed = frozen pre-PR engine (binary-heap FEL, VecDeque arc queues, per-event asserts, in-queue arrival events); heap/calendar = generic engine (dequeued arrival stream + unit-service completion ring) with the scheduler knob set to each backend; the knob selects only the equivalent network event list, so both columns time the same engine\","
    );
    let _ = writeln!(
        json,
        "  \"engine_features\": {{ \"generic_engine\": true, \"arrival_stream_dequeued\": true, \"peek_payload_prefetch\": true, \"blanket_graph_spec\": true, \"sparse_metric_greedy\": true, \"intra_run_sharding\": true }},"
    );
    let _ = writeln!(
        json,
        "  \"headline\": {{ \"kernel\": \"hypercube_sim/d8_rho0.8\", \"calendar_vs_seed_speedup\": {headline_seed:.3}, \"calendar_vs_heap_backend_speedup\": {headline_heap:.3} }},"
    );
    let _ = writeln!(
        json,
        "  \"parallel\": {{ \"host_cores\": {host_cores}, \"hypercube_d12_w8_self_speedup\": {d12_w8:.3}, \"smallworld_w8_self_speedup\": {sw_w8:.3} }},"
    );
    // Engine phase timers (schema v5). In default builds the feature is
    // off and only `enabled: false` is recorded — the grid above then
    // measured a timer-free hot loop. Rebuild with
    // `--features hyperroute-core/profile` for per-phase costs.
    let profile = hyperroute_core::profile::take();
    if profile.enabled {
        let total_nanos: u64 = profile.phases.iter().map(|p| p.nanos).sum();
        let _ = writeln!(
            json,
            "  \"profile\": {{ \"enabled\": true, \"total_timed_s\": {:.6}, \"phases\": {{",
            total_nanos as f64 / 1e9
        );
        for (i, p) in profile.phases.iter().enumerate() {
            let sep = if i + 1 == profile.phases.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                json,
                "    \"{}\": {{ \"nanos\": {}, \"hits\": {} }}{sep}",
                p.name, p.nanos, p.hits
            );
        }
        json.push_str("  } },\n");
    } else {
        let _ = writeln!(json, "  \"profile\": {{ \"enabled\": false }},");
    }
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 == cells.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{ \"sim\": \"{}\", \"dim\": {}, \"rho\": {}, \"engine\": \"{}\", \"workers\": {}, \"wall_s\": {:.6}, \"events\": {}, \"packets\": {}, \"events_per_sec\": {:.0}, \"packets_per_sec\": {:.0} }}{sep}",
            c.sim, c.dim, c.rho, c.engine, c.workers, c.wall_s, c.events, c.generated, c.events_per_sec, c.packets_per_sec
        );
    }
    json.push_str("  ]\n}\n");

    // Schema self-check: refuse to write a report CI would reject.
    for key in [
        "\"schema_version\"",
        "\"engine_features\"",
        "\"arrival_stream_dequeued\"",
        "\"sim\": \"ring\"",
        "\"sim\": \"torus\"",
        "\"sim\": \"debruijn\"",
        "\"sim\": \"fattree\"",
        "\"sim\": \"smallworld\"",
        "\"sim\": \"hyperbolic\"",
        "\"headline\"",
        "\"parallel\"",
        "\"host_cores\"",
        "\"workers\": 8",
        "\"profile\"",
    ] {
        assert!(json.contains(key), "emitted report lost schema key {key}");
    }

    let out = std::env::var("HYPERROUTE_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json").to_string()
    });
    std::fs::write(&out, &json).expect("write BENCH_engine.json");
    eprintln!("wrote {out}");
    eprintln!(
        "headline d8_rho0.8: calendar vs seed baseline {headline_seed:.2}x, vs heap backend {headline_heap:.2}x"
    );
    eprintln!(
        "sharded self-speedup at 8 workers (host has {host_cores} core(s)): \
         hypercube d12 {d12_w8:.2}x, smallworld n{sparse_n} {sw_w8:.2}x"
    );
}
