//! The benchmark's inputs: every scenario and sweep is generated from the
//! workload seed, so the same seed always gives the same inputs.

use hyperroute_core::scenario::{Axis, Scenario, Sweep, SweepParam, Topology};

/// splitmix64: a small seeded generator for input choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The paper's load factors.
pub const RHOS: [f64; 3] = [0.5, 0.8, 0.95];
/// Bit-flip probability of every paper-grid point.
pub const P: f64 = 0.5;

/// Dimension of a hypercube or butterfly, the only networks the
/// workloads generate.
pub fn dim(topology: &Topology) -> usize {
    match topology {
        Topology::Hypercube { dim } | Topology::Butterfly { dim } => *dim,
        other => unreachable!("no workload generates {}", other.name()),
    }
}

/// Injecting nodes (hypercube) or rows (butterfly): `2^d`.
pub fn sources(topology: &Topology) -> f64 {
    (1u64 << dim(topology)) as f64
}

/// Directed arcs: `d·2^d` (hypercube) or `2·d·2^d` (butterfly).
pub fn arcs(topology: &Topology) -> u64 {
    let per_row = (dim(topology) as u64) << dim(topology);
    match topology {
        Topology::Butterfly { .. } => 2 * per_row,
        _ => per_row,
    }
}

/// The 18 paper-grid points of one round: hypercube d ∈ {10, 12, 14} and
/// butterfly d ∈ {8, 10, 12}, each at ρ ∈ {0.5, 0.8, 0.95} with p = 0.5
/// (so λ = 2ρ on both networks), greedy FIFO, Poisson arrivals.
///
/// The Prop. 12/13 bracket is a statement about the stationary mean, and
/// a queue at ρ = 0.95 fills slowly from empty, so the warm-up grows with
/// ρ; the measured window holds about 2^15 packet births whatever `d`.
pub fn paper_grid(seed: u64, round: u64) -> Vec<Scenario> {
    let mut rng = Rng::new(seed, 1_000 + round);
    let mut out = Vec::new();
    let nets = [10, 12, 14]
        .map(|dim| Topology::Hypercube { dim })
        .into_iter()
        .chain([8, 10, 12].map(|dim| Topology::Butterfly { dim }));
    for topology in nets {
        for rho in RHOS {
            let lambda = rho / P;
            let warmup = match rho {
                r if r < 0.6 => 4.0,
                r if r < 0.9 => 6.0,
                _ => 20.0,
            };
            let window = (32_768.0 / (sources(&topology) * lambda)).max(1.0);
            out.push(
                Scenario::builder(topology.clone())
                    .lambda(lambda)
                    .p(P)
                    .warmup(warmup)
                    .horizon(warmup + window)
                    .seed(rng.next())
                    .build()
                    .expect("paper-grid point is valid"),
            );
        }
    }
    out
}

/// A one-point sweep: what `hyperroute-grid run` executes for a single
/// scenario.
pub fn one_point(scenario: &Scenario) -> Sweep {
    Sweep {
        base: scenario.clone(),
        axes: Vec::new(),
        derive_seeds: false,
    }
}

/// Points of each service-mix campaign.
pub const CAMPAIGN_POINTS: usize = 32;

/// A fresh 32-point service-mix sweep: small hypercubes (d ∈ 4..=7) at
/// eight seeded loads ρ ∈ [0.5, 0.7) with a short horizon. A fresh base
/// seed makes every point a cache miss. The 20-unit warm-up and the load
/// range keep each point's mean delay testable against the Prop. 12/13
/// bracket (d = 3 measures too few packets for that).
pub fn service_sweep(rng: &mut Rng) -> Sweep {
    let base = Scenario::builder(Topology::Hypercube { dim: 4 })
        .lambda(1.0)
        .p(P)
        .warmup(20.0)
        .horizon(45.0)
        .seed(rng.next())
        .build()
        .expect("service base is valid");
    let mut lambdas: Vec<f64> = (0..8).map(|_| rng.uniform(1.0, 1.4)).collect();
    lambdas.sort_by(f64::total_cmp);
    Sweep::new(
        base,
        vec![
            Axis::new(SweepParam::Dim, vec![4.0, 5.0, 6.0, 7.0]),
            Axis::new(SweepParam::Lambda, lambdas),
        ],
    )
}

/// Which engine spec `Scenario::into_simulator` picks for `scenario`.
pub fn spec_of(scenario: &Scenario) -> &'static str {
    match (&scenario.topology, &scenario.workload.faults) {
        (Topology::Hypercube { .. }, None) => "hypercube_sim",
        (Topology::Butterfly { .. }, None) => "butterfly_sim",
        _ => "graph_sim",
    }
}
