//! Differential oracle for the sharded engine: a run split across W
//! workers must produce a report **byte-identical** to the
//! single-threaded engine, for every engine-backed topology arm, both
//! scheduler backends, and every fault fallback. The single-threaded
//! engine is the specification; [`hyperroute_core::parallel`] is only
//! ever an execution strategy.

use hyperroute_core::scenario::{Scenario, Topology};
use hyperroute_core::{ContentionPolicy, DestinationSpec};
use hyperroute_desim::SchedulerKind;
use proptest::prelude::*;

/// Run `s` at `workers` (1 = classic engine) and return the report.
fn run_with(s: &Scenario, workers: usize) -> hyperroute_core::Report {
    let mut s = s.clone();
    s.run.workers = std::num::NonZeroUsize::new(workers);
    s.validate().expect("workers gate rejected scenario");
    s.clone().run().expect("run")
}

/// Assert byte-identity between one-thread and W-thread execution,
/// under both scheduler backends.
fn assert_shard_oblivious(mut s: Scenario, workers: usize) {
    for sched in [SchedulerKind::Calendar, SchedulerKind::Heap] {
        s.run.scheduler = sched;
        let single = run_with(&s, 1);
        let sharded = run_with(&s, workers);
        assert_eq!(
            single, sharded,
            "report diverged at workers={workers} sched={sched:?}"
        );
        assert_eq!(
            single.events, sharded.events,
            "event count diverged at workers={workers} sched={sched:?}"
        );
    }
}

fn base(topology: Topology) -> Scenario {
    Scenario::builder(topology)
        .lambda(0.8)
        .horizon(160.0)
        .warmup(40.0)
        .seed(0xC0FFEE)
        .build()
        .expect("valid scenario")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn hypercube_is_shard_oblivious(
        dim in 2usize..=6,
        seed in 0u64..1_000,
        workers_log in 1u32..=3,
        lifo in any::<bool>(),
    ) {
        let mut s = base(Topology::Hypercube { dim });
        s.workload.p = 0.7;
        s.run.seed = seed;
        if lifo {
            s.policy.contention = ContentionPolicy::Lifo;
        }
        assert_shard_oblivious(s, 1usize << workers_log);
    }

    #[test]
    fn butterfly_is_shard_oblivious(
        dim in 2usize..=5,
        seed in 0u64..1_000,
        workers_log in 1u32..=3,
    ) {
        let mut s = base(Topology::Butterfly { dim });
        s.workload.p = 0.6;
        s.run.seed = seed;
        assert_shard_oblivious(s, 1usize << workers_log);
    }

    #[test]
    fn ring_and_torus_are_shard_oblivious(
        seed in 0u64..1_000,
        workers_log in 1u32..=3,
        bidirectional in any::<bool>(),
    ) {
        let mut s = base(Topology::Ring { nodes: 24, bidirectional });
        s.workload.lambda = 0.25;
        s.run.seed = seed;
        assert_shard_oblivious(s, 1usize << workers_log);

        let mut s = base(Topology::Torus { radix: 5, dim: 2 });
        s.workload.lambda = 0.5;
        s.run.seed = seed;
        assert_shard_oblivious(s, 1usize << workers_log);
    }

    #[test]
    fn debruijn_and_fattree_are_shard_oblivious(
        seed in 0u64..1_000,
        workers_log in 1u32..=3,
    ) {
        let mut s = base(Topology::DeBruijn { dim: 5 });
        s.workload.lambda = 0.4;
        s.run.seed = seed;
        assert_shard_oblivious(s, 1usize << workers_log);

        let mut s = base(Topology::FatTree { levels: 4 });
        s.workload.lambda = 0.3;
        s.run.seed = seed;
        assert_shard_oblivious(s, 1usize << workers_log);
    }

    #[test]
    fn fault_fallbacks_are_shard_oblivious(
        seed in 0u64..500,
        workers_log in 1u32..=3,
        fallback_pick in 0u8..5,
        dynamic in any::<bool>(),
    ) {
        use hyperroute_core::config::{FaultArrivals, FaultFallback, FaultMode, FaultSpec};

        let fallback = match fallback_pick {
            0 => FaultFallback::Drop,
            1 => FaultFallback::Detour,
            2 => FaultFallback::Multipath,
            3 => FaultFallback::Retry { budget: 6 },
            _ => FaultFallback::Escape { ttl: 6 },
        };
        let mut s = base(Topology::Torus { radix: 5, dim: 2 });
        s.workload.lambda = 0.4;
        s.workload.stretch = Some(true);
        s.workload.faults = Some(FaultSpec {
            mode: FaultMode::Seeded { fraction: 0.2, seed: 4 },
            fallback,
            dynamics: dynamic.then_some(FaultArrivals { rate: 0.05, seed: 31 }),
        });
        s.run.seed = seed;
        assert_shard_oblivious(s, 1usize << workers_log);
    }

    #[test]
    fn sparse_escape_is_shard_oblivious(
        seed in 0u64..200,
        workers_log in 1u32..=3,
    ) {
        use hyperroute_core::config::{FaultFallback, FaultMode, FaultSpec};

        // Metric greedy on a small world stalls even without faults;
        // the escape walk must replay identically across shards.
        let mut s = base(Topology::SmallWorld {
            side: 10,
            dims: 2,
            links: 1,
            alpha: 2.0,
            seed: 3,
        });
        s.workload.lambda = 0.15;
        s.workload.dest = DestinationSpec::BitFlip;
        s.workload.faults = Some(FaultSpec {
            mode: FaultMode::Seeded { fraction: 0.1, seed: 8 },
            fallback: FaultFallback::Escape { ttl: 5 },
            dynamics: None,
        });
        s.run.seed = seed;
        assert_shard_oblivious(s, 1usize << workers_log);
    }

    #[test]
    fn sparse_graphs_are_shard_oblivious(
        seed in 0u64..200,
        workers_log in 1u32..=3,
    ) {
        let mut s = base(Topology::SmallWorld {
            side: 12,
            dims: 2,
            links: 2,
            alpha: 2.0,
            seed: 7,
        });
        s.workload.lambda = 0.1;
        s.workload.dest = DestinationSpec::BitFlip;
        s.run.seed = seed;
        assert_shard_oblivious(s, 1usize << workers_log);
    }
}

/// A dying shard must take the whole run down (panic propagation), not
/// deadlock the coordinator or silently drop its partition.
#[test]
fn killed_shard_propagates_panic() {
    use hyperroute_core::engine::{Advance, ArcChoice, EngineCfg, EngineSpec, Spawn};
    use hyperroute_core::packet::{Packet, NO_SECOND_LEG};
    use hyperroute_core::parallel::{ParallelEngine, ShardSpec, ShardableSpec};
    use hyperroute_core::ArrivalModel;
    use hyperroute_desim::SimRng;

    /// A directed ring: arc `i` goes `i -> i+1 mod n`, every packet
    /// travels four hops. Any hop served on the upper half of the ring
    /// (shard 1 of 2 under the contiguous degree-balanced partition)
    /// panics.
    struct KillSpec {
        nodes: u32,
    }

    impl EngineSpec for KillSpec {
        type Pkt = Packet;

        fn num_sources(&self) -> usize {
            self.nodes as usize
        }

        fn num_arcs(&self) -> usize {
            self.nodes as usize
        }

        fn arc_meta(&self, arc: usize) -> u32 {
            (arc as u32 + 1) % self.nodes
        }

        fn generate(&mut self, t: f64, _source: u32, _rng: &mut SimRng) -> Spawn<Packet> {
            Spawn::Route(Packet::new(t, 4, NO_SECOND_LEG))
        }

        fn choose_arc(
            &mut self,
            _t: f64,
            _in_window: bool,
            node: u32,
            _pkt: &mut Packet,
            _rng: &mut SimRng,
        ) -> ArcChoice {
            if node >= self.nodes / 2 {
                panic!("shard poisoned at node {node}");
            }
            ArcChoice::Arc(node)
        }

        fn note_service_end(&mut self, _t: f64, _meta: u32) {}

        fn advance(&mut self, meta: u32, pkt: &mut Packet) -> Advance {
            pkt.remaining -= 1;
            pkt.hops += 1;
            if pkt.remaining == 0 {
                Advance::Deliver(pkt.hops)
            } else {
                Advance::Forward(meta)
            }
        }

        fn note_deliver(&mut self, _pkt: &Packet, _in_window: bool) {}
    }

    impl ShardSpec for KillSpec {}

    impl ShardableSpec for KillSpec {
        type Shard = KillSpec;

        fn shard(&self) -> KillSpec {
            KillSpec { nodes: self.nodes }
        }

        fn num_nodes(&self) -> usize {
            self.nodes as usize
        }

        fn arc_tail(&self, arc: usize) -> u32 {
            arc as u32
        }

        fn absorb(&mut self, _shard: &KillSpec) {}
    }

    let cfg = EngineCfg {
        lambda: 0.5,
        arrivals: ArrivalModel::Poisson,
        contention: ContentionPolicy::Fifo,
        horizon: 50.0,
        warmup: 0.0,
        seed: 9,
        drain: true,
    };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut par = ParallelEngine::new(KillSpec { nodes: 16 }, cfg, 2);
        par.drive(&mut hyperroute_core::NullObserver);
    }));
    assert!(
        result.is_err(),
        "poisoned shard did not propagate its panic"
    );
}
