//! Property-based tests of the packet-level simulators: structural
//! invariants that must hold for *any* stable configuration and seed —
//! plus pop-order equivalence of the two event-scheduler backends, and of
//! the engine's completion ring against the heap, on random event streams.

use hyperroute::prelude::*;
use hyperroute_core::engine::CompletionRing;
use hyperroute_desim::{CalendarQueue, EventQueue, SchedulerKind};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct SimCase {
    dim: usize,
    rho: f64,
    p: f64,
    seed: u64,
}

fn sim_case() -> impl Strategy<Value = SimCase> {
    (2usize..=4, 0.1f64..0.85, 0.2f64..=1.0, any::<u64>()).prop_map(|(dim, rho, p, seed)| SimCase {
        dim,
        rho,
        p,
        seed,
    })
}

fn run_case(c: &SimCase, horizon: f64) -> Report {
    Scenario::builder(Topology::Hypercube { dim: c.dim })
        .lambda(c.rho / c.p)
        .p(c.p)
        .horizon(horizon)
        .warmup(horizon * 0.2)
        .seed(c.seed)
        .build()
        .expect("valid scenario")
        .run()
        .expect("scenario runs")
}

/// The engine's event list under test beside the heap it replaced, fed
/// the same pushes. Payloads are event ids; `hops[id]` is how many more
/// completions the event's packet will cause.
struct RingAndHeap {
    ring: CompletionRing<usize>,
    heap: EventQueue<usize>,
    hops: Vec<u8>,
}

impl RingAndHeap {
    fn push(&mut self, t: f64, hops: u8) {
        let id = self.hops.len();
        self.hops.push(hops);
        self.ring.push(t, id);
        self.heap.push(t, id);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conservation_and_quantile_order(c in sim_case()) {
        let r = run_case(&c, 400.0);
        // With drain enabled, everything generated is delivered.
        prop_assert_eq!(r.generated, r.delivered);
        // Quantiles are ordered and the mean is sane.
        if r.delay.count > 0 {
            prop_assert!(r.delay.p50 <= r.delay.p90 + 1e-9);
            prop_assert!(r.delay.p90 <= r.delay.p99 + 1e-9);
            prop_assert!(r.delay.mean >= 0.0 && r.delay.mean.is_finite());
        }
        // Hop counts cannot exceed the diameter (shortest-path routing).
        let ext = r.hypercube().expect("hypercube report");
        prop_assert!(ext.mean_hops <= c.dim as f64 + 1e-9);
        prop_assert!((0.0..=1.0).contains(&ext.zero_hop_fraction));
    }

    #[test]
    fn determinism_per_seed(c in sim_case()) {
        let a = run_case(&c, 300.0);
        let b = run_case(&c, 300.0);
        prop_assert_eq!(a.generated, b.generated);
        prop_assert_eq!(a.delay.mean, b.delay.mean);
        prop_assert_eq!(a.mean_in_system, b.mean_in_system);
    }

    #[test]
    fn delay_never_below_hops(c in sim_case()) {
        // Every hop takes at least one unit, so mean delay ≥ mean hops.
        let r = run_case(&c, 400.0);
        let hops = r.hypercube().expect("hypercube report").mean_hops;
        if r.delay.count > 0 {
            prop_assert!(
                r.delay.mean >= hops - 1e-9,
                "delay {} below hops {}", r.delay.mean, hops
            );
        }
    }

    #[test]
    fn upper_bound_holds_for_random_configs(c in sim_case()) {
        // Prop. 12 with CI slack; horizon long enough for rough convergence.
        let r = run_case(&c, 1_500.0);
        let ub = greedy_upper_bound(c.dim, c.rho / c.p, c.p);
        prop_assert!(
            r.delay.mean <= ub * 1.10 + 0.1,
            "T {} above UB {} for {:?}", r.delay.mean, ub, c
        );
    }

    #[test]
    fn scheduler_backends_pop_identically_on_batch_streams(
        times in prop::collection::vec(0.0f64..50.0, 1..300),
        rate_hint in 0.5f64..500.0,
    ) {
        // All events pushed up front, then drained: both backends must
        // agree on the full (time, payload) sequence, including FIFO
        // tie-breaks for duplicate times.
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::with_rate_hint(rate_hint);
        for (i, &t) in times.iter().enumerate() {
            heap.push(t, i);
            cal.push(t, i);
        }
        for _ in 0..times.len() {
            prop_assert_eq!(heap.pop(), cal.pop());
        }
        prop_assert_eq!(heap.pop(), None);
        prop_assert_eq!(cal.pop(), None);
    }

    #[test]
    fn scheduler_backends_pop_identically_under_interleaving(
        gaps in prop::collection::vec((0.0f64..2.5, 0u32..4), 10..200),
        rate_hint in 0.5f64..200.0,
    ) {
        // DES-like interleaving: pop one event, then schedule `n` new ones
        // at `now + gap` (sub-unit, unit, and multi-unit gaps mixed).
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::with_rate_hint(rate_hint);
        heap.push(0.0, 0usize);
        cal.push(0.0, 0usize);
        let mut id = 1usize;
        for &(gap, fanout) in &gaps {
            let (Some(a), Some(b)) = (heap.pop(), cal.pop()) else {
                prop_assert!(heap.is_empty() && cal.is_empty());
                break;
            };
            prop_assert_eq!(a, b);
            let now = a.0;
            for k in 0..fanout {
                let t = now + gap * (k as f64 + 0.5);
                heap.push(t, id);
                cal.push(t, id);
                id += 1;
            }
            prop_assert_eq!(heap.len(), cal.len());
        }
        while let Some(a) = heap.pop() {
            prop_assert_eq!(Some(a), cal.pop());
        }
        prop_assert!(cal.is_empty());
    }

    #[test]
    fn completion_ring_pops_like_the_heap(
        firings in prop::collection::vec((0u8..3, 0.0f64..1.5, 0u32..4, 0u8..5), 1..150),
    ) {
        // The engine's event pattern. An out-of-list stream (Poisson
        // arrivals, slot boundaries, same-instant firings) is merged
        // inclusively; each firing schedules a burst of completions at
        // its time + 1.0; each popped completion schedules up to two
        // more at its own time + 1.0 (the forwarded packet on an idle
        // arc and the next waiter on the arc it left).
        const SLOT: f64 = 0.25;
        let mut q = RingAndHeap {
            ring: CompletionRing::new(),
            heap: EventQueue::new(),
            hops: Vec::new(),
        };
        let mut stream_t = 0.0;
        let mut fired = 0;
        loop {
            let stream = (fired < firings.len()).then_some(stream_t);
            let (from_ring, from_heap) = match stream {
                Some(bound) => {
                    let heap_due = q.heap.peek_time().is_some_and(|t| t <= bound);
                    (
                        q.ring.pop_at_or_before(bound),
                        if heap_due { q.heap.pop() } else { None },
                    )
                }
                None => (q.ring.pop(), q.heap.pop()),
            };
            prop_assert_eq!(from_ring, from_heap);
            prop_assert_eq!(q.ring.len(), q.heap.len());
            match (from_ring, stream) {
                (Some((t, id)), _) => {
                    let hops = q.hops[id];
                    if hops > 0 {
                        q.push(t + 1.0, hops - 1);
                        if id % 3 == 0 {
                            q.push(t + 1.0, 0);
                        }
                    }
                }
                (None, Some(s)) => {
                    let (kind, gap, burst, hops) = firings[fired];
                    for _ in 0..burst {
                        q.push(s + 1.0, hops);
                    }
                    stream_t = s + match kind {
                        0 => 0.0,
                        1 => SLOT,
                        _ => gap,
                    };
                    fired += 1;
                }
                (None, None) => break,
            }
        }
        prop_assert!(q.ring.is_empty() && q.heap.is_empty());
    }

    #[test]
    fn hypercube_backends_bit_identical_on_random_configs(c in sim_case()) {
        let run = |kind| {
            Scenario::builder(Topology::Hypercube { dim: c.dim })
                .lambda(c.rho / c.p)
                .p(c.p)
                .scheduler(kind)
                .horizon(250.0)
                .warmup(50.0)
                .seed(c.seed)
                .build()
                .expect("valid scenario")
                .run()
                .expect("scenario runs")
        };
        prop_assert_eq!(run(SchedulerKind::Heap), run(SchedulerKind::Calendar));
    }

    #[test]
    fn butterfly_invariants(
        dim in 2usize..=4,
        load in 0.1f64..0.8,
        p in 0.1f64..0.9,
        seed in any::<u64>(),
    ) {
        let lambda = load / p.max(1.0 - p);
        let r = Scenario::builder(Topology::Butterfly { dim })
            .lambda(lambda)
            .p(p)
            .horizon(400.0)
            .warmup(80.0)
            .seed(seed)
            .build()
            .expect("valid scenario")
            .run()
            .expect("scenario runs");
        prop_assert_eq!(r.generated, r.delivered);
        if r.delay.count > 0 {
            // Unique path of length d: delay at least d, verticals ≤ d.
            prop_assert!(r.delay.mean >= dim as f64 - 1e-9);
            prop_assert!(
                r.butterfly().expect("butterfly report").mean_vertical_hops
                    <= dim as f64 + 1e-9
            );
        }
    }
}
