//! [`SparseTopology`]: metric greedy routing over a generated CSR graph.
//!
//! This is the sparse half of the dense-vs-sparse split (see the
//! `hyperroute-topology` crate docs): a [`SparseGraph`] adjacency plus an
//! [`Embedding`] metric implement [`RoutingTopology`] with **no
//! closed-form next arc** — the greedy step scans the node's CSR row for
//! the neighbour strictly closest to the destination. Because metric
//! greedy can stall, `next_arc` here exercises the trait's relaxed
//! contract: it returns `None` not only at the destination but also at a
//! **local minimum** (no neighbour strictly closer) or a **dead end**
//! (no out-arcs at all); the engine's `GraphSpec` maps that to the
//! `LOCAL_MINIMUM`/`DEAD_END` route outcomes and, when configured, the
//! GOAFR-style escape fallback.

use crate::csr::SparseGraph;
use crate::embed::Embedding;
use hyperroute_topology::RoutingTopology;

/// A generated sparse graph routed by embedding-metric greedy.
#[derive(Clone, Debug)]
pub struct SparseTopology {
    graph: SparseGraph,
    embed: Embedding,
    /// Expected greedy hop count under uniform destinations, served as
    /// `mean_distance_hint`. Analytic per generator (the trait default
    /// would sample quantised *metric* values, which are not hops).
    hops_hint: f64,
}

impl SparseTopology {
    /// Assemble a routed topology from a generator's parts.
    pub fn new(graph: SparseGraph, embed: Embedding, hops_hint: f64) -> SparseTopology {
        SparseTopology {
            graph,
            embed,
            hops_hint,
        }
    }

    /// The underlying CSR adjacency.
    pub fn graph(&self) -> &SparseGraph {
        &self.graph
    }

    /// The embedding metric.
    pub fn embedding(&self) -> &Embedding {
        &self.embed
    }

    /// The embedding distance between two nodes (unquantised).
    pub fn metric(&self, u: u64, v: u64) -> f64 {
        self.embed.metric(u, v)
    }

    /// Walk the greedy route from `src` to `dest` without an engine:
    /// `Ok(hops)` on delivery, `Err(stall_node)` at a local minimum or
    /// dead end. Experiment harnesses use this for success-rate and
    /// stretch measurements decoupled from queueing.
    pub fn greedy_walk(&self, src: u64, dest: u64) -> Result<usize, u64> {
        let mut at = src;
        let mut hops = 0usize;
        while at != dest {
            match self.next_arc(at, dest) {
                Some(arc) => {
                    at = self.graph.arc_head(arc) as u64;
                    hops += 1;
                }
                None => return Err(at),
            }
        }
        Ok(hops)
    }

    /// Breadth-first shortest-path hop count from `src` to `dest`
    /// (`None` if unreachable). O(n + m) with a scratch frontier —
    /// experiment-harness use only (stretch baselines).
    pub fn bfs_distance(&self, src: u64, dest: u64) -> Option<usize> {
        if src == dest {
            return Some(0);
        }
        let n = self.graph.num_nodes();
        let mut dist = vec![u32::MAX; n];
        dist[src as usize] = 0;
        let mut frontier = vec![src as u32];
        let mut next = Vec::new();
        let mut depth = 0u32;
        while !frontier.is_empty() {
            depth += 1;
            for &u in &frontier {
                for &v in self.graph.neighbors(u as usize) {
                    if dist[v as usize] == u32::MAX {
                        if v as u64 == dest {
                            return Some(depth as usize);
                        }
                        dist[v as usize] = depth;
                        next.push(v);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }
        None
    }
}

impl RoutingTopology for SparseTopology {
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    fn num_arcs(&self) -> usize {
        self.graph.num_arcs()
    }

    /// Metric greedy: the arc to the neighbour with the smallest
    /// embedding distance to `dest`, provided it is **strictly** smaller
    /// than the current node's (ties between neighbours break to the
    /// lowest arc index). `None` at the destination — and, unlike the
    /// dense topologies, at a local minimum or dead end. The scan
    /// compares [`Embedding::greedy_key`] values — order-identical to
    /// the metric but without its transcendental tail, which matters
    /// because power-law hubs make this row scan the routing hot loop.
    fn next_arc(&self, node: u64, dest: u64) -> Option<usize> {
        if node == dest {
            return None;
        }
        let range = self.graph.out_range(node as usize);
        let key = self.embed.key_to(dest);
        let mut best: Option<(f64, usize)> = None;
        for arc in range {
            let head = self.graph.arc_head(arc) as u64;
            if head == dest {
                return Some(arc);
            }
            let m = key.key(head);
            if best.is_none_or(|(bm, _)| m < bm) {
                best = Some((m, arc));
            }
        }
        let (m, arc) = best?;
        (m < key.key(node)).then_some(arc)
    }

    fn arc_tail(&self, arc: usize) -> u64 {
        self.graph.arc_tail(arc) as u64
    }

    fn arc_head(&self, arc: usize) -> u64 {
        self.graph.arc_head(arc) as u64
    }

    /// The quantised embedding distance — **not** a hop count: it orders
    /// nodes for strict-progress checks (detour/escape) and quantises
    /// deliberately coarsely on continuous metrics.
    fn distance(&self, node: u64, dest: u64) -> usize {
        self.embed.quantise(self.embed.metric(node, dest))
    }

    /// Every other strictly-improving neighbour, ranked by (quantised
    /// distance, arc index) — the multipath fallback's candidate list.
    fn alternate_arcs(&self, node: u64, dest: u64, out: &mut Vec<usize>) {
        let Some(greedy) = self.next_arc(node, dest) else {
            return;
        };
        let here = self.distance(node, dest);
        let start = out.len();
        for arc in self.graph.out_range(node as usize) {
            if arc == greedy {
                continue;
            }
            let d = self.distance(self.graph.arc_head(arc) as u64, dest);
            if d < here {
                out.push(arc);
            }
        }
        let ranked = &mut out[start..];
        ranked.sort_by_key(|&a| (self.distance(self.graph.arc_head(a) as u64, dest), a));
    }

    /// CSR rows group arcs by tail, so the engine's fault machinery can
    /// scan out-arcs directly instead of building its own index.
    fn out_arc_range(&self, node: u64) -> Option<std::ops::Range<usize>> {
        Some(self.graph.out_range(node as usize))
    }

    fn mean_distance_hint(&self) -> f64 {
        self.hops_hint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrBuilder;

    /// A 6-cycle with one chord (1–4): ring-offset greedy from 0 to 3
    /// routes 0→1→... and the chord creates alternates.
    fn cycle_with_chord() -> SparseTopology {
        let mut b = CsrBuilder::new(6, 3);
        let mut scratch = Vec::new();
        for v in 0..6u32 {
            scratch.extend([(v + 1) % 6, (v + 5) % 6]);
            if v == 1 {
                scratch.push(4);
            }
            if v == 4 {
                scratch.push(1);
            }
            b.push_node(v, &mut scratch);
        }
        SparseTopology::new(b.finish(), Embedding::RingOffset { n: 6 }, 1.5)
    }

    #[test]
    fn greedy_descends_the_metric() {
        let t = cycle_with_chord();
        assert_eq!(t.greedy_walk(0, 3), Ok(3));
        assert_eq!(t.greedy_walk(3, 3), Ok(0));
        // From 1, destination 4: the chord is distance 0 — direct hit.
        let arc = t.next_arc(1, 4).unwrap();
        assert_eq!(t.arc_head(arc), 4);
        // Strict progress on every step.
        let mut at = 0u64;
        while let Some(arc) = t.next_arc(at, 3) {
            let next = t.arc_head(arc);
            assert!(t.distance(next, 3) < t.distance(at, 3));
            at = next;
        }
        assert_eq!(at, 3);
    }

    #[test]
    fn local_minimum_and_dead_end_return_none() {
        // Path graph 0–1–2 plus isolated node 3, ring metric over n=4:
        // from 2 toward 3 the only neighbour (1) is farther → local
        // minimum; from 3 there are no arcs at all → dead end.
        let mut b = CsrBuilder::new(4, 2);
        let mut scratch = Vec::new();
        scratch.push(1);
        b.push_node(0, &mut scratch);
        scratch.extend([0, 2]);
        b.push_node(1, &mut scratch);
        scratch.push(1);
        b.push_node(2, &mut scratch);
        b.push_node(3, &mut scratch);
        let t = SparseTopology::new(b.finish(), Embedding::RingOffset { n: 4 }, 1.0);
        assert_eq!(t.next_arc(2, 3), None, "local minimum");
        assert_eq!(t.greedy_walk(2, 3), Err(2));
        assert_eq!(t.next_arc(3, 0), None, "dead end");
        assert_eq!(t.out_arc_range(3), Some(4..4));
        // Delivery still returns None.
        assert_eq!(t.next_arc(1, 1), None);
    }

    #[test]
    fn alternates_are_strictly_improving_and_ranked() {
        let t = cycle_with_chord();
        let mut alts = Vec::new();
        // At node 1 toward 5: greedy is 1→0 (distance 1); the chord 1→4
        // (distance 1) is an equally-ranked strict improvement over
        // distance(1,5) = 2.
        t.alternate_arcs(1, 5, &mut alts);
        let here = t.distance(1, 5);
        let greedy = t.next_arc(1, 5).unwrap();
        for &a in &alts {
            assert_ne!(a, greedy);
            assert!(t.distance(t.arc_head(a), 5) < here);
        }
        assert!(!alts.is_empty(), "the chord gives node 1 an alternate");
    }

    #[test]
    fn bfs_distance_finds_chords() {
        let t = cycle_with_chord();
        assert_eq!(t.bfs_distance(0, 3), Some(3));
        // 0→1→4 via the chord beats the 4-hop ring walk.
        assert_eq!(t.bfs_distance(0, 4), Some(2));
        assert_eq!(t.bfs_distance(2, 2), Some(0));
    }
}
