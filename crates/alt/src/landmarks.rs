//! Landmark selection and the distance table.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spq_dijkstra::Dijkstra;
use spq_graph::par;
use spq_graph::size::IndexSize;
use spq_graph::types::{Dist, NodeId};
use spq_graph::RoadNetwork;

/// How landmarks are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LandmarkSelection {
    /// Farthest-point traversal (the classic default): each new landmark
    /// maximises its network distance to the chosen set. Gives
    /// peripheral, well-spread landmarks and the strongest bounds.
    #[default]
    Farthest,
    /// Uniformly random vertices — the cheap baseline; the ablation
    /// bench quantifies how much the farthest heuristic buys.
    Random,
}

/// ALT preprocessing parameters.
#[derive(Debug, Clone, Copy)]
pub struct AltParams {
    /// Number of landmarks (classic implementations use 8–32).
    pub num_landmarks: usize,
    /// Landmark selection strategy.
    pub selection: LandmarkSelection,
    /// Seed for the randomised parts of selection.
    pub seed: u64,
}

impl Default for AltParams {
    fn default() -> Self {
        AltParams {
            num_landmarks: 16,
            selection: LandmarkSelection::Farthest,
            seed: 0xa17_0001,
        }
    }
}

/// The ALT index: landmark ids plus the `k × n` landmark-to-vertex
/// distance table (undirected networks need only one direction).
#[derive(Debug, PartialEq)]
pub struct Alt {
    landmarks: Vec<NodeId>,
    /// Row-major: `dist[l * n + v]` = network distance landmark l ↔ v.
    dist: Vec<u32>,
    n: usize,
}

impl Alt {
    /// Selects landmarks per `params.selection` and tabulates their
    /// distances to every vertex.
    ///
    /// Parallelism: with [`LandmarkSelection::Random`] the landmark set
    /// is fixed up front, so the per-landmark Dijkstra sweeps fan out
    /// over the preprocessing worker pool ([`spq_graph::par`]). With
    /// [`LandmarkSelection::Farthest`] each landmark is the argmax of
    /// the distance minimum over all *previous* landmarks' sweeps — a
    /// sequential fixed point by definition — so its sweeps run in
    /// order, each one doubling as that landmark's table row (no work is
    /// wasted relative to the parallel path). Either way the table holds
    /// exact Dijkstra distances, so the built index is byte-identical
    /// for every thread count.
    pub fn build(net: &RoadNetwork, params: &AltParams) -> Self {
        let n = net.num_nodes();
        let k = params.num_landmarks.clamp(1, n);
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut dijkstra = Dijkstra::new(n);

        // Seed: run one sweep from a random vertex and take the farthest
        // vertex as the first landmark (a periphery point).
        let start = (rng.random::<u64>() % n as u64) as NodeId;
        dijkstra.run(net, start);
        let first = (0..n as NodeId)
            .max_by_key(|&v| dijkstra.distance(v).unwrap_or(0))
            .expect("non-empty network");

        match params.selection {
            LandmarkSelection::Farthest => {
                let mut landmarks = Vec::with_capacity(k);
                let mut dist = Vec::with_capacity(k * n);
                // min over chosen landmarks of dist(l, v).
                let mut min_dist = vec![Dist::MAX; n];
                let mut next = first;
                for _ in 0..k {
                    landmarks.push(next);
                    dijkstra.run(net, next);
                    let row_start = dist.len();
                    dist.resize(row_start + n, 0);
                    for v in 0..n {
                        let d = dijkstra.distance(v as NodeId).expect("connected network");
                        dist[row_start + v] = u32::try_from(d).expect("distances fit u32");
                        if d < min_dist[v] {
                            min_dist[v] = d;
                        }
                    }
                    next = (0..n as NodeId)
                        .max_by_key(|&v| min_dist[v as usize])
                        .expect("non-empty network");
                }
                Alt { landmarks, dist, n }
            }
            LandmarkSelection::Random => {
                let mut landmarks = Vec::with_capacity(k);
                landmarks.push(first);
                while landmarks.len() < k {
                    // Resample until unseen (k ≤ n guarantees progress).
                    let c = (rng.random::<u64>() % n as u64) as NodeId;
                    if !landmarks.contains(&c) {
                        landmarks.push(c);
                    }
                }
                let rows = par::par_map(
                    &landmarks,
                    || Dijkstra::new(n),
                    |dijkstra, &l| {
                        dijkstra.run(net, l);
                        (0..n as NodeId)
                            .map(|v| {
                                let d = dijkstra.distance(v).expect("connected network");
                                u32::try_from(d).expect("distances fit u32")
                            })
                            .collect::<Vec<u32>>()
                    },
                );
                let mut dist = Vec::with_capacity(k * n);
                for row in rows {
                    dist.extend_from_slice(&row);
                }
                Alt { landmarks, dist, n }
            }
        }
    }

    /// The selected landmarks.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Distance between landmark index `l` and vertex `v`.
    #[inline]
    pub fn landmark_dist(&self, l: usize, v: NodeId) -> Dist {
        self.dist[l * self.n + v as usize] as Dist
    }

    /// The triangle-inequality lower bound on `dist(v, t)`:
    /// `max_l |dist(l, t) - dist(l, v)|`. Admissible and consistent, so
    /// A* with this potential is exact.
    #[inline]
    pub fn lower_bound(&self, v: NodeId, t: NodeId) -> Dist {
        let mut best = 0;
        for l in 0..self.landmarks.len() {
            let dv = self.dist[l * self.n + v as usize] as i64;
            let dt = self.dist[l * self.n + t as usize] as i64;
            let lb = (dt - dv).unsigned_abs();
            if lb > best {
                best = lb;
            }
        }
        best
    }

    /// Number of vertices indexed.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Creates a query workspace.
    pub fn query<'a>(&'a self, net: &'a RoadNetwork) -> crate::query::AltQuery<'a> {
        crate::query::AltQuery::new(self, net)
    }
}

impl IndexSize for Alt {
    fn index_size_bytes(&self) -> usize {
        self.landmarks.len() * 4 + self.dist.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_graph::toy::{figure1, grid_graph};

    #[test]
    fn landmarks_are_distinct_and_peripheral() {
        let g = grid_graph(10, 10);
        let alt = Alt::build(
            &g,
            &AltParams {
                num_landmarks: 4,
                seed: 1,
                ..AltParams::default()
            },
        );
        let mut ls = alt.landmarks().to_vec();
        ls.sort_unstable();
        ls.dedup();
        assert_eq!(ls.len(), 4, "landmarks must be distinct");
        // Farthest-point selection must spread out: the first two
        // landmarks sit (near-)diametrically apart.
        let mut d = spq_dijkstra::Dijkstra::new(g.num_nodes());
        d.run(&g, alt.landmarks()[0]);
        let spread = d.distance(alt.landmarks()[1]).unwrap();
        let diameter = (0..g.num_nodes() as NodeId)
            .filter_map(|v| d.distance(v))
            .max()
            .unwrap();
        assert!(
            spread * 10 >= diameter * 8,
            "landmarks 0/1 only {spread} apart (diameter-ish {diameter})"
        );
    }

    #[test]
    fn lower_bound_is_admissible_and_tight_at_landmarks() {
        let g = figure1();
        let alt = Alt::build(
            &g,
            &AltParams {
                num_landmarks: 3,
                seed: 2,
                ..AltParams::default()
            },
        );
        let mut d = spq_dijkstra::Dijkstra::new(g.num_nodes());
        for s in 0..8u32 {
            d.run(&g, s);
            for t in 0..8u32 {
                let lb = alt.lower_bound(s, t);
                let truth = d.distance(t).unwrap();
                assert!(lb <= truth, "lb({s},{t}) = {lb} > {truth}");
            }
        }
        // At a landmark the bound is exact for any target.
        let l = alt.landmarks()[0];
        d.run(&g, l);
        for t in 0..8u32 {
            assert_eq!(alt.lower_bound(l, t), d.distance(t).unwrap());
        }
    }

    #[test]
    fn more_landmarks_cost_more_space() {
        let g = grid_graph(8, 8);
        let a4 = Alt::build(
            &g,
            &AltParams {
                num_landmarks: 4,
                seed: 3,
                ..AltParams::default()
            },
        );
        let a8 = Alt::build(
            &g,
            &AltParams {
                num_landmarks: 8,
                seed: 3,
                ..AltParams::default()
            },
        );
        assert_eq!(a8.index_size_bytes(), 2 * a4.index_size_bytes());
    }

    #[test]
    fn random_selection_is_exact_but_weaker() {
        // Random landmarks stay admissible (the bound formula does not
        // care how they were chosen) but spread less well: the farthest
        // heuristic's average lower bound must be at least as tight.
        let g = grid_graph(12, 12);
        let far = Alt::build(
            &g,
            &AltParams {
                num_landmarks: 6,
                seed: 5,
                ..AltParams::default()
            },
        );
        let rnd = Alt::build(
            &g,
            &AltParams {
                num_landmarks: 6,
                selection: LandmarkSelection::Random,
                seed: 5,
            },
        );
        let mut d = spq_dijkstra::Dijkstra::new(g.num_nodes());
        let mut sum_far = 0u64;
        let mut sum_rnd = 0u64;
        for s in (0..g.num_nodes() as NodeId).step_by(7) {
            d.run(&g, s);
            for t in (0..g.num_nodes() as NodeId).step_by(11) {
                let truth = d.distance(t).unwrap();
                let lf = far.lower_bound(s, t);
                let lr = rnd.lower_bound(s, t);
                assert!(lf <= truth);
                assert!(lr <= truth);
                sum_far += lf;
                sum_rnd += lr;
            }
        }
        assert!(sum_far >= sum_rnd, "farthest {sum_far} vs random {sum_rnd}");
    }

    #[test]
    fn landmark_count_is_clamped() {
        let g = figure1();
        let alt = Alt::build(
            &g,
            &AltParams {
                num_landmarks: 100,
                seed: 4,
                ..AltParams::default()
            },
        );
        assert_eq!(alt.landmarks().len(), 8);
    }
}
