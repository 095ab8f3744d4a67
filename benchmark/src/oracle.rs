//! Oracle verification: sampled answers re-checked against Dijkstra.
//!
//! The system under test is only ever compared with the index-free
//! reference implementations (`BiDijkstra` for point queries, one-to-all
//! `Dijkstra` for everything with a row or a set in it), never with
//! another of its own indexes. Verification runs after the measured
//! phase, outside every timing.

use std::time::{Duration, Instant};

use spq_dijkstra::{BiDijkstra, Dijkstra};
use spq_graph::types::{Dist, NodeId};
use spq_graph::RoadNetwork;
use spq_serve::protocol::{Cursor, Request, STATUS_OK, UNREACHABLE};

/// Every `SAMPLE_EVERY`-th op keeps its answer for verification.
pub const SAMPLE_EVERY: u64 = 61;
/// Samples verified even when the time budget is already spent.
pub const MIN_VERIFIED: usize = 64;

/// What came back for one op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// A non-OK status (refusal or error): counted as failed.
    Refused(u8),
    /// An OK frame whose body does not parse for the op that was sent.
    Malformed(String),
    /// `DISTANCE`.
    Distance(Option<Dist>),
    /// `PATH`.
    Path(Option<(Dist, Vec<NodeId>)>),
    /// `ONE_TO_MANY` row or row-major `DISTANCES` table.
    Row(Vec<Option<Dist>>),
    /// `KNN` / `RANGE` `(vertex, distance)` list.
    Pairs(Vec<(NodeId, Dist)>),
}

fn opt(d: u64) -> Option<Dist> {
    (d != UNREACHABLE).then_some(d)
}

fn parse(req: &Request, body: &[u8]) -> Result<Answer, String> {
    let mut c = Cursor::new(body);
    let answer = match req {
        Request::Distance { .. } => Answer::Distance(opt(c.u64()?)),
        Request::Path { .. } => {
            let d = c.u64()?;
            let len = c.u32()? as usize;
            if c.remaining() != len * 4 {
                return Err(format!("path of {len} vertices in {} bytes", c.remaining()));
            }
            let nodes = (0..len).map(|_| c.u32()).collect::<Result<Vec<_>, _>>()?;
            Answer::Path(opt(d).map(|d| (d, nodes)))
        }
        Request::OneToMany { .. } | Request::Distances { .. } => {
            if c.remaining() % 8 != 0 {
                return Err(format!("row of {} bytes", c.remaining()));
            }
            let cells = c.remaining() / 8;
            Answer::Row(
                (0..cells)
                    .map(|_| c.u64().map(opt))
                    .collect::<Result<_, _>>()?,
            )
        }
        Request::Knn { .. } | Request::Range { .. } => {
            let count = c.u32()? as usize;
            if c.remaining() != count * 12 {
                return Err(format!("{count} entries in {} bytes", c.remaining()));
            }
            Answer::Pairs(
                (0..count)
                    .map(|_| Ok((c.u32()?, c.u64()?)))
                    .collect::<Result<_, String>>()?,
            )
        }
        other => return Err(format!("no answer shape for {other:?}")),
    };
    if !c.at_end() {
        return Err("trailing bytes after the answer".into());
    }
    Ok(answer)
}

/// Decodes the response payload the server sent for `req`.
pub fn decode_answer(req: &Request, payload: &[u8]) -> Answer {
    match payload.split_first() {
        None => Answer::Malformed("empty response".into()),
        Some((&STATUS_OK, body)) => parse(req, body).unwrap_or_else(Answer::Malformed),
        Some((&status, _)) => Answer::Refused(status),
    }
}

/// The reference implementations, sized for one network.
pub struct Oracle<'a> {
    net: &'a RoadNetwork,
    /// Sorted vertex ids of the registered POI set (kNN ground truth).
    poi: &'a [NodeId],
    point: BiDijkstra,
    tree: Dijkstra,
}

impl<'a> Oracle<'a> {
    /// An oracle over `net`; `poi` may be empty when no kNN is asked.
    pub fn new(net: &'a RoadNetwork, poi: &'a [NodeId]) -> Oracle<'a> {
        Oracle {
            net,
            poi,
            point: BiDijkstra::new(net.num_nodes()),
            tree: Dijkstra::new(net.num_nodes()),
        }
    }

    /// The true distance.
    pub fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Dist> {
        self.point.distance(self.net, s, t)
    }

    fn row(&mut self, s: NodeId, targets: &[NodeId]) -> Vec<Option<Dist>> {
        self.tree.run(self.net, s);
        targets.iter().map(|&t| self.tree.distance(t)).collect()
    }

    /// Checks one answer; `Err` says what is wrong with it.
    pub fn check(&mut self, req: &Request, answer: &Answer) -> Result<(), String> {
        match (req, answer) {
            (_, Answer::Refused(status)) => Err(format!("refused with status {status}")),
            (_, Answer::Malformed(why)) => Err(format!("malformed answer: {why}")),
            (&Request::Distance { s, t, .. }, Answer::Distance(got)) => {
                let want = self.distance(s, t);
                if *got == want {
                    Ok(())
                } else {
                    Err(format!(
                        "distance({s}, {t}) = {got:?}, oracle says {want:?}"
                    ))
                }
            }
            (&Request::Path { s, t, .. }, Answer::Path(got)) => {
                let want = self.distance(s, t);
                match got {
                    None if want.is_none() => Ok(()),
                    None => Err(format!("path({s}, {t}) missing, oracle says {want:?}")),
                    Some((d, nodes)) => {
                        if Some(*d) != want {
                            Err(format!("path({s}, {t}) claims {d}, oracle says {want:?}"))
                        } else if nodes.first() != Some(&s) || nodes.last() != Some(&t) {
                            Err(format!("path({s}, {t}) does not join its endpoints"))
                        } else if self.net.path_length(nodes) != want {
                            Err(format!("path({s}, {t}) is not a walk of length {d}"))
                        } else {
                            Ok(())
                        }
                    }
                }
            }
            (Request::OneToMany { s, targets, .. }, Answer::Row(got)) => {
                let want = self.row(*s, targets);
                if *got == want {
                    Ok(())
                } else {
                    Err(format!(
                        "one_to_many({s}, {} targets) row differs",
                        targets.len()
                    ))
                }
            }
            (
                Request::Distances {
                    sources, targets, ..
                },
                Answer::Row(got),
            ) => {
                if got.len() != sources.len() * targets.len() {
                    return Err(format!("table of {} cells", got.len()));
                }
                // First and last row only: each costs a full Dijkstra.
                let last = sources.len().saturating_sub(1);
                for i in (0..sources.len()).filter(|&i| i == 0 || i == last) {
                    let want = self.row(sources[i], targets);
                    if got[i * targets.len()..(i + 1) * targets.len()] != want[..] {
                        return Err(format!("table row {i} (source {}) differs", sources[i]));
                    }
                }
                Ok(())
            }
            (&Request::Knn { s, k, .. }, Answer::Pairs(got)) => {
                self.tree.run(self.net, s);
                let mut want: Vec<(NodeId, Dist)> = self
                    .poi
                    .iter()
                    .filter_map(|&p| self.tree.distance(p).map(|d| (p, d)))
                    .collect();
                want.sort_unstable_by_key(|&(p, d)| (d, p));
                want.truncate(k as usize);
                if *got == want {
                    Ok(())
                } else {
                    Err(format!("knn({s}, {k}) differs from the oracle's order"))
                }
            }
            (&Request::Range { s, limit, .. }, Answer::Pairs(got)) => {
                self.tree.run(self.net, s);
                let want: Vec<(NodeId, Dist)> = (0..self.net.num_nodes() as NodeId)
                    .filter_map(|v| self.tree.distance(v).map(|d| (v, d)))
                    .filter(|&(_, d)| d <= limit)
                    .collect();
                if *got == want {
                    Ok(())
                } else {
                    Err(format!(
                        "range({s}, {limit}) has {} members, oracle says {}",
                        got.len(),
                        want.len()
                    ))
                }
            }
            (req, answer) => Err(format!("answer {answer:?} does not fit {req:?}")),
        }
    }

    /// Verifies `samples` in order until `budget` is spent, but never
    /// fewer than [`MIN_VERIFIED`] of them. Returns how many were
    /// checked and how many were wrong (the first few are logged).
    pub fn verify(&mut self, samples: &[(Request, Answer)], budget: Duration) -> Verified {
        let start = Instant::now();
        let mut out = Verified::default();
        for (req, answer) in samples {
            if out.checked >= MIN_VERIFIED as u64 && start.elapsed() >= budget {
                break;
            }
            out.checked += 1;
            if let Err(why) = self.check(req, answer) {
                out.wrong += 1;
                if out.wrong <= 4 {
                    eprintln!("[benchmark] MISMATCH: {why}");
                }
            }
        }
        out
    }
}

/// Outcome of [`Oracle::verify`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verified {
    /// Samples compared with the oracle.
    pub checked: u64,
    /// Of those, the ones that disagreed (or were refused/malformed).
    pub wrong: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{Metrics, Outcome};
    use spq_ch::{ChQuery, ContractionHierarchy};
    use spq_serve::protocol;
    use spq_synth::SynthParams;

    #[test]
    fn a_corrupted_answer_is_caught_and_a_clean_run_is_not() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(600, 1));
        let ch = ContractionHierarchy::build(&net);
        let mut q = ChQuery::new(&ch);
        let mut rng = crate::ops::Rng::new(1, 9);
        let mut samples: Vec<(Request, Answer)> = (0..40)
            .map(|i| {
                let (s, t) = rng.pair(net.num_nodes());
                let (backend, deadline_ms) = (1, 0);
                if i % 2 == 0 {
                    let req = Request::Distance {
                        backend,
                        s,
                        t,
                        deadline_ms,
                    };
                    let payload = protocol::encode_distance_response(q.distance(s, t));
                    let answer = decode_answer(&req, &payload);
                    (req, answer)
                } else {
                    let req = Request::Path {
                        backend,
                        s,
                        t,
                        deadline_ms,
                    };
                    let payload = protocol::encode_path_response(q.shortest_path(s, t));
                    let answer = decode_answer(&req, &payload);
                    (req, answer)
                }
            })
            .collect();
        let mut oracle = Oracle::new(&net, &[]);
        let clean = oracle.verify(&samples, Duration::from_secs(60));
        assert_eq!(
            clean,
            Verified {
                checked: 40,
                wrong: 0
            }
        );

        // One distance off by one, one path with a vertex knocked out.
        let Answer::Distance(Some(d)) = &mut samples[0].1 else {
            panic!("sample 0 is a distance")
        };
        *d += 1;
        let Answer::Path(Some((_, nodes))) = &mut samples[1].1 else {
            panic!("sample 1 is a path")
        };
        if nodes.len() > 2 {
            nodes.remove(1);
        } else {
            nodes.push(0);
        }
        let dirty = oracle.verify(&samples, Duration::from_secs(60));
        assert_eq!(
            dirty,
            Verified {
                checked: 40,
                wrong: 2
            }
        );

        // A wrong answer shows in ok_ratio and in the exit code.
        let judge = |v: Verified| Outcome::judge(false, 2_000, 0, v.wrong, Metrics::default());
        assert_eq!(judge(clean).metrics.get("ok_ratio"), Some(1.0));
        assert_eq!(judge(clean).exit_code(), 0);
        assert!(judge(dirty).metrics.get("ok_ratio").unwrap() < 1.0);
        assert!(!judge(dirty).correct);
        assert_ne!(judge(dirty).exit_code(), 0);
    }

    #[test]
    fn refusals_and_garbage_never_pass() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(100, 1));
        let req = Request::Distance {
            backend: 1,
            s: 0,
            t: 1,
            deadline_ms: 0,
        };
        let mut oracle = Oracle::new(&net, &[]);
        let busy = decode_answer(&req, &protocol::encode_busy("shed"));
        assert_eq!(busy, Answer::Refused(protocol::STATUS_BUSY));
        assert!(oracle.check(&req, &busy).is_err());
        let short = decode_answer(&req, &[STATUS_OK, 1, 2, 3]);
        assert!(matches!(short, Answer::Malformed(_)));
        assert!(oracle.check(&req, &short).is_err());
        assert!(oracle.check(&req, &Answer::Pairs(vec![])).is_err());
    }
}
