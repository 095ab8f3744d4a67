//! The machine-speed reference.
//!
//! On a shared box the same code runs 20 % faster or slower from one
//! minute to the next, as neighbours load the memory system; ten runs of
//! an unchanged commit then disagree by more than any change worth
//! gating would move them. The drift is slow and common to everything
//! memory-bound on a CPU, so the benchmark measures it and divides it
//! out: between windows it times a fixed piece of work of its own — a
//! few one-to-all Dijkstra searches over a private copy of the network —
//! on the CPU that bounds the workload, and reports timings scaled to
//! what they would have been at the nominal speed.
//!
//! The reference is the benchmark's own code over its own arrays, so a
//! change to the repository cannot move it: a faster `spq-dijkstra`
//! leaves the normaliser where it was.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

use spq_graph::types::NodeId;
use spq_graph::RoadNetwork;

use crate::sys;

/// One-to-all searches per sample.
const SEARCHES: usize = 8;

/// Fixed work over a private adjacency copy.
pub struct Reference {
    /// Arcs of vertex `v` are `first[v]..first[v + 1]`.
    first: Vec<u32>,
    head: Vec<u32>,
    weight: Vec<u32>,
    dist: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Reference {
    /// Copies `net`'s adjacency.
    pub fn new(net: &RoadNetwork) -> Reference {
        let n = net.num_nodes();
        let mut first = Vec::with_capacity(n + 1);
        let mut head = Vec::with_capacity(net.num_arcs());
        let mut weight = Vec::with_capacity(net.num_arcs());
        for v in 0..n as NodeId {
            first.push(head.len() as u32);
            for (to, w) in net.neighbors(v) {
                head.push(to);
                weight.push(w);
            }
        }
        first.push(head.len() as u32);
        Reference {
            first,
            head,
            weight,
            dist: vec![u64::MAX; n],
            heap: BinaryHeap::new(),
        }
    }

    fn search(&mut self, source: u32) -> u64 {
        self.dist.fill(u64::MAX);
        self.dist[source as usize] = 0;
        self.heap.push(Reverse((0, source)));
        let mut settled = 0;
        while let Some(Reverse((d, v))) = self.heap.pop() {
            if d > self.dist[v as usize] {
                continue;
            }
            settled += 1;
            for arc in self.first[v as usize]..self.first[v as usize + 1] {
                let to = self.head[arc as usize];
                let nd = d + self.weight[arc as usize] as u64;
                if nd < self.dist[to as usize] {
                    self.dist[to as usize] = nd;
                    self.heap.push(Reverse((nd, to)));
                }
            }
        }
        settled
    }

    /// Runs the fixed work once; returns the seconds it took.
    pub fn sample(&mut self) -> f64 {
        let n = self.dist.len();
        let t = Instant::now();
        for k in 0..SEARCHES {
            // The same eight sources every time, spread over the network.
            let source = (k * n / SEARCHES + n / 16) % n;
            std::hint::black_box(self.search(source as u32));
        }
        t.elapsed().as_secs_f64()
    }
}

/// A [`Reference`] on a thread of its own, confined to one CPU, sampled
/// on request while the caller blocks.
pub struct ReferenceThread {
    ask: Option<Sender<()>>,
    answer: Receiver<f64>,
    thread: Option<JoinHandle<()>>,
}

impl ReferenceThread {
    /// Starts the thread on `cpu` (`None`: wherever the scheduler likes).
    pub fn spawn(mut reference: Reference, cpu: Option<usize>) -> ReferenceThread {
        let (ask, asked) = channel::<()>();
        let (reply, answer) = channel::<f64>();
        let thread = std::thread::spawn(move || {
            if let Some(cpu) = cpu {
                sys::set_affinity(&[cpu]);
            }
            while asked.recv().is_ok() {
                if reply.send(reference.sample()).is_err() {
                    break;
                }
            }
        });
        ReferenceThread {
            ask: Some(ask),
            answer,
            thread: Some(thread),
        }
    }

    /// Takes one sample on the thread's CPU; returns its seconds.
    pub fn sample(&self) -> f64 {
        self.ask
            .as_ref()
            .expect("present until drop")
            .send(())
            .expect("the reference thread is alive");
        self.answer.recv().expect("the reference thread answers")
    }
}

impl Drop for ReferenceThread {
    fn drop(&mut self) {
        // Hanging up ends the thread's loop; then wait for it.
        self.ask = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_dijkstra::Dijkstra;
    use spq_synth::SynthParams;

    #[test]
    fn the_reference_search_is_a_correct_dijkstra() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(500, 1));
        let mut reference = Reference::new(&net);
        let mut oracle = Dijkstra::new(net.num_nodes());
        oracle.run(&net, 3);
        assert_eq!(reference.search(3) as usize, net.num_nodes());
        for v in 0..net.num_nodes() {
            assert_eq!(Some(reference.dist[v]), oracle.distance(v as NodeId));
        }
    }

    #[test]
    fn a_reference_thread_answers_and_stops() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(500, 1));
        let thread = ReferenceThread::spawn(Reference::new(&net), None);
        assert!(thread.sample() > 0.0);
        assert!(thread.sample() > 0.0);
        drop(thread);
    }
}
