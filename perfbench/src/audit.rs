//! The ground-truth audit, run after the timed phase so it costs the
//! generator nothing: every answered request is regenerated from its seed
//! and checked against BFS components of `G \ (removed ∪ F)`, where
//! `removed` is what the churn writer had removed by the epoch the answer
//! carries.

use crate::workload::request_content;
use ftl_graph::traversal::connected_components;
use ftl_graph::{EdgeId, Graph};

/// One answered request, as the audit sees it.
#[derive(Debug, Clone, Copy)]
pub struct Item {
    pub conn: usize,
    pub seq: u64,
    pub epoch: u32,
    pub answers: u16,
}

pub struct Audit<'a> {
    pub graph: &'a Graph,
    pub sets: &'a [Vec<EdgeId>],
    /// `(epoch that published the removal, edge)`, epochs ascending.
    pub removals: &'a [(u64, EdgeId)],
    pub seed: u64,
}

impl Audit<'_> {
    /// Positions in `items` of the requests whose answers disagree with BFS.
    /// Items are checked grouped by `(epoch, fault set)`, so each topology
    /// is searched once.
    pub fn mismatches(&self, items: &[Item]) -> Vec<usize> {
        let n = self.graph.num_vertices();
        let mut queries = Vec::new();
        let mut order: Vec<(u32, usize, usize)> = items
            .iter()
            .enumerate()
            .map(|(i, it)| {
                let set =
                    request_content(self.seed, it.conn, it.seq, self.sets.len(), n, &mut queries);
                (it.epoch, set, i)
            })
            .collect();
        order.sort_unstable();

        let mut removed = vec![false; self.graph.num_edges()];
        let mut applied = 0;
        let mut bad = Vec::new();
        let mut at = 0;
        while let Some(&(epoch, set, _)) = order.get(at) {
            while let Some(&(e_epoch, e)) = self.removals.get(applied) {
                if e_epoch > epoch as u64 {
                    break;
                }
                removed[e.index()] = true;
                applied += 1;
            }
            let mut mask = removed.clone();
            for e in &self.sets[set] {
                mask[e.index()] = true;
            }
            let comps = connected_components(self.graph, &mask).0;
            while let Some(&(ep, st, i)) = order.get(at) {
                if (ep, st) != (epoch, set) {
                    break;
                }
                let it = &items[i];
                request_content(self.seed, it.conn, it.seq, self.sets.len(), n, &mut queries);
                let expected = queries.iter().enumerate().fold(0u16, |acc, (q, &(s, t))| {
                    acc | (u16::from(comps[s.index()] == comps[t.index()]) << q)
                });
                if expected != it.answers {
                    bad.push(i);
                }
                at += 1;
            }
        }
        bad
    }

    /// The harness checks itself: the audit must pass `item` as answered and
    /// catch the same answer with one bit flipped.
    pub fn self_check(&self, item: Item) -> bool {
        let mut flipped = item;
        flipped.answers ^= 1;
        self.mismatches(&[item]).is_empty() && self.mismatches(&[flipped]) == [0]
    }
}
