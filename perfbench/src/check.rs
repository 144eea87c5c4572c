//! Output checks, run outside every timed region.
//!
//! Sweep answers are kept whole (BFS levels, PageRank ranks, WCC labels)
//! and compared with `gstore_graph::reference` on the seed's edge list;
//! PageRank within the 1e-9 the cross-engine agreement test uses.
//! Replies from the daemon are compared with an in-process run of the
//! same spec through `QueryValue::approx_eq`.

use crate::input::Inputs;
use gstore_core::{QuerySpec, SweepQuery};
use gstore_graph::{reference, Csr, CsrDirection, EdgeList, Result, VertexId};
use std::collections::HashMap;

/// PageRank agreement tolerance.
pub const PR_TOL: f64 = 1e-9;

/// PageRank damping of every spec-driven surface.
const DAMPING: f64 = 0.85;

/// A sweep's full answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Levels(Vec<u32>),
    Ranks(Vec<f64>),
    Labels(Vec<VertexId>),
    Core(Vec<bool>),
}

impl Answer {
    pub fn of(q: &SweepQuery) -> Answer {
        match q {
            SweepQuery::Bfs(a) => Answer::Levels(a.depths()),
            SweepQuery::PageRank(a) => Answer::Ranks(a.ranks().to_vec()),
            SweepQuery::Wcc(a) => Answer::Labels(a.labels()),
            SweepQuery::KCore(a) => Answer::Core(a.membership()),
            SweepQuery::Degrees(a) => Answer::Labels(a.degrees()),
        }
    }

    /// Equal, with ranks compared within [`PR_TOL`].
    pub fn agrees(&self, other: &Answer) -> bool {
        match (self, other) {
            (Answer::Ranks(a), Answer::Ranks(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= PR_TOL)
            }
            _ => self == other,
        }
    }
}

/// Reference answers computed from the edge list, memoised per spec.
pub struct Reference {
    el: EdgeList,
    csr: Csr,
    memo: HashMap<String, Answer>,
}

impl Reference {
    pub fn load(inputs: &Inputs) -> Result<Reference> {
        let el = inputs.load_edges()?;
        let csr = Csr::from_edge_list(&el, CsrDirection::Out);
        Ok(Reference {
            el,
            csr,
            memo: HashMap::new(),
        })
    }

    /// The reference answer for a BFS, PageRank or WCC spec.
    pub fn answer(&mut self, spec: &QuerySpec) -> Option<&Answer> {
        let key = spec.to_string();
        if !self.memo.contains_key(&key) {
            let a = match *spec {
                QuerySpec::Bfs { root } => Answer::Levels(reference::bfs_levels(&self.csr, root)),
                QuerySpec::PageRank { iters } => {
                    Answer::Ranks(reference::pagerank(&self.csr, iters as usize, DAMPING))
                }
                QuerySpec::Wcc => Answer::Labels(reference::wcc_labels(&self.el)),
                _ => return None,
            };
            self.memo.insert(key.clone(), a);
        }
        self.memo.get(&key)
    }

    /// Checks `got` against the reference; specs without a reference
    /// answer are not this checker's to judge and pass.
    pub fn agrees(&mut self, spec: &QuerySpec, got: &Answer) -> bool {
        self.answer(spec).is_none_or(|want| want.agrees(got))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_agree_within_tolerance_only() {
        let a = Answer::Ranks(vec![0.5, 0.25]);
        assert!(a.agrees(&Answer::Ranks(vec![0.5 + 1e-10, 0.25])));
        assert!(!a.agrees(&Answer::Ranks(vec![0.5 + 1e-8, 0.25])));
        assert!(!a.agrees(&Answer::Ranks(vec![0.5])));
        assert!(!Answer::Levels(vec![0, 1]).agrees(&Answer::Levels(vec![0, 2])));
    }
}
