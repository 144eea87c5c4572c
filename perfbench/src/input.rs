//! Seeded inputs: the Kronecker edge list, the BFS roots and the
//! point-read key stream. The same seed always gives the same inputs.
//!
//! The edge list is generated in a child process (`perfbench gen`) so the
//! generator's memory never counts toward the measured process's peak
//! resident set; the child also picks the BFS roots from the largest
//! connected component, so every BFS covers the giant component.

use gstore_core::QuerySpec;
use gstore_graph::gen::{generate_rmat, RmatParams};
use gstore_graph::{reference, EdgeList, GraphError, Result, TupleWidth, VertexId};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Kronecker scale of every workload's graph: kron-19-16 has 2^19
/// vertices and 2^23 edges.
pub const SCALE: u32 = 19;

/// Edge factor of every generated graph (kron-S-16).
pub const EDGE_FACTOR: u64 = 16;

/// BFS roots drawn per seed.
pub const ROOTS: usize = 16;

/// Zipf exponent of the point-read key stream.
pub const ZIPF_EXPONENT: f64 = 1.0;

/// Steps of each `walk` point read.
pub const WALK_LENGTH: u32 = 16;

pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn uniform(state: &mut u64, n: u64) -> u64 {
    ((splitmix64(state) as u128 * n as u128) >> 64) as u64
}

/// The generated inputs of one run.
pub struct Inputs {
    pub el: PathBuf,
    pub vertex_count: u64,
    pub roots: Vec<VertexId>,
}

impl Inputs {
    /// Generates kron-`scale`-16 for `seed` into `dir` via a child process
    /// (in-process under `cargo test`, whose executable is the test harness).
    pub fn generate(dir: &Path, scale: u32, seed: u64) -> Result<Inputs> {
        std::fs::create_dir_all(dir)?;
        if cfg!(test) {
            gen_main(dir, scale, seed)?;
        } else {
            let status = Command::new(std::env::current_exe()?)
                .args([
                    "gen",
                    "--scale",
                    &scale.to_string(),
                    "--seed",
                    &seed.to_string(),
                ])
                .arg("--dir")
                .arg(dir)
                .status()?;
            if !status.success() {
                return Err(GraphError::InvalidParameter(format!(
                    "input generation failed: {status}"
                )));
            }
        }
        let roots = std::fs::read_to_string(dir.join("roots.txt"))?
            .split_whitespace()
            .map(|r| {
                r.parse()
                    .map_err(|_| GraphError::Format(format!("bad root {r:?}")))
            })
            .collect::<Result<Vec<VertexId>>>()?;
        Ok(Inputs {
            el: dir.join("graph.el"),
            vertex_count: 1u64 << scale,
            roots,
        })
    }

    pub fn load_edges(&self) -> Result<EdgeList> {
        EdgeList::read_binary(&self.el)
    }
}

/// Entry point of the `gen` child: writes `graph.el` and `roots.txt`.
pub fn gen_main(dir: &Path, scale: u32, seed: u64) -> Result<()> {
    let el = generate_rmat(&RmatParams::kron(scale, EDGE_FACTOR).with_seed(seed))?;
    let path = dir.join("graph.el");
    el.write_binary(&path, TupleWidth::for_vertex_count(el.vertex_count()))?;
    // Flush now, so write-back does not run under the measured phases.
    std::fs::File::open(&path)?.sync_all()?;
    let labels = reference::wcc_labels(&el);
    let mut sizes = std::collections::HashMap::new();
    for &l in &labels {
        *sizes.entry(l).or_insert(0u64) += 1;
    }
    let (&giant, _) = sizes
        .iter()
        .max_by_key(|&(l, s)| (*s, std::cmp::Reverse(*l)))
        .expect("a graph has at least one vertex");
    let members: Vec<VertexId> = (0..labels.len() as u64)
        .filter(|&v| labels[v as usize] == giant)
        .collect();
    let mut state = seed ^ 0x05ee_d0fb_0075;
    let roots: Vec<String> = (0..ROOTS)
        .map(|_| members[uniform(&mut state, members.len() as u64) as usize].to_string())
        .collect();
    std::fs::write(dir.join("roots.txt"), roots.join("\n"))?;
    Ok(())
}

/// A Zipf(s) sampler over ranks `0..n` by inverse-CDF binary search.
/// Ranks map to vertex ids directly, so on Kronecker graphs the hottest
/// keys are the hub vertices.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u64, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, u: f64) -> u64 {
        (self.cdf.partition_point(|&c| c < u) as u64).min(self.cdf.len() as u64 - 1)
    }
}

/// The point-read request stream: `neighbors` and `degree` on Zipf keys,
/// `walk` on uniform keys, in rotation.
pub struct KeyStream {
    zipf: Zipf,
    n: u64,
    state: u64,
    i: u64,
}

impl KeyStream {
    pub fn new(vertex_count: u64, seed: u64) -> KeyStream {
        KeyStream {
            zipf: Zipf::new(vertex_count, ZIPF_EXPONENT),
            n: vertex_count,
            state: seed ^ 0x6b65_7973,
            i: 0,
        }
    }

    /// A Zipf-distributed vertex.
    pub fn hot_vertex(&mut self) -> VertexId {
        self.zipf.sample(unit_f64(&mut self.state))
    }

    /// The next request of the sweep workloads' point phase: `neighbors`
    /// and `degree` in turn, on uniform keys.
    pub fn next_uniform_spec(&mut self) -> QuerySpec {
        let vertex = uniform(&mut self.state, self.n);
        self.i += 1;
        if self.i % 2 == 1 {
            QuerySpec::Neighbors { vertex }
        } else {
            QuerySpec::Degree { vertex }
        }
    }

    /// The next request of the serve-mixed point connection.
    pub fn next_spec(&mut self) -> QuerySpec {
        let spec = match self.i % 3 {
            0 => QuerySpec::Neighbors {
                vertex: self.hot_vertex(),
            },
            1 => QuerySpec::Degree {
                vertex: self.hot_vertex(),
            },
            _ => QuerySpec::Walk {
                vertex: uniform(&mut self.state, self.n),
                length: WALK_LENGTH,
            },
        };
        self.i += 1;
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_stream_is_seeded_and_skewed() {
        let specs = |seed| {
            let mut ks = KeyStream::new(1 << 12, seed);
            (0..300).map(|_| ks.next_spec()).collect::<Vec<_>>()
        };
        assert_eq!(specs(7), specs(7));
        assert_ne!(specs(7), specs(8));
        let hot = specs(7)
            .iter()
            .filter(|s| matches!(s, QuerySpec::Neighbors { vertex } if *vertex < 16))
            .count();
        assert!(hot > 20, "Zipf keys favour low ranks: {hot}/100");
    }
}
