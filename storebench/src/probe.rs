//! Read-only probes into the running program's public observability
//! surface: the `obs` registries of both stores and the fabric's
//! `FabricStats`. Probes only read existing metrics; a metric the program
//! no longer registers reads as zero instead of being created.

use disagg::Cluster;
use obs::{Counter, Histogram, Registry};
use std::sync::Arc;
use tfsim::stats::{FabricStats, StatsSnapshot};

use crate::inputs::NODES;

/// Per-node histograms timed around nested layers, in this order.
pub const PLASMA: [&str; 4] = ["create", "seal", "get", "release"];
pub const DISAGG: [&str; 4] = [
    "disagg.get.local_hit.latency_ns",
    "disagg.get.remote_hit.latency_ns",
    "disagg.get.miss.latency_ns",
    "disagg.create.latency_ns",
];
/// rpclite verbs reported individually.
pub const VERBS: [&str; 5] = ["get_many", "release", "create_at", "seal_at", "delete"];

/// Counters read before and after a window.
pub const COUNTERS: [&str; 6] = [
    "disagg.ring.hit",
    "disagg.ring.fallback",
    "disagg.replica.local_hits",
    "disagg.peer.retries",
    "plasma.evictions",
    "plasma.shard.contention",
];
pub const C_RING_HIT: usize = 0;
pub const C_RING_FALLBACK: usize = 1;
pub const C_REPLICA_HITS: usize = 2;
pub const C_RETRIES: usize = 3;
pub const C_EVICTIONS: usize = 4;
pub const C_CONTENTION: usize = 5;

struct NodeProbes {
    plasma: Vec<Option<Arc<Histogram>>>,
    disagg: Vec<Option<Arc<Histogram>>>,
    verbs: Vec<Option<Arc<Histogram>>>,
    /// Every rpclite client histogram toward the peer (all verbs), for counts.
    all_verbs: Vec<Arc<Histogram>>,
    counters: Vec<Option<Arc<Counter>>>,
    redials: Option<Arc<Counter>>,
}

pub struct Probes {
    nodes: Vec<NodeProbes>,
    fabric: FabricStats,
}

/// (count, sum ns) of one histogram.
pub type Cs = (u64, u64);

/// Nested-layer readings of one node.
#[derive(Clone, Copy, Default)]
pub struct NodeSnap {
    pub plasma: [Cs; 4],
    pub disagg: [Cs; 4],
    pub verbs: [Cs; 5],
    /// Calls over all rpclite verbs.
    pub rpc_calls: u64,
}

#[derive(Clone, Copy, Default)]
pub struct Snap {
    pub nodes: [NodeSnap; NODES],
    pub fabric: StatsSnapshot,
}

/// Counter readings of a window boundary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub counters: [[u64; COUNTERS.len()]; NODES],
    pub redials: [u64; NODES],
    pub rpc_calls: [u64; NODES],
}

fn existing_histogram(reg: &Registry, names: &[String], name: &str) -> Option<Arc<Histogram>> {
    names.iter().any(|n| n == name).then(|| reg.histogram(name))
}

fn cs(h: &Option<Arc<Histogram>>) -> Cs {
    match h {
        Some(h) => {
            let s = h.snapshot();
            (s.count, s.sum)
        }
        None => (0, 0),
    }
}

impl Probes {
    pub fn attach(cluster: &Cluster) -> Probes {
        let nodes = (0..NODES)
            .map(|i| {
                let reg = cluster.store(i).core().registry();
                let snap = reg.snapshot();
                let hnames: Vec<String> = snap.histograms.keys().cloned().collect();
                let peer = format!("rpc.client.store-{}", 1 - i);
                let h = |n: &str| existing_histogram(reg, &hnames, n);
                let c = |n: &str| snap.counters.contains_key(n).then(|| reg.counter(n));
                NodeProbes {
                    plasma: PLASMA
                        .iter()
                        .map(|p| h(&format!("plasma.{p}.latency_ns")))
                        .collect(),
                    disagg: DISAGG.iter().map(|d| h(d)).collect(),
                    verbs: VERBS
                        .iter()
                        .map(|v| h(&format!("{peer}.{v}.latency_ns")))
                        .collect(),
                    all_verbs: hnames
                        .iter()
                        .filter(|n| n.starts_with(&peer) && n.ends_with(".latency_ns"))
                        .map(|n| reg.histogram(n))
                        .collect(),
                    counters: COUNTERS.iter().map(|n| c(n)).collect(),
                    redials: c(&format!("{peer}.redials")),
                }
            })
            .collect();
        Probes {
            nodes,
            fabric: cluster.fabric().stats().clone(),
        }
    }

    /// Full nested-layer reading (traced spans).
    pub fn snap(&self) -> Snap {
        let mut out = Snap {
            fabric: self.fabric.snapshot(),
            ..Snap::default()
        };
        for (n, p) in self.nodes.iter().enumerate() {
            let s = &mut out.nodes[n];
            for (i, h) in p.plasma.iter().enumerate() {
                s.plasma[i] = cs(h);
            }
            for (i, h) in p.disagg.iter().enumerate() {
                s.disagg[i] = cs(h);
            }
            for (i, h) in p.verbs.iter().enumerate() {
                s.verbs[i] = cs(h);
            }
            s.rpc_calls = p.all_verbs.iter().map(|h| h.count()).sum();
        }
        out
    }

    pub fn fabric(&self) -> StatsSnapshot {
        self.fabric.snapshot()
    }

    /// Calls over all rpclite verbs from both nodes (a handful of atomic loads).
    pub fn rpc_calls(&self) -> u64 {
        self.nodes
            .iter()
            .flat_map(|p| p.all_verbs.iter())
            .map(|h| h.count())
            .sum()
    }

    pub fn counts(&self) -> Counts {
        let mut out = Counts::default();
        for (n, p) in self.nodes.iter().enumerate() {
            for (i, c) in p.counters.iter().enumerate() {
                out.counters[n][i] = c.as_ref().map_or(0, |c| c.get());
            }
            out.redials[n] = p.redials.as_ref().map_or(0, |c| c.get());
            out.rpc_calls[n] = p.all_verbs.iter().map(|h| h.count()).sum();
        }
        out
    }

    /// Sum of `(count, sum)` over both nodes of one plasma/disagg histogram,
    /// for window-level means.
    pub fn layer_totals(&self) -> LayerTotals {
        let s = self.snap();
        let mut t = LayerTotals::default();
        for n in &s.nodes {
            for i in 0..4 {
                t.plasma[i].0 += n.plasma[i].0;
                t.plasma[i].1 += n.plasma[i].1;
                t.disagg[i].0 += n.disagg[i].0;
                t.disagg[i].1 += n.disagg[i].1;
            }
            for i in 0..VERBS.len() {
                t.verbs[i].0 += n.verbs[i].0;
                t.verbs[i].1 += n.verbs[i].1;
            }
        }
        t
    }
}

#[derive(Clone, Copy, Default)]
pub struct LayerTotals {
    pub plasma: [Cs; 4],
    pub disagg: [Cs; 4],
    pub verbs: [Cs; 5],
}

impl LayerTotals {
    pub fn delta(&self, before: &LayerTotals) -> LayerTotals {
        let d = |a: Cs, b: Cs| (a.0 - b.0, a.1 - b.1);
        LayerTotals {
            plasma: std::array::from_fn(|i| d(self.plasma[i], before.plasma[i])),
            disagg: std::array::from_fn(|i| d(self.disagg[i], before.disagg[i])),
            verbs: std::array::from_fn(|i| d(self.verbs[i], before.verbs[i])),
        }
    }
}

pub fn fabric_delta(a: &StatsSnapshot, b: &StatsSnapshot) -> [u64; 4] {
    [
        a.local_read_bytes - b.local_read_bytes,
        a.remote_read_bytes - b.remote_read_bytes,
        a.local_write_bytes - b.local_write_bytes,
        a.remote_write_bytes - b.remote_write_bytes,
    ]
}

/// Mean in microseconds of a `(count, sum ns)` pair; 0 with no samples.
pub fn mean_us(c: Cs) -> f64 {
    if c.0 == 0 {
        0.0
    } else {
        c.1 as f64 / c.0 as f64 / 1e3
    }
}

impl Counts {
    /// Element-wise `self - before`.
    pub fn since(&self, before: &Counts) -> Counts {
        let mut out = self.clone();
        for n in 0..NODES {
            for i in 0..COUNTERS.len() {
                out.counters[n][i] -= before.counters[n][i];
            }
            out.redials[n] -= before.redials[n];
            out.rpc_calls[n] -= before.rpc_calls[n];
        }
        out
    }

    /// Sum of one counter over both nodes.
    pub fn counter(&self, i: usize) -> u64 {
        self.counters.iter().map(|c| c[i]).sum()
    }
}
