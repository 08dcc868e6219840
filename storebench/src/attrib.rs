//! Per-layer self time from the traced spans.
//!
//! A driver call span (`ipc.*`) covers everything the store did for it;
//! the store-side layers nested inside are read from the probes taken at
//! the span's boundaries:
//!
//! ```text
//! ipc.<call>  (driver-timed: client, IPC transport, plasma server dispatch)
//! └─ disagg   (disagg's get/create timers on the client's node)
//!    ├─ plasma  (plasma core timers on the client's node)
//!    └─ rpclite (per-verb client call timers: wire, peer handler)
//!       └─ plasma (plasma core timers on the peer)
//! tfsim.<read|write>, driver.<check|fold>   (driver-timed leaves)
//! ```
//!
//! Self time = span duration minus the time its children cover. Calls
//! that `disagg` does not time (seal, release, delete) charge the routing
//! they do to `ipc`. The op's root span minus its child spans and the
//! tracer's own probe reads is charged to `driver`.

use std::collections::BTreeMap;

use crate::trace::{Span, NO_PARENT};

pub const LAYERS: [&str; 7] = [
    "ipc", "disagg", "rpclite", "plasma", "tfsim", "driver", "trace",
];
const IPC: usize = 0;
const DISAGG: usize = 1;
const RPCLITE: usize = 2;
const PLASMA: usize = 3;
const TFSIM: usize = 4;
const DRIVER: usize = 5;
const TRACE: usize = 6;

#[derive(Default, Clone)]
pub struct KindSelf {
    pub ops: u64,
    pub wall_ns: u64,
    pub virt_ns: u64,
    pub self_ns: [u64; LAYERS.len()],
}

#[derive(Default, Clone, Copy)]
pub struct CallSelf {
    pub n: u64,
    pub wall_ns: u64,
    pub virt_ns: u64,
    pub ipc_self_ns: u64,
    pub disagg_self_ns: u64,
    pub rpc_calls: u64,
    /// Spans of this call that made at least one rpclite call, and their
    /// virtual time (for the modeled per-call network time).
    pub with_rpc: u64,
    pub with_rpc_virt_ns: u64,
}

#[derive(Default)]
pub struct Attribution {
    /// By op kind (root span name).
    pub kinds: BTreeMap<&'static str, KindSelf>,
    /// By (op kind, call span name).
    pub calls: BTreeMap<(&'static str, &'static str), CallSelf>,
    pub rpclite_self_ns: u64,
    pub rpc_calls: u64,
    /// rpclite calls of verbs outside `probe::VERBS` (their time stays in the parent).
    pub other_rpc_calls: u64,
    /// Subtractions that would have gone negative (clamped to zero).
    pub clamped: u64,
    /// tfsim.read bytes, wall and virtual ns, by path (0 local, 1 remote).
    pub read_bytes: [u64; 2],
    pub read_wall_ns: [u64; 2],
    pub read_virt_ns: [u64; 2],
}

impl Attribution {
    fn sub(&mut self, a: u64, b: u64) -> u64 {
        if b > a {
            self.clamped += 1;
            0
        } else {
            a - b
        }
    }

    pub fn from_spans(spans: &[Span]) -> Attribution {
        let mut at = Attribution::default();
        let mut i = 0;
        while i < spans.len() {
            let root = &spans[i];
            debug_assert_eq!(root.parent, NO_PARENT);
            let mut j = i + 1;
            while j < spans.len() && spans[j].parent == i as u32 {
                j += 1;
            }
            at.add_op(root, &spans[i + 1..j]);
            i = j;
        }
        at
    }

    fn add_op(&mut self, root: &Span, children: &[Span]) {
        let mut layer = [0u64; LAYERS.len()];
        let mut child_wall = 0;
        for s in children {
            child_wall += s.wall();
            let n = &s.nested;
            let call = self.calls.entry((root.name, s.name)).or_default();
            call.n += 1;
            call.wall_ns += s.wall();
            call.virt_ns += s.virt();
            if s.name.starts_with("tfsim.") {
                layer[TFSIM] += s.wall();
                if s.name == "tfsim.read" {
                    let path = usize::from(n.fabric[1] > 0);
                    self.read_bytes[path] += n.fabric[0] + n.fabric[1];
                    self.read_wall_ns[path] += s.wall();
                    self.read_virt_ns[path] += s.virt();
                }
                continue;
            }
            if s.name.starts_with("driver.") {
                layer[DRIVER] += s.wall();
                continue;
            }
            // ipc.* call with nested store-side layers.
            let rpc_ns: u64 = n.verb_ns.iter().sum();
            let verb_calls: u64 = n.verb_calls.iter().sum();
            let rpclite = self.sub(rpc_ns, n.plasma_remote_ns);
            let (ipc, disagg) = if n.disagg_ns > 0 {
                let d = self.sub(n.disagg_ns, rpc_ns + n.plasma_local_ns);
                (self.sub(s.wall(), n.disagg_ns), d)
            } else {
                (self.sub(s.wall(), rpc_ns + n.plasma_local_ns), 0)
            };
            layer[IPC] += ipc;
            layer[DISAGG] += disagg;
            layer[RPCLITE] += rpclite;
            layer[PLASMA] += n.plasma_local_ns + n.plasma_remote_ns;
            self.rpclite_self_ns += rpclite;
            self.rpc_calls += n.rpc_calls;
            self.other_rpc_calls += n.rpc_calls.saturating_sub(verb_calls);
            let call = self.calls.entry((root.name, s.name)).or_default();
            call.ipc_self_ns += ipc;
            call.disagg_self_ns += disagg;
            call.rpc_calls += n.rpc_calls;
            if n.rpc_calls > 0 {
                call.with_rpc += 1;
                call.with_rpc_virt_ns += s.virt();
            }
        }
        let outside = self.sub(root.wall(), child_wall);
        layer[TRACE] += root.probe_ns.min(outside);
        layer[DRIVER] += outside - root.probe_ns.min(outside);
        let k = self.kinds.entry(root.name).or_default();
        k.ops += 1;
        k.wall_ns += root.wall();
        k.virt_ns += root.virt();
        for (acc, v) in k.self_ns.iter_mut().zip(layer) {
            *acc += v;
        }
    }

    /// Mean ipc self time (µs) of one call name over every op kind.
    pub fn ipc_self_us(&self, call: &str) -> f64 {
        let (mut n, mut ns) = (0, 0);
        for ((_, c), v) in &self.calls {
            if *c == call {
                n += v.n;
                ns += v.ipc_self_ns;
            }
        }
        per(ns, n) / 1e3
    }

    /// Mean disagg self time (µs) of one call name within one op kind.
    pub fn disagg_self_us(&self, kind: &str, call: &str) -> f64 {
        self.calls
            .get(&(kind, call))
            .map_or(0.0, |v| per(v.disagg_self_ns, v.n) / 1e3)
    }

    /// Modeled (virtual) network time per rpclite call: the virtual time
    /// of call spans that made rpclite calls, minus the mean virtual time
    /// of the same call name when it made none, per rpclite call.
    pub fn modeled_us_per_rpc(&self) -> f64 {
        let mut base: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for ((_, c), v) in &self.calls {
            let e = base.entry(c).or_default();
            e.0 += v.n - v.with_rpc;
            e.1 += v.virt_ns - v.with_rpc_virt_ns;
        }
        let (mut extra, mut calls) = (0.0, 0u64);
        for ((_, c), v) in &self.calls {
            let (n, virt) = base[c];
            if v.with_rpc == 0 || n == 0 {
                continue;
            }
            extra += v.with_rpc_virt_ns as f64 - virt as f64 / n as f64 * v.with_rpc as f64;
            calls += v.rpc_calls;
        }
        if calls == 0 {
            0.0
        } else {
            extra / calls as f64 / 1e3
        }
    }
}

pub fn per(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
