//! Metric definitions, process readings, the allocator replay and the
//! report (human-readable lines, then one JSON object as the last line).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use memalloc::RegionAllocator;
use plasma::AllocatorKind;
use tfsim::StatsSnapshot;

use crate::attrib::{per, Attribution, LAYERS};
use crate::inputs::{Digest, Inputs, Workload};
use crate::probe::{
    fabric_delta, mean_us, Counts, LayerTotals, C_CONTENTION, C_EVICTIONS, C_REPLICA_HITS,
    C_RETRIES, C_RING_FALLBACK, C_RING_HIT, VERBS,
};
use crate::run::{AllocEvent, Harness, OpKind, Rec, MEMORY_PER_NODE};

/// What a deterministic window must reproduce exactly for a given seed:
/// every op's kind, virtual latency and rpclite call count, every
/// round's virtual time, and the window's layer counts.
#[derive(Debug, PartialEq, Eq)]
pub struct Det {
    pub ops: Vec<(OpKind, u64, u32)>,
    pub rounds: Vec<u64>,
    pub counts: Counts,
    pub fabric: [u64; 4],
    pub ipc_requests: u64,
    pub attempted: u64,
    pub held_bytes: u64,
    pub live_bytes: u64,
}

impl Det {
    pub fn new(h: &Harness, rec: &Rec, counts0: &Counts, fabric0: &StatsSnapshot) -> Det {
        let (held_bytes, live_bytes) = h.held_and_live_bytes();
        Det {
            ops: rec
                .ops
                .iter()
                .map(|o| (o.kind, o.virt_ns, o.rpcs))
                .collect(),
            rounds: rec.rounds.iter().map(|r| r.virt_ns).collect(),
            counts: h.counts().since(counts0),
            fabric: fabric_delta(&h.probes.fabric(), fabric0),
            ipc_requests: rec.ipc_requests,
            attempted: rec.attempted,
            held_bytes,
            live_bytes,
        }
    }

    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for &(k, v, r) in &self.ops {
            d.u64(k as u64);
            d.u64(v);
            d.u64(u64::from(r));
        }
        for &r in &self.rounds {
            d.u64(r);
        }
        d.bytes(format!("{:?}", self.counts).as_bytes());
        for v in self.fabric {
            d.u64(v);
        }
        for v in [
            self.ipc_requests,
            self.attempted,
            self.held_bytes,
            self.live_bytes,
        ] {
            d.u64(v);
        }
        d.finish()
    }

    fn virt(&self, kind: OpKind) -> Vec<u64> {
        sorted(self.ops.iter().filter(|o| o.0 == kind).map(|o| o.1))
    }

    fn rpcs_per(&self, kind: OpKind) -> f64 {
        let (n, calls) = self
            .ops
            .iter()
            .filter(|o| o.0 == kind)
            .fold((0u64, 0u64), |(n, c), o| (n + 1, c + u64::from(o.2)));
        per(calls, n)
    }

    fn rpc_calls(&self) -> u64 {
        self.counts.rpc_calls.iter().sum()
    }
}

// ---------------------------------------------------------------- process

#[derive(Clone, Copy, Default)]
pub struct Cpu {
    pub user_s: f64,
    pub sys_s: f64,
}

impl Cpu {
    pub fn since(&self, before: &Cpu) -> Cpu {
        Cpu {
            user_s: self.user_s - before.user_s,
            sys_s: self.sys_s - before.sys_s,
        }
    }

    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Process user and system CPU time (all threads) from `/proc/self/stat`,
/// in clock ticks of 1/100 s.
pub fn proc_cpu() -> Cpu {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // After the command name: state is field 3, utime 14, stime 15.
    Cpu {
        user_s: ticks(11) / 100.0,
        sys_s: ticks(12) / 100.0,
    }
}

fn proc_status(key: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Host steal and total jiffies of all CPUs, from `/proc/stat`.
pub fn host_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (cpu.get(7).copied().unwrap_or(0), cpu.iter().sum())
}

pub fn proc_threads() -> u64 {
    proc_status("Threads:")
}

pub fn proc_peak_rss_mib() -> f64 {
    proc_status("VmHWM:") as f64 / 1024.0
}

// ------------------------------------------------------- allocator replay

pub struct Replay {
    pub alloc_ns: f64,
    pub free_ns: f64,
    pub held_per_live: f64,
    pub passes: u32,
    pub events: usize,
}

fn allocator(kind: AllocatorKind, capacity: u64) -> Box<dyn RegionAllocator> {
    match kind {
        AllocatorKind::FirstFit => Box::new(memalloc::FirstFit::new(capacity)),
        AllocatorKind::SizeMap => Box::new(memalloc::SizeMap::new(capacity)),
        AllocatorKind::DlSeg => Box::new(memalloc::DlSeg::new(capacity)),
        AllocatorKind::Buddy => Box::new(memalloc::Buddy::new(capacity)),
        AllocatorKind::Slab => Box::new(memalloc::Slab::new(capacity)),
    }
}

/// Replay the allocation events the stores saw (preload, warm-up and the
/// deterministic window), one standalone allocator per node of the
/// cluster's kind and capacity, through `memalloc`'s public API; each pass
/// ends by freeing what is still live. Held bytes per live byte is taken
/// at the pass's peak live fill.
pub fn replay_allocations(trace: &[AllocEvent], kind: AllocatorKind) -> Replay {
    let (mut alloc_ns, mut allocs, mut free_ns, mut frees) = (0u64, 0u64, 0u64, 0u64);
    let mut held_per_live = 0.0;
    let mut passes = 0;
    let started = Instant::now();
    while passes == 0 || (passes < 200 && started.elapsed().as_millis() < 100) {
        passes += 1;
        let mut heap = [
            allocator(kind, MEMORY_PER_NODE as u64),
            allocator(kind, MEMORY_PER_NODE as u64),
        ];
        let mut live: BTreeMap<u64, (usize, u64, u64)> = BTreeMap::new();
        let (mut live_bytes, mut peak_live) = (0u64, 0u64);
        let mut free = |heap: &mut [Box<dyn RegionAllocator>; 2], node: usize, off: u64| {
            let t = Instant::now();
            heap[node]
                .free(off)
                .expect("replayed free of a live allocation");
            free_ns += t.elapsed().as_nanos() as u64;
            frees += 1;
        };
        for ev in trace {
            match *ev {
                AllocEvent::Alloc { node, key, size } => {
                    let t = Instant::now();
                    let off = heap[node as usize].alloc(size).expect("replay fits");
                    alloc_ns += t.elapsed().as_nanos() as u64;
                    allocs += 1;
                    live.insert(key, (node as usize, off, size));
                    live_bytes += size;
                    if passes == 1 && live_bytes > peak_live {
                        peak_live = live_bytes;
                        let held: u64 = heap.iter().map(|a| a.stats().allocated_bytes).sum();
                        held_per_live = held as f64 / live_bytes as f64;
                    }
                }
                AllocEvent::Free { key, .. } => {
                    if let Some((node, off, size)) = live.remove(&key) {
                        free(&mut heap, node, off);
                        live_bytes -= size;
                    }
                }
            }
        }
        for (_, (node, off, _)) in std::mem::take(&mut live) {
            free(&mut heap, node, off);
        }
    }
    Replay {
        alloc_ns: per(alloc_ns, allocs),
        free_ns: per(free_ns, frees),
        held_per_live,
        passes,
        events: trace.len(),
    }
}

// ------------------------------------------------------------- statistics

fn sorted(it: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = it.collect();
    v.sort_unstable();
    v
}

/// Nearest-rank percentile of sorted samples (0 when empty).
fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile with at least 10 samples beyond it: the 11th
/// largest sample, at percentile `100·(n−10)/n`.
fn tail(sorted: &[u64]) -> Option<(f64, u64)> {
    let n = sorted.len();
    (n >= 11).then(|| (100.0 * (n - 10) as f64 / n as f64, sorted[n - 11]))
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn mean(v: &[u64]) -> f64 {
    per(v.iter().sum(), v.len() as u64)
}

/// Share of windows dropped from each end before averaging window medians.
const WINDOW_TRIM: f64 = 0.1;

/// Sorted p50s of the windows below `windows` (the whole ones);
/// `samples` yields `(window, value)`.
fn window_p50s(samples: impl Iterator<Item = (u32, u64)>, windows: usize) -> Vec<f64> {
    let mut per_window = vec![Vec::new(); windows];
    for (w, v) in samples {
        if let Some(s) = per_window.get_mut(w as usize) {
            s.push(v);
        }
    }
    let mut p50s: Vec<f64> = per_window
        .into_iter()
        .filter(|s| !s.is_empty())
        .map(|mut s| {
            s.sort_unstable();
            pct(&s, 50.0) as f64
        })
        .collect();
    p50s.sort_by(f64::total_cmp);
    p50s
}

/// Mean of sorted window p50s, the highest and lowest `WINDOW_TRIM` of
/// windows left out. The host's speed drifts between levels over
/// seconds, and a p50 over the whole run flips between those levels as
/// their mix crosses one half; this mean moves with the mix in
/// proportion instead.
fn trimmed_mean(sorted: &[f64]) -> f64 {
    let cut = (sorted.len() as f64 * WINDOW_TRIM) as usize;
    let kept = &sorted[cut..sorted.len() - cut];
    if kept.is_empty() {
        return 0.0;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

// ----------------------------------------------------------------- report

pub struct Report {
    pub workload: Workload,
    pub setup_s: Vec<f64>,
    pub dets: Vec<Det>,
    pub timed: Rec,
    pub timed_s: f64,
    pub cpu: Cpu,
    /// Share of all CPUs' time the host stole during the timed phase.
    pub host_steal_share: f64,
    /// Host steal share in each whole timed window.
    pub window_steal: Vec<f64>,
    pub threads_peak: u64,
    pub peak_rss_mib: f64,
    pub layer_totals: LayerTotals,
    pub timed_counts: Counts,
    pub quiesce: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
    pub attribution: Option<Attribution>,
    pub alloc_replay: Option<Replay>,
}

type Metric = (String, f64, &'static str);

impl Report {
    pub fn new(inputs: &Inputs) -> Report {
        Report {
            workload: inputs.workload,
            setup_s: Vec::new(),
            dets: Vec::new(),
            timed: Rec::default(),
            timed_s: 0.0,
            cpu: Cpu::default(),
            host_steal_share: 0.0,
            window_steal: Vec::new(),
            threads_peak: 0,
            peak_rss_mib: 0.0,
            layer_totals: LayerTotals::default(),
            timed_counts: Counts::default(),
            quiesce: Vec::new(),
            attempted: 0,
            failed: 0,
            wrong: Vec::new(),
            attribution: None,
            alloc_replay: None,
        }
    }

    pub fn absorb_failures(&mut self, rec: &Rec) {
        self.attempted += rec.attempted;
        self.failed += rec.failed;
        self.wrong.extend(rec.wrong.iter().cloned());
    }

    /// The op kinds whose local/remote split the point-latency metrics
    /// report: gets on `read_skewed`, puts on `put_churn` and `shuffle`.
    fn primary(&self) -> (OpKind, OpKind) {
        match self.workload {
            Workload::ReadSkewed => (OpKind::GetLocal, OpKind::GetRemote),
            _ => (OpKind::PutLocal, OpKind::PutRemote),
        }
    }

    fn wall(&self, kind: OpKind, traced: bool) -> Vec<u64> {
        sorted(
            self.timed
                .ops
                .iter()
                .filter(|o| o.kind == kind && o.traced == traced)
                .map(|o| o.wall_ns),
        )
    }

    /// Window p50s of the untraced timed ops of `kind`.
    fn wall_windows(&self, kind: OpKind) -> Vec<f64> {
        window_p50s(
            self.timed
                .ops
                .iter()
                .filter(|o| o.kind == kind && !o.traced)
                .map(|o| (o.window, o.wall_ns)),
            self.window_steal.len(),
        )
    }

    /// Window p50s of the untraced timed rounds.
    fn round_windows(&self) -> Vec<f64> {
        window_p50s(
            self.timed
                .rounds
                .iter()
                .filter(|r| !r.traced)
                .map(|r| (r.window, r.wall_ns)),
            self.window_steal.len(),
        )
    }

    fn det(&self) -> &Det {
        self.dets.last().expect("a deterministic window ran")
    }

    fn deterministic(&self) -> bool {
        self.dets.windows(2).all(|w| w[0] == w[1])
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let (local, remote) = self.primary();
        let det = self.det();
        let modeled_remote = det.virt(remote);
        let rounds = trimmed_mean(&self.round_windows());
        let modeled_rounds = sorted(det.rounds.iter().copied());
        vec![
            ("setup_s".into(), median(&self.setup_s), "s"),
            (
                "local_p50_us".into(),
                trimmed_mean(&self.wall_windows(local)) / 1e3,
                "us",
            ),
            (
                "remote_p50_us".into(),
                trimmed_mean(&self.wall_windows(remote)) / 1e3,
                "us",
            ),
            (
                "modeled_remote_p50_us".into(),
                pct(&modeled_remote, 50.0) as f64 / 1e3,
                "us",
            ),
            (
                "modeled_remote_tail_us".into(),
                tail(&modeled_remote).map_or(0.0, |t| t.1 as f64 / 1e3),
                "us",
            ),
            ("round_p50_ms".into(), rounds / 1e6, "ms"),
            (
                "modeled_round_p50_ms".into(),
                pct(&modeled_rounds, 50.0) as f64 / 1e6,
                "ms",
            ),
            (
                "cpu_us_per_op".into(),
                self.cpu.total_s() * 1e6 / self.timed.attempted.max(1) as f64,
                "us",
            ),
            ("peak_rss_mib".into(), self.peak_rss_mib, "MiB"),
        ]
    }

    fn per_layer(&self) -> Vec<Metric> {
        let at = self.attribution.as_ref().expect("traced run");
        let replay = self.alloc_replay.as_ref().expect("traced run");
        let det = self.det();
        let lt = &self.layer_totals;
        let mut m: Vec<Metric> = Vec::new();
        let mut push = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));
        for call in ["get", "create", "seal", "release", "delete"] {
            push(
                &format!("ipc.self_us.{call}"),
                at.ipc_self_us(&format!("ipc.{call}")),
                "us",
            );
        }
        push(
            "ipc.requests_per_op",
            per(det.ipc_requests, det.attempted),
            "count",
        );
        for (i, p) in crate::probe::PLASMA.iter().enumerate() {
            push(&format!("plasma.{p}_us"), mean_us(lt.plasma[i]), "us");
        }
        push(
            "plasma.shard_contention",
            self.timed_counts.counter(C_CONTENTION) as f64,
            "count",
        );
        push(
            "plasma.evictions",
            (self.timed_counts.counter(C_EVICTIONS) + det.counts.counter(C_EVICTIONS)) as f64,
            "count",
        );
        push(
            "plasma.held_bytes_per_user_byte",
            per(det.held_bytes, det.live_bytes),
            "ratio",
        );
        push("memalloc.alloc_ns", replay.alloc_ns, "ns");
        push("memalloc.free_ns", replay.free_ns, "ns");
        push(
            "memalloc.held_bytes_per_live_byte",
            replay.held_per_live,
            "ratio",
        );
        push("disagg.get_local_us", mean_us(lt.disagg[0]), "us");
        push("disagg.get_remote_us", mean_us(lt.disagg[1]), "us");
        push("disagg.create_us", mean_us(lt.disagg[3]), "us");
        push(
            "disagg.self_us.get_remote",
            at.disagg_self_us("get_remote", "ipc.get"),
            "us",
        );
        push(
            "disagg.self_us.create_remote",
            at.disagg_self_us("put_remote", "ipc.create"),
            "us",
        );
        push(
            "disagg.rpcs_per_remote_get",
            det.rpcs_per(OpKind::GetRemote),
            "count",
        );
        push(
            "disagg.rpcs_per_remote_put",
            det.rpcs_per(OpKind::PutRemote),
            "count",
        );
        push(
            "disagg.rpcs_per_remote_delete",
            det.rpcs_per(OpKind::DeleteRemote),
            "count",
        );
        let hits = det.counts.counter(C_RING_HIT);
        push(
            "disagg.ring_hit_ratio",
            per(hits, hits + det.counts.counter(C_RING_FALLBACK)),
            "ratio",
        );
        push(
            "disagg.replica_local_hits",
            det.counts.counter(C_REPLICA_HITS) as f64,
            "count",
        );
        for (i, v) in VERBS.iter().enumerate() {
            push(&format!("rpclite.call_us.{v}"), mean_us(lt.verbs[i]), "us");
        }
        push(
            "rpclite.calls_per_op",
            per(det.rpc_calls(), det.attempted),
            "count",
        );
        push(
            "rpclite.retries_per_call",
            per(det.counts.counter(C_RETRIES), det.rpc_calls()),
            "ratio",
        );
        push(
            "rpclite.redials",
            (det.counts.redials.iter().sum::<u64>() + self.timed_counts.redials.iter().sum::<u64>())
                as f64,
            "count",
        );
        push(
            "rpclite.self_us_per_call",
            per(at.rpclite_self_ns, at.rpc_calls) / 1e3,
            "us",
        );
        push("netsim.modeled_us_per_call", at.modeled_us_per_rpc(), "us");
        let call_mean = |name: &str| {
            let (n, ns) = at
                .calls
                .iter()
                .filter(|((_, c), _)| *c == name)
                .fold((0, 0), |(n, ns), (_, v)| (n + v.n, ns + v.wall_ns));
            per(ns, n) / 1e3
        };
        push("tfsim.read_us_per_op", call_mean("tfsim.read"), "us");
        push("tfsim.write_us_per_op", call_mean("tfsim.write"), "us");
        for (i, name) in ["local_read", "remote_read", "local_write", "remote_write"]
            .iter()
            .enumerate()
        {
            push(
                &format!("tfsim.{name}_bytes_per_op"),
                per(det.fabric[i], det.attempted),
                "B",
            );
        }
        let gibps = |bytes: u64, ns: u64| per(bytes, ns) * 1e9 / (1u64 << 30) as f64;
        push(
            "tfsim.modeled_local_read_gibps",
            gibps(at.read_bytes[0], at.read_virt_ns[0]),
            "GiB/s",
        );
        push(
            "tfsim.modeled_remote_read_gibps",
            gibps(at.read_bytes[1], at.read_virt_ns[1]),
            "GiB/s",
        );
        push(
            "tfsim.wall_read_gibps",
            gibps(
                at.read_bytes[0] + at.read_bytes[1],
                at.read_wall_ns[0] + at.read_wall_ns[1],
            ),
            "GiB/s",
        );
        push(
            "process.sys_share",
            self.cpu.sys_s / self.cpu.total_s().max(f64::MIN_POSITIVE),
            "ratio",
        );
        push("process.threads_peak", self.threads_peak as f64, "count");
        push(
            "driver.compute_us_per_op",
            per(self.timed.compute_ns, self.timed.attempted) / 1e3,
            "us",
        );
        push("trace.overhead_us_per_op", self.tracing_overhead_us(), "us");
        push("trace.clamped", at.clamped as f64, "count");
        for kind in OpKind::ALL {
            let k = at.kinds.get(kind.name()).cloned().unwrap_or_default();
            for (l, layer) in LAYERS.iter().enumerate().take(6) {
                push(
                    &format!("self_us.{}.{layer}", kind.name()),
                    per(k.self_ns[l], k.ops) / 1e3,
                    "us",
                );
            }
        }
        m
    }

    /// Traced minus untraced mean wall per op, weighted by the traced op
    /// mix so a change of mix between blocks does not masquerade as cost.
    fn tracing_overhead_us(&self) -> f64 {
        let (mut extra, mut n) = (0.0, 0u64);
        for kind in OpKind::ALL {
            let (t, u) = (self.wall(kind, true), self.wall(kind, false));
            if t.is_empty() || u.is_empty() {
                continue;
            }
            extra += (mean(&t) - mean(&u)) * t.len() as f64;
            n += t.len() as u64;
        }
        extra / n.max(1) as f64 / 1e3
    }

    fn print_ops(&self) {
        println!(
            "timed phase: {:.2} s, {} ops",
            self.timed_s, self.timed.attempted
        );
        for kind in OpKind::ALL {
            for traced in [false, true] {
                let w = self.wall(kind, traced);
                if w.is_empty() {
                    continue;
                }
                println!(
                    "  {:<13} {:<8} n={:<7} wall p50={:>9.1}us p99={:>9.1}us (n={}) mean={:>9.1}us",
                    kind.name(),
                    if traced { "traced" } else { "untraced" },
                    w.len(),
                    pct(&w, 50.0) as f64 / 1e3,
                    pct(&w, 99.0) as f64 / 1e3,
                    w.len(),
                    mean(&w) / 1e3,
                );
            }
        }
        let det = self.det();
        println!(
            "deterministic window: {} ops, {} rounds, {} rpclite calls",
            det.attempted,
            det.rounds.len(),
            det.rpc_calls()
        );
        for kind in OpKind::ALL {
            let v = det.virt(kind);
            if v.is_empty() {
                continue;
            }
            let (tp, tv) = tail(&v).unwrap_or((100.0, *v.last().unwrap_or(&0)));
            println!(
                "  {:<13} modeled p50={:>9.1}us tail p{:.2}={:>9.1}us (n={}, 10 beyond) rpcs/op={:.3}",
                kind.name(),
                pct(&v, 50.0) as f64 / 1e3,
                tp,
                tv as f64 / 1e3,
                v.len(),
                det.rpcs_per(kind)
            );
        }
        let (local, remote) = self.primary();
        let mut steal = self.window_steal.clone();
        steal.sort_by(f64::total_cmp);
        println!(
            "windows: {} whole; host steal per window min {:.1}% p50 {:.1}% max {:.1}%",
            steal.len(),
            100.0 * steal.first().unwrap_or(&0.0),
            100.0 * median(&steal),
            100.0 * steal.last().unwrap_or(&0.0),
        );
        for (name, w, scale, unit) in [
            ("local", self.wall_windows(local), 1e3, "us"),
            ("remote", self.wall_windows(remote), 1e3, "us"),
            ("round", self.round_windows(), 1e6, "ms"),
        ] {
            println!(
                "  {name:<6} window p50s: min {:.3}{unit} p50 {:.3}{unit} max {:.3}{unit}; trimmed mean {:.3}{unit}",
                w.first().unwrap_or(&0.0) / scale,
                median(&w) / scale,
                w.last().unwrap_or(&0.0) / scale,
                trimmed_mean(&w) / scale,
            );
        }
        let rounds = sorted(
            self.timed
                .rounds
                .iter()
                .filter(|r| !r.traced)
                .map(|r| r.wall_ns),
        );
        println!(
            "rounds: n={} wall p50={:.3}ms p99={:.3}ms (n={})",
            rounds.len(),
            pct(&rounds, 50.0) as f64 / 1e6,
            pct(&rounds, 99.0) as f64 / 1e6,
            rounds.len()
        );
        println!(
            "cpu: user {:.2}s sys {:.2}s over {:.2}s (host steal {:.1}%); driver compute {:.1}us/op",
            self.cpu.user_s,
            self.cpu.sys_s,
            self.timed_s,
            100.0 * self.host_steal_share,
            per(self.timed.compute_ns, self.timed.attempted) / 1e3
        );
        println!(
            "bytes_held_per_user_byte={:.4} (held {} B / live {} B after the deterministic window)",
            per(det.held_bytes, det.live_bytes),
            det.held_bytes,
            det.live_bytes
        );
        println!(
            "failed_op_share={} ({} of {} ops attempted)",
            per(self.failed, self.attempted),
            self.failed,
            self.attempted
        );
    }

    fn print_attribution(&self) {
        let Some(at) = &self.attribution else { return };
        println!("per-layer self time (traced blocks; mean us per op, share of op wall):");
        for (kind, k) in &at.kinds {
            let mean_wall = per(k.wall_ns, k.ops);
            let mut line = format!(
                "  {kind:<13} n={} wall mean={:.1}us modeled mean={:.1}us |",
                k.ops,
                mean_wall / 1e3,
                per(k.virt_ns, k.ops) / 1e3
            );
            for (l, layer) in LAYERS.iter().enumerate() {
                let v = per(k.self_ns[l], k.ops);
                let _ = write!(
                    line,
                    " {layer} {:.1} ({:.1}%)",
                    v / 1e3,
                    100.0 * per(v as u64, mean_wall as u64)
                );
            }
            println!("{line}");
        }
        println!(
            "  clamped subtractions={} rpclite calls of unreported verbs={}",
            at.clamped, at.other_rpc_calls
        );
        if let Some(r) = &self.alloc_replay {
            println!(
                "allocator replay: {} events x {} passes: alloc {:.1}ns free {:.1}ns held/live {:.4}",
                r.events, r.passes, r.alloc_ns, r.free_ns, r.held_per_live
            );
        }
        println!(
            "tracing overhead: {:.2}us per op (traced minus untraced mean wall)",
            self.tracing_overhead_us()
        );
    }

    pub fn print(&self, trace: bool) {
        println!(
            "setup_s per cluster: {}",
            self.setup_s
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let digests: Vec<String> = self
            .dets
            .iter()
            .map(|d| format!("{:016x}", d.digest()))
            .collect();
        let deterministic = self.deterministic();
        println!(
            "determinism: window digests {} -> {}",
            digests.join(" "),
            if deterministic {
                "identical"
            } else {
                "DIFFERENT"
            }
        );
        self.print_ops();
        if trace {
            self.print_attribution();
        }
        let metrics = if trace {
            self.per_layer()
        } else {
            self.end_to_end()
        };
        let mut problems: Vec<String> = self.wrong.clone();
        problems.extend(self.quiesce.iter().cloned());
        if !deterministic {
            problems.push("same-seed deterministic windows differ".into());
        }
        if !trace {
            for (name, v, _) in &metrics {
                if !(v.is_finite() && *v > 0.0) {
                    problems.push(format!("{name} has no samples"));
                }
            }
        }
        println!(
            "checks: {}",
            if problems.is_empty() {
                "contents, folds, quiesce (pins, evictions, object count) all pass".to_string()
            } else {
                problems.join("; ")
            }
        );
        for (name, v, unit) in &metrics {
            println!("  {name} = {v} {unit}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            problems.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, v, unit)) in metrics.iter().enumerate() {
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(
                json,
                "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}
