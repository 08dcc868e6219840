//! The harness: launches the paper-testbed cluster, preloads the catalog,
//! and drives the workload's client ops from one thread with one op
//! outstanding, recording each op's wall and virtual latency.

use disagg::{Cluster, ClusterConfig};
use plasma::{ObjectId, PlasmaClient, PlasmaError};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::inputs::{fold_into, Inputs, Workload, FOLD_SLOTS, LIVE_WINDOW, NODES};
use crate::probe::{Counts, Probes};
use crate::trace::Tracer;

/// Bytes of disaggregated memory each store donates: far above the
/// largest working set, so nothing is ever evicted.
pub const MEMORY_PER_NODE: usize = 64 << 20;
const GET_TIMEOUT: Duration = Duration::from_secs(10);

/// Steps per round on `read_skewed` (10 gets) and `put_churn` (10 puts and
/// their 10 deletes); a `shuffle` round is one step. Both hold the same
/// number of local and remote ops in every round.
pub const ROUND_STEPS: usize = 10;

/// The unmodified paper-testbed shape; only the delay-sampling seed is
/// taken from the workload seed, so modeled latencies vary with it.
pub fn cluster_config(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_testbed(MEMORY_PER_NODE);
    cfg.seed ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    cfg
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    GetLocal,
    GetRemote,
    PutLocal,
    PutRemote,
    DeleteLocal,
    DeleteRemote,
    /// A shuffle consumer's batched get + read + fold + release.
    Gather,
}

impl OpKind {
    pub const ALL: [OpKind; 7] = [
        OpKind::GetLocal,
        OpKind::GetRemote,
        OpKind::PutLocal,
        OpKind::PutRemote,
        OpKind::DeleteLocal,
        OpKind::DeleteRemote,
        OpKind::Gather,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::GetLocal => "get_local",
            OpKind::GetRemote => "get_remote",
            OpKind::PutLocal => "put_local",
            OpKind::PutRemote => "put_remote",
            OpKind::DeleteLocal => "delete_local",
            OpKind::DeleteRemote => "delete_remote",
            OpKind::Gather => "gather",
        }
    }

    fn by_home(home: usize, client: usize, local: OpKind, remote: OpKind) -> OpKind {
        if home == client {
            local
        } else {
            remote
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpRec {
    pub kind: OpKind,
    pub wall_ns: u64,
    pub virt_ns: u64,
    /// rpclite calls the op caused (deterministic window only).
    pub rpcs: u32,
    pub traced: bool,
    /// Timed-phase window the op ran in (see `Rec::window`).
    pub window: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundRec {
    pub wall_ns: u64,
    pub virt_ns: u64,
    pub traced: bool,
    pub window: u32,
}

/// One allocation event at a store, for the allocator replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocEvent {
    Alloc { node: u8, key: u64, size: u64 },
    Free { node: u8, key: u64 },
}

/// What a window of steps recorded.
#[derive(Default)]
pub struct Rec {
    pub ops: Vec<OpRec>,
    pub rounds: Vec<RoundRec>,
    pub attempted: u64,
    pub failed: u64,
    /// Wrong outputs (missing objects, content or fold mismatches).
    pub wrong: Vec<String>,
    /// Wall ns of driver-side compute: content checks and folds.
    pub compute_ns: u64,
    /// IPC requests issued by the client calls made (by the plasma client
    /// API: get, create, release, delete = 1 each; seal = seal + release).
    pub ipc_requests: u64,
    /// Count rpclite calls per op (deterministic window).
    pub count_rpcs: bool,
    pub alloc_trace: Option<Vec<AllocEvent>>,
    pub round_start: Option<(Instant, Duration, bool)>,
    /// Index of the current timed-phase window: the wall metrics average
    /// per-window medians, so a spell of slow host skews only the windows
    /// it falls in.
    pub window: u32,
}

impl Rec {
    fn wrong(&mut self, msg: String) {
        if self.wrong.len() < 16 {
            self.wrong.push(msg);
        }
    }

    fn alloc(&mut self, ev: AllocEvent) {
        if let Some(t) = &mut self.alloc_trace {
            t.push(ev);
        }
    }
}

pub struct Harness<'i> {
    inputs: &'i Inputs,
    // Clients are declared first so they drop before the cluster.
    clients: [PlasmaClient; NODES],
    pub cluster: Cluster,
    pub probes: Probes,
    /// Next schedule step.
    cursor: usize,
    /// `put_churn`: live objects, oldest first.
    window: VecDeque<usize>,
}

/// Wall time of `f`, added to the driver-compute tally.
fn compute<T>(rec: &mut Rec, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    rec.compute_ns += t.elapsed().as_nanos() as u64;
    out
}

impl<'i> Harness<'i> {
    /// Launch and preload. Everything up to the first measured op.
    pub fn launch(inputs: &'i Inputs, rec: &mut Rec) -> Result<Harness<'i>, PlasmaError> {
        let cluster = Cluster::launch(cluster_config(inputs.seed))?;
        for i in 0..NODES {
            assert_eq!(
                cluster.node_id(i).0 as usize,
                i,
                "node ids follow launch order"
            );
        }
        let clients = [cluster.client(0)?, cluster.client(1)?];
        let probes = Probes::attach(&cluster);
        let mut h = Harness {
            inputs,
            clients,
            cluster,
            probes,
            cursor: 0,
            window: VecDeque::new(),
        };
        match inputs.workload {
            Workload::ReadSkewed => {
                for (k, o) in inputs.objects.iter().enumerate() {
                    let owner = h.cluster.store(0).ring_owner(o.id).map(|n| n.0 as usize);
                    assert_eq!(owner, Some(o.home), "catalog home matches the cluster ring");
                    let data = &inputs.payloads[o.payload];
                    h.clients[o.home].put(o.id, data, &[])?;
                    rec.alloc(AllocEvent::Alloc {
                        node: o.home as u8,
                        key: k as u64,
                        size: data.len() as u64,
                    });
                }
            }
            Workload::PutChurn => {
                for k in 0..LIVE_WINDOW {
                    let o = &inputs.objects[k];
                    let data = &inputs.payloads[o.payload];
                    h.clients[0].put(o.id, data, &[])?;
                    rec.alloc(AllocEvent::Alloc {
                        node: o.home as u8,
                        key: k as u64,
                        size: data.len() as u64,
                    });
                    h.window.push_back(k);
                }
            }
            Workload::Shuffle => {}
        }
        Ok(h)
    }

    pub fn clock(&self) -> &tfsim::Clock {
        self.cluster.clock()
    }

    /// Steps left in the generated schedule.
    pub fn remaining(&self) -> usize {
        let len = match self.inputs.workload {
            Workload::ReadSkewed => self.inputs.reads.len(),
            Workload::PutChurn => self.inputs.objects.len() - LIVE_WINDOW,
            Workload::Shuffle => self.inputs.rounds.len(),
        };
        len.saturating_sub(self.cursor)
    }

    /// Steps per round.
    pub fn round_steps(&self) -> usize {
        match self.inputs.workload {
            Workload::Shuffle => 1,
            _ => ROUND_STEPS,
        }
    }

    /// Run `n` schedule steps (stops early if the schedule runs out).
    pub fn steps(&mut self, n: usize, tr: &mut Tracer, rec: &mut Rec) -> usize {
        let n = n.min(self.remaining());
        for _ in 0..n {
            self.step(tr, rec);
        }
        n
    }

    /// One schedule step: a get (`read_skewed`), a put plus the delete of
    /// the oldest live object (`put_churn`), or a whole round (`shuffle`).
    pub fn step(&mut self, tr: &mut Tracer, rec: &mut Rec) {
        let k = self.cursor;
        self.cursor += 1;
        let per_round = self.round_steps();
        if k.is_multiple_of(per_round) {
            rec.round_start = Some((Instant::now(), self.clock().now(), tr.on));
        }
        let inputs = self.inputs;
        match inputs.workload {
            Workload::ReadSkewed => {
                let obj = inputs.reads[k] as usize;
                self.get_op(tr, rec, 0, obj);
            }
            Workload::PutChurn => {
                let fresh = LIVE_WINDOW + k;
                let o = &inputs.objects[fresh];
                self.put_op(
                    tr,
                    rec,
                    0,
                    fresh as u64,
                    o.id,
                    o.home,
                    &inputs.payloads[o.payload],
                );
                self.window.push_back(fresh);
                let oldest = self.window.pop_front().expect("window is full");
                let o = &inputs.objects[oldest];
                self.delete_op(tr, rec, 0, oldest as u64, o.id, o.home);
            }
            Workload::Shuffle => self.shuffle_round(tr, rec, k),
        }
        if (k + 1).is_multiple_of(per_round) {
            if let Some((w0, v0, traced)) = rec.round_start.take() {
                rec.rounds.push(RoundRec {
                    wall_ns: w0.elapsed().as_nanos() as u64,
                    virt_ns: (self.clock().now() - v0).as_nanos() as u64,
                    traced: traced || tr.on,
                    window: rec.window,
                });
            }
        }
    }

    fn begin(
        &self,
        tr: &mut Tracer,
        rec: &Rec,
        kind: OpKind,
        node: usize,
    ) -> (Instant, Duration, u64) {
        tr.op_begin(kind.name(), node);
        let rpcs = if rec.count_rpcs {
            self.probes.rpc_calls()
        } else {
            0
        };
        (Instant::now(), self.clock().now(), rpcs)
    }

    fn end(
        &self,
        tr: &mut Tracer,
        rec: &mut Rec,
        kind: OpKind,
        start: (Instant, Duration, u64),
        result: Result<(), PlasmaError>,
    ) {
        let wall_ns = start.0.elapsed().as_nanos() as u64;
        let virt_ns = (self.clock().now() - start.1).as_nanos() as u64;
        tr.op_end(kind.name());
        rec.attempted += 1;
        match result {
            Ok(()) => {
                let rpcs = if rec.count_rpcs {
                    (self.probes.rpc_calls() - start.2) as u32
                } else {
                    0
                };
                rec.ops.push(OpRec {
                    kind,
                    wall_ns,
                    virt_ns,
                    rpcs,
                    traced: tr.on,
                    window: rec.window,
                });
            }
            Err(e) => {
                rec.failed += 1;
                if rec.failed <= 4 {
                    eprintln!("op {} failed: {e}", kind.name());
                }
            }
        }
    }

    /// get → read_all → content check → release of one catalog object.
    fn get_op(&self, tr: &mut Tracer, rec: &mut Rec, c: usize, obj: usize) {
        let o = &self.inputs.objects[obj];
        let kind = OpKind::by_home(o.home, c, OpKind::GetLocal, OpKind::GetRemote);
        let start = self.begin(tr, rec, kind, c);
        let client = &self.clients[c];
        let probes = &self.probes;
        let result = (|| {
            rec.ipc_requests += 2;
            let bufs = tr.call(probes, "ipc.get", c, true, || {
                client.get(&[o.id], GET_TIMEOUT)
            })?;
            let Some(buf) = bufs.into_iter().next().flatten() else {
                rec.wrong(format!("catalog object {} missing", o.id));
                return Err(PlasmaError::ObjectNotFound(o.id));
            };
            let data = tr.call(probes, "tfsim.read", c, false, || buf.read_all())?;
            let expected = &self.inputs.payloads[o.payload];
            if !tr.call(probes, "driver.check", c, false, || {
                compute(rec, || data == *expected)
            }) {
                rec.wrong(format!("content mismatch on {}", o.id));
            }
            tr.call(probes, "ipc.release", c, true, || client.release(o.id))
        })();
        self.end(tr, rec, kind, start, result);
    }

    /// create → write → seal of a fresh object.
    #[allow(clippy::too_many_arguments)]
    fn put_op(
        &self,
        tr: &mut Tracer,
        rec: &mut Rec,
        c: usize,
        key: u64,
        id: ObjectId,
        home: usize,
        data: &[u8],
    ) {
        let kind = OpKind::by_home(home, c, OpKind::PutLocal, OpKind::PutRemote);
        let start = self.begin(tr, rec, kind, c);
        let client = &self.clients[c];
        let probes = &self.probes;
        let result = (|| {
            rec.ipc_requests += 3;
            let b = tr.call(probes, "ipc.create", c, true, || {
                client.create(id, data.len() as u64, 0)
            })?;
            tr.call(probes, "tfsim.write", c, false, || b.write(0, data))?;
            tr.call(probes, "ipc.seal", c, true, || b.seal())
                .map(|_| ())
        })();
        if result.is_ok() {
            rec.alloc(AllocEvent::Alloc {
                node: home as u8,
                key,
                size: data.len() as u64,
            });
        }
        self.end(tr, rec, kind, start, result);
    }

    fn delete_op(
        &self,
        tr: &mut Tracer,
        rec: &mut Rec,
        c: usize,
        key: u64,
        id: ObjectId,
        home: usize,
    ) {
        let kind = OpKind::by_home(home, c, OpKind::DeleteLocal, OpKind::DeleteRemote);
        let start = self.begin(tr, rec, kind, c);
        rec.ipc_requests += 1;
        let result = tr.call(&self.probes, "ipc.delete", c, true, || {
            self.clients[c].delete(id)
        });
        if result.is_ok() {
            rec.alloc(AllocEvent::Free {
                node: home as u8,
                key,
            });
        }
        self.end(tr, rec, kind, start, result);
    }

    /// 2×2 map → shuffle → reduce: producer `p` puts partition `(p, c)`
    /// for each consumer `c`; consumer `c` gathers its two partitions in
    /// one batched get, folds and checks them, releases and deletes them.
    fn shuffle_round(&self, tr: &mut Tracer, rec: &mut Rec, r: usize) {
        let inputs = self.inputs;
        let round = &inputs.rounds[r];
        let key = |p: usize, c: usize| (r * NODES * NODES + p * NODES + c) as u64;
        for p in 0..NODES {
            for c in 0..NODES {
                let data = &inputs.payloads[round.payload[p][c]];
                self.put_op(
                    tr,
                    rec,
                    p,
                    key(p, c),
                    round.ids[p][c],
                    round.homes[p][c],
                    data,
                );
            }
        }
        for c in 0..NODES {
            let ids = [round.ids[0][c], round.ids[1][c]];
            let mut expected = [0u64; FOLD_SLOTS];
            for p in 0..NODES {
                let reference = &inputs.folds[round.payload[p][c]];
                for (e, v) in expected.iter_mut().zip(reference) {
                    *e = e.wrapping_add(*v);
                }
            }
            self.gather_op(tr, rec, c, &ids, &expected);
            for (p, &id) in ids.iter().enumerate() {
                self.delete_op(tr, rec, c, key(p, c), id, round.homes[p][c]);
            }
        }
    }

    fn gather_op(
        &self,
        tr: &mut Tracer,
        rec: &mut Rec,
        c: usize,
        ids: &[ObjectId],
        expected: &[u64; FOLD_SLOTS],
    ) {
        let start = self.begin(tr, rec, OpKind::Gather, c);
        let client = &self.clients[c];
        let probes = &self.probes;
        let result = (|| {
            rec.ipc_requests += 1 + ids.len() as u64;
            let bufs = tr.call(probes, "ipc.get", c, true, || client.get(ids, GET_TIMEOUT))?;
            let mut acc = [0u64; FOLD_SLOTS];
            for (id, buf) in ids.iter().zip(bufs) {
                let Some(buf) = buf else {
                    rec.wrong(format!("partition {id} missing"));
                    return Err(PlasmaError::ObjectNotFound(*id));
                };
                let data = tr.call(probes, "tfsim.read", c, false, || buf.read_all())?;
                tr.call(probes, "driver.fold", c, false, || {
                    compute(rec, || fold_into(&data, &mut acc))
                });
            }
            if acc != *expected {
                rec.wrong(format!("fold mismatch on consumer {c}"));
            }
            for id in ids {
                tr.call(probes, "ipc.release", c, true, || client.release(*id))?;
            }
            Ok(())
        })();
        self.end(tr, rec, OpKind::Gather, start, result);
    }

    /// Quiesce checks after a window: no pins held in either direction, no
    /// evictions, the object count back at the catalog size, and (on
    /// `put_churn`) every live object's content intact.
    pub fn quiesce_check(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let mut objects = 0;
        for i in 0..NODES {
            let store = self.cluster.store(i);
            if store.remote_pin_count() != 0 {
                bad.push(format!(
                    "node {i}: remote_pin_count {}",
                    store.remote_pin_count()
                ));
            }
            if store.held_remote_pins() != 0 {
                bad.push(format!(
                    "node {i}: held_remote_pins {}",
                    store.held_remote_pins()
                ));
            }
            let evictions = store.metrics_snapshot().counter("plasma.evictions");
            if evictions != 0 {
                bad.push(format!("node {i}: {evictions} evictions"));
            }
            objects += store.core().stats().objects;
        }
        if objects != self.inputs.catalog_objects() as u64 {
            bad.push(format!(
                "{objects} objects stored, catalog holds {}",
                self.inputs.catalog_objects()
            ));
        }
        if self.inputs.workload == Workload::PutChurn {
            for &k in &self.window {
                let o = &self.inputs.objects[k];
                let ok = self.clients[0]
                    .get(&[o.id], GET_TIMEOUT)
                    .ok()
                    .and_then(|mut b| b.pop().flatten())
                    .and_then(|buf| buf.read_all().ok())
                    .is_some_and(|d| d == self.inputs.payloads[o.payload]);
                let _ = self.clients[0].release(o.id);
                if !ok {
                    bad.push(format!("live object {} unreadable or changed", o.id));
                    break;
                }
            }
            // The reads above pinned and released remote objects: re-check.
            for i in 0..NODES {
                let store = self.cluster.store(i);
                if store.remote_pin_count() + store.held_remote_pins() != 0 {
                    bad.push(format!("node {i}: pins left after verification reads"));
                }
            }
        }
        bad
    }

    /// Allocator bytes held by both stores, and live user bytes.
    pub fn held_and_live_bytes(&self) -> (u64, u64) {
        let held = (0..NODES)
            .map(|i| self.cluster.store(i).core().stats().allocated_bytes)
            .sum();
        let live = match self.inputs.workload {
            Workload::ReadSkewed => self
                .inputs
                .objects
                .iter()
                .map(|o| self.inputs.payloads[o.payload].len() as u64)
                .sum(),
            Workload::PutChurn => self
                .window
                .iter()
                .map(|&k| self.inputs.payloads[self.inputs.objects[k].payload].len() as u64)
                .sum(),
            Workload::Shuffle => 0,
        };
        (held, live)
    }

    pub fn counts(&self) -> Counts {
        self.probes.counts()
    }
}
