//! Driver-side spans. Every call the driver makes into a public layer
//! function can be wrapped in a span (name, op id, parent, wall and
//! virtual start/end); spans of the store-side layers nested below a call
//! are derived from `obs`/`FabricStats` readings taken at the span's
//! boundaries. Spans stay in memory and are written out when the run ends.

use std::io::Write;
use std::time::Instant;
use tfsim::Clock;

use crate::probe::{fabric_delta, Probes, Snap, VERBS};

pub const NO_PARENT: u32 = u32::MAX;

/// What the store-side layers did inside one call span, from the probe
/// readings at its boundaries.
#[derive(Clone, Copy, Default)]
pub struct Nested {
    /// rpclite client calls made by the calling node, all verbs.
    pub rpc_calls: u64,
    /// Wall ns inside the five reported verbs, and their call counts.
    pub verb_ns: [u64; VERBS.len()],
    pub verb_calls: [u64; VERBS.len()],
    /// Plasma core time on the calling node and on its peer.
    pub plasma_local_ns: u64,
    pub plasma_remote_ns: u64,
    /// Time inside `disagg`'s own timers (get, create) on the calling node.
    pub disagg_ns: u64,
    /// Fabric bytes: local read, remote read, local write, remote write.
    pub fabric: [u64; 4],
}

pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: u32,
    /// Node whose client made the call.
    pub node: u8,
    pub w0: u64,
    pub w1: u64,
    pub v0: u64,
    pub v1: u64,
    pub nested: Nested,
    /// Root spans only: wall ns of probe reads made inside the op.
    pub probe_ns: u64,
}

impl Span {
    pub fn wall(&self) -> u64 {
        self.w1 - self.w0
    }

    pub fn virt(&self) -> u64 {
        self.v1 - self.v0
    }
}

pub struct Tracer {
    pub on: bool,
    pub spans: Vec<Span>,
    base: Instant,
    clock: Clock,
    root: u32,
    op: u32,
}

fn nested(before: &Snap, after: &Snap, node: usize) -> Nested {
    let (a, b) = (&after.nodes[node], &before.nodes[node]);
    let peer = 1 - node;
    let (pa, pb) = (&after.nodes[peer], &before.nodes[peer]);
    let mut n = Nested {
        rpc_calls: a.rpc_calls - b.rpc_calls,
        fabric: fabric_delta(&after.fabric, &before.fabric),
        ..Nested::default()
    };
    for i in 0..VERBS.len() {
        n.verb_calls[i] = a.verbs[i].0 - b.verbs[i].0;
        n.verb_ns[i] = a.verbs[i].1 - b.verbs[i].1;
    }
    for i in 0..a.plasma.len() {
        n.plasma_local_ns += a.plasma[i].1 - b.plasma[i].1;
        n.plasma_remote_ns += pa.plasma[i].1 - pb.plasma[i].1;
    }
    // `disagg` records one get sample per requested id, each carrying the
    // whole call's elapsed time; one span holds at most one get call, so
    // its time is the mean of those samples.
    let (gets, get_ns) = (0..3).fold((0, 0), |(c, s), i| {
        (
            c + a.disagg[i].0 - b.disagg[i].0,
            s + a.disagg[i].1 - b.disagg[i].1,
        )
    });
    n.disagg_ns = get_ns.checked_div(gets).unwrap_or(0) + a.disagg[3].1 - b.disagg[3].1;
    n
}

impl Tracer {
    pub fn new(clock: Clock) -> Tracer {
        Tracer {
            on: false,
            spans: Vec::new(),
            base: Instant::now(),
            clock,
            root: NO_PARENT,
            op: 0,
        }
    }

    fn wall_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn virt_ns(&self) -> u64 {
        self.clock.now().as_nanos() as u64
    }

    /// Open the root span of one client op.
    pub fn op_begin(&mut self, name: &'static str, node: usize) {
        if !self.on {
            return;
        }
        self.op += 1;
        self.root = self.spans.len() as u32;
        let (w, v) = (self.wall_ns(), self.virt_ns());
        self.spans.push(Span {
            name,
            op: self.op,
            parent: NO_PARENT,
            node: node as u8,
            w0: w,
            w1: w,
            v0: v,
            v1: v,
            nested: Nested::default(),
            probe_ns: 0,
        });
    }

    /// Close the root span; `name` may refine the op kind decided while
    /// the op ran (e.g. local vs remote).
    pub fn op_end(&mut self, name: &'static str) {
        if !self.on || self.root == NO_PARENT {
            return;
        }
        let (w, v) = (self.wall_ns(), self.virt_ns());
        let root = &mut self.spans[self.root as usize];
        root.name = name;
        root.w1 = w;
        root.v1 = v;
        self.root = NO_PARENT;
    }

    /// Run one driver call into a layer inside a span. `probe` selects
    /// whether nested store-side layers are read at the span boundaries.
    pub fn call<T>(
        &mut self,
        probes: &Probes,
        name: &'static str,
        node: usize,
        probe: bool,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let p = Instant::now();
        let before = probe.then(|| probes.snap());
        let fab0 = probes.fabric();
        let mut probe_ns = p.elapsed().as_nanos() as u64;
        let (w0, v0) = (self.wall_ns(), self.virt_ns());
        let out = f();
        let (w1, v1) = (self.wall_ns(), self.virt_ns());
        let p = Instant::now();
        let mut n = match before {
            Some(before) => nested(&before, &probes.snap(), node),
            None => Nested::default(),
        };
        n.fabric = fabric_delta(&probes.fabric(), &fab0);
        probe_ns += p.elapsed().as_nanos() as u64;
        if let Some(root) = self.spans.get_mut(self.root as usize) {
            root.probe_ns += probe_ns;
        }
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.root,
            node: node as u8,
            w0,
            w1,
            v0,
            v1,
            nested: n,
            probe_ns: 0,
        });
        out
    }

    /// Write every span as tab-separated text.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "span\tparent\top\tname\tnode\twall_start_ns\twall_end_ns\tvirt_start_ns\tvirt_end_ns\trpc_calls\tdisagg_ns\tplasma_local_ns\tplasma_remote_ns\trpc_ns\tfabric_bytes"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let n = &s.nested;
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                i,
                parent,
                s.op,
                s.name,
                s.node,
                s.w0,
                s.w1,
                s.v0,
                s.v1,
                n.rpc_calls,
                n.disagg_ns,
                n.plasma_local_ns,
                n.plasma_remote_ns,
                n.verb_ns.iter().sum::<u64>(),
                n.fabric.iter().sum::<u64>()
            )?;
        }
        out.flush()
    }
}
