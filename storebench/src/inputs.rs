//! Seeded input generation. Everything a run feeds the store — object
//! names, homes, sizes, payloads, the op schedule and the shuffle
//! reference folds — is a pure function of `(workload, seed)` and is built
//! before the first cluster launches, so the program under test receives
//! only generated inputs.

use disagg::{Membership, Ring};
use plasma::ObjectId;
use tfsim::NodeId;

/// Nodes in the paper testbed shape.
pub const NODES: usize = 2;

/// `read_skewed`: catalog objects (half homed on each node) and their size.
pub const CATALOG_OBJECTS: usize = 512;
pub const CATALOG_OBJECT_BYTES: usize = 64 << 10;
/// Zipf exponent of `read_skewed` popularity.
pub const ZIPF_S: f64 = 0.99;

/// `put_churn`: Table I sizes, the live window, and distinct payloads per size.
pub const PUT_SIZES: [usize; 2] = [1_000, 10_000];
pub const LIVE_WINDOW: usize = 256;
const PAYLOADS_PER_SIZE: usize = 16;

/// `shuffle`: partition bytes (Table I row 4), record width, fold width,
/// and distinct partition payloads cycled through the rounds.
pub const PARTITION_BYTES: usize = 1_000_000;
pub const RECORD_BYTES: usize = 16;
pub const FOLD_SLOTS: usize = 64;
const PARTITION_POOL: usize = 8;

/// Upper bound on schedule length per measured second, far above the
/// rate a closed loop with one op outstanding reaches on this store.
const OPS_PER_SECOND_CAP: usize = 40_000;
const ROUNDS_PER_SECOND_CAP: usize = 2_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadSkewed,
    PutChurn,
    Shuffle,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "read_skewed" => Some(Workload::ReadSkewed),
            "put_churn" => Some(Workload::PutChurn),
            "shuffle" => Some(Workload::Shuffle),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadSkewed => "read_skewed",
            Workload::PutChurn => "put_churn",
            Workload::Shuffle => "shuffle",
        }
    }
}

/// splitmix64: small, fast, and good enough for input generation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_0F5E_ED00_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let w = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
    }
}

/// FNV-1a, used for the schedule digest and determinism digests.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The ring every cluster of this shape installs at launch (epoch 1 over
/// nodes 0 and 1); used to choose names with a given home.
fn testbed_ring() -> Ring {
    Ring::new(Membership::new(
        1,
        (0..NODES as u16).map(NodeId).collect::<Vec<_>>(),
    ))
}

fn home_of(ring: &Ring, id: ObjectId) -> usize {
    ring.owner_of(id).expect("non-empty ring").0 as usize
}

/// The id of `base`, or of the first `base~k` variant, owned by `home`.
fn id_homed(ring: &Ring, base: &str, home: usize) -> ObjectId {
    let id = ObjectId::from_name(base);
    if home_of(ring, id) == home {
        return id;
    }
    (1u32..)
        .map(|k| ObjectId::from_name(&format!("{base}~{k}")))
        .find(|&id| home_of(ring, id) == home)
        .expect("some variant lands on every node")
}

/// One object the store holds or will hold.
pub struct Object {
    pub id: ObjectId,
    /// Ring owner (node index).
    pub home: usize,
    /// Index into the workload's payload pool.
    pub payload: usize,
}

/// A `shuffle` round: `ids[producer][consumer]` and the pool index of
/// each partition's payload.
pub struct Round {
    pub ids: [[ObjectId; NODES]; NODES],
    pub homes: [[usize; NODES]; NODES],
    pub payload: [[usize; NODES]; NODES],
}

pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// Payload pool; objects index into it.
    pub payloads: Vec<Vec<u8>>,
    /// `read_skewed`: the preloaded catalog. `put_churn`: every put, in
    /// order (the first `LIVE_WINDOW` are the preloaded window).
    pub objects: Vec<Object>,
    /// `read_skewed`: catalog index read by each op.
    pub reads: Vec<u32>,
    /// `shuffle`: the rounds, in order.
    pub rounds: Vec<Round>,
    /// `shuffle`: reference fold of each pool partition.
    pub folds: Vec<[u64; FOLD_SLOTS]>,
    pub digest: u64,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
        let mut rng = Rng::new(seed ^ workload as u64);
        let ring = testbed_ring();
        let mut inputs = Inputs {
            workload,
            seed,
            payloads: Vec::new(),
            objects: Vec::new(),
            reads: Vec::new(),
            rounds: Vec::new(),
            folds: Vec::new(),
            digest: 0,
        };
        let ops = OPS_PER_SECOND_CAP * seconds.max(1) as usize;
        match workload {
            Workload::ReadSkewed => inputs.gen_read_skewed(&mut rng, &ring, ops),
            Workload::PutChurn => inputs.gen_put_churn(&mut rng, &ring, ops),
            Workload::Shuffle => inputs.gen_shuffle(
                &mut rng,
                &ring,
                ROUNDS_PER_SECOND_CAP * seconds.max(1) as usize,
            ),
        }
        inputs.digest = inputs.compute_digest();
        inputs
    }

    fn gen_read_skewed(&mut self, rng: &mut Rng, ring: &Ring, ops: usize) {
        // Popularity rank r is homed on node r % 2, and op i reads an object
        // homed on node i % 2, drawn by Zipf weight among that node's ranks:
        // every seed and every round splits the reads evenly between local
        // and remote; the seed picks names, contents and the draws.
        for r in 0..CATALOG_OBJECTS {
            let id = id_homed(ring, &format!("rs/{:x}/{r}", self.seed), r % NODES);
            let mut payload = vec![0u8; CATALOG_OBJECT_BYTES];
            rng.fill(&mut payload);
            self.objects.push(Object {
                id,
                home: r % NODES,
                payload: self.payloads.len(),
            });
            self.payloads.push(payload);
        }
        let cdfs: Vec<Vec<f64>> = (0..NODES)
            .map(|home| {
                let mut acc = 0.0;
                let mut cdf: Vec<f64> = (home..CATALOG_OBJECTS)
                    .step_by(NODES)
                    .map(|r| {
                        acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
                        acc
                    })
                    .collect();
                cdf.iter_mut().for_each(|c| *c /= acc);
                cdf
            })
            .collect();
        self.reads = (0..ops)
            .map(|i| {
                let home = i % NODES;
                let cdf = &cdfs[home];
                let j = cdf
                    .partition_point(|&c| c < rng.next_f64())
                    .min(cdf.len() - 1);
                (j * NODES + home) as u32
            })
            .collect();
    }

    fn gen_put_churn(&mut self, rng: &mut Rng, ring: &Ring, ops: usize) {
        for &size in &PUT_SIZES {
            for _ in 0..PAYLOADS_PER_SIZE {
                let mut payload = vec![0u8; size];
                rng.fill(&mut payload);
                self.payloads.push(payload);
            }
        }
        let pool = PAYLOADS_PER_SIZE * PUT_SIZES.len();
        // Put k is owned by node k % 2: half the puts and deletes forward
        // to the remote owner, in the same pattern for every seed.
        self.objects = (0..LIVE_WINDOW + ops)
            .map(|k| Object {
                id: id_homed(ring, &format!("pc/{:x}/{k}", self.seed), k % NODES),
                home: k % NODES,
                payload: rng.below(pool),
            })
            .collect();
    }

    fn gen_shuffle(&mut self, rng: &mut Rng, ring: &Ring, rounds: usize) {
        let records = PARTITION_BYTES / RECORD_BYTES;
        for _ in 0..PARTITION_POOL {
            let mut part = Vec::with_capacity(PARTITION_BYTES);
            for _ in 0..records {
                let key = rng.next_u64() % 4096;
                let value = rng.next_u64() >> 24;
                part.extend_from_slice(&key.to_le_bytes());
                part.extend_from_slice(&value.to_le_bytes());
            }
            self.folds.push(fold(&part));
            self.payloads.push(part);
        }
        // Partition (p, c) of round r is owned by node p ^ c ^ (r & 1): each
        // round has two local and two forwarded puts, and each consumer
        // gathers one local and one remote partition.
        self.rounds = (0..rounds)
            .map(|r| {
                let homes = [[0, 1], [1, 0]].map(|row| row.map(|h: usize| h ^ (r & 1)));
                let id = |p: usize, c: usize| {
                    id_homed(ring, &format!("sh/{:x}/{r}/{p}{c}", self.seed), homes[p][c])
                };
                let ids = [[id(0, 0), id(0, 1)], [id(1, 0), id(1, 1)]];
                let payload =
                    [[0; NODES]; NODES].map(|row| row.map(|_: usize| rng.below(PARTITION_POOL)));
                Round {
                    ids,
                    homes,
                    payload,
                }
            })
            .collect();
    }

    fn compute_digest(&self) -> u64 {
        let mut d = Digest::new();
        d.bytes(self.workload.name().as_bytes());
        for p in &self.payloads {
            d.u64(p.len() as u64);
            d.bytes(&p[..p.len().min(64)]);
        }
        for o in &self.objects {
            d.bytes(o.id.as_bytes());
            d.u64(o.home as u64);
            d.u64(o.payload as u64);
        }
        for &r in &self.reads {
            d.u64(u64::from(r));
        }
        for round in &self.rounds {
            for p in 0..NODES {
                for c in 0..NODES {
                    d.bytes(round.ids[p][c].as_bytes());
                    d.u64(round.payload[p][c] as u64);
                }
            }
        }
        d.finish()
    }

    /// Live user bytes the store holds once the catalog is preloaded.
    pub fn catalog_objects(&self) -> usize {
        match self.workload {
            Workload::ReadSkewed => CATALOG_OBJECTS,
            Workload::PutChurn => LIVE_WINDOW,
            Workload::Shuffle => 0,
        }
    }
}

/// The consumer-side fold: per-slot wrapping sums of record values keyed
/// by `key % FOLD_SLOTS`. A fixed array, so its cost is a tight loop.
pub fn fold(bytes: &[u8]) -> [u64; FOLD_SLOTS] {
    let mut out = [0u64; FOLD_SLOTS];
    fold_into(bytes, &mut out);
    out
}

pub fn fold_into(bytes: &[u8], out: &mut [u64; FOLD_SLOTS]) {
    for rec in bytes.chunks_exact(RECORD_BYTES) {
        let key = u64::from_le_bytes(rec[0..8].try_into().expect("8 bytes"));
        let value = u64::from_le_bytes(rec[8..16].try_into().expect("8 bytes"));
        let slot = &mut out[(key % FOLD_SLOTS as u64) as usize];
        *slot = slot.wrapping_add(value);
    }
}
