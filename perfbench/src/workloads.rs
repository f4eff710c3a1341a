//! The four workloads: their parameters, generated inputs, and the served
//! system each one stands up.
//!
//! Every input — data, the pool of reads, each connection's op sequence,
//! the writer's stream — is generated from the seed before any clock
//! starts; the program receives only these generated ops.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use pc_btree::BTree;
use pc_intervaltree::ExternalIntervalTree;
use pc_pagestore::backend::FileBackend;
use pc_pagestore::{Interval, PageStore, Point, StoreConfig, WalConfig};
use pc_pst::{DynamicPst, DynamicThreeSidedPst, ThreeSidedPst, TwoLevelPst};
use pc_rng::Rng;
use pc_serve::{
    BTreeTarget, DynamicPstTarget, DynamicThreeSidedTarget, FrontendConfig, FrontendHandle,
    IntervalTreeTarget, Op, PstTarget, Registry, Router, RouterConfig, RouterFrontend, Server,
    ServerConfig, ServerHandle, Service, ShardMap, ThreeSidedTarget, UpdateOp,
};
use pc_workloads::{
    gen_intervals, gen_points, gen_range_1d, gen_stabbing, gen_temporal, gen_three_sided,
    gen_two_sided, IntervalDist, PointDist, TemporalOp, ZipfSampler, DOMAIN,
};

use crate::check::{Fp, IntervalSet, KeySet, PointSet};

/// Page size of every store.
pub const PAGE: usize = 4096;
/// Bytes of one stored record: a point or interval is three 8-byte words,
/// a B-tree entry two.
pub const POINT_BYTES: usize = 24;
pub const ENTRY_BYTES: usize = 16;
/// Query-queue bound of every server. Raised from the default 64 so that a
/// scheduler stall on a small shared host delays open-loop requests
/// instead of shedding them; shedding still shows as `server.overloaded`.
const QUEUE_DEPTH: usize = 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StaticHot,
    StaticCold,
    MixedDurable,
    ClusterScatter,
}

/// Fixed parameters of a workload.
pub struct Params {
    pub name: &'static str,
    pub why: &'static str,
    /// Records per structure (cluster: over all shards).
    pub n: usize,
    /// Open-loop offered rate over all connections, ops/s: about a tenth
    /// of the closed-loop throughput on two hardware threads, so the
    /// backlog stays bounded even when the hypervisor steals a third of
    /// the CPU for a while (seen on the host the rates were picked on).
    pub rate: f64,
    /// Share of ops that are writes.
    pub write_share: f64,
    /// Buffer-pool pages per store (0: strict store, no pool).
    pub pool_pages: usize,
    /// When written pages reach storage.
    pub flush: &'static str,
    pub shards: usize,
    /// Set-ups per timed run (the median is reported); more where one
    /// set-up is short and its time noisy.
    pub setups: usize,
}

pub const ALL: [Workload; 4] = [
    Workload::StaticHot,
    Workload::StaticCold,
    Workload::MixedDurable,
    Workload::ClusterScatter,
];

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.params().name == name)
    }

    pub fn params(self) -> Params {
        match self {
            Workload::StaticHot => Params {
                name: "static_hot",
                why: "read-only, four static paper structures in a pool that holds every page, \
                      skewed small queries: wire, admission and navigation CPU dominate",
                n: 40_000,
                rate: 3_000.0,
                write_share: 0.0,
                pool_pages: 1 << 16,
                flush: "none (read-only, in-memory backend)",
                shards: 1,
                setups: 15,
            },
            Workload::StaticCold => Params {
                name: "static_cold",
                why: "read-only 2- and 3-sided queries, uniform, four of t 64 to one of t 1024, over \
                      a file-backed store whose pool holds a few percent of the pages",
                n: 200_000,
                rate: 1_200.0,
                write_share: 0.0,
                pool_pages: 1_024,
                flush: "none (read-only, file-backed)",
                shards: 1,
                setups: 5,
            },
            Workload::MixedDurable => Params {
                name: "mixed_durable",
                why: "reads on the dynamic 2- and 3-sided PSTs beside one paced sliding-window \
                      writer on a WAL store: batcher, epoch install, GC and fsync",
                n: 20_000,
                rate: 1_500.0,
                write_share: 0.01,
                pool_pages: 0,
                flush: "WAL group commit with fsync per batch; checkpoint every 1 MiB of log",
                shards: 1,
                setups: 15,
            },
            Workload::ClusterScatter => Params {
                name: "cluster_scatter",
                why: "router over three in-process shards: multi-shard 2-sided reads, narrow \
                      3-sided reads and a few journaled inserts",
                n: 60_000,
                rate: 600.0,
                write_share: 0.05,
                pool_pages: 1 << 15,
                flush: "none (in-memory backend, one replica per shard)",
                shards: 3,
                setups: 15,
            },
        }
    }
}

/// One read in the pool, with its reference answer when the data is static.
#[derive(Debug, Clone)]
pub struct ReadOp {
    pub target: u16,
    pub op: Op,
    pub expect: Option<Fp>,
}

/// Everything generated from the seed.
pub struct Inputs {
    pub workload: Workload,
    pub points: Vec<Point>,
    pub intervals: Vec<Interval>,
    pub entries: Vec<(i64, u64)>,
    /// The distinct reads.
    pub reads: Vec<ReadOp>,
    /// Per connection, the reads it sends, as indices into `reads`
    /// (cycled when a phase outlasts them).
    pub reads_seq: Vec<Vec<u32>>,
    /// The single writer's stream, in order (sent on connection 0).
    pub writes: Vec<(u16, UpdateOp)>,
    /// Reference point set of each point target (index = target id).
    pub point_refs: Vec<PointSet>,
}

/// Reads generated per connection; phases cycle through them.
const READS_PER_CONN: usize = 200_000;

fn to_points(raw: &[(i64, i64, u64)]) -> Vec<Point> {
    raw.iter().map(|&(x, y, id)| Point { x, y, id }).collect()
}

pub fn generate(workload: Workload, seed: u64, conns: usize) -> Inputs {
    let p = workload.params();
    let mut rng = Rng::seed_from_u64(seed ^ 0xBE9C_4A11);
    let points = to_points(&gen_points(p.n, PointDist::Uniform, seed));
    let mut intervals = Vec::new();
    let mut entries = Vec::new();
    let mut reads: Vec<ReadOp> = Vec::new();
    let mut writes: Vec<(u16, UpdateOp)> = Vec::new();
    let point_ref = PointSet::new(&points);
    let two = |t: usize, count: usize, s: u64| -> Vec<Op> {
        let raw: Vec<(i64, i64, u64)> = points.iter().map(|p| (p.x, p.y, p.id)).collect();
        gen_two_sided(&raw, count, t, s)
            .into_iter()
            .map(|q| Op::TwoSided { x0: q.x0, y0: q.y0 })
            .collect()
    };
    let three = |t: usize, count: usize, s: u64| -> Vec<Op> {
        let raw: Vec<(i64, i64, u64)> = points.iter().map(|p| (p.x, p.y, p.id)).collect();
        gen_three_sided(&raw, count, t, s)
            .into_iter()
            .map(|q| Op::ThreeSided {
                x1: q.x1,
                x2: q.x2,
                y0: q.y0,
            })
            .collect()
    };
    let with_expect = |target: u16, ops: Vec<Op>, set: &PointSet| -> Vec<ReadOp> {
        ops.into_iter()
            .map(|op| ReadOp {
                target,
                expect: Some(set.answer(&op)),
                op,
            })
            .collect()
    };
    let mut point_refs = Vec::new();
    match workload {
        Workload::StaticHot => {
            // Targets: 0 two-level PST, 1 3-sided PST, 2 interval tree,
            // 3 B+-tree. Answers about one page (t ≈ 100).
            const T: usize = 100;
            const PER_KIND: usize = 2_048;
            let raw_iv = gen_intervals(
                p.n,
                IntervalDist::UniformLen {
                    max_len: 2 * T as i64 * DOMAIN / p.n as i64,
                },
                seed ^ 0x1A7E,
            );
            intervals = raw_iv
                .iter()
                .map(|&(lo, hi, id)| Interval { lo, hi, id })
                .collect();
            let mut keys: Vec<i64> = points.iter().map(|p| p.x * 4 + (p.id as i64 & 3)).collect();
            keys.sort_unstable();
            keys.dedup();
            entries = keys.iter().map(|&k| (k, k as u64 ^ 0x5555)).collect();
            reads.extend(with_expect(0, two(T, PER_KIND, seed ^ 1), &point_ref));
            reads.extend(with_expect(1, three(T, PER_KIND, seed ^ 2), &point_ref));
            let iv_ref = IntervalSet::new(&intervals);
            reads.extend(
                gen_stabbing(&raw_iv, PER_KIND, seed ^ 3)
                    .into_iter()
                    .map(|s| ReadOp {
                        target: 2,
                        op: Op::Stab { q: s.q },
                        expect: Some(iv_ref.answer(s.q)),
                    }),
            );
            let key_ref = KeySet::new(&entries);
            reads.extend(
                gen_range_1d(&keys, PER_KIND, T, seed ^ 4)
                    .into_iter()
                    .map(|r| ReadOp {
                        target: 3,
                        op: Op::Range1d { lo: r.lo, hi: r.hi },
                        expect: Some(key_ref.answer(r.lo, r.hi)),
                    }),
            );
            // The four structures take turns; within each, a Zipf rank
            // order over its queries, shuffled, sets which are hot. Skew
            // within a kind keeps the mix of kinds (and so the cost of a
            // run) the same for every seed.
            let order: Vec<Vec<u32>> = (0..4u32)
                .map(|k| {
                    let mut o: Vec<u32> =
                        (k * PER_KIND as u32..(k + 1) * PER_KIND as u32).collect();
                    shuffle(&mut o, &mut rng);
                    o
                })
                .collect();
            let zipf = ZipfSampler::new(PER_KIND, 0.8);
            let reads_seq = (0..conns)
                .map(|_| {
                    (0..READS_PER_CONN)
                        .map(|i| order[i % 4][zipf.sample(&mut rng)])
                        .collect()
                })
                .collect();
            return Inputs {
                workload,
                points,
                intervals,
                entries,
                reads,
                reads_seq,
                writes,
                point_refs,
            };
        }
        Workload::StaticCold => {
            // Four small answers (t ≈ 64) to each large one (t ≈ 1024).
            const SMALL: usize = 8_000;
            const LARGE: usize = 2_000;
            reads.extend(with_expect(0, two(64, SMALL, seed ^ 1), &point_ref));
            reads.extend(with_expect(0, two(1024, LARGE, seed ^ 2), &point_ref));
            reads.extend(with_expect(1, three(64, SMALL, seed ^ 3), &point_ref));
            reads.extend(with_expect(1, three(1024, LARGE, seed ^ 4), &point_ref));
        }
        Workload::MixedDurable => {
            const PER_KIND: usize = 4_096;
            // A run sends about 300 writes; past a window of 50 live
            // points each insert comes with an expiry.
            const WINDOW: usize = 50;
            const STEPS: usize = 40_000;
            reads.extend(two(64, PER_KIND, seed ^ 1).into_iter().map(|op| ReadOp {
                target: 0,
                op,
                expect: None,
            }));
            reads.extend(three(64, PER_KIND, seed ^ 3).into_iter().map(|op| ReadOp {
                target: 1,
                op,
                expect: None,
            }));
            // The writer streams into the versioned 2-sided PST only, with
            // fresh ids so no insert collides with the base data. Updates
            // to the 3-sided PST hold the lock its readers need while they
            // append to the WAL, so with them in the stream read p50 swung
            // with the host's I/O from run to run; they join the stream
            // once that target is versioned.
            writes = gen_temporal(STEPS, WINDOW, PointDist::Uniform, 10_000_000, seed ^ 5)
                .into_iter()
                .map(|op| match op {
                    TemporalOp::Insert((x, y, id)) => (0, UpdateOp::Insert(Point { x, y, id })),
                    TemporalOp::Expire((x, y, id)) => (0, UpdateOp::Delete(Point { x, y, id })),
                })
                .collect();
            point_refs = vec![PointSet::new(&points), PointSet::new(&points)];
        }
        Workload::ClusterScatter => {
            const PER_KIND: usize = 4_096;
            // 2-sided corners in the lower half of x, so each spans two or
            // three shards, with y0 set for about 128 results.
            for _ in 0..PER_KIND {
                let x0 = rng.gen_range(0..=DOMAIN / 2);
                let right = p.n as f64 * (1.0 - x0 as f64 / DOMAIN as f64);
                let y0 = (DOMAIN as f64 * (1.0 - 128.0 / right)) as i64;
                reads.push(ReadOp {
                    target: 0,
                    op: Op::TwoSided { x0, y0 },
                    expect: None,
                });
            }
            reads.extend(three(32, PER_KIND, seed ^ 3).into_iter().map(|op| ReadOp {
                target: 1,
                op,
                expect: None,
            }));
            writes = (0..60_000u64)
                .map(|i| {
                    let x = rng.gen_range(0..=DOMAIN);
                    let y = rng.gen_range(0..=DOMAIN);
                    (
                        0,
                        UpdateOp::Insert(Point {
                            x,
                            y,
                            id: 30_000_000 + i,
                        }),
                    )
                })
                .collect();
            point_refs = vec![PointSet::new(&points), PointSet::new(&points)];
        }
    }
    // Uniform picks from the pool.
    let reads_seq = (0..conns)
        .map(|_| {
            (0..READS_PER_CONN)
                .map(|_| rng.gen_range(0..reads.len()) as u32)
                .collect()
        })
        .collect();
    Inputs {
        workload,
        points,
        intervals,
        entries,
        reads,
        reads_seq,
        writes,
        point_refs,
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// A structure as built, before it is handed to a server (the traced
/// run keeps a second copy and calls it directly).
pub enum Structure {
    Pst2(TwoLevelPst),
    Pst3(ThreeSidedPst),
    Stab(ExternalIntervalTree),
    Range(BTree<i64, u64>),
    Dyn2(DynamicPst),
    Dyn3(DynamicThreeSidedPst),
}

/// One store and the structures built into it.
pub struct Node {
    pub store: Arc<PageStore>,
    pub targets: Vec<Structure>,
}

impl Node {
    pub fn into_service(self) -> Service {
        let mut registry = Registry::new();
        for (i, s) in self.targets.into_iter().enumerate() {
            let t: Box<dyn pc_serve::QueryTarget> = match s {
                Structure::Pst2(x) => Box::new(PstTarget(x)),
                Structure::Pst3(x) => Box::new(ThreeSidedTarget(x)),
                Structure::Stab(x) => Box::new(IntervalTreeTarget(x)),
                Structure::Range(x) => Box::new(BTreeTarget(x)),
                Structure::Dyn2(x) => Box::new(DynamicPstTarget::new(x)),
                Structure::Dyn3(x) => Box::new(DynamicThreeSidedTarget::new(x)),
            };
            registry.register(format!("t{i}"), t);
        }
        Service {
            store: self.store,
            registry,
        }
    }
}

fn err<E: std::fmt::Debug>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e:?}")
}

/// Opens the workload's store kind at `path` (file-backed kinds only).
fn open_store(workload: Workload, path: &Path) -> Result<PageStore, String> {
    let p = workload.params();
    Ok(match workload {
        Workload::StaticHot | Workload::ClusterScatter => {
            PageStore::in_memory_pooled(PAGE, p.pool_pages)
        }
        Workload::StaticCold => {
            let _ = std::fs::remove_file(path);
            let backend = FileBackend::open(path, PAGE + 8).map_err(err("open data file"))?;
            PageStore::new(StoreConfig::pooled(PAGE, p.pool_pages), Box::new(backend))
        }
        Workload::MixedDurable => {
            remove_durable(path);
            PageStore::file_durable(path, PAGE, WalConfig::default())
                .map_err(err("open durable store"))?
                .0
        }
    })
}

/// Removes a durable store's data file and log.
pub fn remove_durable(path: &Path) {
    let _ = std::fs::remove_file(path);
    let mut wal = path.as_os_str().to_os_string();
    wal.push(".wal");
    let _ = std::fs::remove_file(PathBuf::from(wal));
}

/// Builds the structures of one node (for the cluster: one shard, over
/// `points`) into a fresh store at `path`.
pub fn build_node(inputs: &Inputs, points: &[Point], path: &Path) -> Result<Node, String> {
    let store = open_store(inputs.workload, path)?;
    let targets = match inputs.workload {
        Workload::StaticHot => vec![
            Structure::Pst2(TwoLevelPst::build(&store, points).map_err(err("build 2-sided PST"))?),
            Structure::Pst3(
                ThreeSidedPst::build(&store, points).map_err(err("build 3-sided PST"))?,
            ),
            Structure::Stab(
                ExternalIntervalTree::build(&store, &inputs.intervals)
                    .map_err(err("build interval tree"))?,
            ),
            Structure::Range(
                BTree::bulk_build(&store, &inputs.entries).map_err(err("build B+-tree"))?,
            ),
        ],
        Workload::StaticCold => vec![
            Structure::Pst2(TwoLevelPst::build(&store, points).map_err(err("build 2-sided PST"))?),
            Structure::Pst3(
                ThreeSidedPst::build(&store, points).map_err(err("build 3-sided PST"))?,
            ),
        ],
        Workload::MixedDurable | Workload::ClusterScatter => vec![
            Structure::Dyn2(DynamicPst::build(&store, points).map_err(err("build dynamic PST"))?),
            Structure::Dyn3(
                DynamicThreeSidedPst::build(&store, points)
                    .map_err(err("build dynamic 3-sided PST"))?,
            ),
        ],
    };
    Ok(Node {
        store: Arc::new(store),
        targets,
    })
}

/// The cluster's shard map and per-shard data.
pub fn partition(inputs: &Inputs) -> (Vec<i64>, Vec<Vec<Point>>) {
    let shards = inputs.workload.params().shards;
    if shards == 1 {
        return (Vec::new(), vec![inputs.points.clone()]);
    }
    let xs: Vec<i64> = inputs.points.iter().map(|p| p.x).collect();
    let splits = ShardMap::quantile_splits(&xs, shards);
    let parts = ShardMap::new(splits.clone()).partition_points(&inputs.points);
    (splits, parts)
}

pub fn server_config() -> ServerConfig {
    ServerConfig {
        queue_depth: QUEUE_DEPTH,
        update_queue_depth: QUEUE_DEPTH,
        ..ServerConfig::default()
    }
}

/// The running system a workload's clients talk to.
pub struct Served {
    /// Where clients connect: the single server, or the router front-end.
    pub addr: SocketAddr,
    pub servers: Vec<ServerHandle>,
    pub frontend: Option<FrontendHandle>,
}

impl Served {
    /// Builds every structure into its store and spawns the servers (and
    /// the router), ready for the first request.
    pub fn start(inputs: &Inputs, dir: &Path) -> Result<Served, String> {
        std::fs::create_dir_all(dir).map_err(err("create data directory"))?;
        let (splits, parts) = partition(inputs);
        let mut servers = Vec::new();
        for (i, part) in parts.iter().enumerate() {
            let node = build_node(inputs, part, &dir.join(format!("shard{i}.pages")))?;
            servers.push(
                Server::spawn(node.into_service(), server_config()).map_err(err("spawn server"))?,
            );
        }
        let frontend = if inputs.workload == Workload::ClusterScatter {
            let groups: Vec<Vec<SocketAddr>> = servers.iter().map(|s| vec![s.addr()]).collect();
            let router = Router::connect(&groups, splits, RouterConfig::default())
                .map_err(err("connect router"))?;
            Some(
                RouterFrontend::spawn(Arc::new(router), FrontendConfig::default())
                    .map_err(err("spawn router"))?,
            )
        } else {
            None
        };
        let addr = frontend
            .as_ref()
            .map_or_else(|| servers[0].addr(), |f| f.addr());
        Ok(Served {
            addr,
            servers,
            frontend,
        })
    }

    /// Drains and joins every thread; admitted work is answered first.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        if let Some(f) = self.frontend.take() {
            f.router().detach();
            f.join();
        }
        for s in self.servers.drain(..) {
            s.shutdown();
            s.join();
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.stop_inner();
    }
}
