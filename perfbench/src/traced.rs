//! The traced run (`--trace 1`): per-layer metrics, measured from outside.
//!
//! The served system is set up as in the timed run, next to a second,
//! harness-owned copy of each node's store and structures (the shadow).
//! After an untraced open-loop phase (the traced run's own end-to-end
//! numbers and the generator's lag) and an untraced one-connection
//! baseline, each request of the traced phase is
//!
//! * served over the socket, inside a root span with child spans for the
//!   client's request encoding, the round trip, and response decoding;
//! * then replayed through the public functions of each layer, in the
//!   server's order, against the shadow: request decoding, the snapshot
//!   pin, the structure's query or update (with `IoStats` and
//!   `QueryCounters` deltas as span counts), the epoch install, response
//!   encoding — and for the router, `Router::query` itself, each shard
//!   leg over a `Client`, and the merge.
//!
//! Only the client's stages (request encoding, response decoding) lie
//! inside the served interval; the server's are re-timed on the shadow
//! after the response arrived. `server.residual_us` is the served latency
//! less all of them: the socket round trip, admission and worker handoff,
//! plus whatever the served execution took beyond the shadow's. The run
//! checks that the replay fits inside the served latency on all but a
//! stated share of requests, and prints the share that did not. Spans stay
//! in memory and are written to `.perfbench-out/spans-<workload>.jsonl`
//! when the run ends (those of the first requests only).

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pc_pagestore::layout::BlockList;
use pc_pagestore::{IoStats, PageId, PageStore, Point, VersionConfig, VersionedStore};
use pc_pst::{ThreeSided, TwoSided};
use pc_rng::Rng;
use pc_serve::wire::{decode_request, decode_response, encode_response, request_frame};
use pc_serve::{canonicalize, encode_commit_meta, Body, Client, Op, Response, ShardMap, UpdateOp};

use crate::check::{Fp, ReadRec, WriteRec};
use crate::conn::Conn;
use crate::load::{run_phase, wire_op, Lane, Loop, Next, Writer};
use crate::quantile::Summary;
use crate::timed::{
    check_holdings, check_pending, count_pages, io_sum, live_pages, print_workload, recover,
    set_up, wal_stats, WARM,
};
use crate::workloads::{
    build_node, generate, partition, Inputs, Served, Structure, Workload, ENTRY_BYTES, PAGE,
};
use crate::{connections, secs, Args, Outcome};

/// Page reads a query's structure reported, split as §3 splits them.
#[derive(Default, Clone, Copy)]
struct Reads {
    nav: u64,
    cache: u64,
    node: u64,
}

/// One shadow node: a store like the served one, its epoch manager, and
/// the structures, called directly.
struct ShadowNode {
    store: Arc<PageStore>,
    versions: VersionedStore,
    targets: Vec<Structure>,
    seq: u64,
}

/// Timings of one replayed stage set.
#[derive(Default)]
struct Replayed {
    pin_ns: u64,
    search_ns: u64,
    apply_ns: u64,
    install_ns: u64,
    io: IoStats,
    reads: Option<Reads>,
    results: u64,
}

impl ShadowNode {
    fn new(inputs: &Inputs, points: &[Point], path: &Path) -> Result<ShadowNode, String> {
        if let Some(d) = path.parent() {
            std::fs::create_dir_all(d).map_err(|e| format!("create shadow directory: {e}"))?;
        }
        let node = build_node(inputs, points, path)?;
        let mut sn = ShadowNode {
            versions: VersionedStore::new(Arc::clone(&node.store), VersionConfig::default(), &[]),
            store: node.store,
            targets: node.targets,
            seq: 0,
        };
        // Start from a committed epoch, as the served batcher's first
        // install does.
        sn.apply(&[])?;
        Ok(sn)
    }

    fn meta(&self) -> Vec<u8> {
        let descs: Vec<Option<Vec<u8>>> = self
            .targets
            .iter()
            .map(|t| match t {
                Structure::Dyn2(p) => Some(p.descriptor().to_vec()),
                _ => None,
            })
            .collect();
        encode_commit_meta(self.seq, &descs)
    }

    /// Applies a batch of updates the way the served batcher does: the
    /// 3-sided PST directly, versioned targets inside one copy-on-write
    /// session, then one epoch install (the group commit on a durable
    /// store).
    fn apply(&mut self, ops: &[(u16, UpdateOp)]) -> Result<Replayed, String> {
        let mut r = Replayed::default();
        let store = Arc::clone(&self.store);
        let run = |s: &mut Structure, op: UpdateOp| -> Result<(), String> {
            match (s, op) {
                (Structure::Dyn2(p), UpdateOp::Insert(pt)) => p.insert(&store, pt),
                (Structure::Dyn2(p), UpdateOp::Delete(pt)) => p.delete(&store, pt),
                (Structure::Dyn3(p), UpdateOp::Insert(pt)) => p.insert(&store, pt),
                (Structure::Dyn3(p), UpdateOp::Delete(pt)) => p.delete(&store, pt),
                _ => return Err("update to a static target".to_string()),
            }
            .map_err(|e| format!("shadow apply: {e}"))
        };
        let (versioned, direct): (Vec<_>, Vec<_>) = ops
            .iter()
            .partition(|(t, _)| matches!(self.targets[*t as usize], Structure::Dyn2(_)));
        let t = Instant::now();
        for &(target, op) in direct {
            run(&mut self.targets[target as usize], op)?;
        }
        let session = self.versions.begin_apply();
        for &(target, op) in versioned {
            run(&mut self.targets[target as usize], op)?;
        }
        r.apply_ns = t.elapsed().as_nanos() as u64;
        self.seq += 1;
        let meta = self.meta();
        let t = Instant::now();
        session
            .install_as(self.seq, &meta)
            .map_err(|e| format!("shadow install: {e}"))?;
        r.install_ns = t.elapsed().as_nanos() as u64;
        Ok(r)
    }

    /// Answers one read: pin (for versioned targets), then the structure's
    /// own query call under the pinned epoch.
    fn query(&self, target: u16, op: &Op) -> Result<(Body, Replayed), String> {
        let mut r = Replayed::default();
        let structure = &self.targets[target as usize];
        let snap = matches!(structure, Structure::Dyn2(_)).then(|| {
            let t = Instant::now();
            let s = self.versions.snapshot();
            r.pin_ns = t.elapsed().as_nanos() as u64;
            s
        });
        let _guard = snap.as_ref().map(|s| s.enter());
        let store = &*self.store;
        let before = store.stats();
        let t = Instant::now();
        let e = |e: pc_pagestore::StoreError| format!("shadow query: {e}");
        macro_rules! counted {
            ($call:expr) => {{
                let (pts, c) = $call.map_err(e)?;
                (
                    Body::Points(pts),
                    Some(Reads {
                        nav: c.skeletal,
                        cache: c.cache_blocks,
                        node: c.node_blocks,
                    }),
                )
            }};
        }
        let (body, reads) = match (structure, op) {
            (Structure::Pst2(p), &Op::TwoSided { x0, y0 }) => {
                counted!(p.query_counted(store, TwoSided { x0, y0 }))
            }
            (Structure::Dyn2(p), &Op::TwoSided { x0, y0 }) => {
                counted!(p.query_counted(store, TwoSided { x0, y0 }))
            }
            (Structure::Pst3(p), &Op::ThreeSided { x1, x2, y0 }) => {
                counted!(p.query_counted(store, ThreeSided { x1, x2, y0 }))
            }
            (Structure::Dyn3(p), &Op::ThreeSided { x1, x2, y0 }) => (
                Body::Points(p.query(store, ThreeSided { x1, x2, y0 }).map_err(e)?),
                None,
            ),
            (Structure::Stab(t), &Op::Stab { q }) => {
                (Body::Intervals(t.stab(store, q).map_err(e)?), None)
            }
            (Structure::Range(t), &Op::Range1d { lo, hi }) => {
                (Body::Keys(t.range(store, &lo, &hi).map_err(e)?), None)
            }
            _ => return Err(format!("target {target} cannot answer {}", op.name())),
        };
        r.search_ns = t.elapsed().as_nanos() as u64;
        r.io = store.stats() - before;
        r.reads = reads;
        r.results = Fp::of_body(&body).map_or(0, |f| f.count);
        Ok((body, r))
    }
}

/// One span, kept in memory until the run ends.
struct Span {
    request: u64,
    name: &'static str,
    depth: u8,
    start_ns: u64,
    dur_ns: u64,
    /// Backend reads and pool hits inside the span (search spans).
    reads: u64,
    hits: u64,
}

/// Traced requests whose spans are written out; every span stays in
/// memory and counts toward the per-layer metrics.
const WRITTEN_REQUESTS: u64 = 2_000;

struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn push(
        &mut self,
        request: u64,
        name: &'static str,
        depth: u8,
        start: Instant,
        dur_ns: u64,
        io: IoStats,
    ) {
        self.spans.push(Span {
            request,
            name,
            depth,
            start_ns: start.duration_since(self.t0).as_nanos() as u64,
            dur_ns,
            reads: io.reads,
            hits: io.cache_hits,
        });
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(d) = path.parent() {
            std::fs::create_dir_all(d)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        // The first requests are enough to read a trace by; all of them
        // would be tens of megabytes per run.
        for s in self.spans.iter().filter(|s| s.request <= WRITTEN_REQUESTS) {
            writeln!(
                f,
                "{{\"request\":{},\"span\":\"{}\",\"depth\":{},\"start_ns\":{},\"dur_ns\":{},\"reads\":{},\"hits\":{}}}",
                s.request, s.name, s.depth, s.start_ns, s.dur_ns, s.reads, s.hits
            )?;
        }
        f.flush()
    }
}

/// Per-layer sums over the traced phase.
#[derive(Default)]
struct Totals {
    requests: u64,
    reads: u64,
    writes: u64,
    served_ns: Vec<u64>,
    encode_req: u64,
    decode_req: u64,
    encode_resp: u64,
    decode_resp: u64,
    resp_bytes: u64,
    residual: i128,
    negative_residual: u64,
    pin: u64,
    pinned: u64,
    search: u64,
    apply: u64,
    install: u64,
    counted: u64,
    nav: u64,
    cache: u64,
    node: u64,
    wasteful: u64,
    results: u64,
    router_query: u64,
    slowest_leg: u64,
    merge: u64,
    fanout: u64,
    routed: u64,
}

fn ns<T>(f: impl FnOnce() -> T) -> (T, u64, Instant) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed().as_nanos() as u64, start)
}

struct Harness<'a> {
    inputs: &'a Inputs,
    shadow: Vec<ShadowNode>,
    map: Option<ShardMap>,
    router: Option<Arc<pc_serve::Router>>,
    legs: Vec<Client>,
    tracer: Tracer,
    totals: Totals,
    wrong: Vec<String>,
}

impl Harness<'_> {
    fn node_of(&self, p: &Point) -> usize {
        self.map.as_ref().map_or(0, |m| m.shard_of(p.x))
    }

    /// Brings each shadow node up to the writes the served system acked,
    /// in one batch per node.
    fn catch_up(&mut self, log: &[WriteRec]) -> Result<(), String> {
        let mut per_node: Vec<Vec<(u16, UpdateOp)>> = vec![Vec::new(); self.shadow.len()];
        for w in log.iter().filter(|w| w.acked) {
            let (UpdateOp::Insert(p) | UpdateOp::Delete(p)) = w.op;
            per_node[self.node_of(&p)].push((w.target, w.op));
        }
        for (node, ops) in self.shadow.iter_mut().zip(per_node) {
            node.apply(&ops)?;
        }
        Ok(())
    }

    /// Serves one request over `conn` and replays it through the layers.
    fn traced_request(
        &mut self,
        conn: &mut Conn,
        next: Next,
        writer: &Writer,
    ) -> Result<(), String> {
        let (target, op, write) = match next {
            Next::Write(w) => {
                let (t, u) = self.inputs.writes[w];
                (t, wire_op(u), Some((w, u)))
            }
            Next::Read(i) => (
                self.inputs.reads[i].target,
                self.inputs.reads[i].op.clone(),
                None,
            ),
        };
        let req = conn.request(target, op);
        let id = req.id;
        let root = Instant::now();
        let (frame, enc_req, enc_start) = ns(|| request_frame(&req));
        let (payload, rtt, rtt_start) = ns(|| -> Result<Vec<u8>, String> {
            conn.send_frame(&frame).map_err(|e| format!("send: {e}"))?;
            conn.recv_payload(None)
                .map_err(|e| format!("recv: {e}"))?
                .ok_or_else(|| "no response".to_string())
        });
        let payload = payload?;
        let (resp, dec_resp, dec_start) = ns(|| decode_response(&payload));
        let served_ns = root.elapsed().as_nanos() as u64;
        let resp = resp.map_err(|e| format!("decode response: {e}"))?;
        if resp.id != id {
            return Err(format!("response {} for request {id}", resp.id));
        }
        let none = IoStats::default();
        self.tracer.push(id, "request", 0, root, served_ns, none);
        self.tracer
            .push(id, "wire.encode_req", 1, enc_start, enc_req, none);
        self.tracer.push(id, "server", 1, rtt_start, rtt, none);
        self.tracer
            .push(id, "wire.decode_resp", 1, dec_start, dec_resp, none);

        // Replay through the layers, in the server's order.
        let replay = Instant::now();
        let (decoded, dec_req, dec_req_start) = ns(|| decode_request(&frame[4..]));
        let decoded = decoded.map_err(|e| format!("decode request: {e}"))?;
        self.tracer
            .push(id, "wire.decode_req", 1, dec_req_start, dec_req, none);
        let mut stages = enc_req + dec_resp + dec_req;
        let t = &mut self.totals;
        t.requests += 1;
        t.encode_req += enc_req;
        t.decode_resp += dec_resp;
        t.decode_req += dec_req;
        t.resp_bytes += payload.len() as u64;
        t.served_ns.push(served_ns);

        let body = match (write, &decoded.op) {
            (Some((widx, uop)), _) => {
                if !writer.answered(self.inputs, widx, &resp.body) {
                    return Err(format!("write {id} failed: {:?}", resp.body));
                }
                let (UpdateOp::Insert(p) | UpdateOp::Delete(p)) = uop;
                let n = self.node_of(&p);
                let start = Instant::now();
                let r = self.shadow[n].apply(&[(target, uop)])?;
                self.tracer
                    .push(id, "search.apply", 1, start, r.apply_ns, none);
                self.tracer.push(
                    id,
                    "version.install",
                    1,
                    start + Duration::from_nanos(r.apply_ns),
                    r.install_ns,
                    none,
                );
                let t = &mut self.totals;
                t.writes += 1;
                t.apply += r.apply_ns;
                t.install += r.install_ns;
                stages += r.apply_ns + r.install_ns;
                resp.body.clone()
            }
            (None, read) => {
                let nodes: Vec<usize> = match &self.map {
                    Some(m) => m.route(read).map_or_else(Vec::new, |r| r.collect()),
                    None => vec![0],
                };
                if let Some(router) = self.router.clone() {
                    let (_, q_ns, q_start) = ns(|| router.query(target, 0, read));
                    self.tracer.push(id, "router.query", 1, q_start, q_ns, none);
                    let mut legs = Vec::new();
                    let mut slowest = 0;
                    for &s in &nodes {
                        let (leg, leg_ns, leg_start) =
                            ns(|| self.legs[s].call(target, 0, read.clone()));
                        self.tracer
                            .push(id, "router.leg", 2, leg_start, leg_ns, none);
                        slowest = slowest.max(leg_ns);
                        legs.push(leg.map_err(|e| format!("leg to shard {s}: {e}"))?.body);
                    }
                    let all: Vec<Point> = legs
                        .into_iter()
                        .flat_map(|b| match b {
                            Body::Points(v) => v,
                            _ => Vec::new(),
                        })
                        .collect();
                    let (_, merge_ns, merge_start) = ns(|| canonicalize(Body::Points(all)));
                    self.tracer
                        .push(id, "router.merge", 1, merge_start, merge_ns, none);
                    let t = &mut self.totals;
                    t.routed += 1;
                    t.router_query += q_ns;
                    t.slowest_leg += slowest;
                    t.merge += merge_ns;
                    t.fanout += nodes.len() as u64;
                    stages += merge_ns;
                }
                let mut merged: Vec<Point> = Vec::new();
                let mut single = None;
                for &s in &nodes {
                    let start = Instant::now();
                    let (body, r) = self.shadow[s].query(target, read)?;
                    if r.pin_ns > 0 {
                        self.tracer
                            .push(id, "version.pin", 1, start, r.pin_ns, none);
                    }
                    self.tracer.push(
                        id,
                        "search.query",
                        1,
                        start + Duration::from_nanos(r.pin_ns),
                        r.search_ns,
                        r.io,
                    );
                    let t = &mut self.totals;
                    t.pin += r.pin_ns;
                    t.pinned += u64::from(r.pin_ns > 0);
                    t.search += r.search_ns;
                    t.results += r.results;
                    let logical = IoStats {
                        reads: r.io.reads + r.io.cache_hits,
                        ..IoStats::default()
                    };
                    t.wasteful += logical.wasteful(r.results, block_capacity(&body));
                    if let Some(c) = r.reads {
                        t.counted += 1;
                        t.nav += c.nav;
                        t.cache += c.cache;
                        t.node += c.node;
                    }
                    stages += r.pin_ns + r.search_ns;
                    match body {
                        Body::Points(v) if self.map.is_some() => merged.extend(v),
                        other => single = Some(other),
                    }
                }
                self.totals.reads += 1;
                let body = single.unwrap_or(Body::Points(merged));
                // The served answer must match the shadow's, which holds
                // exactly the writes acked so far.
                let (got, want) = (Fp::of_body(&resp.body), Fp::of_body(&body));
                if got.is_none() || got != want {
                    self.wrong.push(format!(
                        "traced {:?} on target {target}: served {:?}, direct call {:?}",
                        read,
                        got.map(|f| f.count),
                        want.map(|f| f.count)
                    ));
                }
                body
            }
        };
        let out = Response { id, body };
        let (bytes, enc_resp, enc_resp_start) = ns(|| encode_response(&out));
        std::hint::black_box(bytes);
        self.tracer
            .push(id, "wire.encode_resp", 1, enc_resp_start, enc_resp, none);
        self.tracer.push(
            id,
            "replay",
            0,
            replay,
            replay.elapsed().as_nanos() as u64,
            none,
        );
        stages += enc_resp;
        self.totals.encode_resp += enc_resp;
        // Reconciliation: the client's own stages were timed inside the
        // served interval, the server's were replayed on the shadow after
        // it. The replay must fit in what the round trip left over; a
        // request where it does not is counted, and the run checks their
        // share against `MAX_NEGATIVE_SHARE`.
        let residual = served_ns as i128 - stages as i128;
        self.totals.residual += residual;
        self.totals.negative_residual += u64::from(residual < 0);
        Ok(())
    }
}

/// Largest share of traced requests whose replayed server stages may take
/// longer than their served latency left after the client's own stages.
/// Above it the replay does not stand for the served path and the traced
/// run fails.
const MAX_NEGATIVE_SHARE: f64 = 0.1;

/// Records per block for the §3 wasteful count of a result kind.
fn block_capacity(body: &Body) -> u64 {
    (match body {
        // A B+-tree leaf holds two-word entries.
        Body::Keys(_) => PAGE / ENTRY_BYTES,
        Body::Intervals(_) => BlockList::<pc_pagestore::Interval>::capacity(PAGE),
        _ => BlockList::<Point>::capacity(PAGE),
    }) as u64
}

/// Times `PageStore::read` on sampled pages of the shadow stores,
/// classified by whether the read reached the backend.
fn time_page_reads(shadow: &[ShadowNode], seed: u64) -> (Option<f64>, Option<f64>) {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5709E);
    let (mut hit, mut miss) = (Vec::new(), Vec::new());
    for node in shadow {
        let pages: Vec<PageId> = node.store.allocated_pages();
        if pages.is_empty() {
            continue;
        }
        for _ in 0..2_000 / shadow.len() {
            let id = pages[rng.gen_range(0..pages.len())];
            for _ in 0..2 {
                let before = node.store.stats();
                let t = Instant::now();
                if node.store.read(id).is_err() {
                    break;
                }
                let took = t.elapsed().as_nanos() as u64;
                if node.store.stats().reads > before.reads {
                    miss.push(took)
                } else {
                    hit.push(took)
                }
            }
        }
    }
    let mean = |v: &[u64]| (!v.is_empty()).then(|| v.iter().sum::<u64>() as f64 / v.len() as f64);
    (mean(&hit), mean(&miss))
}

struct ServerCounters {
    batches: u64,
    batched: u64,
    overloaded: u64,
    group_commits: u64,
    installed: u64,
    reclaimed: u64,
}

fn server_counters(served: &Served) -> ServerCounters {
    let mut c = ServerCounters {
        batches: 0,
        batched: 0,
        overloaded: 0,
        group_commits: 0,
        installed: 0,
        reclaimed: 0,
    };
    for s in &served.servers {
        let st = s.stats();
        c.batches += st.batches.load(Relaxed);
        c.batched += st.batched_updates.load(Relaxed);
        c.overloaded += st.overloaded.load(Relaxed);
        c.group_commits += st.group_commits.load(Relaxed);
        let m = s.versions().metrics();
        c.installed += m.installed;
        c.reclaimed += m.reclaimed_pages;
    }
    c
}

fn router_pair(router: &pc_serve::Router, prefix: &str) -> u64 {
    router
        .stat_pairs()
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, v)| v)
        .sum()
}

pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let p = args.workload.params();
    let inputs = generate(args.workload, args.seed, connections());
    print_workload(args, &inputs);
    let (served, _, served_dir) = set_up(&inputs, dir, 1)?;
    let (splits, parts) = partition(&inputs);
    let shadow = parts
        .iter()
        .enumerate()
        .map(|(i, part)| {
            ShadowNode::new(
                &inputs,
                part,
                &dir.join("shadow").join(format!("shard{i}.pages")),
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let router = served.frontend.as_ref().map(|f| Arc::clone(f.router()));
    let legs = if router.is_some() {
        served
            .servers
            .iter()
            .map(|s| {
                Client::connect(s.addr(), Duration::from_secs(5))
                    .map_err(|e| format!("leg connect: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?
    } else {
        Vec::new()
    };
    let mut h = Harness {
        inputs: &inputs,
        shadow,
        map: router.is_some().then(|| ShardMap::new(splits)),
        router,
        legs,
        tracer: Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        },
        totals: Totals::default(),
        wrong: Vec::new(),
    };
    let writer = Writer::new();
    let mut cursors = vec![0usize; inputs.reads_seq.len()];
    let warm = run_phase(
        served.addr,
        &inputs,
        &writer,
        Loop::Closed,
        WARM,
        &mut cursors,
    )?;
    println!(
        "warm-up: {:.2}s closed loop, {} ops",
        secs(warm.elapsed),
        warm.completed()
    );

    let io0 = io_sum(&served);
    let wal0 = wal_stats(&served);
    let srv0 = server_counters(&served);
    let open_dur = Duration::from_secs_f64(args.seconds * 0.3);
    let base_dur = Duration::from_secs_f64(args.seconds * 0.2);
    let traced_dur = Duration::from_secs_f64(args.seconds * 0.5);
    let open = run_phase(
        served.addr,
        &inputs,
        &writer,
        Loop::Open { rate: p.rate },
        open_dur,
        &mut cursors,
    )?;

    let mut pending: Vec<ReadRec> = Vec::new();
    let mut wrong: Vec<String> = Vec::new();
    for ph in [&warm, &open] {
        wrong.extend(ph.wrong_lines());
        pending.extend(ph.pending_checks.iter().cloned());
    }
    // The untraced baseline: the traced phase's request path on one
    // connection, minus spans and replay.
    let base = run_phase(
        served.addr,
        &inputs,
        &writer,
        Loop::Closed,
        base_dur,
        &mut cursors[..1],
    )?;
    wrong.extend(base.wrong_lines());
    pending.extend(base.pending_checks.iter().cloned());
    let log_so_far = writer.log.lock().expect("writer log").clone();
    h.catch_up(&log_so_far)?;

    let mut lane = Lane::connect(served.addr, Instant::now(), &inputs, &writer, 0, cursors[0])?;
    while lane.t0.elapsed() < traced_dur {
        let next = lane.next_closed();
        h.traced_request(&mut lane.conn, next, &writer)?;
    }
    let traced_elapsed = lane.t0.elapsed();
    cursors[0] = lane.cursor;
    drop(lane);
    let io1 = io_sum(&served);
    let wal1 = wal_stats(&served);
    let srv1 = server_counters(&served);
    let (counted, counted_io) = count_pages(&served, &inputs, &writer, &mut cursors[0])?;
    wrong.extend(counted.wrong_lines());
    pending.extend(counted.pending_checks.iter().cloned());
    let (hit_ns, miss_ns) = time_page_reads(&h.shadow, args.seed);

    let log = writer.log.lock().expect("writer log").clone();
    check_pending(&inputs, &log, &mut pending, &mut wrong);
    if !inputs.writes.is_empty() {
        let mut c = Conn::connect(served.addr).map_err(|e| format!("connect: {e}"))?;
        check_holdings(&inputs, &mut c, &log, &mut wrong)?;
    }
    wrong.append(&mut h.wrong);
    let queue_wait_p99_us = served
        .servers
        .iter()
        .map(|s| s.stats().queue_wait_ns.snapshot().quantile(0.99) as f64 / 1e3)
        .fold(0.0, f64::max);
    let retained = served
        .servers
        .iter()
        .map(|s| s.versions().metrics().retained)
        .max()
        .unwrap_or(0);
    let pages = live_pages(&served);
    let (retries, journal_len) = h.router.as_ref().map_or((0, 0), |r| {
        (
            router_pair(r, "pc_shard_retries_total{"),
            router_pair(r, "pc_shard_journal_len{"),
        )
    });
    drop(h.legs.drain(..).collect::<Vec<_>>());
    served.stop();
    let replayed = if args.workload == Workload::MixedDurable {
        recover(&inputs, &served_dir.join("shard0.pages"), &log, &mut wrong)?.1
    } else {
        0
    };

    let spans_path = PathBuf::from(".perfbench-out").join(format!("spans-{}.jsonl", p.name));
    h.tracer
        .write(&spans_path)
        .map_err(|e| format!("write spans: {e}"))?;

    let t = &h.totals;
    let reqs = t.requests.max(1) as f64;
    let reads = t.reads.max(1) as f64;
    let writes = t.writes.max(1) as f64;
    let div = |a: u64, b: f64| a as f64 / b;
    let io = io1 - io0;
    let answered = counted.reads.len() as f64;
    let updates = (srv1.batched - srv0.batched) as f64;
    let (wal_d, wal_max) = match (wal0, wal1) {
        (Some(a), Some(b)) => (
            [
                b.commits - a.commits,
                b.fsyncs - a.fsyncs,
                b.checkpoints - a.checkpoints,
                b.appends - a.appends,
            ],
            b.max_group,
        ),
        _ => ([0; 4], 0),
    };
    let mut served_ns = t.served_ns.clone();
    let traced = Summary::of(&mut served_ns);
    let base_ns: Vec<u64> = base
        .reads
        .iter()
        .map(|r| r.1)
        .chain(base.write_ns.iter().copied())
        .collect();
    let mut base_sorted = base_ns.clone();
    let untraced = Summary::of(&mut base_sorted);
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    let overhead = mean(&t.served_ns) / mean(&base_ns);
    let negative_share = t.negative_residual as f64 / reqs;
    let mut lag = open.lag_ns.clone();
    let lag = Summary::of(&mut lag);
    let mut open_reads: Vec<u64> = open.reads.iter().map(|r| r.1).collect();
    let open_read = Summary::of(&mut open_reads);
    let us = |v: Option<u64>| v.map_or(0.0, |x| x as f64 / 1e3);
    let routed = t.routed.max(1) as f64;

    println!(
        "traced: {} requests in {:.2}s ({} reads, {} writes); served mean {:.1} us traced vs {:.1} us untraced \
         (overhead ratio {overhead:.3}); p50 {:.1} vs {:.1} us",
        t.requests,
        secs(traced_elapsed),
        t.reads,
        t.writes,
        mean(&t.served_ns) / 1e3,
        mean(&base_ns) / 1e3,
        us(traced.p50_ns),
        us(untraced.p50_ns),
    );
    println!(
        "reconciliation: server.residual_us {:.1} us; the replayed server stages outran the served \
         latency on {} of {} requests ({:.2}%, limit {:.0}%)",
        t.residual as f64 / reqs / 1e3,
        t.negative_residual,
        t.requests,
        100.0 * negative_share,
        100.0 * MAX_NEGATIVE_SHARE
    );
    println!(
        "spans: {} kept, those of the first {WRITTEN_REQUESTS} requests written to {}",
        h.tracer.spans.len(),
        spans_path.display()
    );

    let metrics: Vec<(&'static str, f64, &'static str)> = vec![
        ("wire.encode_req_ns", div(t.encode_req, reqs), "ns"),
        ("wire.decode_req_ns", div(t.decode_req, reqs), "ns"),
        ("wire.encode_resp_ns", div(t.encode_resp, reqs), "ns"),
        ("wire.decode_resp_ns", div(t.decode_resp, reqs), "ns"),
        ("wire.resp_bytes", div(t.resp_bytes, reqs), "bytes"),
        ("server.residual_us", t.residual as f64 / reqs / 1e3, "us"),
        ("server.queue_wait_p99_us", queue_wait_p99_us, "us"),
        (
            "server.batch_size_mean",
            if srv1.batches > srv0.batches {
                updates / (srv1.batches - srv0.batches) as f64
            } else {
                0.0
            },
            "count",
        ),
        (
            "server.overloaded",
            (srv1.overloaded - srv0.overloaded) as f64,
            "count",
        ),
        (
            "server.group_commits",
            (srv1.group_commits - srv0.group_commits) as f64,
            "count",
        ),
        ("version.pin_ns", div(t.pin, t.pinned.max(1) as f64), "ns"),
        ("version.install_us", div(t.install, writes) / 1e3, "us"),
        (
            "version.installed",
            (srv1.installed - srv0.installed) as f64,
            "count",
        ),
        ("version.retained", retained as f64, "count"),
        (
            "version.reclaimed_pages",
            (srv1.reclaimed - srv0.reclaimed) as f64,
            "pages",
        ),
        ("search.query_us", div(t.search, reads) / 1e3, "us"),
        (
            "search.nav_reads",
            div(t.nav, t.counted.max(1) as f64),
            "pages",
        ),
        (
            "search.cache_reads",
            div(t.cache, t.counted.max(1) as f64),
            "pages",
        ),
        (
            "search.node_reads",
            div(t.node, t.counted.max(1) as f64),
            "pages",
        ),
        ("search.wasteful_reads", div(t.wasteful, reads), "pages"),
        ("search.results", div(t.results, reads), "count"),
        ("search.apply_us", div(t.apply, writes) / 1e3, "us"),
        ("store.hit_read_ns", hit_ns.unwrap_or(0.0), "ns"),
        ("store.miss_read_ns", miss_ns.unwrap_or(0.0), "ns"),
        ("store.hit_ratio", counted_io.hit_ratio(), "ratio"),
        (
            "store.backend_reads_per_query",
            counted_io.reads as f64 / answered.max(1.0),
            "pages",
        ),
        (
            "store.evictions_per_query",
            counted_io.pool_evictions as f64 / answered.max(1.0),
            "pages",
        ),
        (
            "store.writes_per_update",
            if updates > 0.0 {
                io.writes as f64 / updates
            } else {
                0.0
            },
            "pages",
        ),
        ("store.live_pages", pages as f64, "pages"),
        ("wal.commits", wal_d[0] as f64, "count"),
        (
            "wal.fsyncs_per_update",
            if updates > 0.0 {
                wal_d[1] as f64 / updates
            } else {
                0.0
            },
            "count",
        ),
        ("wal.max_group", wal_max as f64, "count"),
        ("wal.checkpoints", wal_d[2] as f64, "count"),
        (
            "wal.appends_per_update",
            if updates > 0.0 {
                wal_d[3] as f64 / updates
            } else {
                0.0
            },
            "count",
        ),
        ("wal.replayed", replayed as f64, "count"),
        ("router.query_us", div(t.router_query, routed) / 1e3, "us"),
        (
            "router.slowest_leg_us",
            div(t.slowest_leg, routed) / 1e3,
            "us",
        ),
        ("router.merge_ns", div(t.merge, routed), "ns"),
        ("router.fanout", div(t.fanout, routed), "count"),
        ("router.retries", retries as f64, "count"),
        ("router.journal_len", journal_len as f64, "count"),
        ("loadgen.lag_p99_us", us(lag.p99_ns), "us"),
        (
            "loadgen.offered_ops_s",
            open.attempted as f64 / secs(open.elapsed),
            "ops/s",
        ),
        ("trace.overhead_ratio", overhead, "ratio"),
        ("trace.read_p50_us", us(open_read.p50_ns), "us"),
        ("trace.read_p99_us", us(open_read.p99_ns), "us"),
        ("trace.requests", t.requests as f64, "count"),
    ];
    for (name, value, unit) in &metrics {
        println!("{name} {value:.3} {unit}");
    }
    if negative_share > MAX_NEGATIVE_SHARE {
        return Err(format!(
            "reconciliation failed: on {:.2}% of traced requests the replayed server stages \
             took longer than the served latency left for them",
            100.0 * negative_share
        ));
    }
    Ok(Outcome {
        attempted: warm.attempted
            + open.attempted
            + base.attempted
            + t.requests
            + counted.attempted,
        failed: warm.failed + open.failed + base.failed + counted.failed,
        wrong,
        metrics,
    })
}
