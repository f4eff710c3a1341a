//! The timed run (`--trace 0`): end-to-end metrics with tracing off.
//!
//! Set-up is repeated and its median reported, so work moved into set-up
//! shows. A closed-loop warm-up then fills the pool (and, with a writer,
//! installs the first epochs) before the open-loop latency phase and the
//! closed-loop throughput phase split the measured time. The closed loop
//! runs as bursts of about a second, each on fresh connections and load
//! threads, and its figures are taken over the bursts. A page-count pass
//! of reads alone follows.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pc_pagestore::{IoStats, PageStore, WalConfig, WalStats};
use pc_serve::{decode_commit_meta, DynamicPstTarget, Op, Registry, Server, Service};

use crate::check::{check_final, check_reads, Fp, PointSet, ReadRec, Replay, WriteRec};
use crate::conn::Conn;
use crate::load::{run_phase, run_reads, Loop, PhaseOut, Writer};
use crate::quantile::{lower_quartile, median, window_medians, Summary};
use crate::workloads::{
    generate, server_config, Inputs, Served, Workload, ENTRY_BYTES, PAGE, POINT_BYTES,
};
use crate::{connections, hardware_threads, secs, Args, Outcome};

/// Open-loop reads per latency window: the run's p50 and p99 are the
/// medians over consecutive windows of about this many reads (4 to 16
/// windows), each window's percentiles exact.
const READS_PER_WINDOW: usize = 1_500;
/// Share of the measured time the open-loop phase gets; the closed loop
/// runs the rest as bursts of about a second. Its throughput is the median
/// over the bursts, its CPU per op their lower quartile: the neighbours on
/// a shared host only ever add to a burst's cost, for seconds at a time,
/// so the cheaper bursts show the program's own.
const OPEN_SHARE: f64 = 0.3;
/// Closed-loop warm-up before any timed phase.
pub const WARM: Duration = Duration::from_millis(1000);
/// Reads in the page-count pass.
const COUNTED_READS: usize = 2_000;
/// Clock ticks per second of the CPU times in `/proc/self/stat`
/// (`USER_HZ`, 100 on every Linux architecture this runs on).
const TICKS_PER_S: f64 = 100.0;

/// Sum of the I/O counters of every server's store.
pub fn io_sum(served: &Served) -> IoStats {
    served.servers.iter().fold(IoStats::default(), |acc, s| {
        let io = s.io_stats();
        IoStats {
            reads: acc.reads + io.reads,
            writes: acc.writes + io.writes,
            cache_hits: acc.cache_hits + io.cache_hits,
            pool_evictions: acc.pool_evictions + io.pool_evictions,
            ..IoStats::default()
        }
    })
}

/// WAL counters of the (single) durable store, if any.
pub fn wal_stats(served: &Served) -> Option<WalStats> {
    served.servers.first().and_then(|s| s.store().wal_stats())
}

pub fn live_pages(served: &Served) -> u64 {
    served.servers.iter().map(|s| s.store().live_pages()).sum()
}

pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time, user plus system, the whole process has used so far, in
/// seconds. The kernel charges a tick the hypervisor stole to steal time,
/// not to the process, so this does not grow while the host runs other
/// guests.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, from field 3 (state)
    // on; utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
    Some(ticks as f64 / TICKS_PER_S)
}

/// Host CPU time stolen by the hypervisor and total CPU time, in ticks
/// (the `cpu` line of `/proc/stat`), to tell a quiet run from a noisy one.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// The whole domain as a query of `target`'s kind.
/// The point targets of the writing workloads are 0 (2-sided) and
/// 1 (3-sided).
pub fn everything(target: u16) -> Op {
    match target {
        0 => Op::TwoSided {
            x0: i64::MIN,
            y0: i64::MIN,
        },
        _ => Op::ThreeSided {
            x1: i64::MIN,
            x2: i64::MAX,
            y0: i64::MIN,
        },
    }
}

/// Bytes of the live records, the denominator of space amplification.
pub fn record_bytes(inputs: &Inputs, log: &[WriteRec]) -> u64 {
    let pts = inputs.points.len() * POINT_BYTES;
    (match inputs.workload {
        Workload::StaticHot => {
            2 * pts + inputs.intervals.len() * POINT_BYTES + inputs.entries.len() * ENTRY_BYTES
        }
        Workload::StaticCold => 2 * pts,
        Workload::MixedDurable | Workload::ClusterScatter => (0..inputs.point_refs.len())
            .map(|t| replay(&inputs.point_refs[t], t as u16, log).live() * POINT_BYTES)
            .sum(),
    }) as u64
}

fn replay<'a>(base: &'a PointSet, target: u16, log: &[WriteRec]) -> Replay<'a> {
    let mut r = Replay::new(base);
    for w in log.iter().filter(|w| w.acked && w.target == target) {
        r.apply(w.op);
    }
    r
}

/// Prints the buffer pool's size against the pages the set-up just built
/// on the largest node: whether the data fits in the cache.
fn print_cache(served: &Served, pool_pages: usize) {
    let built = served
        .servers
        .iter()
        .map(|s| s.store().live_pages())
        .max()
        .unwrap_or(0);
    if pool_pages == 0 {
        println!(
            "cache: none, a durable store reads every page from its backend or the WAL's dirty \
             table; {built} structure pages"
        );
    } else {
        println!(
            "cache: {} ({pool_pages} pool pages against {built} structure pages on the largest node, {:.1}%)",
            if built as usize <= pool_pages { "fits" } else { "exceeds" },
            100.0 * pool_pages as f64 / built.max(1) as f64
        );
    }
}

/// Starts the served system `times` times, keeping the last; returns it
/// with the median set-up time.
pub fn set_up(
    inputs: &Inputs,
    dir: &Path,
    times: usize,
) -> Result<(Served, f64, std::path::PathBuf), String> {
    let mut took = Vec::new();
    for k in 0..times {
        let d = dir.join(format!("setup{k}"));
        let t = Instant::now();
        let served = Served::start(inputs, &d)?;
        took.push(secs(t.elapsed()));
        if k + 1 == times {
            print_cache(&served, inputs.workload.params().pool_pages);
            return Ok((served, median(&mut took), d));
        }
        served.stop();
        let _ = std::fs::remove_dir_all(&d);
    }
    unreachable!("at least one set-up")
}

/// Asks each point target for everything it holds and checks it against
/// the replay of the acked writes.
pub fn check_holdings(
    inputs: &Inputs,
    conn: &mut Conn,
    log: &[WriteRec],
    wrong: &mut Vec<String>,
) -> Result<(), String> {
    for t in 0..inputs.point_refs.len() as u16 {
        let op = everything(t);
        let resp = conn
            .call(t, op.clone())
            .map_err(|e| format!("final read: {e}"))?;
        let fp = Fp::of_body(&resp.body).ok_or(format!("final read answered {:?}", resp.body))?;
        if let Err(e) = check_final(&inputs.point_refs[t as usize], t, log, &op, fp) {
            wrong.push(e);
        }
    }
    Ok(())
}

pub fn check_pending(
    inputs: &Inputs,
    log: &[WriteRec],
    pending: &mut [ReadRec],
    wrong: &mut Vec<String>,
) {
    if pending.is_empty() {
        return;
    }
    let bases: Vec<&PointSet> = inputs.point_refs.iter().collect();
    if let Err(e) = check_reads(&bases, log, pending) {
        wrong.push(e);
    }
}

/// The page-count pass: after the timed phases, with every write
/// answered, one connection sends lane 0's next reads one at a time, so
/// the stores' I/O counters move for the read path alone. Returns the
/// pass, its answers checked as in the timed phases, and the server-side
/// I/O it caused, every store summed.
pub fn count_pages(
    served: &Served,
    inputs: &Inputs,
    writer: &Writer,
    cursor: &mut usize,
) -> Result<(PhaseOut, IoStats), String> {
    let io0 = io_sum(served);
    let pass = run_reads(served.addr, inputs, writer, COUNTED_READS, cursor)?;
    Ok((pass, io_sum(served) - io0))
}

/// Reopens the durable store after the server stopped, serves it again
/// with the recovered 2-sided PST, and answers the first query. Returns
/// the time that took and the records the log replayed; checks the
/// recovered state against the replay of the acked writes.
pub fn recover(
    inputs: &Inputs,
    path: &Path,
    log: &[WriteRec],
    wrong: &mut Vec<String>,
) -> Result<(f64, u64), String> {
    let t = Instant::now();
    let (store, report) = PageStore::file_durable(path, PAGE, WalConfig::default())
        .map_err(|e| format!("reopen: {e}"))?;
    let meta = report
        .last_commit_meta
        .clone()
        .ok_or("reopened store has no committed epoch")?;
    let (_, descriptors) = decode_commit_meta(&meta).ok_or("undecodable commit metadata")?;
    let desc = descriptors
        .first()
        .cloned()
        .flatten()
        .ok_or("no descriptor for the 2-sided PST")?;
    // The 3-sided dynamic PST has no reopen descriptor; only the 2-sided
    // target is served after recovery (its acked writes were checked live).
    let mut registry = Registry::new();
    registry.register(
        "t0",
        Box::new(DynamicPstTarget::open(&store, &desc).map_err(|e| format!("reopen PST: {e}"))?),
    );
    let server = Server::spawn(
        Service {
            store: Arc::new(store),
            registry,
        },
        server_config(),
    )
    .map_err(|e| format!("respawn: {e}"))?;
    let first = inputs
        .reads
        .iter()
        .find(|r| r.target == 0)
        .expect("a 2-sided read")
        .op
        .clone();
    let mut conn =
        Conn::connect(server.addr()).map_err(|e| format!("connect after recovery: {e}"))?;
    let resp = conn
        .call(0, first.clone())
        .map_err(|e| format!("first read after recovery: {e}"))?;
    let recover_s = secs(t.elapsed());
    let fp = Fp::of_body(&resp.body).ok_or(format!(
        "first read after recovery answered {:?}",
        resp.body
    ))?;
    let n = log.len();
    let mut pending = vec![ReadRec {
        target: 0,
        op: first,
        fp,
        a: n,
        b: n,
    }];
    for r in inputs.reads.iter().filter(|r| r.target == 0).take(200) {
        let resp = conn
            .call(0, r.op.clone())
            .map_err(|e| format!("read after recovery: {e}"))?;
        let fp = Fp::of_body(&resp.body)
            .ok_or(format!("read after recovery answered {:?}", resp.body))?;
        pending.push(ReadRec {
            target: 0,
            op: r.op.clone(),
            fp,
            a: n,
            b: n,
        });
    }
    let only_2sided = &inputs.point_refs[..1];
    let bases: Vec<&PointSet> = only_2sided.iter().collect();
    if let Err(e) = check_reads(&bases, log, &mut pending) {
        wrong.push(format!("after recovery: {e}"));
    }
    let op = everything(0);
    let resp = conn
        .call(0, op.clone())
        .map_err(|e| format!("full read after recovery: {e}"))?;
    match Fp::of_body(&resp.body) {
        Some(fp) => {
            if let Err(e) = check_final(&inputs.point_refs[0], 0, log, &op, fp) {
                wrong.push(format!("after recovery: {e}"));
            }
        }
        None => wrong.push(format!("full read after recovery answered {:?}", resp.body)),
    }
    drop(conn);
    server.shutdown();
    server.join();
    Ok((recover_s, report.replayed_records()))
}

/// Nanoseconds as microseconds, or why there is no value.
fn na(ns: Option<u64>) -> String {
    ns.map_or("n/a (too few samples)".to_string(), |v| {
        format!("{:.1}", v as f64 / 1e3)
    })
}

pub fn print_workload(args: &Args, inputs: &Inputs) {
    let p = args.workload.params();
    println!(
        "workload {} seed {} n {} page_size {} shards {} connections {} hardware_threads {} \
         offered_rate {} ops/s write_share {} pool_pages {} flush: {}",
        p.name,
        args.seed,
        p.n,
        PAGE,
        p.shards,
        inputs.reads_seq.len(),
        hardware_threads(),
        p.rate,
        p.write_share,
        p.pool_pages,
        p.flush
    );
}

pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let p = args.workload.params();
    let inputs = generate(args.workload, args.seed, connections());
    print_workload(args, &inputs);
    let (served, setup_s, served_dir) = set_up(&inputs, dir, p.setups)?;
    let writer = Writer::new();
    let mut cursors = vec![0usize; inputs.reads_seq.len()];
    // The gated figures come from the closed loop, so it gets most of the
    // time; the open loop's latencies are printed only.
    let open_dur = Duration::from_secs_f64(args.seconds * OPEN_SHARE);
    let bursts = ((args.seconds * (1.0 - OPEN_SHARE)).round() as usize).max(3);
    let burst_dur = Duration::from_secs_f64(args.seconds * (1.0 - OPEN_SHARE) / bursts as f64);

    let warm = run_phase(
        served.addr,
        &inputs,
        &writer,
        Loop::Closed,
        WARM,
        &mut cursors,
    )?;
    println!(
        "warm-up: {:.2}s closed loop, {} ops, {} writes acked before timing",
        secs(warm.elapsed),
        warm.completed(),
        writer
            .log
            .lock()
            .expect("writer log")
            .iter()
            .filter(|w| w.acked)
            .count()
    );
    let io0 = io_sum(&served);
    let wal0 = wal_stats(&served);
    let ticks0 = cpu_ticks();
    let open = run_phase(
        served.addr,
        &inputs,
        &writer,
        Loop::Open { rate: p.rate },
        open_dur,
        &mut cursors,
    )?;
    let mut closed = PhaseOut::default();
    let (mut rates, mut cpu) = (Vec::new(), Vec::new());
    for _ in 0..bursts {
        let cpu0 = process_cpu_s().ok_or("no CPU times in /proc/self/stat")?;
        let burst = run_phase(
            served.addr,
            &inputs,
            &writer,
            Loop::Closed,
            burst_dur,
            &mut cursors,
        )?;
        let cpu1 = process_cpu_s().ok_or("no CPU times in /proc/self/stat")?;
        let ops = burst.completed().max(1) as f64;
        rates.push(ops / secs(burst.elapsed));
        cpu.push((cpu1 - cpu0) * 1e6 / ops);
        closed.merge(burst);
    }
    let io1 = io_sum(&served);
    let wal1 = wal_stats(&served);
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks0, cpu_ticks()) {
        println!(
            "host: hypervisor steal {:.2}% of CPU time during the timed phases",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        );
    }
    let (counted, counted_io) = count_pages(&served, &inputs, &writer, &mut cursors[0])?;

    let log = writer.log.lock().expect("writer log").clone();
    let mut wrong: Vec<String> = Vec::new();
    let mut pending: Vec<ReadRec> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for ph in [&warm, &open, &closed, &counted] {
        wrong.extend(ph.wrong_lines());
        pending.extend(ph.pending_checks.iter().cloned());
        attempted += ph.attempted;
        failed += ph.failed;
    }
    let checked_live = pending.len();
    check_pending(&inputs, &log, &mut pending, &mut wrong);
    if !inputs.writes.is_empty() {
        let mut conn = Conn::connect(served.addr).map_err(|e| format!("connect: {e}"))?;
        check_holdings(&inputs, &mut conn, &log, &mut wrong)?;
    }
    let pages = live_pages(&served);
    let space_amp = (pages * PAGE as u64) as f64 / record_bytes(&inputs, &log) as f64;
    served.stop();

    let recovered = if args.workload == Workload::MixedDurable {
        Some(recover(
            &inputs,
            &served_dir.join("shard0.pages"),
            &log,
            &mut wrong,
        )?)
    } else {
        None
    };

    let windows = (open.reads.len() / READS_PER_WINDOW).clamp(4, 16);
    let per_window = open.reads.len() / windows;
    let read_us = |pct: f64| {
        window_medians(&open.reads, windows, &[pct])
            .map_or("n/a (too few samples)".to_string(), |(v, _)| {
                format!("{:.1}", v[0] / 1e3)
            })
    };
    let cpu_in_order: Vec<String> = cpu.iter().map(|c| format!("{c:.1}")).collect();
    let throughput = median(&mut rates);
    let cpu_per_op = lower_quartile(&mut cpu);
    let counted_reads = counted.reads.len().max(1) as f64;
    let pages_per_query = (counted_io.reads + counted_io.cache_hits) as f64 / counted_reads;
    let rss = peak_rss_mib();

    // Every end-to-end metric is printed; the JSON line carries the ones
    // that repeat from run to run (see spec.json).
    println!("setup_s {setup_s:.4} s (median of {})", p.setups);
    let n = open.reads.len();
    println!(
        "read_p50_us {} us (median of {windows} windows of {per_window} exact samples, n={n}, \
         open loop at {} ops/s)",
        read_us(50.0),
        p.rate
    );
    println!(
        "read_p90_us {} us, read_p95_us {} us (same windows)",
        read_us(90.0),
        read_us(95.0)
    );
    println!(
        "read_p99_us {} us (median of {windows} windows of {per_window} exact samples, n={n})",
        read_us(99.0)
    );
    print_writes(&open, &closed, &log, io1 - io0, wal0, wal1);
    println!(
        "throughput_ops_s {throughput:.1} ops/s (median of {bursts} closed-loop bursts, {} connections, {} ops)",
        inputs.reads_seq.len(),
        closed.completed()
    );
    println!(
        "cpu_us_per_op {cpu_per_op:.2} us (process CPU per op, servers and load generator \
         together, lower quartile of the same bursts: {})",
        cpu_in_order.join(" ")
    );
    println!(
        "error_ratio {:.6} fraction ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "pages_read_per_query {pages_per_query:.3} pages (backend {:.3}, pool hits {:.3}; \
         {} reads with no write in flight)",
        counted_io.reads as f64 / counted_reads,
        counted_io.cache_hits as f64 / counted_reads,
        counted.reads.len()
    );
    println!("space_amp {space_amp:.4} ratio ({pages} live pages)");
    println!("peak_rss_mib {rss:.1} MiB");
    if let Some((recover_s, replayed)) = recovered {
        println!("recover_s {recover_s:.4} s ({replayed} WAL records replayed)");
    }
    let mut lag = open.lag_ns.clone();
    let lag = Summary::of(&mut lag);
    println!(
        "loadgen: offered {:.1} ops/s achieved, lag p99 {} us; {checked_live} reads beside the writer checked",
        open.attempted as f64 / secs(open.elapsed),
        na(lag.p99_ns)
    );

    Ok(Outcome {
        attempted,
        failed,
        wrong,
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("pages_read_per_query", pages_per_query, "pages"),
            ("space_amp", space_amp, "ratio"),
        ],
    })
}

/// Write-side end-to-end metrics, on the workloads that write.
fn print_writes(
    open: &PhaseOut,
    closed: &PhaseOut,
    log: &[WriteRec],
    io: IoStats,
    wal0: Option<WalStats>,
    wal1: Option<WalStats>,
) {
    if log.is_empty() {
        return;
    }
    let mut w = open.write_ns.clone();
    let s = Summary::of(&mut w);
    println!("write_p50_us {} us (n={})", na(s.p50_ns), s.count);
    println!("write_p99_us {} us (n={})", na(s.p99_ns), s.count);
    let acked = (open.write_ns.len() + closed.write_ns.len()).max(1) as f64;
    let wal_appends = match (wal0, wal1) {
        (Some(a), Some(b)) => b.appends - a.appends,
        _ => 0,
    };
    let written = (io.writes + wal_appends) as f64 * PAGE as f64;
    println!(
        "write_amp {:.2} ratio ({} page writes + {wal_appends} WAL records at one page each, per {} acked bytes)",
        written / (acked * POINT_BYTES as f64),
        io.writes,
        acked as u64 * POINT_BYTES as u64
    );
}
