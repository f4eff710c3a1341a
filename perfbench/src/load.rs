//! Load generation: an open-loop phase at a fixed offered rate (latency)
//! and a closed-loop phase over the same op mix (throughput), with at
//! most one connection and one load thread per hardware thread.
//!
//! Open-loop requests are timed from the moment they were due, so a stall
//! charges its wait to every request scheduled behind it; how late the
//! generator itself ran is kept as lag. Writes ride on lane 0 only, paced at the
//! workload's write rate in both phases, so the write order is the send
//! order and a run does the same writes however fast the reads go. Every
//! answer is checked: static answers against their reference on arrival,
//! answers read beside the writer against a replay of the write log
//! afterwards.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pc_serve::{Body, Op, Response, UpdateOp};

use crate::check::{Fp, ReadRec, WriteRec};
use crate::conn::Conn;
use crate::workloads::Inputs;

/// Writer progress shared by the phases of one run.
pub struct Writer {
    /// Writes sent so far (bumped before each send).
    pub sent: AtomicUsize,
    /// Writes answered so far (bumped after each answer; answers to one
    /// connection's updates arrive in order).
    pub done: AtomicUsize,
    /// Outcome of every answered write, in order.
    pub log: Mutex<Vec<WriteRec>>,
}

impl Writer {
    pub fn new() -> Writer {
        Writer {
            sent: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Claims the next write of the stream, if any is left.
    pub fn claim(&self, inputs: &Inputs) -> Option<usize> {
        let w = self.sent.load(SeqCst);
        (w < inputs.writes.len()).then(|| {
            self.sent.store(w + 1, SeqCst);
            w
        })
    }

    /// Records a write's answer; returns whether it was acknowledged.
    pub fn answered(&self, inputs: &Inputs, widx: usize, body: &Body) -> bool {
        let acked = matches!(body, Body::Ack { .. });
        let (target, op) = inputs.writes[widx];
        let mut log = self.log.lock().expect("writer log lock poisoned");
        debug_assert_eq!(log.len(), widx, "write answers arrive in send order");
        log.push(WriteRec { target, op, acked });
        drop(log);
        self.done.fetch_add(1, SeqCst);
        acked
    }
}

pub fn wire_op(op: UpdateOp) -> Op {
    match op {
        UpdateOp::Insert(p) => Op::Insert(p),
        UpdateOp::Delete(p) => Op::Delete(p),
    }
}

/// What one phase observed.
#[derive(Default)]
pub struct PhaseOut {
    /// Answered reads: when each was due (open loop) or sent (closed
    /// loop), and its latency, in nanoseconds from the phase start.
    pub reads: Vec<(u64, u64)>,
    pub write_ns: Vec<u64>,
    /// Open loop: how late each send was.
    pub lag_ns: Vec<u64>,
    pub attempted: u64,
    /// Requests answered with an error (Overloaded, DeadlineExceeded,
    /// storage, ...).
    pub failed: u64,
    /// Wrong answers, with the first few described.
    pub wrong: u64,
    pub wrong_detail: Vec<String>,
    /// Reads answered beside the writer, checked after the run.
    pub pending_checks: Vec<ReadRec>,
    pub elapsed: Duration,
}

impl PhaseOut {
    pub fn merge(&mut self, o: PhaseOut) {
        self.reads.extend(o.reads);
        self.write_ns.extend(o.write_ns);
        self.lag_ns.extend(o.lag_ns);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wrong += o.wrong;
        self.wrong_detail.extend(o.wrong_detail.into_iter().take(4));
        self.pending_checks.extend(o.pending_checks);
        self.elapsed = self.elapsed.max(o.elapsed);
    }

    pub fn completed(&self) -> u64 {
        (self.reads.len() + self.write_ns.len()) as u64
    }

    /// Wrong-answer descriptions, with a count of the ones not kept.
    pub fn wrong_lines(&self) -> Vec<String> {
        let mut v = self.wrong_detail.clone();
        if self.wrong as usize > v.len() {
            v.push(format!(
                "{} more wrong answers",
                self.wrong as usize - v.len()
            ));
        }
        v
    }
}

#[derive(Clone, Copy)]
pub enum Loop {
    /// The connections together send `rate` ops/s for the duration.
    Open { rate: f64 },
    /// Each connection sends its next op when the previous one is answered.
    Closed,
}

/// What a request in flight was.
enum Sent {
    Read { idx: u32, a: usize },
    Write { widx: usize },
}

/// The next op a lane sends: an index into `Inputs::reads` or into
/// `Inputs::writes`.
pub enum Next {
    Read(usize),
    Write(usize),
}

/// One connection's view of the run.
pub struct Lane<'a> {
    /// The phase start, shared by all lanes.
    pub t0: Instant,
    inputs: &'a Inputs,
    writer: &'a Writer,
    pub conn: Conn,
    reads: &'a [u32],
    pub cursor: usize,
    /// Closed loop: writes per second this lane sends (lane 0 only).
    write_rate: f64,
    writes: usize,
    out: PhaseOut,
}

impl<'a> Lane<'a> {
    /// Connects lane `c`, starting at `cursor` in its read sequence; the
    /// phase started at `t0`.
    pub fn connect(
        addr: SocketAddr,
        t0: Instant,
        inputs: &'a Inputs,
        writer: &'a Writer,
        c: usize,
        cursor: usize,
    ) -> Result<Lane<'a>, String> {
        let p = inputs.workload.params();
        Ok(Lane {
            t0,
            inputs,
            writer,
            conn: Conn::connect(addr).map_err(|e| format!("connect: {e}"))?,
            reads: &inputs.reads_seq[c],
            cursor,
            write_rate: if c == 0 { p.rate * p.write_share } else { 0.0 },
            writes: 0,
            out: PhaseOut::default(),
        })
    }

    fn next_read(&mut self) -> usize {
        let idx = self.reads[self.cursor % self.reads.len()];
        self.cursor += 1;
        idx as usize
    }

    /// The closed loop's next op: a write when one is due at the lane's
    /// write rate, else the lane's next read.
    pub fn next_closed(&mut self) -> Next {
        if (secs_since(self.t0) * self.write_rate) as usize > self.writes {
            if let Some(w) = self.writer.claim(self.inputs) {
                self.writes += 1;
                return Next::Write(w);
            }
        }
        Next::Read(self.next_read())
    }

    fn send(&mut self, next: Next) -> std::io::Result<(u64, Sent)> {
        match next {
            Next::Write(widx) => {
                let (target, op) = self.inputs.writes[widx];
                let id = self.conn.send(target, wire_op(op))?;
                Ok((id, Sent::Write { widx }))
            }
            Next::Read(idx) => {
                let r = &self.inputs.reads[idx];
                let a = self.writer.done.load(SeqCst);
                let id = self.conn.send(r.target, r.op.clone())?;
                Ok((id, Sent::Read { idx: idx as u32, a }))
            }
        }
    }

    /// Accounts one answer to an op that was due (or sent) at `at`.
    fn settle(&mut self, resp: Response, sent: Sent, at: Instant) {
        let ns = at.elapsed().as_nanos() as u64;
        match sent {
            Sent::Write { widx } => {
                if self.writer.answered(self.inputs, widx, &resp.body) {
                    self.out.write_ns.push(ns);
                } else {
                    self.out.failed += 1;
                }
            }
            Sent::Read { idx, a } => {
                let r = &self.inputs.reads[idx as usize];
                if let Body::Error { .. } = resp.body {
                    self.out.failed += 1;
                    return;
                }
                let Some(fp) = Fp::of_body(&resp.body) else {
                    self.wrong(format!("{:?} answered with {:?}", r.op, resp.body));
                    return;
                };
                match r.expect {
                    Some(want) if want != fp => self.wrong(format!(
                        "wrong answer to {:?} on target {}: {} records, reference has {}",
                        r.op, r.target, fp.count, want.count
                    )),
                    Some(_) => {}
                    None => {
                        let b = self.writer.sent.load(SeqCst);
                        self.out.pending_checks.push(ReadRec {
                            target: r.target,
                            op: r.op.clone(),
                            fp,
                            a,
                            b,
                        });
                    }
                }
                self.out
                    .reads
                    .push((at.saturating_duration_since(self.t0).as_nanos() as u64, ns));
            }
        }
    }

    fn wrong(&mut self, detail: String) {
        self.out.wrong += 1;
        if self.out.wrong_detail.len() < 4 {
            self.out.wrong_detail.push(detail);
        }
    }

    /// Sends `next` and settles its answer before returning.
    fn round_trip(&mut self, next: Next) -> std::io::Result<()> {
        let start = Instant::now();
        let (id, sent) = self.send(next)?;
        self.out.attempted += 1;
        let resp = self
            .conn
            .recv(None)?
            .expect("a blocking receive returns a response or an error");
        if resp.id != id {
            return Err(std::io::Error::other(format!(
                "response {} for request {id}",
                resp.id
            )));
        }
        self.settle(resp, sent, start);
        Ok(())
    }

    /// Closed loop; lane 0 also sends the paced writes as they fall due.
    fn run_closed(&mut self, dur: Duration) -> std::io::Result<()> {
        while self.t0.elapsed() < dur {
            let next = self.next_closed();
            self.round_trip(next)?;
        }
        self.out.elapsed = self.t0.elapsed();
        Ok(())
    }

    /// Open loop: this lane's op `i` is due at `(i + lane / lanes) / rate`,
    /// so the lanes interleave evenly; every `1 / write_share`-th op is a
    /// write.
    fn run_open(
        &mut self,
        rate: f64,
        write_share: f64,
        dur: Duration,
        lane: usize,
        lanes: usize,
    ) -> std::io::Result<()> {
        let n = (rate * dur.as_secs_f64()).round() as usize;
        let t0 = self.t0;
        let due =
            |i: usize| t0 + Duration::from_secs_f64((i as f64 + lane as f64 / lanes as f64) / rate);
        let is_write =
            |i: usize| ((i + 1) as f64 * write_share).floor() > (i as f64 * write_share).floor();
        let mut inflight: HashMap<u64, (Instant, Sent)> = HashMap::new();
        let mut i = 0;
        while i < n || !inflight.is_empty() {
            let now = Instant::now();
            while i < n && due(i) <= now {
                let claimed = if is_write(i) {
                    self.writer.claim(self.inputs)
                } else {
                    None
                };
                let next = match claimed {
                    Some(w) => Next::Write(w),
                    None => Next::Read(self.next_read()),
                };
                let (id, sent) = self.send(next)?;
                self.out.attempted += 1;
                self.out
                    .lag_ns
                    .push(now.saturating_duration_since(due(i)).as_nanos() as u64);
                inflight.insert(id, (due(i), sent));
                i += 1;
            }
            let until = (i < n).then(|| due(i));
            if inflight.is_empty() {
                if let Some(u) = until {
                    std::thread::sleep(u.saturating_duration_since(Instant::now()));
                }
                continue;
            }
            if let Some(resp) = self.conn.recv(until)? {
                let Some((due_at, sent)) = inflight.remove(&resp.id) else {
                    return Err(std::io::Error::other(format!(
                        "response for unknown request {}",
                        resp.id
                    )));
                };
                self.settle(resp, sent, due_at);
            }
        }
        self.out.elapsed = t0.elapsed();
        Ok(())
    }
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs one phase against `addr` with one lane per entry of `cursors`,
/// which carries each lane's position in its read sequence across phases.
pub fn run_phase(
    addr: SocketAddr,
    inputs: &Inputs,
    writer: &Writer,
    how: Loop,
    dur: Duration,
    cursors: &mut [usize],
) -> Result<PhaseOut, String> {
    let write_share = inputs.workload.params().write_share;
    let lanes = cursors.len();
    let t0 = Instant::now();
    let results: Vec<Result<(PhaseOut, usize), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..lanes)
            .map(|c| {
                let start = cursors[c];
                s.spawn(move || -> Result<(PhaseOut, usize), String> {
                    let mut lane = Lane::connect(addr, t0, inputs, writer, c, start)?;
                    match how {
                        Loop::Open { rate } => {
                            let share = if c == 0 {
                                write_share * lanes as f64
                            } else {
                                0.0
                            };
                            lane.run_open(rate / lanes as f64, share, dur, c, lanes)
                        }
                        Loop::Closed => lane.run_closed(dur),
                    }
                    .map_err(|e| format!("connection {c}: {e}"))?;
                    Ok((lane.out, lane.cursor))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("load thread panicked".into()))
            })
            .collect()
    });
    let mut out = PhaseOut::default();
    for (c, r) in results.into_iter().enumerate() {
        let (o, cursor) = r?;
        cursors[c] = cursor;
        out.merge(o);
    }
    Ok(out)
}

/// Sends the next `count` reads of lane 0's sequence one at a time, and no
/// writes, checking each answer; `cursor` is lane 0's position.
pub fn run_reads(
    addr: SocketAddr,
    inputs: &Inputs,
    writer: &Writer,
    count: usize,
    cursor: &mut usize,
) -> Result<PhaseOut, String> {
    let mut lane = Lane::connect(addr, Instant::now(), inputs, writer, 0, *cursor)?;
    for _ in 0..count {
        let next = Next::Read(lane.next_read());
        lane.round_trip(next)
            .map_err(|e| format!("connection 0: {e}"))?;
    }
    lane.out.elapsed = lane.t0.elapsed();
    *cursor = lane.cursor;
    Ok(lane.out)
}
