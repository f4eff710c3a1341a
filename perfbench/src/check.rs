//! Answer checking against references built from the generated inputs.
//!
//! An answer is reduced to an order-independent fingerprint (count plus a
//! wrapping sum of per-record hashes), so the server's and the router's
//! result orders need not match the reference's and a reference can be
//! adjusted by one record at a time. Static answers are compared with a
//! brute-force scan of the input. Answers read while a writer runs are
//! checked against a replay of the write log: every write acknowledged
//! before the read was sent must be visible, and each write still in
//! flight may or may not be (a scatter read can see one shard before a
//! write and another after it).

use std::collections::{HashMap, HashSet};

use pc_pagestore::{Interval, Point};
use pc_serve::{Body, Op, UpdateOp};

/// Order-independent digest of a result set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fp {
    pub count: u64,
    pub sum: u64,
}

impl Fp {
    fn add(&mut self, h: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(h);
    }

    /// Digest of a read answer; `None` for bodies that are not results.
    pub fn of_body(body: &Body) -> Option<Fp> {
        let mut fp = Fp::default();
        match body {
            Body::Points(v) => v.iter().for_each(|p| fp.add(point_hash(p))),
            Body::Intervals(v) => v.iter().for_each(|iv| fp.add(mix3(iv.lo, iv.hi, iv.id))),
            Body::Keys(v) => v.iter().for_each(|&(k, val)| fp.add(mix3(k, 0, val))),
            _ => return None,
        }
        Some(fp)
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix3(a: i64, b: i64, c: u64) -> u64 {
    splitmix(a as u64 ^ splitmix(b as u64 ^ splitmix(c)))
}

pub fn point_hash(p: &Point) -> u64 {
    mix3(p.x, p.y, p.id)
}

/// True when `p` lies in the region of the 2- or 3-sided query `op`.
pub fn contains(op: &Op, p: &Point) -> bool {
    match *op {
        Op::TwoSided { x0, y0 } => p.x >= x0 && p.y >= y0,
        Op::ThreeSided { x1, x2, y0 } => x1 <= p.x && p.x <= x2 && p.y >= y0,
        _ => false,
    }
}

/// A static point set, sorted by x for 2-/3-sided scans.
pub struct PointSet {
    by_x: Vec<Point>,
}

impl PointSet {
    pub fn new(points: &[Point]) -> PointSet {
        let mut by_x = points.to_vec();
        by_x.sort_unstable_by_key(|p| (p.x, p.y, p.id));
        PointSet { by_x }
    }

    /// The points an x-bounded scan for `op` must look at.
    fn candidates(&self, op: &Op) -> &[Point] {
        let (lo, hi) = match *op {
            Op::TwoSided { x0, .. } => (x0, i64::MAX),
            Op::ThreeSided { x1, x2, .. } => (x1, x2),
            ref other => panic!("point set cannot answer {}", other.name()),
        };
        let start = self.by_x.partition_point(|p| p.x < lo);
        let end = self.by_x.partition_point(|p| p.x <= hi);
        &self.by_x[start..end.max(start)]
    }

    /// Reference answer to a 2- or 3-sided query.
    pub fn answer(&self, op: &Op) -> Fp {
        self.answer_without(op, &HashSet::new())
    }

    fn answer_without(&self, op: &Op, removed: &HashSet<u64>) -> Fp {
        let mut fp = Fp::default();
        for p in self.candidates(op) {
            if contains(op, p) && !removed.contains(&p.id) {
                fp.add(point_hash(p));
            }
        }
        fp
    }

    pub fn len(&self) -> usize {
        self.by_x.len()
    }
}

/// A static interval set for stabbing queries.
pub struct IntervalSet {
    by_lo: Vec<Interval>,
}

impl IntervalSet {
    pub fn new(intervals: &[Interval]) -> IntervalSet {
        let mut by_lo = intervals.to_vec();
        by_lo.sort_unstable_by_key(|iv| (iv.lo, iv.hi, iv.id));
        IntervalSet { by_lo }
    }

    pub fn answer(&self, q: i64) -> Fp {
        let end = self.by_lo.partition_point(|iv| iv.lo <= q);
        let mut fp = Fp::default();
        for iv in self.by_lo[..end].iter().filter(|iv| iv.hi >= q) {
            fp.add(mix3(iv.lo, iv.hi, iv.id));
        }
        fp
    }
}

/// A static key set for 1-d range queries.
pub struct KeySet {
    sorted: Vec<(i64, u64)>,
}

impl KeySet {
    pub fn new(entries: &[(i64, u64)]) -> KeySet {
        let mut sorted = entries.to_vec();
        sorted.sort_unstable();
        KeySet { sorted }
    }

    pub fn answer(&self, lo: i64, hi: i64) -> Fp {
        let start = self.sorted.partition_point(|e| e.0 < lo);
        let end = self.sorted.partition_point(|e| e.0 <= hi);
        let mut fp = Fp::default();
        for &(k, v) in &self.sorted[start..end.max(start)] {
            fp.add(mix3(k, 0, v));
        }
        fp
    }
}

/// One write sent by the single writer, in send order.
#[derive(Debug, Clone, Copy)]
pub struct WriteRec {
    pub target: u16,
    pub op: UpdateOp,
    /// Acknowledged (false: answered with an error, so never applied).
    pub acked: bool,
}

/// One read answered while the writer ran. `a` writes had been answered
/// when it was sent and at most `b` had been sent when its answer arrived.
#[derive(Debug, Clone)]
pub struct ReadRec {
    pub target: u16,
    pub op: Op,
    pub fp: Fp,
    pub a: usize,
    pub b: usize,
}

/// A dynamic target's reference state: a static base plus the replayed
/// writes.
pub struct Replay<'a> {
    base: &'a PointSet,
    added: HashMap<u64, Point>,
    removed: HashSet<u64>,
}

impl<'a> Replay<'a> {
    pub fn new(base: &'a PointSet) -> Replay<'a> {
        Replay {
            base,
            added: HashMap::new(),
            removed: HashSet::new(),
        }
    }

    pub fn apply(&mut self, op: UpdateOp) {
        match op {
            UpdateOp::Insert(p) => {
                self.removed.remove(&p.id);
                self.added.insert(p.id, p);
            }
            UpdateOp::Delete(p) => {
                if self.added.remove(&p.id).is_none() {
                    self.removed.insert(p.id);
                }
            }
        }
    }

    pub fn answer(&self, op: &Op) -> Fp {
        let mut fp = self.base.answer_without(op, &self.removed);
        for p in self.added.values().filter(|p| contains(op, p)) {
            fp.add(point_hash(p));
        }
        fp
    }

    pub fn live(&self) -> usize {
        self.base.len() - self.removed.len() + self.added.len()
    }
}

/// Replays `writes` and checks every read against it. `bases[t]` is target
/// `t`'s initial point set. Returns the number of reads checked, or the
/// first mismatch.
pub fn check_reads(
    bases: &[&PointSet],
    writes: &[WriteRec],
    reads: &mut [ReadRec],
) -> Result<usize, String> {
    let mut states: Vec<Replay> = bases.iter().map(|b| Replay::new(b)).collect();
    let mut applied = 0usize;
    reads.sort_by_key(|r| r.a);
    for r in reads.iter() {
        while applied < r.a.min(writes.len()) {
            let w = writes[applied];
            if let (true, Some(state)) = (w.acked, states.get_mut(w.target as usize)) {
                state.apply(w.op);
            }
            applied += 1;
        }
        let reference = states[r.target as usize].answer(&r.op);
        // Writes in flight while the read ran that fall in its region: the
        // answer may include any subset of them.
        let deltas: Vec<(bool, u64)> = writes[r.a.min(writes.len())..r.b.min(writes.len())]
            .iter()
            .filter(|w| w.acked && w.target == r.target)
            .filter_map(|w| match w.op {
                UpdateOp::Insert(p) if contains(&r.op, &p) => Some((true, point_hash(&p))),
                UpdateOp::Delete(p) if contains(&r.op, &p) => Some((false, point_hash(&p))),
                _ => None,
            })
            .collect();
        if !matches_some_subset(reference, &deltas, r.fp) {
            return Err(format!(
                "wrong answer to {:?} on target {}: got {} records, reference has {} \
                 ({} writes acked before it was sent, {} in flight touching its region)",
                r.op,
                r.target,
                r.fp.count,
                reference.count,
                r.a,
                deltas.len()
            ));
        }
    }
    Ok(reads.len())
}

fn matches_some_subset(reference: Fp, deltas: &[(bool, u64)], got: Fp) -> bool {
    // In practice at most one or two in-flight writes touch a read's
    // region; past 16 only in-order prefixes are tried.
    let apply = |mut fp: Fp, d: &(bool, u64)| {
        if d.0 {
            fp.count += 1;
            fp.sum = fp.sum.wrapping_add(d.1);
        } else {
            fp.count = fp.count.wrapping_sub(1);
            fp.sum = fp.sum.wrapping_sub(d.1);
        }
        fp
    };
    if deltas.len() <= 16 {
        (0u32..1 << deltas.len()).any(|mask| {
            deltas
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .fold(reference, |fp, (_, d)| apply(fp, d))
                == got
        })
    } else {
        let mut fp = reference;
        if fp == got {
            return true;
        }
        deltas.iter().any(|d| {
            fp = apply(fp, d);
            fp == got
        })
    }
}

/// Checks a target's answer to a whole-domain query after every write
/// was answered: each acknowledged write must be there, nothing else.
pub fn check_final(
    base: &PointSet,
    target: u16,
    writes: &[WriteRec],
    everything: &Op,
    got: Fp,
) -> Result<(), String> {
    let mut state = Replay::new(base);
    for w in writes.iter().filter(|w| w.acked && w.target == target) {
        state.apply(w.op);
    }
    let want = state.answer(everything);
    if want != got {
        return Err(format!(
            "target {target} holds {} records after replay of the acked writes, {} expected \
             (an acked write is missing or an unacked one applied)",
            got.count, want.count
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(x: i64, y: i64, id: u64) -> Point {
        Point { x, y, id }
    }

    fn grid() -> Vec<Point> {
        (0..400)
            .map(|i| pt(i % 20 * 50, i / 20 * 50, i as u64))
            .collect()
    }

    fn answer_of(points: &[Point], op: &Op) -> Body {
        Body::Points(points.iter().copied().filter(|p| contains(op, p)).collect())
    }

    #[test]
    fn a_corrupted_static_answer_is_caught() {
        let pts = grid();
        let set = PointSet::new(&pts);
        let op = Op::ThreeSided {
            x1: 100,
            x2: 600,
            y0: 300,
        };
        let good = answer_of(&pts, &op);
        assert_eq!(Fp::of_body(&good), Some(set.answer(&op)));
        let Body::Points(mut v) = good else {
            unreachable!()
        };
        v.reverse(); // order does not matter
        assert_eq!(Fp::of_body(&Body::Points(v.clone())), Some(set.answer(&op)));
        v[3].y += 1; // one record altered
        assert_ne!(Fp::of_body(&Body::Points(v.clone())), Some(set.answer(&op)));
        v.pop(); // one record dropped
        assert_ne!(Fp::of_body(&Body::Points(v)), Some(set.answer(&op)));
    }

    #[test]
    fn static_references_agree_with_brute_force() {
        let ivs: Vec<Interval> = (0..50)
            .map(|i| Interval {
                lo: i * 3,
                hi: i * 3 + 10,
                id: i as u64,
            })
            .collect();
        let set = IntervalSet::new(&ivs);
        let body = Body::Intervals(
            ivs.iter()
                .copied()
                .filter(|iv| iv.lo <= 20 && 20 <= iv.hi)
                .collect(),
        );
        assert_eq!(Fp::of_body(&body), Some(set.answer(20)));
        let keys: Vec<(i64, u64)> = (0..100).map(|k| (k * 2, k as u64)).collect();
        let ks = KeySet::new(&keys);
        let body = Body::Keys(
            keys.iter()
                .copied()
                .filter(|e| (10..=30).contains(&e.0))
                .collect(),
        );
        assert_eq!(Fp::of_body(&body), Some(ks.answer(10, 30)));
    }

    fn writes() -> Vec<WriteRec> {
        let ins = |x, y, id| WriteRec {
            target: 0,
            op: UpdateOp::Insert(pt(x, y, id)),
            acked: true,
        };
        vec![ins(700, 900, 1000), ins(800, 950, 1001), ins(10, 10, 1002)]
    }

    #[test]
    fn reads_during_writes_accept_in_flight_subsets() {
        let pts = grid();
        let set = PointSet::new(&pts);
        let w = writes();
        let op = Op::TwoSided { x0: 600, y0: 800 };
        let mut live = pts.clone();
        live.push(pt(700, 900, 1000));
        // First write acked before the read was sent: must be visible.
        let fp = Fp::of_body(&answer_of(&live, &op)).unwrap();
        let mut reads = vec![ReadRec {
            target: 0,
            op: op.clone(),
            fp,
            a: 1,
            b: 1,
        }];
        assert_eq!(check_reads(&[&set], &w, &mut reads), Ok(1));
        // Second write in flight: with or without it is fine.
        live.push(pt(800, 950, 1001));
        let fp2 = Fp::of_body(&answer_of(&live, &op)).unwrap();
        let mut reads = vec![
            ReadRec {
                target: 0,
                op: op.clone(),
                fp,
                a: 1,
                b: 2,
            },
            ReadRec {
                target: 0,
                op: op.clone(),
                fp: fp2,
                a: 1,
                b: 2,
            },
        ];
        assert_eq!(check_reads(&[&set], &w, &mut reads), Ok(2));
    }

    #[test]
    fn a_read_missing_an_acked_write_is_caught() {
        let pts = grid();
        let set = PointSet::new(&pts);
        let w = writes();
        let op = Op::TwoSided { x0: 600, y0: 800 };
        let stale = Fp::of_body(&answer_of(&pts, &op)).unwrap();
        let mut reads = vec![ReadRec {
            target: 0,
            op,
            fp: stale,
            a: 2,
            b: 2,
        }];
        let err = check_reads(&[&set], &w, &mut reads).unwrap_err();
        assert!(err.contains("wrong answer"), "{err}");
    }

    #[test]
    fn a_missing_acked_write_after_recovery_is_caught() {
        let pts = grid();
        let set = PointSet::new(&pts);
        let w = writes();
        let all = Op::TwoSided {
            x0: i64::MIN,
            y0: i64::MIN,
        };
        let mut live = pts.clone();
        live.extend([pt(700, 900, 1000), pt(800, 950, 1001), pt(10, 10, 1002)]);
        let full = Fp::of_body(&Body::Points(live.clone())).unwrap();
        assert_eq!(check_final(&set, 0, &w, &all, full), Ok(()));
        live.pop();
        let lost = Fp::of_body(&Body::Points(live)).unwrap();
        assert!(check_final(&set, 0, &w, &all, lost).is_err());
        // A write answered with an error must not be there.
        let mut failed = w.clone();
        failed[2].acked = false;
        assert!(check_final(&set, 0, &failed, &all, full).is_err());
    }
}
