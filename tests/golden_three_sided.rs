//! Golden pins for the 3-sided PST (Theorem 3.3).
//!
//! Each case builds the structure on a strict-model store (every page
//! access is one transfer) from fixed-seed inputs and compares the page
//! count and the exact transfer count of every query with the committed
//! values. The 4 KiB case is experiment E9's first row (n = 20k, data seed
//! 12, query seed 13). A change to the layout or the query path that moves
//! any number fails here and prints the actual values, so the pins are
//! updated on purpose, never by drift.

use pc_pagestore::{PageStore, Point};
use pc_pst::{ThreeSided, ThreeSidedPst};
use pc_workloads::{gen_points, gen_three_sided, PointDist};

struct Case {
    page_size: usize,
    n: usize,
    queries: usize,
    /// Structure pages after the build.
    pages: u64,
    /// Transfers summed over the queries.
    total_reads: u64,
    /// Transfers of each query, in generation order.
    per_query: &'static [u64],
}

const DATA_SEED: u64 = 12;
const QUERY_SEED: u64 = 13;

fn run(case: &Case) {
    let raw = gen_points(case.n, PointDist::Uniform, DATA_SEED);
    let points: Vec<Point> = raw.iter().map(|&(x, y, id)| Point::new(x, y, id)).collect();
    let store = PageStore::in_memory(case.page_size);
    let pst = ThreeSidedPst::build(&store, &points).unwrap();
    let pages = store.live_pages();
    let mut per_query = Vec::new();
    for q in gen_three_sided(&raw, case.queries, case.n / 50, QUERY_SEED) {
        let q = ThreeSided { x1: q.x1, x2: q.x2, y0: q.y0 };
        store.reset_stats();
        let got = pst.query(&store, q).unwrap();
        per_query.push(store.stats().reads);
        let want = points.iter().filter(|p| q.contains(p)).count();
        assert_eq!(got.len(), want, "wrong answer at {q:?}");
    }
    let total_reads: u64 = per_query.iter().sum();
    let actual = format!(
        "pages: {pages},\ntotal_reads: {total_reads},\nper_query: &{per_query:?},"
    );
    assert!(
        pages == case.pages && total_reads == case.total_reads && per_query == case.per_query,
        "3-sided golden mismatch at {} B pages, n = {}; actual values:\n{actual}",
        case.page_size,
        case.n
    );
}

#[test]
fn e9_n20k_4k_pages() {
    run(&Case {
        page_size: 4096,
        n: 20_000,
        queries: 100,
        pages: 856,
        total_reads: 1341,
        per_query: &[
            14, 12, 13, 13, 11, 20, 12, 7, 13, 11, 16, 14, 16, 8, 15, 14, 13, 17, 18, 13,
            13, 17, 13, 10, 8, 15, 11, 17, 18, 12, 15, 12, 7, 12, 11, 7, 16, 18, 13, 11, 11,
            17, 10, 10, 11, 14, 15, 14, 20, 17, 19, 11, 15, 18, 16, 15, 14, 14, 16, 9, 18,
            9, 17, 10, 11, 10, 12, 16, 12, 14, 8, 16, 10, 12, 10, 10, 11, 18, 12, 11, 17,
            18, 20, 15, 12, 11, 9, 7, 17, 15, 17, 11, 16, 19, 13, 16, 17, 9, 11, 12
        ],
    });
}

#[test]
fn n5k_512b_pages() {
    run(&Case {
        page_size: 512,
        n: 5_000,
        queries: 50,
        pages: 1192,
        total_reads: 1219,
        per_query: &[
            23, 26, 23, 26, 24, 23, 23, 26, 24, 23, 23, 21, 26, 27, 26, 23, 26, 20, 26, 23,
            23, 25, 24, 24, 22, 26, 24, 24, 24, 23, 25, 26, 25, 23, 28, 24, 29, 23, 24, 26,
            29, 23, 26, 21, 23, 24, 28, 21, 24, 26
        ],
    });
}
