//! 3-sided queries: `x1 <= x <= x2 && y >= y0` (Theorem 3.3; the static
//! core reused by Theorem 5.2).
//!
//! ## Query anatomy
//!
//! The two vertical boundaries trace two root paths that share a prefix up
//! to the **split node** (the deepest region whose x-range contains both
//! boundaries). Below the split, the left path is a 2-sided problem cut by
//! `x = x1` (everything right of it is `<= x2` automatically) and the
//! right path is its mirror; between them lie fully-contained subtrees.
//! On the shared prefix, a node's qualifying points form a *middle run*
//! `[x1, x2]` of its x-order — not a prefix — which is what costs the
//! extra machinery relative to Theorem 3.2.
//!
//! ## Our instantiation of the Thm 3.3 space/time trade
//!
//! The extended abstract defers the construction; we realize it as:
//!
//! * **One A-list, indexed from the node page.** Every node carries its
//!   in-segment ancestors' points once, in descending x, each tagged with
//!   the ancestor's in-page depth. The node's own points page ends with a
//!   *cache directory* listing every A-block's `(max x, min x, page id)`,
//!   so a walk that has read the node reads exactly the blocks meeting
//!   `[x1, x2]` — for the left path, the right path and the shared prefix
//!   alike, with no directory page of its own. This is how shared-prefix
//!   ancestors are handled without scanning their out-of-range prefix.
//! * **Threshold-indexed S-lists.** A sibling of a *shared* node lies
//!   wholly outside the query band, so the S-cache must exclude ancestors
//!   above the split. We store one S-list per possible in-page split depth
//!   `j` (`S_j` = right siblings of in-page ancestors at in-page depth
//!   `>= j`, descending y) and the mirrored `S'_j` for left siblings; their
//!   handles follow the A-blocks in the node page's directory. This family
//!   of up to `h` lists per node, each up to `h` blocks, is exactly the
//!   paper's extra `log B` space factor: total space `O((n/B)·log² B)`.
//!
//! The directory costs the node page some points: [`node_capacity`] is the
//! most points that leave room for the deepest node's directory.
//!
//! Queries read, per skeletal page on each path: the exit's node page
//! (points and directory), the run blocks (all answers but ≤ 2 partials),
//! and one `S_j` prefix — `O(1)` overhead per segment, hence
//! `O(log_B n + t/B)` total.

use std::collections::HashMap;

use pc_pagestore::codec::{PageReader, PageWriter};
use pc_pagestore::layout::BlockList;
use pc_pagestore::{Page, PageId, PageStore, Point, Record, Result, NULL_PAGE};

use crate::build::{
    decode_points_page, paginate, points_capacity, write_node_pages, NodeRef, SEntry,
    POINTS_HEADER,
};
use crate::mem::{cmp_x, cmp_y, MemPst, NONE};
use crate::query::{traverse_descendants, QueryCounters};

/// A 3-sided query: report points with `x1 <= x <= x2 && y >= y0`
/// (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreeSided {
    /// Left boundary (inclusive).
    pub x1: i64,
    /// Right boundary (inclusive).
    pub x2: i64,
    /// Bottom boundary (inclusive).
    pub y0: i64,
}

impl ThreeSided {
    /// True if `p` lies in the query region.
    pub fn contains(&self, p: &Point) -> bool {
        self.x1 <= p.x && p.x <= self.x2 && p.y >= self.y0
    }
}

/// Byte size of one 3-sided skeletal record.
pub const RECORD_LEN: usize = 24 + 24 + 10 + 10 + 8 + 2 + 10 + 10;
const PAGE_HEADER: usize = 2;
/// Bytes of skeletal page per record when sizing a page's segment. It is
/// larger than [`RECORD_LEN`] on purpose: the S-families grow with the
/// square of the in-page depth, so packing more records per page (deeper
/// segments) costs more space than it saves. 154 bytes gives 26 records
/// at 4 KiB and 3 at 512 B.
const RECORD_STRIDE: usize = 154;

/// Records per skeletal page.
pub fn skeletal_capacity(page_size: usize) -> usize {
    let cap = (page_size - PAGE_HEADER) / RECORD_STRIDE;
    assert!(cap >= 3, "page size {page_size} too small for a 3-sided PST page");
    cap
}

/// Deepest in-page depth a skeletal page of `cap` records holds. Pages
/// fill breadth-first from their root, and the decomposition splits at
/// the median so its leaves lie on two adjacent levels. Levels
/// `0..=⌊log₂ cap⌋` have room for at least `cap` nodes, so a page fills
/// up (or holds its whole subtree) before it reaches a deeper level.
fn max_inpage_depth(cap: usize) -> usize {
    cap.ilog2() as usize
}

/// One A-block directory entry: `(max x: i64, min x: i64, page: u64)`.
const A_ENTRY_LEN: usize = 8 + 8 + 8;
/// One S-family directory entry: the `(S_j, S'_j)` handles.
const S_ENTRY_LEN: usize = 2 * BlockList::<SEntry>::ENCODED_LEN;

/// Byte size of a cache directory with `a_blocks` A-blocks and `s_lists`
/// S-family entries (two `u16` counts plus the entries).
fn directory_len(a_blocks: usize, s_lists: usize) -> usize {
    2 + a_blocks * A_ENTRY_LEN + 2 + s_lists * S_ENTRY_LEN
}

/// Points per node page: the most that leave room, after the points, for
/// the directory of a node at the deepest in-page depth (whose A-list
/// holds that many full ancestors).
pub fn node_capacity(page_size: usize) -> usize {
    let depth = max_inpage_depth(skeletal_capacity(page_size));
    let block = BlockList::<SEntry>::capacity(page_size);
    let fits = |cap: usize| {
        POINTS_HEADER
            + cap * Point::ENCODED_LEN
            + directory_len((depth * cap).div_ceil(block), depth)
            <= page_size
    };
    let cap = (2..=points_capacity(page_size)).rev().find(|&c| fits(c));
    cap.unwrap_or_else(|| panic!("page size {page_size} too small for a 3-sided node page"))
}

#[derive(Debug, Clone)]
struct TsRecord {
    split: Point,
    min_y: Point,
    left: NodeRef,
    right: NodeRef,
    own_pts: PageId,
    own_cnt: u16,
    left_pts: PageId,
    left_cnt: u16,
    right_pts: PageId,
    right_cnt: u16,
}

fn decode_record(page: &[u8], slot: u16) -> Result<TsRecord> {
    let offset = PAGE_HEADER + RECORD_LEN * slot as usize;
    let mut r = PageReader::new(&page[offset..offset + RECORD_LEN]);
    Ok(TsRecord {
        split: Point::decode(&mut r)?,
        min_y: Point::decode(&mut r)?,
        left: NodeRef { page: PageId(r.get_u64()?), slot: r.get_u16()? },
        right: NodeRef { page: PageId(r.get_u64()?), slot: r.get_u16()? },
        own_pts: PageId(r.get_u64()?),
        own_cnt: r.get_u16()?,
        left_pts: PageId(r.get_u64()?),
        left_cnt: r.get_u16()?,
        right_pts: PageId(r.get_u64()?),
        right_cnt: r.get_u16()?,
    })
}

/// A node's cache directory, stored after the points on its node page:
///
/// ```text
/// [a_blocks: u16][(max_x: i64, min_x: i64, page: u64) * a_blocks]
/// [s_lists: u16][(S_j: BlockList, S'_j: BlockList) * s_lists]
/// ```
///
/// A-blocks are in descending x; `S_j` sits at index `j`, and there is one
/// per in-page ancestor.
#[derive(Debug, Clone, Default)]
struct Directory {
    a_blocks: Vec<(i64, i64, PageId)>,
    s_family: Vec<(BlockList<SEntry>, BlockList<SEntry>)>,
}

impl Directory {
    fn encode(&self, w: &mut PageWriter<'_>) -> Result<()> {
        w.put_u16(self.a_blocks.len() as u16)?;
        for &(max_x, min_x, page) in &self.a_blocks {
            w.put_i64(max_x)?;
            w.put_i64(min_x)?;
            w.put_u64(page.0)?;
        }
        w.put_u16(self.s_family.len() as u16)?;
        for (right_sibs, left_sibs) in &self.s_family {
            right_sibs.encode(w)?;
            left_sibs.encode(w)?;
        }
        Ok(())
    }

    fn decode(r: &mut PageReader<'_>) -> Result<Self> {
        let a_count = r.get_u16()? as usize;
        let mut a_blocks = Vec::with_capacity(a_count);
        for _ in 0..a_count {
            a_blocks.push((r.get_i64()?, r.get_i64()?, PageId(r.get_u64()?)));
        }
        let s_count = r.get_u16()? as usize;
        let mut s_family = Vec::with_capacity(s_count);
        for _ in 0..s_count {
            s_family.push((BlockList::decode(r)?, BlockList::decode(r)?));
        }
        Ok(Directory { a_blocks, s_family })
    }
}

/// Reads a node page: its points (descending y) and its cache directory.
fn read_node_page(store: &PageStore, id: PageId) -> Result<(Vec<Point>, Directory)> {
    let page = store.read(id)?;
    let mut r = PageReader::new(&page);
    let points = decode_points_page(&mut r)?.points;
    Ok((points, Directory::decode(&mut r)?))
}

/// What a page of a [`ThreeSidedPst`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageKind {
    /// Skeletal (navigation) records.
    Skeletal,
    /// A node's points and cache directory.
    Node,
    /// One block of a node's A-list.
    ABlock,
    /// One block of an S-family list.
    SBlock,
}

/// External PST for 3-sided queries: `O(log_B n + t/B)` I/Os,
/// `O((n/B)·log² B)` blocks (Theorem 3.3).
pub struct ThreeSidedPst {
    root_page: PageId,
    n: u64,
}

impl ThreeSidedPst {
    /// Builds the structure over `points`.
    pub fn build(store: &PageStore, points: &[Point]) -> Result<Self> {
        let page_size = store.page_size();
        let mem = MemPst::build(points, node_capacity(page_size));
        let node_ids: Vec<PageId> =
            mem.nodes.iter().map(|_| store.alloc()).collect::<Result<_>>()?;
        let (pages, node_loc) = paginate(&mem, skeletal_capacity(page_size));
        let page_ids: Vec<PageId> =
            pages.iter().map(|_| store.alloc()).collect::<Result<_>>()?;
        let block_cap = BlockList::<SEntry>::capacity(page_size);
        let max_depth = max_inpage_depth(skeletal_capacity(page_size));
        let mut dirs = vec![Directory::default(); mem.nodes.len()];

        // DFS with in-page chains: (arena idx, in-page depth, went_left).
        struct Frame {
            node: usize,
            chain: Vec<(usize, u16, bool)>,
        }
        let mut stack = vec![Frame { node: 0, chain: Vec::new() }];
        while let Some(Frame { node, chain }) = stack.pop() {
            // `node_capacity` left room for this depth's directory.
            assert!(chain.len() <= max_depth, "in-page depth {} > {max_depth}", chain.len());
            let dir = &mut dirs[node];
            // A-list: every in-page strict ancestor's points, descending x,
            // tagged with the ancestor's in-page depth so boundary walks
            // can skip shared ancestors already reported by the shared
            // phase. Each block is written alone: the directory, not a
            // chain link, leads to it.
            let mut a: Vec<SEntry> = Vec::new();
            for &(anc, inpage_depth, _) in &chain {
                a.extend(
                    mem.nodes[anc].points.iter().map(|&p| SEntry { p, depth: inpage_depth }),
                );
            }
            a.sort_unstable_by(|p, q| cmp_x(&q.p, &p.p));
            for block in a.chunks(block_cap) {
                let page = BlockList::build(store, block)?.head();
                dir.a_blocks.push((block[0].p.x, block[block.len() - 1].p.x, page));
            }

            // Threshold-indexed S-families, one per in-page ancestor.
            for j in 0..chain.len() as u16 {
                let mut right_sibs: Vec<SEntry> = Vec::new();
                let mut left_sibs: Vec<SEntry> = Vec::new();
                for &(anc, inpage_depth, went_left) in &chain {
                    if inpage_depth < j {
                        continue;
                    }
                    // Tag with the *in-page* depth: within one page the
                    // chain is a path, so in-page depth uniquely names the
                    // ancestor, and the query walk can reconstruct it
                    // without knowing absolute depths.
                    let (sib, out) = if went_left {
                        (mem.nodes[anc].right, &mut right_sibs)
                    } else {
                        (mem.nodes[anc].left, &mut left_sibs)
                    };
                    out.extend(
                        mem.nodes[sib].points.iter().map(|&p| SEntry { p, depth: inpage_depth }),
                    );
                }
                right_sibs.sort_unstable_by(|x, y| cmp_y(&y.p, &x.p));
                left_sibs.sort_unstable_by(|x, y| cmp_y(&y.p, &x.p));
                let handles =
                    (BlockList::build(store, &right_sibs)?, BlockList::build(store, &left_sibs)?);
                dir.s_family.push(handles);
            }

            let mn = &mem.nodes[node];
            if mn.left != NONE {
                for (child, went_left) in [(mn.left, true), (mn.right, false)] {
                    let chain = if node_loc[child].0 == node_loc[node].0 {
                        let mut c = chain.clone();
                        c.push((node, c.len() as u16, went_left));
                        c
                    } else {
                        Vec::new()
                    };
                    stack.push(Frame { node: child, chain });
                }
            }
        }

        write_node_pages(store, &mem, &node_ids, |i, w| dirs[i].encode(w))?;

        // Serialize skeletal pages.
        let mut buf = vec![0u8; page_size];
        for (page_idx, members) in pages.iter().enumerate() {
            let used = {
                let mut w = PageWriter::new(&mut buf);
                w.put_u16(members.len() as u16)?;
                for &ni in members {
                    let node = &mem.nodes[ni];
                    node.split.encode(&mut w)?;
                    node.points
                        .last()
                        .copied()
                        .unwrap_or(Point::new(0, 0, 0))
                        .encode(&mut w)?;
                    if node.is_leaf() {
                        for _ in 0..2 {
                            w.put_u64(NULL_PAGE.0)?;
                            w.put_u16(0)?;
                        }
                    } else {
                        for child in [node.left, node.right] {
                            let (p, s) = node_loc[child];
                            w.put_u64(page_ids[p].0)?;
                            w.put_u16(s)?;
                        }
                    }
                    w.put_u64(node_ids[ni].0)?;
                    w.put_u16(node.points.len() as u16)?;
                    if node.is_leaf() {
                        for _ in 0..2 {
                            w.put_u64(NULL_PAGE.0)?;
                            w.put_u16(0)?;
                        }
                    } else {
                        for child in [node.left, node.right] {
                            w.put_u64(node_ids[child].0)?;
                            w.put_u16(mem.nodes[child].points.len() as u16)?;
                        }
                    }
                }
                w.position()
            };
            store.write(page_ids[page_idx], &buf[..used])?;
        }

        Ok(ThreeSidedPst { root_page: page_ids[0], n: points.len() as u64 })
    }

    /// Number of indexed points.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Calls `f` on every page of the structure, each once: a skeletal
    /// page, then per record its node page, that node's A-blocks and its
    /// S-family lists, then the skeletal pages below.
    fn for_each_page(
        &self,
        store: &PageStore,
        mut f: impl FnMut(PageKind, PageId),
    ) -> Result<()> {
        let mut pending = vec![self.root_page];
        while let Some(page_id) = pending.pop() {
            f(PageKind::Skeletal, page_id);
            let page = store.read(page_id)?;
            let count = PageReader::new(&page).get_u16()?;
            for slot in 0..count {
                let rec = decode_record(&page, slot)?;
                f(PageKind::Node, rec.own_pts);
                let (_, dir) = read_node_page(store, rec.own_pts)?;
                for &(_, _, block) in &dir.a_blocks {
                    f(PageKind::ABlock, block);
                }
                for (right_sibs, left_sibs) in &dir.s_family {
                    for list in [right_sibs, left_sibs] {
                        for block in list.block_pages(store)? {
                            f(PageKind::SBlock, block);
                        }
                    }
                }
                // A child at slot 0 of another page roots that page.
                for child in [rec.left, rec.right] {
                    if !child.page.is_null() && child.page != page_id && child.slot == 0 {
                        pending.push(child.page);
                    }
                }
            }
        }
        Ok(())
    }

    /// Frees every page of the structure.
    pub fn free(self, store: &PageStore) -> Result<()> {
        let mut pages = Vec::new();
        self.for_each_page(store, |_, id| pages.push(id))?;
        pages.into_iter().try_for_each(|id| store.free(id))
    }

    /// Answers a 3-sided query.
    pub fn query(&self, store: &PageStore, q: ThreeSided) -> Result<Vec<Point>> {
        Ok(self.query_counted(store, q)?.0)
    }

    /// Answers a 3-sided query with I/O counters.
    pub fn query_counted(
        &self,
        store: &PageStore,
        q: ThreeSided,
    ) -> Result<(Vec<Point>, QueryCounters)> {
        assert!(q.x1 <= q.x2, "3-sided query bounds out of order");
        let _span = pc_obs::span!("pst3_query");
        let cap = node_capacity(store.page_size());
        pc_obs::set_block_capacity(cap as u64);
        let mut ctx = TsCtx {
            store,
            q,
            cap: cap as u16,
            results: Vec::new(),
            counters: QueryCounters::default(),
        };

        // --- Shared prefix -------------------------------------------------
        let mut cur_page_id = self.root_page;
        let mut page = {
            let _lvl = pc_obs::span!("level", 0u64);
            store.read(cur_page_id)?
        };
        ctx.counters.skeletal += 1;
        let mut slot = 0u16;
        let mut inpage_depth = 0u16;
        loop {
            let rec = decode_record(&page, slot)?;
            let is_leaf = rec.left.page.is_null();
            let is_corner = rec.own_cnt == 0 || rec.min_y.y < q.y0 || is_leaf;
            if is_corner {
                // Everything below fails the y bound; the shared prefix is
                // the whole relevant tree.
                ctx.shared_stop(&rec, inpage_depth, true)?;
                return Ok((ctx.results, ctx.counters));
            }
            // Routing keys: qx1 = (x1, -inf, -inf), qx2 = (x2, +inf, +inf).
            let left1 = q.x1 <= rec.split.x;
            let left2 = q.x2 < rec.split.x;
            if left1 != left2 {
                // Split node: middle-filter it and its covered ancestors,
                // then walk each boundary independently.
                ctx.shared_stop(&rec, inpage_depth, false)?;
                let thr_left = inpage_threshold(rec.left.page, cur_page_id, inpage_depth);
                let thr_right = inpage_threshold(rec.right.page, cur_page_id, inpage_depth);
                ctx.boundary_walk::<true>(rec.left, thr_left, cur_page_id, &page)?;
                ctx.boundary_walk::<false>(rec.right, thr_right, cur_page_id, &page)?;
                return Ok((ctx.results, ctx.counters));
            }
            let next = if left1 { rec.left } else { rec.right };
            if next.page != cur_page_id {
                // Shared-segment exit: middle contributions for this page.
                ctx.shared_stop(&rec, inpage_depth, false)?;
                cur_page_id = next.page;
                page = {
                    let _lvl = pc_obs::span!("level", ctx.counters.skeletal);
                    store.read(cur_page_id)?
                };
                ctx.counters.skeletal += 1;
                inpage_depth = 0;
            } else {
                inpage_depth += 1;
            }
            slot = next.slot;
        }
    }
}

/// Threshold for the child's S-family: if the child stays in the split's
/// page, ancestors at in-page depth <= the split's must be excluded.
fn inpage_threshold(child_page: PageId, split_page: PageId, split_inpage_depth: u16) -> u16 {
    if child_page == split_page {
        split_inpage_depth + 1
    } else {
        0
    }
}

struct TsCtx<'a> {
    store: &'a PageStore,
    q: ThreeSided,
    cap: u16,
    results: Vec<Point>,
    counters: QueryCounters,
}

impl TsCtx<'_> {
    /// Reads a node page, returning its points that satisfy the full
    /// predicate and its cache directory. The page is skipped when it can
    /// hold nothing the walk needs: no points of its own, and no in-page
    /// ancestor at depth `>= min_depth` for the A-run or the S-family.
    ///
    /// `output_scan` marks the corner's block (output-amortized); the
    /// per-segment exit and split-node reads are fixed search overhead.
    fn read_node(
        &mut self,
        rec: &TsRecord,
        inpage_depth: u16,
        min_depth: u16,
        output_scan: bool,
    ) -> Result<(Vec<Point>, Directory)> {
        if rec.own_cnt == 0 && inpage_depth <= min_depth {
            return Ok((Vec::new(), Directory::default()));
        }
        let _scan = if output_scan {
            pc_obs::span!(output: "node_block")
        } else {
            pc_obs::span!("node_block")
        };
        let (mut points, dir) = read_node_page(self.store, rec.own_pts)?;
        self.counters.node_blocks += 1;
        points.retain(|p| self.q.contains(p));
        pc_obs::add_items(points.len() as u64);
        Ok((points, dir))
    }

    /// Middle-run scan of the A-list: reads exactly the blocks the
    /// directory shows meeting `[x1, x2]`, filtering each. Entries from
    /// ancestors at in-page depth `< min_depth` (shared prefix, already
    /// reported) are skipped.
    fn middle_run(&mut self, dir: &Directory, min_depth: u16) -> Result<()> {
        let ThreeSided { x1, x2, .. } = self.q;
        let mut run = dir
            .a_blocks
            .iter()
            .filter(|&&(max_x, min_x, _)| min_x <= x2 && max_x >= x1)
            .peekable();
        if run.peek().is_none() {
            return Ok(());
        }
        let _probe = pc_obs::span!("path_cache_probe");
        pc_obs::set_block_capacity(BlockList::<SEntry>::capacity(self.store.page_size()) as u64);
        let before = self.results.len();
        for &(_, _, block) in run {
            let (entries, _) = BlockList::<SEntry>::read_block(self.store, block)?;
            self.counters.cache_blocks += 1;
            self.results.extend(
                entries
                    .iter()
                    .filter(|e| x1 <= e.p.x && e.p.x <= x2 && e.depth >= min_depth)
                    .map(|e| e.p),
            );
        }
        pc_obs::add_items((self.results.len() - before) as u64);
        Ok(())
    }

    /// Drains `S_threshold` (or `S'_threshold` on the right path): a
    /// descending-y prefix with per-depth counts, then seeds descendant
    /// traversals for fully-inside siblings.
    fn drain_s<const LEFT: bool>(
        &mut self,
        dir: &Directory,
        threshold: u16,
        sib: &HashMap<u16, (PageId, u16)>,
    ) -> Result<()> {
        let Some(&(right_sibs, left_sibs)) = dir.s_family.get(threshold as usize) else {
            return Ok(());
        };
        let list = if LEFT { right_sibs } else { left_sibs };
        if list.is_empty() {
            return Ok(());
        }

        let mut qualified: HashMap<u16, u16> = HashMap::new();
        {
            let _probe = pc_obs::span!("path_cache_probe");
            pc_obs::set_block_capacity(
                BlockList::<SEntry>::capacity(self.store.page_size()) as u64
            );
            let before = self.results.len();
            's_scan: for block in list.blocks(self.store) {
                self.counters.cache_blocks += 1;
                for e in block? {
                    if e.p.y < self.q.y0 {
                        break 's_scan;
                    }
                    self.results.push(e.p);
                    *qualified.entry(e.depth).or_insert(0) += 1;
                }
            }
            pc_obs::add_items((self.results.len() - before) as u64);
        }
        for (d, cnt) in qualified {
            let &(pts, total) = sib.get(&d).expect("S entries come from recorded siblings");
            if cnt == total && total == self.cap {
                traverse_descendants(
                    self.store,
                    pts,
                    false,
                    self.q.y0,
                    &mut self.results,
                    &mut self.counters,
                )?;
            }
        }
        Ok(())
    }

    /// One shared-prefix stop (segment exit, split node or corner): the
    /// node page and the A-run of every in-page ancestor.
    fn shared_stop(&mut self, rec: &TsRecord, inpage_depth: u16, output_scan: bool) -> Result<()> {
        let (own, dir) = self.read_node(rec, inpage_depth, 0, output_scan)?;
        self.middle_run(&dir, 0)?;
        self.results.extend(own);
        Ok(())
    }

    /// One boundary-walk stop (segment exit or corner): the node page, the
    /// A-run and the S-family drain below `threshold`.
    fn boundary_stop<const LEFT: bool>(
        &mut self,
        rec: &TsRecord,
        inpage_depth: u16,
        threshold: u16,
        sib: &HashMap<u16, (PageId, u16)>,
        output_scan: bool,
    ) -> Result<()> {
        let (own, dir) = self.read_node(rec, inpage_depth, threshold, output_scan)?;
        self.middle_run(&dir, threshold)?;
        self.drain_s::<LEFT>(&dir, threshold, sib)?;
        self.results.extend(own);
        Ok(())
    }

    /// Walks one boundary path below the split. `LEFT` walks the `x1`
    /// boundary (right siblings are inside the band); `!LEFT` mirrors it.
    fn boundary_walk<const LEFT: bool>(
        &mut self,
        start: NodeRef,
        mut threshold: u16,
        split_page_id: PageId,
        split_page: &Page,
    ) -> Result<()> {
        if start.page.is_null() {
            return Ok(());
        }
        let mut cur_page_id;
        let mut page;
        if start.page == split_page_id {
            cur_page_id = split_page_id;
            page = split_page.clone();
        } else {
            cur_page_id = start.page;
            page = {
                let _lvl = pc_obs::span!("level", self.counters.skeletal);
                self.store.read(cur_page_id)?
            };
            self.counters.skeletal += 1;
        }
        let mut slot = start.slot;
        // Sibling map keyed by *in-page* depth, matching the build-time S
        // tags. When the walk starts inside the split's page, its first
        // node sits at in-page depth `threshold` (= split depth + 1).
        let mut sib: HashMap<u16, (PageId, u16)> = HashMap::new();
        let mut inpage_depth = threshold;
        loop {
            let rec = decode_record(&page, slot)?;
            let is_leaf = rec.left.page.is_null();
            let is_corner = rec.own_cnt == 0 || rec.min_y.y < self.q.y0 || is_leaf;
            if is_corner {
                return self.boundary_stop::<LEFT>(&rec, inpage_depth, threshold, &sib, true);
            }
            // Route by this walk's boundary.
            let go_left = if LEFT { self.q.x1 <= rec.split.x } else { self.q.x2 < rec.split.x };
            // The inside sibling: right child on the left path when going
            // left; left child on the right path when going right.
            let inside_sib = if LEFT && go_left {
                (rec.right_cnt > 0).then_some((rec.right_pts, rec.right_cnt))
            } else if !LEFT && !go_left {
                (rec.left_cnt > 0).then_some((rec.left_pts, rec.left_cnt))
            } else {
                None
            };
            let next = if go_left { rec.left } else { rec.right };
            if next.page != cur_page_id {
                self.boundary_stop::<LEFT>(&rec, inpage_depth, threshold, &sib, false)?;
                // The exit's inside sibling belongs to no S-list below it.
                if let Some((pts, _)) = inside_sib {
                    traverse_descendants(
                        self.store,
                        pts,
                        true,
                        self.q.y0,
                        &mut self.results,
                        &mut self.counters,
                    )?;
                }
                sib.clear();
                threshold = 0;
                cur_page_id = next.page;
                page = {
                    let _lvl = pc_obs::span!("level", self.counters.skeletal);
                    self.store.read(cur_page_id)?
                };
                self.counters.skeletal += 1;
                inpage_depth = 0;
                slot = next.slot;
                continue;
            }
            if let Some(info) = inside_sib {
                sib.insert(inpage_depth, info);
            }
            slot = next.slot;
            inpage_depth += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use pc_pagestore::backend::{Backend, MemBackend};
    use pc_pagestore::store::CHECKSUM_LEN;
    use pc_pagestore::StoreConfig;

    use super::*;

    fn xorshift(state: &mut u64, bound: i64) -> i64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state % bound as u64) as i64
    }

    fn random_points(n: usize, domain: i64, seed: u64) -> Vec<Point> {
        let mut s = seed;
        (0..n)
            .map(|id| Point::new(xorshift(&mut s, domain), xorshift(&mut s, domain), id as u64))
            .collect()
    }

    fn brute(points: &[Point], q: ThreeSided) -> Vec<u64> {
        let mut ids: Vec<u64> =
            points.iter().filter(|p| q.contains(p)).map(|p| p.id).collect();
        ids.sort_unstable();
        ids
    }

    fn ids(mut pts: Vec<Point>) -> Vec<u64> {
        let mut out: Vec<u64> = pts.drain(..).map(|p| p.id).collect();
        out.sort_unstable();
        out
    }

    fn check(points: &[Point], queries: &[ThreeSided], page_size: usize) {
        let store = PageStore::in_memory(page_size);
        let pst = ThreeSidedPst::build(&store, points).unwrap();
        for (i, &q) in queries.iter().enumerate() {
            let res = pst.query(&store, q).unwrap();
            let want = brute(points, q);
            assert_eq!(res.len(), want.len(), "dup? q{i}={q:?}");
            assert_eq!(ids(res), want, "q{i}={q:?}");
        }
    }

    #[test]
    fn matches_brute_force_random() {
        let pts = random_points(4000, 10_000, 0x35);
        let mut s = 0x99u64;
        let queries: Vec<ThreeSided> = (0..150)
            .map(|_| {
                let a = xorshift(&mut s, 11_000) - 500;
                let b = a + xorshift(&mut s, 4_000);
                ThreeSided { x1: a, x2: b, y0: xorshift(&mut s, 11_000) - 500 }
            })
            .collect();
        check(&pts, &queries, 512);
    }

    #[test]
    fn narrow_and_degenerate_bands() {
        let pts = random_points(2000, 1000, 7);
        let mut queries = Vec::new();
        for x in [0i64, 100, 500, 999, 1000] {
            queries.push(ThreeSided { x1: x, x2: x, y0: 0 });
            queries.push(ThreeSided { x1: x, x2: x + 1, y0: 500 });
        }
        queries.push(ThreeSided { x1: -100, x2: 2000, y0: -5 }); // everything
        queries.push(ThreeSided { x1: 2000, x2: 3000, y0: 0 }); // nothing right
        queries.push(ThreeSided { x1: -50, x2: -10, y0: 0 }); // nothing left
        check(&pts, &queries, 512);
    }

    #[test]
    fn duplicate_coordinates() {
        let pts: Vec<Point> =
            (0..900).map(|i| Point::new((i % 5) as i64 * 10, (i % 9) as i64 * 10, i)).collect();
        let mut queries = Vec::new();
        for x1 in [-1i64, 0, 10, 20] {
            for x2 in [10i64, 20, 40, 41] {
                if x1 > x2 {
                    continue;
                }
                for y0 in [-1i64, 0, 40, 80, 81] {
                    queries.push(ThreeSided { x1, x2, y0 });
                }
            }
        }
        check(&pts, &queries, 512);
    }

    #[test]
    fn three_sided_reduces_to_two_sided_when_x2_unbounded() {
        use crate::build::SegmentedPst;
        use crate::mem::TwoSided;
        let pts = random_points(3000, 5000, 0xaa);
        let store = PageStore::in_memory(512);
        let ts = ThreeSidedPst::build(&store, &pts).unwrap();
        let seg = SegmentedPst::build(&store, &pts).unwrap();
        let mut s = 0xbbu64;
        for _ in 0..40 {
            let x0 = xorshift(&mut s, 5000);
            let y0 = xorshift(&mut s, 5000);
            let a = ts.query(&store, ThreeSided { x1: x0, x2: i64::MAX, y0 }).unwrap();
            let b = seg.query(&store, TwoSided { x0, y0 }).unwrap();
            assert_eq!(ids(a), ids(b));
        }
    }

    #[test]
    fn query_io_is_optimal_shape() {
        let pts = random_points(20_000, 100_000, 0xcc);
        let store = PageStore::in_memory(512);
        let pst = ThreeSidedPst::build(&store, &pts).unwrap();
        let b = points_capacity(512) as u64;
        let mut s = 0xddu64;
        for _ in 0..60 {
            let a = xorshift(&mut s, 100_000);
            let w = xorshift(&mut s, 30_000);
            let q = ThreeSided { x1: a, x2: a + w, y0: xorshift(&mut s, 100_000) };
            let (res, c) = pst.query_counted(&store, q).unwrap();
            let t = res.len() as u64;
            // Two boundary paths, each ~log_B n segments of O(1) reads.
            let allowed = 90 + 6 * (t / b + 1);
            assert!(c.total() <= allowed, "io={} t={t} ({c:?})", c.total());
        }
    }

    #[test]
    fn space_is_log_squared_b_shaped() {
        let pts = random_points(20_000, 100_000, 0xee);
        let store = PageStore::in_memory(512);
        let before = store.live_pages();
        ThreeSidedPst::build(&store, &pts).unwrap();
        let pages = store.live_pages() - before;
        let b = points_capacity(512) as u64;
        let log_b = 5u64;
        let bound = 6 * (20_000 / b) * log_b * log_b;
        assert!(pages <= bound, "space {pages} exceeds O(n/B log^2 B) ~ {bound}");
    }

    #[test]
    fn geometry() {
        assert_eq!(RECORD_LEN, 98);
        assert_eq!((skeletal_capacity(512), node_capacity(512)), (3, 17));
        assert_eq!((skeletal_capacity(1024), node_capacity(1024)), (6, 36));
        assert_eq!((skeletal_capacity(2048), node_capacity(2048)), (13, 77));
        assert_eq!((skeletal_capacity(4096), node_capacity(4096)), (26, 159));
    }

    #[test]
    fn free_returns_every_page() {
        let store = PageStore::in_memory(1024);
        let before = store.live_pages();
        let pst = ThreeSidedPst::build(&store, &random_points(5000, 10_000, 0x5ee)).unwrap();
        let mut seen = std::collections::HashSet::new();
        pst.for_each_page(&store, |_, id| assert!(seen.insert(id), "{id:?} visited twice"))
            .unwrap();
        assert_eq!(seen.len() as u64, store.live_pages() - before);
        pst.free(&store).unwrap();
        assert_eq!(store.live_pages(), before);
    }

    /// Backend that logs every frame it reads, so a test sees which pages
    /// a query touched.
    struct Recording {
        inner: MemBackend,
        reads: Arc<Mutex<Vec<PageId>>>,
    }

    impl Backend for Recording {
        fn frame_size(&self) -> usize {
            self.inner.frame_size()
        }

        fn read_frame(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
            self.reads.lock().unwrap().push(id);
            self.inner.read_frame(id, buf)
        }

        fn write_frame(&self, id: PageId, buf: &[u8]) -> Result<()> {
            self.inner.write_frame(id, buf)
        }

        fn sync(&self) -> Result<()> {
            self.inner.sync()
        }

        fn frame_count(&self) -> u64 {
            self.inner.frame_count()
        }
    }

    /// An A-block's x-range and the max x of the block after it.
    struct ABlock {
        max_x: i64,
        min_x: i64,
        next_max_x: Option<i64>,
    }

    /// A structure built on a recording store, with every page classified.
    struct Recorded {
        store: PageStore,
        reads: Arc<Mutex<Vec<PageId>>>,
        pst: ThreeSidedPst,
        kinds: HashMap<PageId, PageKind>,
        a_blocks: HashMap<PageId, ABlock>,
    }

    fn recorded(points: &[Point], page_size: usize) -> Recorded {
        let reads = Arc::new(Mutex::new(Vec::new()));
        let backend =
            Recording { inner: MemBackend::new(page_size + CHECKSUM_LEN), reads: reads.clone() };
        let store = PageStore::new(StoreConfig::strict(page_size), Box::new(backend));
        let pst = ThreeSidedPst::build(&store, points).unwrap();
        let mut kinds = HashMap::new();
        pst.for_each_page(&store, |kind, id| {
            kinds.insert(id, kind);
        })
        .unwrap();
        let mut a_blocks = HashMap::new();
        for (&id, &kind) in &kinds {
            if kind != PageKind::Node {
                continue;
            }
            let (_, dir) = read_node_page(&store, id).unwrap();
            for (k, &(max_x, min_x, block)) in dir.a_blocks.iter().enumerate() {
                let next_max_x = dir.a_blocks.get(k + 1).map(|b| b.0);
                a_blocks.insert(block, ABlock { max_x, min_x, next_max_x });
            }
        }
        Recorded { store, reads, pst, kinds, a_blocks }
    }

    /// How often the checked queries hit the block-boundary cases.
    #[derive(Default)]
    struct Seen {
        /// A-block reads.
        a_reads: usize,
        /// Runs that ended on the last entry of a block whose successor
        /// lies wholly below `x1`.
        ends_on_boundary: usize,
        /// Runs that began on the first entry of a block.
        starts_on_boundary: usize,
    }

    impl Recorded {
        /// Runs each query and checks the answer against brute force and
        /// the reads against the directory: every page read belongs to the
        /// structure and is a skeletal page, a node page, an A-block or an
        /// S-block (there is no directory page to read); every A-block
        /// read meets `[x1, x2]`; and the cache counter equals the A-block
        /// plus S-block reads.
        fn check(&self, points: &[Point], queries: &[ThreeSided]) -> Seen {
            let mut seen = Seen::default();
            for &q in queries {
                self.reads.lock().unwrap().clear();
                let (res, c) = self.pst.query_counted(&self.store, q).unwrap();
                let want = brute(points, q);
                assert_eq!(res.len(), want.len(), "duplicates at {q:?}");
                assert_eq!(ids(res), want, "{q:?}");
                let mut cache = 0;
                for id in self.reads.lock().unwrap().iter() {
                    match self.kinds.get(id) {
                        Some(PageKind::ABlock) => {
                            let b = &self.a_blocks[id];
                            assert!(
                                b.min_x <= q.x2 && b.max_x >= q.x1,
                                "{q:?} read A-block [{}, {}], outside the run",
                                b.min_x,
                                b.max_x
                            );
                            cache += 1;
                            seen.a_reads += 1;
                            let gap_after = b.next_max_x.is_some_and(|m| m < b.min_x);
                            seen.ends_on_boundary += usize::from(b.min_x == q.x1 && gap_after);
                            seen.starts_on_boundary += usize::from(b.max_x == q.x2);
                        }
                        Some(PageKind::SBlock) => cache += 1,
                        Some(PageKind::Skeletal | PageKind::Node) => {}
                        None => panic!("{q:?} read {id:?}, which is no page of the structure"),
                    }
                }
                assert_eq!(c.cache_blocks, cache, "{q:?}: cache reads are not run + S blocks");
            }
            seen
        }
    }

    /// Queries whose run ends exactly on a block boundary (`x1` = a
    /// block's min x, the next block wholly below it) or starts on one
    /// (`x2` = a block's max x), at varied widths and heights.
    fn boundary_queries(rec: &Recorded, domain: i64, seed: u64) -> Vec<ThreeSided> {
        let mut s = seed;
        let mut blocks: Vec<&ABlock> = rec.a_blocks.values().collect();
        blocks.sort_by_key(|b| (b.max_x, b.min_x));
        let mut queries = Vec::new();
        for b in blocks {
            let w = xorshift(&mut s, domain / 20);
            let y0 = xorshift(&mut s, domain);
            if b.next_max_x.is_some_and(|m| m < b.min_x) {
                queries.push(ThreeSided { x1: b.min_x, x2: b.min_x + w, y0 });
            }
            queries.push(ThreeSided { x1: b.max_x - w, x2: b.max_x, y0 });
        }
        queries
    }

    #[test]
    fn run_reads_exactly_the_blocks_meeting_the_band() {
        let domain = 100_000;
        let pts = random_points(20_000, domain, 0x3a11);
        for page_size in [1024, 2048] {
            let rec = recorded(&pts, page_size);
            let seen = rec.check(&pts, &boundary_queries(&rec, domain, 0x51));
            assert!(seen.ends_on_boundary > 0, "no run ended on a block boundary at {page_size}");
            assert!(seen.starts_on_boundary > 0, "no run began on a block boundary");
        }
    }

    #[test]
    fn point_bands_with_x1_equal_to_x2() {
        let pts = random_points(8000, 3000, 0xe0);
        let mut s = 0xe1u64;
        let queries: Vec<ThreeSided> = (0..300)
            .map(|i| {
                // Half the bands sit on an existing x, half anywhere.
                let x = if i % 2 == 0 {
                    pts[xorshift(&mut s, pts.len() as i64) as usize].x
                } else {
                    xorshift(&mut s, 3100) - 50
                };
                ThreeSided { x1: x, x2: x, y0: xorshift(&mut s, 3000) - 10 }
            })
            .collect();
        for page_size in [512, 1024, 2048] {
            let seen = recorded(&pts, page_size).check(&pts, &queries);
            assert!(seen.a_reads > 0, "no point band read an A-block at {page_size}");
        }
    }

    #[test]
    fn duplicate_x_straddling_a_block_boundary() {
        // 40 distinct x values over 6000 points: every A-list block
        // boundary falls inside a run of equal x.
        let mut s = 0xd0u64;
        let pts: Vec<Point> = (0..6000)
            .map(|id| Point::new(xorshift(&mut s, 40) * 10, xorshift(&mut s, 50_000), id))
            .collect();
        for page_size in [1024, 2048] {
            let rec = recorded(&pts, page_size);
            let straddles: Vec<i64> = rec
                .a_blocks
                .values()
                .filter(|b| b.next_max_x == Some(b.min_x))
                .map(|b| b.min_x)
                .collect();
            assert!(!straddles.is_empty(), "no x value straddles a block boundary");
            let mut queries = Vec::new();
            for (i, &x) in straddles.iter().enumerate() {
                let y0 = xorshift(&mut s, 50_000);
                queries.push(ThreeSided { x1: x, x2: x, y0 });
                queries.push(ThreeSided { x1: x, x2: x + 10 * (i as i64 % 4), y0 });
                queries.push(ThreeSided { x1: x - 10 * (i as i64 % 3), x2: x, y0 });
            }
            rec.check(&pts, &queries);
        }
    }

    #[test]
    fn narrow_bands_filter_shared_ancestors_on_both_boundaries() {
        // Narrow bands split deep inside skeletal pages, so both boundary
        // walks start below the split in its own page and must drop the
        // A-entries of the shared ancestors (depth threshold); the right
        // walk scans the same descending A-list as the left one.
        let domain = 50_000;
        let pts = random_points(12_000, domain, 0x7e);
        let mut s = 0x7fu64;
        let queries: Vec<ThreeSided> = (0..400)
            .map(|_| {
                let a = xorshift(&mut s, domain);
                let w = 1 + xorshift(&mut s, 400);
                ThreeSided { x1: a, x2: a + w, y0: xorshift(&mut s, domain) - 100 }
            })
            .collect();
        for page_size in [512, 1024, 2048] {
            recorded(&pts, page_size).check(&pts, &queries);
        }
    }
}
