//! The columnar evaluation core: [`CandidateView`].
//!
//! Every evaluation strategy used to re-interpret PaQL aggregate expressions
//! per tuple via `minidb::eval` against the base table — an expression-tree
//! walk per member per neighbour per move. The view replaces that with a
//! **columnar** representation built once per query:
//!
//! * for every distinct aggregate term referenced by the `SUCH THAT` formula
//!   or the objective, a dense `f64` column over the candidate set (the
//!   term's per-tuple contribution) plus an inclusion bitmask folding in the
//!   `FILTER (WHERE ...)` predicate and NULL-ness of the argument;
//! * the formula and objective recompiled against term indices
//!   ([`CompiledExpr`] / [`CompiledFormula`]), so package-level evaluation is
//!   a handful of dot products and comparisons with no AST in sight;
//! * [`ViewState`], an incremental accumulator that scores multiplicity
//!   deltas (swap / add / drop moves) in `O(#terms)` per move instead of
//!   re-aggregating the whole package — the local search's inner loop.
//!
//! The interpreted path ([`Package::eval_aggregate`] and friends) survives as
//! the debug oracle: `columnar_matches_interpreted` asserts agreement on
//! random queries, and the property suite in `tests/columnar_oracle.rs`
//! exercises both paths over every datagen scenario.
//!
//! Columns are chunked at a fixed 4096-element width ([`TermColumn`]), and
//! since the [`crate::column_store`] subsystem landed a column's chunks can
//! live **out of core**: under a paged [`crate::column_store::ColumnPolicy`]
//! they are spilled to a temporary file at build time and scanned back
//! through an LRU buffer pool, chunk by chunk, while the per-chunk
//! [`ChunkMeta`] summaries stay resident. Consumers iterate
//! [`TermColumn::chunk`] cursors (or the point accessors
//! [`TermColumn::coeff_at`] / [`TermColumn::included_at`]) and never learn
//! where the bytes live; resident and paged builds are bit-identical.
//!
//! Since the [`crate::cache`] subsystem landed, a view can also be
//! *assembled* from previously materialized building blocks
//! ([`CandidateView::assemble_par_with`]): the candidate list, statistics and any
//! already-built term columns are reused verbatim and only the columns the
//! new query adds are computed from the base table. Every view additionally
//! carries a [`crate::cache::PartitionMemo`] so the sketch→refine solver's
//! offline partitioning is computed at most once per (view contents,
//! partition size, seed) — including across cached queries.

use std::collections::BTreeMap;
use std::sync::Arc;

use minidb::eval::{eval, eval_predicate};
use minidb::stats::TableStats;
use minidb::{Table, Tuple, TupleId};
use paql::ast::GlobalArithOp;
use paql::{AggCall, AggFunc, CmpOp, GlobalExpr, GlobalFormula, Objective, ObjectiveDirection};

use crate::budget::Budget;
use crate::cache::PartitionMemo;
use crate::column_store::{
    ColumnPolicy, PageGuard, PoolStats, SpillStore, MASK_WORDS_PER_CHUNK, PAGE_BYTES,
};
use crate::package::Package;
use crate::par::{chunk_count, chunk_range, ParExec, CHUNK_WIDTH};
use crate::partition::Partitioning;
use crate::{PbError, PbResult};

/// Penalty for constraints whose sides cannot be evaluated (NULL aggregate),
/// identical to the interpreted path's constant.
const UNEVALUABLE_PENALTY: f64 = 1e9;

/// Chunks per materialization segment in paged-aware builds (~4.3 MB of
/// coefficient buffer). Segments bound the *transient* memory of building a
/// column — evaluated chunks are pushed into the [`ColumnSink`] (spilled,
/// for paged columns) before the next segment is evaluated. Segment starts
/// are multiples of [`crate::par::CHUNK_WIDTH`], so segmentation never moves
/// a chunk boundary and results stay bit-identical.
const BUILD_SEGMENT_CHUNKS: usize = 128;

/// Precomputed aggregates of one [`crate::par::CHUNK_WIDTH`]-wide chunk of a
/// [`TermColumn`], over the chunk's *included* entries only.
///
/// Chunk metadata is computed once at column materialization (per chunk, so
/// the values are identical no matter how many threads built the column) and
/// lets consumers answer whole-column questions — the value range feeding
/// [`crate::pruning::derive_bounds`], for instance — in `O(#chunks)` by
/// combining the per-chunk values **in chunk order**, without rescanning the
/// column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkMeta {
    /// Sum of the included entries' coefficients (0.0 when none).
    pub sum: f64,
    /// Minimum included coefficient (`+∞` when the chunk has none).
    pub min: f64,
    /// Maximum included coefficient (`-∞` when the chunk has none).
    pub max: f64,
    /// Number of included entries in the chunk.
    pub included: u32,
}

/// Where a column's chunk payload lives. Metadata ([`ChunkMeta`]) is always
/// resident either way — only the coefficient/mask bytes move.
#[derive(Debug, Clone)]
enum ColumnData {
    /// Today's dense in-memory layout: one contiguous coefficient vector and
    /// a chunk-aligned inclusion bitmask (chunk `c` owns words
    /// `c · MASK_WORDS_PER_CHUNK ..`, padded at the tail so every chunk's
    /// words are full-width — the same shape a spill page has).
    Resident { coeffs: Vec<f64>, mask: Vec<u64> },
    /// Chunks spilled to a [`SpillStore`]: chunk `c` is page `first_page + c`
    /// of the (possibly shared) store, faulted in through its buffer pool.
    Paged {
        store: Arc<SpillStore>,
        first_page: u64,
    },
}

/// One aggregate term (`SUM(P.calories)`, `COUNT(*) FILTER (WHERE ...)`, …)
/// lowered to columns over the candidate set.
///
/// # Chunked layout
///
/// A column is a sequence of *chunk handles*: fixed-width chunks of
/// [`crate::par::CHUNK_WIDTH`] elements with a [`ChunkMeta`] (partial sum,
/// min/max, included count over the chunk's included entries) kept per chunk,
/// always in memory. The chunk *payload* (coefficients + inclusion mask)
/// lives either resident (dense vectors — the zero-cost path) or paged
/// (spill file + LRU buffer pool, [`crate::column_store`]); consumers access
/// it uniformly through [`TermColumn::chunk`] cursors or the per-element
/// [`TermColumn::entry_at`]. Two invariants make this the substrate for
/// deterministic data parallelism:
///
/// * **Chunk boundaries are fixed** — always `CHUNK_WIDTH` elements, derived
///   from the candidate count alone, never from the thread count or the
///   storage mode.
/// * **Reductions combine chunks in chunk order** — so any whole-column
///   value derived from the metadata (or from a parallel scan chunked the
///   same way) is bit-identical at every `num_threads` — and, since paging
///   moves bytes without touching values or boundaries, in both storage
///   modes.
///
/// Columns are immutable after construction (a [`ColumnSink`] computes the
/// metadata chunk by chunk as the column is materialized; paged chunks are
/// written to the spill file exactly once and never written back); the cache
/// shares them by `Arc` across queries.
#[derive(Debug, Clone)]
pub struct TermColumn {
    /// The aggregate function.
    pub func: AggFunc,
    /// Number of candidates (elements) in the column.
    len: usize,
    /// The chunk payload: per-candidate contribution (the argument value,
    /// 1.0 for `COUNT(*)`, forced to 0.0 where excluded) plus the inclusion
    /// mask (`FILTER` passed and the argument was non-NULL).
    data: ColumnData,
    /// Per-chunk partial aggregates over the included entries.
    chunks: Vec<ChunkMeta>,
}

/// One pinned chunk of a [`TermColumn`]: borrowed slices for resident
/// columns, a buffer-pool [`PageGuard`] for paged ones. The chunk stays
/// pinned (immune to eviction) for the guard's lifetime — scan loops hold
/// one of these per chunk, never per element.
pub enum ColumnChunk<'c> {
    /// Resident chunk: slices borrowed straight from the column.
    Resident {
        /// The chunk's coefficients (exact chunk length).
        coeffs: &'c [f64],
        /// The chunk's inclusion-mask words ([`MASK_WORDS_PER_CHUNK`] of them).
        mask: &'c [u64],
    },
    /// Paged chunk: a pinned buffer-pool page.
    Paged {
        /// The pinned page.
        guard: PageGuard,
        /// The chunk's exact length (tail chunks are shorter than the page).
        len: usize,
    },
}

impl ColumnChunk<'_> {
    /// Elements in this chunk.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            ColumnChunk::Resident { coeffs, .. } => coeffs.len(),
            ColumnChunk::Paged { len, .. } => *len,
        }
    }

    /// True when the chunk has no elements (never, for chunks of a
    /// non-empty column).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The chunk's coefficients.
    #[inline]
    pub fn coeffs(&self) -> &[f64] {
        match self {
            ColumnChunk::Resident { coeffs, .. } => coeffs,
            ColumnChunk::Paged { guard, len } => guard.coeffs(*len),
        }
    }

    /// Whether element `i` of this chunk is included.
    #[inline]
    pub fn included(&self, i: usize) -> bool {
        match self {
            ColumnChunk::Resident { mask, .. } => (mask[i / 64] >> (i % 64)) & 1 == 1,
            ColumnChunk::Paged { guard, .. } => guard.included(i),
        }
    }
}

#[inline]
fn mask_bit(mask: &[u64], idx: usize) -> bool {
    (mask[idx / 64] >> (idx % 64)) & 1 == 1
}

impl TermColumn {
    /// Builds a resident column from its dense coefficient and inclusion
    /// vectors, computing the per-chunk metadata. ([`ColumnSink`] is the
    /// general constructor; this is the convenience wrapper around it.)
    pub fn new(func: AggFunc, coeffs: Vec<f64>, included: Vec<bool>) -> Self {
        assert_eq!(coeffs.len(), included.len());
        let n = coeffs.len();
        let mut sink = ColumnSink::resident(func, n);
        for c in 0..chunk_count(n) {
            let r = chunk_range(c, n);
            sink.push_chunk(&coeffs[r.clone()], &included[r])
                // pb-lint: allow(no-panic-in-solver-paths) — invariant: a
                // resident sink does no I/O, and the error arm exists only
                // for the paged variant.
                .expect("resident sink cannot fail");
        }
        sink.finish()
    }

    /// Number of candidates (elements) in the column.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the column has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when the chunk payload lives in a spill file rather than memory.
    pub fn is_paged(&self) -> bool {
        matches!(self.data, ColumnData::Paged { .. })
    }

    /// Bytes of chunk payload held in memory (0 for paged columns — the
    /// buffer pool's frames belong to the pool, not the column).
    pub fn resident_bytes(&self) -> usize {
        match &self.data {
            ColumnData::Resident { coeffs, mask } => coeffs.len() * 8 + mask.len() * 8,
            ColumnData::Paged { .. } => 0,
        }
    }

    /// Bytes of chunk payload in the spill file (0 for resident columns).
    pub fn spilled_bytes(&self) -> usize {
        match &self.data {
            ColumnData::Resident { .. } => 0,
            ColumnData::Paged { .. } => self.chunks.len() * PAGE_BYTES,
        }
    }

    /// Pins chunk `c` and returns a cursor over its payload. Scan loops call
    /// this once per chunk and index inside the guard — one buffer-pool
    /// round-trip per [`crate::par::CHUNK_WIDTH`] elements.
    #[inline]
    pub fn chunk(&self, c: usize) -> ColumnChunk<'_> {
        let r = chunk_range(c, self.len);
        match &self.data {
            ColumnData::Resident { coeffs, mask } => ColumnChunk::Resident {
                coeffs: &coeffs[r],
                mask: &mask[c * MASK_WORDS_PER_CHUNK..(c + 1) * MASK_WORDS_PER_CHUNK],
            },
            ColumnData::Paged { store, first_page } => ColumnChunk::Paged {
                guard: store.read(first_page + c as u64),
                len: r.len(),
            },
        }
    }

    /// The coefficient of element `idx`. Pins the element's chunk for paged
    /// columns, so this point accessor (like [`TermColumn::included_at`] and
    /// [`TermColumn::entry_at`]) is for `O(|package|)` access only: applying
    /// a move, rescanning the members, reading a move's changed indices. No
    /// scan over the candidates calls it per candidate; such scans pin each
    /// chunk once ([`TermColumn::chunk`]).
    #[inline]
    pub fn coeff_at(&self, idx: usize) -> f64 {
        match &self.data {
            ColumnData::Resident { coeffs, .. } => coeffs[idx],
            ColumnData::Paged { store, first_page } => {
                let g = store.read(first_page + (idx / CHUNK_WIDTH) as u64);
                g.coeffs(CHUNK_WIDTH)[idx % CHUNK_WIDTH]
            }
        }
    }

    /// Whether element `idx` is included. For `O(|package|)` access only,
    /// like [`TermColumn::coeff_at`]; no candidate scan calls it per
    /// candidate.
    #[inline]
    pub fn included_at(&self, idx: usize) -> bool {
        match &self.data {
            ColumnData::Resident { mask, .. } => mask_bit(mask, idx),
            ColumnData::Paged { store, first_page } => {
                let g = store.read(first_page + (idx / CHUNK_WIDTH) as u64);
                g.included(idx % CHUNK_WIDTH)
            }
        }
    }

    /// `(coefficient, included)` of element `idx` with a single chunk pin.
    /// For `O(|package|)` access only, like [`TermColumn::coeff_at`]:
    /// [`ViewState::apply`], the MIN/MAX member rescan and
    /// [`ViewState::score_with`]'s read of a move's changed indices. No
    /// scan over the candidates calls it per candidate: the repair and
    /// local-search scans score from column chunks pinned once per chunk.
    #[inline]
    pub fn entry_at(&self, idx: usize) -> (f64, bool) {
        match &self.data {
            ColumnData::Resident { coeffs, mask } => (coeffs[idx], mask_bit(mask, idx)),
            ColumnData::Paged { store, first_page } => {
                let g = store.read(first_page + (idx / CHUNK_WIDTH) as u64);
                (
                    g.coeffs(CHUNK_WIDTH)[idx % CHUNK_WIDTH],
                    g.included(idx % CHUNK_WIDTH),
                )
            }
        }
    }

    /// The spill store holding the payload of a paged column.
    fn spill_store(&self) -> Option<&Arc<SpillStore>> {
        match &self.data {
            ColumnData::Resident { .. } => None,
            ColumnData::Paged { store, .. } => Some(store),
        }
    }

    /// The resident coefficient slice, when there is one — the fast path
    /// scan loops take before falling back to chunk cursors.
    pub fn resident_coeffs(&self) -> Option<&[f64]> {
        match &self.data {
            ColumnData::Resident { coeffs, .. } => Some(coeffs),
            ColumnData::Paged { .. } => None,
        }
    }

    /// Copies the whole coefficient column out as a dense vector (chunk by
    /// chunk, in chunk order). Used where a dense row is genuinely required
    /// — ILP linearization — and by tests.
    pub fn coeffs_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len);
        for c in 0..self.chunks.len() {
            out.extend_from_slice(self.chunk(c).coeffs());
        }
        out
    }

    /// Copies the whole inclusion column out as a dense vector.
    pub fn included_vec(&self) -> Vec<bool> {
        let mut out = Vec::with_capacity(self.len);
        for c in 0..self.chunks.len() {
            let chunk = self.chunk(c);
            out.extend((0..chunk.len()).map(|i| chunk.included(i)));
        }
        out
    }

    /// Gathers `coeffs[indices[p]]` for every `p`, pinning each distinct
    /// chunk once (positions are visited bucketed by chunk, results land in
    /// input order). The partitioner's sort keys come through here.
    pub fn gather_coeffs(&self, indices: &[usize]) -> Vec<f64> {
        match &self.data {
            ColumnData::Resident { coeffs, .. } => indices.iter().map(|&i| coeffs[i]).collect(),
            ColumnData::Paged { .. } => {
                let mut out = vec![0.0; indices.len()];
                let mut order: Vec<u32> = (0..indices.len() as u32).collect();
                order.sort_by_key(|&p| indices[p as usize] / CHUNK_WIDTH);
                let mut pinned: Option<(usize, ColumnChunk<'_>)> = None;
                for &p in &order {
                    let idx = indices[p as usize];
                    let c = idx / CHUNK_WIDTH;
                    if pinned.as_ref().map(|(pc, _)| *pc) != Some(c) {
                        pinned = Some((c, self.chunk(c)));
                    }
                    // pb-lint: allow(no-panic-in-solver-paths) — invariant:
                    // `pinned` was set for chunk `c` just above.
                    out[p as usize] = pinned.as_ref().unwrap().1.coeffs()[idx % CHUNK_WIDTH];
                }
                out
            }
        }
    }

    /// Sum of `coeffs[idx]` over `indices`, accumulated **in input order**
    /// (callers pass ascending member lists, so resident and paged columns
    /// add in the identical order — bit-identical sums). One chunk pin per
    /// run of same-chunk indices.
    pub fn sum_over_sorted(&self, indices: &[usize]) -> f64 {
        match &self.data {
            ColumnData::Resident { coeffs, .. } => indices.iter().map(|&i| coeffs[i]).sum(),
            ColumnData::Paged { .. } => {
                let mut sum = 0.0;
                let mut pinned: Option<(usize, ColumnChunk<'_>)> = None;
                for &idx in indices {
                    let c = idx / CHUNK_WIDTH;
                    if pinned.as_ref().map(|(pc, _)| *pc) != Some(c) {
                        pinned = Some((c, self.chunk(c)));
                    }
                    // pb-lint: allow(no-panic-in-solver-paths) — invariant:
                    // `pinned` was set for chunk `c` just above.
                    sum += pinned.as_ref().unwrap().1.coeffs()[idx % CHUNK_WIDTH];
                }
                sum
            }
        }
    }

    /// `(min, max)` of `coeffs[idx]` over `indices` (`(+∞, -∞)` when empty),
    /// one chunk pin per run of same-chunk indices. Feeds the partitioner's
    /// spread scan on paged columns.
    pub fn minmax_over(&self, indices: &[usize]) -> (f64, f64) {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        match &self.data {
            ColumnData::Resident { coeffs, .. } => {
                for &idx in indices {
                    lo = lo.min(coeffs[idx]);
                    hi = hi.max(coeffs[idx]);
                }
            }
            ColumnData::Paged { .. } => {
                let mut pinned: Option<(usize, ColumnChunk<'_>)> = None;
                for &idx in indices {
                    let c = idx / CHUNK_WIDTH;
                    if pinned.as_ref().map(|(pc, _)| *pc) != Some(c) {
                        pinned = Some((c, self.chunk(c)));
                    }
                    // pb-lint: allow(no-panic-in-solver-paths) — invariant:
                    // `pinned` was set for chunk `c` just above.
                    let v = pinned.as_ref().unwrap().1.coeffs()[idx % CHUNK_WIDTH];
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
            }
        }
        (lo, hi)
    }

    /// The per-chunk metadata, one entry per [`crate::par::CHUNK_WIDTH`]-wide
    /// chunk — always resident, whatever the payload's storage mode, so
    /// metadata consumers ([`crate::pruning::derive_bounds`], the k-d spread
    /// scans) never fault a page.
    pub fn chunk_meta(&self) -> &[ChunkMeta] {
        &self.chunks
    }

    /// Number of included entries (combining chunk metadata).
    pub fn included_count(&self) -> u64 {
        self.chunks.iter().map(|m| m.included as u64).sum()
    }

    /// Sum of the included entries' coefficients, combining the per-chunk
    /// partial sums in chunk order (so the value is bit-identical no matter
    /// how the column was built). Feeds the pruning layer's reachable-sum
    /// infeasibility probe.
    pub fn included_sum(&self) -> f64 {
        self.chunks.iter().map(|m| m.sum).sum()
    }

    /// Minimum coefficient over the included entries (`None` when no entry
    /// is included), combined from the chunk metadata in chunk order.
    pub fn included_min(&self) -> Option<f64> {
        (self.included_count() > 0)
            .then(|| self.chunks.iter().fold(f64::INFINITY, |a, m| a.min(m.min)))
    }

    /// Maximum coefficient over the included entries (`None` when no entry
    /// is included), combined from the chunk metadata in chunk order.
    pub fn included_max(&self) -> Option<f64> {
        (self.included_count() > 0).then(|| {
            self.chunks
                .iter()
                .fold(f64::NEG_INFINITY, |a, m| a.max(m.max))
        })
    }
}

/// Incremental [`TermColumn`] builder: chunks are pushed in chunk order (all
/// full-width except possibly the last) and land either in resident vectors
/// or in a [`SpillStore`]. The per-chunk [`ChunkMeta`] is computed here,
/// from the chunk buffer, *before* the payload is stored — the same values
/// in both modes, which is half of the paged-vs-resident determinism
/// contract (the other half being fixed chunk boundaries).
pub struct ColumnSink {
    func: AggFunc,
    len: usize,
    chunks: Vec<ChunkMeta>,
    mode: SinkMode,
}

enum SinkMode {
    Resident {
        coeffs: Vec<f64>,
        mask: Vec<u64>,
    },
    Paged {
        store: Arc<SpillStore>,
        first_page: Option<u64>,
    },
}

impl ColumnSink {
    /// A sink building a resident column (capacity hint in elements).
    pub fn resident(func: AggFunc, capacity: usize) -> Self {
        ColumnSink {
            func,
            len: 0,
            chunks: Vec::with_capacity(chunk_count(capacity)),
            mode: SinkMode::Resident {
                coeffs: Vec::with_capacity(capacity),
                mask: Vec::with_capacity(chunk_count(capacity) * MASK_WORDS_PER_CHUNK),
            },
        }
    }

    /// A sink spilling chunks to `store` (one view build shares one store
    /// across all its columns — and its buffer pool with every reader).
    pub fn paged(func: AggFunc, store: Arc<SpillStore>) -> Self {
        ColumnSink {
            func,
            len: 0,
            chunks: Vec::new(),
            mode: SinkMode::Paged {
                store,
                first_page: None,
            },
        }
    }

    /// Appends the next chunk (in chunk order; every chunk before the last
    /// must be exactly [`crate::par::CHUNK_WIDTH`] elements).
    pub fn push_chunk(&mut self, coeffs: &[f64], included: &[bool]) -> PbResult<()> {
        assert_eq!(coeffs.len(), included.len());
        assert!(coeffs.len() <= CHUNK_WIDTH);
        assert_eq!(
            self.len % CHUNK_WIDTH,
            0,
            "chunks must be pushed in order, full-width except the last"
        );
        let mut meta = ChunkMeta {
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            included: 0,
        };
        for (i, &inc) in included.iter().enumerate() {
            if inc {
                meta.sum += coeffs[i];
                meta.min = meta.min.min(coeffs[i]);
                meta.max = meta.max.max(coeffs[i]);
                meta.included += 1;
            }
        }
        self.chunks.push(meta);
        self.len += coeffs.len();
        match &mut self.mode {
            SinkMode::Resident { coeffs: out, mask } => {
                out.extend_from_slice(coeffs);
                let mut words = [0u64; MASK_WORDS_PER_CHUNK];
                for (i, &inc) in included.iter().enumerate() {
                    if inc {
                        words[i / 64] |= 1u64 << (i % 64);
                    }
                }
                mask.extend_from_slice(&words);
            }
            SinkMode::Paged { store, first_page } => {
                let page = store
                    .append_chunk(coeffs, included)
                    .map_err(|e| PbError::Internal(format!("column spill write: {e}")))?;
                if first_page.is_none() {
                    *first_page = Some(page);
                }
                debug_assert_eq!(
                    page,
                    // pb-lint: allow(no-panic-in-solver-paths) — invariant:
                    // `first_page` was filled on the first loop iteration;
                    // debug-build consistency check only.
                    first_page.unwrap() + (self.chunks.len() - 1) as u64,
                    "a column's chunks must land on consecutive pages"
                );
            }
        }
        Ok(())
    }

    /// Seals the column.
    pub fn finish(self) -> TermColumn {
        let data = match self.mode {
            SinkMode::Resident { coeffs, mask } => ColumnData::Resident { coeffs, mask },
            SinkMode::Paged { store, first_page } => ColumnData::Paged {
                // An empty paged column never wrote a page; first_page 0 is
                // fine — it has no chunks to address.
                first_page: first_page.unwrap_or(0),
                store,
            },
        };
        TermColumn {
            func: self.func,
            len: self.len,
            data,
            chunks: self.chunks,
        }
    }
}

/// Running aggregates of one term over one package.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TermAccum {
    /// Multiplicity-weighted count of included members.
    pub count: u64,
    /// Multiplicity-weighted sum of included contributions.
    pub sum: f64,
    /// Number of *distinct* included members (drives SQL-NULL semantics and
    /// MIN/MAX recomputation).
    pub distinct: u32,
}

impl TermAccum {
    fn zero() -> Self {
        TermAccum {
            count: 0,
            sum: 0.0,
            distinct: 0,
        }
    }
}

/// A global expression with aggregate calls resolved to term indices.
#[derive(Debug, Clone)]
pub enum CompiledExpr {
    /// A literal constant.
    Literal(f64),
    /// The value of term `TermId`.
    Term(usize),
    /// Arithmetic over sub-expressions.
    Binary {
        /// The operator.
        op: GlobalArithOp,
        /// Left operand.
        lhs: Box<CompiledExpr>,
        /// Right operand.
        rhs: Box<CompiledExpr>,
    },
}

/// A compiled global constraint.
#[derive(Debug, Clone)]
pub struct CompiledConstraint {
    /// Left side.
    pub lhs: CompiledExpr,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right side.
    pub rhs: CompiledExpr,
}

/// A compiled `SUCH THAT` formula.
#[derive(Debug, Clone)]
pub enum CompiledFormula {
    /// A single constraint.
    Atom(CompiledConstraint),
    /// Conjunction.
    And(Box<CompiledFormula>, Box<CompiledFormula>),
    /// Disjunction.
    Or(Box<CompiledFormula>, Box<CompiledFormula>),
    /// Negation.
    Not(Box<CompiledFormula>),
}

/// The columnar form of a package query over its candidate set.
///
/// Built once inside [`crate::spec::PackageSpec::build`]; consumed by every
/// [`crate::solver::Solver`]. The view owns everything a solver needs —
/// candidates, multiplicity bound, term columns, compiled formula/objective,
/// the original ASTs (for bound derivation and diagnostics) and candidate
/// statistics — so solvers never touch the base table.
#[derive(Debug, Clone)]
pub struct CandidateView {
    candidates: Vec<TupleId>,
    max_multiplicity: u32,
    terms: Vec<TermColumn>,
    term_keys: Vec<AggCall>,
    formula: Option<GlobalFormula>,
    compiled_formula: Option<CompiledFormula>,
    objective: Option<Objective>,
    compiled_objective: Option<CompiledExpr>,
    stats: TableStats,
    partition_memo: PartitionMemo,
}

impl CandidateView {
    /// Lowers a query (candidates + formula + objective) into columns,
    /// sequentially and under the environment-derived
    /// [`ColumnPolicy::default`] — [`CandidateView::build_par_with`] with a
    /// 1-thread executor.
    ///
    /// Evaluation errors (non-numeric aggregate arguments, unknown columns)
    /// surface here, once, instead of on every package evaluation.
    pub fn build(
        table: &Table,
        candidates: Vec<TupleId>,
        max_multiplicity: u32,
        formula: Option<GlobalFormula>,
        objective: Option<Objective>,
    ) -> PbResult<Self> {
        Self::build_par_with(
            table,
            candidates,
            max_multiplicity,
            formula,
            objective,
            &ColumnPolicy::default(),
            ParExec::sequential(),
        )
    }

    /// [`CandidateView::build`] with column materialization fanned out over
    /// `par` ([`crate::par::CHUNK_WIDTH`]-wide chunks of the candidate set
    /// per task), under an explicit [`ColumnPolicy`]: the view's columns go
    /// paged when their estimated footprint exceeds the policy's resident
    /// budget (the engine threads
    /// [`crate::config::EngineConfig::column_memory_budget`] through here).
    /// The resulting view is bit-identical at every thread count — chunks
    /// write disjoint fixed ranges and evaluation errors are reported in
    /// chunk order — and storage mode never changes results, only where
    /// column bytes live.
    #[allow(clippy::too_many_arguments)]
    pub fn build_par_with(
        table: &Table,
        candidates: Vec<TupleId>,
        max_multiplicity: u32,
        formula: Option<GlobalFormula>,
        objective: Option<Objective>,
        policy: &ColumnPolicy,
        par: ParExec,
    ) -> PbResult<Self> {
        let rows: Vec<&Tuple> = candidates
            .iter()
            .map(|id| table.require(*id))
            .collect::<Result<_, _>>()?;
        let stats = TableStats::of_row_refs(table.schema(), rows.iter().copied());
        // The prefetched rows ride along so column materialization does not
        // fetch them a second time.
        Self::assemble_impl(
            table,
            candidates,
            stats,
            max_multiplicity,
            formula,
            objective,
            |_| None,
            Some(rows),
            policy,
            par,
        )
    }

    /// Assembles a view from precomputed building blocks: the candidate list
    /// and statistics are adopted verbatim, and each required term column is
    /// first requested from `column_source` — only columns the source does
    /// not have are materialized from the base table, fanned out over `par`
    /// chunk by chunk. With a source that always returns `None` this is
    /// exactly [`CandidateView::build_par_with`]; with the engine's
    /// [`crate::cache::ViewCache`] as the source, a repeated query skips
    /// per-row evaluation entirely and a query that adds aggregate terms
    /// pays only for the new columns.
    ///
    /// The resulting view is bit-identical to a cold [`CandidateView::build`]
    /// of the same query: terms are interned in the query's own discovery
    /// order, so compiled expressions, column order — and therefore solver
    /// results — do not depend on whether columns came from the source.
    /// Columns adopted from the source keep whatever storage mode they were
    /// built with; only the columns this assembly materializes are subject
    /// to `policy` — a view may legitimately mix resident (cached) and paged
    /// (fresh) columns.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble_par_with(
        table: &Table,
        candidates: Vec<TupleId>,
        stats: TableStats,
        max_multiplicity: u32,
        formula: Option<GlobalFormula>,
        objective: Option<Objective>,
        column_source: impl FnMut(&AggCall) -> Option<TermColumn>,
        policy: &ColumnPolicy,
        par: ParExec,
    ) -> PbResult<Self> {
        Self::assemble_impl(
            table,
            candidates,
            stats,
            max_multiplicity,
            formula,
            objective,
            column_source,
            None,
            policy,
            par,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble_impl<'t>(
        table: &'t Table,
        candidates: Vec<TupleId>,
        stats: TableStats,
        max_multiplicity: u32,
        formula: Option<GlobalFormula>,
        objective: Option<Objective>,
        column_source: impl FnMut(&AggCall) -> Option<TermColumn>,
        prefetched: Option<Vec<&'t Tuple>>,
        policy: &ColumnPolicy,
        par: ParExec,
    ) -> PbResult<Self> {
        let schema = table.schema();
        // Candidate rows are only fetched when some column must actually be
        // materialized (and `build` hands down the rows it already fetched
        // for statistics) — on a full cache hit the table is never touched.
        let mut rows: Option<Vec<&Tuple>> = prefetched;

        // Collect the distinct aggregate terms of the formula and objective.
        let mut term_keys: Vec<AggCall> = Vec::new();
        let mut intern = |call: &AggCall, keys: &mut Vec<AggCall>| -> usize {
            match keys.iter().position(|k| k == call) {
                Some(i) => i,
                None => {
                    keys.push(call.clone());
                    keys.len() - 1
                }
            }
        };
        fn compile_expr(
            expr: &GlobalExpr,
            keys: &mut Vec<AggCall>,
            intern: &mut impl FnMut(&AggCall, &mut Vec<AggCall>) -> usize,
        ) -> CompiledExpr {
            match expr {
                GlobalExpr::Literal(x) => CompiledExpr::Literal(*x),
                GlobalExpr::Agg(call) => CompiledExpr::Term(intern(call, keys)),
                GlobalExpr::Binary { op, lhs, rhs } => CompiledExpr::Binary {
                    op: *op,
                    lhs: Box::new(compile_expr(lhs, keys, intern)),
                    rhs: Box::new(compile_expr(rhs, keys, intern)),
                },
            }
        }
        fn compile_formula(
            formula: &GlobalFormula,
            keys: &mut Vec<AggCall>,
            intern: &mut impl FnMut(&AggCall, &mut Vec<AggCall>) -> usize,
        ) -> CompiledFormula {
            match formula {
                GlobalFormula::Atom(c) => CompiledFormula::Atom(CompiledConstraint {
                    lhs: compile_expr(&c.lhs, keys, intern),
                    op: c.op,
                    rhs: compile_expr(&c.rhs, keys, intern),
                }),
                GlobalFormula::And(a, b) => CompiledFormula::And(
                    Box::new(compile_formula(a, keys, intern)),
                    Box::new(compile_formula(b, keys, intern)),
                ),
                GlobalFormula::Or(a, b) => CompiledFormula::Or(
                    Box::new(compile_formula(a, keys, intern)),
                    Box::new(compile_formula(b, keys, intern)),
                ),
                GlobalFormula::Not(a) => {
                    CompiledFormula::Not(Box::new(compile_formula(a, keys, intern)))
                }
            }
        }
        let compiled_formula = formula
            .as_ref()
            .map(|f| compile_formula(f, &mut term_keys, &mut intern));
        let compiled_objective = objective
            .as_ref()
            .map(|o| compile_expr(&o.expr, &mut term_keys, &mut intern));

        // Materialize one column pair per term, unless the source already
        // has the column (a cache hit on that term). Materialization fans
        // out over fixed-width candidate chunks: each chunk evaluates its
        // rows into chunk-local buffers, and the buffers are pushed into a
        // [`ColumnSink`] in chunk order — disjoint fixed ranges, so the
        // column (and any evaluation error: first failing chunk, first
        // failing row) is identical at every thread count and storage mode.
        //
        // The storage decision is made once, view-level, over the columns
        // this assembly actually has to build (source-adopted columns keep
        // their mode): if their estimated footprint exceeds the policy's
        // budget, all of them spill to one shared store. Paged builds
        // materialize in bounded segments so the transient chunk buffers —
        // not just the finished column — stay small.
        let sourced: Vec<Option<TermColumn>> = term_keys.iter().map(column_source).collect();
        let missing = sourced.iter().filter(|s| s.is_none()).count();
        let store = if policy.wants_paged(missing, candidates.len()) {
            Some(
                SpillStore::create(policy.pool_pages)
                    .map_err(|e| PbError::Internal(format!("column spill file: {e}")))?,
            )
        } else {
            None
        };
        let mut terms = Vec::with_capacity(term_keys.len());
        for (call, cached) in term_keys.iter().zip(sourced) {
            if let Some(column) = cached {
                debug_assert_eq!(column.len(), candidates.len());
                terms.push(column);
                continue;
            }
            let rows = match rows {
                Some(ref rows) => rows,
                None => {
                    let fetched = candidates
                        .iter()
                        .map(|id| table.require(*id))
                        .collect::<Result<Vec<_>, _>>()?;
                    rows.get_or_insert(fetched)
                }
            };
            let mut sink = match &store {
                Some(store) => ColumnSink::paged(call.func, Arc::clone(store)),
                None => ColumnSink::resident(call.func, candidates.len()),
            };
            // Segment starts are multiples of CHUNK_WIDTH, so the chunks a
            // segment fans out are exactly the column's global chunks.
            let seg = BUILD_SEGMENT_CHUNKS * CHUNK_WIDTH;
            let mut start = 0;
            while start < candidates.len() {
                let end = (start + seg).min(candidates.len());
                let chunks = par.run_chunks(end - start, |_, range| {
                    materialize_chunk(call, schema, &rows[start + range.start..start + range.end])
                });
                for chunk in chunks {
                    let (c, inc) = chunk?;
                    sink.push_chunk(&c, &inc)?;
                }
                start = end;
            }
            terms.push(sink.finish());
        }

        Ok(CandidateView {
            candidates,
            max_multiplicity,
            terms,
            term_keys,
            formula,
            compiled_formula,
            objective,
            compiled_objective,
            stats,
            partition_memo: PartitionMemo::default(),
        })
    }

    /// The sketch→refine partitioning of this view's candidates, memoized
    /// per `(max_partition_size, seed)`: computed on first request (honouring
    /// `budget` — `None` on expiry, and nothing is memoized), returned from
    /// the memo afterwards. Clones of a view share the memo, and a view
    /// assembled through the engine's [`crate::cache::ViewCache`] shares it
    /// with every past and future view of the same cached columns — which is
    /// how a repeated query skips partitioning entirely.
    ///
    /// A memoized partitioning is identical to a freshly computed one
    /// ([`crate::partition::partition_view`] is deterministic per seed), so
    /// results never depend on whether this hit the memo.
    pub fn partitioning(
        &self,
        max_partition_size: usize,
        seed: u64,
        budget: &Budget,
        par: ParExec,
    ) -> Option<Arc<Partitioning>> {
        self.partition_memo
            .get_or_compute(self, max_partition_size, seed, budget, par)
    }

    /// The progressive-shading partition tree over this view's candidates,
    /// memoized per `(leaf_size, fanout, seed)` beside the flat
    /// partitionings — and *sharing* the `(leaf_size, seed)` leaf
    /// partitioning with them (one `Arc`), so the flat and hierarchical
    /// sketch solvers, which both partition at `shade_leaf_size`, pay for
    /// the leaves once between them. `None` on budget expiry (nothing is
    /// memoized), like [`CandidateView::partitioning`].
    pub fn partition_tree(
        &self,
        leaf_size: usize,
        fanout: usize,
        seed: u64,
        budget: &Budget,
        par: ParExec,
    ) -> Option<Arc<crate::partition::PartitionTree>> {
        self.partition_memo
            .tree_or_compute(self, leaf_size, fanout, seed, budget, par)
    }

    /// Replaces the partition memo (the cache wires in the shared, per-column
    /// -signature memo after assembly — see [`crate::cache::ViewCache`]).
    pub(crate) fn set_partition_memo(&mut self, memo: PartitionMemo) {
        self.partition_memo = memo;
    }

    /// The view's partition memo (shared with clones of this view).
    pub fn partition_memo(&self) -> &PartitionMemo {
        &self.partition_memo
    }

    /// The candidate tuples, in id order.
    pub fn candidates(&self) -> &[TupleId] {
        &self.candidates
    }

    /// Number of candidates (`n` in the paper's complexity discussion).
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// Maximum multiplicity of a tuple in a package (from `REPEAT`).
    pub fn max_multiplicity(&self) -> u32 {
        self.max_multiplicity
    }

    /// The original `SUCH THAT` formula, if any.
    pub fn formula(&self) -> Option<&GlobalFormula> {
        self.formula.as_ref()
    }

    /// The original objective, if any.
    pub fn objective(&self) -> Option<&Objective> {
        self.objective.as_ref()
    }

    /// The objective direction (`Maximize` when absent, matching the
    /// engine-wide default).
    pub fn direction(&self) -> ObjectiveDirection {
        self.objective
            .as_ref()
            .map(|o| o.direction)
            .unwrap_or(ObjectiveDirection::Maximize)
    }

    /// The compiled formula.
    pub fn compiled_formula(&self) -> Option<&CompiledFormula> {
        self.compiled_formula.as_ref()
    }

    /// The compiled objective expression.
    pub fn compiled_objective(&self) -> Option<&CompiledExpr> {
        self.compiled_objective.as_ref()
    }

    /// The aggregate terms, indexed by the ids in compiled expressions.
    pub fn terms(&self) -> &[TermColumn] {
        &self.terms
    }

    /// The source aggregate call of each term.
    pub fn term_keys(&self) -> &[AggCall] {
        &self.term_keys
    }

    /// True when any term column's payload is paged (out-of-core).
    pub fn is_paged(&self) -> bool {
        self.terms.iter().any(|t| t.is_paged())
    }

    /// Total in-memory column-payload bytes across the view's terms.
    pub fn resident_bytes(&self) -> usize {
        self.terms.iter().map(|t| t.resident_bytes()).sum()
    }

    /// Total spill-file column-payload bytes across the view's terms.
    pub fn spilled_bytes(&self) -> usize {
        self.terms.iter().map(|t| t.spilled_bytes()).sum()
    }

    /// Buffer-pool counters of the view's own spill stores, each distinct
    /// store counted once (all zero for a resident view). Unlike the
    /// process-wide [`crate::column_store::pool_stats`], other views' stores
    /// do not leak in; reads of a store shared through the
    /// [`crate::cache::ViewCache`] are counted for every view using it.
    pub fn pool_counters(&self) -> PoolStats {
        let mut stores: Vec<&Arc<SpillStore>> = Vec::new();
        for store in self.terms.iter().filter_map(|t| t.spill_store()) {
            if !stores.iter().any(|s| Arc::ptr_eq(s, store)) {
                stores.push(store);
            }
        }
        let mut stats = PoolStats::default();
        for store in stores {
            let (hits, misses, evictions) = store.counters();
            stats.hits += hits;
            stats.misses += misses;
            stats.evictions += evictions;
            stats.pages_spilled += store.page_count();
        }
        stats
    }

    /// Pins column chunk `c` of every term at once: one buffer-pool read per
    /// term for a paged view, none for a resident one. Candidate scans chunk
    /// their range with [`crate::par::ParExec::run_chunks`] over
    /// [`CandidateView::candidate_count`], so the scan's chunk `c` is this
    /// column chunk `c`, and every candidate of the range is scored from the
    /// pinned slices ([`PinnedChunk::entries`] filling
    /// [`ViewState::score_by`] or [`ViewState::violation_by`]).
    pub(crate) fn pin_chunk(&self, c: usize) -> PinnedChunk<'_> {
        PinnedChunk {
            start: c * CHUNK_WIDTH,
            chunks: self.terms.iter().map(|t| t.chunk(c)).collect(),
        }
    }

    /// Statistics over the candidate tuples (drives cardinality pruning and
    /// the greedy heuristics).
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Index of a tuple within the candidate set (candidates are in id
    /// order, so this is a binary search).
    pub fn index_of(&self, tuple: TupleId) -> Option<usize> {
        self.candidates.binary_search(&tuple).ok()
    }

    /// Lowers a package onto the candidate index space; `None` when some
    /// member is not a candidate (i.e. the package violates a base
    /// constraint).
    pub fn project(&self, package: &Package) -> Option<ViewState<'_>> {
        let mut state = ViewState::empty(self);
        for (tid, mult) in package.members() {
            let idx = self.index_of(tid)?;
            state.apply(idx, mult as i64);
        }
        Some(state)
    }

    /// True when `package` is a valid answer: every member is a candidate,
    /// multiplicities respect `REPEAT`, and the formula holds.
    pub fn is_valid(&self, package: &Package) -> bool {
        if package.max_multiplicity() > self.max_multiplicity {
            return false;
        }
        match self.project(package) {
            None => false,
            Some(state) => state.is_feasible(),
        }
    }

    /// Objective value of a package (`None` when the query has no objective,
    /// the objective is un-evaluable, or the package strays outside the
    /// candidate set).
    pub fn objective_value(&self, package: &Package) -> Option<f64> {
        self.project(package)?.objective_value()
    }

    /// Total constraint violation of a package (0 when feasible). Packages
    /// containing non-candidates get the un-evaluable penalty per atom.
    pub fn violation(&self, package: &Package) -> f64 {
        match self.project(package) {
            Some(state) => state.violation(),
            None => UNEVALUABLE_PENALTY,
        }
    }
}

/// Evaluates one fixed-width chunk of a term column into chunk-local
/// coefficient/inclusion buffers (stitched back in chunk order by the
/// caller — see [`CandidateView::assemble_par_with`]). Pure per-row work, which
/// is what makes the chunk fan-out deterministic.
fn materialize_chunk(
    call: &AggCall,
    schema: &minidb::Schema,
    rows: &[&Tuple],
) -> PbResult<(Vec<f64>, Vec<bool>)> {
    let mut coeffs = vec![0.0; rows.len()];
    let mut included = vec![false; rows.len()];
    for (i, tuple) in rows.iter().enumerate() {
        if let Some(filter) = &call.filter {
            if !eval_predicate(filter, schema, tuple)? {
                continue;
            }
        }
        match &call.arg {
            None => {
                // COUNT(*): every filtered-in member contributes 1.
                coeffs[i] = 1.0;
                included[i] = true;
            }
            Some(arg) => {
                let v = eval(arg, schema, tuple)?;
                if v.is_null() {
                    // NULL arguments are skipped for every aggregate
                    // (COUNT(expr) included), matching SQL.
                    continue;
                }
                let value = v.expect_f64(&format!("argument of {}", call.func.name()))?;
                // COUNT(expr) counts included members: its linear
                // coefficient is 1, not the argument's value.
                coeffs[i] = if call.func == AggFunc::Count {
                    1.0
                } else {
                    value
                };
                included[i] = true;
            }
        }
    }
    Ok((coeffs, included))
}

/// Incremental package accumulator over a [`CandidateView`].
///
/// Holds the multiplicity multiset (by candidate index) and the running
/// [`TermAccum`] per term, so evaluating a candidate move is `O(#terms)` —
/// plus an `O(|package|)` rescan only for MIN/MAX terms, which have no
/// constant-time delta. This is the structure behind the local search's
/// delta evaluation of swap moves.
#[derive(Debug, Clone)]
pub struct ViewState<'v> {
    view: &'v CandidateView,
    members: BTreeMap<usize, u32>,
    accums: Vec<TermAccum>,
    cardinality: u64,
}

impl<'v> ViewState<'v> {
    /// The empty package.
    pub fn empty(view: &'v CandidateView) -> Self {
        ViewState {
            view,
            members: BTreeMap::new(),
            accums: vec![TermAccum::zero(); view.terms.len()],
            cardinality: 0,
        }
    }

    /// The view this state accumulates over.
    pub fn view(&self) -> &'v CandidateView {
        self.view
    }

    /// Total cardinality (counting multiplicities).
    pub fn cardinality(&self) -> u64 {
        self.cardinality
    }

    /// Multiplicity of the candidate at `idx`.
    #[inline]
    pub fn multiplicity(&self, idx: usize) -> u32 {
        self.members.get(&idx).copied().unwrap_or(0)
    }

    /// Distinct member indices, ascending.
    pub fn member_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.members.keys().copied()
    }

    /// Applies a multiplicity delta to one candidate (delta may be negative;
    /// multiplicities clamp at zero).
    pub fn apply(&mut self, idx: usize, delta: i64) {
        if delta == 0 {
            return;
        }
        let old = self.multiplicity(idx);
        let new = (old as i64 + delta).max(0) as u32;
        if new == old {
            return;
        }
        if new == 0 {
            self.members.remove(&idx);
        } else {
            self.members.insert(idx, new);
        }
        let applied = new as i64 - old as i64;
        self.cardinality = (self.cardinality as i64 + applied) as u64;
        for (term, accum) in self.view.terms.iter().zip(self.accums.iter_mut()) {
            let (coeff, inc) = term.entry_at(idx);
            if !inc {
                continue;
            }
            accum.count = (accum.count as i64 + applied) as u64;
            accum.sum += coeff * applied as f64;
            if old == 0 {
                accum.distinct += 1;
            } else if new == 0 {
                accum.distinct -= 1;
            }
        }
    }

    /// Converts the accumulated multiset back into a [`Package`].
    pub fn to_package(&self) -> Package {
        Package::from_members(
            self.members
                .iter()
                .map(|(&idx, &m)| (self.view.candidates[idx], m)),
        )
    }

    /// The value of one term under the current accumulators, with the exact
    /// NULL semantics of the interpreted path.
    pub fn term_value(&self, term_id: usize) -> Option<f64> {
        let term = &self.view.terms[term_id];
        let accum = &self.accums[term_id];
        match term.func {
            AggFunc::Count => Some(accum.count as f64),
            AggFunc::Sum => (accum.distinct > 0).then_some(accum.sum),
            AggFunc::Avg => (accum.count > 0).then(|| accum.sum / accum.count as f64),
            AggFunc::Min | AggFunc::Max => self.min_max(term_id),
        }
    }

    /// MIN/MAX over the distinct included members (multiplicity-independent,
    /// like the interpreted path). `O(|package|)` — there is no constant-time
    /// delta for extrema.
    fn min_max(&self, term_id: usize) -> Option<f64> {
        let term = &self.view.terms[term_id];
        let mut best: Option<f64> = None;
        for &idx in self.members.keys() {
            let (v, inc) = term.entry_at(idx);
            if !inc {
                continue;
            }
            best = Some(match (best, term.func) {
                (None, _) => v,
                (Some(b), AggFunc::Min) => b.min(v),
                (Some(b), _) => b.max(v),
            });
        }
        best
    }

    /// Evaluates a compiled expression; `None` on NULL sub-aggregates or
    /// division by zero (SQL semantics, identical to the interpreted path).
    pub fn eval_expr(&self, expr: &CompiledExpr) -> Option<f64> {
        match expr {
            CompiledExpr::Literal(x) => Some(*x),
            CompiledExpr::Term(id) => self.term_value(*id),
            CompiledExpr::Binary { op, lhs, rhs } => {
                let a = self.eval_expr(lhs)?;
                let b = self.eval_expr(rhs)?;
                match op {
                    GlobalArithOp::Add => Some(a + b),
                    GlobalArithOp::Sub => Some(a - b),
                    GlobalArithOp::Mul => Some(a * b),
                    GlobalArithOp::Div => (b != 0.0).then_some(a / b),
                }
            }
        }
    }

    fn constraint_satisfied(&self, c: &CompiledConstraint) -> bool {
        match (self.eval_expr(&c.lhs), self.eval_expr(&c.rhs)) {
            (Some(a), Some(b)) => c.op.compare(a, b),
            _ => false,
        }
    }

    fn formula_satisfied(&self, f: &CompiledFormula) -> bool {
        match f {
            CompiledFormula::Atom(c) => self.constraint_satisfied(c),
            CompiledFormula::And(a, b) => self.formula_satisfied(a) && self.formula_satisfied(b),
            CompiledFormula::Or(a, b) => self.formula_satisfied(a) || self.formula_satisfied(b),
            CompiledFormula::Not(a) => !self.formula_satisfied(a),
        }
    }

    fn constraint_violation(&self, c: &CompiledConstraint) -> f64 {
        let (a, b) = match (self.eval_expr(&c.lhs), self.eval_expr(&c.rhs)) {
            (Some(a), Some(b)) => (a, b),
            _ => return UNEVALUABLE_PENALTY,
        };
        match c.op {
            CmpOp::Eq => (a - b).abs(),
            CmpOp::NotEq => {
                if c.op.compare(a, b) {
                    0.0
                } else {
                    1.0
                }
            }
            CmpOp::Lt | CmpOp::LtEq => (a - b).max(0.0),
            CmpOp::Gt | CmpOp::GtEq => (b - a).max(0.0),
        }
    }

    fn formula_violation(&self, f: &CompiledFormula) -> f64 {
        match f {
            CompiledFormula::Atom(c) => self.constraint_violation(c),
            CompiledFormula::And(a, b) => self.formula_violation(a) + self.formula_violation(b),
            CompiledFormula::Or(a, b) => self.formula_violation(a).min(self.formula_violation(b)),
            CompiledFormula::Not(a) => {
                if self.formula_satisfied(a) {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// True when the formula holds (multiplicity bounds are checked by the
    /// caller — the state clamps to the candidate space by construction).
    pub fn is_feasible(&self) -> bool {
        if self
            .members
            .values()
            .any(|&m| m > self.view.max_multiplicity)
        {
            return false;
        }
        match &self.view.compiled_formula {
            None => true,
            Some(f) => self.formula_satisfied(f),
        }
    }

    /// Total violation (0 when feasible).
    pub fn violation(&self) -> f64 {
        match &self.view.compiled_formula {
            None => 0.0,
            Some(f) => self.formula_violation(f),
        }
    }

    /// Objective value (`None` when absent or un-evaluable).
    pub fn objective_value(&self) -> Option<f64> {
        let expr = self.view.compiled_objective.as_ref()?;
        self.eval_expr(expr)
    }

    /// `(violation, objective)` — the lexicographic score the local search
    /// hill-climbs on.
    pub fn score(&self) -> (f64, Option<f64>) {
        (self.violation(), self.objective_value())
    }

    /// Scores the state *as if* `changes` (candidate index, multiplicity
    /// delta) were applied, without mutating it. This is the delta evaluation
    /// behind swap moves: `O(#terms · #changes)` plus a member rescan for
    /// MIN/MAX terms only. The changed indices' entries are read with one
    /// [`TermColumn::entry_at`] per (change, term); candidate scans use
    /// `score_by` to fill them from chunks pinned once instead.
    pub fn score_with(&self, changes: &[(usize, i64)]) -> (f64, Option<f64>) {
        let terms = &self.view.terms;
        self.score_by(changes, |idx, out| {
            for (entry, term) in out.iter_mut().zip(terms) {
                *entry = term.entry_at(idx);
            }
        })
    }

    /// [`ViewState::score_with`] with the changed indices' entries written by
    /// `fill(idx, out)` (one `out` slot per term) instead of read from the
    /// columns: scans fill them from chunks they pinned once
    /// ([`PinnedChunk::entries`]). Bit-identical to `score_with` whenever
    /// `fill` writes the column's entries; it only skips the per-entry pool
    /// reads.
    pub(crate) fn score_by(
        &self,
        changes: &[(usize, i64)],
        fill: impl Fn(usize, &mut [(f64, bool)]),
    ) -> (f64, Option<f64>) {
        self.overlay(changes, fill, |scratch| {
            (scratch.violation(), scratch.objective_value())
        })
    }

    /// The violation half of [`ViewState::score_by`], for scans that keep
    /// nothing else (the feasibility repair).
    pub(crate) fn violation_by(
        &self,
        changes: &[(usize, i64)],
        fill: impl Fn(usize, &mut [(f64, bool)]),
    ) -> f64 {
        self.overlay(changes, fill, |scratch| scratch.violation())
    }

    /// Runs `score` on a [`Scratch`] overlay of `changes`, whose per-term
    /// entries `fill(idx, out)` writes first (one `out` slot per term). The
    /// buffer lives on the stack for the small move vectors every scan uses.
    fn overlay<R>(
        &self,
        changes: &[(usize, i64)],
        fill: impl Fn(usize, &mut [(f64, bool)]),
        score: impl FnOnce(&mut Scratch<'_, 'v>) -> R,
    ) -> R {
        const INLINE_ENTRIES: usize = 32;
        let terms = self.view.terms.len();
        let len = changes.len() * terms;
        let mut inline = [(0.0, false); INLINE_ENTRIES];
        let mut heap = Vec::new();
        let entries: &mut [(f64, bool)] = if len <= INLINE_ENTRIES {
            &mut inline[..len]
        } else {
            heap.resize(len, (0.0, false));
            &mut heap
        };
        if terms > 0 {
            for (out, &(idx, _)) in entries.chunks_exact_mut(terms).zip(changes) {
                fill(idx, out);
            }
        }
        score(&mut Scratch {
            base: self,
            changes,
            entries,
        })
    }
}

/// Column chunk `c` of every term of a view, pinned together by
/// [`CandidateView::pin_chunk`] for a scan over the chunk's candidates.
pub(crate) struct PinnedChunk<'v> {
    /// Candidate index of the chunk's first element.
    start: usize,
    /// One pinned chunk per term, in term order.
    chunks: Vec<ColumnChunk<'v>>,
}

impl PinnedChunk<'_> {
    /// Writes `(coefficient, included)` of candidate `idx` (which must lie
    /// in this chunk) for every term into `out`.
    #[inline]
    pub(crate) fn entries(&self, idx: usize, out: &mut [(f64, bool)]) {
        let i = idx - self.start;
        for (entry, chunk) in out.iter_mut().zip(&self.chunks) {
            *entry = (chunk.coeffs()[i], chunk.included(i));
        }
    }
}

/// A lightweight "state + pending changes" overlay used by
/// [`ViewState::score_with`] and [`ViewState::score_by`]. Term accumulators
/// are adjusted on the fly from the changed indices' prefetched entries;
/// membership queries consult the overlay first.
struct Scratch<'s, 'v> {
    base: &'s ViewState<'v>,
    changes: &'s [(usize, i64)],
    /// `(coefficient, included)` per (change, term), change-major: the entry
    /// of `changes[pos]` for term `t` is at `pos · #terms + t`.
    entries: &'s [(f64, bool)],
}

impl Scratch<'_, '_> {
    #[inline]
    fn multiplicity(&self, idx: usize) -> u32 {
        let mut m = self.base.multiplicity(idx) as i64;
        for &(i, d) in self.changes {
            if i == idx {
                m += d;
            }
        }
        m.max(0) as u32
    }

    /// The prefetched `(coefficient, included)` of `changes[pos]` for a term.
    #[inline]
    fn entry(&self, pos: usize, term_id: usize) -> (f64, bool) {
        self.entries[pos * self.base.view.terms.len() + term_id]
    }

    #[inline]
    fn accum(&self, term_id: usize) -> TermAccum {
        let mut accum = self.base.accums[term_id];
        // Process each distinct index once (repeated deltas to one candidate
        // — k=2 moves may touch the same index twice — are netted through
        // `multiplicity`). Move vectors are tiny, so the quadratic
        // first-occurrence scan beats any allocation.
        for (pos, &(idx, _)) in self.changes.iter().enumerate() {
            if self.changes[..pos].iter().any(|&(i, _)| i == idx) {
                continue;
            }
            let (coeff, inc) = self.entry(pos, term_id);
            if !inc {
                continue;
            }
            let old = self.base.multiplicity(idx);
            let new = self.multiplicity(idx);
            let applied = new as i64 - old as i64;
            if applied == 0 {
                continue;
            }
            accum.count = (accum.count as i64 + applied) as u64;
            accum.sum += coeff * applied as f64;
            if old == 0 && new > 0 {
                accum.distinct += 1;
            } else if old > 0 && new == 0 {
                accum.distinct -= 1;
            }
        }
        accum
    }

    #[inline]
    fn term_value(&mut self, term_id: usize) -> Option<f64> {
        let term = &self.base.view.terms[term_id];
        let accum = self.accum(term_id);
        match term.func {
            AggFunc::Count => Some(accum.count as f64),
            AggFunc::Sum => (accum.distinct > 0).then_some(accum.sum),
            AggFunc::Avg => (accum.count > 0).then(|| accum.sum / accum.count as f64),
            AggFunc::Min | AggFunc::Max => self.min_max(term_id),
        }
    }

    /// MIN/MAX rescan over base members plus changed indices.
    fn min_max(&self, term_id: usize) -> Option<f64> {
        let term = &self.base.view.terms[term_id];
        let mut best: Option<f64> = None;
        let mut consider = |mult: u32, (v, inc): (f64, bool)| {
            if mult == 0 || !inc {
                return;
            }
            best = Some(match (best, term.func) {
                (None, _) => v,
                (Some(b), AggFunc::Min) => b.min(v),
                (Some(b), _) => b.max(v),
            });
        };
        for (&idx, &m) in &self.base.members {
            if self.changes.iter().any(|&(i, _)| i == idx) {
                continue; // handled below with the overlay multiplicity
            }
            consider(m, term.entry_at(idx));
        }
        for (pos, &(idx, _)) in self.changes.iter().enumerate() {
            consider(self.multiplicity(idx), self.entry(pos, term_id));
        }
        best
    }

    fn eval_expr(&mut self, expr: &CompiledExpr) -> Option<f64> {
        match expr {
            CompiledExpr::Literal(x) => Some(*x),
            CompiledExpr::Term(id) => self.term_value(*id),
            CompiledExpr::Binary { op, lhs, rhs } => {
                let a = self.eval_expr(lhs)?;
                let b = self.eval_expr(rhs)?;
                match op {
                    GlobalArithOp::Add => Some(a + b),
                    GlobalArithOp::Sub => Some(a - b),
                    GlobalArithOp::Mul => Some(a * b),
                    GlobalArithOp::Div => (b != 0.0).then_some(a / b),
                }
            }
        }
    }

    fn constraint_violation(&mut self, c: &CompiledConstraint) -> f64 {
        let (a, b) = match (self.eval_expr(&c.lhs), self.eval_expr(&c.rhs)) {
            (Some(a), Some(b)) => (a, b),
            _ => return UNEVALUABLE_PENALTY,
        };
        match c.op {
            CmpOp::Eq => (a - b).abs(),
            CmpOp::NotEq => {
                if c.op.compare(a, b) {
                    0.0
                } else {
                    1.0
                }
            }
            CmpOp::Lt | CmpOp::LtEq => (a - b).max(0.0),
            CmpOp::Gt | CmpOp::GtEq => (b - a).max(0.0),
        }
    }

    fn constraint_satisfied(&mut self, c: &CompiledConstraint) -> bool {
        match (self.eval_expr(&c.lhs), self.eval_expr(&c.rhs)) {
            (Some(a), Some(b)) => c.op.compare(a, b),
            _ => false,
        }
    }

    fn formula_satisfied(&mut self, f: &CompiledFormula) -> bool {
        match f {
            CompiledFormula::Atom(c) => self.constraint_satisfied(c),
            CompiledFormula::And(a, b) => self.formula_satisfied(a) && self.formula_satisfied(b),
            CompiledFormula::Or(a, b) => self.formula_satisfied(a) || self.formula_satisfied(b),
            CompiledFormula::Not(a) => !self.formula_satisfied(a),
        }
    }

    fn formula_violation(&mut self, f: &CompiledFormula) -> f64 {
        match f {
            CompiledFormula::Atom(c) => self.constraint_violation(c),
            CompiledFormula::And(a, b) => self.formula_violation(a) + self.formula_violation(b),
            CompiledFormula::Or(a, b) => self.formula_violation(a).min(self.formula_violation(b)),
            CompiledFormula::Not(a) => {
                if self.formula_satisfied(a) {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    fn violation(&mut self) -> f64 {
        let base = self.base;
        match &base.view.compiled_formula {
            None => 0.0,
            Some(f) => self.formula_violation(f),
        }
    }

    fn objective_value(&mut self) -> Option<f64> {
        let base = self.base;
        let expr = base.view.compiled_objective.as_ref()?;
        self.eval_expr(expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{recipes, Seed};
    use paql::compile;

    fn view_for(table: &Table, q: &str) -> CandidateView {
        let analyzed = compile(q, table.schema()).unwrap();
        let spec = crate::spec::PackageSpec::build(&analyzed, table).unwrap();
        spec.view().clone()
    }

    const MEAL_QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' \
        SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 MAXIMIZE SUM(P.protein)";

    #[test]
    fn terms_are_deduplicated_across_formula_and_objective() {
        let t = recipes(50, Seed(1));
        let v = view_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT SUM(P.protein) >= 10 AND SUM(P.protein) <= 500 MAXIMIZE SUM(P.protein)",
        );
        assert_eq!(
            v.terms().len(),
            1,
            "one distinct SUM(protein) term expected"
        );
    }

    #[test]
    fn columnar_matches_interpreted_on_the_meal_query() {
        let t = recipes(120, Seed(2));
        let v = view_for(&t, MEAL_QUERY);
        let spec_formula = v.formula().unwrap().clone();
        let objective = v.objective().unwrap().clone();
        for skip in 0..20 {
            let p = Package::from_ids(v.candidates().iter().copied().skip(skip).take(3));
            let interp_violation = p.formula_violation(&t, &spec_formula).unwrap();
            let interp_obj = p.objective_value(&t, &objective).unwrap();
            assert!((v.violation(&p) - interp_violation).abs() < 1e-9);
            assert_eq!(v.objective_value(&p), interp_obj);
            assert_eq!(v.is_valid(&p), interp_violation == 0.0);
        }
    }

    #[test]
    fn delta_scores_match_full_recomputation() {
        let t = recipes(100, Seed(3));
        let v = view_for(&t, MEAL_QUERY);
        let base = Package::from_ids(v.candidates().iter().copied().take(3));
        let state = v.project(&base).unwrap();
        // Swap member 0 out for each other candidate and compare the delta
        // score with a from-scratch projection.
        for inn in 3..v.candidate_count().min(30) {
            let (dv, dobj) = state.score_with(&[(0, -1), (inn, 1)]);
            let mut moved = state.clone();
            moved.apply(0, -1);
            moved.apply(inn, 1);
            let fresh = v.project(&moved.to_package()).unwrap();
            let (fv, fobj) = fresh.score();
            assert!((dv - fv).abs() < 1e-9, "violation delta mismatch at {inn}");
            match (dobj, fobj) {
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9),
                (a, b) => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn membership_outside_candidates_is_invalid() {
        let t = recipes(60, Seed(4));
        let v = view_for(&t, MEAL_QUERY);
        let outsider = (0..60u32)
            .map(TupleId)
            .find(|id| v.index_of(*id).is_none())
            .expect("some recipe has gluten");
        let p = Package::from_ids([v.candidates()[0], outsider]);
        assert!(!v.is_valid(&p));
        assert!(v.objective_value(&p).is_none());
        assert!(v.violation(&p) >= UNEVALUABLE_PENALTY);
    }

    #[test]
    fn min_max_terms_rescan_correctly() {
        let t = recipes(40, Seed(5));
        let v = view_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT COUNT(*) = 2 AND MIN(P.calories) >= 100 MAXIMIZE MAX(P.protein)",
        );
        let ids: Vec<TupleId> = v.candidates().to_vec();
        let p = Package::from_ids(ids.iter().copied().take(2));
        let state = v.project(&p).unwrap();
        let formula = v.formula().unwrap().clone();
        let objective = v.objective().unwrap().clone();
        assert!((state.violation() - p.formula_violation(&t, &formula).unwrap()).abs() < 1e-9);
        assert_eq!(
            state.objective_value(),
            p.objective_value(&t, &objective).unwrap()
        );
        // Delta path for MIN/MAX: swap and compare against the oracle.
        let (dv, dobj) = state.score_with(&[(0, -1), (2, 1)]);
        let q = Package::from_ids([ids[1], ids[2]]);
        assert!((dv - q.formula_violation(&t, &formula).unwrap()).abs() < 1e-9);
        assert_eq!(dobj, q.objective_value(&t, &objective).unwrap());
    }

    #[test]
    fn empty_package_semantics_match_sql() {
        let t = recipes(30, Seed(6));
        let v = view_for(&t, MEAL_QUERY);
        let empty = Package::new();
        // COUNT = 0, SUM = NULL → violation contains the un-evaluable penalty.
        assert!(v.violation(&empty) >= 3.0); // COUNT(*) = 3 violated by 3
        assert_eq!(v.objective_value(&empty), None);
        assert!(!v.is_valid(&empty));
    }
}
