//! Sketch→refine, flat and hierarchical: near-optimal packages over large
//! relations.
//!
//! Monolithic ILP translation puts all `n` candidates in one problem, which
//! is exact but scales poorly (the 25 ms portfolio race at n = 20 000 returns
//! whatever greedy found, because no exact solver can finish in time).
//! SketchRefine (Brucato, Abouzied, Meliou: "Scalable Package Queries in
//! Relational Database Systems", PVLDB 9(7), 2016) showed the scalable
//! alternative: solve a coarse problem first, then localize the exact work.
//! Progressive Shading (Mai, Abouzied, Brucato, Haas, Meliou: "Scaling
//! Package Queries to a Billion Tuples via Hierarchical Partitioning and
//! Customized Optimization", 2023) pushed it to a billion tuples by stacking
//! the coarse problem into a hierarchy — and treats the flat sketch as its
//! one-layer case. This module implements exactly that: one solver body,
//! descending a partition tree over the [`crate::view::CandidateView`]:
//!
//! 1. **Partition** ([`crate::partition`]): size-bounded k-d splits of the
//!    candidate set along the view's term columns — the quality-sensitive
//!    attributes — each leaf partition summarized by its centroid row.
//!    [`ProgressiveShadingSolver`] groups the leaves into a
//!    [`crate::partition::PartitionTree`] (the same k-d split applied to
//!    leaf centroids, until the coarsest layer has at most
//!    [`crate::solver::SolveOptions::shade_fanout`] nodes);
//!    [`SketchRefineSolver`] uses the leaves alone — a tree with no layers.
//! 2. **Sketch, layer by layer**: a small ILP with one integer variable
//!    `y_p ∈ [0, cap_p]` per node (multiplicity bound = node capacity),
//!    whose constraint rows and objective are the *linearized* original
//!    rows aggregated by node mean. Starting at the coarsest layer, only the
//!    nodes the sketch draws from are expanded into their children and
//!    re-sketched, down to the leaves, so every intermediate ILP stays small
//!    regardless of `n`. With no layers, the one leaf sketch covers every
//!    partition — the flat SketchRefine sketch.
//! 3. **Refine**: leaves with `y_p > 0` are refined one at a time — a
//!    sub-ILP over just that partition's real tuples, with every other
//!    partition's contribution fixed (already-refined actuals) or estimated
//!    (still-sketched centroids). A failed sub-ILP triggers the paper's
//!    backtracking rule: the failed partition is re-refined *first* and the
//!    pass restarts; exhausted backtracks degrade to greedy per-partition
//!    fills. Deadline pressure at any point falls back to greedy fills plus
//!    the shared repair pass — every intermediate result honours the anytime
//!    contract (`optimal: false`, never an error, never an overrun).
//!
//! The greedy baseline runs first, so the solver's answer is never worse
//! than [`crate::solver::GreedySolver`]'s — the sketched package only
//! replaces it when it scores strictly better. Inside the default portfolio
//! race this duplicates the separate greedy worker's (cheap) run; that is
//! deliberate: the baseline is what makes this solver's own result
//! anytime-safe and its quality floor deterministic, race or no race.
//!
//! Both solvers partition through the view's memo
//! ([`crate::cache::PartitionMemo`]) at the same leaf size, so the tree's
//! leaf layer *is* the flat partitioning — one `Arc`, shared sub-ILP memo
//! entries — and repeated queries (or portfolio workers racing over clones
//! of one view) partition once.
//!
//! Data parallelism and determinism: the offline partitioning's spread scans
//! and the representative-means matrix fan out over
//! [`crate::solver::SolveOptions::par`] in fixed chunks, with the
//! cooperative budget checked per chunk; layer means are aggregated in
//! ascending child order and the descent's active sets are sorted after
//! every expansion. The refine loop itself stays sequential *by data
//! dependence* — each sub-ILP's right-hand side folds in the actuals of
//! every partition refined before it — so its unit of work (and of budget
//! checking) is one partition. Solves are bit-identical at every thread
//! count and storage mode (`tests/parallel_determinism.rs`,
//! `tests/paged_determinism.rs`).

use std::collections::HashMap;

use lp_solver::{ConstraintOp, Problem, Sense, VarId, VarType};
use paql::ObjectiveDirection;

use crate::cache::SubIlpSolution;
use crate::error::PbError;
use crate::greedy::repair_to_feasibility;
use crate::ilp::{linearize_formula, linearize_objective, LinearConstraint};
use crate::package::Package;
use crate::partition::{Partition, TreeNode};
use crate::result::{EvalStats, StrategyUsed};
use crate::solver::{GreedySolver, SolveOptions, SolveOutcome, Solver};
use crate::view::{CandidateView, ViewState};
use crate::PbResult;

/// How many failed-partition backtracks the refinement tolerates before
/// degrading the remaining sub-problems to greedy fills.
const MAX_BACKTRACKS: usize = 3;

/// Flat partition → sketch → refine evaluation: the descent over a tree
/// with no layers, one sketch over every leaf partition (see the module
/// docs).
///
/// Requires a linearizable query (same condition as [`crate::solver::IlpSolver`]);
/// non-linearizable queries get [`PbError::Unsupported`], which also lets the
/// solver drop out of a portfolio race cleanly. Returns a single package
/// (`num_packages` is a documented no-op here, like the greedy solver).
#[derive(Debug, Clone, Copy, Default)]
pub struct SketchRefineSolver;

impl Solver for SketchRefineSolver {
    fn strategy(&self) -> StrategyUsed {
        StrategyUsed::SketchRefine
    }

    fn solve(&self, view: &CandidateView, opts: &SolveOptions) -> PbResult<SolveOutcome> {
        solve_sketched(view, opts, self.strategy())
    }
}

/// Partition-tree descent evaluation: progressive shading over
/// [`crate::solver::SolveOptions::shade_fanout`]-wide layers, the route for
/// 10^6+ candidates where one flat sketch gets too wide (see the module
/// docs). Same query requirements and anytime contract as
/// [`SketchRefineSolver`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ProgressiveShadingSolver;

impl Solver for ProgressiveShadingSolver {
    fn strategy(&self) -> StrategyUsed {
        StrategyUsed::ProgressiveShading
    }

    fn solve(&self, view: &CandidateView, opts: &SolveOptions) -> PbResult<SolveOutcome> {
        solve_sketched(view, opts, self.strategy())
    }
}

/// The one solver body: linearize, run the greedy baseline, then descend —
/// over the memoized partition tree for [`StrategyUsed::ProgressiveShading`],
/// over the bare leaf partitioning (no layers, no tree memo entry) for
/// [`StrategyUsed::SketchRefine`].
fn solve_sketched(
    view: &CandidateView,
    opts: &SolveOptions,
    strategy: StrategyUsed,
) -> PbResult<SolveOutcome> {
    // pb-lint: allow(time-containment) — stats clock only: stamps elapsed;
    // sketch and refine deadlines go through the budget.
    let start = std::time::Instant::now();
    let rows = linearize_formula(view).map_err(|r| {
        PbError::Unsupported(format!("{strategy} requires a linearizable query: {r}"))
    })?;
    let objective = linearize_objective(view).map_err(|r| {
        PbError::Unsupported(format!("{strategy} requires a linearizable objective: {r}"))
    })?;
    if view.candidate_count() == 0 {
        return Ok(SolveOutcome::empty(strategy, 0, false));
    }

    // Greedy baseline first: the anytime answer, and the floor the sketched
    // package must beat to be returned.
    let baseline = GreedySolver.solve(view, opts)?;
    let mut counters = Counters {
        nodes: baseline.stats.nodes,
        iterations: baseline.stats.iterations,
    };
    let mut best: Option<(Package, Option<f64>)> = baseline.packages.into_iter().next();

    if !opts.budget.expired() {
        // Partitioning is O(n log n) setup; on a nearly-spent budget it is
        // budget-checked per chunk and yields `None` (the baseline stands).
        // Both routes go through the view's memo, so a repeated query — or a
        // second worker over a clone of this view — reuses it.
        let obj_coeffs = objective.as_ref().map(|o| o.coeffs.as_slice());
        let (leaf_size, seed) = (opts.shade_leaf_size, opts.seed);
        let refined = if strategy == StrategyUsed::ProgressiveShading {
            match view.partition_tree(leaf_size, opts.shade_fanout, seed, &opts.budget, opts.par) {
                Some(tree) => {
                    let parts = tree.leaves().partitions();
                    shade_and_refine(
                        view,
                        parts,
                        tree.layers(),
                        &rows,
                        obj_coeffs,
                        opts,
                        &mut counters,
                    )?
                }
                None => None,
            }
        } else {
            match view.partitioning(leaf_size, seed, &opts.budget, opts.par) {
                Some(leaves) => {
                    let parts = leaves.partitions();
                    shade_and_refine(view, parts, &[], &rows, obj_coeffs, opts, &mut counters)?
                }
                None => None,
            }
        };
        if let Some((package, obj)) = refined {
            let replace = match &best {
                None => true,
                Some((_, cur)) => Package::better_objective(view.direction(), obj, *cur),
            };
            if replace {
                best = Some((package, obj));
            }
        }
    }

    Ok(SolveOutcome {
        packages: best.into_iter().collect(),
        optimal: false,
        stats: EvalStats {
            strategy,
            candidates: view.candidate_count(),
            nodes: counters.nodes,
            iterations: counters.iterations,
            elapsed: start.elapsed(),
        },
    })
}

/// Aggregated LP work across every sketch of the descent and every sub-ILP.
struct Counters {
    nodes: u64,
    iterations: u64,
}

/// How many partitions one chunk of the representative-means computation
/// covers: at the default partition size (64), 64 partitions ≈ 4096 member
/// rows per chunk — the same cache-friendly granularity as the columnar
/// chunk width, and fixed (never thread-derived) so the fan-out stays
/// deterministic.
const MEANS_PARTITIONS_PER_CHUNK: usize = 64;

/// Descends `layers` (finest first, as [`crate::partition::PartitionTree`]
/// stores them; empty for the flat sketch) down to a shaded set of the
/// `parts` leaves, then refines them. `Ok(None)` means a sketch was
/// infeasible, the budget ran out mid-descent, or the refined package could
/// not be repaired to feasibility — the greedy baseline then stands. `Err`
/// is reserved for internal invariant violations.
fn shade_and_refine(
    view: &CandidateView,
    parts: &[Partition],
    layers: &[Vec<TreeNode>],
    rows: &[LinearConstraint],
    obj_coeffs: Option<&[f64]>,
    opts: &SolveOptions,
    counters: &mut Counters,
) -> PbResult<Option<(Package, Option<f64>)>> {
    if parts.is_empty() {
        return Ok(None);
    }

    // Leaf representative means, one row per constraint (plus the
    // objective), chunk-fanned over `opts.par` and budget-checked per chunk.
    let mut means: Vec<Vec<f64>> = Vec::with_capacity(rows.len());
    for row in rows {
        match partition_means(parts, &row.coeffs, opts) {
            Some(m) => means.push(m),
            None => return Ok(None),
        }
    }
    let obj_means: Option<Vec<f64>> = match obj_coeffs {
        Some(o) => match partition_means(parts, o, opts) {
            Some(m) => Some(m),
            None => return Ok(None),
        },
        None => None,
    };
    if opts.budget.expired() {
        return Ok(None);
    }

    // Per-layer representative means, aggregated bottom-up from the leaf
    // means: a node's mean is the weight-proportional mean of its children's
    // (accumulated in ascending child order — deterministic). One coefficient
    // row per constraint plus (optionally) the objective, laid out as
    // `layer_means[layer][row][node]` with the objective last when present.
    let mut coeff_rows: Vec<&[f64]> = means.iter().map(|m| m.as_slice()).collect();
    if let Some(om) = obj_means.as_deref() {
        coeff_rows.push(om);
    }
    let mut layer_means: Vec<Vec<Vec<f64>>> = Vec::with_capacity(layers.len());
    for (l, layer) in layers.iter().enumerate() {
        if opts.budget.expired() {
            return Ok(None);
        }
        let rolled: Vec<Vec<f64>> = coeff_rows
            .iter()
            .enumerate()
            .map(|(r, _)| {
                layer
                    .iter()
                    .map(|node| {
                        let total: f64 = node
                            .children
                            .iter()
                            .map(|&c| {
                                let (w, m) = if l == 0 {
                                    (parts[c].members.len() as f64, coeff_rows[r][c])
                                } else {
                                    (layers[l - 1][c].weight as f64, layer_means[l - 1][r][c])
                                };
                                w * m
                            })
                            .sum();
                        total / node.weight as f64
                    })
                    .collect()
            })
            .collect();
        layer_means.push(rolled);
    }

    // Descent: sketch the coarsest layer, expand only the selected nodes,
    // re-sketch — down to a shaded set of leaf ids. With no layers every
    // leaf is shaded, and the leaf sketch below is the flat sketch.
    let obj_row = obj_means.as_ref().map(|_| coeff_rows.len() - 1);
    let mut active: Vec<usize> = match layers.last() {
        None => (0..parts.len()).collect(),
        Some(top) => (0..top.len()).collect(),
    };
    for (l, layer) in layers.iter().enumerate().rev() {
        if opts.budget.expired() {
            return Ok(None);
        }
        let capacities: Vec<u64> = active.iter().map(|&i| layer[i].capacity(view)).collect();
        let gathered: Vec<Vec<f64>> = (0..rows.len())
            .map(|r| active.iter().map(|&i| layer_means[l][r][i]).collect())
            .collect();
        let means_rows: Vec<&[f64]> = gathered.iter().map(|m| m.as_slice()).collect();
        let layer_obj: Option<Vec<f64>> =
            obj_row.map(|r| active.iter().map(|&i| layer_means[l][r][i]).collect());
        let layer_counts = match solve_sketch(
            view,
            &capacities,
            rows,
            &means_rows,
            layer_obj.as_deref(),
            opts,
            counters,
        ) {
            Some(c) => c,
            None => return Ok(None),
        };
        let mut next: Vec<usize> = active
            .iter()
            .zip(&layer_counts)
            .filter(|&(_, &count)| count > 0)
            .flat_map(|(&i, _)| layer[i].children.iter().copied())
            .collect();
        next.sort_unstable();
        if next.is_empty() {
            return Ok(empty_if_feasible(view));
        }
        active = next;
    }

    // Leaf sketch over the shaded leaves, scattered back to full-length
    // counts for the refine driver (zero outside the shade).
    if opts.budget.expired() {
        return Ok(None);
    }
    let capacities: Vec<u64> = active.iter().map(|&p| parts[p].capacity(view)).collect();
    let gathered: Vec<Vec<f64>> = (0..rows.len())
        .map(|r| active.iter().map(|&p| means[r][p]).collect())
        .collect();
    let means_rows: Vec<&[f64]> = gathered.iter().map(|m| m.as_slice()).collect();
    let leaf_obj: Option<Vec<f64>> = obj_means
        .as_ref()
        .map(|om| active.iter().map(|&p| om[p]).collect());
    let shaded_counts = match solve_sketch(
        view,
        &capacities,
        rows,
        &means_rows,
        leaf_obj.as_deref(),
        opts,
        counters,
    ) {
        Some(c) => c,
        None => return Ok(None),
    };
    let mut counts = vec![0u64; parts.len()];
    for (&p, &c) in active.iter().zip(&shaded_counts) {
        counts[p] = c;
    }

    // Refine picked partitions, most-loaded first (deterministic: ties break
    // on partition id).
    let mut order: Vec<usize> = active.iter().copied().filter(|&p| counts[p] > 0).collect();
    order.sort_by_key(|&p| (std::cmp::Reverse(counts[p]), p));
    if order.is_empty() {
        return Ok(empty_if_feasible(view));
    }

    let ctx = RefineCtx {
        view,
        rows,
        obj_coeffs,
        parts,
        means: &means,
        counts: &counts,
        opts,
    };
    refine_with_backtracking(&ctx, order, counters)
}

/// A sketch that draws nothing says the empty package: only useful if it is
/// feasible.
fn empty_if_feasible(view: &CandidateView) -> Option<(Package, Option<f64>)> {
    let state = ViewState::empty(view);
    state
        .is_feasible()
        .then(|| (state.to_package(), state.objective_value()))
}

/// Representative coefficients: the partition mean of one coefficient
/// column, per partition. `partition_means(parts, coeffs, opts)[p]` is the
/// column aggregated over partition `p` — per-partition values computed
/// independently (no cross-partition reduction), so the chunk fan-out is
/// trivially bit-identical at every thread count. `None` on budget expiry.
fn partition_means(parts: &[Partition], coeffs: &[f64], opts: &SolveOptions) -> Option<Vec<f64>> {
    let chunks = opts
        .par
        .run_chunks_width(parts.len(), MEANS_PARTITIONS_PER_CHUNK, |_, range| {
            if opts.budget.expired() {
                return None;
            }
            Some(
                parts[range]
                    .iter()
                    .map(|p| p.mean_of(coeffs))
                    .collect::<Vec<f64>>(),
            )
        });
    let mut means = Vec::with_capacity(parts.len());
    for chunk in chunks {
        means.extend(chunk?);
    }
    Some(means)
}

/// Builds and solves one sketch ILP: one integer variable per group with the
/// given multiplicity `capacities`, constraint rows aggregated to the given
/// per-group representative coefficients (`means_rows[c][j]` pairs with
/// `capacities[j]`). Returns the per-group draw counts clamped to capacity,
/// or `None` when the sketch is infeasible, truncated without a solution, or
/// the budget expired. The descent solves one per tree layer, plus the leaf
/// sketch.
fn solve_sketch(
    view: &CandidateView,
    capacities: &[u64],
    rows: &[LinearConstraint],
    means_rows: &[&[f64]],
    obj_means: Option<&[f64]>,
    opts: &SolveOptions,
    counters: &mut Counters,
) -> Option<Vec<u64>> {
    let sense = match view.direction() {
        ObjectiveDirection::Maximize => Sense::Maximize,
        ObjectiveDirection::Minimize => Sense::Minimize,
    };
    let mut problem = Problem::new(sense);
    let vars: Vec<VarId> = capacities
        .iter()
        .enumerate()
        .map(|(p, &cap)| problem.add_var(format!("y_{p}"), VarType::Integer, 0.0, cap as f64))
        .collect();
    for (c, row) in rows.iter().enumerate() {
        let terms: Vec<(VarId, f64)> = means_rows[c]
            .iter()
            .enumerate()
            .filter(|(_, &m)| m != 0.0)
            .map(|(p, &m)| (vars[p], m))
            .collect();
        problem.add_constraint_terms(format!("g{c}"), &terms, row.op, row.rhs);
    }
    if let Some(om) = obj_means {
        for (p, &m) in om.iter().enumerate() {
            if m != 0.0 {
                problem.set_objective_coeff(vars[p], m);
            }
        }
    }
    let mut config = opts.solver.clone();
    opts.budget.apply_to_solver(&mut config);
    let sketch = match lp_solver::solve(&problem, &config) {
        Ok(s) if s.status.has_solution() => s,
        _ => return None,
    };
    counters.nodes += sketch.nodes as u64;
    counters.iterations += sketch.iterations as u64;
    Some(
        capacities
            .iter()
            .enumerate()
            .map(|(p, &cap)| (sketch.value_rounded(vars[p]).max(0) as u64).min(cap))
            .collect(),
    )
}

/// Phase 3 driver: refines `order`'s partitions with the paper's
/// failed-partition backtracking, then repairs any residual infeasibility.
/// `Ok(None)` when no feasible package came out (the caller's greedy
/// baseline stands).
fn refine_with_backtracking(
    ctx: &RefineCtx<'_>,
    mut order: Vec<usize>,
    counters: &mut Counters,
) -> crate::PbResult<Option<(Package, Option<f64>)>> {
    // Last successful sub-ILP assignment per partition, across backtracking
    // passes of *this* query. A re-refined partition hints its previous
    // assignment into `solve_milp_hinted` as the starting incumbent — the
    // right-hand sides shift between passes, but the old package is often
    // still feasible and near-optimal, so branch and bound starts with a
    // strong bound instead of none. Hints are deterministic (the map is only
    // read/written by partition id, never iterated), so the backtracking
    // sequence stays bit-identical run to run.
    let mut hints: HashMap<usize, Vec<(usize, u32)>> = HashMap::new();
    let mut backtracks = 0;
    let mut state = loop {
        match refine_pass(ctx, &order, true, &mut hints, counters) {
            Ok(state) => break state,
            Err(failed) => {
                backtracks += 1;
                let already_first = order.first() == Some(&failed);
                if backtracks >= MAX_BACKTRACKS || already_first || ctx.opts.budget.expired() {
                    // Backtracking exhausted: a non-strict pass greedy-fills
                    // whatever still fails instead of giving up. Such a pass
                    // cannot report a failed partition by construction — if
                    // one ever does, surface it as an internal error (PR-2
                    // convention) instead of panicking mid-solve.
                    break refine_pass(ctx, &order, false, &mut hints, counters).map_err(|p| {
                        PbError::Internal(format!(
                            "non-strict refine pass reported failed partition {p}"
                        ))
                    })?;
                }
                // The paper's backtracking rule: re-refine the failed
                // partition first, where the full constraint slack is still
                // available to it.
                order.retain(|&p| p != failed);
                order.insert(0, failed);
            }
        }
    };

    if !state.is_feasible() {
        let (evals, _) = repair_to_feasibility(&mut state, &ctx.opts.budget, ctx.opts.par);
        counters.iterations += evals;
    }
    Ok(state
        .is_feasible()
        .then(|| (state.to_package(), state.objective_value())))
}

/// Shared inputs of one refinement pass over the leaf partitions (counts
/// are zero outside the shaded leaves).
struct RefineCtx<'a> {
    view: &'a CandidateView,
    rows: &'a [LinearConstraint],
    obj_coeffs: Option<&'a [f64]>,
    parts: &'a [Partition],
    means: &'a [Vec<f64>],
    counts: &'a [u64],
    opts: &'a SolveOptions,
}

/// One refinement pass over `order`. Strict passes report the first
/// partition whose sub-ILP fails; non-strict passes greedy-fill it and carry
/// on (and therefore always succeed). Budget expiry mid-pass greedy-fills
/// the remaining partitions — the anytime degradation, never an error.
fn refine_pass<'v>(
    ctx: &RefineCtx<'v>,
    order: &[usize],
    strict: bool,
    hints: &mut HashMap<usize, Vec<(usize, u32)>>,
    counters: &mut Counters,
) -> Result<ViewState<'v>, usize> {
    let mut state = ViewState::empty(ctx.view);
    let mut fixed = vec![0.0; ctx.rows.len()];
    // Estimated contribution of every still-sketched partition, per row.
    let mut rem: Vec<f64> = ctx
        .rows
        .iter()
        .enumerate()
        .map(|(c, _)| {
            order
                .iter()
                .map(|&p| ctx.counts[p] as f64 * ctx.means[c][p])
                .sum()
        })
        .collect();

    for (pos, &p) in order.iter().enumerate() {
        // This partition stops being an estimate now, whatever happens next.
        for (c, r) in rem.iter_mut().enumerate() {
            *r -= ctx.counts[p] as f64 * ctx.means[c][p];
        }
        if ctx.opts.budget.expired() {
            for &q in &order[pos..] {
                greedy_fill(ctx, q, &mut state);
            }
            return Ok(state);
        }
        match solve_partition(ctx, p, &fixed, &rem, hints.get(&p), counters) {
            Some(assignment) => {
                hints.insert(p, assignment.clone());
                for &(idx, mult) in &assignment {
                    state.apply(idx, mult as i64);
                    for (c, row) in ctx.rows.iter().enumerate() {
                        fixed[c] += row.coeffs[idx] * mult as f64;
                    }
                }
            }
            None if strict => return Err(p),
            None => {
                // Each candidate belongs to exactly one partition, so the
                // fill's contribution is exactly p's members' multiplicities.
                greedy_fill(ctx, p, &mut state);
                for (c, row) in ctx.rows.iter().enumerate() {
                    fixed[c] += ctx.parts[p]
                        .members
                        .iter()
                        .map(|&i| row.coeffs[i] * state.multiplicity(i) as f64)
                        .sum::<f64>();
                }
            }
        }
    }
    Ok(state)
}

/// Bit-exact identity of one partition's sub-ILP, used as the
/// [`crate::cache::PartitionMemo`] memo key (see [`PartitionMemo::sub_ilp`]).
///
/// The key encodes *everything* that determines the solve's result and its
/// node/iteration counters: the partitioning identity (leaf size, seed,
/// partition id, member count — equal leaf sizes mean equal leaf
/// partitionings, so flat and layered solves share entries), the multiplicity bound, the result-relevant solver
/// knobs (tolerances and work limits — but not threads, deadlines, or stop
/// flags, which by the determinism and anytime contracts can only truncate a
/// solve, never change a *proven-optimal* one), and per row the operator,
/// the effective right-hand side `rhs − fixed − rem`, and every member
/// coefficient as raw `f64` bits. Keys are compared by value (a `HashMap`
/// probe ends in `Eq`), so a hash collision can never serve a wrong answer.
///
/// [`PartitionMemo::sub_ilp`]: crate::cache::PartitionMemo::sub_ilp
fn sub_ilp_key(ctx: &RefineCtx<'_>, p: usize, fixed: &[f64], rem: &[f64]) -> Vec<u64> {
    let members = &ctx.parts[p].members;
    let cfg = &ctx.opts.solver;
    let mut key = Vec::with_capacity(9 + ctx.rows.len() * (members.len() + 2) + members.len() + 1);
    key.push(ctx.opts.shade_leaf_size as u64);
    key.push(ctx.opts.seed);
    key.push(p as u64);
    key.push(members.len() as u64);
    key.push(ctx.view.max_multiplicity() as u64);
    key.push(cfg.tolerance.to_bits());
    key.push(cfg.int_tolerance.to_bits());
    key.push(cfg.max_iterations as u64);
    key.push(cfg.max_nodes as u64);
    for (c, row) in ctx.rows.iter().enumerate() {
        key.push(match row.op {
            ConstraintOp::Le => 0,
            ConstraintOp::Ge => 1,
            ConstraintOp::Eq => 2,
        });
        key.push((row.rhs - fixed[c] - rem[c]).to_bits());
        for &i in members.iter() {
            key.push(row.coeffs[i].to_bits());
        }
    }
    match ctx.obj_coeffs {
        Some(obj) => {
            key.push(1);
            for &i in members.iter() {
                key.push(obj[i].to_bits());
            }
        }
        None => key.push(0),
    }
    key
}

/// Sub-ILP over one partition's real tuples: the original rows with every
/// other partition's contribution moved to the right-hand side.
///
/// Two warm-start layers sit in front of the raw solve:
///
/// 1. **Cross-query memo** ([`crate::cache::PartitionMemo`]): an identical
///    sub-problem solved to proven optimality before (same view, same
///    partitioning, same effective right-hand sides — see [`sub_ilp_key`])
///    replays its stored assignment *and counters* without solving at all.
///    Replaying the counters keeps a memo-served run's [`EvalStats`]
///    bit-identical to the run that did the work, preserving the cold/warm
///    equality contract from the view-cache PR.
/// 2. **Within-query hint**: on a backtracking re-refine, the partition's
///    previous assignment seeds branch and bound's incumbent through
///    [`lp_solver::solve_milp_hinted`] — an infeasible hint (the right-hand
///    sides moved) is silently ignored, a feasible one prunes from node one.
///
/// [`EvalStats`]: crate::result::EvalStats
fn solve_partition(
    ctx: &RefineCtx<'_>,
    p: usize,
    fixed: &[f64],
    rem: &[f64],
    hint: Option<&Vec<(usize, u32)>>,
    counters: &mut Counters,
) -> Option<Vec<(usize, u32)>> {
    let members = &ctx.parts[p].members;
    let memo = ctx.view.partition_memo();
    let key = sub_ilp_key(ctx, p, fixed, rem);
    if let Some(hit) = memo.sub_ilp(&key) {
        counters.nodes += hit.nodes;
        counters.iterations += hit.iterations;
        return Some(hit.assignment.clone());
    }
    let r = ctx.view.max_multiplicity() as f64;
    let mut problem = Problem::new(match ctx.view.direction() {
        ObjectiveDirection::Maximize => Sense::Maximize,
        ObjectiveDirection::Minimize => Sense::Minimize,
    });
    let vars: Vec<VarId> = members
        .iter()
        .map(|&i| problem.add_var(format!("x_{i}"), VarType::Integer, 0.0, r))
        .collect();
    for (c, row) in ctx.rows.iter().enumerate() {
        let terms: Vec<(VarId, f64)> = members
            .iter()
            .enumerate()
            .filter(|(_, &i)| row.coeffs[i] != 0.0)
            .map(|(k, &i)| (vars[k], row.coeffs[i]))
            .collect();
        problem.add_constraint_terms(format!("g{c}"), &terms, row.op, row.rhs - fixed[c] - rem[c]);
    }
    if let Some(obj) = ctx.obj_coeffs {
        for (k, &i) in members.iter().enumerate() {
            if obj[i] != 0.0 {
                problem.set_objective_coeff(vars[k], obj[i]);
            }
        }
    }
    let mut config = ctx.opts.solver.clone();
    ctx.opts.budget.apply_to_solver(&mut config);
    let hint_values: Option<Vec<f64>> = hint.map(|assignment| {
        let mut v = vec![0.0; members.len()];
        for &(i, mult) in assignment {
            if let Some(k) = members.iter().position(|&m| m == i) {
                v[k] = mult as f64;
            }
        }
        v
    });
    let solution = match lp_solver::solve_milp_hinted(&problem, &config, hint_values.as_deref()) {
        Ok(s) if s.status.has_solution() => s,
        _ => return None,
    };
    counters.nodes += solution.nodes as u64;
    counters.iterations += solution.iterations as u64;
    let assignment: Vec<(usize, u32)> = members
        .iter()
        .enumerate()
        .filter_map(|(k, &i)| {
            let mult = solution.value_rounded(vars[k]).max(0) as u32;
            (mult > 0).then_some((i, mult.min(ctx.view.max_multiplicity())))
        })
        .collect();
    // Only a *proven* optimum is reusable: a deadline- or limit-truncated
    // incumbent depends on how far the search got, which the key must not
    // (and does not) encode.
    if solution.status == lp_solver::Status::Optimal {
        memo.store_sub_ilp(
            key,
            SubIlpSolution {
                assignment: assignment.clone(),
                nodes: solution.nodes as u64,
                iterations: solution.iterations as u64,
            },
        );
    }
    Some(assignment)
}

/// Greedy degradation for one partition: take its sketched multiplicity in
/// objective-coefficient order (best first, deterministic), round-robin over
/// `REPEAT` slots — the refinement analogue of the greedy start heuristic.
fn greedy_fill(ctx: &RefineCtx<'_>, p: usize, state: &mut ViewState<'_>) {
    let mut members = ctx.parts[p].members.clone();
    if let Some(obj) = ctx.obj_coeffs {
        let maximize = matches!(ctx.view.direction(), ObjectiveDirection::Maximize);
        members.sort_by(|&a, &b| {
            let cmp = if maximize {
                obj[b].total_cmp(&obj[a])
            } else {
                obj[a].total_cmp(&obj[b])
            };
            cmp.then(a.cmp(&b))
        });
    }
    let mut remaining = ctx.counts[p];
    'outer: for _ in 0..ctx.view.max_multiplicity() {
        for &i in &members {
            if remaining == 0 {
                break 'outer;
            }
            if state.multiplicity(i) < ctx.view.max_multiplicity() {
                state.apply(i, 1);
                remaining -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::ParExec;
    use crate::spec::PackageSpec;
    use datagen::{recipes, Seed};
    use minidb::Table;
    use paql::compile;

    fn spec_for<'a>(table: &'a Table, q: &str) -> PackageSpec<'a> {
        let analyzed = compile(q, table.schema()).unwrap();
        PackageSpec::build(&analyzed, table).unwrap()
    }

    const MEAL_QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' \
        SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 MAXIMIZE SUM(P.protein)";

    /// Options forcing a genuinely multi-layer tree at test-sized `n`.
    fn deep_opts() -> SolveOptions {
        SolveOptions {
            shade_leaf_size: 8,
            shade_fanout: 4,
            ..SolveOptions::default()
        }
    }

    /// The package at `n` is valid, approximate and no worse than greedy's.
    fn assert_valid_and_beats_greedy(solver: &dyn Solver, opts: &SolveOptions, n: usize) {
        let t = recipes(n, Seed(1));
        let spec = spec_for(&t, MEAL_QUERY);
        let out = solver.solve(spec.view(), opts).unwrap();
        assert_eq!(out.stats.strategy, solver.strategy());
        assert!(!out.optimal, "sketch→refine is approximate by design");
        let (p, obj) = out.packages.first().expect("a meal plan exists");
        assert!(spec.is_valid(p).unwrap());
        let greedy = GreedySolver.solve(spec.view(), opts).unwrap();
        if let Some((_, g)) = greedy.packages.first() {
            assert!(obj.unwrap() + 1e-9 >= g.unwrap(), "worse than greedy");
        }
    }

    fn assert_rejects_non_linearizable(solver: &dyn Solver) {
        let t = recipes(100, Seed(2));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT COUNT(*) = 3 AND AVG(P.calories) >= AVG(P.protein)",
        );
        let err = solver
            .solve(spec.view(), &SolveOptions::default())
            .unwrap_err();
        assert!(matches!(err, PbError::Unsupported(_)));
    }

    fn assert_empty_on_no_candidates(solver: &dyn Solver) {
        let t = recipes(50, Seed(3));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.calories < 0 SUCH THAT COUNT(*) = 1",
        );
        let out = solver.solve(spec.view(), &SolveOptions::default()).unwrap();
        assert!(out.packages.is_empty());
        assert!(!out.optimal);
    }

    fn assert_anytime_on_expired_budget(solver: &dyn Solver, opts: SolveOptions) {
        let t = recipes(2_000, Seed(4));
        let spec = spec_for(&t, MEAL_QUERY);
        let opts = SolveOptions {
            budget: crate::budget::Budget::with_limit(std::time::Duration::ZERO),
            ..opts
        };
        let out = solver.solve(spec.view(), &opts).unwrap();
        assert!(!out.optimal);
        for (p, _) in &out.packages {
            assert!(spec.is_valid(p).unwrap());
        }
    }

    #[test]
    fn refined_packages_are_valid_and_beat_or_match_greedy() {
        assert_valid_and_beats_greedy(&SketchRefineSolver, &SolveOptions::default(), 2_000);
    }

    #[test]
    fn shaded_packages_are_valid_and_beat_or_match_greedy() {
        // ~470 gluten-free leaves at size 8 under fanout 4: several layers.
        assert_valid_and_beats_greedy(&ProgressiveShadingSolver, &deep_opts(), 3_000);
    }

    #[test]
    fn descent_actually_runs_over_a_multi_layer_tree() {
        let t = recipes(3_000, Seed(1));
        let spec = spec_for(&t, MEAL_QUERY);
        let opts = deep_opts();
        let tree = spec
            .view()
            .partition_tree(
                opts.shade_leaf_size,
                opts.shade_fanout,
                opts.seed,
                &opts.budget,
                opts.par,
            )
            .expect("unlimited budget grows the tree");
        assert!(tree.height() >= 2, "test must exercise a real descent");
    }

    #[test]
    fn non_linearizable_queries_are_rejected_with_unsupported() {
        assert_rejects_non_linearizable(&SketchRefineSolver);
    }

    #[test]
    fn shading_rejects_non_linearizable_queries_with_unsupported() {
        assert_rejects_non_linearizable(&ProgressiveShadingSolver);
    }

    #[test]
    fn empty_candidate_sets_yield_an_empty_outcome() {
        assert_empty_on_no_candidates(&SketchRefineSolver);
    }

    #[test]
    fn shading_yields_an_empty_outcome_on_empty_candidate_sets() {
        assert_empty_on_no_candidates(&ProgressiveShadingSolver);
    }

    #[test]
    fn expired_budgets_return_the_anytime_result_without_error() {
        assert_anytime_on_expired_budget(&SketchRefineSolver, SolveOptions::default());
    }

    #[test]
    fn shading_returns_the_anytime_result_on_an_expired_budget() {
        assert_anytime_on_expired_budget(&ProgressiveShadingSolver, deep_opts());
    }

    #[test]
    fn shading_is_thread_count_invariant() {
        let t = recipes(3_000, Seed(5));
        let spec = spec_for(&t, MEAL_QUERY);
        let base = deep_opts();
        let sequential = ProgressiveShadingSolver.solve(spec.view(), &base).unwrap();
        let threaded = ProgressiveShadingSolver
            .solve(
                spec.view(),
                &SolveOptions {
                    par: ParExec::new(4),
                    ..deep_opts()
                },
            )
            .unwrap();
        assert_eq!(sequential.packages, threaded.packages);
        assert_eq!(sequential.stats.nodes, threaded.stats.nodes);
        assert_eq!(sequential.stats.iterations, threaded.stats.iterations);
    }

    #[test]
    fn few_leaves_degenerate_to_the_flat_sketch_path() {
        // Leaves fit under the fanout: the tree has no layers, every leaf is
        // shaded, and the descent is the flat sketch — same package, same
        // LP work as the flat solver.
        let t = recipes(300, Seed(6));
        let spec = spec_for(&t, MEAL_QUERY);
        let opts = SolveOptions::default(); // leaf 64 / fanout 64 → height 0
        let tree = spec
            .view()
            .partition_tree(
                opts.shade_leaf_size,
                opts.shade_fanout,
                opts.seed,
                &opts.budget,
                opts.par,
            )
            .unwrap();
        assert_eq!(tree.height(), 0);
        let shaded = ProgressiveShadingSolver.solve(spec.view(), &opts).unwrap();
        let (p, _) = shaded.packages.first().expect("feasible at n=300");
        assert!(spec.is_valid(p).unwrap());
        let flat = SketchRefineSolver.solve(spec.view(), &opts).unwrap();
        assert_eq!(shaded.packages, flat.packages);
        assert_eq!(shaded.stats.nodes, flat.stats.nodes);
        assert_eq!(shaded.stats.iterations, flat.stats.iterations);
    }
}
