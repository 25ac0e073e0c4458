//! Heuristic local search (paper Section 4.2).
//!
//! "Given a starting package P0 (which can be constructed, for example, at
//! random), PackageBuilder identifies all possible k-tuple replacements that
//! can lead to a valid package, by using a single SQL query." The search
//! below implements exactly that neighbourhood: a move removes `k` members
//! and inserts `k` candidate tuples, and the candidate generation for `k = 1`
//! is also exposed as a literal relational query (selection over a Cartesian
//! product) in [`single_replacement_query`], which experiment E3 uses to
//! reproduce the paper's scaling argument.
//!
//! Moves are accepted when they lexicographically improve
//! `(constraint violation, objective)`, so the search first repairs
//! feasibility and then climbs the objective. As the paper notes, the method
//! is a heuristic: "there is no guarantee that all valid solutions will be
//! found".
//!
//! Since the columnar refactor the search walks a [`ViewState`]: each
//! candidate move is scored through [`ViewState::score_with`], a delta
//! evaluation over the view's precomputed term columns (`O(#terms)` per
//! neighbour), instead of cloning the package and re-aggregating every
//! member — the exact change that makes the neighbourhood scan cheap enough
//! to matter at scale. The chunked scans fill each move's column entries
//! from column chunks they pin once (`ViewState::score_by`), so on a paged
//! view a scan chunk costs a few buffer-pool reads, not one per neighbour.

use minidb::ops::{cross_join, filter, scan, Relation};
use minidb::{BinaryOp, Expr, Table, TupleId};
use paql::ObjectiveDirection;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::budget::Budget;
use crate::error::PbError;
use crate::greedy::{random_cardinality, starting_package, StartHeuristic};
use crate::package::Package;
use crate::par::{ParExec, CHUNK_WIDTH};
use crate::result::{EvalStats, StrategyUsed};
use crate::view::{CandidateView, ViewState};
use crate::PbResult;

/// Options for the local-search strategy.
#[derive(Debug, Clone)]
pub struct LocalSearchOptions {
    /// Number of tuples replaced per move (the paper's `k`). `k = 1` is the
    /// efficient regime; larger values grow the neighbourhood combinatorially.
    pub k: usize,
    /// Maximum accepted moves per restart.
    pub max_moves: usize,
    /// Number of restarts (the first uses the greedy start, the rest random).
    pub restarts: usize,
    /// Random seed.
    pub seed: u64,
    /// How many distinct feasible packages to keep (best first).
    pub keep: usize,
    /// Cooperative wall-clock budget; on expiry the search stops scanning
    /// and returns the best packages recorded so far.
    pub budget: Budget,
    /// Chunk fan-out executor for the neighbourhood scans (see
    /// [`crate::par`]); the search's accepted-move trajectory is
    /// bit-identical at every thread count.
    pub par: ParExec,
}

impl Default for LocalSearchOptions {
    fn default() -> Self {
        LocalSearchOptions {
            k: 1,
            max_moves: 10_000,
            restarts: 8,
            seed: 42,
            keep: 1,
            budget: Budget::unlimited(),
            par: ParExec::sequential(),
        }
    }
}

/// Outcome of the local-search strategy.
pub struct LocalSearchOutcome {
    /// Feasible packages found (best first), with objective values.
    pub packages: Vec<(Package, Option<f64>)>,
    /// Accepted moves across all restarts.
    pub moves: u64,
    /// Neighbour evaluations across all restarts.
    pub evaluations: u64,
    /// Evaluation statistics.
    pub stats: EvalStats,
}

/// Runs the local search over a candidate view.
pub fn local_search(
    view: &CandidateView,
    opts: &LocalSearchOptions,
) -> PbResult<LocalSearchOutcome> {
    // pb-lint: allow(time-containment) — stats clock only: stamps the
    // outcome's elapsed time; deadline decisions all go through the budget.
    let start = std::time::Instant::now();
    let budget = &opts.budget;
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut best: Vec<(Package, Option<f64>)> = Vec::new();
    let mut moves = 0u64;
    let mut evaluations = 0u64;

    let direction = view.direction();

    for restart in 0..opts.restarts.max(1) {
        if view.candidate_count() == 0 || budget.expired() {
            break;
        }
        let start_package = if restart == 0 {
            starting_package(view, StartHeuristic::Greedy, &mut rng)
        } else {
            let target = random_cardinality(view, &mut rng);
            let mut p = starting_package(view, StartHeuristic::Random, &mut rng);
            // Resize the random start towards the sampled cardinality.
            resize_to(view, &mut p, target, &mut rng);
            p
        };
        let mut state = view.project(&start_package).ok_or_else(|| {
            PbError::Internal(
                "local-search starting package contains tuples outside the candidate set".into(),
            )
        })?;
        let mut current_score = state.score();
        record(&state, current_score, &mut best, direction, opts.keep);

        for _ in 0..opts.max_moves {
            if budget.expired() {
                break;
            }
            let (neighbour, neighbour_score, evals) =
                best_neighbour(&state, current_score, opts.k, direction, budget, opts.par);
            evaluations += evals;
            match neighbour {
                Some(changes) if lex_better(neighbour_score, current_score, direction) => {
                    for &(idx, delta) in &changes {
                        state.apply(idx, delta);
                    }
                    current_score = state.score();
                    moves += 1;
                    record(&state, current_score, &mut best, direction, opts.keep);
                }
                _ => break, // local optimum
            }
        }
    }

    Ok(LocalSearchOutcome {
        packages: best,
        moves,
        evaluations,
        stats: EvalStats {
            strategy: StrategyUsed::LocalSearch,
            candidates: view.candidate_count(),
            nodes: moves,
            iterations: evaluations,
            elapsed: start.elapsed(),
        },
    })
}

fn lex_better(a: (f64, Option<f64>), b: (f64, Option<f64>), direction: ObjectiveDirection) -> bool {
    if a.0 + 1e-9 < b.0 {
        return true;
    }
    if a.0 > b.0 + 1e-9 {
        return false;
    }
    Package::better_objective(direction, a.1, b.1)
}

fn record(
    state: &ViewState<'_>,
    s: (f64, Option<f64>),
    best: &mut Vec<(Package, Option<f64>)>,
    direction: ObjectiveDirection,
    keep: usize,
) {
    if s.0 > 0.0 || !state.is_feasible() {
        return;
    }
    let p = state.to_package();
    if best.iter().any(|(q, _)| q == &p) {
        return;
    }
    best.push((p, s.1));
    best.sort_by(|a, b| {
        let ord = match (a.1, b.1) {
            (Some(x), Some(y)) => x.total_cmp(&y),
            (Some(_), None) => std::cmp::Ordering::Greater,
            (None, Some(_)) => std::cmp::Ordering::Less,
            (None, None) => std::cmp::Ordering::Equal,
        };
        match direction {
            ObjectiveDirection::Maximize => ord.reverse(),
            ObjectiveDirection::Minimize => ord,
        }
    });
    best.truncate(keep.max(1));
}

/// A candidate move: multiplicity deltas over candidate indices.
type Move = Vec<(usize, i64)>;

/// True when applying `changes` keeps every touched multiplicity within
/// `[0, max_multiplicity]`.
fn move_is_legal(state: &ViewState<'_>, changes: &[(usize, i64)]) -> bool {
    let max = state.view().max_multiplicity() as i64;
    // Small move vectors: net effect per index computed by scanning.
    for (pos, &(idx, _)) in changes.iter().enumerate() {
        if changes[..pos].iter().any(|&(i, _)| i == idx) {
            continue; // already accounted below
        }
        let net: i64 = changes
            .iter()
            .filter(|&&(i, _)| i == idx)
            .map(|&(_, d)| d)
            .sum();
        let new = state.multiplicity(idx) as i64 + net;
        if new < 0 || new > max {
            return false;
        }
    }
    true
}

/// One chunk's scan result: `None` when the chunk observed budget expiry and
/// skipped; otherwise the neighbour evaluations performed plus the chunk's
/// best move strictly better than the incoming score bar.
type ChunkScan = Option<(u64, Option<((f64, Option<f64>), Move)>)>;

/// Finds the best move in the k-replacement neighbourhood (plus add/remove
/// moves when the cardinality is allowed to change). Every neighbour is
/// scored through the view's delta evaluation — no package clones, no
/// re-aggregation — and the scans fan out over `par` in fixed-width chunks
/// of the (member × candidate) move space. Per-chunk local bests merge in
/// chunk order with strict improvement, which reproduces the sequential
/// scan's "earliest occurrence of the optimum wins" tie-breaking exactly,
/// so the selected move is bit-identical at every thread count. The budget
/// is checked per chunk (not per element); an expired scan returns the best
/// move seen so far. Returns the best move, its score and how many
/// neighbours were evaluated.
fn best_neighbour(
    state: &ViewState<'_>,
    current_score: (f64, Option<f64>),
    k: usize,
    direction: ObjectiveDirection,
    budget: &Budget,
    par: ParExec,
) -> (Option<Move>, (f64, Option<f64>), u64) {
    let view = state.view();
    let n = view.candidate_count();
    let mut best: Option<Move> = None;
    let mut best_score = current_score;
    let mut evaluations = 0u64;

    let members: Vec<usize> = state.member_indices().collect();

    // Folds one scan's chunk results (in chunk order) into the running best;
    // returns true when some chunk observed expiry, i.e. the caller should
    // return its best-so-far immediately.
    let merge = |results: Vec<ChunkScan>,
                 best: &mut Option<Move>,
                 best_score: &mut (f64, Option<f64>),
                 evaluations: &mut u64|
     -> bool {
        for chunk in results {
            let Some((evals, found)) = chunk else {
                return true;
            };
            *evaluations += evals;
            if let Some((score, mv)) = found {
                if lex_better(score, *best_score, direction) {
                    *best_score = score;
                    *best = Some(mv);
                }
            }
        }
        false
    };

    // Single-tuple replacements (k = 1), always explored: the flattened
    // (outgoing member × incoming candidate) pair space, pair
    // `p = (members[p / n], p % n)`, walked chunk by chunk without a
    // division per pair. These chunks cover pairs, not candidates, so they
    // do not line up with column chunks; but within one the incoming
    // candidate sweeps consecutive indices, so the scan pins the column
    // chunk holding it (re-pinning as it crosses a chunk boundary) and
    // reads the outgoing member from `member_entries`, read once per
    // neighbourhood. A starved pool would otherwise fault a page per pair
    // and term, and a scan chunk would outlast the budget by seconds.
    if !members.is_empty() && n > 0 {
        let terms = view.terms().len();
        let member_entries: Vec<(f64, bool)> = members
            .iter()
            .flat_map(|&m| view.terms().iter().map(move |t| t.entry_at(m)))
            .collect();
        let results = par.run_chunks(members.len() * n, |_, range| -> ChunkScan {
            if budget.expired() {
                return None;
            }
            let bar = best_score;
            let mut evals = 0u64;
            let mut found: Option<((f64, Option<f64>), Move)> = None;
            let mut out_pos = range.start / n;
            let mut inn = range.start % n;
            let mut pinned = view.pin_chunk(inn / CHUNK_WIDTH);
            let end = range.end;
            for p in range {
                let out = members[out_pos];
                if inn != out {
                    let changes = [(out, -1), (inn, 1)];
                    if move_is_legal(state, &changes) {
                        evals += 1;
                        let out_entries = &member_entries[out_pos * terms..(out_pos + 1) * terms];
                        let s = state.score_by(&changes, |i, entries| {
                            if i == out {
                                entries.copy_from_slice(out_entries);
                            } else {
                                pinned.entries(i, entries);
                            }
                        });
                        if lex_better(s, found.as_ref().map_or(bar, |(fs, _)| *fs), direction) {
                            found = Some((s, changes.to_vec()));
                        }
                    }
                }
                inn += 1;
                if inn == n {
                    inn = 0;
                    out_pos += 1;
                }
                if inn.is_multiple_of(CHUNK_WIDTH) && p + 1 < end {
                    pinned = view.pin_chunk(inn / CHUNK_WIDTH);
                }
            }
            Some((evals, found))
        });
        if merge(results, &mut best, &mut best_score, &mut evaluations) {
            return (best, best_score, evaluations);
        }
    }

    // Pairwise replacements (k = 2): the paper's 2k-way join. The
    // neighbourhood is |P|²·n² in the worst case, so it is only explored
    // when requested and when no single replacement improves (and stays
    // sequential: the quadratic blow-up, not the scan, is its cost).
    if k >= 2 && best.is_none() && members.len() >= 2 {
        for (ai, &out_a) in members.iter().enumerate() {
            for &out_b in members.iter().skip(ai + 1) {
                for in_a in 0..n {
                    if budget.expired() {
                        return (best, best_score, evaluations);
                    }
                    for in_b in in_a..n {
                        let changes = [(out_a, -1), (out_b, -1), (in_a, 1), (in_b, 1)];
                        if !move_is_legal(state, &changes) {
                            continue;
                        }
                        evaluations += 1;
                        let s = state.score_with(&changes);
                        if lex_better(s, best_score, direction) {
                            best_score = s;
                            best = Some(changes.to_vec());
                        }
                    }
                }
            }
        }
    }

    // Cardinality-changing moves: add one candidate / drop one member. These
    // help when the starting cardinality guess was off. The add scan runs
    // over candidates, so scan chunk `c` is column chunk `c`: each chunk
    // pins every term's chunk once and scores its candidates from the
    // pinned slices. The drop scan is |P| evaluations and stays inline.
    let results = par.run_chunks(n, |c, range| -> ChunkScan {
        if budget.expired() {
            return None;
        }
        let pinned = view.pin_chunk(c);
        let bar = best_score;
        let mut evals = 0u64;
        let mut found: Option<((f64, Option<f64>), Move)> = None;
        for inn in range {
            let changes = [(inn, 1)];
            if !move_is_legal(state, &changes) {
                continue;
            }
            evals += 1;
            let s = state.score_by(&changes, |i, out| pinned.entries(i, out));
            if lex_better(s, found.as_ref().map_or(bar, |(fs, _)| *fs), direction) {
                found = Some((s, changes.to_vec()));
            }
        }
        Some((evals, found))
    });
    if merge(results, &mut best, &mut best_score, &mut evaluations) {
        return (best, best_score, evaluations);
    }
    for &out in &members {
        let changes = [(out, -1)];
        evaluations += 1;
        let s = state.score_with(&changes);
        if lex_better(s, best_score, direction) {
            best_score = s;
            best = Some(changes.to_vec());
        }
    }

    (best, best_score, evaluations)
}

fn resize_to(view: &CandidateView, p: &mut Package, target: u64, rng: &mut StdRng) {
    use rand::seq::IndexedRandom;
    while p.cardinality() > target {
        let ids = p.tuple_ids();
        if let Some(&victim) = ids.choose(rng) {
            p.remove(victim, 1);
        } else {
            break;
        }
    }
    while p.cardinality() < target {
        if let Some(&extra) = view.candidates().choose(rng) {
            if p.multiplicity(extra) < view.max_multiplicity() {
                p.add(extra, 1);
            } else if view
                .candidates()
                .iter()
                .all(|&c| p.multiplicity(c) >= view.max_multiplicity())
            {
                break;
            }
        } else {
            break;
        }
    }
}

/// The paper's single-tuple replacement query, built literally as a relational
/// plan: a selection over the Cartesian product of the current package (as a
/// relation `P0`) and the candidate relation `R`.
///
/// For a budget constraint `SUM(col) <= budget` and a package whose current
/// total is `current_total`, the returned relation contains one row per
/// `(outgoing member, incoming candidate)` pair such that swapping them lands
/// the total within budget — the literal translation of
///
/// ```sql
/// SELECT P0.id, R.id FROM P0, R
/// WHERE current_total − P0.col + R.col <= budget
/// ```
pub fn single_replacement_query(
    table: &Table,
    package: &Package,
    candidates: &[TupleId],
    column: &str,
    current_total: f64,
    budget: f64,
) -> PbResult<Relation> {
    // Materialize the package as relation P0 (with its source ids projected in).
    let ids: Vec<TupleId> = package.tuple_ids();
    let p0_table = table.subset("P0", &ids)?;
    let p0 = scan(&p0_table);
    let candidate_table = table.subset("R", candidates)?;
    let r = scan(&candidate_table);
    let joined = cross_join(&p0, &r, "R");
    // current_total - P0.col + R.col <= budget
    let qualified = format!("R.{column}");
    let rhs_col = if joined.schema.index_of(&qualified).is_some() {
        qualified
    } else {
        column.to_string()
    };
    let predicate = Expr::binary(
        BinaryOp::LtEq,
        Expr::binary(
            BinaryOp::Add,
            Expr::binary(BinaryOp::Sub, Expr::lit(current_total), Expr::col(column)),
            Expr::col(rhs_col),
        ),
        Expr::lit(budget),
    );
    Ok(filter(&joined, &predicate)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PackageSpec;
    use datagen::{recipes, Seed};
    use lp_solver::SolverConfig;
    use paql::compile;

    fn spec_for<'a>(table: &'a Table, q: &str) -> PackageSpec<'a> {
        let analyzed = compile(q, table.schema()).unwrap();
        PackageSpec::build(&analyzed, table).unwrap()
    }

    const MEAL_QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' \
        SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 MAXIMIZE SUM(P.protein)";

    #[test]
    fn finds_a_feasible_meal_plan() {
        let t = recipes(300, Seed(1));
        let spec = spec_for(&t, MEAL_QUERY);
        let out = local_search(spec.view(), &LocalSearchOptions::default()).unwrap();
        assert!(
            !out.packages.is_empty(),
            "local search found no feasible package"
        );
        let (p, obj) = &out.packages[0];
        assert!(spec.is_valid(p).unwrap());
        assert_eq!(p.cardinality(), 3);
        assert!(obj.unwrap() > 0.0);
        assert!(out.moves > 0 || out.evaluations > 0);
    }

    #[test]
    fn quality_is_close_to_the_ilp_optimum() {
        let t = recipes(200, Seed(2));
        let spec = spec_for(&t, MEAL_QUERY);
        let exact = crate::ilp::solve_ilp(
            spec.view(),
            &SolverConfig::default(),
            1,
            &Budget::unlimited(),
        )
        .unwrap();
        let heuristic = local_search(
            spec.view(),
            &LocalSearchOptions {
                restarts: 6,
                ..Default::default()
            },
        )
        .unwrap();
        let opt = exact.packages[0].1.unwrap();
        let found = heuristic.packages[0].1.unwrap();
        assert!(found <= opt + 1e-6, "heuristic cannot beat the optimum");
        assert!(
            found >= 0.75 * opt,
            "local search quality too low: {found} vs optimal {opt}"
        );
    }

    #[test]
    fn handles_minimization_objectives() {
        let t = recipes(150, Seed(3));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT COUNT(*) = 3 AND SUM(P.protein) >= 60 MINIMIZE SUM(P.price)",
        );
        let out = local_search(spec.view(), &LocalSearchOptions::default()).unwrap();
        assert!(!out.packages.is_empty());
        let (p, _) = &out.packages[0];
        assert!(spec.is_valid(p).unwrap());
    }

    #[test]
    fn infeasible_specs_return_empty() {
        let t = recipes(50, Seed(4));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 2 AND SUM(P.calories) >= 1000000",
        );
        let out = local_search(
            spec.view(),
            &LocalSearchOptions {
                restarts: 2,
                max_moves: 200,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(out.packages.is_empty());
    }

    #[test]
    fn keep_returns_multiple_distinct_packages() {
        let t = recipes(120, Seed(5));
        let spec = spec_for(&t, MEAL_QUERY);
        let out = local_search(
            spec.view(),
            &LocalSearchOptions {
                keep: 3,
                restarts: 10,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            out.packages.len() >= 2,
            "expected multiple packages, got {}",
            out.packages.len()
        );
        for (p, _) in &out.packages {
            assert!(spec.is_valid(p).unwrap());
        }
        for i in 0..out.packages.len() {
            for j in i + 1..out.packages.len() {
                assert_ne!(out.packages[i].0, out.packages[j].0);
            }
        }
    }

    #[test]
    fn disjunctive_formulas_are_satisfiable_by_local_search() {
        // OR formulas have no linear form, so local search is the strategy of
        // record for them (paper Section 5); it must find an easily
        // satisfiable disjunct.
        let t = recipes(150, Seed(9));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT COUNT(*) = 3 AND \
                       (SUM(P.calories) <= 2500 OR COUNT(*) FILTER (WHERE R.gluten = 'free') = 3) \
             MAXIMIZE SUM(P.protein)",
        );
        let out = local_search(spec.view(), &LocalSearchOptions::default()).unwrap();
        assert!(
            !out.packages.is_empty(),
            "local search missed a trivially satisfiable OR"
        );
        let (p, _) = &out.packages[0];
        assert!(spec.is_valid(p).unwrap());
    }

    #[test]
    fn two_replacement_neighbourhood_escapes_single_swap_optima() {
        let t = recipes(60, Seed(6));
        let spec = spec_for(&t, MEAL_QUERY);
        let out = local_search(
            spec.view(),
            &LocalSearchOptions {
                k: 2,
                restarts: 2,
                max_moves: 200,
                ..Default::default()
            },
        )
        .unwrap();
        // With k = 2 the search should be at least as good as with k = 1 on the
        // same seed and restart budget.
        let out1 = local_search(
            spec.view(),
            &LocalSearchOptions {
                k: 1,
                restarts: 2,
                max_moves: 200,
                ..Default::default()
            },
        )
        .unwrap();
        let best2 = out
            .packages
            .first()
            .and_then(|(_, o)| *o)
            .unwrap_or(f64::NEG_INFINITY);
        let best1 = out1
            .packages
            .first()
            .and_then(|(_, o)| *o)
            .unwrap_or(f64::NEG_INFINITY);
        assert!(best2 >= best1 - 1e-9);
    }

    #[test]
    fn delta_evaluation_agrees_with_full_scoring() {
        // Every accepted package must score identically under a fresh
        // projection — the delta path cannot drift from ground truth.
        let t = recipes(90, Seed(8));
        let spec = spec_for(&t, MEAL_QUERY);
        let out = local_search(
            spec.view(),
            &LocalSearchOptions {
                keep: 3,
                restarts: 4,
                ..Default::default()
            },
        )
        .unwrap();
        for (p, obj) in &out.packages {
            let fresh = spec.view().project(p).unwrap();
            assert_eq!(fresh.objective_value(), *obj);
            assert_eq!(fresh.violation(), 0.0);
        }
    }

    #[test]
    fn replacement_query_matches_the_paper_example() {
        // Reconstruct the Section 4.2 example: a package with 3,000 total
        // calories, a 2,500-calorie budget, single-tuple replacements.
        let t = recipes(80, Seed(7));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT SUM(P.calories) <= 2500",
        );
        // Build a package of the 4 highest-calorie recipes (overshoots budget).
        let mut by_cal: Vec<TupleId> = spec.candidates.clone();
        by_cal.sort_by(|a, b| {
            t.value_f64(*b, "calories")
                .unwrap()
                .total_cmp(&t.value_f64(*a, "calories").unwrap())
        });
        let package = Package::from_ids(by_cal.iter().copied().take(4));
        let current_total: f64 = package
            .members()
            .map(|(id, m)| t.value_f64(id, "calories").unwrap() * m as f64)
            .sum();
        assert!(current_total > 2500.0);

        let rel = single_replacement_query(
            &t,
            &package,
            &spec.candidates,
            "calories",
            current_total,
            2500.0,
        )
        .unwrap();
        // Every returned pair must indeed repair the budget.
        for row in &rel.rows {
            let out_cal = row.get_f64(&rel.schema, "calories").unwrap();
            let in_cal = row.get_f64(&rel.schema, "R.calories").unwrap();
            assert!(current_total - out_cal + in_cal <= 2500.0 + 1e-9);
        }
        // The join size is |P0| × |R| before selection; the result is smaller.
        assert!(rel.len() <= 4 * spec.candidates.len());
    }
}
