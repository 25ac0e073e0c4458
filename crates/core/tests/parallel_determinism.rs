//! Parallel-determinism suite: chunked/parallel evaluation is **bit-identical
//! to the sequential path at every thread count**.
//!
//! The chunked columnar refactor fans view construction, partitioning,
//! greedy repair and the local search's neighbourhood scans out over
//! `ParExec` worker threads. The contract (see `packagebuilder::par`): chunk
//! boundaries are fixed and reductions combine in chunk order, so the thread
//! count may only change wall-clock — never packages, objectives, optimality
//! flags or even the evaluation counters. These tests pin that guarantee
//! across random queries over **every family in the scenario registry**
//! (`datagen::scenarios()`) × thread counts {1, 2, 8}, and separately pin
//! the anytime contract (budget expiry checked per chunk) under an 8-way
//! fan-out.

use std::time::{Duration, Instant};

use datagen::{recipes, scenarios, QueryParams, Seed};
use minidb::{Catalog, Table};
use packagebuilder::budget::Budget;
use packagebuilder::column_store::ColumnPolicy;
use packagebuilder::config::{EngineConfig, Strategy};
use packagebuilder::par::ParExec;
use packagebuilder::solver::{GreedySolver, IlpSolver, LocalSearchSolver, SolveOptions, Solver};
use packagebuilder::spec::PackageSpec;
use packagebuilder::{PackageEngine, PackageResult, ProgressiveShadingSolver, SketchRefineSolver};
use proptest::prelude::*;

/// The thread counts every case is evaluated at; 1 is the sequential
/// reference the parallel runs must match bit for bit.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Evaluates `query` on a fresh engine whose thread budget is `threads`.
/// Only `num_threads` varies between runs — the portfolio worker set is
/// pinned to the sequential default so the *configuration* is identical and
/// any result difference is attributable to the fan-out alone.
fn run_at(
    table: Table,
    strategy: Strategy,
    threads: usize,
    query: &str,
) -> Result<PackageResult, String> {
    let mut catalog = Catalog::new();
    catalog.register(table);
    let mut config = EngineConfig::with_strategy(strategy)
        .with_seed(7)
        .with_num_threads(1);
    config.num_threads = threads; // keep the worker set fixed; vary threads only
    PackageEngine::with_config(catalog, config)
        .execute_paql(query)
        .map_err(|e| e.to_string())
}

/// Asserts two runs are bit-identical, counters included.
fn assert_runs_identical(
    a: &Result<PackageResult, String>,
    b: &Result<PackageResult, String>,
    context: &str,
) {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            assert_eq!(x.packages, y.packages, "{context}: packages differ");
            assert_eq!(x.objectives, y.objectives, "{context}: objectives differ");
            assert_eq!(x.optimal, y.optimal, "{context}: optimality differs");
            assert_eq!(x.stats.nodes, y.stats.nodes, "{context}: nodes differ");
            assert_eq!(
                x.stats.iterations, y.stats.iterations,
                "{context}: iterations differ"
            );
        }
        (Err(x), Err(y)) => assert_eq!(x, y, "{context}: errors differ"),
        (x, y) => panic!("{context}: one run failed, the other did not: {x:?} vs {y:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Random queries over every registered scenario, solved at 1/2/8
    /// threads with the Auto planner and both heuristic solvers: identical
    /// outcomes, down to the evaluation counters.
    #[test]
    fn thread_count_never_changes_results(
        scenario_pick in 0usize..64,
        strategy_pick in 0usize..3,
        seed in 0u64..5_000,
        count in 1u64..5,
        col_a in 0usize..4,
        col_b in 0usize..4,
        agg_pick in 0usize..4,
        lo in 10.0f64..500.0,
        width in 10.0f64..2000.0,
        use_filter in prop::bool::ANY,
        minimize in prop::bool::ANY,
    ) {
        let registry = scenarios();
        let scenario = &registry[scenario_pick % registry.len()];
        let strategy = [Strategy::Auto, Strategy::LocalSearch, Strategy::Greedy][strategy_pick];
        let text = scenario.random_query(&QueryParams {
            count, col_a, col_b, agg_pick, lo, width, use_filter, repeat: None, minimize,
        });
        let reference = run_at(
            (scenario.build)(scenario.property_n, Seed(seed)),
            strategy,
            THREAD_COUNTS[0],
            &text,
        );
        for &threads in &THREAD_COUNTS[1..] {
            let run = run_at(
                (scenario.build)(scenario.property_n, Seed(seed)),
                strategy,
                threads,
                &text,
            );
            assert_runs_identical(
                &reference,
                &run,
                &format!("{}/{strategy:?} at {threads} threads (query: {text})", scenario.name),
            );
        }
    }
}

const WIDE_QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R \
    SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
    MAXIMIZE SUM(P.protein)";

/// A candidate set wider than one chunk (5000 > CHUNK_WIDTH), so the swap
/// scans, partitioning spreads and column materialization genuinely cross
/// chunk boundaries — the regime where a reduction-order bug would show.
#[test]
fn multi_chunk_candidate_sets_are_thread_count_invariant() {
    for strategy in [
        Strategy::Greedy,
        Strategy::SketchRefine,
        Strategy::ProgressiveShading,
        Strategy::LocalSearch,
    ] {
        let reference = run_at(recipes(5_000, Seed(11)), strategy, 1, WIDE_QUERY);
        assert!(reference.is_ok(), "{strategy:?} failed: {reference:?}");
        for threads in [2usize, 8] {
            let run = run_at(recipes(5_000, Seed(11)), strategy, threads, WIDE_QUERY);
            assert_runs_identical(
                &reference,
                &run,
                &format!("{strategy:?} at {threads} threads, n=5000"),
            );
        }
    }
}

/// Parallel view construction (base scan + column materialization) produces
/// the same columns, inclusion masks and chunk metadata as the sequential
/// build, bit for bit.
#[test]
fn parallel_view_builds_match_sequential_builds() {
    let table = recipes(9_000, Seed(3));
    let analyzed = paql::compile(WIDE_QUERY, table.schema()).unwrap();
    let sequential = PackageSpec::build(&analyzed, &table).unwrap();
    for threads in [2usize, 8] {
        let parallel = PackageSpec::build_with(
            &analyzed,
            &table,
            &ColumnPolicy::default(),
            ParExec::new(threads),
        )
        .unwrap();
        assert_eq!(sequential.candidates, parallel.candidates);
        assert_eq!(
            sequential.view().terms().len(),
            parallel.view().terms().len()
        );
        for (s, p) in sequential
            .view()
            .terms()
            .iter()
            .zip(parallel.view().terms())
        {
            assert_eq!(s.coeffs_vec(), p.coeffs_vec(), "{threads} threads");
            assert_eq!(s.included_vec(), p.included_vec(), "{threads} threads");
            assert_eq!(s.chunk_meta(), p.chunk_meta(), "{threads} threads");
        }
    }
}

/// The exact core under fan-out: parallel branch and bound (batched frontier
/// solves, merged in batch order — see `lp_solver::branch_bound`) returns
/// bit-identical packages, objectives, optimality flags *and* node/iteration
/// counters at every thread count. The candidate set is wide enough
/// (2 000 ≥ the ILP's parallel threshold) that the thread budget genuinely
/// reaches the solver, so this pins the whole plumbing chain:
/// `EngineConfig::num_threads` → `SolveOptions::par` → `SolverConfig::num_threads`.
#[test]
fn exact_ilp_is_thread_count_invariant() {
    let reference = run_at(recipes(2_000, Seed(11)), Strategy::Ilp, 1, WIDE_QUERY);
    let ok = reference.as_ref().expect("exact solve at n=2000 succeeds");
    assert!(ok.optimal, "the exact worker should prove optimality here");
    for threads in [2usize, 8] {
        let run = run_at(recipes(2_000, Seed(11)), Strategy::Ilp, threads, WIDE_QUERY);
        assert_runs_identical(
            &reference,
            &run,
            &format!("Ilp at {threads} threads, n=2000"),
        );
    }
}

/// Same pin across **every registered scenario** at that scenario's
/// branching-heavy exact query (`Scenario::exact_query` at
/// `Scenario::exact_n` rows), so branch and bound explores a real frontier
/// on every family — an integral root relaxation would make the parallel
/// path trivially identical.
#[test]
fn exact_ilp_is_thread_count_invariant_across_scenarios() {
    for scenario in scenarios() {
        let reference = run_at(
            (scenario.build)(scenario.exact_n, Seed(17)),
            Strategy::Ilp,
            1,
            &scenario.exact_query,
        );
        for threads in [2usize, 8] {
            let run = run_at(
                (scenario.build)(scenario.exact_n, Seed(17)),
                Strategy::Ilp,
                threads,
                &scenario.exact_query,
            );
            assert_runs_identical(
                &reference,
                &run,
                &format!("Ilp/{} at {threads} threads", scenario.name),
            );
        }
    }
}

/// The anytime contract *inside* parallel branch and bound: a budget that
/// expires while a frontier batch is in flight stops the search at the next
/// batch boundary with the incumbent kept — never an error, never an
/// unbounded overrun, never a claimed optimum.
#[test]
fn budget_expiry_mid_batch_keeps_the_anytime_contract() {
    let table = recipes(4_000, Seed(20140901));
    let query = "SELECT PACKAGE(R) AS P FROM recipes R \
        SUCH THAT COUNT(*) = 10 AND SUM(P.calories) BETWEEN 5000 AND 5200 \
        MAXIMIZE SUM(P.protein)";
    let analyzed = paql::compile(query, table.schema()).unwrap();
    let spec = PackageSpec::build(&analyzed, &table).unwrap();
    let limit = Duration::from_millis(30);
    let allowed = limit * 2 + Duration::from_millis(120);
    let opts = SolveOptions {
        budget: Budget::with_limit(limit),
        par: ParExec::new(8),
        ..SolveOptions::default()
    };
    let start = Instant::now();
    let out = IlpSolver
        .solve(spec.view(), &opts)
        .expect("a truncated exact solve degrades, it does not fail");
    let elapsed = start.elapsed();
    assert!(
        elapsed <= allowed,
        "exact solver overran its {limit:?} budget under 8 threads: {elapsed:?}"
    );
    assert!(!out.optimal, "a truncated solve must not claim optimality");
    for (p, _) in &out.packages {
        assert!(spec.is_valid(p).unwrap());
    }
}

/// The anytime contract under fan-out: a budget that expires inside a
/// parallel chunk scan stops the scan at the next chunk boundary and the
/// solver returns its (valid) best-so-far result — never an error, never an
/// unbounded overrun. Mirrors the sequential bounds of `time_budget.rs`.
#[test]
fn budget_expiry_inside_a_parallel_chunk_scan_degrades_gracefully() {
    let table = recipes(15_000, Seed(20140901));
    let query = "SELECT PACKAGE(R) AS P FROM recipes R \
        SUCH THAT COUNT(*) = 300 AND SUM(P.calories) BETWEEN 150000 AND 180000 \
        MAXIMIZE SUM(P.protein)";
    let analyzed = paql::compile(query, table.schema()).unwrap();
    let spec = PackageSpec::build(&analyzed, &table).unwrap();
    let limit = Duration::from_millis(10);
    // Same allowance as the sequential time-budget suite: ~2× the limit plus
    // fixed setup slack for debug builds and scheduler noise.
    let allowed = limit * 2 + Duration::from_millis(60);
    let solvers: Vec<(&str, Box<dyn Solver>)> = vec![
        ("greedy", Box::new(GreedySolver)),
        ("local-search", Box::new(LocalSearchSolver)),
        ("sketch-refine", Box::new(SketchRefineSolver)),
        ("progressive-shading", Box::new(ProgressiveShadingSolver)),
    ];
    for (name, solver) in solvers {
        let opts = SolveOptions {
            budget: Budget::with_limit(limit),
            par: ParExec::new(8),
            ..SolveOptions::default()
        };
        let start = Instant::now();
        let out = solver
            .solve(spec.view(), &opts)
            .unwrap_or_else(|e| panic!("{name} must truncate, not fail: {e}"));
        let elapsed = start.elapsed();
        assert!(
            elapsed <= allowed,
            "{name} overran its {limit:?} budget under 8-way fan-out: {elapsed:?}"
        );
        assert!(!out.optimal, "{name} claimed optimality when truncated");
        for (p, _) in &out.packages {
            assert!(spec.is_valid(p).unwrap(), "{name} returned invalid package");
        }
    }
    // An already-expired budget bails out before any chunk runs.
    let opts = SolveOptions {
        budget: Budget::with_limit(Duration::ZERO),
        par: ParExec::new(8),
        ..SolveOptions::default()
    };
    let start = Instant::now();
    let out = GreedySolver.solve(spec.view(), &opts).unwrap();
    assert!(!out.optimal);
    assert!(start.elapsed() < allowed);
}
