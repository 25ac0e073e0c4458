//! Paged-determinism suite: out-of-core column storage is **bit-identical
//! to resident storage**, at every thread count, even under a starved
//! buffer pool.
//!
//! The out-of-core substrate (see `packagebuilder::column_store`) stores a
//! term column as spill-file pages behind an LRU buffer pool instead of one
//! dense vector. The contract: storage mode is invisible to every consumer —
//! packages, objectives, optimality flags and evaluation counters never
//! change, only where the column bytes live. These tests pin that guarantee
//! across random queries over **every family in the scenario registry**
//! (`datagen::scenarios()`) × threads {1, 8} with the pool starved to its
//! 2-page minimum, so every scan genuinely faults pages in and out while
//! solving.

use datagen::{recipes, scenarios, QueryParams, Seed};
use minidb::{Catalog, Table};
use packagebuilder::config::{EngineConfig, Strategy};
use packagebuilder::par::{chunk_count, ParExec};
use packagebuilder::solver::{GreedySolver, SolveOptions, Solver};
use packagebuilder::spec::PackageSpec;
use packagebuilder::{ColumnPolicy, PackageEngine, PackageResult};
use proptest::prelude::*;

/// Thread counts the paged runs are evaluated at; the resident sequential
/// run is the reference every combination must match bit for bit.
const THREAD_COUNTS: [usize; 2] = [1, 8];

/// The starvation pool: the smallest capacity the store accepts, far below
/// any multi-term view's working set, so scans continuously evict.
const STARVED_POOL_PAGES: usize = 2;

/// Evaluates `query` on a fresh engine pinned to the given storage mode and
/// thread count. Only storage and threads vary between runs — the portfolio
/// worker set is fixed at the sequential default, so any result difference
/// is attributable to paging or fan-out alone.
fn run_with(
    table: Table,
    strategy: Strategy,
    threads: usize,
    pool_pages: Option<usize>,
    query: &str,
) -> Result<PackageResult, String> {
    let mut catalog = Catalog::new();
    catalog.register(table);
    let mut config = EngineConfig::with_strategy(strategy)
        .with_seed(7)
        .with_num_threads(1);
    config.num_threads = threads;
    match pool_pages {
        // Budget 0 forces every build out-of-core through a pool of the
        // given capacity.
        Some(pages) => {
            config = config.with_column_memory_budget(0).with_pool_pages(pages);
        }
        None => config = config.with_column_memory_budget(usize::MAX),
    }
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
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Random queries over every registered scenario: a resident sequential
    /// reference run versus out-of-core runs through a 2-page starvation
    /// pool at 1 and 8 threads — identical outcomes, down to the evaluation
    /// counters.
    #[test]
    fn storage_mode_never_changes_results(
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
        let reference = run_with(
            (scenario.build)(scenario.property_n, Seed(seed)), strategy, 1, None, &text,
        );
        for &threads in &THREAD_COUNTS {
            let paged = run_with(
                (scenario.build)(scenario.property_n, Seed(seed)),
                strategy,
                threads,
                Some(STARVED_POOL_PAGES),
                &text,
            );
            assert_runs_identical(
                &reference,
                &paged,
                &format!("{}/{strategy:?} paged at {threads} threads (query: {text})", scenario.name),
            );
        }
    }
}

const WIDE_QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R \
    SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
    MAXIMIZE SUM(P.protein)";

/// A candidate set spanning multiple chunks (5000 > CHUNK_WIDTH) solved by
/// every heuristic strategy: the partitioning spreads, swap scans and greedy
/// repair all cross page boundaries and still match the resident reference
/// bit for bit at both thread counts. The pool holds 4 of the view's 6
/// pages (3 terms × 2 chunks), so scans keep evicting without degenerating
/// into a miss on every single row access — starvation itself is pinned by
/// the proptest above and the buffer-pool unit tests.
#[test]
fn multi_chunk_solves_are_storage_mode_invariant() {
    for strategy in [
        Strategy::Greedy,
        Strategy::SketchRefine,
        Strategy::ProgressiveShading,
        Strategy::LocalSearch,
    ] {
        let reference = run_with(recipes(5_000, Seed(11)), strategy, 1, None, WIDE_QUERY);
        assert!(reference.is_ok(), "{strategy:?} failed: {reference:?}");
        for &threads in &THREAD_COUNTS {
            let paged = run_with(
                recipes(5_000, Seed(11)),
                strategy,
                threads,
                Some(4),
                WIDE_QUERY,
            );
            assert_runs_identical(
                &reference,
                &paged,
                &format!("{strategy:?} paged at {threads} threads, n=5000"),
            );
        }
    }
}

/// The exact core under paging: branch and bound over a paged view (its
/// constraint rows are linearized through chunk pins) proves the same
/// optimum with the same node and iteration counters as the resident run.
#[test]
fn exact_ilp_is_storage_mode_invariant() {
    let reference = run_with(recipes(2_000, Seed(11)), Strategy::Ilp, 1, None, WIDE_QUERY);
    let ok = reference.as_ref().expect("exact solve at n=2000 succeeds");
    assert!(ok.optimal, "the exact worker should prove optimality here");
    for &threads in &THREAD_COUNTS {
        let paged = run_with(
            recipes(2_000, Seed(11)),
            Strategy::Ilp,
            threads,
            Some(STARVED_POOL_PAGES),
            WIDE_QUERY,
        );
        assert_runs_identical(
            &reference,
            &paged,
            &format!("Ilp paged at {threads} threads, n=2000"),
        );
    }
}

/// The widest registered schema through the starved pool: the wide
/// scenario's 120-column relation drives a FILTERed multi-term view whose
/// term columns dwarf the 2-page pool, and the exact solve still matches
/// the resident reference bit for bit.
#[test]
fn wide_filtered_views_are_storage_mode_invariant() {
    let scenario = datagen::scenario("wide").expect("wide family is registered");
    let reference = run_with(
        (scenario.build)(scenario.exact_n, Seed(13)),
        Strategy::Ilp,
        1,
        None,
        &scenario.exact_query,
    );
    for &threads in &THREAD_COUNTS {
        let paged = run_with(
            (scenario.build)(scenario.exact_n, Seed(13)),
            Strategy::Ilp,
            threads,
            Some(STARVED_POOL_PAGES),
            &scenario.exact_query,
        );
        assert_runs_identical(
            &reference,
            &paged,
            &format!("Ilp/wide paged at {threads} threads"),
        );
    }
}

/// Paged view construction produces the same coefficients, inclusion masks
/// and chunk metadata as the resident build, bit for bit — the foundation
/// the solver-level invariance above rests on.
#[test]
fn paged_view_builds_match_resident_builds() {
    let table = recipes(9_000, Seed(3));
    let analyzed = paql::compile(WIDE_QUERY, table.schema()).unwrap();
    let resident = PackageSpec::build_with(
        &analyzed,
        &table,
        &ColumnPolicy::resident(),
        ParExec::sequential(),
    )
    .unwrap();
    for threads in [1usize, 8] {
        let paged = PackageSpec::build_with(
            &analyzed,
            &table,
            &ColumnPolicy::paged(STARVED_POOL_PAGES),
            ParExec::new(threads),
        )
        .unwrap();
        assert_eq!(resident.candidates, paged.candidates);
        assert_eq!(resident.view().terms().len(), paged.view().terms().len());
        assert!(paged.view().is_paged(), "paged policy must actually spill");
        assert!(!resident.view().is_paged());
        for (r, p) in resident.view().terms().iter().zip(paged.view().terms()) {
            assert_eq!(r.coeffs_vec(), p.coeffs_vec(), "{threads} threads");
            assert_eq!(r.included_vec(), p.included_vec(), "{threads} threads");
            assert_eq!(r.chunk_meta(), p.chunk_meta(), "{threads} threads");
        }
    }
}

/// Pool traffic of a paged greedy solve: the repair scans pin each term's
/// column chunk once per scan chunk and score every candidate of the chunk
/// from it, so the solve reads at most `terms × chunks` pages per repair
/// pass plus a few whole-column passes (the objective linearization of the
/// greedy start, and the member reads of projecting and moving) — not one
/// page per candidate per term per pass.
#[test]
fn paged_greedy_repair_reads_each_page_once_per_pass() {
    let table = recipes(50_000, Seed(17));
    let query = "SELECT PACKAGE(R) AS P FROM recipes R \
                 SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
                 MAXIMIZE SUM(P.protein)";
    let analyzed = paql::compile(query, table.schema()).unwrap();
    let spec = PackageSpec::build_with(&analyzed, &table, &ColumnPolicy::paged(4), ParExec::new(2))
        .unwrap();
    let view = spec.view();
    assert!(view.is_paged(), "paged policy must actually spill");
    let before = view.pool_counters();
    let outcome = GreedySolver.solve(view, &SolveOptions::default()).unwrap();
    let after = view.pool_counters();
    assert!(
        outcome.stats.nodes > 0,
        "the greedy start must need repair moves for the bound to bite"
    );
    let reads = (after.hits + after.misses) - (before.hits + before.misses);
    let terms = view.terms().len() as u64;
    let chunks = chunk_count(view.candidate_count()) as u64;
    // A pass per accepted move, plus the final pass that finds none.
    let passes = outcome.stats.nodes + 1;
    assert!(
        reads <= terms * chunks * (passes + 3),
        "{reads} pool reads for {terms} terms × {chunks} chunks × {passes} passes \
         ({} evaluations)",
        outcome.stats.iterations
    );
}
