//! Sketch→refine contract suite.
//!
//! Three properties, exercised over all four datagen scenarios (recipes,
//! stocks, travel, synthetic uniform):
//!
//! * **validity** — every package the solver returns passes full engine
//!   validation (the interpreted oracle, independent of the columnar view);
//! * **quality floor** — on linearizable queries the objective is never
//!   worse than [`Strategy::Greedy`]'s, and sketch→refine finds a package
//!   whenever greedy does;
//! * **determinism** — same seed ⇒ identical partitioning and identical
//!   package, across independently built engines.
//!
//! Plus the planner policy: at or above [`EngineConfig::sketch_threshold`],
//! `Auto` stops trusting the monolithic ILP's latency for linearizable
//! single-package queries and races a portfolio (whose workers include
//! sketch→refine, with the exact worker node-capped).

use datagen::{recipes, stocks, travel_options, uniform_table, Seed};
use minidb::{Catalog, Table};
use packagebuilder::config::{EngineConfig, Strategy};
use packagebuilder::partition::partition_view;
use packagebuilder::result::StrategyUsed;
use packagebuilder::spec::PackageSpec;
use packagebuilder::{Package, PackageEngine};
use paql::ObjectiveDirection;

/// The four scenario relations with one linearizable query each, at a size
/// where the sketch has real partitions to work with.
fn scenarios(seed: u64) -> Vec<(Table, &'static str)> {
    vec![
        (
            recipes(1_200, Seed(seed)),
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
             MAXIMIZE SUM(P.protein)",
        ),
        (
            stocks(1_000, Seed(seed)),
            "SELECT PACKAGE(S) AS P FROM stocks S \
             SUCH THAT COUNT(*) BETWEEN 3 AND 12 AND SUM(P.price) <= 30000 \
             MAXIMIZE SUM(P.expected_return)",
        ),
        (
            travel_options(600, 400, 150, Seed(seed)),
            "SELECT PACKAGE(T) AS P FROM travel_options T \
             SUCH THAT COUNT(*) FILTER (WHERE T.kind = 'flight') = 1 AND \
                       COUNT(*) FILTER (WHERE T.kind = 'hotel') = 1 AND \
                       SUM(P.price) <= 2000 \
             MAXIMIZE SUM(P.comfort)",
        ),
        (
            uniform_table("t", 1_000, 5.0, 20.0, Seed(seed)),
            "SELECT PACKAGE(T) AS P FROM t T \
             SUCH THAT COUNT(*) = 5 AND SUM(P.w) BETWEEN 40 AND 70 \
             MAXIMIZE SUM(P.v)",
        ),
    ]
}

fn engine_for(table: Table, strategy: Strategy, seed: u64) -> PackageEngine {
    let mut catalog = Catalog::new();
    catalog.register(table);
    PackageEngine::with_config(
        catalog,
        EngineConfig::with_strategy(strategy).with_seed(seed),
    )
}

#[test]
fn refined_packages_are_valid_and_never_worse_than_greedy_on_every_scenario() {
    for data_seed in [1u64, 7, 20140901] {
        for (table, query) in scenarios(data_seed) {
            let name = table.name().to_string();
            let parsed = paql::parse(query).unwrap();
            let engine = engine_for(table, Strategy::SketchRefine, 42);
            let spec = engine.build_spec(&parsed).unwrap();
            let sketch = engine
                .execute_with_strategy(&spec, Strategy::SketchRefine)
                .unwrap_or_else(|e| panic!("{name}: sketch-refine failed: {e}"));
            let greedy = engine
                .execute_with_strategy(&spec, Strategy::Greedy)
                .unwrap();
            // Validity is already enforced by the engine's interpreted
            // re-check; assert through the spec as well for a loud message.
            for p in &sketch.packages {
                assert!(spec.is_valid(p).unwrap(), "{name}: invalid package");
            }
            assert!(
                !sketch.optimal,
                "{name}: sketch-refine must not claim optimality"
            );
            if !greedy.is_empty() {
                assert!(
                    !sketch.is_empty(),
                    "{name}: greedy found a package but sketch-refine did not"
                );
                let direction = spec
                    .objective
                    .as_ref()
                    .map(|o| o.direction)
                    .unwrap_or(ObjectiveDirection::Maximize);
                let s = sketch.best_objective();
                let g = greedy.best_objective();
                assert!(
                    s == g || Package::better_objective(direction, s, g),
                    "{name}: sketch-refine objective {s:?} worse than greedy {g:?}"
                );
            }
        }
    }
}

#[test]
fn same_seed_means_identical_partitioning_and_package() {
    for (table, query) in scenarios(5) {
        let name = table.name().to_string();
        // Partitioning: rebuild the spec twice from scratch.
        let analyzed = paql::compile(query, table.schema()).unwrap();
        let spec_a = PackageSpec::build(&analyzed, &table).unwrap();
        let spec_b = PackageSpec::build(&analyzed, &table).unwrap();
        let part_a = partition_view(spec_a.view(), 64, 42);
        let part_b = partition_view(spec_b.view(), 64, 42);
        assert_eq!(part_a.len(), part_b.len(), "{name}: partition count");
        for (x, y) in part_a.partitions().iter().zip(part_b.partitions()) {
            assert_eq!(x.members, y.members, "{name}: members differ");
            assert_eq!(x.centroid, y.centroid, "{name}: centroids differ");
        }
        // Package: two independently built engines, same seed.
        let run = || {
            let mut catalog = Catalog::new();
            catalog.register(table.clone());
            let engine = PackageEngine::with_config(
                catalog,
                EngineConfig::with_strategy(Strategy::SketchRefine).with_seed(42),
            );
            engine.execute_paql(query).unwrap()
        };
        let first = run();
        let second = run();
        assert_eq!(first.packages, second.packages, "{name}: packages differ");
        assert_eq!(
            first.objectives, second.objectives,
            "{name}: objectives differ"
        );
        assert_eq!(
            first.stats.nodes, second.stats.nodes,
            "{name}: nodes differ"
        );
    }
}

#[test]
fn auto_races_a_portfolio_for_large_linearizable_queries() {
    let table = recipes(900, Seed(11));
    let mut catalog = Catalog::new();
    catalog.register(table);
    let config = EngineConfig {
        sketch_threshold: 500, // scaled down so the test stays fast
        ..Default::default()
    };
    let engine = PackageEngine::with_config(catalog, config);
    let query = paql::parse(
        "SELECT PACKAGE(R) AS P FROM recipes R \
         SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
         MAXIMIZE SUM(P.protein)",
    )
    .unwrap();
    let spec = engine.build_spec(&query).unwrap();
    assert_eq!(engine.resolve_strategy(&spec), Strategy::Portfolio);
    let result = engine.execute_spec(&spec).unwrap();
    assert_eq!(result.stats.strategy, StrategyUsed::Portfolio);
    assert!(!result.is_empty());
    // Below the threshold the exact ILP keeps the job.
    let config = EngineConfig {
        sketch_threshold: 5_000,
        ..Default::default()
    };
    let mut catalog = Catalog::new();
    catalog.register(recipes(900, Seed(11)));
    let engine = PackageEngine::with_config(catalog, config);
    let spec = engine.build_spec(&query).unwrap();
    assert_eq!(engine.resolve_strategy(&spec), Strategy::Ilp);
    // A top-k request also keeps the exact ILP (sketch→refine returns a
    // single approximate package and must not silently drop the other k−1).
    let config = EngineConfig {
        sketch_threshold: 500,
        ..Default::default()
    }
    .packages(5);
    let mut catalog = Catalog::new();
    catalog.register(recipes(900, Seed(11)));
    let engine = PackageEngine::with_config(catalog, config);
    let spec = engine.build_spec(&query).unwrap();
    assert_eq!(engine.resolve_strategy(&spec), Strategy::Ilp);
    let result = engine.execute_spec(&spec).unwrap();
    assert_eq!(result.len(), 5, "top-k must survive the sketch threshold");
}

#[test]
fn avg_constrained_queries_route_to_ilp_and_match_the_enumeration_oracle() {
    // Planner-level acceptance for the AVG linearization: AVG-vs-constant is
    // linear now, so `Auto` hands it to the ILP (not local search), and the
    // ILP optimum agrees with the exact enumeration oracle on small inputs.
    let mut catalog = Catalog::new();
    catalog.register(recipes(200, Seed(3)));
    let engine = PackageEngine::new(catalog);
    let query = "SELECT PACKAGE(R) AS P FROM recipes R \
         SUCH THAT COUNT(*) = 3 AND AVG(P.calories) BETWEEN 400 AND 700 \
         MAXIMIZE SUM(P.protein)";
    let result = engine.execute_paql(query).unwrap();
    assert_eq!(result.stats.strategy, StrategyUsed::Ilp);
    assert!(result.optimal);

    let mut catalog = Catalog::new();
    catalog.register(recipes(16, Seed(3)));
    let engine = PackageEngine::new(catalog);
    let parsed = paql::parse(query).unwrap();
    let spec = engine.build_spec(&parsed).unwrap();
    let ilp = engine.execute_with_strategy(&spec, Strategy::Ilp).unwrap();
    let oracle = engine
        .execute_with_strategy(&spec, Strategy::PrunedEnumeration)
        .unwrap();
    assert!(oracle.optimal);
    match (ilp.best_objective(), oracle.best_objective()) {
        (Some(a), Some(b)) => assert!((a - b).abs() < 1e-6, "ilp {a} vs oracle {b}"),
        (None, None) => {}
        other => panic!("ilp and oracle disagree on feasibility: {other:?}"),
    }
}

/// The meal-plan query of the experiment harness (`pb_bench::MEAL_PLAN_QUERY`,
/// copied: pb-core cannot depend on pb-bench).
const MEAL_PLAN_QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R \
    WHERE R.gluten = 'free' \
    SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
    MAXIMIZE SUM(P.protein)";

/// Pinned `(objective, B&B nodes, simplex iterations, package tuple ids)`
/// of the meal plan over `recipes(n, Seed(20140901))`. The flat rows are
/// the descent over a tree with no layers; the shaded row descends a real
/// layer of the default-fanout tree at n = 20 000. Any change to
/// partitioning, sketching, refinement or the sub-ILP memo moves at least
/// one of these numbers.
#[test]
fn pinned_meal_plan_results_are_bit_identical_at_every_thread_count_and_storage_mode() {
    let pins: [(Strategy, usize, f64, u64, u64, [u32; 3]); 3] = [
        (
            Strategy::SketchRefine,
            2_000,
            247.0,
            30,
            1878,
            [98, 1280, 1869],
        ),
        (
            Strategy::SketchRefine,
            20_000,
            246.0,
            350,
            17773,
            [5861, 13704, 15397],
        ),
        (
            Strategy::ProgressiveShading,
            20_000,
            246.0,
            177,
            17209,
            [5861, 13704, 15397],
        ),
    ];
    for (strategy, n, objective, nodes, iterations, ids) in pins {
        for threads in [1, 2] {
            for paged in [false, true] {
                let mut catalog = Catalog::new();
                catalog.register(recipes(n, Seed(20140901)));
                let mut config = EngineConfig::with_strategy(strategy)
                    .with_seed(20140901)
                    .with_num_threads(threads);
                if paged {
                    config = config.with_column_memory_budget(0).with_pool_pages(2);
                }
                let engine = PackageEngine::with_config(catalog, config);
                let r = engine.execute_paql(MEAL_PLAN_QUERY).unwrap();
                let at = format!("{strategy:?} n={n} threads={threads} paged={paged}");
                assert_eq!(r.best_objective(), Some(objective), "{at}: objective");
                assert_eq!(r.stats.nodes, nodes, "{at}: nodes");
                assert_eq!(r.stats.iterations, iterations, "{at}: iterations");
                let got: Vec<u32> = r.packages[0].tuple_ids().iter().map(|t| t.0).collect();
                assert_eq!(got, ids, "{at}: package");
            }
        }
    }
}
