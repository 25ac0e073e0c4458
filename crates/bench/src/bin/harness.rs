//! The experiment harness: runs every experiment of `EXPERIMENTS.md` at a
//! laptop-friendly scale and prints one markdown table per experiment.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pb-bench --bin harness            # all experiments
//! cargo run --release -p pb-bench --bin harness -- e1 e3   # a subset
//! ```
//!
//! Besides `e1`–`e8`, the named modes `eval`, `portfolio`, `sketch`,
//! `cache`, `parallel`, `bnb`, `paged` and `shade` run the PR-baseline
//! experiments and write the corresponding `BENCH_*.json` files. The `gauntlet` mode
//! (or `gauntlet-smoke` for the smallest-size-only CI leg) runs the
//! scenario-registry workload gauntlet and exits nonzero when a validity,
//! cross-thread determinism or objective-gap gate fails.

use std::collections::BTreeMap;
use std::time::Instant;

use lp_solver::SolverConfig;
use minidb::TupleId;
use packagebuilder::budget::Budget;
use packagebuilder::config::Strategy;
use packagebuilder::diversity::{diversity_score, select_diverse};
use packagebuilder::enumerate::{enumerate, EnumerationOptions};
use packagebuilder::explore::ExplorationSession;
use packagebuilder::ilp::solve_ilp;
use packagebuilder::local_search::{local_search, single_replacement_query, LocalSearchOptions};
use packagebuilder::package::Package;
use packagebuilder::pruning::{derive_bounds, search_space};
use packagebuilder::spec::PackageSpec;
use packagebuilder::suggest::{suggest, Highlight};
use packagebuilder::summary::summarize;
use pb_bench::{
    ms, print_header, print_row, recipe_engine, recipe_table, resource_json, run, MEAL_PLAN_QUERY,
    MEAL_PLAN_QUERY_NO_FILTER,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    println!("PackageBuilder reproduction — experiment harness");
    println!(
        "(one markdown table per experiment; see EXPERIMENTS.md for the claim each row checks)\n"
    );

    if want("e1") {
        e1_pruning();
    }
    if want("e2") {
        e2_strategies();
    }
    if want("e3") {
        e3_replacement();
    }
    if want("e4") {
        e4_mealplan();
    }
    if want("e5") {
        e5_interface();
    }
    if want("e6") {
        e6_multiple();
    }
    if want("e7") {
        e7_repeat();
    }
    if want("e8") {
        e8_explore();
    }
    if want("eval") {
        eval_throughput();
    }
    if want("portfolio") {
        portfolio_racing();
    }
    if want("sketch") {
        sketch_refine_scaling();
    }
    if want("cache") && !cache_reuse() {
        // Bit-identity of cache hits is deterministic (unlike the timing
        // verdicts), so a mismatch is a real regression and must fail CI.
        eprintln!("CACHE experiment: warm cache-hit results differ from cold results");
        std::process::exit(1);
    }
    if want("parallel") && !parallel_scaling() {
        // Chunk-order reductions make thread count result-invariant by
        // construction; a mismatch is a real determinism regression.
        eprintln!("PARALLEL experiment: parallel and sequential packages differ");
        std::process::exit(1);
    }
    if want("bnb") && !bnb_exact_core() {
        // Parallel branch and bound merges frontier batches in a fixed
        // order; a thread-dependent solution (or even a drifting node or
        // iteration counter) is a real determinism regression.
        eprintln!(
            "BNB experiment: multi-thread exact solutions differ from the 1-thread reference"
        );
        std::process::exit(1);
    }
    if want("paged") && !paged_out_of_core() {
        // Column storage mode is invisible to every consumer by contract;
        // a paged run that differs from its resident reference (packages,
        // objectives, or even the evaluation counters) is a real
        // out-of-core correctness regression.
        eprintln!("PAGED experiment: out-of-core results differ from the resident reference");
        std::process::exit(1);
    }
    if want("shade") && !shade_scaling() {
        // All three shade gates are deterministic: cross-thread fingerprints
        // are bit-identical by the chunk-order contract, the greedy floor is
        // structural to the solver, and objectives and counters reproduce
        // the committed rows exactly — any miss is a real regression.
        eprintln!(
            "SHADE experiment: a cross-thread, greedy-floor or committed-fingerprint gate failed"
        );
        std::process::exit(1);
    }
    // `gauntlet` sweeps the full size grid; `gauntlet-smoke` (and the
    // no-argument run) keeps each family at its smallest size so default
    // and CI runs stay minutes, not hours.
    let gauntlet_smoke = args.iter().any(|a| a == "gauntlet-smoke");
    if (want("gauntlet") || gauntlet_smoke) && !gauntlet(gauntlet_smoke || args.is_empty()) {
        eprintln!(
            "GAUNTLET experiment: a validity, cross-thread identity or objective-gap gate failed"
        );
        std::process::exit(1);
    }
}

/// Runs `f` repeatedly until ~0.2 s has elapsed and returns calls/second.
fn rate(mut f: impl FnMut() -> usize) -> f64 {
    let budget = std::time::Duration::from_millis(200);
    let start = Instant::now();
    let mut calls = 0usize;
    while start.elapsed() < budget {
        calls += f();
    }
    calls as f64 / start.elapsed().as_secs_f64()
}

/// EVAL — package-evaluation throughput: the columnar `CandidateView` path
/// (full projection and delta moves) against the interpreted expression-tree
/// oracle. Writes `BENCH_eval.json` next to the working directory so future
/// PRs have a machine-readable baseline.
fn eval_throughput() {
    println!("## EVAL — objective/violation evaluation throughput (columnar vs interpreted)\n");
    let widths = [8, 30, 16, 18];
    print_header(&["n", "path", "evals/sec", "vs interpreted"], &widths);
    let mut json_rows: Vec<String> = Vec::new();
    for n in [500usize, 2_000, 8_000] {
        let table = recipe_table(n);
        let analyzed = paql::compile(MEAL_PLAN_QUERY_NO_FILTER, table.schema()).unwrap();
        let spec = PackageSpec::build(&analyzed, &table).unwrap();
        let formula = spec.formula.clone().expect("meal query has a formula");
        let objective = spec.objective.clone().expect("meal query has an objective");
        let packages: Vec<Package> = (0..64)
            .map(|i| {
                Package::from_ids(
                    spec.candidates
                        .iter()
                        .copied()
                        .cycle()
                        .skip((i * 3) % spec.candidate_count())
                        .take(3),
                )
            })
            .collect();

        let interpreted = rate(|| {
            for p in &packages {
                let v = p.formula_violation(&table, &formula).unwrap();
                let o = p.objective_value(&table, &objective).unwrap();
                std::hint::black_box((v, o));
            }
            packages.len()
        });
        let columnar = rate(|| {
            for p in &packages {
                let v = spec.violation(p).unwrap();
                let o = spec.objective_value(p).unwrap();
                std::hint::black_box((v, o));
            }
            packages.len()
        });
        let state = spec.view().project(&packages[0]).unwrap();
        let member = *state.member_indices().collect::<Vec<_>>().first().unwrap();
        let swaps: Vec<[(usize, i64); 2]> = (0..spec.candidate_count().min(256))
            .map(|inn| [(member, -1i64), (inn, 1i64)])
            .collect();
        let delta = rate(|| {
            for changes in &swaps {
                std::hint::black_box(state.score_with(changes));
            }
            swaps.len()
        });

        for (label, value) in [
            ("interpreted (oracle)", interpreted),
            ("columnar projection", columnar),
            ("columnar delta (swap)", delta),
        ] {
            print_row(
                &[
                    n.to_string(),
                    label.into(),
                    format!("{value:.0}"),
                    format!("{:.1}x", value / interpreted),
                ],
                &widths,
            );
        }
        json_rows.push(format!(
            "    {{\"n\": {n}, \"interpreted_evals_per_sec\": {interpreted:.1}, \
             \"columnar_evals_per_sec\": {columnar:.1}, \"delta_evals_per_sec\": {delta:.1}}}"
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"eval_throughput\",\n  \"query\": \"meal_plan\",\n{}\n  \"rows\": [\n{}\n  ]\n}}\n",
        resource_json(),
        json_rows.join(",\n")
    );
    match std::fs::write("BENCH_eval.json", &json) {
        Ok(()) => println!("\n(wrote BENCH_eval.json)\n"),
        Err(e) => println!("\n(could not write BENCH_eval.json: {e})\n"),
    }
}

/// PORTFOLIO — racing solve vs the sequential strategies on the meal-plan
/// scenario, at the sizes where the planner actually deploys the portfolio
/// (thousands of candidates; below `portfolio_threshold` the race cannot
/// beat a ~1 ms sequential ILP, especially time-shared on a single core).
/// The sequential strategies run to completion; the portfolio runs as the
/// interface layer would use it — under a deadline. Racing ILP, local
/// search and greedy over one view, the first provably-optimal finish
/// cancels the rest and the deadline caps everyone else, so the race
/// returns a package no worse than greedy alone while beating the slowest
/// sequential strategy's wall-clock. Writes `BENCH_portfolio.json` as the
/// machine-readable baseline for future PRs.
fn portfolio_racing() {
    const RACE_BUDGET: std::time::Duration = std::time::Duration::from_millis(25);
    println!(
        "## PORTFOLIO — racing solve (deadline {} ms) vs sequential strategies (meal plan)\n",
        RACE_BUDGET.as_millis()
    );
    let widths = [6, 16, 12, 14, 10];
    print_header(
        &["n", "strategy", "time (ms)", "objective", "optimal?"],
        &widths,
    );
    let mut json_rows: Vec<String> = Vec::new();
    for n in [2_000usize, 8_000, 20_000] {
        let mut rows: Vec<(&str, std::time::Duration, Option<f64>, bool)> = Vec::new();
        for (label, strategy) in [
            ("ilp", Strategy::Ilp),
            ("local-search", Strategy::LocalSearch),
            ("greedy", Strategy::Greedy),
            ("portfolio", Strategy::Portfolio),
        ] {
            let mut engine = recipe_engine(n, strategy);
            if strategy == Strategy::Portfolio {
                engine.config_mut().time_budget = Some(RACE_BUDGET);
                engine.config_mut().solver.time_limit = Some(RACE_BUDGET);
            }
            let t0 = Instant::now();
            let r = run(&engine, MEAL_PLAN_QUERY);
            rows.push((label, t0.elapsed(), r.best_objective(), r.optimal));
        }
        // Verdict inputs looked up by label, so reordering or extending the
        // strategy list above cannot silently skew the recorded baseline.
        let by_label = |l: &str| {
            rows.iter()
                .find(|(label, ..)| *label == l)
                .unwrap_or_else(|| panic!("missing {l} row"))
        };
        let slowest_sequential = rows
            .iter()
            .filter(|(label, ..)| *label != "portfolio")
            .map(|(_, t, _, _)| *t)
            .max()
            .expect("sequential rows");
        let greedy_objective = by_label("greedy").2;
        let (_, portfolio_time, portfolio_objective, _) = *by_label("portfolio");
        for (label, time, obj, optimal) in &rows {
            print_row(
                &[
                    n.to_string(),
                    (*label).into(),
                    ms(*time),
                    obj.map(|o| format!("{o:.1}")).unwrap_or_else(|| "-".into()),
                    if *optimal { "yes".into() } else { "no".into() },
                ],
                &widths,
            );
            json_rows.push(format!(
                "    {{\"n\": {n}, \"strategy\": \"{label}\", \"ms\": {:.3}, \
                 \"objective\": {}, \"optimal\": {optimal}}}",
                time.as_secs_f64() * 1e3,
                obj.map(|o| format!("{o:.3}"))
                    .unwrap_or_else(|| "null".into()),
            ));
        }
        let beats_slowest = portfolio_time < slowest_sequential;
        let no_worse_than_greedy = match (portfolio_objective, greedy_objective) {
            (Some(p), Some(g)) => p + 1e-9 >= g,
            (_, None) => true,
            (None, Some(_)) => false,
        };
        print_row(
            &[
                n.to_string(),
                "verdict".into(),
                format!(
                    "{:.1}x",
                    slowest_sequential.as_secs_f64() / portfolio_time.as_secs_f64().max(1e-9)
                ),
                if no_worse_than_greedy {
                    ">= greedy".into()
                } else {
                    "< greedy (!)".into()
                },
                if beats_slowest {
                    "faster".into()
                } else {
                    "SLOWER".into()
                },
            ],
            &widths,
        );
    }
    let json = format!(
        "{{\n  \"experiment\": \"portfolio_racing\",\n  \"query\": \"meal_plan\",\n{}\n  \"rows\": [\n{}\n  ]\n}}\n",
        resource_json(),
        json_rows.join(",\n")
    );
    match std::fs::write("BENCH_portfolio.json", &json) {
        Ok(()) => println!("\n(wrote BENCH_portfolio.json)\n"),
        Err(e) => println!("\n(could not write BENCH_portfolio.json: {e})\n"),
    }
}

/// SKETCH — partition→sketch→refine vs the monolithic ILP and the 25 ms
/// portfolio race on the meal-plan scenario. The claim under test (from
/// SketchRefine, PVLDB 2016): near-optimal objectives at a small fraction of
/// the monolithic ILP's latency, and strictly better objectives than a
/// deadline-bound race once the race can no longer finish the exact solve
/// (n ≥ 8000 on this host). The sequential ILP is run to completion up to
/// n = 20 000 as the optimality/latency baseline; at n = 50 000 it would take
/// minutes, so only sketch→refine and the race are measured there. Writes
/// `BENCH_sketch.json` as the machine-readable baseline for future PRs.
fn sketch_refine_scaling() {
    const RACE_BUDGET: std::time::Duration = std::time::Duration::from_millis(25);
    println!("## SKETCH — sketch→refine vs sequential ILP and the 25 ms portfolio (meal plan)\n");
    let widths = [6, 16, 12, 14, 10];
    print_header(
        &["n", "strategy", "time (ms)", "objective", "optimal?"],
        &widths,
    );
    let mut json_rows: Vec<String> = Vec::new();
    for n in [2_000usize, 8_000, 20_000, 50_000] {
        let mut rows: Vec<(&str, std::time::Duration, Option<f64>, bool)> = Vec::new();
        // `race-trio` is PR 2's worker set (ilp/local-search/greedy) — the
        // deadline race as it existed before sketch→refine joined it; the
        // `portfolio` row is today's default race, which includes
        // sketch→refine as a fourth worker and therefore inherits its
        // quality.
        for (label, strategy) in [
            ("ilp", Strategy::Ilp),
            ("race-trio", Strategy::Portfolio),
            ("portfolio", Strategy::Portfolio),
            ("sketch-refine", Strategy::SketchRefine),
        ] {
            if label == "ilp" && n > 20_000 {
                continue; // minutes of wall-clock for one baseline row
            }
            let mut engine = recipe_engine(n, strategy);
            if strategy == Strategy::Portfolio {
                engine.config_mut().time_budget = Some(RACE_BUDGET);
                engine.config_mut().solver.time_limit = Some(RACE_BUDGET);
                if label == "race-trio" {
                    engine.config_mut().portfolio_workers =
                        vec![Strategy::Ilp, Strategy::LocalSearch, Strategy::Greedy];
                }
            }
            let t0 = Instant::now();
            let r = run(&engine, MEAL_PLAN_QUERY);
            rows.push((label, t0.elapsed(), r.best_objective(), r.optimal));
        }
        // Verdict inputs looked up by label (same convention as the
        // portfolio experiment), so reordering or extending the strategy
        // list cannot silently skew the recorded baseline. Only the ilp row
        // is legitimately absent (skipped past n = 20,000).
        let by_label = |l: &str| rows.iter().find(|(label, ..)| *label == l);
        for (label, time, obj, optimal) in &rows {
            print_row(
                &[
                    n.to_string(),
                    (*label).into(),
                    ms(*time),
                    obj.map(|o| format!("{o:.1}")).unwrap_or_else(|| "-".into()),
                    if *optimal { "yes".into() } else { "no".into() },
                ],
                &widths,
            );
            json_rows.push(format!(
                "    {{\"n\": {n}, \"strategy\": \"{label}\", \"ms\": {:.3}, \
                 \"objective\": {}, \"optimal\": {optimal}}}",
                time.as_secs_f64() * 1e3,
                obj.map(|o| format!("{o:.3}"))
                    .unwrap_or_else(|| "null".into()),
            ));
        }
        let (_, sketch_time, sketch_obj, _) =
            *by_label("sketch-refine").expect("sketch row always runs");
        let (_, _, race_obj, _) = *by_label("race-trio").expect("race row always runs");
        let mut verdict = vec![n.to_string(), "verdict".into()];
        match by_label("ilp") {
            Some(&(_, ilp_time, ilp_obj, _)) => {
                let quality = match (sketch_obj, ilp_obj) {
                    (Some(s), Some(o)) if o > 0.0 => format!("{:.1}% of opt", 100.0 * s / o),
                    _ => "-".into(),
                };
                verdict.push(format!(
                    "{:.1}% of ilp",
                    100.0 * sketch_time.as_secs_f64() / ilp_time.as_secs_f64().max(1e-9)
                ));
                verdict.push(quality);
            }
            None => {
                verdict.push("-".into());
                verdict.push("(no ilp run)".into());
            }
        }
        let beats_race = match (sketch_obj, race_obj) {
            (Some(s), Some(p)) => s > p + 1e-9,
            (Some(_), None) => true,
            _ => false,
        };
        verdict.push(if beats_race {
            "> race".into()
        } else {
            "<= race".into()
        });
        print_row(&verdict, &widths);
    }
    let json = format!(
        "{{\n  \"experiment\": \"sketch_refine_scaling\",\n  \"query\": \"meal_plan\",\n{}\n  \"rows\": [\n{}\n  ]\n}}\n",
        resource_json(),
        json_rows.join(",\n")
    );
    match std::fs::write("BENCH_sketch.json", &json) {
        Ok(()) => println!("\n(wrote BENCH_sketch.json)\n"),
        Err(e) => println!("\n(could not write BENCH_sketch.json: {e})\n"),
    }
}

/// CACHE — the cross-query view & partition cache on a repeated query. The
/// claim under test: real workloads re-solve the same relation + base
/// predicate with varying constraints, and the engine's `ViewCache` makes
/// every solve after the first skip candidate evaluation, column
/// materialization, statistics *and* (on the sketch path) the k-d
/// partitioning — leaving pure solver time. Each n runs the meal-plan query
/// three times on one engine: `cold` (miss, builds and banks everything),
/// `warm`/`warm2` (hits). The verdict checks the warm pass is strictly
/// faster and the answers are bit-identical — cached building blocks must
/// never change results. Writes `BENCH_cache.json` as the machine-readable
/// baseline for future PRs. Returns false when any warm result differs from
/// its cold result, so the caller can fail the process (the CI gate).
fn cache_reuse() -> bool {
    let mut all_identical = true;
    println!("## CACHE — repeated-query view & partition cache (meal plan)\n");
    let widths = [6, 8, 12, 12, 14, 14];
    print_header(
        &[
            "n",
            "pass",
            "build (ms)",
            "solve (ms)",
            "objective",
            "cache h/m",
        ],
        &widths,
    );
    let mut json_rows: Vec<String> = Vec::new();
    // Both sizes leave the meal query's gluten-free candidate set (~42% of
    // n) at or above `sketch_threshold`, so Auto races the portfolio whose
    // sketch→refine worker runs — the offline partitioning it needs is part
    // of what the cache amortizes.
    // Smaller inputs fall to the monolithic ILP, whose solve time dwarfs
    // view construction — caching is latency-neutral there by design.
    for n in [12_000usize, 20_000] {
        let engine = recipe_engine(n, Strategy::Auto);
        let query = paql::parse(MEAL_PLAN_QUERY).unwrap();
        // (pass, build ms, solve ms, objective, best package).
        type Pass<'a> = (&'a str, f64, f64, Option<f64>, Option<Package>);
        let mut passes: Vec<Pass> = Vec::new();
        for pass in ["cold", "warm", "warm2"] {
            let t0 = Instant::now();
            let spec = engine.build_spec(&query).unwrap();
            let build = t0.elapsed().as_secs_f64() * 1e3;
            let t1 = Instant::now();
            let r = engine.execute_spec(&spec).unwrap();
            let solve = t1.elapsed().as_secs_f64() * 1e3;
            let stats = engine.view_cache().stats();
            print_row(
                &[
                    n.to_string(),
                    pass.into(),
                    format!("{build:.3}"),
                    format!("{solve:.3}"),
                    r.best_objective()
                        .map(|o| format!("{o:.1}"))
                        .unwrap_or_else(|| "-".into()),
                    format!("{}/{}", stats.hits, stats.misses),
                ],
                &widths,
            );
            json_rows.push(format!(
                "    {{\"n\": {n}, \"pass\": \"{pass}\", \"build_ms\": {build:.3}, \
                 \"solve_ms\": {solve:.3}, \"total_ms\": {:.3}, \"objective\": {}, \
                 \"cache_hits\": {}, \"cache_misses\": {}}}",
                build + solve,
                r.best_objective()
                    .map(|o| format!("{o:.3}"))
                    .unwrap_or_else(|| "null".into()),
                stats.hits,
                stats.misses,
            ));
            passes.push((pass, build, solve, r.best_objective(), r.best().cloned()));
        }
        let cold = passes.iter().find(|(p, ..)| *p == "cold").unwrap();
        let warm = passes.iter().find(|(p, ..)| *p == "warm").unwrap();
        let identical = passes
            .iter()
            .all(|(_, _, _, obj, best)| (*obj, best) == (cold.3, &cold.4));
        let speedup = (cold.1 + cold.2) / (warm.1 + warm.2).max(1e-9);
        print_row(
            &[
                n.to_string(),
                "verdict".into(),
                format!("{:.1}x", cold.1 / warm.1.max(1e-9)),
                format!("{speedup:.1}x total"),
                if identical {
                    "identical".into()
                } else {
                    "DIFFERENT (!)".into()
                },
                if cold.1 + cold.2 > warm.1 + warm.2 {
                    "faster".into()
                } else {
                    "SLOWER".into()
                },
            ],
            &widths,
        );
        all_identical &= identical;
    }
    let json = format!(
        "{{\n  \"experiment\": \"cache_reuse\",\n  \"query\": \"meal_plan\",\n{}\n  \"rows\": [\n{}\n  ]\n}}\n",
        resource_json(),
        json_rows.join(",\n")
    );
    match std::fs::write("BENCH_cache.json", &json) {
        Ok(()) => println!("\n(wrote BENCH_cache.json)\n"),
        Err(e) => println!("\n(could not write BENCH_cache.json: {e})\n"),
    }
    all_identical
}

/// PARALLEL — the chunked columnar layout's intra-solver fan-out on a
/// threads × n grid over the meal-plan scenario. Two claims under test:
///
/// 1. **Determinism** (the gate): the same query + seed yields *bit-identical*
///    packages and objectives at every `num_threads` — chunk boundaries are
///    fixed and reductions combine in chunk order, so threads may change
///    wall-clock only. Any mismatch makes the caller exit nonzero.
/// 2. **Scaling** (informational): on multi-core hosts the data-parallel
///    scans (partitioning spreads, repair, neighbourhood) shorten; on a
///    single-core host the chunked path must simply not regress.
///
/// Writes `BENCH_parallel.json` as the machine-readable baseline. Returns
/// false when any parallel run's package differs from the sequential
/// reference.
fn parallel_scaling() -> bool {
    use packagebuilder::config::default_num_threads;
    let mut all_identical = true;
    println!("## PARALLEL — chunked fan-out across threads × n (meal plan)\n");
    let widths = [6, 16, 8, 12, 14, 12];
    print_header(
        &[
            "n",
            "strategy",
            "threads",
            "time (ms)",
            "objective",
            "identical",
        ],
        &widths,
    );
    let host = default_num_threads();
    let mut thread_grid: Vec<usize> = vec![1, 2];
    if host > 2 {
        thread_grid.push(host);
    }
    let mut json_rows: Vec<String> = Vec::new();
    for n in [2_000usize, 8_000, 20_000] {
        for (label, strategy) in [
            ("sketch-refine", Strategy::SketchRefine),
            ("local-search", Strategy::LocalSearch),
        ] {
            // The sequential run is the reference every parallel run must
            // reproduce bit for bit.
            let mut reference: Option<(Option<f64>, Option<Package>)> = None;
            for &threads in &thread_grid {
                let mut engine = recipe_engine(n, strategy);
                engine.config_mut().num_threads = threads;
                let t0 = Instant::now();
                let r = run(&engine, MEAL_PLAN_QUERY);
                let elapsed = t0.elapsed();
                let outcome = (r.best_objective(), r.best().cloned());
                let identical = match &reference {
                    None => {
                        reference = Some(outcome.clone());
                        true
                    }
                    Some(reference) => *reference == outcome,
                };
                all_identical &= identical;
                print_row(
                    &[
                        n.to_string(),
                        label.into(),
                        threads.to_string(),
                        ms(elapsed),
                        outcome
                            .0
                            .map(|o| format!("{o:.1}"))
                            .unwrap_or_else(|| "-".into()),
                        if identical {
                            "identical".into()
                        } else {
                            "DIFFERENT (!)".into()
                        },
                    ],
                    &widths,
                );
                json_rows.push(format!(
                    "    {{\"n\": {n}, \"strategy\": \"{label}\", \"threads\": {threads}, \
                     \"ms\": {:.3}, \"objective\": {}, \"identical\": {identical}}}",
                    elapsed.as_secs_f64() * 1e3,
                    outcome
                        .0
                        .map(|o| format!("{o:.3}"))
                        .unwrap_or_else(|| "null".into()),
                ));
            }
        }
    }
    let json = format!(
        "{{\n  \"experiment\": \"parallel_scaling\",\n  \"query\": \"meal_plan\",\n  \
         \"host_threads\": {host},\n{}\n  \"rows\": [\n{}\n  ]\n}}\n",
        resource_json(),
        json_rows.join(",\n")
    );
    match std::fs::write("BENCH_parallel.json", &json) {
        Ok(()) => println!("\n(wrote BENCH_parallel.json)\n"),
        Err(e) => println!("\n(could not write BENCH_parallel.json: {e})\n"),
    }
    all_identical
}

/// BNB — the exact core after parallel branch and bound + warm-started
/// simplex, on a threads × n grid over the meal-plan scenario. Three claims
/// under test:
///
/// 1. **Determinism** (the gate): the exact solve returns bit-identical
///    packages, objectives, optimality flags *and* node/iteration counters
///    at every thread count — frontier batches have fixed composition and
///    merge in batch order, so threads change wall-clock only. Any mismatch
///    makes the caller exit nonzero.
/// 2. **Single-thread speed** (informational): warm-started children (dual
///    simplex from the parent's basis) should put the 1-thread exact solve
///    well under the pre-parallel baseline recorded in the SKETCH/PORTFOLIO
///    experiments.
/// 3. **Scaling** (informational): on multi-core hosts the batched LP
///    relaxation solves shorten wall-clock further; the objective-gap column
///    records how close sketch→refine gets to the proven optimum it races.
///
/// Writes `BENCH_bnb.json` (host core count included) as the
/// machine-readable baseline. Returns false when any multi-thread run
/// differs from its 1-thread reference.
fn bnb_exact_core() -> bool {
    use packagebuilder::config::default_num_threads;
    let mut all_identical = true;
    println!("## BNB — parallel branch & bound with warm starts across threads × n (meal plan)\n");
    let widths = [6, 16, 8, 12, 14, 10, 12];
    print_header(
        &[
            "n",
            "strategy",
            "threads",
            "time (ms)",
            "objective",
            "optimal?",
            "identical",
        ],
        &widths,
    );
    let host = default_num_threads();
    let mut thread_grid: Vec<usize> = vec![1, 2];
    if host > 2 {
        thread_grid.push(host);
    }
    let mut json_rows: Vec<String> = Vec::new();
    for n in [2_000usize, 8_000, 20_000] {
        // The approximate rival first: sketch→refine at one thread, the
        // latency/quality bar the exact core is chasing.
        let sketch_engine = recipe_engine(n, Strategy::SketchRefine);
        let t0 = Instant::now();
        let sketch = run(&sketch_engine, MEAL_PLAN_QUERY);
        let sketch_time = t0.elapsed();
        let sketch_obj = sketch.best_objective();
        print_row(
            &[
                n.to_string(),
                "sketch-refine".into(),
                "1".into(),
                ms(sketch_time),
                sketch_obj
                    .map(|o| format!("{o:.1}"))
                    .unwrap_or_else(|| "-".into()),
                "no".into(),
                "-".into(),
            ],
            &widths,
        );
        json_rows.push(format!(
            "    {{\"n\": {n}, \"strategy\": \"sketch-refine\", \"threads\": 1, \
             \"ms\": {:.3}, \"objective\": {}, \"optimal\": false, \
             \"nodes\": {}, \"iterations\": {}, \"identical\": true}}",
            sketch_time.as_secs_f64() * 1e3,
            sketch_obj
                .map(|o| format!("{o:.3}"))
                .unwrap_or_else(|| "null".into()),
            sketch.stats.nodes,
            sketch.stats.iterations,
        ));

        // The exact solve across the thread grid; 1 thread is the reference
        // every wider run must reproduce down to the counters.
        type Fingerprint = (Option<u64>, Option<Package>, bool, u64, u64);
        let mut reference: Option<(Fingerprint, std::time::Duration, Option<f64>)> = None;
        for &threads in &thread_grid {
            let mut engine = recipe_engine(n, Strategy::Ilp);
            engine.config_mut().num_threads = threads;
            let t0 = Instant::now();
            let r = run(&engine, MEAL_PLAN_QUERY);
            let elapsed = t0.elapsed();
            let fp: Fingerprint = (
                r.best_objective().map(f64::to_bits),
                r.best().cloned(),
                r.optimal,
                r.stats.nodes,
                r.stats.iterations,
            );
            let identical = match &reference {
                None => {
                    reference = Some((fp.clone(), elapsed, r.best_objective()));
                    true
                }
                Some((reference, ..)) => *reference == fp,
            };
            all_identical &= identical;
            print_row(
                &[
                    n.to_string(),
                    "ilp".into(),
                    threads.to_string(),
                    ms(elapsed),
                    r.best_objective()
                        .map(|o| format!("{o:.1}"))
                        .unwrap_or_else(|| "-".into()),
                    if r.optimal { "yes".into() } else { "no".into() },
                    if identical {
                        "identical".into()
                    } else {
                        "DIFFERENT (!)".into()
                    },
                ],
                &widths,
            );
            json_rows.push(format!(
                "    {{\"n\": {n}, \"strategy\": \"ilp\", \"threads\": {threads}, \
                 \"ms\": {:.3}, \"objective\": {}, \"optimal\": {}, \
                 \"nodes\": {}, \"iterations\": {}, \"identical\": {identical}}}",
                elapsed.as_secs_f64() * 1e3,
                r.best_objective()
                    .map(|o| format!("{o:.3}"))
                    .unwrap_or_else(|| "null".into()),
                r.optimal,
                r.stats.nodes,
                r.stats.iterations,
            ));
        }
        // Verdict: exact-vs-approximate latency and the objective gap the
        // race pays for approximating.
        if let Some((_, ilp_time, ilp_obj)) = &reference {
            let gap = match (ilp_obj, sketch_obj) {
                (Some(o), Some(s)) if *o > 0.0 => format!("{:.2}% gap", 100.0 * (o - s) / o),
                _ => "-".into(),
            };
            print_row(
                &[
                    n.to_string(),
                    "verdict".into(),
                    "-".into(),
                    format!(
                        "{:.1}x sketch",
                        ilp_time.as_secs_f64() / sketch_time.as_secs_f64().max(1e-9)
                    ),
                    gap,
                    "-".into(),
                    if all_identical {
                        "identical".into()
                    } else {
                        "DIFFERENT (!)".into()
                    },
                ],
                &widths,
            );
        }
    }
    let json = format!(
        "{{\n  \"experiment\": \"bnb_exact_core\",\n  \"query\": \"meal_plan\",\n  \
         \"host_threads\": {host},\n{}\n  \"rows\": [\n{}\n  ]\n}}\n",
        resource_json(),
        json_rows.join(",\n")
    );
    match std::fs::write("BENCH_bnb.json", &json) {
        Ok(()) => println!("\n(wrote BENCH_bnb.json)\n"),
        Err(e) => println!("\n(could not write BENCH_bnb.json: {e})\n"),
    }
    all_identical
}

/// PAGED — the out-of-core column store: the meal-plan query solved twice
/// per (n, strategy) cell, once with fully resident columns (the reference)
/// and once forced out-of-core through a buffer pool capped far below the
/// view's column bytes. The cells are the deterministic strategies `Auto`
/// dispatches to at each n — the exact ILP at 2 000; sketch-refine,
/// progressive shading and greedy at 20 000 and 120 000 — not `Auto`
/// itself, whose portfolio race at 20 000 ends with node and iteration
/// totals that depend on when its exact worker cancels the others. Two
/// claims under test:
///
/// 1. **Bit-identity** (the gate): the paged run returns the same packages,
///    objectives, optimality flags and node/iteration counters as the
///    resident run — storage mode decides where column bytes live, never
///    results. Any mismatch makes the caller exit nonzero.
/// 2. **Bounded memory** (informational): each paged cell records its pool
///    hit/miss/eviction deltas, and the json carries the process's peak RSS,
///    so future PRs can see the paged path genuinely faulting pages through
///    a small pool instead of quietly going resident.
///
/// `PB_PAGED_LARGE=1` adds the out-of-core flagship row: n = 10^7 solved via
/// sketch→refine with the pool capped below 25% of the view's column bytes
/// (paged only — a resident reference at that scale is exactly the footprint
/// the substrate exists to avoid).
fn paged_out_of_core() -> bool {
    use packagebuilder::par::chunk_count;
    use packagebuilder::pool_stats;

    let mut all_identical = true;
    println!("## PAGED — out-of-core column store vs resident (meal plan)\n");
    let widths = [9, 20, 10, 12, 14, 12, 16, 12];
    print_header(
        &[
            "n",
            "strategy",
            "mode",
            "time (ms)",
            "objective",
            "pool pages",
            "pool h/m/e",
            "identical",
        ],
        &widths,
    );
    let mut json_rows: Vec<String> = Vec::new();

    // One solve in the requested storage mode, with the pool-counter deltas
    // it produced. `pool: None` pins the build resident.
    let solve = |n: usize, strategy: Strategy, pool: Option<usize>| {
        let mut engine = recipe_engine(n, strategy);
        match pool {
            Some(pages) => {
                engine.config_mut().column_memory_budget = 0;
                engine.config_mut().pool_pages = pages;
            }
            None => engine.config_mut().column_memory_budget = usize::MAX,
        }
        let before = pool_stats();
        let t0 = Instant::now();
        let r = run(&engine, MEAL_PLAN_QUERY);
        let elapsed = t0.elapsed();
        let after = pool_stats();
        (
            r,
            elapsed,
            (
                after.hits - before.hits,
                after.misses - before.misses,
                after.evictions - before.evictions,
            ),
        )
    };
    let mut emit = |n: usize,
                    strategy: &str,
                    mode: &str,
                    pool: Option<usize>,
                    r: &packagebuilder::PackageResult,
                    elapsed: std::time::Duration,
                    (h, m, e): (u64, u64, u64),
                    identical: bool| {
        print_row(
            &[
                n.to_string(),
                strategy.into(),
                mode.into(),
                ms(elapsed),
                r.best_objective()
                    .map(|o| format!("{o:.1}"))
                    .unwrap_or_else(|| "-".into()),
                pool.map(|p| p.to_string()).unwrap_or_else(|| "-".into()),
                format!("{h}/{m}/{e}"),
                if identical {
                    "identical".into()
                } else {
                    "DIFFERENT (!)".into()
                },
            ],
            &widths,
        );
        json_rows.push(format!(
            "    {{\"n\": {n}, \"strategy\": \"{strategy}\", \"mode\": \"{mode}\", \"ms\": {:.3}, \"objective\": {}, \
             \"optimal\": {}, \"nodes\": {}, \"iterations\": {}, \"pool_pages\": {}, \
             \"pool_hits\": {h}, \"pool_misses\": {m}, \"pool_evictions\": {e}, \
             \"identical\": {identical}}}",
            elapsed.as_secs_f64() * 1e3,
            r.best_objective()
                .map(|o| format!("{o:.3}"))
                .unwrap_or_else(|| "null".into()),
            r.optimal,
            r.stats.nodes,
            r.stats.iterations,
            pool.map(|p| p.to_string()).unwrap_or_else(|| "null".into()),
        ));
    };

    let heuristic = [
        ("sketch-refine", Strategy::SketchRefine),
        ("progressive-shading", Strategy::ProgressiveShading),
        ("greedy", Strategy::Greedy),
    ];
    let cells: [(usize, &[(&str, Strategy)]); 3] = [
        (2_000, &[("ilp", Strategy::Ilp)]),
        (20_000, &heuristic),
        (120_000, &heuristic),
    ];
    for (n, strategies) in cells {
        // The pool cap: well under the view's upper-bound page count
        // (3 term columns × one page per chunk of n), floored at the
        // 2-page minimum for the small sizes.
        let pool = (3 * chunk_count(n) / 16).max(2);
        for &(label, strategy) in strategies {
            let (reference, ref_time, ref_pool) = solve(n, strategy, None);
            emit(
                n, label, "resident", None, &reference, ref_time, ref_pool, true,
            );
            let (paged, paged_time, paged_pool) = solve(n, strategy, Some(pool));
            let identical = paged.packages == reference.packages
                && paged.objectives == reference.objectives
                && paged.optimal == reference.optimal
                && paged.stats.nodes == reference.stats.nodes
                && paged.stats.iterations == reference.stats.iterations;
            all_identical &= identical;
            emit(
                n,
                label,
                "paged",
                Some(pool),
                &paged,
                paged_time,
                paged_pool,
                identical,
            );
        }
    }

    // The flagship out-of-core row, opt-in because datagen alone takes a
    // while at this scale: 10^7 rows via sketch→refine, pool under 25% of
    // even the worst-case column footprint.
    if std::env::var("PB_PAGED_LARGE").map(|v| v == "1") == Ok(true) {
        let n = 10_000_000usize;
        let pool = 3 * chunk_count(n) / 16;
        let (r, elapsed, counters) = solve(n, Strategy::SketchRefine, Some(pool));
        emit(
            n,
            "sketch-refine",
            "paged-large",
            Some(pool),
            &r,
            elapsed,
            counters,
            true,
        );
    }

    let json = format!(
        "{{\n  \"experiment\": \"paged_out_of_core\",\n  \"query\": \"meal_plan\",\n{}\n  \"rows\": [\n{}\n  ]\n}}\n",
        resource_json(),
        json_rows.join(",\n")
    );
    match std::fs::write("BENCH_paged.json", &json) {
        Ok(()) => println!("\n(wrote BENCH_paged.json)\n"),
        Err(e) => println!("\n(could not write BENCH_paged.json: {e})\n"),
    }
    all_identical
}

/// SHADE — progressive shading: the hierarchical sketch path for 10^6+
/// candidates (the meal plan without the gluten filter, so candidates == n).
/// Two deterministic gates make the caller exit nonzero:
///
/// 1. **Cross-thread fingerprint identity**: the shading run's packages,
///    objective bits and node/iteration counters must be bit-identical at
///    1, 2 and 8 threads.
/// 2. **Greedy floor**: shading's objective must match or beat the greedy
///    baseline's at every n — the solver's anytime contract makes this
///    structural, so a miss is a real quality regression.
/// 3. **Committed fingerprints**: every row's objective, node and iteration
///    counts must equal the committed `BENCH_shade.json` row with the same
///    (n, strategy, threads), read before this run overwrites the file.
///    All three are deterministic, so drift means the solver changed.
///
/// Flat sketch→refine rides along as the quality/latency baseline where its
/// sketch is tractable (through 120k by default; at 10^6 with
/// `PB_SHADE_LARGE=1`, where its ~15.6k-variable sketch takes minutes).
/// `PB_SHADE_LARGE=1` also adds the flagship n = 10^7 row, solved
/// out-of-core through the paged-bench pool cap — the configuration whose
/// flat baseline PR 7 measured at ~26 minutes; `PB_SHADE_FLAT=1`
/// additionally re-measures that flat 10^7 baseline for a one-file A/B.
/// Writes `BENCH_shade.json`.
fn shade_scaling() -> bool {
    use packagebuilder::par::chunk_count;

    let mut ok = true;
    let committed = committed_shade_rows("BENCH_shade.json");
    if committed.is_empty() {
        eprintln!("SHADE: no committed BENCH_shade.json rows; nothing to compare against");
    }
    let mut drifted = 0usize;
    println!("## SHADE — progressive shading vs flat sketch→refine (meal plan, no filter)\n");
    let widths = [10, 20, 8, 12, 14, 12, 12];
    print_header(
        &[
            "n",
            "strategy",
            "threads",
            "time (ms)",
            "objective",
            "vs greedy",
            "identical",
        ],
        &widths,
    );
    let mut json_rows: Vec<String> = Vec::new();

    let solve = |n: usize, strategy: Strategy, threads: usize, pool: Option<usize>| {
        let mut engine = recipe_engine(n, strategy);
        engine.config_mut().num_threads = threads;
        if let Some(pages) = pool {
            engine.config_mut().column_memory_budget = 0;
            engine.config_mut().pool_pages = pages;
        }
        let t0 = Instant::now();
        let r = run(&engine, MEAL_PLAN_QUERY_NO_FILTER);
        (r, t0.elapsed())
    };
    // Relative objective vs the greedy floor, as a signed percentage.
    let vs_greedy = |r: &packagebuilder::PackageResult, g: &packagebuilder::PackageResult| match (
        r.best_objective(),
        g.best_objective(),
    ) {
        (Some(v), Some(f)) => format!("{:+.2}%", (v - f) / f.abs().max(1e-9) * 100.0),
        _ => "-".into(),
    };
    // The query MAXIMIZEs, so the floor gate is a one-sided comparison.
    let meets_floor = |r: &packagebuilder::PackageResult, g: &packagebuilder::PackageResult| match (
        r.best_objective(),
        g.best_objective(),
    ) {
        (Some(v), Some(f)) => v + 1e-9 >= f,
        (_, None) => true,
        (None, Some(_)) => false,
    };
    let obj_bits = |r: &packagebuilder::PackageResult| {
        r.objectives
            .iter()
            .map(|o| o.map(f64::to_bits))
            .collect::<Vec<_>>()
    };
    let mut emit = |n: usize,
                    strategy: &str,
                    threads: usize,
                    r: &packagebuilder::PackageResult,
                    elapsed: std::time::Duration,
                    vs: String,
                    identical: bool| {
        print_row(
            &[
                n.to_string(),
                strategy.into(),
                threads.to_string(),
                ms(elapsed),
                r.best_objective()
                    .map(|o| format!("{o:.1}"))
                    .unwrap_or_else(|| "-".into()),
                vs,
                if identical {
                    "identical".into()
                } else {
                    "DIFFERENT (!)".into()
                },
            ],
            &widths,
        );
        let fingerprint = [
            r.best_objective()
                .map(|o| format!("{o:.3}"))
                .unwrap_or_else(|| "null".into()),
            r.stats.nodes.to_string(),
            r.stats.iterations.to_string(),
        ];
        if let Some(base) = committed.get(&(n, strategy.to_string(), threads)) {
            if *base != fingerprint {
                eprintln!(
                    "SHADE: {strategy} at n={n}, {threads} threads: (objective, nodes, \
                     iterations) = {fingerprint:?}, committed {base:?}"
                );
                drifted += 1;
            }
        }
        let [objective, nodes, iterations] = fingerprint;
        json_rows.push(format!(
            "    {{\"n\": {n}, \"strategy\": \"{strategy}\", \"threads\": {threads}, \
             \"ms\": {:.3}, \"objective\": {objective}, \"optimal\": {}, \
             \"nodes\": {nodes}, \"iterations\": {iterations}, \"identical\": {identical}}}",
            elapsed.as_secs_f64() * 1e3,
            r.optimal,
        ));
    };

    let large = std::env::var("PB_SHADE_LARGE").map(|v| v == "1") == Ok(true);
    for n in [20_000usize, 120_000, 1_000_000] {
        let (g, g_time) = solve(n, Strategy::Greedy, 1, None);
        emit(n, "greedy", 1, &g, g_time, "-".into(), true);
        if n <= 120_000 || large {
            let (f, f_time) = solve(n, Strategy::SketchRefine, 1, None);
            emit(n, "sketch-refine", 1, &f, f_time, vs_greedy(&f, &g), true);
        }
        let (s1, s1_time) = solve(n, Strategy::ProgressiveShading, 1, None);
        let floor_ok = meets_floor(&s1, &g);
        if !floor_ok {
            eprintln!("SHADE: progressive shading fell below the greedy floor at n={n}");
        }
        ok &= floor_ok;
        emit(
            n,
            "progressive-shading",
            1,
            &s1,
            s1_time,
            vs_greedy(&s1, &g),
            true,
        );
        for threads in [2usize, 8] {
            let (st, st_time) = solve(n, Strategy::ProgressiveShading, threads, None);
            let identical = st.packages == s1.packages
                && obj_bits(&st) == obj_bits(&s1)
                && st.optimal == s1.optimal
                && st.stats.nodes == s1.stats.nodes
                && st.stats.iterations == s1.stats.iterations;
            if !identical {
                eprintln!(
                    "SHADE: progressive shading fingerprints differ between 1 and {threads} \
                     threads at n={n}"
                );
            }
            ok &= identical;
            emit(
                n,
                "progressive-shading",
                threads,
                &st,
                st_time,
                vs_greedy(&st, &g),
                identical,
            );
        }
    }

    // The flagship out-of-core row: 10^7 candidates through the paged-bench
    // pool cap. One shading run at the full thread budget (the wall-clock
    // headline; cross-thread identity is pinned on the grid above), gated on
    // the greedy floor like every other size.
    if large {
        let n = 10_000_000usize;
        let pool = 3 * chunk_count(n) / 16;
        let (g, g_time) = solve(n, Strategy::Greedy, 8, Some(pool));
        emit(n, "greedy", 8, &g, g_time, "-".into(), true);
        if std::env::var("PB_SHADE_FLAT").map(|v| v == "1") == Ok(true) {
            let (f, f_time) = solve(n, Strategy::SketchRefine, 8, Some(pool));
            emit(n, "sketch-refine", 8, &f, f_time, vs_greedy(&f, &g), true);
        }
        let (s, s_time) = solve(n, Strategy::ProgressiveShading, 8, Some(pool));
        let floor_ok = meets_floor(&s, &g);
        if !floor_ok {
            eprintln!("SHADE: progressive shading fell below the greedy floor at n={n}");
        }
        ok &= floor_ok;
        emit(
            n,
            "progressive-shading",
            8,
            &s,
            s_time,
            vs_greedy(&s, &g),
            true,
        );
    }

    if drifted > 0 {
        eprintln!("SHADE: {drifted} row(s) differ from the committed BENCH_shade.json");
        ok = false;
    }

    let json = format!(
        "{{\n  \"experiment\": \"shade_scaling\",\n  \"query\": \"meal_plan_no_filter\",\n{}\n  \"rows\": [\n{}\n  ]\n}}\n",
        resource_json(),
        json_rows.join(",\n")
    );
    match std::fs::write("BENCH_shade.json", &json) {
        Ok(()) => println!("\n(wrote BENCH_shade.json)\n"),
        Err(e) => println!("\n(could not write BENCH_shade.json: {e})\n"),
    }
    ok
}

/// The `(objective, nodes, iterations)` fingerprint of every row of a
/// committed `BENCH_shade.json`, keyed by `(n, strategy, threads)`, in the
/// formatting [`shade_scaling`] writes (the objective with three decimals
/// or `null`). A missing or unreadable file gates nothing.
fn committed_shade_rows(path: &str) -> BTreeMap<(usize, String, usize), [String; 3]> {
    // The harness writes one row object per line, so a per-line field scan
    // is a complete reader for its own format.
    let field = |line: &str, key: &str| -> Option<String> {
        let start = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[start..];
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim_matches('"').to_string())
    };
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .filter_map(|line| {
            let key = (
                field(line, "n")?.parse().ok()?,
                field(line, "strategy")?,
                field(line, "threads")?.parse().ok()?,
            );
            let fingerprint = [
                field(line, "objective")?,
                field(line, "nodes")?,
                field(line, "iterations")?,
            ];
            Some((key, fingerprint))
        })
        .collect()
}

fn e1_pruning() {
    println!("## E1 — cardinality-based pruning (§4.1)\n");
    let widths = [4, 14, 14, 16, 12, 14, 12];
    print_header(
        &[
            "n",
            "space 2^n",
            "space pruned",
            "reduction (log2)",
            "nodes full",
            "nodes pruned",
            "same optimum",
        ],
        &widths,
    );
    for n in [12usize, 16, 20, 24] {
        let table = recipe_table(n);
        let analyzed = paql::compile(MEAL_PLAN_QUERY_NO_FILTER, table.schema()).unwrap();
        let spec = PackageSpec::build(&analyzed, &table).unwrap();
        let bounds = derive_bounds(spec.view());
        let space = search_space(spec.view(), &bounds);
        let pruned = enumerate(
            spec.view(),
            EnumerationOptions {
                prune: true,
                keep: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let full = enumerate(
            spec.view(),
            EnumerationOptions {
                prune: false,
                keep: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let same = match (pruned.packages.first(), full.packages.first()) {
            (None, None) => "yes (both empty)".to_string(),
            (Some((_, a)), Some((_, b))) => {
                if (a.unwrap_or(0.0) - b.unwrap_or(0.0)).abs() < 1e-6 {
                    "yes".to_string()
                } else {
                    "NO".to_string()
                }
            }
            _ => "NO".to_string(),
        };
        print_row(
            &[
                n.to_string(),
                format!("{:.3e}", space.unpruned()),
                format!("{:.3e}", space.pruned().unwrap_or(f64::NAN)),
                format!("{:.1}", space.reduction_log2().unwrap_or(f64::NAN)),
                full.nodes.to_string(),
                pruned.nodes.to_string(),
                same,
            ],
            &widths,
        );
    }
    println!();
}

fn e2_strategies() {
    println!("## E2 — strategy crossover (§4, §5)\n");
    let widths = [6, 20, 12, 14, 14, 10];
    print_header(
        &[
            "n",
            "strategy",
            "time (ms)",
            "objective",
            "opt gap (%)",
            "optimal?",
        ],
        &widths,
    );
    for n in [20usize, 50, 200, 1000, 3000] {
        // The ILP optimum is the reference for the gap column.
        let ilp_engine = recipe_engine(n, Strategy::Ilp);
        let t0 = Instant::now();
        let ilp = run(&ilp_engine, MEAL_PLAN_QUERY);
        let ilp_time = t0.elapsed();
        let opt = ilp.best_objective();

        let mut rows: Vec<(String, std::time::Duration, Option<f64>, bool)> =
            vec![("ilp".into(), ilp_time, opt, true)];

        if n <= 24 {
            for (label, strat) in [
                ("exhaustive", Strategy::Exhaustive),
                ("pruned-enum", Strategy::PrunedEnumeration),
            ] {
                let engine = recipe_engine(n, strat);
                let t0 = Instant::now();
                let r = run(&engine, MEAL_PLAN_QUERY);
                rows.push((label.into(), t0.elapsed(), r.best_objective(), r.optimal));
            }
        } else if n <= 60 {
            let engine = recipe_engine(n, Strategy::PrunedEnumeration);
            let t0 = Instant::now();
            let r = run(&engine, MEAL_PLAN_QUERY);
            rows.push((
                "pruned-enum".into(),
                t0.elapsed(),
                r.best_objective(),
                r.optimal,
            ));
        }
        let ls_engine = recipe_engine(n, Strategy::LocalSearch);
        let t0 = Instant::now();
        let ls = run(&ls_engine, MEAL_PLAN_QUERY);
        rows.push((
            "local-search".into(),
            t0.elapsed(),
            ls.best_objective(),
            false,
        ));

        for (label, time, obj, optimal) in rows {
            let gap = match (obj, opt) {
                (Some(o), Some(best)) if best > 0.0 => format!("{:.2}", 100.0 * (best - o) / best),
                _ => "-".to_string(),
            };
            print_row(
                &[
                    n.to_string(),
                    label,
                    ms(time),
                    obj.map(|o| format!("{o:.1}")).unwrap_or_else(|| "-".into()),
                    gap,
                    if optimal { "yes".into() } else { "no".into() },
                ],
                &widths,
            );
        }
    }
    println!();
}

fn e3_replacement() {
    println!("## E3 — k-tuple replacement neighbourhood (§4.2)\n");
    let widths = [6, 26, 14, 16];
    print_header(&["n", "operation", "time (ms)", "result size"], &widths);
    for n in [100usize, 400, 1600, 6400] {
        let table = recipe_table(n);
        let analyzed = paql::compile(MEAL_PLAN_QUERY_NO_FILTER, table.schema()).unwrap();
        let spec = PackageSpec::build(&analyzed, &table).unwrap();
        // Pick the three recipes closest to 900 kcal: the package lands a few
        // hundred calories over the 2,500 budget, so single-tuple repairs exist
        // (mirroring the paper's 3,000-calorie example).
        let mut by_cal = spec.candidates.clone();
        by_cal.sort_by(|a, b| {
            let da = (table.value_f64(*a, "calories").unwrap() - 900.0).abs();
            let db = (table.value_f64(*b, "calories").unwrap() - 900.0).abs();
            da.total_cmp(&db)
        });
        let package = Package::from_ids(by_cal.iter().copied().take(3));
        let total: f64 = package
            .members()
            .map(|(id, m)| table.value_f64(id, "calories").unwrap() * m as f64)
            .sum();
        let t0 = Instant::now();
        let rel = single_replacement_query(
            &table,
            &package,
            &spec.candidates,
            "calories",
            total,
            2500.0,
        )
        .unwrap();
        print_row(
            &[
                n.to_string(),
                "1-replacement query".into(),
                ms(t0.elapsed()),
                format!("{} pairs", rel.len()),
            ],
            &widths,
        );
    }
    // Local search with k = 1 vs k = 2 at fixed n: neighbourhood blow-up.
    let table = recipe_table(300);
    let analyzed = paql::compile(MEAL_PLAN_QUERY_NO_FILTER, table.schema()).unwrap();
    let spec = PackageSpec::build(&analyzed, &table).unwrap();
    for k in [1usize, 2] {
        let t0 = Instant::now();
        let out = local_search(
            spec.view(),
            &LocalSearchOptions {
                k,
                restarts: 2,
                max_moves: 100,
                ..Default::default()
            },
        )
        .unwrap();
        print_row(
            &[
                "300".into(),
                format!("local search k={k}"),
                ms(t0.elapsed()),
                format!("{} evals", out.evaluations),
            ],
            &widths,
        );
    }
    println!();
}

fn e4_mealplan() {
    println!("## E4 — meal-plan query end to end (§2, §7)\n");
    let widths = [6, 14, 14, 16, 16, 14];
    print_header(
        &[
            "n",
            "ilp (ms)",
            "ls (ms)",
            "ilp objective",
            "ls objective",
            "ls/opt (%)",
        ],
        &widths,
    );
    for n in [100usize, 500, 2000, 5000] {
        let ilp_engine = recipe_engine(n, Strategy::Ilp);
        let t0 = Instant::now();
        let ilp = run(&ilp_engine, MEAL_PLAN_QUERY);
        let ilp_time = t0.elapsed();
        let ls_engine = recipe_engine(n, Strategy::LocalSearch);
        let t0 = Instant::now();
        let ls = run(&ls_engine, MEAL_PLAN_QUERY);
        let ls_time = t0.elapsed();
        let ratio = match (ls.best_objective(), ilp.best_objective()) {
            (Some(a), Some(b)) if b > 0.0 => format!("{:.1}", 100.0 * a / b),
            _ => "-".to_string(),
        };
        print_row(
            &[
                n.to_string(),
                ms(ilp_time),
                ms(ls_time),
                ilp.best_objective()
                    .map(|o| format!("{o:.1}"))
                    .unwrap_or("-".into()),
                ls.best_objective()
                    .map(|o| format!("{o:.1}"))
                    .unwrap_or("-".into()),
                ratio,
            ],
            &widths,
        );
    }
    println!();
}

fn e5_interface() {
    println!("## E5 — interface backends (§3.1–3.2, Fig. 1)\n");
    let widths = [8, 28, 14, 14];
    print_header(&["size", "operation", "time (ms)", "output"], &widths);
    for n in [1_000usize, 10_000, 50_000] {
        let table = recipe_table(n);
        let t0 = Instant::now();
        let s = suggest(
            &table,
            "P",
            &Highlight::Cell {
                tuple: TupleId(0),
                column: "fat".into(),
            },
        )
        .unwrap();
        print_row(
            &[
                n.to_string(),
                "suggest (cell highlight)".into(),
                ms(t0.elapsed()),
                format!("{} suggestions", s.len()),
            ],
            &widths,
        );
        let t0 = Instant::now();
        let s = suggest(
            &table,
            "P",
            &Highlight::Column {
                column: "calories".into(),
            },
        )
        .unwrap();
        print_row(
            &[
                n.to_string(),
                "suggest (column highlight)".into(),
                ms(t0.elapsed()),
                format!("{} suggestions", s.len()),
            ],
            &widths,
        );
    }
    let query = paql::parse(MEAL_PLAN_QUERY).unwrap();
    let t0 = Instant::now();
    let text = paql::pretty::describe_query(&query);
    print_row(
        &[
            "-".into(),
            "natural-language description".into(),
            ms(t0.elapsed()),
            format!("{} chars", text.len()),
        ],
        &widths,
    );
    let table = recipe_table(2_000);
    let analyzed = paql::compile(MEAL_PLAN_QUERY, table.schema()).unwrap();
    let spec = PackageSpec::build(&analyzed, &table).unwrap();
    for m in [100usize, 1_000, 10_000] {
        let packages: Vec<Package> = (0..m)
            .map(|i| {
                Package::from_ids(
                    spec.candidates
                        .iter()
                        .copied()
                        .cycle()
                        .skip(i % spec.candidates.len())
                        .take(3),
                )
            })
            .collect();
        let t0 = Instant::now();
        let summary = summarize(&spec, &packages, Some(0)).unwrap();
        print_row(
            &[
                m.to_string(),
                "2-D package-space summary".into(),
                ms(t0.elapsed()),
                format!("{} glyphs", summary.glyphs.len()),
            ],
            &widths,
        );
    }
    println!();
}

fn e6_multiple() {
    println!("## E6 — multiple & diverse packages (§5)\n");
    let widths = [6, 26, 14, 16];
    print_header(&["p", "method", "time (ms)", "result"], &widths);
    let table = recipe_table(200);
    let q = "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT COUNT(*) = 2 AND SUM(P.calories) <= 1500 MAXIMIZE SUM(P.protein)";
    let analyzed = paql::compile(q, table.schema()).unwrap();
    let spec = PackageSpec::build(&analyzed, &table).unwrap();
    for p in [1usize, 5, 10, 20] {
        let t0 = Instant::now();
        let out = solve_ilp(
            spec.view(),
            &SolverConfig::default(),
            p,
            &Budget::unlimited(),
        )
        .unwrap();
        print_row(
            &[
                p.to_string(),
                "ilp + no-good cuts".into(),
                ms(t0.elapsed()),
                format!("{} packages", out.packages.len()),
            ],
            &widths,
        );
    }
    // Diversity: top-k by objective vs max-min diverse selection.
    let small = recipe_table(18);
    let analyzed = paql::compile(q, small.schema()).unwrap();
    let small_spec = PackageSpec::build(&analyzed, &small).unwrap();
    let pool: Vec<Package> = enumerate(
        small_spec.view(),
        EnumerationOptions {
            keep: 5_000,
            ..Default::default()
        },
    )
    .unwrap()
    .packages
    .into_iter()
    .map(|(p, _)| p)
    .collect();
    for k in [5usize, 10] {
        let topk: Vec<Package> = pool.iter().take(k).cloned().collect();
        let t0 = Instant::now();
        let diverse = select_diverse(&pool, k);
        print_row(
            &[
                k.to_string(),
                "max-min diverse selection".into(),
                ms(t0.elapsed()),
                format!(
                    "div {:.2} vs top-k {:.2}",
                    diversity_score(&diverse),
                    diversity_score(&topk)
                ),
            ],
            &widths,
        );
    }
    println!();
}

fn e7_repeat() {
    println!("## E7 — REPEAT multiplicities (§2)\n");
    let widths = [8, 14, 16, 18];
    print_header(
        &["repeat", "time (ms)", "objective", "max multiplicity"],
        &widths,
    );
    let engine = recipe_engine(300, Strategy::Ilp);
    let mut last = f64::NEG_INFINITY;
    for k in [1u32, 2, 3, 4] {
        let q = format!(
            "SELECT PACKAGE(R) AS P FROM recipes R REPEAT {k} \
             SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
             MAXIMIZE SUM(P.protein)"
        );
        let t0 = Instant::now();
        let r = run(&engine, &q);
        let obj = r.best_objective().unwrap_or(f64::NAN);
        let monotone = if obj + 1e-6 >= last {
            ""
        } else {
            "  (NOT monotone!)"
        };
        last = obj;
        print_row(
            &[
                k.to_string(),
                ms(t0.elapsed()),
                format!("{obj:.1}{monotone}"),
                r.best()
                    .map(|p| p.max_multiplicity().to_string())
                    .unwrap_or("-".into()),
            ],
            &widths,
        );
    }
    println!();
}

fn e8_explore() {
    println!("## E8 — adaptive exploration (§3.3)\n");
    let widths = [6, 8, 14, 18, 20];
    print_header(
        &[
            "n",
            "round",
            "time (ms)",
            "locked kept?",
            "inferred constraints",
        ],
        &widths,
    );
    for n in [500usize, 5_000] {
        let engine = recipe_engine(n, Strategy::Ilp);
        let query = paql::parse(MEAL_PLAN_QUERY).unwrap();
        let mut session = ExplorationSession::new(query);
        let t0 = Instant::now();
        session.sample(&engine).unwrap();
        print_row(
            &[
                n.to_string(),
                "0".into(),
                ms(t0.elapsed()),
                "-".into(),
                "-".into(),
            ],
            &widths,
        );
        // Lock one tuple per round and refine.
        for round in 1..=3usize {
            let keep = session.current().unwrap().tuple_ids()[0];
            session.lock(keep).unwrap();
            let t0 = Instant::now();
            let r = session.refine(&engine).unwrap();
            let kept = r
                .best()
                .map(|p| session.locked().all(|t| p.multiplicity(t) > 0))
                .unwrap_or(false);
            let inferred = session.inferred_constraints(&engine).unwrap().len();
            print_row(
                &[
                    n.to_string(),
                    round.to_string(),
                    ms(t0.elapsed()),
                    if kept { "yes".into() } else { "NO".into() },
                    inferred.to_string(),
                ],
                &widths,
            );
        }
    }
    println!();
}

/// GAUNTLET — the adversarial workload gauntlet: every scenario family in
/// the `datagen` registry × every engine strategy × the family's size grid,
/// each cell solved at 1 and 2 threads. Three gates make the caller exit
/// nonzero:
///
/// 1. **Validity / honesty**: every returned package must pass the
///    *interpreted* validity oracle (not the columnar path the solvers
///    themselves use), and queries registered infeasible must come back
///    empty from every strategy — honestly infeasible, never silently
///    invalid.
/// 2. **Cross-thread identity**: packages, objectives and optimality flags
///    — plus node/iteration counters outside the timing-raced portfolio —
///    must be bit-identical at 1 and 2 threads.
/// 3. **Objective gap**: the gated strategies (`Auto`, `Ilp`, `Portfolio`
///    — the routes a user lands on without opting into a heuristic) must
///    stay within the family's documented `ScenarioQuery::max_gap` of the
///    oracle: the exact optimum where some strategy proved one at this
///    size, the best known objective across strategies otherwise.
///    Explicitly-chosen heuristics (`Greedy`, `LocalSearch`,
///    `SketchRefine`, truncated enumeration) are recorded, not gated —
///    but `Auto` is gated *everywhere*, so any route it hands a query to
///    must clear the family threshold at that size.
///
/// Cells use deterministic truncation only — node and move caps, see
/// `pb_bench::gauntlet_config` — because a wall-clock budget would make
/// gate 2 unenforceable. Exact and enumeration strategies sit out sizes
/// above the family's `exact_cap`. `smoke` restricts each family to its
/// smallest size (the CI configuration); the plain `gauntlet` mode runs
/// the full grid plus the lineitem **large tier** (n = 10^6, and 10^7 with
/// `PB_GAUNTLET_LARGE=1`), where only the scalable strategies run and
/// progressive shading joins the gated set against a relaxed 5% bound.
/// Writes `BENCH_gauntlet.json`.
fn gauntlet(smoke: bool) -> bool {
    use datagen::{scenarios, Seed};
    use pb_bench::{gauntlet_engine, try_run, BENCH_SEED};

    // Every engine strategy except `Exhaustive`: the engine itself refuses
    // unpruned enumeration beyond a couple dozen candidates (by design —
    // a truncated walk of an unordered 2^n space says nothing), so it can
    // never run at gauntlet sizes.
    let strategies: &[(&str, Strategy)] = &[
        ("auto", Strategy::Auto),
        ("ilp", Strategy::Ilp),
        ("pruned-enum", Strategy::PrunedEnumeration),
        ("local-search", Strategy::LocalSearch),
        ("greedy", Strategy::Greedy),
        ("sketch-refine", Strategy::SketchRefine),
        ("progressive-shading", Strategy::ProgressiveShading),
        ("portfolio", Strategy::Portfolio),
    ];
    // Large-tier cells additionally gate progressive shading: at 10^6+ the
    // hierarchical path is the route `Auto` takes, so it must clear a gap
    // bound against the best known objective (greedy, and at 10^6 the flat
    // sketch) — relaxed to 5% because the oracle itself is a heuristic there.
    const LARGE_TIER_GAP: f64 = 0.05;
    let gated = |label: &str, large_tier: bool| {
        matches!(label, "auto" | "ilp" | "portfolio")
            || (large_tier && label == "progressive-shading")
    };
    let exactish = |label: &str| matches!(label, "ilp" | "portfolio" | "pruned-enum");

    println!(
        "## GAUNTLET{} — scenario × strategy × n; gates: validity, cross-thread identity, gap\n",
        if smoke { " (smoke)" } else { "" }
    );

    let mut failures: Vec<String> = Vec::new();
    let mut json_rows: Vec<String> = Vec::new();

    struct Cell {
        label: &'static str,
        ms: f64,
        objective: Option<f64>,
        optimal: bool,
        empty: bool,
        identical: bool,
        nodes: u64,
        iterations: u64,
        pool: [u64; 4],
    }

    for scenario in scenarios() {
        println!("### {} — {}\n", scenario.name, scenario.summary);
        let widths = [20, 8, 13, 10, 12, 8, 9, 10];
        print_header(
            &[
                "query",
                "n",
                "strategy",
                "time (ms)",
                "objective",
                "gap %",
                "optimal?",
                "identical",
            ],
            &widths,
        );
        let mut sizes: Vec<usize> = if smoke {
            vec![scenario.gauntlet_sizes[0]]
        } else {
            scenario.gauntlet_sizes.to_vec()
        };
        // The large tier: sizes past the registered grid, where only the
        // scalable strategies run and progressive shading joins the gated
        // set. 10^6 rides the full (non-smoke) gauntlet; the 10^7 flagship
        // is opt-in via `PB_GAUNTLET_LARGE=1` (datagen alone takes a while),
        // mirroring the paged bench's `PB_PAGED_LARGE`.
        if !smoke && scenario.name == "lineitem" {
            sizes.push(1_000_000);
            if std::env::var("PB_GAUNTLET_LARGE").map(|v| v == "1") == Ok(true) {
                sizes.push(10_000_000);
            }
        }
        for q in &scenario.queries {
            for &n in &sizes {
                // The independent validity oracle for this (query, n). The
                // engine re-checks results internally, but the gate must not
                // trust the code path it is gating.
                let table = (scenario.build)(n, Seed(BENCH_SEED));
                let spec = match paql::compile(&q.text, table.schema())
                    .map_err(|e| e.to_string())
                    .and_then(|a| PackageSpec::build(&a, &table).map_err(|e| e.to_string()))
                {
                    Ok(s) => s,
                    Err(e) => {
                        failures.push(format!(
                            "{}/{} n={n}: query rejected: {e}",
                            scenario.name, q.label
                        ));
                        continue;
                    }
                };

                let large_tier = n > *scenario.gauntlet_sizes.last().unwrap();
                let mut cells: Vec<Cell> = Vec::new();
                for &(label, strategy) in strategies {
                    if exactish(label) && n > scenario.exact_cap {
                        continue;
                    }
                    // Large-tier cells run the scalable trio only: exact and
                    // search strategies would grind for hours at 10^6+, and
                    // at 10^7 the flat sketch is itself the multi-minute
                    // baseline — the tier exists to gate progressive shading
                    // against greedy and (at 10^6) flat sketch-refine.
                    if large_tier
                        && !matches!(label, "greedy" | "sketch-refine" | "progressive-shading")
                    {
                        continue;
                    }
                    if n >= 10_000_000 && label == "sketch-refine" {
                        continue;
                    }
                    let ctx = format!("{}/{} n={n} {label}", scenario.name, q.label);
                    let solve = |threads: usize| {
                        let engine = gauntlet_engine(
                            (scenario.build)(n, Seed(BENCH_SEED)),
                            strategy,
                            threads,
                        );
                        let t0 = Instant::now();
                        let r = try_run(&engine, &q.text);
                        (r, t0.elapsed())
                    };
                    let pool_before = packagebuilder::pool_stats();
                    let (r1, elapsed) = solve(1);
                    let pool_after = packagebuilder::pool_stats();
                    let r1 = match r1 {
                        Ok(r) => r,
                        Err(e) => {
                            failures.push(format!("{ctx}: engine error: {e}"));
                            continue;
                        }
                    };
                    // Gate 1: validity / honesty.
                    for p in &r1.packages {
                        match spec.is_valid_interpreted(p) {
                            Ok(true) => {}
                            Ok(false) => failures.push(format!("{ctx}: INVALID package returned")),
                            Err(e) => failures.push(format!("{ctx}: validity oracle error: {e}")),
                        }
                    }
                    if !q.expect_feasible && !r1.is_empty() {
                        failures.push(format!(
                            "{ctx}: returned a package on a query registered infeasible"
                        ));
                    }
                    // Gate 2: cross-thread identity.
                    let (r2, _) = solve(2);
                    let identical = match r2 {
                        Err(e) => {
                            failures.push(format!("{ctx}: engine error at 2 threads: {e}"));
                            false
                        }
                        Ok(r2) => {
                            let bits = |r: &packagebuilder::PackageResult| {
                                r.objectives
                                    .iter()
                                    .map(|o| o.map(f64::to_bits))
                                    .collect::<Vec<_>>()
                            };
                            let same = r1.packages == r2.packages
                                && bits(&r1) == bits(&r2)
                                && r1.optimal == r2.optimal
                                && (label == "portfolio"
                                    || (r1.stats.nodes == r2.stats.nodes
                                        && r1.stats.iterations == r2.stats.iterations));
                            if !same {
                                failures
                                    .push(format!("{ctx}: results differ between 1 and 2 threads"));
                            }
                            same
                        }
                    };
                    cells.push(Cell {
                        label,
                        ms: elapsed.as_secs_f64() * 1e3,
                        objective: r1.best_objective(),
                        optimal: r1.optimal,
                        empty: r1.is_empty(),
                        identical,
                        nodes: r1.stats.nodes,
                        iterations: r1.stats.iterations,
                        pool: [
                            pool_after.hits - pool_before.hits,
                            pool_after.misses - pool_before.misses,
                            pool_after.evictions - pool_before.evictions,
                            pool_after.pages_spilled - pool_before.pages_spilled,
                        ],
                    });
                }

                // The oracle. Every registry gauntlet query MAXIMIZEs, so
                // "best known" is the maximum across strategies.
                let proven = cells
                    .iter()
                    .filter(|c| c.optimal)
                    .filter_map(|c| c.objective)
                    .fold(None, |acc: Option<f64>, o| {
                        Some(acc.map_or(o, |a| a.max(o)))
                    });
                let best_known = cells
                    .iter()
                    .filter_map(|c| c.objective)
                    .fold(None, |acc: Option<f64>, o| {
                        Some(acc.map_or(o, |a| a.max(o)))
                    });
                let oracle = proven.or(best_known);

                // Gate 3 plus reporting.
                for c in &cells {
                    let gap = match (oracle, c.objective) {
                        (Some(o), Some(v)) => Some(((o - v) / o.abs().max(1e-9)).max(0.0)),
                        _ => None,
                    };
                    let cell_max_gap = if large_tier {
                        q.max_gap.max(LARGE_TIER_GAP)
                    } else {
                        q.max_gap
                    };
                    if q.expect_feasible && gated(c.label, large_tier) {
                        match gap {
                            Some(g) if g <= cell_max_gap + 1e-12 => {}
                            Some(g) => failures.push(format!(
                                "{}/{} n={n} {}: gap {:.3}% exceeds the family max {:.3}%",
                                scenario.name,
                                q.label,
                                c.label,
                                g * 100.0,
                                cell_max_gap * 100.0
                            )),
                            None if c.empty => failures.push(format!(
                                "{}/{} n={n} {}: no package on a feasible query",
                                scenario.name, q.label, c.label
                            )),
                            None => {}
                        }
                    }
                    print_row(
                        &[
                            q.label.to_string(),
                            n.to_string(),
                            c.label.to_string(),
                            format!("{:.3}", c.ms),
                            c.objective
                                .map(|o| format!("{o:.1}"))
                                .unwrap_or_else(|| "-".into()),
                            gap.map(|g| format!("{:.2}", g * 100.0))
                                .unwrap_or_else(|| "-".into()),
                            if c.optimal { "yes".into() } else { "no".into() },
                            if c.identical {
                                "identical".into()
                            } else {
                                "DIFFERENT (!)".into()
                            },
                        ],
                        &widths,
                    );
                    json_rows.push(format!(
                        "    {{\"scenario\": \"{}\", \"query\": \"{}\", \"n\": {n}, \
                         \"strategy\": \"{}\", \"ms\": {:.3}, \"objective\": {}, \
                         \"gap\": {}, \"max_gap\": {}, \"gated\": {}, \"optimal\": {}, \
                         \"empty\": {}, \"identical\": {}, \"oracle\": {}, \
                         \"nodes\": {}, \"iterations\": {}, \
                         \"pool\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
                         \"pages_spilled\": {}}}}}",
                        scenario.name,
                        q.label,
                        c.label,
                        c.ms,
                        c.objective
                            .map(|o| format!("{o:.3}"))
                            .unwrap_or_else(|| "null".into()),
                        gap.map(|g| format!("{g:.6}"))
                            .unwrap_or_else(|| "null".into()),
                        cell_max_gap,
                        gated(c.label, large_tier),
                        c.optimal,
                        c.empty,
                        c.identical,
                        oracle
                            .map(|o| format!("{o:.3}"))
                            .unwrap_or_else(|| "null".into()),
                        c.nodes,
                        c.iterations,
                        c.pool[0],
                        c.pool[1],
                        c.pool[2],
                        c.pool[3],
                    ));
                }
            }
        }
        println!();
    }

    let json = format!(
        "{{\n  \"experiment\": \"gauntlet\",\n  \"smoke\": {smoke},\n  \"seed\": {BENCH_SEED},\n{}\n  \"rows\": [\n{}\n  ]\n}}\n",
        resource_json(),
        json_rows.join(",\n")
    );
    match std::fs::write("BENCH_gauntlet.json", &json) {
        Ok(()) => println!("(wrote BENCH_gauntlet.json)\n"),
        Err(e) => println!("(could not write BENCH_gauntlet.json: {e})\n"),
    }
    if !failures.is_empty() {
        println!("GAUNTLET failures:");
        for f in &failures {
            println!("  - {f}");
        }
    }
    failures.is_empty()
}
