//! `packagebuilder` — the package query evaluation engine.
//!
//! This crate is the reproduction of the paper's primary contribution: a
//! system that "extends database systems to support package queries". A
//! *package* is a multiset of tuples that individually satisfy *base
//! constraints* and collectively satisfy *global constraints*, optionally
//! optimizing a per-package objective (paper Sections 1–2).
//!
//! # Architecture: planner → solver → view
//!
//! Evaluation is layered so every strategy shares one columnar core and one
//! dispatch seam:
//!
//! * **[`view`] — the columnar evaluation core.** [`spec::PackageSpec::build`]
//!   lowers a query onto a [`view::CandidateView`]: for every aggregate term
//!   in the `SUCH THAT` formula or objective, a dense `f64` coefficient
//!   column over the candidate set (with `FILTER` predicates and NULLs folded
//!   into an inclusion mask), plus the formula/objective recompiled against
//!   term indices. Objective values, constraint slack and violations become
//!   dot products; [`view::ViewState`] scores swap/add/drop moves by delta
//!   (`O(#terms)` per move) instead of re-aggregating packages.
//! * **[`solver`] — the unified strategy interface.** `Solver::solve(&view,
//!   &opts)` is implemented by [`solver::IlpSolver`] (Section 7 translation,
//!   [`ilp`]), [`solver::EnumerationSolver`] (Section 4 generate-and-validate
//!   with the Section 4.1 pruning rules, [`enumerate`]),
//!   [`solver::LocalSearchSolver`] (Section 4.2 k-replacement search,
//!   [`local_search`]) and [`solver::GreedySolver`] ([`greedy`] construction
//!   with feasibility repair). Solvers only see the view — never the base
//!   table — and are `Send + Sync`, which is what makes parallel, sharded
//!   or cached solving a drop-in extension.
//! * **[`budget`] + [`portfolio`] — anytime evaluation.** Every solver
//!   honours one cooperative [`budget::Budget`] (deadline + shared stop
//!   flag, threaded down to the LP solver's pivot loop) and returns its
//!   best-so-far result with `optimal: false` on expiry.
//!   [`portfolio::PortfolioSolver`] races several solvers over one view
//!   with scoped threads: cheap heuristics deliver a package immediately,
//!   the exact ILP supersedes them if it finishes inside the budget, and
//!   the first provably-optimal result cancels the rest of the race.
//! * **[`partition`] + [`sketch_refine`] — scaling past the monolithic
//!   ILP.** For large linearizable queries,
//!   [`sketch_refine::SketchRefineSolver`] partitions the candidates offline
//!   (size-bounded k-d splits of the view's term columns), solves a tiny
//!   "sketch" ILP over one representative per partition, then refines the
//!   picked partitions one small sub-ILP at a time (with the SketchRefine
//!   paper's failed-partition backtracking and a greedy anytime fallback) —
//!   near-optimal packages at a fraction of the monolithic ILP's latency.
//!   At [`config::EngineConfig::shade_threshold`] candidates that one flat
//!   sketch becomes the bottleneck (one integer variable per partition);
//!   [`sketch_refine::ProgressiveShadingSolver`] runs the same solver body
//!   over a [`partition::PartitionTree`] — sketch the coarsest layer's
//!   representatives, expand only the selected nodes, re-sketch — so every
//!   ILP stays small regardless of `n`. The flat solver is the descent over
//!   a tree with no layers.
//! * **[`par`] — chunked data parallelism.** Term columns are dense but
//!   logically chunked at a fixed 4096-element width
//!   ([`view::TermColumn`], with per-chunk sum/min/max metadata that also
//!   feeds [`pruning`]); [`par::ParExec`] — a scoped-`std::thread` chunk
//!   executor with no external dependencies — fans every candidate scan
//!   (view materialization, partitioning spreads, greedy repair, the local
//!   search's neighbourhood) out over one engine-wide thread budget
//!   ([`config::EngineConfig::num_threads`], shared with the portfolio via
//!   [`par::ParExec::split`]). Fixed chunk boundaries + chunk-order
//!   reductions make results **bit-identical at every thread count**, and
//!   budgets are checked per chunk so the anytime contract survives the
//!   fan-out.
//! * **[`column_store`] — out-of-core columns.** The same 4096-element
//!   chunk is also the paging unit: above
//!   [`config::EngineConfig::column_memory_budget`] a view's term columns
//!   are written chunk by chunk to a temporary spill file and scanned back
//!   through a small LRU buffer pool ([`config::EngineConfig::pool_pages`],
//!   env overrides `PB_COLUMN_BUDGET` / `PB_POOL_PAGES`), while per-chunk
//!   metadata stays resident for pruning and bounds. Storage mode is
//!   invisible to every consumer: paged solves are bit-identical to
//!   resident ones — same packages, objectives and counters — at every
//!   thread count (`tests/paged_determinism.rs`), so candidate sets far
//!   beyond RAM stream through a fixed number of page frames.
//! * **[`cache`] — cross-query reuse.** Real workloads repeat the same
//!   relation + base predicate with varying constraints; the engine's
//!   [`cache::ViewCache`] banks materialized term columns, candidate
//!   statistics and sketch→refine partitionings under fingerprinted keys
//!   (LRU-evicted, mutation-proof by construction), so a repeated query
//!   skips view construction and partitioning entirely and a query that
//!   adds aggregate terms pays only for the missing columns. Cache hits are
//!   bit-identical to cold builds.
//! * **[`engine`] — the planner.** [`engine::PackageEngine`] resolves the
//!   `Auto` policy, derives cardinality bounds ([`pruning`], short-circuiting
//!   provably-infeasible queries), runs the chosen solver through the trait,
//!   and validates every returned package before it leaves the engine.
//!
//! On top of query evaluation, the crate implements the interface backends of
//! Section 3: constraint suggestion ([`suggest`]), the 2-D package-space
//! summary ([`summary`]), adaptive exploration sessions ([`explore`]) and
//! diverse package selection ([`diversity`], Section 5).
//!
//! # Quick start
//!
//! ```
//! use packagebuilder::PackageEngine;
//! use datagen::{recipes, Seed};
//! use minidb::Catalog;
//!
//! let mut catalog = Catalog::new();
//! catalog.register(recipes(300, Seed(7)));
//! let engine = PackageEngine::new(catalog);
//! let result = engine
//!     .execute_paql(
//!         "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' \
//!          SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
//!          MAXIMIZE SUM(P.protein)",
//!     )
//!     .unwrap();
//! let best = result.best().expect("a 3-meal plan exists");
//! assert_eq!(best.cardinality(), 3);
//! ```

pub mod budget;
pub mod cache;
pub mod column_store;
pub mod config;
pub mod diversity;
pub mod engine;
pub mod enumerate;
pub mod error;
pub mod explore;
pub mod greedy;
pub mod ilp;
pub mod local_search;
pub mod package;
pub mod par;
pub mod partition;
pub mod portfolio;
pub mod pruning;
pub mod result;
pub mod sketch_refine;
pub mod solver;
pub mod spec;
pub mod suggest;
pub mod summary;
pub mod view;

pub use budget::Budget;
pub use cache::{CacheStats, PartitionMemo, ViewCache};
pub use column_store::{pool_stats, ColumnPolicy, PoolStats};
pub use config::{EngineConfig, Strategy};
pub use engine::{PackageEngine, QueryPlan};
pub use error::PbError;
pub use package::Package;
pub use par::ParExec;
pub use portfolio::PortfolioSolver;
pub use result::{EvalStats, PackageResult, StrategyUsed};
pub use sketch_refine::{ProgressiveShadingSolver, SketchRefineSolver};
pub use solver::{SolveOptions, SolveOutcome, Solver};
pub use spec::PackageSpec;
pub use view::{CandidateView, ViewState};

/// Result alias for engine operations.
pub type PbResult<T> = std::result::Result<T, PbError>;
