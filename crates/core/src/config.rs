//! Engine configuration.

use std::time::Duration;

use lp_solver::SolverConfig;

/// Which evaluation strategy to use for a package query.
///
/// The paper's engine "heuristically combines all of them to efficiently
/// derive packages" (Section 5); [`Strategy::Auto`] implements that policy,
/// while the explicit variants exist for experiments and for the ablation
/// benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Let the engine pick: enumeration for tiny candidate sets; for
    /// linearizable conjunctive queries the ILP, switching at
    /// [`EngineConfig::sketch_threshold`] candidates (single-package
    /// requests) to a portfolio race whose exact worker is node-capped at
    /// [`EngineConfig::auto_exact_node_cap`] — the race returns the exact
    /// answer wherever the proof is cheap and a heuristic answer where it
    /// is not, instead of betting the whole query on either; for the rest
    /// a solver portfolio at [`EngineConfig::portfolio_threshold`] and
    /// plain local search below.
    Auto,
    /// Translate to an integer linear program and call the solver.
    Ilp,
    /// Enumerate candidate packages with cardinality and partial-sum pruning.
    PrunedEnumeration,
    /// Enumerate all candidate packages without pruning (baseline).
    Exhaustive,
    /// Greedy construction plus k-tuple-replacement local search.
    LocalSearch,
    /// Pure greedy construction with a feasibility-repair pass (cheapest,
    /// anytime baseline; never picked by `Auto`).
    Greedy,
    /// Race several solvers concurrently over one candidate view
    /// ([`crate::portfolio::PortfolioSolver`]): every worker runs under the
    /// shared [`crate::budget::Budget`], the first provably-optimal result
    /// cancels the rest, and at the deadline the best result found wins.
    /// The worker set comes from [`EngineConfig::portfolio_workers`].
    /// `Auto` picks this for large queries it cannot hand to the ILP.
    Portfolio,
    /// Partition → sketch → refine
    /// ([`crate::sketch_refine::SketchRefineSolver`]): partition the
    /// candidates along the quality-sensitive columns, solve a tiny ILP over
    /// one representative per partition, then refine the picked partitions
    /// with small per-partition sub-ILPs. Near-optimal at a fraction of the
    /// monolithic ILP's latency; `Auto` races it as a portfolio worker for
    /// linearizable queries with at least
    /// [`EngineConfig::sketch_threshold`] candidates.
    SketchRefine,
    /// Hierarchical sketch→refine over a partition *tree*
    /// ([`crate::sketch_refine::ProgressiveShadingSolver`], after Progressive
    /// Shading, Mai et al. 2023): sketch the coarsest layer's
    /// representatives, expand only the selected nodes into their children,
    /// re-sketch down the layers, and refine the shaded leaf partitions with
    /// warm-hinted sub-ILPs. [`Strategy::SketchRefine`] is the same descent
    /// over a tree with no layers. Every ILP stays small
    /// regardless of the candidate count, so this is the
    /// 10^6–10^8-candidate route; `Auto` switches to it at
    /// [`EngineConfig::shade_threshold`] candidates, where the flat sketch
    /// itself becomes the bottleneck.
    ProgressiveShading,
}

/// Tunable engine parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Strategy selection.
    pub strategy: Strategy,
    /// How many packages to return (best first). Values above 1 use no-good
    /// cuts (ILP, binary multiplicities), top-k tracking (enumeration) or
    /// restarts (local search).
    pub num_packages: usize,
    /// Solver limits for the ILP strategy.
    pub solver: SolverConfig,
    /// Maximum number of search nodes the enumeration strategies may expand.
    pub max_enumeration_nodes: u64,
    /// Candidate-set size at or below which `Auto` prefers pruned enumeration
    /// over the solver (enumeration is exact and has no solver overhead for
    /// tiny inputs).
    pub enumeration_threshold: usize,
    /// Local search: neighbourhood size (how many tuples a single move may
    /// replace). The paper notes k-replacements need a 2k-way join and
    /// "quickly become intractable"; 1 or 2 are the practical values.
    pub replacement_k: usize,
    /// Local search: maximum number of moves per restart.
    pub max_local_moves: usize,
    /// Local search: number of random restarts.
    pub local_restarts: usize,
    /// Seed for the randomized components (starting packages, restarts).
    pub seed: u64,
    /// Overall wall-clock budget for one query evaluation (None = unlimited).
    /// Armed into a [`crate::budget::Budget`] per plan run; every solver
    /// honours it cooperatively and returns its best-so-far result with
    /// `optimal: false` on expiry.
    pub time_budget: Option<Duration>,
    /// Candidate-set size at or above which `Auto` races a solver portfolio
    /// instead of falling back to plain local search, for queries the ILP
    /// cannot take (non-conjunctive formulas, non-linear aggregates).
    pub portfolio_threshold: usize,
    /// Which solvers [`Strategy::Portfolio`] races. Workers that cannot
    /// evaluate the query (e.g. the ILP on a non-linear formula) drop out of
    /// the race without failing it. `Auto` and `Portfolio` are not valid
    /// workers.
    pub portfolio_workers: Vec<Strategy>,
    /// Candidate-set size at or above which `Auto` stops trusting the
    /// monolithic ILP's latency for linearizable single-package queries and
    /// races a [`Strategy::Portfolio`] instead, with the race's exact worker
    /// node-capped at [`EngineConfig::auto_exact_node_cap`]. Below it the
    /// exact ILP is fast enough to keep the job outright.
    ///
    /// No single size threshold separates cheap ILPs from expensive ones —
    /// exact cost tracks *branching hardness*, not candidate count (a
    /// 10^5-row shipment query can prove optimality in milliseconds while a
    /// 2 000-row correlated-knapsack portfolio takes seconds) — so above
    /// this size `Auto` hedges with the race rather than guessing.
    pub sketch_threshold: usize,
    /// Candidate-set size at or above which `Auto` (and the portfolio's
    /// sketch worker) routes linearizable single-package queries to
    /// [`Strategy::ProgressiveShading`] instead of the flat sketch→refine
    /// race. Below it the flat path's single sketch ILP is still small
    /// enough to win outright; above it that sketch — one integer variable
    /// per partition, ~`n / shade_leaf_size` of them — becomes the
    /// dominant cost and the hierarchical descent takes over. Defaults to
    /// 500 000 candidates (~8 000 flat sketch variables at the default
    /// partition size).
    pub shade_threshold: usize,
    /// Maximum children per [`crate::partition::PartitionTree`] node (and
    /// maximum node count of the coarsest layer): bounds every intermediate
    /// sketch ILP progressive shading solves during its descent.
    pub shade_fanout: usize,
    /// Leaf partition size for [`Strategy::SketchRefine`] and
    /// [`Strategy::ProgressiveShading`]: the largest sub-ILP the refinement
    /// phase will solve, and (inversely) the width of the flat sketch ILP —
    /// median halving yields partitions holding between half this bound and
    /// the bound itself, i.e. roughly `n / size` to `2n / size` leaves. One
    /// bound for both solvers, so they share leaf partitionings and sub-ILP
    /// memos through the view cache.
    pub shade_leaf_size: usize,
    /// Branch-and-bound node cap for the **exact worker inside an
    /// `Auto`-chosen portfolio race** (the large-`n` linearizable route).
    /// A branching-hostile instance truncates to its best incumbent after
    /// this many nodes — deterministically, the cap is a pure function of
    /// the search tree — instead of holding the whole race open; the
    /// portfolio then returns the best result across the capped exact
    /// worker and the heuristic workers. Easy instances still prove
    /// optimality under the cap and cancel the race early. The cap only
    /// applies when the *policy* picked the race: a caller forcing
    /// [`Strategy::Portfolio`] (or [`Strategy::Ilp`]) keeps
    /// [`EngineConfig::solver`]'s own limits.
    pub auto_exact_node_cap: usize,
    /// Whether the engine routes view construction through its
    /// [`crate::cache::ViewCache`], reusing materialized columns, candidate
    /// statistics and sketch→refine partitionings across repeated queries on
    /// the same relation and base predicate. Safe to leave on: cache keys
    /// embed the relation's [`minidb::Table::fingerprint`], so a mutated
    /// relation can never serve a stale view, and cache hits are
    /// bit-identical to cold builds.
    pub cache: bool,
    /// How many `(relation, base predicate)` banks the engine's view cache
    /// retains (least-recently-used eviction). 0 disables storage entirely;
    /// the capacity is read when the engine is constructed.
    pub view_cache_capacity: usize,
    /// The resident budget, in bytes, for one view build's freshly
    /// materialized term columns. At or below the budget the columns stay
    /// dense in memory; above it they spill to a temp file and page back in
    /// through a fixed-size buffer pool (see [`crate::column_store`]), so a
    /// view over 10^7+ rows evaluates in bounded memory. `0` forces every
    /// build out-of-core. Storage mode never changes results — solutions are
    /// bit-identical either way. Defaults to
    /// [`crate::column_store::default_column_memory_budget`] (the
    /// `PB_COLUMN_BUDGET` environment variable, else 1 GiB).
    pub column_memory_budget: usize,
    /// Buffer-pool capacity, in pages (one page = one 4096-row column chunk
    /// plus its inclusion mask, ~32 KiB), for columns that spill under
    /// [`EngineConfig::column_memory_budget`]. Clamped to at least
    /// [`crate::column_store::MIN_POOL_PAGES`]. Defaults to
    /// [`crate::column_store::default_pool_pages`] (the `PB_POOL_PAGES`
    /// environment variable, else 1024 pages ≈ 32 MiB).
    pub pool_pages: usize,
    /// The engine's **shared thread budget**: how many threads one query
    /// evaluation may use in total, across both portfolio racing *and*
    /// intra-solver chunk fan-out (view materialization, partitioning,
    /// repair and neighbourhood scans — see [`crate::par`]). The portfolio
    /// divides this budget among its racing workers
    /// ([`crate::par::ParExec::split`]), so workers and their inner loops
    /// never oversubscribe the host together.
    ///
    /// Defaults to [`default_num_threads`]:
    /// `std::thread::available_parallelism()`, overridable with the
    /// `PB_THREADS` environment variable. Results are bit-identical at
    /// every value — this knob trades wall-clock for cores, never answers.
    pub num_threads: usize,
}

/// The engine's default thread budget: the `PB_THREADS` environment
/// variable when set to a positive integer, otherwise
/// `std::thread::available_parallelism()` (1 when even that is unknown).
///
/// `PB_THREADS=1` forces fully sequential evaluation — the CI matrix runs
/// the whole test suite that way to pin the guarantee that thread count
/// never changes results.
pub fn default_num_threads() -> usize {
    match std::env::var("PB_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(t) if t >= 1 => t,
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// The default portfolio worker set for a host with `num_threads` threads.
///
/// Racing four workers on a one-core host buys little beyond
/// deadline-bounding while quadrupling the work the core time-shares, so the
/// default race is sized from the thread budget. The floor is the trio that
/// covers every regime — [`Strategy::Ilp`] (provable optimality, and the
/// early-cancel that ends an unlimited-budget race), [`Strategy::SketchRefine`]
/// (near-optimal answers inside tight deadlines, where the ILP cannot
/// finish) and [`Strategy::Greedy`] (the anytime worker that can evaluate
/// *every* query, so the race never comes home empty-handed) —
/// [`Strategy::LocalSearch`], the most CPU-hungry heuristic and redundant
/// with greedy as a feasibility floor, only joins at four threads and up.
/// [`Strategy::Greedy`] is always the closer.
pub fn default_portfolio_workers(num_threads: usize) -> Vec<Strategy> {
    let specialists = [Strategy::Ilp, Strategy::SketchRefine, Strategy::LocalSearch];
    let slots = num_threads.clamp(3, specialists.len() + 1);
    let mut workers: Vec<Strategy> = specialists.into_iter().take(slots - 1).collect();
    workers.push(Strategy::Greedy);
    workers
}

impl Default for EngineConfig {
    fn default() -> Self {
        let num_threads = default_num_threads();
        EngineConfig {
            strategy: Strategy::Auto,
            num_packages: 1,
            solver: SolverConfig::default(),
            max_enumeration_nodes: 20_000_000,
            enumeration_threshold: 22,
            replacement_k: 1,
            max_local_moves: 10_000,
            local_restarts: 8,
            seed: 42,
            time_budget: None,
            portfolio_threshold: 256,
            portfolio_workers: default_portfolio_workers(num_threads),
            sketch_threshold: 4096,
            shade_threshold: 500_000,
            shade_fanout: 64,
            shade_leaf_size: 64,
            auto_exact_node_cap: 20_000,
            cache: true,
            view_cache_capacity: crate::cache::DEFAULT_VIEW_CACHE_CAPACITY,
            column_memory_budget: crate::column_store::default_column_memory_budget(),
            pool_pages: crate::column_store::default_pool_pages(),
            num_threads,
        }
    }
}

impl EngineConfig {
    /// Configuration forcing a specific strategy.
    pub fn with_strategy(strategy: Strategy) -> Self {
        EngineConfig {
            strategy,
            ..Default::default()
        }
    }

    /// Sets the number of packages to return.
    pub fn packages(mut self, n: usize) -> Self {
        self.num_packages = n.max(1);
        self
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-query wall-clock budget (also forwarded to the solver).
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self.solver.time_limit = Some(budget);
        self
    }

    /// Enables or disables the cross-query view cache.
    pub fn with_cache(mut self, cache: bool) -> Self {
        self.cache = cache;
        self
    }

    /// Sets the view cache capacity (entries; 0 disables storage). Applied
    /// when an engine is constructed from this configuration.
    pub fn with_view_cache_capacity(mut self, capacity: usize) -> Self {
        self.view_cache_capacity = capacity;
        self
    }

    /// Sets the resident byte budget for freshly materialized view columns
    /// (0 forces every view build out-of-core).
    pub fn with_column_memory_budget(mut self, bytes: usize) -> Self {
        self.column_memory_budget = bytes;
        self
    }

    /// Sets the buffer-pool capacity, in pages, for spilled columns
    /// (clamped to [`crate::column_store::MIN_POOL_PAGES`] when used).
    pub fn with_pool_pages(mut self, pages: usize) -> Self {
        self.pool_pages = pages;
        self
    }

    /// Sets the shared thread budget (clamped to at least 1) and resizes the
    /// default portfolio worker set to match. A worker set the caller
    /// already customized is left alone.
    pub fn with_num_threads(mut self, threads: usize) -> Self {
        let threads = threads.max(1);
        if self.portfolio_workers == default_portfolio_workers(self.num_threads) {
            self.portfolio_workers = default_portfolio_workers(threads);
        }
        self.num_threads = threads;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let c = EngineConfig::default();
        assert_eq!(c.strategy, Strategy::Auto);
        assert_eq!(c.num_packages, 1);
        assert!(c.enumeration_threshold >= 10);
        assert!(c.num_threads >= 1);
        assert_eq!(
            c.portfolio_workers,
            default_portfolio_workers(c.num_threads)
        );
    }

    #[test]
    fn portfolio_sizing_tracks_the_thread_budget() {
        // Always at least exact + greedy; greedy always closes the set.
        for t in 0usize..10 {
            let workers = default_portfolio_workers(t);
            assert!(workers.len() >= 3, "t={t}");
            assert!(workers.len() <= 4, "t={t}");
            assert_eq!(*workers.last().unwrap(), Strategy::Greedy, "t={t}");
            assert_eq!(workers[0], Strategy::Ilp, "t={t}");
        }
        assert_eq!(
            default_portfolio_workers(1),
            vec![Strategy::Ilp, Strategy::SketchRefine, Strategy::Greedy]
        );
        assert_eq!(
            default_portfolio_workers(3),
            vec![Strategy::Ilp, Strategy::SketchRefine, Strategy::Greedy]
        );
        assert_eq!(
            default_portfolio_workers(8),
            vec![
                Strategy::Ilp,
                Strategy::SketchRefine,
                Strategy::LocalSearch,
                Strategy::Greedy
            ]
        );
    }

    #[test]
    fn with_num_threads_resizes_only_the_default_worker_set() {
        let c = EngineConfig::default().with_num_threads(1);
        assert_eq!(c.num_threads, 1);
        assert_eq!(c.portfolio_workers, default_portfolio_workers(1));
        // A customized worker set survives a thread-budget change.
        let custom = EngineConfig {
            portfolio_workers: vec![Strategy::LocalSearch],
            ..EngineConfig::default()
        }
        .with_num_threads(8);
        assert_eq!(custom.portfolio_workers, vec![Strategy::LocalSearch]);
        assert_eq!(EngineConfig::default().with_num_threads(0).num_threads, 1);
    }

    #[test]
    fn builders_update_fields() {
        let c = EngineConfig::with_strategy(Strategy::Ilp)
            .packages(5)
            .with_seed(7)
            .with_time_budget(Duration::from_millis(100));
        assert_eq!(c.strategy, Strategy::Ilp);
        assert_eq!(c.num_packages, 5);
        assert_eq!(c.seed, 7);
        assert_eq!(c.solver.time_limit, Some(Duration::from_millis(100)));
        assert_eq!(EngineConfig::default().packages(0).num_packages, 1);
    }
}
