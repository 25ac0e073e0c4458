//! Spans around the calls into each layer, recorded from outside the
//! engine.
//!
//! The traced replay runs the public steps of `PackageEngine::execute_paql`
//! → `run_plan` in order — parse, analyze, view build (`build_spec`'s cached
//! path), bounds, plan, solve, validate — with one span per step. On
//! progressive-shading plans it first fills the partition tree and times the
//! greedy floor (`GreedySolver::solve` on the same view and options), so the
//! solve that follows splits into tree build, greedy floor and descent.
//! Spans are held in memory and written out when the run ends.

use std::time::Instant;

use packagebuilder::pruning::derive_bounds;
use packagebuilder::{
    pool_stats, ColumnPolicy, PackageEngine, PackageResult, PackageSpec, ParExec, PbError,
    PbResult, PoolStats, Solver, Strategy,
};

use crate::json::{num, string, Obj};

/// The benchmark's one clock.
pub fn now() -> Instant {
    // pb-lint: allow(time-containment) — the benchmark times the engine from outside; no budget or solver reads this clock
    Instant::now()
}

/// One timed step of one operation.
#[derive(Debug, Clone)]
pub struct Span {
    /// Operation id; the operation's own span has `parent: None`, every
    /// step's span names the operation as its parent.
    pub op: usize,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
    /// Buffer-pool counter deltas over the span.
    pub pool: PoolStats,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

fn pool_delta(before: PoolStats, after: PoolStats) -> PoolStats {
    PoolStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        pages_spilled: after.pages_spilled - before.pages_spilled,
    }
}

/// The span recorder of one run.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`, a child of operation `op`.
    pub fn span<T>(&mut self, op: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        let pool_before = pool_stats();
        let start_us = self.now_us();
        let out = f();
        let end_us = self.now_us();
        self.spans.push(Span {
            op,
            name,
            parent: Some(op),
            start_us,
            end_us,
            pool: pool_delta(pool_before, pool_stats()),
        });
        out
    }

    /// Runs operation `op` inside its root span.
    pub fn operation<T>(&mut self, op: usize, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let pool_before = pool_stats();
        let start_us = self.now_us();
        let out = f(self);
        let end_us = self.now_us();
        self.spans.push(Span {
            op,
            name: "op",
            parent: None,
            start_us,
            end_us,
            pool: pool_delta(pool_before, pool_stats()),
        });
        out
    }

    /// The spans as JSON lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let mut o = Obj::new();
            o.field("op", s.op.to_string())
                .field("name", string(s.name))
                .field(
                    "parent",
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                )
                .field("start_us", num(s.start_us))
                .field("end_us", num(s.end_us))
                .field("pool_hits", s.pool.hits.to_string())
                .field("pool_misses", s.pool.misses.to_string());
            out.push_str(&o.render());
            out.push('\n');
        }
        out
    }
}

/// The parts of a traced query the report needs besides its spans.
pub struct Traced {
    pub result: PackageResult,
    pub strategy: Strategy,
}

/// Replays `execute_paql(text)` step by step, one span per step.
pub fn traced_query(
    engine: &PackageEngine,
    text: &str,
    t: &mut Tracer,
    op: usize,
) -> PbResult<Traced> {
    let query = t.span(op, "paql.parse", || paql::parse(text))?;
    let analyzed = t.span(op, "paql.analyze", || engine.analyze(&query))?;
    let table = engine.relation(&analyzed.query)?;
    let cfg = engine.config();
    let policy = ColumnPolicy {
        memory_budget: cfg.column_memory_budget,
        pool_pages: cfg.pool_pages,
    };
    let par = ParExec::new(cfg.num_threads);
    let spec = t.span(op, "view.build", || {
        if cfg.cache {
            PackageSpec::build_cached_with(&analyzed, table, engine.view_cache(), &policy, par)
        } else {
            PackageSpec::build_with(&analyzed, table, &policy, par)
        }
    })?;
    let view = spec.view();
    let bounds = t.span(op, "pruning.bounds", || {
        derive_bounds(view).clamp_to(view.candidate_count() as u64 * view.max_multiplicity() as u64)
    });
    let plan = t.span(op, "engine.plan", || engine.plan(&spec))?;
    if bounds.is_empty() {
        let outcome = packagebuilder::SolveOutcome::empty(
            plan.solver.strategy(),
            view.candidate_count(),
            true,
        );
        return Ok(Traced {
            result: PackageResult::from_pairs(outcome.packages, outcome.optimal, outcome.stats),
            strategy: plan.strategy,
        });
    }
    let options = plan.options.rearmed();
    if plan.strategy == Strategy::ProgressiveShading {
        t.span(op, "partition.tree_build", || {
            view.partition_tree(
                options.shade_leaf_size,
                options.shade_fanout,
                options.seed,
                &options.budget,
                options.par,
            )
        });
        t.span(op, "greedy.floor", || {
            packagebuilder::solver::GreedySolver.solve(view, &options.rearmed())
        })?;
    }
    let outcome = t.span(op, "solver.solve", || {
        plan.solver.solve(view, &options.rearmed())
    })?;
    let valid = t.span(op, "minidb.validate", || {
        outcome
            .packages
            .iter()
            .map(|(p, _)| spec.is_valid_interpreted(p))
            .collect::<PbResult<Vec<bool>>>()
    })?;
    if valid.contains(&false) {
        return Err(PbError::Internal(format!(
            "solver '{}' returned a package that fails validation",
            plan.solver.strategy()
        )));
    }
    Ok(Traced {
        result: PackageResult::from_pairs(outcome.packages, outcome.optimal, outcome.stats),
        strategy: plan.strategy,
    })
}
