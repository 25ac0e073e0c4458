//! The workloads, their closed loop, the answer checks and the report.

use std::collections::BTreeMap;
use std::time::Duration;

use minidb::{Catalog, Table, Tuple};
use packagebuilder::{
    pool_stats, EngineConfig, PackageEngine, PackageResult, Strategy, StrategyUsed,
};

use crate::gen::{self, QueryParams, QueryStream};
use crate::json::{num, string, Obj};
use crate::metrics::{harrell_davis, median, tail_quantile, END_TO_END, PER_LAYER, ROUTES};
use crate::reference::{Feasible, Reference};
use crate::trace::{now, traced_query, Tracer};

/// One workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Rows of `recipes` at the start of a run.
    pub rows: usize,
    /// Rows appended before each query (0: read-only).
    pub append_batch: usize,
    /// Columns stream through a small buffer pool instead of staying
    /// resident.
    pub paged: bool,
    /// Queries come from [`gen::session`] (else from [`gen::SCRIPT`]).
    pub session: bool,
    /// Copies of [`gen::SCRIPT`] in one round of an untraced run: enough
    /// operations for a steady median. A traced run replays one copy.
    pub script_copies: usize,
}

impl Workload {
    /// The queries one round of this workload runs.
    pub fn queries(&self, trace: bool) -> Vec<QueryParams> {
        if self.session {
            return gen::session();
        }
        let copies = if trace { 1 } else { self.script_copies };
        gen::SCRIPT.repeat(copies.max(1))
    }
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "interactive",
        rows: 20_000,
        append_batch: 0,
        paged: false,
        session: true,
        script_copies: 0,
    },
    Workload {
        name: "ingest",
        rows: 1_000_000,
        append_batch: 1_000,
        paged: false,
        session: false,
        script_copies: 2,
    },
    Workload {
        name: "out_of_core",
        rows: 600_000,
        append_batch: 0,
        paged: true,
        session: false,
        script_copies: 1,
    },
];

/// Engine threads: the benchmark host has two cores.
pub const NUM_THREADS: usize = 2;
/// Buffer-pool frames of the out-of-core workload: well under a third of
/// one query's column pages at 600 000 rows.
pub const OUT_OF_CORE_POOL_PAGES: usize = 128;
/// How many times a run sets up its engine at least; `setup_s` starts from
/// the median. Small tables set up in milliseconds, so set-up repeats until
/// `SETUP_MIN_SECONDS` have gone into it (at most `SETUP_MAX_REPS` times).
pub const SETUP_REPS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 0.5;
const SETUP_MAX_REPS: usize = 50;

/// A run's settings.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn engine_config(w: &Workload) -> EngineConfig {
    let mut cfg = EngineConfig::with_strategy(Strategy::Auto)
        .with_num_threads(NUM_THREADS)
        .with_cache(true);
    if w.paged {
        cfg.column_memory_budget = 0;
        cfg.pool_pages = OUT_OF_CORE_POOL_PAGES;
    } else {
        cfg.column_memory_budget = 1 << 30;
        cfg.pool_pages = 1024;
    }
    cfg
}

/// A set-up engine plus the row stream positioned after its table.
struct Bench {
    engine: PackageEngine,
    more_rows: Box<dyn Iterator<Item = Tuple>>,
}

/// Generates the rows (untimed), then times building the table from them,
/// registering it and constructing the engine.
fn setup(w: &Workload) -> Result<(Bench, Duration), String> {
    let mut stream = gen::rows();
    let rows: Vec<Tuple> = stream.by_ref().take(w.rows).collect();
    let start = now();
    let mut table = Table::new("recipes", datagen::recipes::recipe_schema());
    table.insert_all(rows).map_err(|e| e.to_string())?;
    let mut catalog = Catalog::new();
    catalog.register(table);
    let engine = PackageEngine::with_config(catalog, engine_config(w));
    let took = start.elapsed();
    Ok((
        Bench {
            engine,
            more_rows: Box::new(stream),
        },
        took,
    ))
}

/// A returned package as (tuple id, multiplicity) pairs.
type Members = Vec<(u32, u32)>;

/// What one operation returned, in a form two runs can compare. Search
/// counters are left out: a portfolio race sums its workers' counters up to
/// the moment the winner cancels them, which varies from run to run.
#[derive(Debug, Clone, PartialEq)]
struct Answer {
    packages: Vec<Members>,
    objective_bits: Vec<Option<u64>>,
    strategy: StrategyUsed,
}

impl Answer {
    fn of(r: &PackageResult) -> Self {
        Answer {
            packages: r
                .packages
                .iter()
                .map(|p| p.members().map(|(t, m)| (t.0, m)).collect())
                .collect(),
            objective_bits: r.objectives.iter().map(|o| o.map(f64::to_bits)).collect(),
            strategy: r.stats.strategy,
        }
    }
}

/// One operation of the untraced loop.
#[derive(Debug, Clone)]
struct OpRecord {
    query: QueryParams,
    query_ms: f64,
    op_ms: f64,
    answer: Result<Answer, String>,
    cache_hit: bool,
    paged: bool,
}

/// The verdict of the answer checks on one operation.
#[derive(Debug, Default, Clone)]
struct Verdict {
    /// A returned package failed re-validation or its objective did not
    /// recompute: the program's output is wrong.
    wrong: Option<String>,
    /// The operation counts as failed (error, wrong answer, or empty answer
    /// to a query the reference marks feasible).
    failed: Option<String>,
    gap_pct: Option<f64>,
}

fn append(bench: &mut Bench, batch: usize) -> Result<(), String> {
    let rows: Vec<Tuple> = bench.more_rows.by_ref().take(batch).collect();
    bench
        .engine
        .catalog_mut()
        .table_mut("recipes")
        .ok_or("recipes is not registered")?
        .insert_all(rows)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// Re-validates every returned package through the interpreted oracle,
/// recomputes its objective, and scores the answer against the reference.
fn check(
    engine: &PackageEngine,
    q: &QueryParams,
    answer: &Result<Answer, String>,
    reference: Option<&Reference>,
) -> Verdict {
    let answer = match answer {
        Ok(a) => a,
        Err(e) => {
            return Verdict {
                failed: Some(format!("error: {e}")),
                ..Verdict::default()
            }
        }
    };
    let wrong = |why: String| Verdict {
        wrong: Some(why.clone()),
        failed: Some(why),
        gap_pct: None,
    };
    let spec = match paql::parse(&q.paql())
        .map_err(packagebuilder::PbError::from)
        .and_then(|query| engine.build_spec(&query))
    {
        Ok(s) => s,
        Err(e) => return wrong(format!("cannot rebuild the spec to check the answer: {e}")),
    };
    for (members, bits) in answer.packages.iter().zip(&answer.objective_bits) {
        let package = packagebuilder::Package::from_members(
            members.iter().map(|&(t, m)| (minidb::TupleId(t), m)),
        );
        match spec.is_valid_interpreted(&package) {
            Ok(true) => {}
            Ok(false) => return wrong(format!("{}: package fails re-validation", q.key())),
            Err(e) => return wrong(format!("{}: re-validation error: {e}", q.key())),
        }
        let recomputed = spec.objective_value(&package).ok().flatten();
        let reported = bits.map(f64::from_bits);
        let agree = match (recomputed, reported) {
            (Some(a), Some(b)) => (a - b).abs() <= 1e-6 * a.abs().max(1.0),
            (None, None) => true,
            _ => false,
        };
        if !agree {
            return wrong(format!(
                "{}: reported objective {reported:?} recomputes to {recomputed:?}",
                q.key()
            ));
        }
    }
    let mut verdict = Verdict::default();
    // The reference was computed on a prefix; it speaks for this relation
    // only when the relation contains that prefix.
    let reference = reference.filter(|r| spec.table.len() >= r.provenance.prefix_rows);
    if let (Some(r), Some(entry)) = (reference, reference.and_then(|r| r.get(q))) {
        match answer.objective_bits.first() {
            None => {
                if entry.feasible == Feasible::Yes {
                    verdict.failed = Some(format!(
                        "{}: empty answer, the reference proves it feasible",
                        q.key()
                    ));
                }
            }
            Some(bits) => {
                verdict.gap_pct = bits.and_then(|b| r.gap_pct(q, f64::from_bits(b)));
            }
        }
    }
    verdict
}

/// Runs one operation without tracing: an append (ingest only) and a query.
fn untraced_op(bench: &mut Bench, w: &Workload, q: &QueryParams) -> Result<OpRecord, String> {
    let text = q.paql();
    let op_start = now();
    if w.append_batch > 0 {
        append(bench, w.append_batch)?;
    }
    let cache_before = bench.engine.view_cache().stats();
    let pool_before = pool_stats();
    let query_start = now();
    let result = bench.engine.execute_paql(&text);
    let query_ms = query_start.elapsed().as_secs_f64() * 1e3;
    let op_ms = op_start.elapsed().as_secs_f64() * 1e3;
    let cache_after = bench.engine.view_cache().stats();
    let pool_after = pool_stats();
    Ok(OpRecord {
        query: *q,
        query_ms,
        op_ms,
        answer: result.as_ref().map(Answer::of).map_err(|e| e.to_string()),
        cache_hit: cache_after.hits > cache_before.hits,
        paged: pool_after.hits + pool_after.misses > pool_before.hits + pool_before.misses,
    })
}

/// Fills the view cache of a read-only workload with every column and
/// partition memo its queries will ask for: one query per term signature,
/// run in full, except that on progressive-shading plans only the view and
/// its partition tree are built (the solve reuses nothing else across
/// queries). Untimed; answers are checked for correctness only. Returns
/// what was wrong.
fn warm(bench: &Bench, w: &Workload, reference: Option<&Reference>) -> Vec<String> {
    if w.append_batch > 0 {
        return Vec::new();
    }
    let engine = &bench.engine;
    let mut wrong = Vec::new();
    for q in gen::warmup(&w.queries(false)) {
        let prepared = paql::parse(&q.paql())
            .map_err(packagebuilder::PbError::from)
            .and_then(|query| {
                let spec = engine.build_spec(&query)?;
                let plan = engine.plan(&spec)?;
                Ok((spec, plan))
            });
        let answer = match prepared {
            Ok((spec, plan)) if plan.strategy == Strategy::ProgressiveShading => {
                let o = &plan.options;
                spec.view().partition_tree(
                    o.shade_leaf_size,
                    o.shade_fanout,
                    o.seed,
                    &o.budget,
                    o.par,
                );
                continue;
            }
            Ok((spec, plan)) => engine.run_plan(&spec, &plan).map(|r| Answer::of(&r)),
            Err(e) => Err(e),
        };
        wrong.extend(check(engine, &q, &answer.map_err(|e| e.to_string()), reference).wrong);
    }
    wrong
}

/// The untraced closed loop: one operation after another, each checked
/// after it returns (outside its timing), in whole rounds of the query
/// stream — at least one, and another only while the rounds so far say it
/// will end within `seconds`.
fn untraced_loop(
    bench: &mut Bench,
    args: &RunArgs,
    reference: Option<&Reference>,
    seconds: f64,
) -> Result<(Vec<OpRecord>, Vec<Verdict>), String> {
    let w = &args.workload;
    let mut stream = QueryStream::new(args.seed, w.queries(args.trace));
    let start = now();
    let mut ops = Vec::new();
    let mut verdicts = Vec::new();
    let mut rounds = 0u32;
    while rounds == 0
        || start.elapsed().as_secs_f64() * f64::from(rounds + 1) / f64::from(rounds) <= seconds
    {
        rounds += 1;
        for q in stream.next_round() {
            let op = untraced_op(bench, w, &q)?;
            verdicts.push(check(&bench.engine, &q, &op.answer, reference));
            ops.push(op);
        }
    }
    Ok((ops, verdicts))
}

/// Figures of a traced replay.
struct TraceSummary {
    metrics: BTreeMap<String, f64>,
    /// `(operation, what differed)`.
    mismatches: Vec<(usize, String)>,
    tracer: Tracer,
}

/// Replays `ops` on a fresh engine with every step traced, and compares
/// each answer with the untraced one.
fn traced_replay(bench: &mut Bench, w: &Workload, ops: &[OpRecord]) -> TraceSummary {
    let mut tracer = Tracer::default();
    let mut mismatches = Vec::new();
    let mut routes: BTreeMap<String, usize> = BTreeMap::new();
    let mut coverage = Vec::new();
    let mut traced_ms = 0.0;
    // Shading plans' solve re-runs the greedy floor internally; the floor's
    // own span measures it, and the descent is the rest of the solve.
    let (mut shading_solve, mut floor, mut other_solve) = (0.0, 0.0, 0.0);
    let (mut shading_nodes, mut lp_nodes, mut lp_iterations) = (0u64, 0u64, 0u64);
    let cache_before = bench.engine.view_cache().stats();
    for (i, op) in ops.iter().enumerate() {
        let text = op.query.paql();
        let first_span = tracer.spans.len();
        let traced = tracer.operation(i, |t| {
            if w.append_batch > 0 {
                t.span(i, "minidb.append", || append(bench, w.append_batch))?;
            }
            traced_query(&bench.engine, &text, t, i).map_err(|e| e.to_string())
        });
        let (root, steps) = tracer.spans[first_span..]
            .split_last()
            .expect("an operation records its root span");
        traced_ms += root.ms();
        let step = |name: &str| -> f64 {
            steps
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.ms())
                .sum()
        };
        coverage.push(100.0 * steps.iter().map(|s| s.ms()).sum::<f64>() / root.ms().max(1e-9));
        let replayed = traced.map(|t| {
            *routes
                .entry(t.result.stats.strategy.to_string())
                .or_default() += 1;
            if t.strategy == Strategy::ProgressiveShading {
                shading_solve += step("solver.solve");
                floor += step("greedy.floor");
                shading_nodes += t.result.stats.nodes;
            } else {
                other_solve += step("solver.solve");
                lp_nodes += t.result.stats.nodes;
                lp_iterations += t.result.stats.iterations;
            }
            Answer::of(&t.result)
        });
        if replayed != op.answer {
            mismatches.push((
                i,
                format!(
                    "{}: traced answer {:?} differs from untraced {:?}",
                    op.query.key(),
                    replayed,
                    op.answer
                ),
            ));
        }
    }
    let cache_after = bench.engine.view_cache().stats();
    let n = ops.len().max(1) as f64;

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    for (metric, span) in [
        ("paql.parse_ms", "paql.parse"),
        ("paql.analyze_ms", "paql.analyze"),
        ("engine.plan_ms", "engine.plan"),
        ("minidb.append_ms", "minidb.append"),
        ("minidb.validate_ms", "minidb.validate"),
        ("view.build_ms", "view.build"),
        ("pruning.bounds_ms", "pruning.bounds"),
        ("partition.tree_build_ms", "partition.tree_build"),
        ("greedy.floor_ms", "greedy.floor"),
    ] {
        let total: f64 = tracer
            .spans
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.ms())
            .sum();
        // `+ 0.0` turns the empty sum's -0.0 into 0.
        m.insert(metric.to_string(), total / n + 0.0);
    }
    m.insert(
        "shading.descent_ms".into(),
        (shading_solve - floor).max(0.0) / n,
    );
    m.insert(
        "shading.floor_share_pct".into(),
        if shading_solve > 0.0 {
            100.0 * floor / shading_solve
        } else {
            0.0
        },
    );
    m.insert("solver.solve_ms".into(), other_solve / n);
    m.insert("shading.nodes".into(), shading_nodes as f64 / n);
    m.insert("lp_solver.nodes".into(), lp_nodes as f64 / n);
    m.insert("lp_solver.iterations".into(), lp_iterations as f64 / n);
    for route in ROUTES {
        let share = *routes.get(*route).unwrap_or(&0) as f64 / n;
        m.insert(format!("engine.route_share.{route}"), share);
    }
    let hits = cache_after.hits - cache_before.hits;
    let misses = cache_after.misses - cache_before.misses;
    m.insert(
        "cache.hit_ratio".into(),
        hits as f64 / ((hits + misses) as f64).max(1.0),
    );
    m.insert(
        "cache.columns_built".into(),
        (cache_after.columns_built - cache_before.columns_built) as f64 / n,
    );
    m.insert(
        "cache.columns_reused".into(),
        (cache_after.columns_reused - cache_before.columns_reused) as f64 / n,
    );
    m.insert("cache.memo_bytes".into(), cache_after.memo_bytes as f64);
    // Pool traffic of the engine's own steps: the extra greedy floor call
    // is left out.
    let (mut ph, mut pm, mut pe, mut ps) = (0u64, 0u64, 0u64, 0u64);
    for s in tracer
        .spans
        .iter()
        .filter(|s| s.parent.is_some() && s.name != "greedy.floor")
    {
        ph += s.pool.hits;
        pm += s.pool.misses;
        pe += s.pool.evictions;
        ps += s.pool.pages_spilled;
    }
    m.insert("column_store.pool_hits".into(), ph as f64 / n);
    m.insert("column_store.pool_misses".into(), pm as f64 / n);
    m.insert("column_store.pool_evictions".into(), pe as f64 / n);
    m.insert("column_store.pages_spilled".into(), ps as f64 / n);
    m.insert(
        "column_store.miss_ratio".into(),
        pm as f64 / ((ph + pm) as f64).max(1.0),
    );
    let untraced_ms: f64 = ops.iter().map(|o| o.op_ms).sum();
    m.insert(
        "trace.overhead_pct".into(),
        100.0 * (traced_ms - untraced_ms) / untraced_ms.max(1e-9),
    );
    m.insert(
        "trace.coverage_pct".into(),
        coverage
            .iter()
            .copied()
            .min_by(f64::total_cmp)
            .unwrap_or(0.0),
    );
    TraceSummary {
        metrics: m,
        mismatches,
        tracer,
    }
}

/// Peak resident memory of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    match read(".git/HEAD") {
        Some(head) => match head.trim().strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}"))
                .map(|c| c.trim().to_string())
                .unwrap_or_else(|| r.to_string()),
            None => head.trim().to_string(),
        },
        None => "unknown (not a git checkout)".to_string(),
    }
}

/// Everything one run produced.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// `(name, value, unit)`, in manifest order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub report: Vec<String>,
    /// The run record (JSON).
    pub record: String,
    /// Trace spans as JSON lines (traced runs only).
    pub spans: Option<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut metrics = Obj::new();
        for (name, value, unit) in &self.metrics {
            let mut m = Obj::new();
            m.field("value", num(*value)).field("unit", string(unit));
            metrics.field(name, m.render());
        }
        let mut o = Obj::new();
        o.field("correct", self.correct.to_string())
            .field("attempted", self.attempted.to_string())
            .field("failed", self.failed.to_string())
            .field("metrics", metrics.render());
        o.render()
    }
}

fn share(ops: &[OpRecord], pred: impl Fn(&OpRecord) -> bool) -> f64 {
    ops.iter().filter(|o| pred(o)).count() as f64 / ops.len().max(1) as f64
}

/// Runs one workload.
pub fn run(args: &RunArgs, reference: Option<&Reference>) -> Result<Outcome, String> {
    let w = args.workload;
    // Set-up, timed `setup_reps` times; the last engine is kept.
    let mut setup_s = Vec::new();
    let mut bench = None;
    let setup_start = now();
    while setup_s.len() < SETUP_REPS
        || (setup_s.len() < SETUP_MAX_REPS
            && setup_start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS)
    {
        drop(bench.take());
        let (b, took) = setup(&w)?;
        setup_s.push(took.as_secs_f64());
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up ran");
    let warm_start = now();
    let mut warmup_wrong = warm(&bench, &w, reference);
    let warmup_s = warm_start.elapsed().as_secs_f64();

    // The traced run splits its time: the untraced loop, then the same
    // operations replayed traced on a fresh engine.
    let loop_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (ops, verdicts) = untraced_loop(&mut bench, args, reference, loop_seconds)?;
    let trace = if args.trace {
        drop(bench);
        let (mut fresh, _) = setup(&w)?;
        warmup_wrong.extend(warm(&fresh, &w, reference));
        Some(traced_replay(&mut fresh, &w, &ops))
    } else {
        drop(bench);
        None
    };

    let attempted = ops.len();
    let mut wrong: Vec<String> = verdicts.iter().filter_map(|v| v.wrong.clone()).collect();
    wrong.append(&mut warmup_wrong);
    let mut failures: Vec<String> = verdicts.iter().filter_map(|v| v.failed.clone()).collect();
    if let Some(t) = &trace {
        wrong.extend(t.mismatches.iter().map(|(_, m)| m.clone()));
        failures.extend(t.mismatches.iter().map(|(_, m)| m.clone()));
    }
    // An operation fails at most once, whatever went wrong with it.
    let failed = verdicts
        .iter()
        .enumerate()
        .filter(|(i, v)| {
            v.failed.is_some()
                || trace
                    .as_ref()
                    .is_some_and(|t| t.mismatches.iter().any(|(op, _)| op == i))
        })
        .count();
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    let gaps: Vec<f64> = verdicts.iter().filter_map(|v| v.gap_pct).collect();
    let gap_pct = if gaps.is_empty() {
        0.0
    } else {
        gaps.iter().sum::<f64>() / gaps.len() as f64
    };
    let query_ms: Vec<f64> = ops.iter().map(|o| o.query_ms).collect();
    let op_s: f64 = ops.iter().map(|o| o.op_ms).sum::<f64>() / 1e3;
    let (tail_q, tail_beyond) = tail_quantile(query_ms.len());
    let tail_pct = 100.0 * tail_q;
    let tail_ms = harrell_davis(&query_ms, tail_q).expect("at least one operation ran");
    let rss = peak_rss_mb().unwrap_or(0.0);

    let e2e_values: BTreeMap<&str, f64> = [
        ("setup_s", median(&setup_s).expect("set-up ran") + warmup_s),
        (
            "query_p50_ms",
            harrell_davis(&query_ms, 0.5).expect("an operation ran"),
        ),
        ("query_tail_ms", tail_ms),
        ("ops_per_s", attempted as f64 / op_s.max(1e-9)),
        ("ok_ops_pct", 100.0 * (1.0 - failed_frac)),
        ("objective_attained_pct", 100.0 - gap_pct),
        ("peak_rss_mb", rss),
    ]
    .into_iter()
    .collect();
    let e2e: Vec<(&'static str, f64, &'static str)> = END_TO_END
        .iter()
        .map(|d| (d.name, e2e_values[d.name], d.unit))
        .collect();

    let mut report = vec![format!(
        "perfbench {} seed={} trace={} rows={} ops={} seconds={}",
        w.name,
        args.seed,
        u8::from(args.trace),
        w.rows,
        attempted,
        args.seconds
    )];
    for (name, value, unit) in &e2e {
        report.push(format!("  {name:<28} {value:>14.4} {unit}"));
    }
    report.push(format!(
        "  {:<28} {:>14.4} fraction",
        "failed_frac", failed_frac
    ));
    report.push(format!("  {:<28} {:>14.4} %", "objective_gap_pct", gap_pct));
    report.push(format!(
        "  query_tail_ms is p{tail_pct:.1} of {} queries ({tail_beyond} beyond it)",
        query_ms.len()
    ));
    if let Some(t) = &trace {
        for d in PER_LAYER {
            report.push(format!(
                "  {:<42} {:>14.4} {}",
                d.name, t.metrics[d.name], d.unit
            ));
        }
    }
    for f in failures.iter().take(8) {
        report.push(format!("  failure: {f}"));
    }

    let mut routes: BTreeMap<String, usize> = BTreeMap::new();
    for o in &ops {
        if let Ok(a) = &o.answer {
            *routes.entry(a.strategy.to_string()).or_default() += 1;
        }
    }
    let mut route_shares = Obj::new();
    for (r, c) in &routes {
        route_shares.field(r, num(*c as f64 / attempted.max(1) as f64));
    }
    let mut shares = Obj::new();
    shares
        .field("cache_hit", num(share(&ops, |o| o.cache_hit)))
        .field("paged_view", num(share(&ops, |o| o.paged)))
        .field("route", route_shares.render());
    let mut samples = Obj::new();
    samples
        .field("setup_s", setup_s.len().to_string())
        .field("query_ms", query_ms.len().to_string())
        .field("ops", attempted.to_string())
        .field("objective_gap_pct", gaps.len().to_string())
        .field("peak_rss_mb", "1".to_string());
    let mut metrics = Obj::new();
    for (name, value, unit) in &e2e {
        let mut m = Obj::new();
        m.field("value", num(*value)).field("unit", string(unit));
        metrics.field(name, m.render());
    }
    for (name, value, unit) in [
        ("failed_frac", failed_frac, "fraction"),
        ("objective_gap_pct", gap_pct, "%"),
    ] {
        let mut m = Obj::new();
        m.field("value", num(value)).field("unit", string(unit));
        metrics.field(name, m.render());
    }
    if let Some(t) = &trace {
        for d in PER_LAYER {
            let mut m = Obj::new();
            m.field("value", num(t.metrics[d.name]))
                .field("unit", string(d.unit));
            metrics.field(d.name, m.render());
        }
    }
    let per_op: Vec<String> = ops
        .iter()
        .zip(&verdicts)
        .map(|(o, v)| {
            let mut r = Obj::new();
            r.field("query", string(&o.query.key()))
                .field("query_ms", num(o.query_ms))
                .field("op_ms", num(o.op_ms))
                .field(
                    "strategy",
                    string(
                        &o.answer
                            .as_ref()
                            .map_or("error".to_string(), |a| a.strategy.to_string()),
                    ),
                )
                .field("cache_hit", o.cache_hit.to_string())
                .field("paged", o.paged.to_string())
                .field("failed", v.failed.is_some().to_string())
                .field("gap_pct", v.gap_pct.map_or("null".to_string(), num));
            r.render()
        })
        .collect();
    let mut record = Obj::new();
    record
        .field("workload", string(w.name))
        .field("seed", args.seed.to_string())
        .field("trace", args.trace.to_string())
        .field(
            "host_nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        )
        .field("commit", string(&commit()))
        .field(
            "build_profile",
            string(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        )
        .field("engine_num_threads", NUM_THREADS.to_string())
        .field("rows", w.rows.to_string())
        .field("seconds", num(args.seconds))
        .field("table_setup_s", num(median(&setup_s).expect("set-up ran")))
        .field("warmup_s", num(warmup_s))
        .field("query_tail_percentile", num(tail_pct))
        .field(
            "query_sample_median_ms",
            num(median(&query_ms).expect("an operation ran")),
        )
        .field("samples", samples.render())
        .field("shares", shares.render())
        .field("metrics", metrics.render())
        .field("ops", format!("[{}]", per_op.join(", ")))
        .field(
            "failures",
            format!(
                "[{}]",
                failures
                    .iter()
                    .map(|f| string(f))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );

    let metrics = match &trace {
        Some(t) => PER_LAYER
            .iter()
            .map(|d| (d.name, t.metrics[d.name], d.unit))
            .collect(),
        None => e2e,
    };
    Ok(Outcome {
        correct: wrong.is_empty(),
        attempted,
        failed,
        metrics,
        report,
        record: record.render(),
        spans: trace.map(|t| t.tracer.render()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_prints_every_metric_with_its_unit() {
        let reference = Reference::committed().expect("committed reference data loads");
        for w in WORKLOADS {
            for trace in [false, true] {
                let args = RunArgs {
                    workload: Workload { rows: 400, ..w },
                    seed: 5,
                    seconds: 0.001,
                    trace,
                };
                let out = run(&args, Some(&reference)).expect("a tiny run completes");
                assert!(out.correct, "{}: {:?}", w.name, out.report);
                assert!(out.attempted >= 1);
                let line = out.result_line();
                let defs = if trace { PER_LAYER } else { END_TO_END };
                assert_eq!(out.metrics.len(), defs.len());
                for d in defs {
                    let printed = format!("\"unit\": \"{}\"", d.unit);
                    let at = line
                        .find(&format!("\"{}\": {{\"value\": ", d.name))
                        .unwrap_or_else(|| panic!("{} missing from {line}", d.name));
                    assert!(line[at..].starts_with(&format!("\"{}\"", d.name)));
                    assert!(line[at..].split('}').next().unwrap().contains(&printed));
                }
                let report = out.report.join("\n");
                for name in ["failed_frac", "objective_gap_pct", "query_p50_ms"] {
                    assert!(report.contains(name), "{name} missing from the report");
                }
                assert!(out.record.contains("\"host_nproc\""));
                assert_eq!(out.spans.is_some(), trace);
            }
        }
    }

    #[test]
    fn a_tampered_answer_fails_the_checks() {
        let w = Workload {
            rows: 300,
            ..WORKLOADS[0]
        };
        let (bench, _) = setup(&w).expect("set-up succeeds");
        let q = gen::SCRIPT[0];
        let result = bench
            .engine
            .execute_paql(&q.paql())
            .map_err(|e| e.to_string());
        let mut answer = result.as_ref().map(Answer::of).expect("the query runs");
        assert!(!answer.packages.is_empty(), "a 300-row table answers it");
        assert!(check(&bench.engine, &q, &Ok(answer.clone()), None)
            .wrong
            .is_none());

        let good = answer.objective_bits[0];
        answer.objective_bits[0] = good.map(|b| (f64::from_bits(b) + 1.0).to_bits());
        assert!(check(&bench.engine, &q, &Ok(answer.clone()), None)
            .wrong
            .is_some());

        answer.objective_bits[0] = good;
        answer.packages[0].push((u32::MAX - 1, 1));
        assert!(check(&bench.engine, &q, &Ok(answer), None).wrong.is_some());
    }

    #[test]
    fn an_empty_answer_to_a_feasible_query_is_a_failure() {
        let reference = Reference::committed().expect("committed reference data loads");
        let w = Workload {
            rows: reference.provenance.prefix_rows,
            ..WORKLOADS[2]
        };
        let (bench, _) = setup(&w).expect("set-up succeeds");
        let q = gen::SCRIPT[0];
        let empty = Answer {
            packages: Vec::new(),
            objective_bits: Vec::new(),
            strategy: StrategyUsed::ProgressiveShading,
        };
        let verdict = check(&bench.engine, &q, &Ok(empty), Some(&reference));
        assert!(verdict.wrong.is_none());
        assert!(verdict.failed.is_some());
    }
}
