//! Metric definitions, the `BENCHMARK.json` manifest, and the statistics
//! the report uses.

use crate::json::{num, string, Obj};

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Metrics of an untraced run (`--trace 0`).
///
/// Failures and answer quality are gated as `ok_ops_pct`
/// (`100 × (1 − failed_frac)`) and `objective_attained_pct`
/// (`100 − objective_gap_pct`): a healthy run has `failed_frac` and
/// `objective_gap_pct` at exactly 0, and a bound relative to a zero median
/// is meaningless. The report prints both forms.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("query_p50_ms", "ms", "lower", 0.25),
    e2e("query_tail_ms", "ms", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("ok_ops_pct", "%", "higher", 0.1),
    e2e("objective_attained_pct", "%", "higher", 0.05),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
];

/// Strategies `Auto` can route to, as [`packagebuilder::StrategyUsed`]
/// displays them.
pub const ROUTES: &[&str] = &[
    "pruned-enumeration",
    "ilp",
    "portfolio",
    "progressive-shading",
    "local-search",
];

/// Metrics of a traced run (`--trace 1`): per-operation means of each
/// layer's self time and counters, over the traced replay.
pub const PER_LAYER: &[MetricDef] = &[
    layer("paql.parse_ms", "ms", "lower"),
    layer("paql.analyze_ms", "ms", "lower"),
    layer("engine.plan_ms", "ms", "lower"),
    layer("engine.route_share.pruned-enumeration", "share", "higher"),
    layer("engine.route_share.ilp", "share", "higher"),
    layer("engine.route_share.portfolio", "share", "higher"),
    layer("engine.route_share.progressive-shading", "share", "higher"),
    layer("engine.route_share.local-search", "share", "higher"),
    layer("minidb.append_ms", "ms", "lower"),
    layer("minidb.validate_ms", "ms", "lower"),
    layer("view.build_ms", "ms", "lower"),
    layer("cache.hit_ratio", "share", "higher"),
    layer("cache.columns_built", "count/op", "lower"),
    layer("cache.columns_reused", "count/op", "higher"),
    layer("cache.memo_bytes", "bytes", "lower"),
    layer("column_store.pool_hits", "count/op", "lower"),
    layer("column_store.pool_misses", "count/op", "lower"),
    layer("column_store.pool_evictions", "count/op", "lower"),
    layer("column_store.pages_spilled", "count/op", "lower"),
    layer("column_store.miss_ratio", "share", "lower"),
    layer("pruning.bounds_ms", "ms", "lower"),
    layer("partition.tree_build_ms", "ms", "lower"),
    layer("greedy.floor_ms", "ms", "lower"),
    layer("shading.descent_ms", "ms", "lower"),
    layer("shading.nodes", "count/op", "lower"),
    layer("shading.floor_share_pct", "%", "lower"),
    layer("solver.solve_ms", "ms", "lower"),
    layer("lp_solver.nodes", "count/op", "lower"),
    layer("lp_solver.iterations", "count/op", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("trace.coverage_pct", "%", "higher"),
];

/// Workloads, with why each was chosen.
pub const WORKLOAD_WHY: &[(&str, &str)] = &[
    (
        "interactive",
        "distinct analyst queries on 20000 recipes, warm cache: Auto races the portfolio and ILP branch and bound carries the load",
    ),
    (
        "ingest",
        "1000-row appends beside unfiltered queries on 10^6 recipes: every query misses the cache and pays scan, view, tree and shading",
    ),
    (
        "out_of_core",
        "queries on 600000 recipes whose columns stream through a 128-page pool: shading on paged views, buffer pool traffic dominates",
    ),
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 30;

/// The `BENCHMARK.json` manifest, generated from the definitions above.
pub fn manifest() -> String {
    let list = |defs: &[MetricDef]| {
        let items: Vec<String> = defs
            .iter()
            .map(|d| {
                let mut o = Obj::new();
                o.field("name", string(d.name));
                o.field("unit", string(d.unit));
                o.field("better", string(d.better));
                if let Some(b) = d.bound {
                    o.field("bound", num(b));
                }
                format!("    {}", o.render())
            })
            .collect();
        format!("[\n{}\n  ]", items.join(",\n"))
    };
    let workloads: Vec<String> = WORKLOAD_WHY
        .iter()
        .map(|(name, why)| {
            let mut o = Obj::new();
            o.field("name", string(name));
            o.field("why", string(why));
            format!("    {}", o.render())
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        workloads.join(",\n"),
        list(END_TO_END),
        list(PER_LAYER)
    )
}

/// Median (mean of the two middle values for an even count); `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The tail percentile: the highest order statistic with ten samples above
/// it, never below the median. Returns `(quantile, samples beyond)`.
pub fn tail_quantile(n: usize) -> (f64, usize) {
    let beyond = 10.min(n.saturating_sub(1) / 2);
    let rank = n - beyond;
    (rank as f64 / n.max(1) as f64, beyond)
}

/// The Harrell–Davis estimate of the `p` quantile: a Beta-weighted average
/// of all order statistics. With a few dozen samples a single order
/// statistic jumps between clusters of query costs from run to run; the
/// weighted average does not, so a run's median and tail repeat more
/// closely. `None` when empty.
pub fn harrell_davis(values: &[f64], p: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let (a, b) = (p * (n + 1.0), (1.0 - p) * (n + 1.0));
    if v.len() < 2 || a <= 0.0 || b <= 0.0 {
        return if p < 0.5 { v.first() } else { v.last() }.copied();
    }
    let mut below = 0.0;
    let mut estimate = 0.0;
    for (i, x) in v.iter().enumerate() {
        let upto = inc_beta(a, b, (i + 1) as f64 / n);
        estimate += (upto - below) * x;
        below = upto;
    }
    Some(estimate)
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let series: f64 = C[0]
        + C[1..]
            .iter()
            .enumerate()
            .map(|(i, c)| c / (x + i as f64 + 1.0))
            .sum::<f64>();
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// The regularized incomplete beta function `I_x(a, b)`.
fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_fraction(b, a, 1.0 - x) / b
    }
}

/// The continued fraction of `I_x(a, b)` (modified Lentz).
fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let nonzero = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..300 {
        let m = f64::from(m);
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / nonzero(1.0 + even * d);
        c = nonzero(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / nonzero(1.0 + odd * d);
        c = nonzero(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest());
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        assert!(END_TO_END.iter().all(|d| d.bound.unwrap() <= 0.25));
        for route in ROUTES {
            let name = format!("engine.route_share.{route}");
            assert!(PER_LAYER.iter().any(|d| d.name == name));
        }
    }

    #[test]
    fn tail_has_ten_samples_beyond_it_when_there_are_enough() {
        assert_eq!(tail_quantile(100), (0.9, 10));
        assert_eq!(tail_quantile(9), (5.0 / 9.0, 4));
        assert_eq!(tail_quantile(1), (1.0, 0));
        assert_eq!(median(&[1.0, 3.0]), Some(2.0));
    }

    #[test]
    fn harrell_davis_estimates_quantiles() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(close(harrell_davis(&v, 0.5).unwrap(), 50.5));
        assert!(close(harrell_davis(&[7.0; 12], 0.8).unwrap(), 7.0));
        let skewed = [1.0, 2.0, 3.0, 4.0, 100.0];
        let m = harrell_davis(&skewed, 0.5).unwrap();
        assert!(m > 3.0 && m < 20.0, "{m}");
        let lo = harrell_davis(&v, 0.25).unwrap();
        let hi = harrell_davis(&v, 0.9).unwrap();
        assert!(close(lo, 25.5) && (hi - 90.5).abs() < 1e-6, "{lo} {hi}");
        assert_eq!(harrell_davis(&[4.0], 0.5), Some(4.0));
        assert_eq!(harrell_davis(&[], 0.5), None);
        assert!(close(inc_beta(2.0, 3.0, 0.4), 0.5248));
        assert!(close(ln_gamma(5.0), 24f64.ln()));
    }
}
