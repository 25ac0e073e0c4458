//! Seeded inputs: the `recipes` relation and the PaQL query stream.
//!
//! The relation always comes from one fixed data seed, so every workload's
//! table is a prefix of the same `recipe_rows` stream (ingest appends keep
//! reading it past `n`). The workload seed only orders the query stream.
//! Queries come from one template whose parameters range over a finite grid,
//! and the committed reference data (see [`crate::reference`]) covers all of
//! it.

use std::collections::BTreeSet;

use datagen::{recipe_rows, Seed};
use minidb::Tuple;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Seed of the `recipes` relation shared by every workload.
pub const DATA_SEED: u64 = 42;

/// Package sizes (`COUNT(*) = k`).
pub const COUNTS: [u32; 3] = [3, 4, 5];
/// Mean calories per meal at the low end of the `SUM(P.calories)` window.
pub const MEAL_KCAL: [u32; 3] = [500, 600, 700];
/// Width of the calorie window, per meal.
pub const SLACK_KCAL: [u32; 2] = [50, 100];
/// Caps for the optional `AVG(P.fat) <= x` constraint.
pub const FAT_CAPS: [u32; 2] = [20, 25];

/// The query's objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Goal {
    MaxProtein,
    MinPrice,
    MinFat,
}

pub const GOALS: [Goal; 3] = [Goal::MaxProtein, Goal::MinPrice, Goal::MinFat];

impl Goal {
    fn label(self) -> &'static str {
        match self {
            Goal::MaxProtein => "max-protein",
            Goal::MinPrice => "min-price",
            Goal::MinFat => "min-fat",
        }
    }

    fn clause(self) -> &'static str {
        match self {
            Goal::MaxProtein => "MAXIMIZE SUM(P.protein)",
            Goal::MinPrice => "MINIMIZE SUM(P.price)",
            Goal::MinFat => "MINIMIZE SUM(P.fat)",
        }
    }

    /// True when a larger objective value is better.
    pub fn maximizes(self) -> bool {
        self == Goal::MaxProtein
    }
}

/// One point of the query template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct QueryParams {
    pub count: u32,
    pub meal_kcal: u32,
    pub slack_kcal: u32,
    pub fat_cap: Option<u32>,
    pub goal: Goal,
    pub gluten_free: bool,
}

impl QueryParams {
    /// A stable name for this grid point (the reference data's key).
    pub fn key(&self) -> String {
        let fat = self.fat_cap.map_or("any".to_string(), |f| f.to_string());
        let rel = if self.gluten_free { "gf" } else { "all" };
        format!(
            "c{}-m{}-s{}-f{}-{}-{}",
            self.count,
            self.meal_kcal,
            self.slack_kcal,
            fat,
            self.goal.label(),
            rel
        )
    }

    /// The PaQL text the engine receives.
    pub fn paql(&self) -> String {
        let lo = self.count * self.meal_kcal;
        let hi = lo + self.count * self.slack_kcal;
        let filter = if self.gluten_free {
            " WHERE R.gluten = 'free'"
        } else {
            ""
        };
        let fat = self
            .fat_cap
            .map_or(String::new(), |f| format!(" AND AVG(P.fat) <= {f}"));
        format!(
            "SELECT PACKAGE(R) AS P FROM recipes R{filter} SUCH THAT COUNT(*) = {} \
             AND SUM(P.calories) BETWEEN {lo} AND {hi}{fat} {}",
            self.count,
            self.goal.clause()
        )
    }
}

/// A query shape: package size, objective and filter.
#[derive(Debug, Clone, Copy)]
struct Stratum {
    count: u32,
    goal: Goal,
    gluten_free: bool,
}

impl Stratum {
    /// The grid points of this stratum with fat constraint `fat_cap`.
    fn variants(&self, fat_cap: Option<u32>) -> Vec<QueryParams> {
        let mut out = Vec::new();
        for &meal_kcal in &MEAL_KCAL {
            for &slack_kcal in &SLACK_KCAL {
                out.push(QueryParams {
                    count: self.count,
                    meal_kcal,
                    slack_kcal,
                    fat_cap,
                    goal: self.goal,
                    gluten_free: self.gluten_free,
                });
            }
        }
        out
    }
}

fn strata(filtered: bool) -> Vec<Stratum> {
    let glutens: &[bool] = if filtered { &[false, true] } else { &[false] };
    let mut out = Vec::new();
    for &count in &COUNTS {
        for &goal in &GOALS {
            for &gluten_free in glutens {
                out.push(Stratum {
                    count,
                    goal,
                    gluten_free,
                });
            }
        }
    }
    out
}

fn fat_options() -> impl Iterator<Item = Option<u32>> {
    std::iter::once(None).chain(FAT_CAPS.iter().map(|&f| Some(f)))
}

/// Every query the template can produce (the reference data's domain).
pub fn grid() -> Vec<QueryParams> {
    strata(true)
        .iter()
        .flat_map(|s| fat_options().flat_map(move |f| s.variants(f)))
        .collect()
}

/// One query per term signature (objective × fat constraint or not ×
/// filter) of `queries`: running these first fills the view cache's columns
/// and partition memos, as a session that has been going for a while would
/// have them.
pub fn warmup(queries: &[QueryParams]) -> Vec<QueryParams> {
    let signatures: BTreeSet<(Goal, bool, bool)> = queries
        .iter()
        .map(|q| (q.goal, q.fat_cap.is_some(), q.gluten_free))
        .collect();
    signatures
        .into_iter()
        .map(|(goal, fat, gluten_free)| QueryParams {
            count: COUNTS[0],
            meal_kcal: MEAL_KCAL[1],
            slack_kcal: SLACK_KCAL[1],
            fat_cap: fat.then_some(FAT_CAPS[0]),
            goal,
            gluten_free,
        })
        .collect()
}

/// The query set of the `ingest` and `out_of_core` workloads: each
/// package size × objective once, with calorie windows and fat caps spread
/// evenly over the grid. It includes
/// `COUNT(*) = 3 AND SUM(P.calories) BETWEEN 1800 AND 2100 AND AVG(P.fat) <= 20
/// MAXIMIZE SUM(P.protein)`, to which progressive shading returned an empty
/// answer at 600 000 and 10^6 rows in an earlier prototype of this generator
/// although the query is feasible.
pub const SCRIPT: [QueryParams; 9] = [
    script(3, 600, 100, Some(20), Goal::MaxProtein),
    script(4, 500, 50, None, Goal::MaxProtein),
    script(5, 700, 100, Some(25), Goal::MaxProtein),
    script(3, 500, 100, None, Goal::MinPrice),
    script(4, 700, 50, Some(20), Goal::MinPrice),
    script(5, 600, 100, None, Goal::MinPrice),
    script(3, 700, 50, None, Goal::MinFat),
    script(4, 600, 100, Some(25), Goal::MinFat),
    script(5, 500, 50, Some(20), Goal::MinFat),
];

const fn script(
    count: u32,
    meal_kcal: u32,
    slack_kcal: u32,
    fat_cap: Option<u32>,
    goal: Goal,
) -> QueryParams {
    QueryParams {
        count,
        meal_kcal,
        slack_kcal,
        fat_cap,
        goal,
        gluten_free: false,
    }
}

/// Seed of the fixed `interactive` session (not the workload seed).
const SESSION_SEED: u64 = 2014;

/// The `interactive` session: 36 distinct queries, each package size ×
/// objective × filter twice, with calorie windows and fat caps drawn from
/// the grid (`AVG(P.fat) <= x` on about half). Drawn once from a fixed
/// seed, so every run measures the same queries; the workload seed orders
/// them.
pub fn session() -> Vec<QueryParams> {
    let mut rng = StdRng::seed_from_u64(SESSION_SEED);
    let mut used: BTreeSet<QueryParams> = BTreeSet::new();
    let mut out = Vec::new();
    for _ in 0..2 {
        for stratum in strata(true) {
            let fat_cap = if rng.random_range(0..2) == 0 {
                None
            } else {
                Some(FAT_CAPS[rng.random_range(0..FAT_CAPS.len())])
            };
            let fresh: Vec<QueryParams> = stratum
                .variants(fat_cap)
                .into_iter()
                .filter(|q| !used.contains(q))
                .collect();
            let pick = fresh[rng.random_range(0..fresh.len())];
            used.insert(pick);
            out.push(pick);
        }
    }
    out
}

/// The seeded query stream: a fixed set of queries, delivered in rounds,
/// each round the whole set in a seed-shuffled order. A run measures whole
/// rounds, so every run measures the same queries.
pub struct QueryStream {
    rng: StdRng,
    queries: Vec<QueryParams>,
}

impl QueryStream {
    pub fn new(seed: u64, queries: Vec<QueryParams>) -> Self {
        QueryStream {
            rng: StdRng::seed_from_u64(seed ^ 0x5EED_0F9A_9E17),
            queries,
        }
    }

    /// The next round of queries.
    pub fn next_round(&mut self) -> Vec<QueryParams> {
        let mut round = self.queries.clone();
        round.shuffle(&mut self.rng);
        round
    }
}

/// The relation's row stream from its first row. Prefix-stable: the first
/// `k` rows are the same however far the stream is read.
pub fn rows() -> impl Iterator<Item = Tuple> {
    recipe_rows(usize::MAX, Seed(DATA_SEED))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seed: u64, queries: &[QueryParams], rounds: usize) -> Vec<String> {
        let mut stream = QueryStream::new(seed, queries.to_vec());
        (0..rounds)
            .flat_map(|_| stream.next_round())
            .map(|q| q.paql())
            .collect()
    }

    #[test]
    fn same_seed_gives_the_same_stream() {
        assert_eq!(take(7, &session(), 3), take(7, &session(), 3));
        assert_eq!(take(7, &SCRIPT, 3), take(7, &SCRIPT, 3));
    }

    #[test]
    fn different_seeds_give_different_streams() {
        assert_ne!(take(7, &session(), 1), take(8, &session(), 1));
        assert_ne!(take(7, &SCRIPT, 2), take(8, &SCRIPT, 2));
    }

    #[test]
    fn every_round_holds_the_whole_set() {
        let mut stream = QueryStream::new(3, SCRIPT.to_vec());
        for _ in 0..4 {
            let mut round = stream.next_round();
            round.sort();
            let mut expect = SCRIPT.to_vec();
            expect.sort();
            assert_eq!(round, expect);
        }
    }

    #[test]
    fn the_session_is_distinct_balanced_and_within_the_grid() {
        let grid: BTreeSet<String> = grid().iter().map(QueryParams::key).collect();
        let s = session();
        let keys: BTreeSet<String> = s.iter().map(QueryParams::key).collect();
        assert_eq!(keys.len(), s.len());
        assert!(keys.is_subset(&grid));
        assert!(SCRIPT.iter().all(|q| grid.contains(&q.key())));
        for stratum in strata(true) {
            let n = s
                .iter()
                .filter(|q| {
                    (q.count, q.goal, q.gluten_free)
                        == (stratum.count, stratum.goal, stratum.gluten_free)
                })
                .count();
            assert_eq!(n, 2);
        }
    }

    #[test]
    fn warmup_covers_every_term_signature_once() {
        let signature = |q: &QueryParams| (q.goal, q.fat_cap.is_some(), q.gluten_free);
        for set in [grid(), session(), SCRIPT.to_vec()] {
            let warm = warmup(&set);
            let covered: BTreeSet<_> = warm.iter().map(signature).collect();
            assert_eq!(covered.len(), warm.len());
            assert!(set.iter().all(|q| covered.contains(&signature(q))));
        }
        assert_eq!(warmup(&grid()).len(), 12);
    }

    #[test]
    fn query_text_parses() {
        for q in grid() {
            paql::parse(&q.paql()).expect("template produces valid PaQL");
        }
    }

    #[test]
    fn the_row_stream_is_prefix_stable() {
        let short: Vec<Tuple> = rows().take(50).collect();
        let long: Vec<Tuple> = rows().take(80).collect();
        assert_eq!(short[..], long[..50]);
    }
}
