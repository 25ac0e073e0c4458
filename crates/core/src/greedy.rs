//! Greedy construction of starting packages for the local search and the
//! standalone [`crate::solver::GreedySolver`], plus the shared
//! feasibility-repair pass the greedy solver and the sketch→refine fallback
//! both run.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::budget::Budget;
use crate::ilp::linearize_objective;
use crate::package::Package;
use crate::par::ParExec;
use crate::pruning::derive_bounds;
use crate::view::{CandidateView, ViewState};

/// How to pick the tuples of a starting package.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartHeuristic {
    /// Highest objective coefficient first (density-ordered greedy).
    Greedy,
    /// Uniformly random candidates ("which can be constructed, for example,
    /// at random" — Section 4.2).
    Random,
}

/// Builds a starting package of a plausible cardinality: the lower
/// cardinality bound when one is known (the smallest package that could
/// possibly be feasible), otherwise a small constant.
pub fn starting_package(
    view: &CandidateView,
    heuristic: StartHeuristic,
    rng: &mut StdRng,
) -> Package {
    let n = view.candidate_count();
    if n == 0 {
        return Package::new();
    }
    let bounds = derive_bounds(view).clamp_to(n as u64 * view.max_multiplicity() as u64);
    let target = starting_cardinality(view, bounds.lower, bounds.upper);

    // Order candidates by the chosen heuristic. The fill below never reads
    // past the first `min(target, n)` of them (the first round already
    // places that many; later REPEAT rounds start only when every candidate
    // is in the order), so the greedy order is only selected that far.
    let prefix = target.min(n as u64) as usize;
    let mut order: Vec<usize> = match heuristic {
        StartHeuristic::Greedy => match linearize_objective(view).ok().flatten() {
            Some(objective) => {
                let maximize = matches!(view.direction(), paql::ObjectiveDirection::Maximize);
                top_by_objective(&objective.coeffs, maximize, prefix)
            }
            None => shuffled(n, rng),
        },
        StartHeuristic::Random => shuffled(n, rng),
    };
    order.truncate(prefix);

    let mut package = Package::new();
    let mut placed = 0u64;
    'outer: for _ in 0..view.max_multiplicity() {
        for &i in &order {
            if placed >= target {
                break 'outer;
            }
            // First pass adds each tuple once; later passes add repetitions
            // (only relevant for REPEAT queries).
            if package.multiplicity(view.candidates()[i]) < view.max_multiplicity() {
                package.add(view.candidates()[i], 1);
                placed += 1;
            }
        }
        if view.max_multiplicity() == 1 {
            break;
        }
    }
    package
}

/// All `n` candidate indices in a seeded random order.
fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    order
}

/// The `k` best candidate indices by objective coefficient, best first:
/// the prefix a stable sort of all indices by coefficient would produce.
/// Keying on (coefficient by `total_cmp`, then index) makes the order total,
/// so an unstable selection of the first `k` plus a sort of that prefix
/// reproduces the stable sort's tie order in `O(n + k log k)`.
fn top_by_objective(coeffs: &[f64], maximize: bool, k: usize) -> Vec<usize> {
    if k == 0 {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..coeffs.len()).collect();
    let key = |&a: &usize, &b: &usize| {
        let by_coeff = if maximize {
            coeffs[b].total_cmp(&coeffs[a])
        } else {
            coeffs[a].total_cmp(&coeffs[b])
        };
        by_coeff.then(a.cmp(&b))
    };
    if k < order.len() {
        order.select_nth_unstable_by(k - 1, key);
        order.truncate(k);
    }
    order.sort_unstable_by(key);
    order
}

/// Feasibility-repair pass: accept single add/drop moves while they strictly
/// reduce the violation (delta-evaluated on the view's columns). Each pass
/// scans the whole candidate set in fixed-width chunks fanned out over
/// `par`; scan chunk `c` is column chunk `c`, so each chunk pins every term's
/// chunk once ([`CandidateView::pin_chunk`]) and scores its candidates'
/// violations from those slices — one buffer-pool read per term per chunk
/// per pass on a paged view. Per-chunk local bests combine in chunk order
/// (first strictly better move wins, exactly the sequential scan's
/// tie-breaking), so the repair trajectory is bit-identical at every thread
/// count. The budget is checked per chunk, not per element: a chunk that
/// observes expiry marks the pass interrupted and the state is left at its
/// best-so-far. Returns `(evaluations, moves)` for the caller's stats.
pub(crate) fn repair_to_feasibility(
    state: &mut ViewState<'_>,
    budget: &Budget,
    par: ParExec,
) -> (u64, u64) {
    let view = state.view();
    let n = view.candidate_count();
    let max_mult = view.max_multiplicity() as i64;
    let mut evaluations = 0u64;
    let mut moves = 0u64;
    let mut violation = state.violation();
    while violation > 0.0 && !budget.expired() {
        // One pass: chunk-local best move (`None` chunk = expired marker).
        let chunk_bests = {
            let snapshot: &ViewState<'_> = state;
            par.run_chunks(n, |c, range| {
                if budget.expired() {
                    return None;
                }
                let pinned = view.pin_chunk(c);
                let mut evals = 0u64;
                let mut best: Option<(f64, usize, i64)> = None;
                for idx in range {
                    let mult = snapshot.multiplicity(idx) as i64;
                    for delta in [1i64, -1] {
                        if mult + delta < 0 || mult + delta > max_mult {
                            continue;
                        }
                        evals += 1;
                        let v =
                            snapshot.violation_by(&[(idx, delta)], |i, out| pinned.entries(i, out));
                        if v + 1e-9 < best.map_or(violation, |(b, _, _)| b) {
                            best = Some((v, idx, delta));
                        }
                    }
                }
                Some((evals, best))
            })
        };
        let mut expired = false;
        let mut best_change: Option<(usize, i64)> = None;
        let mut best_violation = violation;
        for chunk in chunk_bests {
            let Some((evals, best)) = chunk else {
                expired = true;
                break;
            };
            evaluations += evals;
            if let Some((v, idx, delta)) = best {
                if v + 1e-9 < best_violation {
                    best_violation = v;
                    best_change = Some((idx, delta));
                }
            }
        }
        if expired {
            break;
        }
        match best_change {
            Some((idx, delta)) => {
                state.apply(idx, delta);
                violation = best_violation;
                moves += 1;
            }
            None => break, // stuck — the repair gives up, feasible or not
        }
    }
    (evaluations, moves)
}

fn starting_cardinality(view: &CandidateView, lower: u64, upper: Option<u64>) -> u64 {
    let capacity = view.candidate_count() as u64 * view.max_multiplicity() as u64;
    let fallback = 3u64.min(capacity);
    let target = if lower > 0 {
        lower
    } else {
        match upper {
            Some(u) if u < fallback => u,
            _ => fallback,
        }
    };
    target.min(capacity)
}

/// Generates a random cardinality inside the pruning bounds, used by restart
/// rounds so different restarts explore different package sizes.
pub fn random_cardinality(view: &CandidateView, rng: &mut StdRng) -> u64 {
    let capacity = (view.candidate_count() as u64 * view.max_multiplicity() as u64).max(1);
    let bounds = derive_bounds(view).clamp_to(capacity);
    let lo = bounds.lower.max(1).min(capacity);
    let hi = bounds.upper.unwrap_or(lo + 4).clamp(lo, capacity);
    rng.random_range(lo..=hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PackageSpec;
    use datagen::{recipes, Seed};
    use minidb::Table;
    use paql::compile;
    use rand::SeedableRng;

    fn spec_for<'a>(table: &'a Table, q: &str) -> PackageSpec<'a> {
        let analyzed = compile(q, table.schema()).unwrap();
        PackageSpec::build(&analyzed, table).unwrap()
    }

    #[test]
    fn greedy_start_prefers_high_objective_tuples() {
        let t = recipes(100, Seed(1));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 3 MAXIMIZE SUM(P.protein)",
        );
        let mut rng = StdRng::seed_from_u64(1);
        let p = starting_package(spec.view(), StartHeuristic::Greedy, &mut rng);
        assert_eq!(p.cardinality(), 3);
        // The greedy start should contain the single highest-protein recipe.
        let best = spec
            .candidates
            .iter()
            .max_by(|a, b| {
                t.value_f64(**a, "protein")
                    .unwrap()
                    .total_cmp(&t.value_f64(**b, "protein").unwrap())
            })
            .copied()
            .unwrap();
        assert!(p.multiplicity(best) >= 1, "{}", p.render(&t));
    }

    #[test]
    fn top_k_selection_matches_the_stable_full_sort() {
        // Tie-heavy column: five values (both zeros among them, which
        // `total_cmp` orders apart) spread over 3000 candidates.
        let values = [2.0, -0.0, 0.0, 1.5, 2.0];
        let coeffs: Vec<f64> = (0..3000u64)
            .map(|i| values[(i.wrapping_mul(2_654_435_761) % 5) as usize])
            .collect();
        for maximize in [true, false] {
            // The reference: a stable sort of every index by coefficient,
            // whose tie order is candidate-index order.
            let mut reference: Vec<usize> = (0..coeffs.len()).collect();
            reference.sort_by(|&a, &b| {
                if maximize {
                    coeffs[b].total_cmp(&coeffs[a])
                } else {
                    coeffs[a].total_cmp(&coeffs[b])
                }
            });
            for k in [0, 1, 2, 3, 17, 600, 2999, 3000] {
                assert_eq!(
                    top_by_objective(&coeffs, maximize, k),
                    reference[..k],
                    "maximize={maximize} k={k}"
                );
            }
        }
    }

    #[test]
    fn random_start_respects_cardinality_and_multiplicity() {
        let t = recipes(60, Seed(2));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 5 AND SUM(P.calories) <= 4000",
        );
        let mut rng = StdRng::seed_from_u64(7);
        let p = starting_package(spec.view(), StartHeuristic::Random, &mut rng);
        assert_eq!(p.cardinality(), 5);
        assert!(p.max_multiplicity() <= 1);
    }

    #[test]
    fn repeat_queries_can_exceed_distinct_candidates() {
        let t = recipes(2, Seed(3));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R REPEAT 3 SUCH THAT COUNT(*) = 5",
        );
        let mut rng = StdRng::seed_from_u64(3);
        let p = starting_package(spec.view(), StartHeuristic::Greedy, &mut rng);
        assert_eq!(p.cardinality(), 5);
        assert!(p.max_multiplicity() <= 3);
    }

    #[test]
    fn empty_candidate_set_yields_empty_package() {
        let t = recipes(20, Seed(4));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.calories < 0 SUCH THAT COUNT(*) = 3",
        );
        let mut rng = StdRng::seed_from_u64(4);
        assert!(starting_package(spec.view(), StartHeuristic::Greedy, &mut rng).is_empty());
    }

    #[test]
    fn random_cardinality_stays_in_bounds() {
        let t = recipes(50, Seed(5));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) >= 2 AND COUNT(*) <= 6",
        );
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let c = random_cardinality(spec.view(), &mut rng);
            assert!((2..=6).contains(&c), "cardinality {c} out of bounds");
        }
    }
}
