//! The validated, executable form of a package query.

use minidb::eval::eval_predicate;
use minidb::stats::TableStats;
use minidb::{Expr, Table, TupleId};
use paql::{AnalyzedQuery, GlobalFormula, Objective, PaqlQuery};

use crate::cache::ViewCache;
use crate::column_store::ColumnPolicy;
use crate::package::Package;
use crate::par::ParExec;
use crate::view::CandidateView;
use crate::PbResult;

/// Evaluates a query's base (`WHERE`) predicate over a table: the candidate
/// tuple ids, in id order — the paper's "use SQL to evaluate the base
/// constraints" step (`SELECT * FROM R WHERE <base>`). `None` keeps every
/// tuple. Shared by [`PackageSpec::build`] and the [`ViewCache`] cold path.
pub fn base_candidates(table: &Table, where_clause: Option<&Expr>) -> PbResult<Vec<TupleId>> {
    base_candidates_par(table, where_clause, ParExec::sequential())
}

/// [`base_candidates`] with the predicate scan fanned out over `par` in
/// fixed-width row chunks. Per-chunk match lists concatenate in chunk order
/// (and tuple ids are insertion indices), so the candidate list — and any
/// evaluation error: first failing chunk, first failing row — is identical
/// at every thread count.
pub fn base_candidates_par(
    table: &Table,
    where_clause: Option<&Expr>,
    par: ParExec,
) -> PbResult<Vec<TupleId>> {
    let pred = match where_clause {
        None => return Ok(table.iter().map(|(id, _)| id).collect()),
        Some(pred) => pred,
    };
    let rows = table.rows();
    let schema = table.schema();
    let chunks = par.run_chunks(rows.len(), |_, range| -> PbResult<Vec<TupleId>> {
        let mut matched = Vec::new();
        for i in range {
            if eval_predicate(pred, schema, &rows[i])? {
                matched.push(TupleId(i as u32));
            }
        }
        Ok(matched)
    });
    let mut candidates = Vec::new();
    for chunk in chunks {
        candidates.extend(chunk?);
    }
    Ok(candidates)
}

/// A package query bound to a concrete table: the candidate tuples that
/// survive the base constraints, the global formula, the objective and the
/// multiplicity bound.
///
/// Building a spec corresponds to the "use SQL to evaluate the base
/// constraints" step of the paper — the candidate set is exactly the result
/// of `SELECT * FROM R WHERE <base>`. The spec then lowers the query onto a
/// columnar [`CandidateView`], which every evaluation strategy consumes;
/// `is_valid`, `violation` and `objective_value` all route through the view's
/// columns rather than re-interpreting expression trees per tuple.
#[derive(Debug, Clone)]
pub struct PackageSpec<'a> {
    /// The base relation.
    pub table: &'a Table,
    /// Tuples satisfying the base constraints, in id order.
    pub candidates: Vec<TupleId>,
    /// Maximum multiplicity of a tuple in the package (from `REPEAT`).
    pub max_multiplicity: u32,
    /// The `SUCH THAT` formula, if any.
    pub formula: Option<GlobalFormula>,
    /// The objective, if any.
    pub objective: Option<Objective>,
    /// The original query (for diagnostics and pretty-printing).
    pub query: PaqlQuery,
    /// The columnar evaluation core.
    view: CandidateView,
}

impl<'a> PackageSpec<'a> {
    /// Builds a spec from an analyzed query and its base table. The
    /// candidate rows are profiled and lowered into the columnar view in the
    /// same pass, borrowing rows straight from the table (no clones).
    pub fn build(analyzed: &AnalyzedQuery, table: &'a Table) -> PbResult<Self> {
        Self::build_with(
            analyzed,
            table,
            &ColumnPolicy::default(),
            ParExec::sequential(),
        )
    }

    /// [`PackageSpec::build`] with the base-predicate scan and column
    /// materialization fanned out over `par` (see [`crate::par`]; the engine
    /// passes its configured executor here), under an explicit
    /// [`ColumnPolicy`]: the view's term columns go out-of-core (spill file +
    /// buffer pool) when their estimated footprint exceeds the policy's
    /// resident budget — [`crate::config::EngineConfig::column_memory_budget`]
    /// arrives here. Bit-identical to the sequential build at every thread
    /// count; the storage mode never changes results, only where column
    /// bytes live.
    pub fn build_with(
        analyzed: &AnalyzedQuery,
        table: &'a Table,
        policy: &ColumnPolicy,
        par: ParExec,
    ) -> PbResult<Self> {
        let query = analyzed.query.clone();
        let candidates = base_candidates_par(table, query.where_clause.as_ref(), par)?;
        let view = CandidateView::build_par_with(
            table,
            candidates.clone(),
            query.max_multiplicity(),
            query.such_that.clone(),
            query.objective.clone(),
            policy,
            par,
        )?;
        Ok(PackageSpec {
            table,
            max_multiplicity: query.max_multiplicity(),
            formula: query.such_that.clone(),
            objective: query.objective.clone(),
            candidates,
            view,
            query,
        })
    }

    /// [`PackageSpec::build_with`] through a [`ViewCache`]: candidate
    /// evaluation, statistics and term columns are reused from the cache
    /// when the relation contents and base predicate match a cached bank
    /// (with only missing term columns materialized, fanned out over `par`),
    /// and banked for future queries otherwise. Cache-miss columns obey
    /// `policy`; banked columns keep the mode they were built with. The
    /// resulting spec is indistinguishable from a cold build — see the cache
    /// module docs for the determinism argument.
    pub fn build_cached_with(
        analyzed: &AnalyzedQuery,
        table: &'a Table,
        cache: &ViewCache,
        policy: &ColumnPolicy,
        par: ParExec,
    ) -> PbResult<Self> {
        let query = analyzed.query.clone();
        let view = cache.view_for_with(&query, table, policy, par)?;
        Ok(PackageSpec {
            table,
            candidates: view.candidates().to_vec(),
            max_multiplicity: query.max_multiplicity(),
            formula: query.such_that.clone(),
            objective: query.objective.clone(),
            view,
            query,
        })
    }

    /// The columnar view every solver consumes.
    pub fn view(&self) -> &CandidateView {
        &self.view
    }

    /// Statistics over the candidate tuples (used by pruning and greedy
    /// construction).
    pub fn stats(&self) -> &TableStats {
        self.view.stats()
    }

    /// Number of candidate tuples (the `n` of the paper's complexity
    /// discussion).
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// True when `package` is a valid answer: every member is a candidate
    /// (base constraints), multiplicities respect `REPEAT`, and the global
    /// formula holds. Evaluated columnar-ly; the `Result` is kept for API
    /// stability (view evaluation cannot fail after `build`).
    pub fn is_valid(&self, package: &Package) -> PbResult<bool> {
        Ok(self.view.is_valid(package))
    }

    /// Validates a package through the *interpreted* oracle — AST evaluation
    /// against the base table, sharing no code with the columnar view. The
    /// planner uses this for its defensive re-check of solver output, so a
    /// bug in view compilation cannot certify its own results.
    pub fn is_valid_interpreted(&self, package: &Package) -> PbResult<bool> {
        if package.max_multiplicity() > self.max_multiplicity {
            return Ok(false);
        }
        for (tid, _) in package.members() {
            if self.candidates.binary_search(&tid).is_err() {
                return Ok(false);
            }
        }
        match &self.formula {
            None => Ok(true),
            Some(f) => package.satisfies(self.table, f),
        }
    }

    /// Objective value of a package under this spec (`None` when the query
    /// has no objective or the objective is not evaluable).
    pub fn objective_value(&self, package: &Package) -> PbResult<Option<f64>> {
        Ok(self.view.objective_value(package))
    }

    /// Total constraint violation of a package (0 when feasible).
    pub fn violation(&self, package: &Package) -> PbResult<f64> {
        Ok(self.view.violation(package))
    }

    /// Restricts the spec to a subset of its candidates (used by adaptive
    /// exploration to narrow the search space after user feedback). The view
    /// is rebuilt over the surviving candidates — statistics and columns are
    /// streamed from borrowed rows.
    pub fn restrict_candidates(&self, keep: impl Fn(TupleId) -> bool) -> PackageSpec<'a> {
        let candidates: Vec<TupleId> = self
            .candidates
            .iter()
            .copied()
            .filter(|&t| keep(t))
            .collect();
        let view = CandidateView::build(
            self.table,
            candidates.clone(),
            self.max_multiplicity,
            self.formula.clone(),
            self.objective.clone(),
        )
        // pb-lint: allow(no-panic-in-solver-paths) — invariant: the parent
        // view already evaluated these exact tuples; a subset cannot add
        // new evaluation failures.
        .expect("restricting candidates cannot introduce evaluation errors");
        PackageSpec {
            table: self.table,
            candidates,
            max_multiplicity: self.max_multiplicity,
            formula: self.formula.clone(),
            objective: self.objective.clone(),
            view,
            query: self.query.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{recipes, Seed};
    use minidb::TupleId;
    use paql::compile;

    fn spec_for<'a>(table: &'a Table, q: &str) -> PackageSpec<'a> {
        let analyzed = compile(q, table.schema()).unwrap();
        PackageSpec::build(&analyzed, table).unwrap()
    }

    #[test]
    fn base_constraints_filter_candidates() {
        let t = recipes(200, Seed(1));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' SUCH THAT COUNT(*) = 3",
        );
        assert!(spec.candidate_count() > 0);
        assert!(spec.candidate_count() < 200);
        for id in &spec.candidates {
            let v = t
                .require(*id)
                .unwrap()
                .get_named(t.schema(), "gluten")
                .unwrap();
            assert_eq!(v.to_string(), "free");
        }
        assert_eq!(spec.view().candidates(), spec.candidates.as_slice());
    }

    #[test]
    fn no_where_clause_keeps_everything() {
        let t = recipes(50, Seed(2));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 2",
        );
        assert_eq!(spec.candidate_count(), 50);
    }

    #[test]
    fn validity_checks_membership_multiplicity_and_formula() {
        let t = recipes(100, Seed(3));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' SUCH THAT COUNT(*) = 2",
        );
        let a = spec.candidates[0];
        let b = spec.candidates[1];
        assert!(spec.is_valid(&Package::from_ids([a, b])).unwrap());
        // Wrong cardinality.
        assert!(!spec.is_valid(&Package::from_ids([a])).unwrap());
        // Multiplicity above REPEAT (default 1).
        assert!(!spec.is_valid(&Package::from_members([(a, 2)])).unwrap());
        // Tuple outside the base constraint (find a non-candidate id).
        let outsider = (0..100u32)
            .map(TupleId)
            .find(|id| spec.candidates.binary_search(id).is_err())
            .expect("some recipe has gluten");
        assert!(!spec.is_valid(&Package::from_ids([a, outsider])).unwrap());
    }

    #[test]
    fn restrict_candidates_narrows_the_space() {
        let t = recipes(100, Seed(4));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 2",
        );
        let keep: Vec<TupleId> = spec.candidates.iter().copied().take(10).collect();
        let narrowed = spec.restrict_candidates(|t| keep.contains(&t));
        assert_eq!(narrowed.candidate_count(), 10);
        assert_eq!(narrowed.max_multiplicity, spec.max_multiplicity);
        assert_eq!(narrowed.view().candidate_count(), 10);
        assert_eq!(narrowed.stats().row_count(), 10);
    }

    #[test]
    fn objective_and_violation_delegate_to_the_view() {
        let t = recipes(100, Seed(5));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 2 AND SUM(P.calories) <= 100 \
             MAXIMIZE SUM(P.protein)",
        );
        let p = Package::from_ids(spec.candidates.iter().copied().take(2));
        assert!(spec.objective_value(&p).unwrap().unwrap() > 0.0);
        // Two recipes always exceed 100 calories in this generator.
        assert!(spec.violation(&p).unwrap() > 0.0);
        assert!(!spec.is_valid(&p).unwrap());
        // The interpreted oracle agrees with the columnar path.
        let oracle = p
            .formula_violation(&t, spec.formula.as_ref().unwrap())
            .unwrap();
        assert!((spec.violation(&p).unwrap() - oracle).abs() < 1e-9);
    }

    #[test]
    fn stats_cover_candidates_without_cloning_rows() {
        let t = recipes(80, Seed(6));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' SUCH THAT COUNT(*) = 2",
        );
        assert_eq!(spec.stats().row_count(), spec.candidate_count());
        assert!(spec.stats().column("calories").unwrap().min > 0.0);
    }
}
