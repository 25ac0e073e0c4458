//! Reference answers for `objective_gap_pct` and `failed_frac`.
//!
//! For every grid point of the query template, the reference stores whether
//! the query is feasible and its best-known objective, computed on a
//! `PREFIX_ROWS`-row prefix of the relation: an exact `Strategy::Ilp` solve
//! under a node cap, kept only if `Strategy::Auto` on the same prefix does
//! not find better. Because the row stream is prefix-stable, a package found
//! on the prefix is a feasibility witness at every larger `n`. Larger `n`
//! can only improve the optimum, so a workload over more rows may answer
//! better than the reference; its signed gap then goes negative, and the
//! benchmark keeps that value as measured.
//!
//! The data is committed as `reference.tsv` beside the benchmark and built
//! by `perfbench --build-reference`. Its header records the data seed, the
//! prefix size and a digest of the template; data built for any other
//! relation or template is rejected.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use minidb::Catalog;
use packagebuilder::{EngineConfig, PackageEngine, Strategy};

use crate::gen::{self, grid, QueryParams, DATA_SEED};
use crate::trace::now;

/// Rows of the prefix the reference is computed on.
pub const PREFIX_ROWS: usize = 20_000;
/// Branch-and-bound node cap of the reference ILP solves.
pub const NODE_CAP: usize = 200_000;

/// The committed reference data.
pub const COMMITTED: &str = include_str!("../reference.tsv");

/// What the reference knows about one query's feasibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feasible {
    Yes,
    No,
    /// The capped solve ended without a package or a proof.
    Unknown,
}

/// The reference entry of one grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub feasible: Feasible,
    /// Best-known objective on the prefix.
    pub objective: Option<f64>,
    /// Whether the ILP proved `objective` optimal on the prefix.
    pub proved: bool,
    /// Tuple ids of a package attaining `objective`.
    pub witness: Vec<u32>,
}

/// What the data was built for; loading checks it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    pub data_seed: u64,
    pub prefix_rows: usize,
    pub template: String,
}

impl Provenance {
    /// The provenance this build of the benchmark expects.
    pub fn current() -> Self {
        Provenance {
            data_seed: DATA_SEED,
            prefix_rows: PREFIX_ROWS,
            template: template_digest(),
        }
    }
}

/// FNV-1a digest of every grid point's key and query text: changes when the
/// template does.
pub fn template_digest() -> String {
    let mut points: Vec<(String, String)> = grid().iter().map(|q| (q.key(), q.paql())).collect();
    points.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (key, text) in points {
        for b in key.bytes().chain(text.bytes()).chain([b'\n']) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Parsed reference data.
#[derive(Debug, Clone)]
pub struct Reference {
    pub provenance: Provenance,
    entries: BTreeMap<String, Entry>,
}

impl Reference {
    /// Parses `text` and checks that it was built for `expect` and covers
    /// the whole grid.
    pub fn load(text: &str, expect: &Provenance) -> Result<Self, String> {
        let reference = Self::parse(text)?;
        if reference.provenance.data_seed != expect.data_seed {
            return Err(format!(
                "reference data is for data seed {}, the relation uses {}",
                reference.provenance.data_seed, expect.data_seed
            ));
        }
        if reference.provenance.prefix_rows != expect.prefix_rows {
            return Err(format!(
                "reference data is for a {}-row prefix, expected {}",
                reference.provenance.prefix_rows, expect.prefix_rows
            ));
        }
        if reference.provenance.template != expect.template {
            return Err(format!(
                "reference data is for template {}, the generator is {}",
                reference.provenance.template, expect.template
            ));
        }
        for q in grid() {
            if !reference.entries.contains_key(&q.key()) {
                return Err(format!("reference data lacks query {}", q.key()));
            }
        }
        Ok(reference)
    }

    /// The committed data, checked against this build's provenance.
    pub fn committed() -> Result<Self, String> {
        Self::load(COMMITTED, &Provenance::current())
    }

    fn parse(text: &str) -> Result<Self, String> {
        let mut header: BTreeMap<&str, &str> = BTreeMap::new();
        let mut entries = BTreeMap::new();
        for (no, line) in text.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let bad = || format!("reference line {}: malformed: {line}", no + 1);
            match fields.as_slice() {
                [name, value] => {
                    header.insert(name, value);
                }
                [key, feasible, objective, proved, witness] => {
                    if *key == "key" {
                        continue;
                    }
                    let feasible = match *feasible {
                        "yes" => Feasible::Yes,
                        "no" => Feasible::No,
                        "unknown" => Feasible::Unknown,
                        _ => return Err(bad()),
                    };
                    let objective = match *objective {
                        "-" => None,
                        v => Some(v.parse::<f64>().map_err(|_| bad())?),
                    };
                    let proved = match *proved {
                        "yes" => true,
                        "no" => false,
                        _ => return Err(bad()),
                    };
                    let witness = match *witness {
                        "-" => Vec::new(),
                        w => w
                            .split(',')
                            .map(|id| id.parse::<u32>().map_err(|_| bad()))
                            .collect::<Result<_, _>>()?,
                    };
                    entries.insert(
                        key.to_string(),
                        Entry {
                            feasible,
                            objective,
                            proved,
                            witness,
                        },
                    );
                }
                _ => return Err(bad()),
            }
        }
        let field = |name: &str| {
            header
                .get(name)
                .copied()
                .ok_or_else(|| format!("reference data has no '{name}' header"))
        };
        let number = |name: &str| -> Result<u64, String> {
            field(name)?
                .parse()
                .map_err(|_| format!("reference header '{name}' is not a number"))
        };
        let prefix_rows = usize::try_from(number("prefix_rows")?)
            .map_err(|_| "reference header 'prefix_rows' is out of range".to_string())?;
        Ok(Reference {
            provenance: Provenance {
                data_seed: number("data_seed")?,
                prefix_rows,
                template: field("template")?.to_string(),
            },
            entries,
        })
    }

    /// The entry for one query.
    pub fn get(&self, q: &QueryParams) -> Option<&Entry> {
        self.entries.get(&q.key())
    }

    /// Signed gap, in percent of the reference objective, of an answer's
    /// objective to the best-known one; worse is positive.
    pub fn gap_pct(&self, q: &QueryParams, objective: f64) -> Option<f64> {
        let best = self.get(q)?.objective?;
        if best == 0.0 {
            return None;
        }
        let worse_by = if q.goal.maximizes() {
            best - objective
        } else {
            objective - best
        };
        Some(100.0 * worse_by / best.abs())
    }
}

fn render(provenance: &Provenance, entries: &[(String, Entry)]) -> String {
    let mut out = String::new();
    out.push_str("# Best-known answers to every query of the perfbench template on a prefix\n");
    out.push_str("# of the recipes relation. Rebuild with `perfbench --build-reference`.\n");
    let _ = writeln!(out, "data_seed\t{}", provenance.data_seed);
    let _ = writeln!(out, "prefix_rows\t{}", provenance.prefix_rows);
    let _ = writeln!(out, "template\t{}", provenance.template);
    let _ = writeln!(out, "node_cap\t{NODE_CAP}");
    out.push_str("key\tfeasible\tobjective\tproved\twitness\n");
    for (key, e) in entries {
        let feasible = match e.feasible {
            Feasible::Yes => "yes",
            Feasible::No => "no",
            Feasible::Unknown => "unknown",
        };
        let objective = e.objective.map_or("-".to_string(), |v| format!("{v:?}"));
        let witness = if e.witness.is_empty() {
            "-".to_string()
        } else {
            e.witness
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(",")
        };
        let proved = if e.proved { "yes" } else { "no" };
        let _ = writeln!(out, "{key}\t{feasible}\t{objective}\t{proved}\t{witness}");
    }
    out
}

/// Solves every grid point on the prefix and renders the reference file.
/// Progress goes to standard error.
pub fn build(num_threads: usize) -> Result<String, String> {
    let mut table = minidb::Table::new("recipes", datagen::recipes::recipe_schema());
    table
        .insert_all(gen::rows().take(PREFIX_ROWS))
        .map_err(|e| e.to_string())?;
    let mut catalog = Catalog::new();
    catalog.register(table);
    let mut exact = EngineConfig::with_strategy(Strategy::Ilp).with_num_threads(num_threads);
    exact.solver.max_nodes = NODE_CAP;
    let exact = PackageEngine::with_config(catalog.clone(), exact);
    let auto = PackageEngine::with_config(
        catalog,
        EngineConfig::with_strategy(Strategy::Auto).with_num_threads(num_threads),
    );

    let mut entries = Vec::new();
    for (i, q) in grid().into_iter().enumerate() {
        let start = now();
        let text = q.paql();
        let ilp = exact.execute_paql(&text).map_err(|e| e.to_string())?;
        let auto_answer = auto.execute_paql(&text).map_err(|e| e.to_string())?;
        let mut entry = Entry {
            feasible: if !ilp.is_empty() {
                Feasible::Yes
            } else if ilp.optimal {
                Feasible::No
            } else {
                Feasible::Unknown
            },
            objective: ilp.best_objective(),
            proved: ilp.optimal && !ilp.is_empty(),
            witness: witness(ilp.best()),
        };
        if let Some(found) = auto_answer.best_objective() {
            let better = match entry.objective {
                None => true,
                Some(cur) if q.goal.maximizes() => found > cur,
                Some(cur) => found < cur,
            };
            if better {
                entry.feasible = Feasible::Yes;
                entry.objective = Some(found);
                entry.proved = false;
                entry.witness = witness(auto_answer.best());
            }
        }
        eprintln!(
            "[{}/{}] {} {:?} {:?} proved={} ({:.2}s)",
            i + 1,
            grid().len(),
            q.key(),
            entry.feasible,
            entry.objective,
            entry.proved,
            start.elapsed().as_secs_f64()
        );
        entries.push((q.key(), entry));
    }
    Ok(render(&Provenance::current(), &entries))
}

fn witness(package: Option<&packagebuilder::Package>) -> Vec<u32> {
    package
        .map(|p| p.members().map(|(t, _)| t.0).collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        let entries: Vec<(String, Entry)> = grid()
            .iter()
            .map(|q| {
                (
                    q.key(),
                    Entry {
                        feasible: Feasible::Yes,
                        objective: Some(100.0),
                        proved: true,
                        witness: vec![1, 2, 3],
                    },
                )
            })
            .collect();
        render(&Provenance::current(), &entries)
    }

    #[test]
    fn rendered_data_round_trips() {
        let r = Reference::load(&sample(), &Provenance::current()).unwrap();
        let q = grid()[0];
        assert_eq!(r.get(&q).unwrap().witness, vec![1, 2, 3]);
        assert_eq!(r.get(&q).unwrap().objective, Some(100.0));
    }

    #[test]
    fn data_for_another_relation_size_is_rejected() {
        let expect = Provenance {
            prefix_rows: PREFIX_ROWS * 2,
            ..Provenance::current()
        };
        let err = Reference::load(&sample(), &expect).unwrap_err();
        assert!(err.contains("prefix"), "{err}");
    }

    #[test]
    fn data_for_another_seed_is_rejected() {
        let expect = Provenance {
            data_seed: DATA_SEED + 1,
            ..Provenance::current()
        };
        let err = Reference::load(&sample(), &expect).unwrap_err();
        assert!(err.contains("seed"), "{err}");
    }

    #[test]
    fn data_for_another_template_or_missing_queries_is_rejected() {
        let expect = Provenance {
            template: "0".repeat(16),
            ..Provenance::current()
        };
        assert!(Reference::load(&sample(), &expect).is_err());
        let truncated: String = sample()
            .lines()
            .take(12)
            .map(|l| format!("{l}\n"))
            .collect();
        let err = Reference::load(&truncated, &Provenance::current()).unwrap_err();
        assert!(err.contains("lacks"), "{err}");
    }

    #[test]
    fn committed_data_matches_this_generator() {
        let r = Reference::committed().unwrap();
        assert_eq!(r.provenance, Provenance::current());
    }

    #[test]
    fn gap_is_signed_with_worse_positive() {
        let r = Reference::load(&sample(), &Provenance::current()).unwrap();
        let max = grid().into_iter().find(|q| q.goal.maximizes()).unwrap();
        let min = grid().into_iter().find(|q| !q.goal.maximizes()).unwrap();
        assert_eq!(r.gap_pct(&max, 90.0), Some(10.0));
        assert_eq!(r.gap_pct(&max, 110.0), Some(-10.0));
        assert_eq!(r.gap_pct(&min, 110.0), Some(10.0));
    }
}
