//! The repository's benchmark: PaQL evaluation under three workloads, with
//! a traced run that splits each operation into the engine's layers. See
//! `README.md` beside this crate.

pub mod gen;
pub mod json;
pub mod metrics;
pub mod reference;
pub mod run;
pub mod trace;
