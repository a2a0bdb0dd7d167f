//! # extract — NLP-assisted information extraction (IntelLog §3)
//!
//! Transforms log keys into **Intel Keys** and concrete log messages into
//! **Intel Messages**:
//!
//! * [`entity`] — entity extraction via the Table 2 POS patterns and the
//!   camel-case filter;
//! * [`locality`] — host/IP/path locality patterns (user-extensible);
//! * [`fields`] — the four identifier/value heuristics, plus identifier
//!   *types* for Algorithm 2 signatures;
//! * [`operation`] — `{subj-entity, predicate, obj-entity}` triples from
//!   the Table 3 UD relations;
//! * [`intelkey`] — the [`IntelKey`]/[`IntelMessage`] types and the
//!   [`IntelExtractor`] that builds them (including ad-hoc extraction from
//!   unexpected messages during anomaly detection);
//! * [`record`] — the compact per-line record ([`SessionLog`]) detection
//!   and training retain instead of an owned Intel Message per line;
//! * [`query`] — GroupBy/filter operators over stored Intel Messages and
//!   JSON export (the paper's diagnosis workflow).

#![forbid(unsafe_code)]

pub mod entity;
pub mod fields;
pub mod intelkey;
pub mod locality;
pub mod operation;
pub mod query;
pub mod record;

pub use entity::{entity_at, extract_entities, Entity};
pub use fields::{classify_field, identifier_type, FieldCategory, VarField};
pub use intelkey::{IntelExtractor, IntelKey, IntelMessage};
pub use locality::{LocalityKind, LocalityMatcher};
pub use operation::{extract_operations, Operation};
pub use query::{host_of, IntelStore};
pub use record::{Row, SessionLog};
