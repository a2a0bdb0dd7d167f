//! # hwgraph — the Hierarchical Workflow graph (IntelLog §4.1)
//!
//! Models the workflow of a distributed data analytics system from its Intel
//! Keys and Messages:
//!
//! * [`group`] — Algorithm 1: nomenclature-based entity grouping with the
//!   `LongestCommonPhrase` rules;
//! * [`subroutine`] — Algorithm 2 + `UpdateSubroutine` (Fig. 5): identifier
//!   routing into subroutine instances, signature-keyed BEFORE/parallel
//!   orders and critical Intel Keys;
//! * [`lifespan`] — per-session group lifespans and the PARENT / BEFORE /
//!   PARALLEL relations of Fig. 6;
//! * [`hierarchy`] — the Fig. 7 construction procedure;
//! * [`graph`] — the assembled [`HwGraph`], its Table 5 statistics, JSON
//!   serialisation and the Fig. 8-style text rendering.

#![forbid(unsafe_code)]

pub mod graph;
pub mod group;
pub mod hierarchy;
pub mod lifespan;
pub mod profile;
pub mod subroutine;

pub use graph::{rows_by_group, GraphBuilder, GraphStats, GroupModel, HwGraph, SessionPart};
pub use group::{
    group_entities, group_entities_with, longest_common_phrase, longest_common_phrase_with,
    EntityGroup, Grouping, GroupingOptions,
};
pub use hierarchy::{Hierarchy, HierarchyNode};
pub use lifespan::{GroupRel, GroupRelations, Lifespan};
pub use profile::{ProfileSet, SessionProfile};
pub use subroutine::{
    split_instances, split_instances_into, FirstSeen, Instance, InstanceSplit, Signature,
    Subroutine, SubroutineInstance, SubroutineSet,
};
