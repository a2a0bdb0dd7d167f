//! # lognlp — NLP substrate for system-log analysis
//!
//! A from-scratch, deterministic natural-language-processing stack tuned to
//! the text found in distributed-system logs, built as the substrate for the
//! IntelLog reproduction (Pi et al., *Semantic-aware Workflow Construction
//! and Analysis for Distributed Data Analytics Systems*, HPDC 2019):
//!
//! * [`token`] — log-aware tokenisation (identifiers, localities, paths and
//!   the `*` log-key placeholder stay intact);
//! * [`tags`] — the Penn Treebank POS tag set used by the paper;
//! * [`lexicon`] — closed-class + log-domain vocabulary;
//! * [`pos`] — POS tagging, including the tag-through-a-sample-message
//!   procedure for log keys (Fig. 3 of the paper);
//! * [`camel`] — the camel-case word filter (`MapTask` → `map task`);
//! * [`lemma`] — singularisation of entity phrases and verb-base reduction;
//! * [`depparse`] — a rule-based universal-dependency parser emitting the 7
//!   relations of the paper's Table 3;
//! * [`clause`] — the "contains at least one clause" natural-language test
//!   behind Table 1;
//! * [`mod@format`] — the five line syntaxes behind one `AdapterKind`
//!   (Hadoop, Spark, HDFS/BGL header, RFC-3164 syslog, JSON lines)
//!   normalising outside corpora into the zero-alloc span path.
//!
//! The paper uses OpenNLP and the Stanford parser; mature Rust equivalents
//! do not exist, so this crate implements the required slices directly (see
//! DESIGN.md §1 for the substitution argument).

#![forbid(unsafe_code)]

pub mod camel;
pub mod clause;
pub mod depparse;
pub mod format;
pub mod lemma;
pub mod lexicon;
pub mod pos;
pub mod raw;
pub mod tags;
pub mod token;

pub use camel::{is_camel_compound, split_camel};
pub use clause::is_natural_language;
pub use depparse::{parse, Arc, Parse, UdRel};
pub use format::{AdapterKind, FormatError, Level, RawRecord};
pub use lemma::{singularize, singularize_phrase, verb_base};
pub use lexicon::Lexicon;
pub use pos::{tag, tag_key_with_sample, TaggedToken};
pub use raw::{tokenize_spans, Span};
pub use tags::PosTag;
pub use token::{classify, detokenize, tokenize, Token, TokenShape};
