//! Intel Keys and Intel Messages (paper §3, Fig. 4).
//!
//! An *Intel Key* is the enhanced representation of a log key: the key text
//! plus everything the NLP stages extracted from it — entities, classified
//! variable fields (identifiers with types, values with units, localities)
//! and operations. A concrete log message matching the key is transformed
//! into an *Intel Message*: the key's structure with the variable fields
//! filled in, naturally representable as key-value pairs (and thus storable
//! in JSON or a time-series database).
//!
//! The owned [`IntelMessage`] is the form for whoever wants those strings: a
//! reported unexpected message, the [`crate::IntelStore`] queries, the
//! baselines. Detection and training keep [`crate::SessionLog`] rows instead
//! (key id, timestamp, identifier numbers — all Algorithm 2 and the lifespan
//! checks read), and [`IntelMessage::instantiate`] is the oracle a row is
//! tested against.

use crate::entity::{extract_entities, Entity};
use crate::fields::{classify_field, FieldCategory, VarField};
use crate::locality::LocalityMatcher;
use crate::operation::{extract_operations, Operation};
use lognlp::pos::{tag_key_with_sample, TaggedToken};
use lognlp::tags::PosTag;
use lognlp::token::Token;
use lognlp::Span;
use serde::{Deserialize, Serialize};
use spell::{KeyId, LogKey};

/// The enhanced, semantic representation of one log key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntelKey {
    /// The underlying log key id.
    pub key_id: KeyId,
    /// Key tokens (with `*` at variable positions).
    pub tokens: Vec<String>,
    /// POS tags assigned through the sample message (Fig. 3 procedure).
    pub tags: Vec<PosTag>,
    /// Entities extracted by the Table 2 patterns + camel filter.
    pub entities: Vec<Entity>,
    /// Classified variable fields.
    pub fields: Vec<VarField>,
    /// Operations extracted by structure parsing.
    pub operations: Vec<Operation>,
}

impl IntelKey {
    /// Entity phrases (deduplicated, in order of appearance).
    pub fn entity_phrases(&self) -> Vec<&str> {
        let mut seen = std::collections::HashSet::new();
        self.entities
            .iter()
            .map(|e| e.phrase.as_str())
            .filter(|p| seen.insert(*p))
            .collect()
    }

    /// The identifier *types* this key carries (Algorithm 2 signatures).
    pub fn identifier_types(&self) -> Vec<&str> {
        self.fields
            .iter()
            .filter(|f| f.category == FieldCategory::Identifier)
            .filter_map(|f| f.id_type.as_deref())
            .collect()
    }

    /// Render the key as its log-key string.
    pub fn render(&self) -> String {
        self.tokens.join(" ")
    }

    /// A short human label: the first operation if present, else the key
    /// text. Used when drawing HW-graph subroutines (Fig. 8 labels
    /// subroutine boxes with operations).
    pub fn label(&self) -> String {
        self.operations
            .first()
            .map(|o| o.to_string())
            .unwrap_or_else(|| self.render())
    }

    /// This *ad hoc* key ([`IntelExtractor::extract_adhoc`]) made good for
    /// every message that differs from its own only in which ASCII digit
    /// stands where, or `None` if it cannot be. Extraction looks at whether a
    /// character is a digit, never at which, so such messages agree on tags,
    /// entities and fields — but an ad hoc key has no `*`, so an operation
    /// quotes the line's own token (`worker5:41105`) as its argument. That
    /// argument becomes `*`, which [`IntelMessage::instantiate`] refills from
    /// the line, if the token is spelled as quoted (operations quote in lower
    /// case); any other extracted string carrying a digit refuses the key.
    pub fn across_digits(mut self) -> Option<IntelKey> {
        let digit = |s: &str| s.bytes().any(|b| b.is_ascii_digit());
        let named = |s: &Option<String>| s.as_deref().is_some_and(digit);
        for op in &mut self.operations {
            for (arg, pos) in [(&mut op.subj, op.subj_pos), (&mut op.obj, op.obj_pos)] {
                if named(arg) {
                    let token = pos.and_then(|p| self.tokens.get(p));
                    if token != arg.as_ref() {
                        return None;
                    }
                    *arg = Some("*".to_string());
                }
            }
        }
        let names = |f: &VarField| named(&f.id_type) || named(&f.name);
        let placed = !self.fields.iter().any(names)
            && !self.entities.iter().any(|e| digit(&e.phrase))
            && !self.operations.iter().any(|op| digit(&op.predicate));
        placed.then_some(self)
    }
}

/// Builds Intel Keys from log keys; owns the configurable locality matcher.
#[derive(Debug, Clone, Default)]
pub struct IntelExtractor {
    matcher: LocalityMatcher,
}

impl IntelExtractor {
    /// Extractor with the built-in locality patterns.
    pub fn new() -> IntelExtractor {
        IntelExtractor::default()
    }

    /// Extractor with a user-extended locality matcher.
    pub fn with_matcher(matcher: LocalityMatcher) -> IntelExtractor {
        IntelExtractor { matcher }
    }

    /// The locality matcher in use.
    pub fn matcher(&self) -> &LocalityMatcher {
        &self.matcher
    }

    /// Transform a log key into an Intel Key (paper Fig. 4, left to right).
    pub fn build(&self, key: &LogKey) -> IntelKey {
        let key_tokens: Vec<Token> = key.tokens.iter().map(Token::new).collect();
        let sample_tokens: Vec<Token> = key.sample.iter().map(Token::new).collect();
        let tagged: Vec<TaggedToken> = tag_key_with_sample(&key_tokens, &sample_tokens);
        let entities = extract_entities(&tagged);
        let aligned = key.tokens.len() == key.sample.len();
        let mut fields: Vec<VarField> = key_tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_star())
            .map(|(i, _)| {
                let sample_text = if aligned { key.sample[i].as_str() } else { "*" };
                classify_field(i, sample_text, &tagged, &self.matcher)
            })
            .collect();
        // Locality (and identifier) information can sit in *constant* key
        // positions too — e.g. a host that never varied across the observed
        // messages. The locality patterns run over the whole key (§3.1).
        for (i, t) in key_tokens.iter().enumerate() {
            if !t.is_star() && self.matcher.is_locality(&t.text) {
                fields.push(classify_field(i, &t.text, &tagged, &self.matcher));
            }
        }
        fields.sort_by_key(|f| f.pos);
        let operations = extract_operations(&tagged, &entities);
        obs::inc!("extract.keys_built");
        obs::add!("extract.entities", entities.len() as u64);
        obs::add!("extract.operations", operations.len() as u64);
        for f in &fields {
            match f.category {
                crate::fields::FieldCategory::Identifier => obs::inc!("extract.identifiers"),
                crate::fields::FieldCategory::Value => obs::inc!("extract.values"),
                crate::fields::FieldCategory::Locality => obs::inc!("extract.localities"),
                crate::fields::FieldCategory::Skipped => obs::inc!("extract.skipped_fields"),
            }
        }
        IntelKey {
            key_id: key.id,
            tokens: key.tokens.clone(),
            tags: tagged.iter().map(|t| t.tag).collect(),
            entities,
            fields,
            operations,
        }
    }

    /// Ad-hoc extraction from a raw message with *no* known key — used on
    /// unexpected log messages during anomaly detection (§4.2): every
    /// non-word position is classified by the same heuristics.
    pub fn extract_adhoc(&self, message: &str) -> IntelKey {
        obs::inc!("extract.adhoc_messages");
        let tokens = spell::tokenize_message(message);
        let key = LogKey {
            id: KeyId(u32::MAX),
            tokens: tokens.clone(),
            sample: tokens,
            count: 1,
        };
        let mut ik = self.build(&key);
        // For an ad-hoc message nothing is marked `*`, so classify every
        // identifier-, number-, or locality-shaped token position instead.
        let key_tokens: Vec<Token> = ik.tokens.iter().map(Token::new).collect();
        let tagged: Vec<TaggedToken> = key_tokens
            .iter()
            .zip(&ik.tags)
            .map(|(t, &tag)| TaggedToken {
                token: t.clone(),
                tag,
            })
            .collect();
        ik.fields = key_tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                matches!(
                    t.shape,
                    lognlp::TokenShape::Number
                        | lognlp::TokenShape::AlphaNum
                        | lognlp::TokenShape::HostPort
                        | lognlp::TokenShape::Ip
                        | lognlp::TokenShape::Path
                ) || self.matcher.is_locality(&t.text)
            })
            .map(|(i, t)| classify_field(i, &t.text, &tagged, &self.matcher))
            .collect();
        ik
    }
}

/// One concrete log message lifted into its semantic key-value form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntelMessage {
    /// The matched Intel Key (`KeyId(u32::MAX)` for ad-hoc extraction).
    pub key_id: KeyId,
    /// The session the message belongs to.
    pub session: String,
    /// Timestamp (ms).
    pub ts_ms: u64,
    /// Identifier fields: `(type, value)` pairs, e.g. `("ATTEMPT", "attempt_01")`.
    pub identifiers: Vec<(String, String)>,
    /// Value fields: `(name, value)` pairs, e.g. `("bytes", "2264")`.
    pub values: Vec<(String, String)>,
    /// Locality fields, e.g. `"host1:13562"`.
    pub localities: Vec<String>,
    /// Entity phrases of the key.
    pub entities: Vec<String>,
    /// Operations of the key.
    pub operations: Vec<Operation>,
    /// The raw message text.
    pub text: String,
}

impl IntelMessage {
    /// Instantiate an Intel Key with a concrete message's tokens.
    ///
    /// `msg_tokens` must be an instance of the key (same length, equal at
    /// constant positions); variable positions supply the field values.
    pub fn instantiate(
        key: &IntelKey,
        msg_tokens: &[String],
        session: impl Into<String>,
        ts_ms: u64,
    ) -> IntelMessage {
        let token = |pos: usize| msg_tokens.get(pos).map(String::as_str);
        IntelMessage::fill(key, token, msg_tokens.join(" "), session.into(), ts_ms)
    }

    /// [`IntelMessage::instantiate`] reading the tokens where they lie, at
    /// `message`'s token `spans` (as [`crate::SessionLog::push_line`] does):
    /// nothing is allocated but what the message keeps.
    pub fn instantiate_spans(
        key: &IntelKey,
        message: &str,
        spans: &[Span],
        session: impl Into<String>,
        ts_ms: u64,
    ) -> IntelMessage {
        let mut text = String::with_capacity(message.len());
        for (i, span) in spans.iter().enumerate() {
            if i > 0 {
                text.push(' ');
            }
            text.push_str(span.of(message));
        }
        let token = |pos: usize| spans.get(pos).map(|s| s.of(message));
        IntelMessage::fill(key, token, text, session.into(), ts_ms)
    }

    /// The message of `key` whose token at a position is `token(pos)`.
    fn fill<'t>(
        key: &IntelKey,
        token: impl Fn(usize) -> Option<&'t str>,
        text: String,
        session: String,
        ts_ms: u64,
    ) -> IntelMessage {
        // `key.entity_phrases()`, owned, without its scratch set
        let mut entities: Vec<String> = Vec::with_capacity(key.entities.len());
        for e in &key.entities {
            if !entities.contains(&e.phrase) {
                entities.push(e.phrase.clone());
            }
        }
        // A `*` argument is the concrete token at the recorded head position.
        let filled = |arg: &Option<String>, pos: Option<usize>| {
            let refill = pos.filter(|_| arg.as_deref() == Some("*")).and_then(&token);
            refill.map(str::to_string).or_else(|| arg.clone())
        };
        let placed = |op: &Operation| Operation {
            subj: filled(&op.subj, op.subj_pos),
            predicate: op.predicate.clone(),
            obj: filled(&op.obj, op.obj_pos),
            subj_pos: op.subj_pos,
            obj_pos: op.obj_pos,
        };
        let mut m = IntelMessage {
            key_id: key.key_id,
            session,
            ts_ms,
            identifiers: Vec::new(),
            values: Vec::new(),
            localities: Vec::new(),
            entities,
            operations: key.operations.iter().map(placed).collect(),
            text,
        };
        for f in &key.fields {
            let Some(value) = token(f.pos) else {
                continue;
            };
            match f.category {
                FieldCategory::Identifier => {
                    m.identifiers.push((
                        f.id_type.clone().unwrap_or_else(|| "ID".into()),
                        value.to_string(),
                    ));
                }
                FieldCategory::Value => {
                    m.values.push((
                        f.name.clone().unwrap_or_else(|| "value".into()),
                        value.to_string(),
                    ));
                }
                FieldCategory::Locality => m.localities.push(value.to_string()),
                FieldCategory::Skipped => {}
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spell::SpellParser;

    fn key_from(msgs: &[&str]) -> (SpellParser, KeyId) {
        let mut p = SpellParser::default();
        let mut id = None;
        for m in msgs {
            id = Some(p.parse_message(m).key_id);
        }
        (p, id.unwrap())
    }

    #[test]
    fn figure4_like_pipeline() {
        let (p, id) = key_from(&[
            "Finished task 0.0 in stage 1.0. 2264 bytes result sent to driver",
            "Finished task 3.0 in stage 1.0. 912 bytes result sent to driver",
        ]);
        let ik = IntelExtractor::new().build(p.key(id));
        // entities include task, stage, result, driver — 'bytes' omitted
        let phrases = ik.entity_phrases();
        assert!(phrases.contains(&"task"), "{phrases:?}");
        assert!(phrases.contains(&"driver"), "{phrases:?}");
        assert!(!phrases.iter().any(|p| p.contains("byte")), "{phrases:?}");
        // two operations from the two clauses
        assert_eq!(ik.operations.len(), 2, "{:?}", ik.operations);
        // value: bytes
        assert!(ik
            .fields
            .iter()
            .any(|f| f.category == FieldCategory::Value && f.name.as_deref() == Some("bytes")));
    }

    #[test]
    fn intel_message_instantiation() {
        let (p, id) = key_from(&[
            "host1:13562 freed by fetcher # 1 in 4ms",
            "host2:13562 freed by fetcher # 9 in 12ms",
        ]);
        let ik = IntelExtractor::new().build(p.key(id));
        let msg = spell::tokenize_message("host3:13562 freed by fetcher # 5 in 7ms");
        let im = IntelMessage::instantiate(&ik, &msg, "container_01", 42);
        assert_eq!(im.session, "container_01");
        assert_eq!(im.localities, ["host3:13562"]);
        assert_eq!(im.identifiers, [("FETCHER".to_string(), "5".to_string())]);
        assert_eq!(im.values, [("ms".to_string(), "7ms".to_string())]);
    }

    #[test]
    fn adhoc_extraction_on_unexpected_message() {
        let ex = IntelExtractor::new();
        let ik = ex.extract_adhoc("spill 3 written to /tmp/spill3.out on host4");
        // 'spill' entity discovered, path locality, spill number identifier
        assert!(
            ik.entity_phrases().contains(&"spill"),
            "{:?}",
            ik.entity_phrases()
        );
        assert!(ik
            .fields
            .iter()
            .any(|f| f.category == FieldCategory::Locality));
        assert!(ik
            .fields
            .iter()
            .any(|f| f.category == FieldCategory::Identifier));
    }

    #[test]
    fn serde_roundtrip() {
        let (p, id) = key_from(&["Starting MapTask metrics system"]);
        let ik = IntelExtractor::new().build(p.key(id));
        let json = serde_json::to_string(&ik).unwrap();
        let back: IntelKey = serde_json::from_str(&json).unwrap();
        assert_eq!(ik, back);
    }
}
