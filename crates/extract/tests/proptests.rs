//! Property-based tests for the extraction pipeline.

use extract::{FieldCategory, IntelExtractor, IntelMessage, SessionLog};
use proptest::prelude::*;
use spell::SpellParser;

fn word() -> impl Strategy<Value = String> {
    "[a-z]{2,8}"
}

fn message_text() -> impl Strategy<Value = String> {
    (
        word(),
        prop_oneof![
            "[a-z]{3,6}_[0-9]{1,3}",
            "[0-9]{1,5}",
            "[a-z]{3,6}[0-9]{1,2}:[0-9]{4,5}"
        ],
        word(),
        0u32..10_000,
    )
        .prop_map(|(a, id, b, n)| format!("{a} {id} registered {b} with {n} bytes"))
}

proptest! {
    /// Building an Intel Key never panics and its spans are in bounds.
    #[test]
    fn intel_key_wellformed(m in message_text()) {
        let mut p = SpellParser::default();
        let out = p.parse_message(&m);
        let ik = IntelExtractor::new().build(p.key(out.key_id));
        for e in &ik.entities {
            prop_assert!(e.start < e.end);
            prop_assert!(e.end <= ik.tokens.len());
            prop_assert!(!e.phrase.is_empty());
        }
        for f in &ik.fields {
            prop_assert!(f.pos < ik.tokens.len());
            match f.category {
                FieldCategory::Identifier => prop_assert!(f.id_type.is_some()),
                FieldCategory::Locality => prop_assert!(f.locality.is_some()),
                _ => {}
            }
        }
        prop_assert_eq!(ik.tags.len(), ik.tokens.len());
    }

    /// Instantiating a message from its own key reproduces the field values
    /// verbatim.
    #[test]
    fn instantiation_reads_back_values(m in message_text(), m2 in message_text()) {
        let mut p = SpellParser::default();
        let o1 = p.parse_message(&m);
        let _ = p.parse_message(&m2);
        let ik = IntelExtractor::new().build(p.key(o1.key_id));
        let im = IntelMessage::instantiate(&ik, &o1.tokens, "s", 0);
        for (_, v) in &im.identifiers {
            prop_assert!(o1.tokens.contains(v));
        }
        for l in &im.localities {
            prop_assert!(o1.tokens.contains(l));
        }
        for (_, v) in &im.values {
            prop_assert!(o1.tokens.contains(v));
        }
    }

    /// The row logged from a line's token spans holds the key id, timestamp
    /// and identifier pairs of the message instantiated from its token
    /// strings — also when the line is shorter or longer than the key.
    #[test]
    fn logged_row_equals_instantiated_message(
        m in message_text(),
        m2 in message_text(),
        probe in prop_oneof![message_text(), "[a-z0-9_:= ]{0,40}"],
        ts in 0u64..1_000_000,
    ) {
        let mut p = SpellParser::default();
        let o1 = p.parse_message(&m);
        let _ = p.parse_message(&m2);
        let ik = IntelExtractor::new().build(p.key(o1.key_id));
        let mut spans = Vec::new();
        lognlp::tokenize_spans(&probe, &mut spans);
        let mut log = SessionLog::default();
        log.push_line(&ik, ts, &probe, &spans);
        let im = IntelMessage::instantiate(&ik, &spell::tokenize_message(&probe), "s", ts);
        let row = &log.rows()[0];
        prop_assert_eq!((row.key_id, row.ts_ms), (im.key_id, im.ts_ms));
        let pairs: Vec<(String, String)> = log
            .identifier_strs(row)
            .map(|(t, v)| (t.to_string(), v.to_string()))
            .collect();
        prop_assert_eq!(pairs, im.identifiers);
    }

    /// Ad-hoc extraction is total and classifies every numeric/alnum token.
    #[test]
    fn adhoc_total(m in message_text()) {
        let ik = IntelExtractor::new().extract_adhoc(&m);
        prop_assert_eq!(ik.tokens.len(), ik.tags.len());
        // At least the embedded number should be classified as a field.
        prop_assert!(!ik.fields.is_empty());
    }

    /// A value with an explicit unit is always categorised Value, never
    /// Identifier, regardless of surroundings.
    #[test]
    fn unit_fields_are_values(n in 0u32..1_000_000, w in word()) {
        let m = format!("{w} task wrote {n} bytes to disk");
        let mut p = SpellParser::default();
        let o1 = p.parse_message(&m);
        let m2 = format!("{w} task wrote {} bytes to disk", n.wrapping_add(1));
        let _ = p.parse_message(&m2);
        let ik = IntelExtractor::new().build(p.key(o1.key_id));
        for f in &ik.fields {
            if ik.tokens.get(f.pos + 1).map(String::as_str) == Some("bytes") {
                prop_assert_eq!(f.category, FieldCategory::Value);
            }
        }
    }
}
