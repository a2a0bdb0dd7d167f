//! Key-sequence and Intel-Message helpers: what the key-sequence tools of
//! [`crate::detector`] and Stitch's S³ graph (Figure 9) read.

use extract::{IntelExtractor, IntelMessage};
use spell::{KeyId, Session, SpellParser};

/// A sentinel for messages that match no trained key.
pub const UNKNOWN_KEY: KeyId = KeyId(u32::MAX);

/// Train a Spell parser over sessions and return it together with the
/// per-session key sequences.
pub fn train_keyseqs(sessions: &[Session]) -> (SpellParser, Vec<Vec<KeyId>>) {
    let mut parser = SpellParser::default();
    let (mut spans, mut ids) = (Vec::new(), Vec::new());
    let seqs = sessions
        .iter()
        .map(|s| {
            s.lines
                .iter()
                .map(|l| parser.parse_spans(&l.message, &mut spans, &mut ids).0)
                .collect()
        })
        .collect();
    (parser, seqs)
}

/// Map a session onto the trained key space without mutating it; unknown
/// messages become [`UNKNOWN_KEY`].
pub fn match_keyseq(parser: &SpellParser, session: &Session) -> Vec<KeyId> {
    session
        .lines
        .iter()
        .map(|l| parser.match_line(&l.message).unwrap_or(UNKNOWN_KEY))
        .collect()
}

/// Lift sessions into Intel Messages using a trained parser (messages that
/// match no key are skipped).
pub fn intel_messages(parser: &SpellParser, sessions: &[Session]) -> Vec<Vec<IntelMessage>> {
    let ex = IntelExtractor::new();
    let keys: Vec<_> = parser.keys().iter().map(|k| ex.build(k)).collect();
    let (mut spans, mut ids) = (Vec::new(), Vec::new());
    sessions
        .iter()
        .map(|s| {
            s.lines
                .iter()
                .filter_map(|l| {
                    parser.lookup_line_into(&l.message, &mut spans, &mut ids);
                    let key = &keys[parser.match_ids(&ids)?.0 as usize];
                    Some(IntelMessage::instantiate_spans(
                        key, &l.message, &spans, &s.id, l.ts_ms,
                    ))
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::training_sessions;
    use dlasim::SystemKind;

    #[test]
    fn keyseq_roundtrip() {
        let sessions = training_sessions(SystemKind::Tez, 2, 3);
        let (parser, seqs) = train_keyseqs(&sessions);
        assert_eq!(seqs.len(), sessions.len());
        // re-matching a training session gives known keys everywhere
        let rematch = match_keyseq(&parser, &sessions[0]);
        assert!(rematch.iter().all(|k| *k != UNKNOWN_KEY));
        assert_eq!(rematch, seqs[0]);
    }

    #[test]
    fn intel_messages_align_with_sessions() {
        let sessions = training_sessions(SystemKind::Spark, 2, 5);
        let (parser, _) = train_keyseqs(&sessions);
        let msgs = intel_messages(&parser, &sessions);
        assert_eq!(msgs.len(), sessions.len());
        // the span-reading form equals the one that tokenises into strings
        let ex = IntelExtractor::new();
        let keys: Vec<_> = parser.keys().iter().map(|k| ex.build(k)).collect();
        for (got, s) in msgs.iter().zip(&sessions) {
            let owned = s.lines.iter().map(|l| {
                let kid = parser.match_line(&l.message).expect("training line");
                let toks = spell::tokenize_message(&l.message);
                IntelMessage::instantiate(&keys[kid.0 as usize], &toks, &s.id, l.ts_ms)
            });
            assert_eq!(*got, owned.collect::<Vec<_>>());
        }
    }
}
