//! Entity extraction from POS-tagged log keys (paper §3.1, Table 2).
//!
//! Terminological entities are matched by the eight POS patterns of Table 2
//! (following Justeson & Katz: >97% of terminological entities consist of
//! nouns and adjectives only), with two log-specific twists:
//!
//! * a **camel-case filter** expands class-like tokens (`MapTask` →
//!   `map task`) so code-derived entities correlate with prose entities;
//! * **unit words** (`bytes`, `ms`, …) never participate in entities —
//!   Fig. 4 explicitly omits `bytes`.
//!
//! Extracted phrases are lemmatised to singular form.

use lognlp::lexicon::Lexicon;
use lognlp::pos::TaggedToken;
use lognlp::tags::PosTag;
use lognlp::token::TokenShape;
use lognlp::{singularize, split_camel};
use serde::{Deserialize, Serialize};

/// An entity phrase found in a log key, with its token span `[start, end)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Entity {
    /// Normalised phrase: lowercase, camel-split, singularised.
    pub phrase: String,
    /// First token index of the span.
    pub start: usize,
    /// One past the last token index of the span.
    pub end: usize,
}

impl Entity {
    /// `true` if the span covers token index `i`.
    pub fn covers(&self, i: usize) -> bool {
        self.start <= i && i < self.end
    }
}

/// Word-class roles in the Table 2 patterns.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Cls {
    /// Noun (NN/NNS/NNP/NNPS).
    N,
    /// Adjective (JJ/JJR/JJS).
    J,
    /// The preposition `of` (for `NN IN NN`, e.g. "output of map").
    Of,
}

/// Table 2 patterns, longest first so maximal munch picks e.g.
/// `map completion events` over `map completion`.
const PATTERNS: &[&[Cls]] = &[
    &[Cls::N, Cls::Of, Cls::N], // noun preposition noun ("output of map")
    &[Cls::J, Cls::J, Cls::N],  // adjective adjective noun
    &[Cls::J, Cls::N, Cls::N],  // adjective noun noun
    &[Cls::N, Cls::J, Cls::N],  // noun adjective noun ("cleanup temporary folders")
    &[Cls::N, Cls::N, Cls::N],  // noun noun noun ("map completion events")
    &[Cls::J, Cls::N],          // adjective noun ("remote process")
    &[Cls::N, Cls::N],          // noun noun ("event fetcher")
    &[Cls::N],                  // noun ("task")
];

/// Can this token fill a noun slot in an entity pattern?
///
/// Requires a noun tag *and* an alphabetic surface (identifier-shaped tokens
/// like `attempt_01` and `*` placeholders are variable fields, not entity
/// words), and must not be a measurement unit.
fn is_entity_noun(t: &TaggedToken, lex: &Lexicon) -> bool {
    t.tag.is_noun()
        && matches!(
            t.token.shape,
            TokenShape::Lower | TokenShape::Capitalized | TokenShape::Upper | TokenShape::Camel
        )
        && !lex.is_unit(&t.lower())
}

fn is_entity_adj(t: &TaggedToken) -> bool {
    t.tag.is_adjective()
        && matches!(
            t.token.shape,
            TokenShape::Lower | TokenShape::Capitalized | TokenShape::Upper | TokenShape::Camel
        )
}

fn matches_class(t: &TaggedToken, c: Cls, lex: &Lexicon) -> bool {
    match c {
        Cls::N => is_entity_noun(t, lex),
        Cls::J => is_entity_adj(t),
        Cls::Of => t.tag == PosTag::IN && t.lower() == "of",
    }
}

/// Normalise one token into its phrase words (camel-split + singularised).
fn token_words(t: &TaggedToken) -> Vec<String> {
    split_camel(&t.token.text)
        .into_iter()
        .filter(|w| !w.is_empty() && !w.chars().all(|c| c.is_ascii_digit()))
        .map(|w| singularize(&w))
        .collect()
}

/// Extract all entities from a tagged log key by greedy maximal-munch
/// matching of the Table 2 patterns, left to right, without overlaps.
pub fn extract_entities(tagged: &[TaggedToken]) -> Vec<Entity> {
    let lex = Lexicon::global();
    let mut out = Vec::new();
    let n = tagged.len();
    let mut i = 0;
    while i < n {
        let mut matched = 0usize;
        for pat in PATTERNS {
            if i + pat.len() <= n
                && pat
                    .iter()
                    .enumerate()
                    .all(|(k, &c)| matches_class(&tagged[i + k], c, lex))
            {
                matched = pat.len();
                break;
            }
        }
        if matched == 0 {
            i += 1;
            continue;
        }
        let words: Vec<String> = tagged[i..i + matched]
            .iter()
            .flat_map(|t| {
                if t.tag == PosTag::IN {
                    vec![t.lower()]
                } else {
                    token_words(t)
                }
            })
            .collect();
        if !words.is_empty() {
            out.push(Entity {
                phrase: words.join(" "),
                start: i,
                end: i + matched,
            });
        }
        i += matched;
    }
    out
}

/// Find the entity covering token index `i`, if any.
pub fn entity_at(entities: &[Entity], i: usize) -> Option<&Entity> {
    entities.iter().find(|e| e.covers(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lognlp::{tag, tokenize};

    fn entities(text: &str) -> Vec<String> {
        extract_entities(&tag(&tokenize(text)))
            .into_iter()
            .map(|e| e.phrase)
            .collect()
    }

    #[test]
    fn table2_examples() {
        assert_eq!(entities("task"), ["task"]);
        assert_eq!(entities("remote process"), ["remote process"]);
        assert_eq!(entities("event fetcher"), ["event fetcher"]);
        assert_eq!(
            entities("cleanup temporary folders"),
            ["cleanup temporary folder"]
        );
        assert_eq!(entities("map completion events"), ["map completion event"]);
        assert_eq!(entities("output of map"), ["output of map"]);
    }

    #[test]
    fn camel_case_expansion() {
        // §3.1: 'MapTask' → 'map task'
        assert_eq!(
            entities("Starting MapTask metrics system"),
            ["map task metrics system"]
        );
        assert_eq!(entities("Registered BlockManager"), ["block manager"]);
    }

    #[test]
    fn units_are_omitted() {
        // Fig. 4 omits 'bytes' since it is a unit.
        let e = entities("read 2264 bytes from map-output for attempt_01");
        assert!(!e.iter().any(|p| p.contains("byte")), "{e:?}");
        assert!(e.contains(&"map output".to_string()), "{e:?}");
    }

    #[test]
    fn identifiers_and_stars_are_not_entities() {
        let e = entities("fetcher # * about to shuffle output of map *");
        assert!(e.contains(&"fetcher".to_string()));
        assert!(e.contains(&"output of map".to_string()));
        assert!(!e.iter().any(|p| p.contains('*')));
        let e = entities("container attempt_01 launched");
        assert_eq!(e, ["container"]);
    }

    #[test]
    fn greedy_longest_match_no_overlap() {
        let e = entities("block manager endpoint registered");
        assert_eq!(e, ["block manager endpoint"]);
    }

    #[test]
    fn plural_lemmatised() {
        assert_eq!(entities("freed temporary folders"), ["temporary folder"]);
    }

    #[test]
    fn spans_cover_tokens() {
        let tagged = tag(&tokenize("Registered BlockManager on host1"));
        let es = extract_entities(&tagged);
        assert_eq!(es.len(), 1);
        assert!(es[0].covers(1));
        assert!(!es[0].covers(0));
        assert_eq!(entity_at(&es, 1).unwrap().phrase, "block manager");
        assert!(entity_at(&es, 3).is_none());
    }

    #[test]
    fn abbreviations_become_entities_fp_class() {
        // The paper's FP class: abbreviations like 'tid' are extracted as
        // entities even though they are meaningless without context.
        assert_eq!(entities("tid registered"), ["tid"]);
    }
}
