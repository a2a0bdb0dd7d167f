//! Penn Treebank part-of-speech tag set.
//!
//! IntelLog uses the Penn Treebank tag set (Marcus et al., 1993) as its POS
//! marks (paper §3). Only the subset of behaviours the extraction rules rely
//! on is given dedicated helpers: the four noun tags, adjectives, verbs,
//! prepositions and cardinal numbers.

use serde::{Deserialize, Serialize};

/// A Penn Treebank part-of-speech tag.
///
/// The variants cover the full Penn Treebank word-level tag set plus two
/// pseudo-tags used for log keys: [`PosTag::Var`] for the `*` variable
/// placeholder and [`PosTag::Punct`] for punctuation tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(clippy::upper_case_acronyms)]
pub enum PosTag {
    /// Coordinating conjunction (`and`, `or`).
    CC,
    /// Cardinal number (`42`, `3.5`).
    CD,
    /// Determiner (`the`, `a`).
    DT,
    /// Existential *there*.
    EX,
    /// Foreign word.
    FW,
    /// Preposition or subordinating conjunction (`of`, `in`, `for`).
    IN,
    /// Adjective (`remote`, `temporary`).
    JJ,
    /// Comparative adjective (`larger`).
    JJR,
    /// Superlative adjective (`largest`).
    JJS,
    /// List item marker.
    LS,
    /// Modal (`can`, `will`).
    MD,
    /// Singular or mass noun (`task`).
    NN,
    /// Plural noun (`tasks`).
    NNS,
    /// Singular proper noun (`Spark`).
    NNP,
    /// Plural proper noun.
    NNPS,
    /// Predeterminer (`all`).
    PDT,
    /// Possessive ending (`'s`).
    POS,
    /// Personal pronoun (`it`).
    PRP,
    /// Possessive pronoun (`its`).
    PRPS,
    /// Adverb (`quickly`, `now`).
    RB,
    /// Comparative adverb.
    RBR,
    /// Superlative adverb.
    RBS,
    /// Particle (`up` in `clean up`).
    RP,
    /// Symbol (`#`, `=`).
    SYM,
    /// The word *to*.
    TO,
    /// Interjection.
    UH,
    /// Verb, base form (`shuffle`).
    VB,
    /// Verb, past tense (`freed`).
    VBD,
    /// Verb, gerund or present participle (`starting`).
    VBG,
    /// Verb, past participle (`registered`).
    VBN,
    /// Verb, non-3rd-person singular present (`read`).
    VBP,
    /// Verb, 3rd-person singular present (`reads`).
    VBZ,
    /// Wh-determiner (`which`).
    WDT,
    /// Wh-pronoun (`what`).
    WP,
    /// Possessive wh-pronoun (`whose`).
    WPS,
    /// Wh-adverb (`when`).
    WRB,
    /// Pseudo-tag: the `*` variable placeholder in a log key.
    Var,
    /// Pseudo-tag: punctuation.
    Punct,
}

impl PosTag {
    /// `true` for the four Penn Treebank noun tags.
    ///
    /// Table 2 of the paper collapses `NN`, `NNS`, `NNP` and `NNPS` into a
    /// single `NN` class when matching entity patterns.
    #[inline]
    pub fn is_noun(self) -> bool {
        matches!(self, PosTag::NN | PosTag::NNS | PosTag::NNP | PosTag::NNPS)
    }

    /// `true` for the three adjective tags (`JJ`, `JJR`, `JJS`).
    #[inline]
    pub fn is_adjective(self) -> bool {
        matches!(self, PosTag::JJ | PosTag::JJR | PosTag::JJS)
    }

    /// `true` for any verb tag (`VB`, `VBD`, `VBG`, `VBN`, `VBP`, `VBZ`).
    #[inline]
    pub fn is_verb(self) -> bool {
        matches!(
            self,
            PosTag::VB | PosTag::VBD | PosTag::VBG | PosTag::VBN | PosTag::VBP | PosTag::VBZ
        )
    }

    /// `true` for finite verb forms that can head a clause on their own.
    #[inline]
    pub fn is_finite_verb(self) -> bool {
        matches!(self, PosTag::VBD | PosTag::VBP | PosTag::VBZ)
    }

    /// The canonical Penn Treebank string for this tag (`"NN"`, `"VBZ"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            PosTag::CC => "CC",
            PosTag::CD => "CD",
            PosTag::DT => "DT",
            PosTag::EX => "EX",
            PosTag::FW => "FW",
            PosTag::IN => "IN",
            PosTag::JJ => "JJ",
            PosTag::JJR => "JJR",
            PosTag::JJS => "JJS",
            PosTag::LS => "LS",
            PosTag::MD => "MD",
            PosTag::NN => "NN",
            PosTag::NNS => "NNS",
            PosTag::NNP => "NNP",
            PosTag::NNPS => "NNPS",
            PosTag::PDT => "PDT",
            PosTag::POS => "POS",
            PosTag::PRP => "PRP",
            PosTag::PRPS => "PRP$",
            PosTag::RB => "RB",
            PosTag::RBR => "RBR",
            PosTag::RBS => "RBS",
            PosTag::RP => "RP",
            PosTag::SYM => "SYM",
            PosTag::TO => "TO",
            PosTag::UH => "UH",
            PosTag::VB => "VB",
            PosTag::VBD => "VBD",
            PosTag::VBG => "VBG",
            PosTag::VBN => "VBN",
            PosTag::VBP => "VBP",
            PosTag::VBZ => "VBZ",
            PosTag::WDT => "WDT",
            PosTag::WP => "WP",
            PosTag::WPS => "WP$",
            PosTag::WRB => "WRB",
            PosTag::Var => "VAR",
            PosTag::Punct => "PUNCT",
        }
    }
}

impl std::fmt::Display for PosTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noun_class_matches_table2_footnote() {
        // Table 2: 'NN' includes NN, NNS, NNP and NNPS.
        assert!(PosTag::NN.is_noun());
        assert!(PosTag::NNS.is_noun());
        assert!(PosTag::NNP.is_noun());
        assert!(PosTag::NNPS.is_noun());
        assert!(!PosTag::JJ.is_noun());
        assert!(!PosTag::VB.is_noun());
    }

    #[test]
    fn verb_classes() {
        for t in [
            PosTag::VB,
            PosTag::VBD,
            PosTag::VBG,
            PosTag::VBN,
            PosTag::VBP,
            PosTag::VBZ,
        ] {
            assert!(t.is_verb(), "{t} should be a verb");
        }
        assert!(PosTag::VBZ.is_finite_verb());
        assert!(PosTag::VBD.is_finite_verb());
        assert!(!PosTag::VBG.is_finite_verb());
        assert!(!PosTag::NN.is_verb());
    }

    #[test]
    fn adjective_class() {
        assert!(PosTag::JJ.is_adjective());
        assert!(PosTag::JJR.is_adjective());
        assert!(PosTag::JJS.is_adjective());
        assert!(!PosTag::RB.is_adjective());
    }

    #[test]
    fn display_matches_as_str() {
        assert_eq!(format!("{}", PosTag::PRPS), "PRP$");
        assert_eq!(format!("{}", PosTag::NN), "NN");
    }
}
