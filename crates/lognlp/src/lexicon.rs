//! Built-in lexicon for the log-domain POS tagger.
//!
//! The lexicon has three layers:
//!
//! 1. **Closed-class words** — determiners, prepositions, pronouns, modals,
//!    conjunctions. These are (near) exhaustive for English.
//! 2. **Log-domain vocabulary** — the verbs, nouns and adjectives that
//!    dominate log statements of distributed data analytics systems
//!    (start/register/fetch/shuffle/spill/…, task/container/block/…).
//!    Derived from the log statements of Hadoop MapReduce, Spark, Tez and
//!    YARN that the paper targets.
//! 3. **Measurement units** — word tokens that mark the preceding number as
//!    a *value* rather than an identifier (paper §3.1, heuristic 2) and that
//!    are excluded from entity phrases (Fig. 4 omits 'bytes').
//!
//! Anything not in the lexicon falls through to the orthographic and suffix
//! rules in [`crate::pos`].

use crate::tags::PosTag;
use std::collections::{HashMap, HashSet};
use sync::OnceLock;

/// Closed-class entries: word → tag.
const CLOSED: &[(&str, PosTag)] = &[
    // Determiners
    ("the", PosTag::DT),
    ("a", PosTag::DT),
    ("an", PosTag::DT),
    ("this", PosTag::DT),
    ("that", PosTag::DT),
    ("these", PosTag::DT),
    ("those", PosTag::DT),
    ("no", PosTag::DT),
    ("each", PosTag::DT),
    ("every", PosTag::DT),
    ("any", PosTag::DT),
    ("some", PosTag::DT),
    ("all", PosTag::PDT),
    // Prepositions / subordinating conjunctions
    ("of", PosTag::IN),
    ("in", PosTag::IN),
    ("on", PosTag::IN),
    ("at", PosTag::IN),
    ("by", PosTag::IN),
    ("for", PosTag::IN),
    ("from", PosTag::IN),
    ("with", PosTag::IN),
    ("without", PosTag::IN),
    ("into", PosTag::IN),
    ("onto", PosTag::IN),
    ("over", PosTag::IN),
    ("under", PosTag::IN),
    ("after", PosTag::IN),
    ("before", PosTag::IN),
    ("during", PosTag::IN),
    ("until", PosTag::IN),
    ("via", PosTag::IN),
    ("per", PosTag::IN),
    ("as", PosTag::IN),
    ("than", PosTag::IN),
    ("because", PosTag::IN),
    ("since", PosTag::IN),
    ("if", PosTag::IN),
    ("while", PosTag::IN),
    ("against", PosTag::IN),
    ("between", PosTag::IN),
    ("through", PosTag::IN),
    ("within", PosTag::IN),
    // TO
    ("to", PosTag::TO),
    // Conjunctions
    ("and", PosTag::CC),
    ("or", PosTag::CC),
    ("but", PosTag::CC),
    ("nor", PosTag::CC),
    // Pronouns
    ("it", PosTag::PRP),
    ("its", PosTag::PRPS),
    ("they", PosTag::PRP),
    ("their", PosTag::PRPS),
    ("we", PosTag::PRP),
    ("you", PosTag::PRP),
    ("itself", PosTag::PRP),
    // Modals and auxiliaries
    ("can", PosTag::MD),
    ("cannot", PosTag::MD),
    ("could", PosTag::MD),
    ("will", PosTag::MD),
    ("would", PosTag::MD),
    ("should", PosTag::MD),
    ("may", PosTag::MD),
    ("might", PosTag::MD),
    ("must", PosTag::MD),
    ("shall", PosTag::MD),
    // Forms of be/have/do
    ("is", PosTag::VBZ),
    ("are", PosTag::VBP),
    ("was", PosTag::VBD),
    ("were", PosTag::VBD),
    ("be", PosTag::VB),
    ("been", PosTag::VBN),
    ("being", PosTag::VBG),
    ("has", PosTag::VBZ),
    ("have", PosTag::VBP),
    ("had", PosTag::VBD),
    ("does", PosTag::VBZ),
    ("do", PosTag::VBP),
    ("did", PosTag::VBD),
    ("done", PosTag::VBN),
    // Wh-words
    ("which", PosTag::WDT),
    ("what", PosTag::WP),
    ("when", PosTag::WRB),
    ("where", PosTag::WRB),
    ("why", PosTag::WRB),
    ("how", PosTag::WRB),
    ("who", PosTag::WP),
    // Adverbs common in logs
    ("not", PosTag::RB),
    ("now", PosTag::RB),
    ("already", PosTag::RB),
    ("successfully", PosTag::RB),
    ("again", PosTag::RB),
    ("down", PosTag::RB),
    ("up", PosTag::RP),
    ("out", PosTag::RP),
    ("about", PosTag::IN),
    ("so", PosTag::RB),
    ("too", PosTag::RB),
    ("yet", PosTag::RB),
    ("still", PosTag::RB),
    ("also", PosTag::RB),
    ("only", PosTag::RB),
    ("just", PosTag::RB),
    ("there", PosTag::EX),
    // Numbers as words
    ("one", PosTag::CD),
    ("two", PosTag::CD),
    ("three", PosTag::CD),
    ("zero", PosTag::CD),
];

/// Log-domain verb bases. Used for:
/// - `VB`/`VBP` tagging of the base form,
/// - recognising `-s` forms as `VBZ` rather than plural nouns,
/// - recognising `-ed`/`-ing` forms built from these bases.
const VERB_BASES: &[&str] = &[
    "start",
    "stop",
    "starting",
    "restart",
    "run",
    "launch",
    "initialize",
    "initialise",
    "init",
    "register",
    "unregister",
    "deregister",
    "allocate",
    "deallocate",
    "release",
    "free",
    "read",
    "write",
    "send",
    "receive",
    "fetch",
    "shuffle",
    "merge",
    "sort",
    "spill",
    "flush",
    "commit",
    "abort",
    "finish",
    "complete",
    "fail",
    "succeed",
    "retry",
    "exit",
    "kill",
    "create",
    "delete",
    "remove",
    "add",
    "update",
    "store",
    "load",
    "save",
    "open",
    "close",
    "connect",
    "disconnect",
    "bind",
    "listen",
    "accept",
    "reject",
    "refuse",
    "transition",
    "submit",
    "schedule",
    "assign",
    "preempt",
    "report",
    "notify",
    "request",
    "respond",
    "process",
    "execute",
    "compute",
    "map",
    "reduce",
    "broadcast",
    "cache",
    "evict",
    "clean",
    "cleanup",
    "shutdown",
    "wait",
    "block",
    "try",
    "use",
    "set",
    "get",
    "put",
    "take",
    "find",
    "found",
    "serve",
    "download",
    "upload",
    "copy",
    "move",
    "rename",
    "verify",
    "validate",
    "check",
    "skip",
    "ignore",
    "enable",
    "disable",
    "configure",
    "recover",
    "resolve",
    "expire",
    "renew",
    "heartbeat",
    "contact",
    "lose",
    "drop",
    "keep",
    "give",
    "need",
    "change",
    "stage",
    "track",
    "mark",
    "got",
    "told",
    "sent",
    "saved",
];

/// Irregular verb forms: surface → (tag). Bases covered separately.
const IRREGULAR_VERBS: &[(&str, PosTag)] = &[
    ("ran", PosTag::VBD),
    ("sent", PosTag::VBD),
    ("got", PosTag::VBD),
    ("took", PosTag::VBD),
    ("taken", PosTag::VBN),
    ("found", PosTag::VBD),
    ("lost", PosTag::VBD),
    ("kept", PosTag::VBD),
    ("gave", PosTag::VBD),
    ("given", PosTag::VBN),
    ("told", PosTag::VBD),
    ("freed", PosTag::VBN),
    ("wrote", PosTag::VBD),
    ("written", PosTag::VBN),
    ("began", PosTag::VBD),
    ("begun", PosTag::VBN),
];

/// Log-domain nouns (singular base forms). These beat the suffix rules, so
/// e.g. `container` is NN rather than a `-er` agentive guess, and words that
/// are also verb bases (`map`, `block`, `output`) default to NN when the
/// context rules do not fire.
const NOUNS: &[&str] = &[
    "task",
    "job",
    "stage",
    "attempt",
    "container",
    "executor",
    "driver",
    "worker",
    "master",
    "node",
    "host",
    "block",
    "manager",
    "endpoint",
    "memory",
    "disk",
    "store",
    "output",
    "input",
    "map",
    "reducer",
    "mapper",
    "fetcher",
    "shuffle",
    "merger",
    "partition",
    "split",
    "record",
    "byte",
    "file",
    "folder",
    "directory",
    "path",
    "system",
    "metric",
    "metrics",
    "event",
    "listener",
    "handler",
    "service",
    "server",
    "client",
    "connection",
    "port",
    "address",
    "broadcast",
    "variable",
    "result",
    "response",
    "request",
    "token",
    "key",
    "value",
    "size",
    "time",
    "timeout",
    "interval",
    "heartbeat",
    "signal",
    "status",
    "state",
    "error",
    "exception",
    "failure",
    "progress",
    "resource",
    "vcore",
    "core",
    "application",
    "am",
    "rm",
    "nm",
    "queue",
    "user",
    "group",
    "acl",
    "permission",
    "session",
    "query",
    "operator",
    "vertex",
    "dag",
    "edge",
    "plan",
    "table",
    "row",
    "column",
    "data",
    "dataset",
    "rdd",
    "cache",
    "level",
    "replication",
    "id",
    "identifier",
    "name",
    "version",
    "config",
    "configuration",
    "property",
    "limit",
    "threshold",
    "buffer",
    "pool",
    "thread",
    "process",
    "instance",
    "machine",
    "cluster",
    "spill",
    "segment",
    "index",
    "offset",
    "checkpoint",
    "snapshot",
    "shutdown",
    "cleanup",
    "hook",
    "phase",
    "step",
    "round",
    "iteration",
    "epoch",
    "batch",
    "scheduler",
    "allocator",
    "tracker",
    "monitor",
    "reporter",
    "committer",
    "localizer",
    "deletion",
    "registration",
    "initialization",
    "completion",
    "execution",
    "allocation",
    "localization",
    "authentication",
    "environment",
    "classpath",
    "jar",
    "library",
    "module",
    "component",
    "entity",
    "message",
    "line",
    "word",
    "count",
    "sample",
    "point",
    "center",
    "centroid",
    "model",
    "feature",
    "label",
    "score",
    "rank",
    "page",
    "graph",
    "pass",
];

/// Log-domain adjectives.
const ADJECTIVES: &[&str] = &[
    "remote",
    "local",
    "temporary",
    "final",
    "new",
    "old",
    "current",
    "previous",
    "next",
    "last",
    "first",
    "total",
    "available",
    "unavailable",
    "active",
    "inactive",
    "idle",
    "busy",
    "pending",
    "running",
    "successful",
    "failed",
    "unsuccessful",
    "empty",
    "full",
    "maximum",
    "minimum",
    "max",
    "min",
    "default",
    "invalid",
    "valid",
    "unknown",
    "null",
    "slow",
    "fast",
    "large",
    "small",
    "high",
    "low",
    "long",
    "short",
    "ready",
    "unable",
    "missing",
    "duplicate",
    "stale",
    "corrupt",
    "bad",
    "good",
    "safe",
    "unsafe",
    "internal",
    "external",
    "physical",
    "virtual",
    "secondary",
    "primary",
    "speculative",
];

/// Measurement-unit words: a numeric field followed by one of these is a
/// *value* (paper §3.1 heuristic 2), and unit words are excluded from
/// extracted entity phrases (Fig. 4 omits 'bytes').
const UNITS: &[&str] = &[
    "b",
    "kb",
    "mb",
    "gb",
    "tb",
    "kib",
    "mib",
    "gib",
    "byte",
    "bytes",
    "bit",
    "bits",
    "ms",
    "milliseconds",
    "millisecond",
    "s",
    "sec",
    "secs",
    "second",
    "seconds",
    "us",
    "ns",
    "minute",
    "minutes",
    "min",
    "mins",
    "hour",
    "hours",
    "hr",
    "hrs",
    "day",
    "days",
    "records",
    "rows",
    "times",
    "retries",
    "percent",
    "%",
    "vcores",
    "cores",
];

/// The assembled lexicon, built once on first use.
pub struct Lexicon {
    words: HashMap<&'static str, PosTag>,
    verb_bases: HashSet<&'static str>,
    units: HashSet<&'static str>,
}

impl Lexicon {
    fn build() -> Lexicon {
        let mut words = HashMap::with_capacity(CLOSED.len() + NOUNS.len() + ADJECTIVES.len() + 64);
        for &(w, t) in CLOSED {
            words.insert(w, t);
        }
        for &(w, t) in IRREGULAR_VERBS {
            words.insert(w, t);
        }
        for &w in ADJECTIVES {
            words.entry(w).or_insert(PosTag::JJ);
        }
        for &w in NOUNS {
            // Nouns override adjective homographs deliberately added above? No:
            // entries added first win, so closed class > irregular verbs >
            // adjectives > nouns for homographs.
            words.entry(w).or_insert(PosTag::NN);
        }
        let verb_bases: HashSet<&'static str> = VERB_BASES.iter().copied().collect();
        let units: HashSet<&'static str> = UNITS.iter().copied().collect();
        Lexicon {
            words,
            verb_bases,
            units,
        }
    }

    /// The process-wide lexicon instance.
    pub fn global() -> &'static Lexicon {
        static LEX: OnceLock<Lexicon> = OnceLock::new();
        LEX.get_or_init(Lexicon::build)
    }

    /// Look up the lexical tag of a lowercased word, if any.
    pub fn tag(&self, lower: &str) -> Option<PosTag> {
        self.words.get(lower).copied()
    }

    /// `true` if `lower` is a known verb base form.
    pub fn is_verb_base(&self, lower: &str) -> bool {
        self.verb_bases.contains(lower)
    }

    /// `true` if `lower` names a measurement unit.
    pub fn is_unit(&self, lower: &str) -> bool {
        self.units.contains(lower)
    }

    /// `true` if a surface form is a recognisable inflection of a known verb
    /// base (`reads` → `read`, `freed` → `free`, `shuffling` → `shuffle`).
    pub fn is_verb_form(&self, lower: &str) -> bool {
        if self.verb_bases.contains(lower) {
            return true;
        }
        for (suffix, restores) in [
            ("ies", &["y"][..]),
            ("es", &["", "e"][..]),
            ("s", &[""][..]),
            ("ed", &["", "e"][..]),
            ("ing", &["", "e"][..]),
            ("ting", &[""][..]),
            ("ping", &[""][..]),
            ("ning", &[""][..]),
            ("ged", &[""][..]),
            ("ted", &[""][..]),
            ("ped", &[""][..]),
        ] {
            if let Some(stem) = lower.strip_suffix(suffix) {
                for r in restores {
                    let mut cand = String::with_capacity(stem.len() + r.len());
                    cand.push_str(stem);
                    cand.push_str(r);
                    if self.verb_bases.contains(cand.as_str()) {
                        return true;
                    }
                }
            }
        }
        // Doubled final consonant: "stopped" → "stop", "spilling" → "spill"
        // handled by -ped/-ting style suffixes above; also handle generic
        // double-consonant + ed/ing.
        for suffix in ["ed", "ing"] {
            if let Some(stem) = lower.strip_suffix(suffix) {
                let b = stem.as_bytes();
                if b.len() >= 2 && b[b.len() - 1] == b[b.len() - 2] {
                    let undoubled = &stem[..stem.len() - 1];
                    if self.verb_bases.contains(undoubled) {
                        return true;
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Streaming detection reuses the extraction of one unexpected line for
    /// every line that differs from it only in its digits
    /// (`anomaly::stream`): sound while no lookup here can tell `md5` from
    /// `md7`, i.e. while no entry carries a digit.
    #[test]
    fn no_entry_carries_a_digit() {
        let lex = Lexicon::global();
        let words = lex.words.keys().chain(&lex.verb_bases).chain(&lex.units);
        for w in words {
            assert!(!w.bytes().any(|b| b.is_ascii_digit()), "{w:?}");
        }
    }

    #[test]
    fn closed_class_lookup() {
        let lex = Lexicon::global();
        assert_eq!(lex.tag("the"), Some(PosTag::DT));
        assert_eq!(lex.tag("of"), Some(PosTag::IN));
        assert_eq!(lex.tag("to"), Some(PosTag::TO));
        assert_eq!(lex.tag("can"), Some(PosTag::MD));
        assert_eq!(lex.tag("is"), Some(PosTag::VBZ));
    }

    #[test]
    fn domain_nouns_and_adjectives() {
        let lex = Lexicon::global();
        assert_eq!(lex.tag("task"), Some(PosTag::NN));
        assert_eq!(lex.tag("fetcher"), Some(PosTag::NN));
        assert_eq!(lex.tag("remote"), Some(PosTag::JJ));
        assert_eq!(lex.tag("temporary"), Some(PosTag::JJ));
    }

    #[test]
    fn verb_base_and_forms() {
        let lex = Lexicon::global();
        assert!(lex.is_verb_base("shuffle"));
        assert!(lex.is_verb_form("reads"));
        assert!(lex.is_verb_form("freed"));
        assert!(lex.is_verb_form("shuffling"));
        assert!(lex.is_verb_form("stopped"));
        assert!(lex.is_verb_form("registering"));
        assert!(!lex.is_verb_form("fetcher"));
    }

    #[test]
    fn units() {
        let lex = Lexicon::global();
        assert!(lex.is_unit("bytes"));
        assert!(lex.is_unit("ms"));
        assert!(lex.is_unit("mb"));
        assert!(!lex.is_unit("task"));
    }

    #[test]
    fn homograph_priority_closed_class_wins() {
        // "block" is both a noun and a verb base; lexicon tags it NN, and the
        // verb-base set still knows it.
        let lex = Lexicon::global();
        assert_eq!(lex.tag("block"), Some(PosTag::NN));
        assert!(lex.is_verb_base("block"));
        // "for" must never be shadowed.
        assert_eq!(lex.tag("for"), Some(PosTag::IN));
    }

    #[test]
    fn irregular_verbs() {
        let lex = Lexicon::global();
        assert_eq!(lex.tag("freed"), Some(PosTag::VBN));
        assert_eq!(lex.tag("taken"), Some(PosTag::VBN));
        assert_eq!(lex.tag("ran"), Some(PosTag::VBD));
    }
}
