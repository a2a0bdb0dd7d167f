//! A Spell key set whose prefix tree forks at every position, included by
//! the matcher suites that walk it:
//!
//! ```ignore
//! #[path = "support/forked_keys.rs"]
//! mod forked_keys;
//! ```
//!
//! Each key holds `f{i}` or `*` at each of eight positions, in all 256
//! combinations, followed by `stage done`: one length bucket. A message
//! that carries every `f{i}` instantiates all 256 keys, so the exact
//! phase's walk holds every leaf of the tree at once.

use spell::{KeyId, LogKey, SpellParser};

/// Positions that hold a constant or `*`.
const FORKS: u32 = 8;

/// The constant positions of key `k`, as a bit mask. The numbering is a
/// permutation of the masks that puts neither the all-constant nor the
/// all-`*` key first, so the lowest key a message instantiates is not the
/// first one a constant-edge-first walk reaches.
fn forked_mask(k: u32) -> u32 {
    (k * 37 + 11) % (1 << FORKS)
}

/// A parser over the 256 forked keys, loaded the way a model file
/// is (`SpellParser`'s serialised form).
pub fn forked_parser() -> SpellParser {
    let keys: Vec<LogKey> = (0..1 << FORKS)
        .map(|k| {
            let mask = forked_mask(k);
            let mut tokens: Vec<String> = (0..FORKS)
                .map(|i| {
                    if (mask >> i) & 1 == 1 {
                        format!("f{i}")
                    } else {
                        "*".to_string()
                    }
                })
                .collect();
            tokens.extend(["stage".to_string(), "done".to_string()]);
            let sample = tokens
                .iter()
                .enumerate()
                .map(|(i, t)| if t == "*" { format!("v{i}") } else { t.clone() })
                .collect();
            LogKey {
                id: KeyId(k),
                tokens,
                sample,
                count: 1,
            }
        })
        .collect();
    let keys = serde_json::to_string(&keys).expect("serialise forked keys");
    serde_json::from_str(&format!(r#"{{"threshold":1.7,"keys":{keys}}}"#))
        .expect("forked key set loads")
}

/// Probes for [`forked_parser`]: instances of many keys at once, near
/// misses that reach the scored phase, unknown tokens and a wrong length.
pub fn forked_probes() -> Vec<String> {
    [
        // Every key is an instance: 256 leaves live.
        "f0 f1 f2 f3 f4 f5 f6 f7 stage done",
        // Unknown tokens at two forks keep only their `*` branch: 64 live.
        "f0 f1 zz f3 f4 yy f6 f7 stage done",
        // Known constants at the wrong positions follow only `*` edges.
        "f1 f0 f3 f2 f5 f4 f7 f6 stage done",
        "f0 f1 f2 f3 zz zz zz zz stage done",
        // Near misses: no instance, the scored phase decides.
        "f0 f1 f2 f3 f4 f5 f6 f7 stage failed",
        "f0 f1 f2 f3 f4 f5 f6 f7 zz yy",
        "done f1 f2 f3 f4 f5 f6 f7 stage f0",
        // Unknown throughout.
        "a0 a1 a2 a3 a4 a5 a6 a7 a8 a9",
        // No key has nine tokens.
        "f0 f1 f2 f3 f4 f5 f6 f7 stage",
    ]
    .into_iter()
    .map(String::from)
    .collect()
}
