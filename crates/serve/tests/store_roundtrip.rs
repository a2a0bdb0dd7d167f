//! Model-store integrity tests: save→load round-trips exactly, and every
//! corruption mode is rejected with the right typed error.

use anomaly::{Detector, Trainer};
use intellog_serve::{ModelStore, StoreError, MODEL_FORMAT_VERSION};
use spell::{Level, LogLine, Session};
use std::path::PathBuf;

fn line(ts: u64, msg: &str) -> LogLine {
    LogLine {
        ts_ms: ts,
        level: Level::Info,
        source: "X".into(),
        message: msg.into(),
    }
}

fn trained() -> Detector {
    let mk = |id: &str, host: &str, k: u32| {
        Session::new(
            id,
            vec![
                line(0, &format!("Registering block manager endpoint on {host}")),
                line(10, &format!("Starting task {k} in stage 0")),
                line(
                    20,
                    &format!("Finished task {k} in stage 0 and sent 9 bytes to driver"),
                ),
                line(30, "Shutdown hook called"),
            ],
        )
    };
    Trainer::default().train(&[
        mk("c0", "host1", 1),
        mk("c1", "host2", 2),
        mk("c2", "host1", 3),
    ])
}

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("intellog-store-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{name}.ilm", std::process::id()))
}

#[test]
fn save_load_is_byte_identical_reserialized() {
    let detector = trained();
    let path = tmp_path("roundtrip");
    ModelStore::save(&path, &detector).unwrap();
    let loaded = ModelStore::load(&path).unwrap();
    // the loaded model re-serialises to the exact bytes of the original
    assert_eq!(
        serde_json::to_string(&loaded).unwrap(),
        serde_json::to_string(&detector).unwrap()
    );
    // and saving it again produces a byte-identical file
    let path2 = tmp_path("roundtrip2");
    ModelStore::save(&path2, &loaded).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&path2).unwrap()
    );
    // behaviourally identical, too
    let probe = Session::new(
        "probe",
        vec![
            line(0, "Registering block manager endpoint on host9"),
            line(5, "Starting task 7 in stage 0"),
        ],
    );
    assert_eq!(
        loaded.detect_session(&probe),
        detector.detect_session(&probe)
    );
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&path2).unwrap();
}

#[test]
fn truncated_model_is_rejected() {
    let path = tmp_path("truncated");
    ModelStore::save(&path, &trained()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 40]).unwrap();
    match ModelStore::load(&path) {
        Err(StoreError::Truncated { expected, found }) => {
            assert_eq!(found + 40, expected);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn bitflipped_model_is_rejected() {
    let path = tmp_path("bitflip");
    ModelStore::save(&path, &trained()).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // flip one bit deep in the payload (past the header line)
    let idx = bytes.len() / 2;
    bytes[idx] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        ModelStore::load(&path),
        Err(StoreError::ChecksumMismatch { .. })
    ));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn wrong_version_header_is_rejected() {
    let path = tmp_path("version");
    ModelStore::save(&path, &trained()).unwrap();
    let text = String::from_utf8(std::fs::read(&path).unwrap()).unwrap();
    let bumped = text.replacen(
        &format!("v{MODEL_FORMAT_VERSION} "),
        &format!("v{} ", MODEL_FORMAT_VERSION + 1),
        1,
    );
    std::fs::write(&path, bumped).unwrap();
    match ModelStore::load(&path) {
        Err(StoreError::VersionMismatch { found, expected }) => {
            assert_eq!(found, MODEL_FORMAT_VERSION + 1);
            assert_eq!(expected, MODEL_FORMAT_VERSION);
        }
        Err(other) => panic!("expected VersionMismatch, got {other:?}"),
        Ok(_) => panic!("wrong-version model must be refused"),
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn legacy_bare_json_is_refused_as_not_a_model() {
    let path = tmp_path("legacy");
    let json = serde_json::to_string(&trained()).unwrap();
    std::fs::write(&path, json).unwrap();
    assert!(matches!(
        ModelStore::load(&path),
        Err(StoreError::NotAModel)
    ));
    std::fs::remove_file(&path).unwrap();
}

/// Frame `payload` exactly as `save` would (valid header, valid CRC) and
/// load it back.
fn load_framed(name: &str, payload: &str) -> Result<Detector, StoreError> {
    let path = tmp_path(name);
    std::fs::write(&path, ModelStore::encode(payload.as_bytes())).unwrap();
    let loaded = ModelStore::load(&path);
    std::fs::remove_file(&path).unwrap();
    loaded
}

/// A payload can pass every integrity check and deserialise, yet describe
/// a model whose parts do not fit together. Detection indexes `keys` by
/// the parser's key ids and `graph.groups` by the stored group indices, so
/// each of these used to load cleanly and then panic a shard thread on the
/// first matching line. They must be refused at the door instead.
#[test]
fn inconsistent_but_intact_models_are_refused() {
    let good = trained();
    let json = |d: &Detector| serde_json::to_string(d).unwrap();
    assert!(load_framed("consistent", &json(&good)).is_ok());

    let mut corrupt: Vec<(&str, String)> = Vec::new();

    // fewer Intel Keys than the parser has log keys
    let mut d = good.clone();
    d.keys.pop();
    corrupt.push(("short-keys", json(&d)));

    // Intel Keys out of KeyId order
    let mut d = good.clone();
    d.keys.swap(0, 1);
    corrupt.push(("swapped-keys", json(&d)));

    // log key ids not dense and in order (SpellParser::from_parts)
    let text = json(&good);
    let skewed = text.replacen("\"id\":0", "\"id\":7", 1);
    assert_ne!(skewed, text, "fixture must contain log key id 0");
    corrupt.push(("sparse-key-ids", skewed));

    // group indices past graph.groups, in each structure that stores them
    let beyond = good.graph.groups.len() + 5;
    let mut d = good.clone();
    d.graph
        .key_groups
        .values_mut()
        .next()
        .expect("trained graph maps keys to groups")
        .push(beyond);
    corrupt.push(("key-groups", json(&d)));

    let mut d = good.clone();
    d.graph.profiles.profiles[0].mandatory.insert(beyond);
    corrupt.push(("profile-mandatory", json(&d)));

    let mut d = good.clone();
    d.graph.hierarchy.nodes[0].parent = Some(beyond);
    corrupt.push(("hierarchy-parent", json(&d)));

    let mut d = good.clone();
    d.graph.hierarchy.nodes.pop();
    corrupt.push(("hierarchy-short", json(&d)));

    for (name, payload) in corrupt {
        match load_framed(name, &payload) {
            Err(StoreError::Parse(_)) => {}
            Err(other) => panic!("{name}: expected Parse, got {other:?}"),
            Ok(_) => panic!("{name}: inconsistent model must be refused"),
        }
    }
}
