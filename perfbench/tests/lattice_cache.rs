//! The lattice-artifact cache: keyed by the executable's hash, rebuilt on
//! a new key, and never serving a tampered artifact.

use perfbench::adapter::{artifact_file_name, Lattice, Service};
use perfbench::gen::FAMILIES;
use perfbench::lattices::ensure;
use std::path::PathBuf;

fn root(name: &str) -> PathBuf {
    let r = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&r);
    r
}

fn coarse(family: &str) -> Result<Lattice, String> {
    Lattice::build(family, Some(3))
}

#[test]
fn a_changed_executable_hash_rebuilds() {
    let root = root("cache-key");
    let a = ensure(&root, "aaaa", &["exponential"], 1, &coarse).unwrap();
    assert_eq!(a.rebuilt, ["exponential"]);
    assert!(a.build_s["exponential"] > 0.0);
    let again = ensure(&root, "aaaa", &["exponential"], 1, &coarse).unwrap();
    assert!(
        again.rebuilt.is_empty(),
        "same executable reuses its artifacts"
    );
    assert_eq!(again.build_s["exponential"], a.build_s["exponential"]);
    let b = ensure(&root, "bbbb", &["exponential"], 1, &coarse).unwrap();
    assert_eq!(b.rebuilt, ["exponential"]);
    assert!(
        !root.join("aaaa").exists(),
        "another executable's artifacts are dropped"
    );
}

#[test]
fn a_tampered_artifact_is_rejected_and_rebuilt() {
    let root = root("cache-tamper");
    let arts = ensure(&root, "k", &FAMILIES, 2, &coarse).unwrap();
    assert!(Service::load(&arts.dir).is_ok());
    let path = arts.dir.join(artifact_file_name("exponential").unwrap());
    let text = std::fs::read_to_string(&path).unwrap();
    let at = text.find("\"x_opt\"").expect("artifact has an x_opt field");
    let digit = at
        + text[at..]
            .find(|c: char| c.is_ascii_digit() && c != '0')
            .unwrap();
    let mut bytes = text.into_bytes();
    bytes[digit] = if bytes[digit] == b'9' {
        b'8'
    } else {
        bytes[digit] + 1
    };
    std::fs::write(&path, bytes).unwrap();
    assert!(
        Lattice::load(&path).is_err(),
        "the fingerprint check rejects it"
    );
    assert!(
        Service::load(&arts.dir).is_err(),
        "the service never serves it"
    );
    let again = ensure(&root, "k", &FAMILIES, 2, &coarse).unwrap();
    assert_eq!(again.rebuilt, ["exponential"]);
    assert!(Service::load(&again.dir).is_ok());
}
