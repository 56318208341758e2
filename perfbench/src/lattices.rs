//! Lattice artifacts are an offline input, as in deployment: each
//! benchmark executable builds the four default-spec families once and
//! reuses them across its own runs. The cache is keyed by a hash of the
//! running executable, so a rebuilt benchmark (another commit) never
//! reads artifacts another build made.

use crate::adapter::{artifact_file_name, Lattice};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// FNV-1a over the running executable's bytes.
pub fn exe_hash() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("reading {}: {e}", exe.display()))?;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    Ok(format!("{h:016x}"))
}

/// Where the cache lives: next to the executable, inside the build
/// directory of the checkout.
pub fn default_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    Ok(exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("perfbench-lattices"))
}

/// A directory holding one verified artifact per family.
#[derive(Debug, Clone)]
pub struct Artifacts {
    pub dir: PathBuf,
    /// Seconds each family's offline build took (recorded at build time).
    pub build_s: BTreeMap<String, f64>,
    /// Families (re)built by this call, because missing or rejected.
    pub rebuilt: Vec<String>,
}

/// Returns the artifacts for `key` under `root`, building every family
/// whose artifact is missing or fails `PolicyLattice::load`'s
/// fingerprint verification (a tampered file is replaced, never served).
/// Builds run on up to `threads` threads. Other keys' directories
/// (stale executables) are removed.
pub fn ensure(
    root: &Path,
    key: &str,
    families: &[&str],
    threads: usize,
    build: &(dyn Fn(&str) -> Result<Lattice, String> + Sync),
) -> Result<Artifacts, String> {
    let dir = root.join(key);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    if let Ok(entries) = std::fs::read_dir(root) {
        for e in entries.flatten() {
            if e.file_name() != key && e.path().is_dir() {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
    let timing = |f: &str| dir.join(format!("{f}.build_s"));
    let mut todo = Vec::new();
    let mut build_s = BTreeMap::new();
    for &f in families {
        let path = dir.join(artifact_file_name(f)?);
        let recorded = std::fs::read_to_string(timing(f))
            .ok()
            .and_then(|s| s.trim().parse::<f64>().ok());
        match (path.is_file().then(|| Lattice::load(&path)), recorded) {
            (Some(Ok(_)), Some(s)) => {
                build_s.insert(f.to_string(), s);
            }
            (Some(Err(e)), _) => {
                eprintln!(
                    "lattice cache: rejected {} ({e}); rebuilding",
                    path.display()
                );
                todo.push(f);
            }
            _ => todo.push(f),
        }
    }
    let results: Vec<Result<(String, f64), String>> = std::thread::scope(|scope| {
        let chunks: Vec<Vec<&str>> = (0..threads.max(1))
            .map(|t| {
                todo.iter()
                    .skip(t)
                    .step_by(threads.max(1))
                    .copied()
                    .collect()
            })
            .collect();
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let dir = &dir;
                let timing = &timing;
                scope.spawn(move || {
                    chunk
                        .into_iter()
                        .map(|f| {
                            let t = Instant::now();
                            let lattice = build(f)?;
                            let secs = t.elapsed().as_secs_f64();
                            lattice.save(&dir.join(artifact_file_name(f)?))?;
                            std::fs::write(timing(f), format!("{secs}\n"))
                                .map_err(|e| format!("recording build time: {e}"))?;
                            Ok((f.to_string(), secs))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("lattice build thread panicked"))
            .collect()
    });
    let mut rebuilt = Vec::new();
    for r in results {
        let (f, secs) = r?;
        build_s.insert(f.clone(), secs);
        rebuilt.push(f);
    }
    rebuilt.sort();
    Ok(Artifacts {
        dir,
        build_s,
        rebuilt,
    })
}
