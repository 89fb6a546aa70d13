//! Crash-safe artifact publication and the sweep config signature.
//!
//! Resuming a killed sweep is a plain rerun of the same command against
//! the same stage cache (DESIGN §12): every stage that finished replays
//! from `results/ckpt/objects/`, the rest recompute. That is safe under
//! SIGKILL because nothing a reader can observe is ever half written:
//!
//! - **Every tracked artifact is written atomically** ([`atomic_write`]:
//!   sibling tmp file + `rename`), so a mid-write kill can never leave a
//!   half-written tracked file — at worst an orphan `*.tmp`.
//! - **Concurrent publishers of one path** use [`atomic_write_unique`],
//!   whose writer-unique tmp name makes the final `rename` the only shared
//!   step. The stage cache publishes its blobs and key links this way, and
//!   its `lookup` re-verifies every blob, so a torn or damaged entry is a
//!   miss, never a wrong artifact.

use std::fs;
use std::path::{Path, PathBuf};

// The FNV-1a checksum primitive lives in `ffet-obs` (the dependency arrow
// points core -> obs); re-exported here for the config signature, and
// `hash_hex` for the stage cache's 16-digit addresses.
pub use ffet_obs::{fnv1a64, hash_hex};

/// Hash of everything that changes experiment *outputs*: design, recovery
/// budget, fault plan and deadline. Worker counts
/// (`FFET_JOBS`/`FFET_ROUTE_JOBS`) are deliberately excluded — the §7
/// determinism contract makes outputs identical across widths, so ledger
/// entries compare across parallelism. The `ckpt-v1` prefix is frozen:
/// changing it would orphan every `cfg` hash in the checked-in ledger
/// baseline (DESIGN §13.2).
#[must_use]
pub fn config_signature(design: crate::experiments::DesignKind) -> String {
    let sig = format!(
        "ckpt-v1|design={design:?}|max_attempts={}|faults={}|deadline={}",
        std::env::var(crate::MAX_ATTEMPTS_ENV).unwrap_or_default(),
        std::env::var(crate::FAULTS_ENV).unwrap_or_default(),
        std::env::var(crate::DEADLINE_ENV).unwrap_or_default(),
    );
    hash_hex(fnv1a64(sig.as_bytes()))
}

/// Writes `bytes` to `path` atomically: the parent directory is created,
/// the body lands in a sibling `<name>.tmp`, and a `rename` publishes it.
/// Readers never observe a partially written file at `path`.
///
/// The tmp name is deterministic per target, so a crashed writer's orphan
/// is overwritten by the next attempt rather than accumulating.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    atomic_write_via(path, bytes, ".tmp")
}

/// [`atomic_write`] with a writer-unique tmp name. Use when *concurrent
/// processes or threads* may publish the same target path: the shared
/// deterministic `.tmp` of [`atomic_write`] lets one writer rename another
/// writer's half-written sibling into place, whereas a pid+sequence-unique
/// sibling makes the final `rename` the only shared step — last writer wins
/// with a complete body. The stage cache publishes content-addressed blobs
/// this way (same address ⇒ same bytes, so any winner is correct).
pub fn atomic_write_unique(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    atomic_write_via(path, bytes, &format!(".{}-{seq}.tmp", std::process::id()))
}

fn atomic_write_via(path: &Path, bytes: &[u8], suffix: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(suffix);
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, bytes)?; // ffet-analyze: allow(R002) -- the atomic-write primitive itself; the tmp file is renamed over the target below
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ffet-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash_hex(fnv1a64(b"a")), "af63dc4c8601ec8c");
    }

    #[test]
    fn config_signature_matches_the_ledger_baseline() {
        // `results/ledger/baseline.jsonl` was recorded with none of the
        // signature variables set; the hash must keep matching it.
        let env = [
            crate::MAX_ATTEMPTS_ENV,
            crate::FAULTS_ENV,
            crate::DEADLINE_ENV,
        ];
        if env.iter().any(|v| std::env::var(v).is_ok()) {
            return;
        }
        assert_eq!(
            config_signature(crate::experiments::DesignKind::CounterSmall),
            "044586a4e3d175ae"
        );
    }

    #[test]
    fn atomic_write_publishes_and_overwrites() {
        let dir = scratch_dir("atomic");
        let path = dir.join("nested/out.csv");
        atomic_write(&path, b"one").expect("write");
        assert_eq!(fs::read_to_string(&path).expect("read"), "one");
        atomic_write(&path, b"two").expect("rewrite");
        assert_eq!(fs::read_to_string(&path).expect("read"), "two");
        // No orphan tmp after a clean write.
        assert!(!dir.join("nested/out.csv.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
