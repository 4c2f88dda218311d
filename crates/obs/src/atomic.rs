//! The one crash-safe file writer behind every persistent file that is
//! rewritten whole: tile-store shard creation, the compactions of
//! [`crate::applog`] logs (the job journal's, and the flight recorder's,
//! whose full dump on panic and on the `dump` verb is one too), run
//! ledger records and the service's Prometheus export. Records
//! themselves are appended to their logs through [`crate::applog`], one
//! `write` per batch.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Replaces `target` with `contents` atomically, creating its directory
/// if missing. The bytes go to a uniquely named temporary file beside
/// `target` (`.<name>.tmp-<pid>-<seq>`, which no reader's extension
/// filter matches), then a rename puts them in place, so a reader — or
/// a crash mid-write — sees the old file or the complete new one, never
/// a torn one. When the write or the rename fails, the temporary file is
/// removed before the error is returned.
///
/// # Errors
///
/// Propagates directory-creation, write or rename failures.
pub fn write_atomic(target: &Path, contents: &[u8]) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = target.parent().unwrap_or(Path::new(""));
    std::fs::create_dir_all(dir)?;
    let name = target
        .file_name()
        .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
    let tmp = dir.join(format!(
        ".{name}.tmp-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let written = std::fs::write(&tmp, contents).and_then(|()| std::fs::rename(&tmp, target));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn writes_and_replaces_whole_files() {
        let dir = std::env::temp_dir().join(format!("eureka-atomic-ok-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let target = dir.join("nested").join("record.txt");
        write_atomic(&target, b"first").expect("creates the directory and writes");
        write_atomic(&target, b"second").expect("replaces in place");
        assert_eq!(std::fs::read(&target).unwrap(), b"second");
        assert_eq!(entries(target.parent().unwrap()), ["record.txt"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_rename_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("eureka-atomic-fail-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        // A non-empty directory squats on the target name: the write of
        // the temporary succeeds, the rename over the directory fails.
        let target = dir.join("record.bin");
        std::fs::create_dir_all(target.join("occupant")).unwrap();
        assert!(write_atomic(&target, b"payload").is_err());
        assert_eq!(entries(&dir), ["record.bin"], "no temporary left behind");
        std::fs::remove_dir_all(&dir).ok();
    }
}
