//! Run manifests: one directory per invocation under `repro-results/`,
//! holding the JSONL event log plus a `manifest.json` stamping the run with
//! its git revision and whether the tree differed from it, configuration,
//! experiment ids, and elapsed time.
//!
//! ```text
//! repro-results/<run-id>/
//!   events.jsonl    # every obs event emitted during the run
//!   manifest.json   # git rev and dirty state, config, experiments, elapsed, metric totals
//! ```
//!
//! The run id is `<unix-seconds>-<pid>` — unique enough for a single
//! machine without needing a randomness source.

use crate::json::Json;
use crate::metrics;
use crate::sink::{self, FileSink};
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// An open run: events are being captured to `<dir>/events.jsonl`.
/// Call [`RunHandle::finish`] to write the manifest and flush sinks.
pub struct RunHandle {
    dir: PathBuf,
    started: Instant,
    started_unix: u64,
    fields: Vec<(String, Json)>,
}

/// Reads the current git commit hash from `.git` at `repo_root` using only
/// the filesystem (the offline build environment has no `git` guarantee).
/// Returns `None` outside a git checkout.
pub fn git_rev(repo_root: &Path) -> Option<String> {
    let git = repo_root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        // Detached HEAD: the file holds the hash directly.
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(refname)) {
        return Some(hash.trim().to_string());
    }
    // Ref may only exist in packed-refs.
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    for line in packed.lines() {
        if let Some((hash, name)) = line.split_once(' ') {
            if name.trim() == refname {
                return Some(hash.trim().to_string());
            }
        }
    }
    None
}

/// Whether the checkout at `repo_root` has uncommitted changes to tracked
/// files, read from `git status --porcelain --untracked-files=no`: a run
/// stamped with [`git_rev`] timed that commit only when this is
/// `Some(false)`. Returns `None` when `git` cannot start or fails (no `git`
/// on the host, or not a checkout).
pub fn git_dirty(repo_root: &Path) -> Option<bool> {
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(repo_root)
        .args(["status", "--porcelain", "--untracked-files=no"])
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| porcelain_lists_changes(&out.stdout))
}

/// Whether `git status --porcelain` output names any file: one line per
/// changed path, nothing for a clean tree.
fn porcelain_lists_changes(stdout: &[u8]) -> bool {
    stdout
        .split(|&b| b == b'\n')
        .any(|line| !line.trim_ascii().is_empty())
}

#[allow(clippy::disallowed_methods)] // the obs layer owns the wall clock
fn unix_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// The worker-pool thread count this process runs with, resolved the same
/// way as `snapea_tensor::par::threads` (`SNAPEA_THREADS`, else available
/// parallelism) — duplicated here because obs sits below the tensor crate.
/// Recorded in every manifest so perf numbers stay attributable; callers
/// that override the pool at runtime should `set("threads", ...)` instead.
pub fn env_threads() -> u64 {
    #[allow(clippy::disallowed_methods)] // sanctioned config read (R1)
    if let Ok(v) = std::env::var("SNAPEA_THREADS") {
        if let Ok(n) = v.trim().parse::<u64>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// Starts a run named after the current time and pid under `results_root`
/// (conventionally `repro-results/`), installing a [`FileSink`] for
/// `events.jsonl`. Returns the handle, or `None` when the directory or the
/// event log cannot be created (observability failures never abort a run).
#[allow(clippy::disallowed_methods)] // the obs layer owns the wall clock
pub fn start(results_root: &Path) -> Option<RunHandle> {
    let started_unix = unix_now();
    let run_id = format!("{}-{}", started_unix, std::process::id());
    let dir = results_root.join(run_id);
    let events = dir.join("events.jsonl");
    let file_sink = FileSink::create(&events).ok()?;
    sink::install(Box::new(file_sink));
    Some(RunHandle {
        dir,
        started: Instant::now(),
        started_unix,
        fields: Vec::new(),
    })
}

impl RunHandle {
    /// The run directory (`repro-results/<run-id>`).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the JSONL event log inside the run directory.
    pub fn events_path(&self) -> PathBuf {
        self.dir.join("events.jsonl")
    }

    /// Attaches an extra manifest field (configuration, experiment ids,
    /// dataset description, …). Later values win on duplicate keys.
    pub fn set(&mut self, key: &str, value: Json) {
        if let Some(slot) = self.fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.fields.push((key.to_string(), value));
        }
    }

    /// Writes `manifest.json` (git rev and dirty state, start time, elapsed
    /// seconds, caller fields, and the final metrics snapshot) and flushes
    /// every sink.
    /// Returns the manifest path when the write succeeded.
    pub fn finish(self, repo_root: &Path) -> Option<PathBuf> {
        let elapsed_s = self.started.elapsed().as_secs_f64();
        let mut pairs: Vec<(String, Json)> = vec![
            (
                "run".to_string(),
                Json::from(
                    self.dir
                        .file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_default(),
                ),
            ),
            (
                "git_rev".to_string(),
                git_rev(repo_root).map(Json::from).unwrap_or(Json::Null),
            ),
            (
                "git_dirty".to_string(),
                git_dirty(repo_root).map(Json::from).unwrap_or(Json::Null),
            ),
            ("started_unix".to_string(), Json::U64(self.started_unix)),
            ("elapsed_s".to_string(), Json::F64(elapsed_s)),
        ];
        if !self.fields.iter().any(|(k, _)| k == "threads") {
            pairs.push(("threads".to_string(), Json::U64(env_threads())));
        }
        pairs.extend(self.fields);
        pairs.push(("metrics".to_string(), metrics::registry().snapshot()));
        let manifest = Json::Obj(pairs);
        sink::flush();
        let path = self.dir.join("manifest.json");
        std::fs::write(&path, format!("{manifest}\n")).ok()?;
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_rev_reads_head_chain() {
        let dir = std::env::temp_dir().join(format!("snapea-obs-git-{}", std::process::id()));
        let git = dir.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(git.join("refs/heads/main"), "abc123\n").unwrap();
        assert_eq!(git_rev(&dir), Some("abc123".to_string()));

        // Detached HEAD.
        std::fs::write(git.join("HEAD"), "deadbeef\n").unwrap();
        assert_eq!(git_rev(&dir), Some("deadbeef".to_string()));

        // Packed refs only.
        std::fs::write(git.join("HEAD"), "ref: refs/heads/packed\n").unwrap();
        std::fs::write(git.join("packed-refs"), "cafe42 refs/heads/packed\n").unwrap();
        assert_eq!(git_rev(&dir), Some("cafe42".to_string()));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn porcelain_output_is_dirty_iff_it_names_a_path() {
        assert!(!porcelain_lists_changes(b""));
        assert!(!porcelain_lists_changes(b"\n"));
        assert!(porcelain_lists_changes(b" M crates/obs/src/run.rs\n"));
        assert!(porcelain_lists_changes(b"M  a.rs\nR  b.rs -> c.rs\n"));
        // Where `git status` fails (here: no such directory), or `git` is
        // missing, the state is unknown, not clean.
        let missing =
            std::env::temp_dir().join(format!("snapea-obs-absent-{}", std::process::id()));
        assert_eq!(git_dirty(&missing), None);
    }

    #[test]
    fn manifest_fields_round_trip() {
        let _guard = crate::sink::test_lock();
        let root = std::env::temp_dir().join(format!("snapea-obs-run-{}", std::process::id()));
        let mut run = start(&root).expect("start run");
        run.set("experiments", Json::Arr(vec![Json::from("fig8")]));
        run.set(
            "experiments",
            Json::Arr(vec![Json::from("fig8"), Json::from("fig9")]),
        );
        let events = run.events_path();
        crate::event!("test/run", ok = true);
        let manifest_path = run.finish(&root).expect("finish run");
        crate::sink::clear();

        let manifest = crate::json::parse(&std::fs::read_to_string(&manifest_path).unwrap())
            .expect("manifest parses");
        assert!(manifest.get("elapsed_s").and_then(Json::as_f64).is_some());
        assert!(
            manifest.get("git_dirty").is_some(),
            "manifest records the dirty state, null when unknown"
        );
        assert!(
            manifest.get("threads").and_then(Json::as_u64).unwrap_or(0) >= 1,
            "manifest records the thread count"
        );
        let exps = manifest
            .get("experiments")
            .and_then(Json::as_array)
            .expect("experiments array");
        assert_eq!(exps.len(), 2, "set() replaces duplicate keys");
        assert!(manifest.get("metrics").is_some());

        let log = std::fs::read_to_string(&events).unwrap();
        assert!(
            log.lines().any(|l| l.contains("test/run")),
            "event log captured the run event"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
