//! The on-disk tier: a content-addressed store of completed sweep
//! journals, plus the spool of in-flight ones.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/cache/<stem>.jsonl   completed, committed results
//! <root>/jobs/<stem>.jsonl    in-flight journals (crash-consistent)
//! <root>/jobs/<stem>.job      job spec sidecar (trace path)
//! ```
//!
//! `<stem>` is the 16-hex-digit body of the job key
//! ([`crate::key::key_stem`]). The cached artifact **is** the
//! `mlc-journal/1` file the sweep wrote: committing a result is a
//! single atomic `rename` from `jobs/` to `cache/`, followed by
//! directory fsyncs on both sides ([`mlc_obs::sync_dir_of`]) — the same
//! discipline the journal itself uses, so a crash at any instant leaves
//! either a resumable spool entry or a complete cache entry, never a
//! half-result.
//!
//! Loads are self-verifying: the key is re-derived from the journal
//! header stored inside the entry and must match the name it was filed
//! under, and the journal must cover every grid row. An entry failing
//! either check (or its integrity checksums) is evicted and treated as
//! a miss — the cache heals itself by recomputing.
//!
//! ## The byte budget
//!
//! A store opened with a budget ([`DiskStore::open_with`]) applies the
//! same size-budget + LRU discipline to its own artifacts that the
//! paper's hierarchy analysis applies to caches: every commit runs an
//! eviction pass that removes the **least-recently-used** committed
//! entries (by file mtime, which [`DiskStore::load`] bumps on every
//! hit — atime is unreliable under `relatime`/`noatime` mounts) until
//! the tier fits. Three classes of entry are never evicted: in-flight
//! jobs (they live in `jobs/`, which eviction never touches), the entry
//! the running commit just created, and entries pinned mid-read by a
//! concurrent load. A single artifact larger than the whole budget is
//! kept — the budget bounds the steady state, not one result.

use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

use mlc_core::{DesignGrid, GridSpec};
use mlc_obs::json::JsonValue;
use mlc_obs::{read_journal, sync_dir_of, Journal};

use crate::chaos::FaultInjector;
use crate::key::{job_key, key_stem};

/// Schema tag of the job spec sidecar.
pub const JOB_SPEC_SCHEMA: &str = "mlc-serve-job/1";

/// What the spool must remember beyond the journal itself to restart a
/// job: the journal header pins *what* to compute; the spec pins where
/// the trace bytes live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// The content-addressed job key.
    pub key: String,
    /// Trace path on this machine.
    pub trace: PathBuf,
}

/// What one eviction pass removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictReport {
    /// Committed entries removed.
    pub evicted: u64,
    /// Bytes those entries occupied.
    pub evicted_bytes: u64,
}

/// Assembles the design grid a (complete) journal describes, or `None`
/// when its header is not a valid sweep ([`GridSpec::from_header`]).
fn grid_from_journal(journal: &Journal) -> Option<DesignGrid> {
    let sweep = GridSpec::from_header(&journal.header).ok()?;
    Some(DesignGrid::from_rows(
        sweep.sizes(),
        sweep.cycles(),
        sweep.ways(),
        &journal.rows,
    ))
}

/// The on-disk result store.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    /// Byte budget for `cache/`; `None` disables eviction.
    budget: Option<u64>,
    chaos: Arc<FaultInjector>,
    /// Stems that must not be evicted right now (mid-read pins).
    pinned: Mutex<HashSet<String>>,
}

/// Unpins a stem when a disk read finishes (any exit path).
struct PinGuard<'a> {
    store: &'a DiskStore,
    stem: String,
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        self.store
            .pinned
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&self.stem);
    }
}

impl DiskStore {
    /// Opens (creating if needed) an unbudgeted store rooted at `root`.
    /// A store is owned by one server process at a time.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating the `cache/` and `jobs/` directories.
    pub fn open(root: &Path) -> io::Result<DiskStore> {
        DiskStore::open_with(root, None, FaultInjector::none())
    }

    /// Opens a store with a byte budget for the committed tier and a
    /// fault injector for chaos testing.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating the `cache/` and `jobs/` directories.
    pub fn open_with(
        root: &Path,
        budget: Option<u64>,
        chaos: Arc<FaultInjector>,
    ) -> io::Result<DiskStore> {
        fs::create_dir_all(root.join("cache"))?;
        fs::create_dir_all(root.join("jobs"))?;
        Ok(DiskStore {
            root: root.to_path_buf(),
            budget,
            chaos,
            pinned: Mutex::new(HashSet::new()),
        })
    }

    /// The configured byte budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// The committed artifact path for a key stem.
    pub fn cache_path(&self, stem: &str) -> PathBuf {
        self.root.join("cache").join(format!("{stem}.jsonl"))
    }

    /// The in-flight journal path for a key stem.
    pub fn job_journal_path(&self, stem: &str) -> PathBuf {
        self.root.join("jobs").join(format!("{stem}.jsonl"))
    }

    /// The job spec sidecar path for a key stem.
    pub fn job_spec_path(&self, stem: &str) -> PathBuf {
        self.root.join("jobs").join(format!("{stem}.job"))
    }

    /// Durably writes the job spec sidecar (unique temp file + rename +
    /// directory fsync), so a restarted server knows which trace file
    /// the spooled journal belongs to.
    ///
    /// # Errors
    ///
    /// Any I/O error from writing, renaming, or syncing (including an
    /// injected chaos fault).
    pub fn write_job_spec(&self, stem: &str, spec: &JobSpec) -> io::Result<()> {
        if let Some(fault) = self.chaos.spec_write_fault() {
            return Err(fault);
        }
        let body = JsonValue::Object(vec![
            ("schema".into(), JOB_SPEC_SCHEMA.into()),
            ("key".into(), spec.key.as_str().into()),
            ("trace".into(), spec.trace.display().to_string().into()),
        ])
        .to_string_compact();
        let path = self.job_spec_path(stem);
        let tmp = self
            .root
            .join("jobs")
            .join(format!("{stem}.job.{}.tmp", std::process::id()));
        fs::write(&tmp, format!("{body}\n"))?;
        fs::rename(&tmp, &path)?;
        sync_dir_of(&path)
    }

    /// Reads a job spec sidecar back.
    ///
    /// # Errors
    ///
    /// A description of what is unreadable or malformed.
    pub fn read_job_spec(path: &Path) -> Result<JobSpec, String> {
        let text = fs::read_to_string(path).map_err(|e| e.to_string())?;
        let v = JsonValue::parse(text.trim_end()).map_err(|e| e.to_string())?;
        if v.get("schema").and_then(JsonValue::as_str) != Some(JOB_SPEC_SCHEMA) {
            return Err(format!("not a {JOB_SPEC_SCHEMA} spec"));
        }
        let field = |name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("missing field '{name}'"))
        };
        Ok(JobSpec {
            key: field("key")?,
            trace: PathBuf::from(field("trace")?),
        })
    }

    /// Commits a completed job: atomically renames its journal from
    /// `jobs/` into `cache/`, fsyncs both directory entries, removes
    /// the spec sidecar, and runs an eviction pass if the tier now
    /// exceeds its budget. The just-committed entry is never evicted by
    /// its own commit.
    ///
    /// # Errors
    ///
    /// Any I/O error from the rename or the directory syncs (including
    /// an injected chaos fault); the journal stays in the spool,
    /// resumable.
    pub fn commit(&self, stem: &str) -> io::Result<EvictReport> {
        self.commit_entry(stem)?;
        Ok(self.enforce_budget(Some(stem)))
    }

    /// The durable half of [`DiskStore::commit`]: the rename, directory
    /// syncs, and spec-sidecar removal, *without* the eviction pass.
    /// Split out so the server can attribute commit latency and evict
    /// latency to separate lifecycle stages.
    ///
    /// # Errors
    ///
    /// As [`DiskStore::commit`].
    pub fn commit_entry(&self, stem: &str) -> io::Result<()> {
        if let Some(fault) = self.chaos.commit_fault() {
            return Err(fault);
        }
        let from = self.job_journal_path(stem);
        let to = self.cache_path(stem);
        fs::rename(&from, &to)?;
        sync_dir_of(&to)?;
        sync_dir_of(&from)?;
        let _ = fs::remove_file(self.job_spec_path(stem));
        Ok(())
    }

    /// Evicts least-recently-used committed entries until the tier fits
    /// its budget (no-op without one). `protect` is exempt, as are
    /// stems pinned by concurrent loads.
    pub fn enforce_budget(&self, protect: Option<&str>) -> EvictReport {
        let mut report = EvictReport::default();
        let Some(budget) = self.budget else {
            return report;
        };
        let mut entries = self.scan_cache_entries();
        let mut total: u64 = entries.iter().map(|e| e.1).sum();
        if total <= budget {
            return report;
        }
        // Oldest access first; stem breaks mtime ties deterministically.
        entries.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        let pinned = self
            .pinned
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone();
        for (stem, size, _) in entries {
            if total <= budget {
                break;
            }
            if protect == Some(stem.as_str()) || pinned.contains(&stem) {
                continue;
            }
            if fs::remove_file(self.cache_path(&stem)).is_ok() {
                total = total.saturating_sub(size);
                report.evicted += 1;
                report.evicted_bytes += size;
            }
        }
        report
    }

    /// Every committed entry as `(stem, size, mtime)`.
    fn scan_cache_entries(&self) -> Vec<(String, u64, SystemTime)> {
        let Ok(dir) = fs::read_dir(self.root.join("cache")) else {
            return Vec::new();
        };
        dir.filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "jsonl"))
            .filter_map(|e| {
                let stem = e.path().file_stem()?.to_str()?.to_owned();
                let meta = e.metadata().ok()?;
                let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                Some((stem, meta.len(), mtime))
            })
            .collect()
    }

    /// Bumps an entry's mtime to now, marking it most-recently-used.
    /// Best effort: a failed touch only weakens eviction ordering.
    fn touch(&self, path: &Path) {
        if let Ok(file) = fs::OpenOptions::new().append(true).open(path) {
            let _ = file.set_times(fs::FileTimes::new().set_modified(SystemTime::now()));
        }
    }

    /// Loads a committed entry, fully verified: integrity checksums
    /// (via the journal reader), the key re-derived from the stored
    /// header, and complete row coverage. A present-but-invalid entry
    /// is **evicted** and reported as a miss, so corruption degrades to
    /// a recomputation instead of a wrong answer. A hit is pinned for
    /// the duration of the read (eviction skips it) and touched as
    /// most-recently-used on the way out.
    pub fn load(&self, key: &str) -> Option<DesignGrid> {
        let stem = key_stem(key)?;
        self.chaos.load_delay();
        self.pinned
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(stem.to_owned());
        let _pin = PinGuard {
            store: self,
            stem: stem.to_owned(),
        };
        let path = self.cache_path(stem);
        if !path.exists() {
            return None;
        }
        let grid = read_journal(&path)
            .ok()
            .filter(|journal| {
                job_key(&journal.header) == key
                    && !journal.torn_tail
                    && journal.missing_rows().is_empty()
            })
            .and_then(|journal| grid_from_journal(&journal));
        match grid {
            Some(grid) => {
                self.touch(&path);
                Some(grid)
            }
            None => {
                // Self-healing: drop the bad entry; the next submission
                // recomputes and rewrites it.
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Every spool entry with a readable spec and an existing journal,
    /// as `(stem, spec)`, plus how many entries were healed: malformed
    /// specs and orphaned sidecars are removed — the spool self-heals
    /// rather than replaying garbage forever.
    ///
    /// # Errors
    ///
    /// Any I/O error from listing the spool directory.
    pub fn scan_jobs(&self) -> io::Result<(Vec<(String, JobSpec)>, u64)> {
        let (mut out, mut healed) = (Vec::new(), 0);
        for entry in fs::read_dir(self.root.join("jobs"))? {
            let path = entry?.path();
            if path.extension().is_none_or(|e| e != "job") {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()).map(str::to_owned) else {
                continue;
            };
            match Self::read_job_spec(&path) {
                Ok(spec)
                    if key_stem(&spec.key) == Some(stem.as_str())
                        && self.job_journal_path(&stem).exists() =>
                {
                    out.push((stem, spec));
                }
                _ => {
                    let _ = fs::remove_file(&path);
                    let _ = fs::remove_file(self.job_journal_path(&stem));
                    healed += 1;
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok((out, healed))
    }

    /// Sweeps the spool for leftovers a `kill -9` can strand: temp
    /// files from interrupted spec writes, and journals whose spec
    /// sidecar is gone (unresumable — the trace path is lost). Returns
    /// how many files were removed. Run at startup, before any job
    /// starts, so it never races a live writer.
    pub fn janitor(&self) -> u64 {
        let mut removed = 0;
        let Ok(dir) = fs::read_dir(self.root.join("jobs")) else {
            return 0;
        };
        for entry in dir.filter_map(Result::ok) {
            let path = entry.path();
            let tmp = path.extension().is_some_and(|e| e == "tmp");
            let orphan_journal = path.extension().is_some_and(|e| e == "jsonl")
                && path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .is_none_or(|stem| !self.job_spec_path(stem).exists());
            if (tmp || orphan_journal) && fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        removed
    }

    /// Removes a spool entry (journal + spec), e.g. after its trace
    /// digest stopped matching.
    pub fn discard_job(&self, stem: &str) {
        let _ = fs::remove_file(self.job_journal_path(stem));
        let _ = fs::remove_file(self.job_spec_path(stem));
    }

    /// Number of committed entries on disk.
    pub fn disk_entries(&self) -> usize {
        fs::read_dir(self.root.join("cache"))
            .map(|it| {
                it.filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "jsonl"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Bytes the committed tier currently occupies.
    pub fn disk_bytes(&self) -> u64 {
        self.scan_cache_entries().iter().map(|e| e.1).sum()
    }
}
