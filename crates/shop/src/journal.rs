//! The write-ahead job journal.
//!
//! Every accepted job appends an `accept` line *before* any work
//! happens; every finished job (served, deadline-failed, or poisoned)
//! appends a `done` line. Each line carries a CRC-32 of its semantic
//! content, and replay stops at the first damaged line — the valid
//! prefix is the journal, exactly like the campaign checkpoints in
//! [`printed_netlist::resilience`].
//!
//! On startup [`Journal::open`] replays the file: jobs accepted but
//! never done are the crash's in-flight work, and the service re-enqueues
//! them (their campaigns resume from checkpoints). The journal is then
//! compacted — only pending accepts survive, rewritten through
//! [`atomic_replace`] — so it cannot grow without bound across restarts.
//!
//! Appends are unbuffered `write` calls: a line is in the operating
//! system before its job is queued, so it survives a killed process. It
//! is not synced to disk per append, so a power loss can drop the tail.

use crate::error::ShopError;
use printed_netlist::resilience::atomic_replace;
use printed_obs::crc::crc32;
use printed_obs::json::{self, Value};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// An append-only, CRC-per-line job journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
}

/// A job recovered from the journal at startup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredJob {
    /// The job's query key.
    pub query_key: u64,
    /// The canonical query line to re-parse and re-enqueue.
    pub canonical: String,
}

fn accept_crc(query_key: u64, canonical: &str) -> u32 {
    crc32(format!("accept|{query_key:016x}|{canonical}").as_bytes())
}

fn done_crc(query_key: u64) -> u32 {
    crc32(format!("done|{query_key:016x}").as_bytes())
}

impl Journal {
    /// Opens the journal at `dir/journal.jsonl`, replaying and
    /// compacting it. Returns the journal and the jobs that were
    /// accepted but never completed.
    ///
    /// # Errors
    ///
    /// Returns [`ShopError::Internal`] on I/O failure. A *damaged*
    /// journal is not an error: the valid prefix is used and the
    /// compaction rewrite discards the damage.
    pub fn open(dir: impl AsRef<Path>) -> Result<(Self, Vec<RecoveredJob>), ShopError> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir).map_err(|e| ShopError::Internal {
            message: format!("journal dir {}: {e}", dir.display()),
        })?;
        let path = dir.join("journal.jsonl");
        let pending = Self::replay(&path);

        // Compact: only pending accepts survive, atomically.
        let mut text = String::new();
        for job in &pending {
            text.push_str(&accept_line(job.query_key, &job.canonical));
        }
        atomic_replace(&path, text.as_bytes()).map_err(|e| ShopError::Internal {
            message: format!("journal compaction {}: {e}", path.display()),
        })?;
        let file = OpenOptions::new().append(true).open(&path).map_err(|e| {
            ShopError::Internal { message: format!("journal open {}: {e}", path.display()) }
        })?;
        Ok((Journal { path, file }, pending))
    }

    /// Scans the valid prefix of a journal file: accepts minus dones,
    /// in acceptance order.
    fn replay(path: &Path) -> Vec<RecoveredJob> {
        let Ok(text) = fs::read_to_string(path) else { return Vec::new() };
        let mut pending: Vec<RecoveredJob> = Vec::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let Ok(v) = json::parse(line) else { break };
            let Some(crc) =
                v.get("c").and_then(Value::as_str).and_then(|s| u32::from_str_radix(s, 16).ok())
            else {
                break;
            };
            let Some(qk) =
                v.get("qk").and_then(Value::as_str).and_then(|s| u64::from_str_radix(s, 16).ok())
            else {
                break;
            };
            match v.get("type").and_then(Value::as_str) {
                Some("accept") => {
                    let Some(canonical) = v.get("q").and_then(Value::as_str) else { break };
                    if accept_crc(qk, canonical) != crc {
                        break;
                    }
                    if !pending.iter().any(|j| j.query_key == qk) {
                        pending
                            .push(RecoveredJob { query_key: qk, canonical: canonical.to_string() });
                    }
                }
                Some("done") => {
                    if done_crc(qk) != crc {
                        break;
                    }
                    pending.retain(|j| j.query_key != qk);
                }
                _ => break,
            }
        }
        pending
    }

    /// Journals an accepted job before it is queued. On `Ok` the line is
    /// in the operating system: it survives a killed process, though not
    /// a power loss (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`ShopError::Internal`] when the append fails — the
    /// caller rejects the job rather than accept work it could lose.
    pub fn accept(&mut self, query_key: u64, canonical: &str) -> Result<(), ShopError> {
        self.append(&accept_line(query_key, canonical))
    }

    /// Journals a finished job (served, deadline-failed, or poisoned —
    /// anything that must not be replayed).
    ///
    /// # Errors
    ///
    /// Returns [`ShopError::Internal`] when the append fails.
    pub fn done(&mut self, query_key: u64) -> Result<(), ShopError> {
        self.append(&format!(
            "{{\"type\":\"done\",\"qk\":\"{query_key:016x}\",\"c\":\"{:08x}\"}}\n",
            done_crc(query_key)
        ))
    }

    fn append(&mut self, line: &str) -> Result<(), ShopError> {
        self.file.write_all(line.as_bytes()).map_err(|e| ShopError::Internal {
            message: format!("journal append {}: {e}", self.path.display()),
        })
    }
}

fn accept_line(query_key: u64, canonical: &str) -> String {
    format!(
        "{{\"type\":\"accept\",\"qk\":\"{query_key:016x}\",\"q\":{},\"c\":\"{:08x}\"}}\n",
        json::escape(canonical),
        accept_crc(query_key, canonical)
    )
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("printed-shop-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn pending_jobs_survive_reopen_and_done_jobs_do_not() {
        let dir = temp_dir("pending");
        {
            let (mut j, recovered) = Journal::open(&dir).unwrap();
            assert!(recovered.is_empty());
            j.accept(1, "{\"width\":4}").unwrap();
            j.accept(2, "{\"width\":8}").unwrap();
            j.done(1).unwrap();
        } // process "dies" here
        let (_, recovered) = Journal::open(&dir).unwrap();
        assert_eq!(
            recovered,
            vec![RecoveredJob { query_key: 2, canonical: "{\"width\":8}".to_string() }]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_and_compaction_heals_the_file() {
        let dir = temp_dir("torn");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.accept(5, "{\"width\":16}").unwrap();
        }
        // Simulate a torn final write: half an accept line.
        let path = dir.join("journal.jsonl");
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"type\":\"accept\",\"qk\":\"00000000000");
        fs::write(&path, &text).unwrap();

        let (_, recovered) = Journal::open(&dir).unwrap();
        assert_eq!(recovered.len(), 1, "valid prefix survives the torn tail");
        assert_eq!(recovered[0].query_key, 5);
        // The compacted file is whole again.
        let healed = fs::read_to_string(&path).unwrap();
        assert!(healed.lines().all(|l| json::parse(l).is_ok()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_crc_stops_replay_at_the_damage() {
        let dir = temp_dir("flip");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.accept(1, "a").unwrap();
            j.accept(2, "b").unwrap();
            j.accept(3, "c").unwrap();
        }
        let path = dir.join("journal.jsonl");
        let text = fs::read_to_string(&path).unwrap();
        // Corrupt the *second* line's canonical query but leave its CRC:
        // parsable JSON that fails the checksum.
        let lines: Vec<&str> = text.lines().collect();
        let damaged = lines[1].replace("\"q\":\"b\"", "\"q\":\"B\"");
        let rewritten = format!("{}\n{damaged}\n{}\n", lines[0], lines[2]);
        fs::write(&path, rewritten).unwrap();

        let (_, recovered) = Journal::open(&dir).unwrap();
        assert_eq!(recovered.len(), 1, "replay stops at the damaged line");
        assert_eq!(recovered[0].query_key, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stale_compaction_tmp_is_ignored_and_replaced() {
        let dir = temp_dir("stale-tmp");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.accept(7, "{\"width\":4}").unwrap();
        }
        // A kill between the compaction write and its rename leaves a
        // torn `.tmp` sibling beside the intact journal.
        let path = dir.join("journal.jsonl");
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, "{\"type\":\"accept\",\"qk\":\"00000000000").unwrap();

        let (_, recovered) = Journal::open(&dir).unwrap();
        assert_eq!(
            recovered,
            vec![RecoveredJob { query_key: 7, canonical: "{\"width\":4}".to_string() }],
            "replay reads the journal, never the leftover"
        );
        // The compaction replaced the journal whole and consumed the tmp.
        assert!(!tmp.exists());
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.lines().all(|l| json::parse(l).is_ok()));
        let _ = fs::remove_dir_all(&dir);
    }
}
