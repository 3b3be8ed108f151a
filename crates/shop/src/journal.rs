//! The write-ahead job journal.
//!
//! Every accepted job appends an `accept` record *before* any work
//! happens; every finished job (served, deadline-failed, or poisoned)
//! appends a `done` record. Both are lines of the workspace's one
//! CRC-checked record format ([`push_record`]; DESIGN.md §10), and
//! replay reads the file's valid prefix through [`read_records`], the
//! same path the campaign checkpoints in [`printed_netlist::resilience`]
//! take:
//!
//! ```text
//! {"type":"accept","qk":"9aee57741947929d","q":"{\"width\":4}","c":"…"}
//! {"type":"done","qk":"9aee57741947929d","c":"…"}
//! ```
//!
//! On startup [`Journal::open`] replays the file: jobs accepted but
//! never done are the crash's in-flight work, and the service re-enqueues
//! them (their campaigns resume from checkpoints). The journal is then
//! compacted — only pending accepts survive, rewritten through
//! [`RecordLog::create`] — so it cannot grow without bound across
//! restarts.
//!
//! Each append is one unbuffered write ([`RecordLog::append`]): a line
//! is in the operating system before its job is queued, so it survives a
//! killed process. It is not synced to disk per append, so a power loss
//! can drop the tail.

use crate::error::ShopError;
use printed_netlist::resilience::{push_record, read_records, Field, RecordKind, RecordLog};
use std::path::{Path, PathBuf};

/// A job accepted: its query key and canonical query line.
const ACCEPT: RecordKind = RecordKind { tag: "accept", fields: &["qk", "q"] };

/// A job finished: its query key.
const DONE: RecordKind = RecordKind { tag: "done", fields: &["qk"] };

/// An append-only, CRC-per-line job journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    log: RecordLog,
    /// The line being appended, reused across appends.
    line: String,
}

/// A job recovered from the journal at startup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredJob {
    /// The job's query key.
    pub query_key: u64,
    /// The canonical query line to re-parse and re-enqueue.
    pub canonical: String,
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
        let path = dir.as_ref().join("journal.jsonl");
        let pending = Self::replay(&path);

        // Compact: only pending accepts survive, atomically.
        let mut text = String::new();
        for job in &pending {
            push_record(
                &mut text,
                &ACCEPT,
                &[Field::Hex(job.query_key), Field::Str(&job.canonical)],
            );
        }
        let log = RecordLog::create(&path, text.as_bytes()).map_err(|e| ShopError::Internal {
            message: format!("journal compaction {}: {e}", path.display()),
        })?;
        Ok((Journal { path, log, line: String::new() }, pending))
    }

    /// The valid prefix of a journal file: accepts minus dones, in
    /// acceptance order.
    fn replay(path: &Path) -> Vec<RecoveredJob> {
        let mut pending: Vec<RecoveredJob> = Vec::new();
        for record in read_records(path, &[&ACCEPT, &DONE]) {
            let Ok(query_key) = u64::from_str_radix(&record.fields[0], 16) else { break };
            if record.tag == DONE.tag {
                pending.retain(|j| j.query_key != query_key);
            } else if !pending.iter().any(|j| j.query_key == query_key) {
                pending.push(RecoveredJob { query_key, canonical: record.fields[1].clone() });
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
        self.append(&ACCEPT, &[Field::Hex(query_key), Field::Str(canonical)])
    }

    /// Journals a finished job (served, deadline-failed, or poisoned —
    /// anything that must not be replayed).
    ///
    /// # Errors
    ///
    /// Returns [`ShopError::Internal`] when the append fails.
    pub fn done(&mut self, query_key: u64) -> Result<(), ShopError> {
        self.append(&DONE, &[Field::Hex(query_key)])
    }

    fn append(&mut self, kind: &RecordKind, fields: &[Field<'_>]) -> Result<(), ShopError> {
        self.line.clear();
        push_record(&mut self.line, kind, fields);
        self.log.append(self.line.as_bytes()).map_err(|e| ShopError::Internal {
            message: format!("journal append {}: {e}", self.path.display()),
        })
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use printed_obs::json;
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("printed-shop-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn journal_records_keep_their_bytes() {
        // Journals already on disk hold exactly these bytes, so the
        // encoders must keep writing them.
        let dir = temp_dir("bytes");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            let query = "{\"program\":\"loop:\\nHALT\\n\",\"tag\":\"a\tb\u{1}\"}";
            j.accept(0x9aee_5774_1947_929d, query).unwrap();
            j.done(0x1256_6672_26ac_bde2).unwrap();
        }
        let accept = r#"{"type":"accept","qk":"9aee57741947929d","q":"{\"program\":\"loop:\\nHALT\\n\",\"tag\":\"a\tb\u0001\"}","c":"59cbc417"}"#;
        let done = r#"{"type":"done","qk":"1256667226acbde2","c":"737592b1"}"#;
        let text = fs::read_to_string(dir.join("journal.jsonl")).unwrap();
        assert_eq!(text, format!("{accept}\n{done}\n"));
        let _ = fs::remove_dir_all(&dir);
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
