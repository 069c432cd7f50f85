//! The durable job journal: why a `kill -9` cannot lose an accepted job.
//!
//! The daemon's contract is that an `accepted` frame is a promise — every
//! accepted job eventually produces its scorecard, bit-identical to the
//! `run_local` oracle. This module makes that promise survive the
//! process: an append-only record log under `--store-dir`, written
//! *before* the accept is acknowledged and fsynced record by record.
//!
//! # Format
//!
//! The file starts with an 8-byte magic ([`JOURNAL_MAGIC`]). Each record
//! is then:
//!
//! ```text
//! +----------------+--------------------+------------------+
//! | len (u32 BE)   | checksum (u64 BE)  | payload (JSON)   |
//! +----------------+--------------------+------------------+
//! ```
//!
//! where `checksum` is a seeded [`WordHash`] of the payload bytes. Two
//! record types exist: `accepted` (the job spec, priority and inject set,
//! keyed by the job-spec content hash [`job_hash`]) and `done` (the
//! job-id-independent scorecard body plus its outcome kind). The payload
//! is the same hand-rendered/hand-parsed JSON dialect as the wire
//! protocol — no new parser, no dependencies.
//!
//! # Recovery state machine
//!
//! On open, the whole file is replayed: an accepted hash with no matching
//! done record is **pending** (the daemon re-enqueues and re-runs it — the
//! scorecard is a pure function of the spec, so a re-run after a crash is
//! byte-identical, merely late); an accepted hash *with* a done record is
//! **completed** (the daemon can serve the stored card without
//! re-simulating, which is how a client resubmitting after a crash
//! dedupes instead of double-running). The first record that fails its
//! length, checksum or parse is a **torn tail** — everything before it is
//! kept, the tail is truncated away, and appends resume at the cut. A
//! file whose magic is wrong is rotated aside (`<name>.corrupt`) and a
//! fresh journal is started: a crash-safe daemon must boot from any disk
//! state. When the queue fully drains, the server calls
//! [`Journal::compact`] — every promise has been kept, so the log resets
//! to just its magic.

use super::protocol::{escape_json, JobSpec, Json, Priority, MAX_FRAME};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use valign_pipeline::WordHash;

/// First 8 bytes of every journal file.
///
/// Bumped whenever the done-record scorecard schema changes: a journal
/// written by an older version fails the magic check and is rotated
/// aside instead of serving cards in the old schema.
pub const JOURNAL_MAGIC: &[u8; 8] = b"VALIGNJ2";

/// File name of the journal inside a store directory.
pub const JOURNAL_FILE: &str = "serve.journal";

/// Cap on one record's payload, matching the wire frame cap — a record
/// stores at most one frame-sized scorecard plus small framing.
const MAX_RECORD: usize = MAX_FRAME;

/// Bytes of record framing ahead of the payload: length + checksum.
const RECORD_HEADER: usize = 12;

/// Domain-separation seed of the per-record payload checksum.
const RECORD_HASH_SEED: u64 = 0x7661_6c69_676e_0006;

/// Domain-separation seed of [`job_hash`].
const JOB_HASH_SEED: u64 = 0x7661_6c69_676e_0007;

/// The job-spec content hash the journal (and the daemon's dedup maps)
/// key by: every field that affects the scorecard *body* — spec fields
/// and the inject set — and nothing that does not (priority, client,
/// job id). Equal hashes therefore mean byte-identical scorecard bodies,
/// which is what makes serving a stored card in place of a re-run sound.
pub fn job_hash(spec: &JobSpec, inject: &[String]) -> u64 {
    let mut h = WordHash::new(JOB_HASH_SEED);
    for field in [&spec.kernel, &spec.variant, &spec.config, &spec.realign] {
        h.write_u64(field.len() as u64);
        h.write_bytes(field.as_bytes());
    }
    h.write_u64(spec.execs as u64);
    h.write_u64(spec.seed);
    h.write_u64(inject.len() as u64);
    for s in inject {
        h.write_u64(s.len() as u64);
        h.write_bytes(s.as_bytes());
    }
    h.finish()
}

/// A journal I/O or consistency failure. The daemon treats these as a
/// WARN (durability degrades, service continues), never a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalError {
    /// The journal file involved.
    pub path: String,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "journal {}: {}", self.path, self.detail)
    }
}

impl std::error::Error for JournalError {}

/// One accepted-but-unfinished job recovered from (or headed into) the
/// journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingRecord {
    /// The job-spec content hash ([`job_hash`]).
    pub hash: u64,
    /// Queue priority the job was accepted at.
    pub priority: Priority,
    /// Fault-injection specs of the accepting submit.
    pub inject: Vec<String>,
    /// The job spec itself.
    pub spec: JobSpec,
}

/// One completed job's durable result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoneRecord {
    /// The job-spec content hash ([`job_hash`]).
    pub hash: u64,
    /// Outcome kind (`completed` / `degraded` / `quarantined`) for tally
    /// accounting on replayed serves.
    pub kind: String,
    /// The job-id-independent scorecard body
    /// ([`super::protocol::scorecard_body`]).
    pub card: String,
}

/// What [`Journal::open`] recovered from the file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Replay {
    /// Accepted jobs with no done record, in first-accepted order,
    /// deduplicated by hash. The daemon re-enqueues these.
    pub pending: Vec<PendingRecord>,
    /// Completed jobs, in journal order, deduplicated by hash. The
    /// daemon serves these without re-running.
    pub done: Vec<DoneRecord>,
    /// Bytes truncated off a torn tail (or the whole size of a rotated
    /// unrecognizable file). Zero for a clean open.
    pub torn_bytes: u64,
}

/// Monotonic journal counters, reported under `"journal"` in `/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Pending jobs recovered at open.
    pub recovered_pending: u64,
    /// Completed cards recovered at open.
    pub recovered_done: u64,
    /// Bytes truncated at open (torn tail or rotation).
    pub torn_bytes: u64,
    /// `accepted` records appended since open.
    pub appended_accepted: u64,
    /// `done` records appended since open.
    pub appended_done: u64,
    /// Drain compactions since open.
    pub compactions: u64,
}

/// The open journal file. All methods are `&mut self`; the server
/// serializes access behind a mutex.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    stats: JournalStats,
}

impl Journal {
    /// Opens (creating if absent) and replays the journal at `path`.
    /// Truncates a torn tail in place; rotates an unrecognizable file
    /// aside and starts fresh. Never refuses to boot over bad contents —
    /// only real I/O failure errors.
    pub fn open(path: impl AsRef<Path>) -> Result<(Journal, Replay), JournalError> {
        let path = path.as_ref().to_path_buf();
        let fail = |detail: String| JournalError {
            path: path.display().to_string(),
            detail,
        };
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(fail(format!("unreadable: {e}"))),
        };
        let mut replay = Replay::default();
        let mut fresh = bytes.is_empty();
        if !fresh && !bytes.starts_with(JOURNAL_MAGIC) {
            // Not a journal at all. Preserve it for post-mortem and boot
            // with a fresh log; losing durability history beats refusing
            // to serve.
            let aside = path.with_extension("journal.corrupt");
            if std::fs::rename(&path, &aside).is_err() {
                let _ = std::fs::remove_file(&path);
            }
            replay.torn_bytes = bytes.len() as u64;
            fresh = true;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| fail(format!("cannot open: {e}")))?;
        if fresh {
            file.set_len(0)
                .and_then(|()| file.seek(SeekFrom::Start(0)).map(|_| ()))
                .and_then(|()| file.write_all(JOURNAL_MAGIC))
                .and_then(|()| file.sync_data())
                .map_err(|e| fail(format!("cannot initialize: {e}")))?;
            let mut journal = Journal {
                file,
                path,
                stats: JournalStats::default(),
            };
            journal.stats.torn_bytes = replay.torn_bytes;
            return Ok((journal, replay));
        }

        let good_end = replay_records(&bytes, &mut replay);
        if (good_end as u64) < bytes.len() as u64 {
            replay.torn_bytes = bytes.len() as u64 - good_end as u64;
            file.set_len(good_end as u64)
                .and_then(|()| file.sync_data())
                .map_err(|e| fail(format!("cannot truncate torn tail: {e}")))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| fail(format!("cannot seek: {e}")))?;
        let stats = JournalStats {
            recovered_pending: replay.pending.len() as u64,
            recovered_done: replay.done.len() as u64,
            torn_bytes: replay.torn_bytes,
            ..JournalStats::default()
        };
        Ok((Journal { file, path, stats }, replay))
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Counter snapshot.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// Durably appends one accepted job. Must complete before the
    /// daemon's `accepted` frame is sent — the write *is* the promise.
    pub fn append_accepted(&mut self, record: &PendingRecord) -> Result<(), JournalError> {
        let inject: Vec<String> = record
            .inject
            .iter()
            .map(|s| format!("\"{}\"", escape_json(s)))
            .collect();
        let payload = format!(
            "{{\"type\": \"accepted\", \"hash\": {}, \"priority\": \"{}\", \
             \"inject\": [{}], \"job\": {}}}",
            record.hash,
            record.priority.label(),
            inject.join(", "),
            record.spec.render(),
        );
        self.append(&payload)?;
        self.stats.appended_accepted += 1;
        Ok(())
    }

    /// Durably appends one completed job's scorecard body.
    pub fn append_done(&mut self, record: &DoneRecord) -> Result<(), JournalError> {
        let payload = format!(
            "{{\"type\": \"done\", \"hash\": {}, \"kind\": \"{}\", \"card\": \"{}\"}}",
            record.hash,
            escape_json(&record.kind),
            escape_json(&record.card),
        );
        self.append(&payload)?;
        self.stats.appended_done += 1;
        Ok(())
    }

    /// Resets the log to just its magic. Called when the queue fully
    /// drains: every accepted job has its done record, so the file's
    /// history is no longer owed to anyone.
    pub fn compact(&mut self) -> Result<(), JournalError> {
        let fail = |e: std::io::Error| JournalError {
            path: self.path.display().to_string(),
            detail: format!("cannot compact: {e}"),
        };
        self.file
            .set_len(JOURNAL_MAGIC.len() as u64)
            .map_err(fail)?;
        self.file
            .seek(SeekFrom::Start(JOURNAL_MAGIC.len() as u64))
            .map_err(fail)?;
        self.file.sync_data().map_err(fail)?;
        self.stats.compactions += 1;
        Ok(())
    }

    /// Frames, checksums, writes and fsyncs one payload.
    fn append(&mut self, payload: &str) -> Result<(), JournalError> {
        let fail = |detail: String| JournalError {
            path: self.path.display().to_string(),
            detail,
        };
        let bytes = payload.as_bytes();
        if bytes.len() > MAX_RECORD {
            return Err(fail(format!("record of {} bytes over cap", bytes.len())));
        }
        let mut framed = Vec::with_capacity(RECORD_HEADER + bytes.len());
        framed.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
        framed.extend_from_slice(&payload_checksum(bytes).to_be_bytes());
        framed.extend_from_slice(bytes);
        self.file
            .write_all(&framed)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| fail(format!("append failed: {e}")))
    }
}

/// Seeded checksum of one record payload.
fn payload_checksum(payload: &[u8]) -> u64 {
    let mut h = WordHash::new(RECORD_HASH_SEED);
    h.write_bytes(payload);
    h.finish()
}

/// Replays every well-formed record in `bytes` (which starts with a
/// valid magic) into `replay`, returning the offset just past the last
/// good record — the truncation point when a tail is torn.
fn replay_records(bytes: &[u8], replay: &mut Replay) -> usize {
    let mut offset = JOURNAL_MAGIC.len();
    let mut pending: Vec<PendingRecord> = Vec::new();
    let mut done: Vec<DoneRecord> = Vec::new();
    while offset < bytes.len() {
        let Some(record) = parse_record(&bytes[offset..]) else {
            break;
        };
        let (consumed, payload) = record;
        let Some(parsed) = interpret(&payload) else {
            break;
        };
        match parsed {
            Record::Accepted(rec) => {
                if !pending.iter().any(|p| p.hash == rec.hash) {
                    pending.push(rec);
                }
            }
            Record::Done(rec) => {
                if !done.iter().any(|d| d.hash == rec.hash) {
                    done.push(rec);
                }
            }
        }
        offset += consumed;
    }
    pending.retain(|p| !done.iter().any(|d| d.hash == p.hash));
    replay.pending = pending;
    replay.done = done;
    offset
}

/// One frame off the front of `rest`: `(bytes consumed, payload text)`,
/// or `None` when the frame is short, oversized or fails its checksum.
fn parse_record(rest: &[u8]) -> Option<(usize, String)> {
    if rest.len() < RECORD_HEADER {
        return None;
    }
    let len = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
    if len > MAX_RECORD || rest.len() < RECORD_HEADER + len {
        return None;
    }
    let mut checksum = [0u8; 8];
    checksum.copy_from_slice(&rest[4..12]);
    let payload = &rest[RECORD_HEADER..RECORD_HEADER + len];
    if payload_checksum(payload) != u64::from_be_bytes(checksum) {
        return None;
    }
    let text = std::str::from_utf8(payload).ok()?;
    Some((RECORD_HEADER + len, text.to_string()))
}

enum Record {
    Accepted(PendingRecord),
    Done(DoneRecord),
}

/// Parses one payload into a record; `None` (→ torn tail) on anything
/// that does not interpret, so a half-understood record never replays.
fn interpret(payload: &str) -> Option<Record> {
    let v = Json::parse(payload).ok()?;
    let hash = v.get("hash").and_then(Json::as_u64)?;
    match v.get("type").and_then(Json::as_str)? {
        "accepted" => {
            let priority = Priority::from_label(v.get("priority").and_then(Json::as_str)?)?;
            let inject = v
                .get("inject")
                .and_then(Json::as_array)?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()?;
            let spec = JobSpec::from_json(v.get("job")?).ok()?;
            Some(Record::Accepted(PendingRecord {
                hash,
                priority,
                inject,
                spec,
            }))
        }
        "done" => Some(Record::Done(DoneRecord {
            hash,
            kind: v.get("kind").and_then(Json::as_str)?.to_string(),
            card: v.get("card").and_then(Json::as_str)?.to_string(),
        })),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempFile(PathBuf);

    impl TempFile {
        fn new(tag: &str) -> TempFile {
            let path = std::env::temp_dir().join(format!(
                "valign-journal-{}-{tag}.journal",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(path.with_extension("journal.corrupt"));
            TempFile(path)
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
            let _ = std::fs::remove_file(self.0.with_extension("journal.corrupt"));
        }
    }

    fn spec(seed: u64) -> JobSpec {
        JobSpec {
            kernel: "luma8x8".to_string(),
            variant: "unaligned".to_string(),
            config: "4-way".to_string(),
            execs: 4,
            seed,
            realign: "equal-latency".to_string(),
        }
    }

    fn accepted(seed: u64) -> PendingRecord {
        let spec = spec(seed);
        let inject = vec!["bitflip:luma".to_string()];
        PendingRecord {
            hash: job_hash(&spec, &inject),
            priority: Priority::High,
            inject,
            spec,
        }
    }

    #[test]
    fn job_hash_tracks_exactly_the_scorecard_inputs() {
        let base = job_hash(&spec(7), &[]);
        assert_eq!(base, job_hash(&spec(7), &[]), "pure function");
        assert_ne!(base, job_hash(&spec(8), &[]), "seed matters");
        let mut other = spec(7);
        other.execs = 6;
        assert_ne!(base, job_hash(&other, &[]), "execs matter");
        assert_ne!(
            base,
            job_hash(&spec(7), &["panic:*".to_string()]),
            "inject set matters"
        );
        // Field-boundary ambiguity is hashed away by length prefixes.
        let mut a = spec(7);
        a.kernel = "luma8x8u".to_string();
        a.variant = "naligned".to_string();
        assert_ne!(base, job_hash(&a, &[]));
    }

    #[test]
    fn records_survive_reopen_and_done_retires_pending() {
        let tmp = TempFile::new("roundtrip");
        let (first, second) = (accepted(1), accepted(2));
        {
            let (mut journal, replay) = Journal::open(&tmp.0).expect("fresh open");
            assert_eq!(replay, Replay::default());
            journal.append_accepted(&first).expect("append");
            journal.append_accepted(&second).expect("append");
            journal
                .append_done(&DoneRecord {
                    hash: first.hash,
                    kind: "completed".to_string(),
                    card: "\"job\": \"luma8x8.unaligned\", \"cycles\": 42}".to_string(),
                })
                .expect("append done");
            let s = journal.stats();
            assert_eq!((s.appended_accepted, s.appended_done), (2, 1));
        }
        let (journal, replay) = Journal::open(&tmp.0).expect("reopen");
        assert_eq!(replay.pending, vec![second.clone()]);
        assert_eq!(replay.done.len(), 1);
        assert_eq!(replay.done[0].hash, first.hash);
        assert!(replay.done[0].card.ends_with("\"cycles\": 42}"));
        assert_eq!(replay.torn_bytes, 0);
        let s = journal.stats();
        assert_eq!((s.recovered_pending, s.recovered_done), (1, 1));
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume() {
        let tmp = TempFile::new("torn");
        {
            let (mut journal, _) = Journal::open(&tmp.0).expect("fresh");
            journal.append_accepted(&accepted(1)).expect("append");
        }
        let clean_len = std::fs::metadata(&tmp.0).expect("meta").len();
        // A record that promises more bytes than exist — a crash mid-append.
        let mut bytes = std::fs::read(&tmp.0).expect("read");
        bytes.extend_from_slice(&[0, 0, 0, 99, 1, 2, 3]);
        std::fs::write(&tmp.0, &bytes).expect("tear");

        let (mut journal, replay) = Journal::open(&tmp.0).expect("reopen");
        assert_eq!(replay.torn_bytes, 7);
        assert_eq!(replay.pending.len(), 1, "records before the tear survive");
        assert_eq!(
            std::fs::metadata(&tmp.0).expect("meta").len(),
            clean_len,
            "the torn tail is physically gone"
        );
        journal
            .append_accepted(&accepted(2))
            .expect("append resumes");
        let (_, replay) = Journal::open(&tmp.0).expect("third open");
        assert_eq!(replay.pending.len(), 2);
        assert_eq!(replay.torn_bytes, 0);
    }

    #[test]
    fn checksum_catches_a_flipped_byte_mid_file() {
        let tmp = TempFile::new("bitflip");
        {
            let (mut journal, _) = Journal::open(&tmp.0).expect("fresh");
            journal.append_accepted(&accepted(1)).expect("append");
            journal.append_accepted(&accepted(2)).expect("append");
        }
        let mut bytes = std::fs::read(&tmp.0).expect("read");
        let flip_at = bytes.len() - 5; // inside the second record's payload
        bytes[flip_at] ^= 0x40;
        std::fs::write(&tmp.0, &bytes).expect("flip");
        let (_, replay) = Journal::open(&tmp.0).expect("reopen");
        assert_eq!(replay.pending.len(), 1, "good prefix survives");
        assert!(replay.torn_bytes > 0, "flipped record truncated");
    }

    #[test]
    fn unrecognizable_file_is_rotated_aside_not_fatal() {
        let tmp = TempFile::new("rotate");
        std::fs::write(&tmp.0, b"GARBAGE-NOT-A-JOURNAL").expect("junk");
        let (mut journal, replay) = Journal::open(&tmp.0).expect("boot anyway");
        assert_eq!(replay.torn_bytes, 21);
        assert!(replay.pending.is_empty());
        let aside = tmp.0.with_extension("journal.corrupt");
        assert_eq!(
            std::fs::read(&aside).expect("preserved"),
            b"GARBAGE-NOT-A-JOURNAL"
        );
        journal
            .append_accepted(&accepted(1))
            .expect("fresh log works");
    }

    #[test]
    fn previous_format_journal_is_rotated_aside() {
        let dir =
            std::env::temp_dir().join(format!("valign-journal-{}-old-magic", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("store dir");
        let path = dir.join(JOURNAL_FILE);
        // A well-formed record behind the previous format's magic.
        let mut old = b"VALIGNJ1".to_vec();
        old.extend_from_slice(&[0, 0, 0, 2]);
        old.extend_from_slice(&payload_checksum(b"{}").to_be_bytes());
        old.extend_from_slice(b"{}");
        std::fs::write(&path, &old).expect("old journal");
        let (_, replay) = Journal::open(&path).expect("boot anyway");
        let fresh = std::fs::read(&path).expect("fresh log");
        let aside = std::fs::read(dir.join("serve.journal.corrupt")).expect("preserved");
        std::fs::remove_dir_all(&dir).expect("cleanup");
        assert!(replay.pending.is_empty() && replay.done.is_empty());
        assert_eq!(replay.torn_bytes, old.len() as u64);
        assert_eq!(fresh, JOURNAL_MAGIC.to_vec());
        assert_eq!(aside, old);
    }

    #[test]
    fn compact_resets_to_magic_only() {
        let tmp = TempFile::new("compact");
        let (mut journal, _) = Journal::open(&tmp.0).expect("fresh");
        journal.append_accepted(&accepted(1)).expect("append");
        journal
            .append_done(&DoneRecord {
                hash: accepted(1).hash,
                kind: "completed".to_string(),
                card: "\"job\": \"x\"}".to_string(),
            })
            .expect("done");
        journal.compact().expect("compact");
        assert_eq!(journal.stats().compactions, 1);
        assert_eq!(
            std::fs::metadata(&tmp.0).expect("meta").len(),
            JOURNAL_MAGIC.len() as u64
        );
        journal.append_accepted(&accepted(2)).expect("append after");
        let (_, replay) = Journal::open(&tmp.0).expect("reopen");
        assert_eq!(replay.pending.len(), 1);
        assert!(replay.done.is_empty());
    }
}
