//! The serve layer's write-ahead log (DESIGN.md §16).
//!
//! One line per state-mutating event, appended *before* the response
//! leaves the socket:
//!
//! ```text
//! <hex16-digest> <compact JSON record>\n
//! ```
//!
//! The digest is FNV-1a over the raw JSON substring exactly as written
//! (not a re-rendering), so validation never depends on the parser
//! canonicalizing whitespace or key order. A `kill -9` can land
//! mid-append; [`Wal::open`] keeps the longest valid prefix, drops the
//! torn tail, and rewrites the truncated file through `write_atomic`
//! before reopening for append — replay then sees only records whose
//! responses may have reached a client.
//!
//! Two record kinds, both effects of a request:
//!
//! - [`WalRecord::Apply`] — a committed `set_delay` (the one request
//!   that mutates channel hardware state). Replay re-executes it
//!   through the restored tables, which is idempotent: programming the
//!   same picosecond target twice lands on the same tap/DAC codes.
//! - [`WalRecord::Dedup`] — a `req_id`-carrying response, logged so the
//!   idempotency window survives restart. Replay only re-seeds the
//!   dedup cache; it never re-executes.
//!
//! Tables and health states never enter the log: a channel's snapshot
//! is rewritten whenever either changes. Compaction therefore just
//! truncates the log once `VARDELAY_SERVE_WAL_COMPACT` records are
//! pending, dropping the programmed targets and dedup entries it held
//! (DESIGN.md §16 names both losses). Replay is idempotent, so a crash
//! at the `wal-compact` kill point, just before the truncation, is
//! harmless: the next boot replays the same records and arrives at the
//! same place. A line of a kind this build does not write fails to
//! parse, so recovery ends there exactly as it does at a torn tail.

use std::io::{self, Write};
use std::path::Path;

use vardelay_obs::artifact::{digest, write_atomic};
use vardelay_obs::json::Value;

/// One durable event.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A committed `set_delay`: re-executed on replay.
    Apply {
        /// Owning tenant (empty string = the default tenant).
        tenant: String,
        /// Channel index within the tenant's bank.
        channel: usize,
        /// The committed target, picoseconds. For a batched solve this
        /// is the last-write-wins target the bank actually programmed,
        /// not any individual waiter's ask.
        ps: f64,
    },
    /// A response cached for idempotent retries: re-seeds the dedup
    /// window on replay, never re-executes.
    Dedup {
        /// Owning tenant.
        tenant: String,
        /// The client-chosen idempotency key.
        req_id: String,
        /// The response, rendered as its wire JSON (without an `id` —
        /// the retry's own id is spliced in when it is replayed).
        response: String,
    },
}

impl WalRecord {
    fn to_json(&self) -> String {
        match self {
            WalRecord::Apply {
                tenant,
                channel,
                ps,
            } => Value::obj()
                .with("kind", "apply")
                .with("tenant", tenant.as_str())
                .with("channel", *channel as u64)
                .with("ps", *ps),
            WalRecord::Dedup {
                tenant,
                req_id,
                response,
            } => Value::obj()
                .with("kind", "dedup")
                .with("tenant", tenant.as_str())
                .with("req_id", req_id.as_str())
                .with("response", response.as_str()),
        }
        .render()
    }

    fn from_json(json: &str) -> Option<WalRecord> {
        let value = Value::parse(json).ok()?;
        let s = |field: &str| value.get(field).and_then(Value::as_str).map(str::to_owned);
        let n = |field: &str| value.get(field).and_then(Value::as_u64);
        match value.get("kind").and_then(Value::as_str)? {
            "apply" => Some(WalRecord::Apply {
                tenant: s("tenant")?,
                channel: n("channel")? as usize,
                ps: value.get("ps").and_then(Value::as_f64)?,
            }),
            "dedup" => Some(WalRecord::Dedup {
                tenant: s("tenant")?,
                req_id: s("req_id")?,
                response: s("response")?,
            }),
            _ => None,
        }
    }

    fn to_line(&self) -> String {
        let json = self.to_json();
        format!("{:016x} {json}\n", digest(&json))
    }

    /// Parses one line (without its trailing newline), verifying the
    /// digest against the raw JSON substring.
    fn from_line(line: &str) -> Option<WalRecord> {
        let (hex, json) = line.split_once(' ')?;
        let recorded = u64::from_str_radix(hex, 16).ok()?;
        if digest(json) != recorded {
            return None;
        }
        WalRecord::from_json(json)
    }
}

/// An open, append-mode WAL.
#[derive(Debug)]
pub struct Wal {
    file: std::fs::File,
    pending: u64,
}

impl Wal {
    /// Opens (creating) the log at `path`, validates every line, and
    /// repairs a torn tail in place. Returns the WAL, the intact
    /// records in append order, and how many torn/corrupt tail lines
    /// were dropped (also counted in `wal.torn_records_dropped`).
    ///
    /// Validation stops at the first bad line: a digest is per-record,
    /// but append order is the log's semantics — records *after* a torn
    /// one cannot be trusted to have been acknowledged in order, so the
    /// valid prefix is the recovery set.
    ///
    /// # Errors
    ///
    /// The underlying I/O error from reading, rewriting a repaired
    /// prefix, or opening for append.
    pub fn open(path: &Path) -> io::Result<(Wal, Vec<WalRecord>, usize)> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let mut records = Vec::new();
        let mut keep = 0usize;
        let mut dropped = 0usize;
        for line in text.split_inclusive('\n') {
            let parsed = line.strip_suffix('\n').and_then(WalRecord::from_line);
            match parsed {
                Some(record) => {
                    records.push(record);
                    keep += line.len();
                }
                None => {
                    // Everything from the first bad line on is dropped.
                    dropped = text[keep..].split_inclusive('\n').count();
                    break;
                }
            }
        }
        if dropped > 0 {
            write_atomic(path, &text[..keep])?;
            vardelay_obs::counter("wal.torn_records_dropped").add(dropped as u64);
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let pending = records.len() as u64;
        Ok((Wal { file, pending }, records, dropped))
    }

    /// Appends one record and flushes it to the OS. No per-record
    /// fsync: the threat model is process death (`kill -9` preserves
    /// OS-buffered writes) — DESIGN.md §16 spells out the power-loss
    /// window this trades away.
    ///
    /// # Errors
    ///
    /// The underlying I/O error from the write or flush.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        self.file.write_all(record.to_line().as_bytes())?;
        self.file.flush()?;
        self.pending += 1;
        vardelay_obs::counter("wal.records_appended").add(1);
        // The acknowledged-but-just-logged crash window: the record is
        // in the log, the response has not left the socket.
        vardelay_faults::kill_point("wal-append");
        Ok(())
    }

    /// Records appended (or recovered) since the last truncation —
    /// the compaction trigger.
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// Empties the log (compaction).
    ///
    /// # Errors
    ///
    /// The underlying I/O error from truncating the file.
    pub fn truncate(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.pending = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("vardelay_wal_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Apply {
                tenant: String::new(),
                channel: 3,
                ps: 52.5,
            },
            WalRecord::Apply {
                tenant: "acme".to_owned(),
                channel: 7,
                ps: 118.125,
            },
            WalRecord::Dedup {
                tenant: "acme".to_owned(),
                req_id: "retry-1".to_owned(),
                response: "{\"ok\":true,\"ps\":52.5}".to_owned(),
            },
            WalRecord::Dedup {
                tenant: "acme".to_owned(),
                req_id: "retry-2".to_owned(),
                response: "{\"error\":\"unavailable\"}".to_owned(),
            },
        ]
    }

    #[test]
    fn append_then_reopen_replays_in_order() {
        let dir = scratch("roundtrip");
        let path = dir.join("wal.log");
        let records = sample_records();
        {
            let (mut wal, replay, dropped) = Wal::open(&path).unwrap();
            assert!(replay.is_empty());
            assert_eq!(dropped, 0);
            for record in &records {
                wal.append(record).unwrap();
            }
            assert_eq!(wal.pending(), records.len() as u64);
        }
        let (wal, replay, dropped) = Wal::open(&path).unwrap();
        assert_eq!(replay, records);
        assert_eq!(dropped, 0);
        assert_eq!(
            wal.pending(),
            records.len() as u64,
            "recovered records still count toward the compaction trigger"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_tail_is_dropped_and_the_file_repaired() {
        let dir = scratch("torn");
        let path = dir.join("wal.log");
        {
            let (mut wal, _, _) = Wal::open(&path).unwrap();
            for record in sample_records() {
                wal.append(&record).unwrap();
            }
        }
        // Simulate a kill mid-append: lop off the last half-line.
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 9]).unwrap();
        let (mut wal, replay, dropped) = Wal::open(&path).unwrap();
        assert_eq!(replay, sample_records()[..3].to_vec());
        assert_eq!(dropped, 1);
        // The file was repaired in place: append after repair yields a
        // clean log again.
        wal.append(&sample_records()[3]).unwrap();
        let (_, replay, dropped) = Wal::open(&path).unwrap();
        assert_eq!(replay, sample_records());
        assert_eq!(dropped, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_flipped_bit_invalidates_that_record_and_its_suffix() {
        let dir = scratch("flip");
        let path = dir.join("wal.log");
        // A line whose digest holds but whose kind this build does not
        // write: the shape of an older log's `health` line.
        let json = r#"{"kind":"health","tenant":"acme","channel":7,"state":"quarantined"}"#;
        let unknown = format!("{:016x} {json}\n", digest(json));
        for flip in [true, false] {
            let _ = std::fs::remove_file(&path);
            {
                let (mut wal, _, _) = Wal::open(&path).unwrap();
                for record in sample_records() {
                    wal.append(&record).unwrap();
                }
            }
            let mut bytes = std::fs::read(&path).unwrap();
            // Record 2 goes bad (lines 0 and 1 intact): a bit flipped
            // inside its JSON, or the whole line swapped for the
            // unknown kind.
            let ends: Vec<usize> = bytes
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == b'\n')
                .map(|(i, _)| i + 1)
                .collect();
            if flip {
                bytes[ends[1] + 29] ^= 0x08;
            } else {
                bytes.splice(ends[1]..ends[2], unknown.bytes());
            }
            std::fs::write(&path, &bytes).unwrap();
            let (_, replay, dropped) = Wal::open(&path).unwrap();
            assert_eq!(replay, sample_records()[..2].to_vec());
            assert_eq!(dropped, 2, "the bad record and everything after it");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_resets_the_compaction_trigger() {
        let dir = scratch("truncate");
        let path = dir.join("wal.log");
        let (mut wal, _, _) = Wal::open(&path).unwrap();
        for record in sample_records() {
            wal.append(&record).unwrap();
        }
        wal.truncate().unwrap();
        assert_eq!(wal.pending(), 0);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        // The handle keeps appending cleanly after truncation.
        wal.append(&sample_records()[0]).unwrap();
        let (_, replay, dropped) = Wal::open(&path).unwrap();
        assert_eq!(replay, vec![sample_records()[0].clone()]);
        assert_eq!(dropped, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Tenants and req_ids are arbitrary client strings; the line codec
    // must survive quotes, JSON escapes, and unicode without ever
    // mis-digesting.
    proptest::proptest! {
        #[test]
        fn record_lines_round_trip_under_seeded_fuzz(seed in proptest::any::<u64>()) {
            let mut rng = proptest::TestRng::new(seed);
            let tenant: String = (0..rng.below(12))
                .map(|_| char::from_u32(0x20 + rng.below(0x250) as u32).unwrap_or('x'))
                .collect();
            let record = match rng.below(2) {
                0 => WalRecord::Apply {
                    tenant,
                    channel: rng.below(8) as usize,
                    ps: rng.below(1000) as f64 * 0.125,
                },
                _ => WalRecord::Dedup {
                    tenant,
                    req_id: format!("r-{}", rng.next_u64()),
                    response: "{\"a\":\"b \\\" c\\n\"}".to_owned(),
                },
            };
            let line = record.to_line();
            let parsed = WalRecord::from_line(line.strip_suffix('\n').unwrap());
            proptest::prop_assert_eq!(parsed, Some(record));
        }
    }
}
