//! The calibration snapshot store behind warm restart (DESIGN.md §16).
//!
//! One plain-text file per `(tenant, channel)` under
//! `VARDELAY_SERVE_STATE_DIR`, published through the stage-fsync-rename
//! protocol from [`vardelay_obs::artifact`] so a crash mid-save leaves
//! either the previous complete snapshot or the new one — never a torn
//! file under the real name. The server writes a channel's snapshot
//! when its table or its health state changes and at no other time: a
//! fresh calibration at bank build, and a health round that moved the
//! channel's state or swapped in a rebuilt table. The file format is
//!
//! ```text
//! vardelay-snap-v1
//! fingerprint=<hex16>        circuit identity (model ⊕ seed ⊕ channels)
//! state=<wire health state>  healthy / probation / quarantined / recovering:<n>
//! vardelay-cal-v1            the table, bit-exact hex from
//! <vctrl-bits>,<delay-bits>  CalibrationTable::to_snapshot
//! ...
//! digest=<hex16>             FNV-1a over everything above
//! ```
//!
//! Loading is paranoid by design: a missing trailer, a digest mismatch
//! (torn write, bit flip, hand edit), an unparsable table, or a
//! fingerprint minted by a different circuit all reject the snapshot —
//! the caller falls back to a fresh calibration. Serving from a wrong
//! table is the one unrecoverable failure, so the store never repairs,
//! only refuses.
//!
//! Tenant names are arbitrary client strings (≤128 bytes, any
//! non-control content), so bank directories use a hex encoding of the
//! raw bytes (`t61636d65` for `acme`) rather than the name itself —
//! no separator collisions, no path traversal, fully reversible for
//! [`SnapshotStore::tenants`] enumeration.

use std::io;
use std::path::PathBuf;

use vardelay_core::CalibrationTable;
use vardelay_obs::artifact::{digest, sweep_stale_tmp, tmp_path};

use crate::health::ChannelState;

/// First line of every snapshot file; bump on layout changes.
pub const SNAP_SCHEMA: &str = "vardelay-snap-v1";

/// A successfully decoded per-channel snapshot.
#[derive(Debug, Clone)]
pub struct ChannelSnapshot {
    /// The health state the channel carried when the snapshot was
    /// written (quarantine survives restarts *and* LRU eviction).
    pub state: ChannelState,
    /// The calibration table, bit-identical to the one that was
    /// installed when the snapshot was saved.
    pub table: CalibrationTable,
}

/// Why a snapshot could not be loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// No snapshot file exists for this `(tenant, channel)`.
    Missing,
    /// The file exists but failed validation (torn trailer, digest
    /// mismatch, bad header, unparsable state or table). Carries a
    /// human-readable reason for logs and tests.
    Corrupt(String),
    /// The file is intact but was written for a different circuit
    /// (model config, bank seed, or channel count changed).
    FingerprintMismatch {
        /// The fingerprint recorded in the file.
        found: u64,
        /// The live circuit's fingerprint.
        want: u64,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Missing => write!(f, "no snapshot on disk"),
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
            SnapshotError::FingerprintMismatch { found, want } => write!(
                f,
                "snapshot fingerprint {found:016x} does not match live circuit {want:016x}"
            ),
        }
    }
}

/// The on-disk store: `<root>/epoch`, `<root>/wal.log`, and
/// `<root>/banks/t<hex-tenant>/ch<N>.snap`.
#[derive(Debug)]
pub struct SnapshotStore {
    root: PathBuf,
    fingerprint: u64,
}

fn tenant_key(tenant: &str) -> String {
    let mut key = String::with_capacity(1 + tenant.len() * 2);
    key.push('t');
    for b in tenant.as_bytes() {
        key.push_str(&format!("{b:02x}"));
    }
    key
}

fn tenant_from_key(key: &str) -> Option<String> {
    let hex = key.strip_prefix('t')?;
    if hex.len() % 2 != 0 {
        return None;
    }
    let mut bytes = Vec::with_capacity(hex.len() / 2);
    for pair in hex.as_bytes().chunks(2) {
        bytes.push(u8::from_str_radix(std::str::from_utf8(pair).ok()?, 16).ok()?);
    }
    String::from_utf8(bytes).ok()
}

/// Consumes one `\n`-terminated line from `*rest`, or `None` when no
/// newline remains (a torn header).
fn take_line<'a>(rest: &mut &'a str) -> Option<&'a str> {
    let (line, tail) = rest.split_once('\n')?;
    *rest = tail;
    Some(line)
}

fn encode_snapshot(fingerprint: u64, state: ChannelState, table: &CalibrationTable) -> String {
    let mut body = format!(
        "{SNAP_SCHEMA}\nfingerprint={fingerprint:016x}\nstate={}\n",
        state.to_wire()
    );
    body.push_str(&table.to_snapshot());
    let d = digest(&body);
    body.push_str(&format!("digest={d:016x}\n"));
    body
}

fn decode_snapshot(text: &str, want_fingerprint: u64) -> Result<ChannelSnapshot, SnapshotError> {
    let corrupt = |why: &str| SnapshotError::Corrupt(why.to_owned());
    // The digest trailer authenticates everything before it, so verify
    // it first: corruption anywhere must surface as *one* kind of
    // rejection, not as a confusing parse error further down.
    let Some((body, trailer)) = text.rsplit_once("digest=") else {
        return Err(corrupt("missing digest trailer"));
    };
    let recorded = u64::from_str_radix(trailer.trim_end_matches('\n'), 16)
        .map_err(|_| corrupt("unparsable digest trailer"))?;
    if digest(body) != recorded {
        return Err(corrupt("digest mismatch"));
    }
    let mut rest = body;
    if take_line(&mut rest) != Some(SNAP_SCHEMA) {
        return Err(corrupt("bad schema header"));
    }
    let found = take_line(&mut rest)
        .and_then(|l| l.strip_prefix("fingerprint="))
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(|| corrupt("bad fingerprint line"))?;
    if found != want_fingerprint {
        return Err(SnapshotError::FingerprintMismatch {
            found,
            want: want_fingerprint,
        });
    }
    let state = take_line(&mut rest)
        .and_then(|l| l.strip_prefix("state="))
        .and_then(ChannelState::from_wire)
        .ok_or_else(|| corrupt("bad state line"))?;
    let table = CalibrationTable::from_snapshot(rest)
        .map_err(|e| SnapshotError::Corrupt(format!("bad table: {e}")))?;
    Ok(ChannelSnapshot { state, table })
}

impl SnapshotStore {
    /// Opens (creating) the store rooted at `root`, sweeping any stale
    /// `.tmp` staging files a previous crash left behind. `fingerprint`
    /// is the live circuit's identity — snapshots recorded under any
    /// other fingerprint will refuse to load.
    ///
    /// # Errors
    ///
    /// The underlying I/O error from creating the directory tree or
    /// walking it for the sweep.
    pub fn open(root: impl Into<PathBuf>, fingerprint: u64) -> io::Result<SnapshotStore> {
        let root = root.into();
        std::fs::create_dir_all(root.join("banks"))?;
        sweep_stale_tmp(&root)?;
        Ok(SnapshotStore { root, fingerprint })
    }

    /// Where this store keeps its write-ahead log.
    pub fn wal_path(&self) -> PathBuf {
        self.root.join("wal.log")
    }

    /// Reads the restart counter, increments it, and persists it
    /// atomically; the first open of a fresh directory yields epoch 1.
    /// A garbled epoch file restarts the count rather than failing the
    /// boot — the epoch only has to be monotonic per state dir, and a
    /// client comparing epochs across corruption already knows the
    /// server restarted.
    ///
    /// # Errors
    ///
    /// The underlying I/O error from publishing the new epoch file.
    pub fn bump_epoch(&self) -> io::Result<u64> {
        let path = self.root.join("epoch");
        let prior = std::fs::read_to_string(&path)
            .ok()
            .and_then(|raw| raw.trim().parse::<u64>().ok())
            .unwrap_or(0);
        let epoch = prior.saturating_add(1);
        vardelay_obs::artifact::write_atomic(&path, &format!("{epoch}\n"))?;
        Ok(epoch)
    }

    fn channel_path(&self, tenant: &str, channel: usize) -> PathBuf {
        self.root
            .join("banks")
            .join(tenant_key(tenant))
            .join(format!("ch{channel}.snap"))
    }

    /// Persists one channel's table + health state. Hand-rolls the
    /// stage-fsync-rename sequence (rather than calling `write_atomic`)
    /// so the `snapshot-rename` kill point can land *between* staging
    /// and publication — the crash window the protocol exists to
    /// survive.
    ///
    /// # Errors
    ///
    /// The underlying I/O error from the staging write, the fsync, or
    /// the rename.
    pub fn save_channel(
        &self,
        tenant: &str,
        channel: usize,
        state: ChannelState,
        table: &CalibrationTable,
    ) -> io::Result<()> {
        let path = self.channel_path(tenant, channel);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let text = encode_snapshot(self.fingerprint, state, table);
        let tmp = tmp_path(&path);
        std::fs::write(&tmp, &text)?;
        // Staged but not yet published: dying here must leave the old
        // snapshot intact and only a `.tmp` for the next open to sweep.
        vardelay_faults::kill_point("snapshot-rename");
        match std::fs::File::open(&tmp).and_then(|f| f.sync_all()) {
            Ok(()) => {}
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
        }
        let published = std::fs::rename(&tmp, &path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        });
        if published.is_ok() {
            vardelay_obs::counter("persist.snapshots_saved").add(1);
        }
        published
    }

    /// Loads and validates one channel's snapshot.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Missing`] when no file exists,
    /// [`SnapshotError::Corrupt`] on any validation failure (counted in
    /// `persist.snapshots_corrupt`), [`SnapshotError::FingerprintMismatch`]
    /// when the file belongs to a different circuit.
    pub fn load_channel(
        &self,
        tenant: &str,
        channel: usize,
    ) -> Result<ChannelSnapshot, SnapshotError> {
        let path = self.channel_path(tenant, channel);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(SnapshotError::Missing),
            Err(e) => return Err(SnapshotError::Corrupt(format!("unreadable: {e}"))),
        };
        let decoded = decode_snapshot(&text, self.fingerprint);
        if matches!(decoded, Err(SnapshotError::Corrupt(_))) {
            vardelay_obs::counter("persist.snapshots_corrupt").add(1);
        }
        decoded
    }

    /// Tenants with at least one snapshot on disk, sorted so warm
    /// restart rebuilds banks in a deterministic order.
    pub fn tenants(&self) -> Vec<String> {
        let Ok(entries) = std::fs::read_dir(self.root.join("banks")) else {
            return Vec::new();
        };
        let mut tenants: Vec<String> = entries
            .flatten()
            .filter(|e| e.file_type().is_ok_and(|t| t.is_dir()))
            .filter_map(|e| tenant_from_key(&e.file_name().to_string_lossy()))
            .collect();
        tenants.sort();
        tenants
    }

    /// Channel indices with a snapshot file for `tenant`, sorted.
    pub fn channels_of(&self, tenant: &str) -> Vec<usize> {
        let Ok(entries) = std::fs::read_dir(self.root.join("banks").join(tenant_key(tenant)))
        else {
            return Vec::new();
        };
        let mut channels: Vec<usize> = entries
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                name.strip_prefix("ch")?.strip_suffix(".snap")?.parse().ok()
            })
            .collect();
        channels.sort_unstable();
        channels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_core::{CombinedDelayCircuit, ModelConfig};
    use vardelay_runner::Runner;

    fn scratch(name: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("vardelay_persist_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn calibrated_table() -> CalibrationTable {
        let mut circuit = CombinedDelayCircuit::new(&ModelConfig::paper_prototype(), 0x5e7e);
        circuit.calibrate_with(Runner::serial()).clone()
    }

    #[test]
    fn save_then_load_round_trips_bit_exactly() {
        let dir = scratch("roundtrip");
        let store = SnapshotStore::open(&dir, 0xfeed).unwrap();
        let table = calibrated_table();
        store
            .save_channel("acme", 3, ChannelState::Quarantined, &table)
            .unwrap();
        let snap = store.load_channel("acme", 3).unwrap();
        assert_eq!(snap.state, ChannelState::Quarantined);
        assert_eq!(
            snap.table.to_snapshot(),
            table.to_snapshot(),
            "restored table must be bit-identical"
        );
        assert_eq!(store.tenants(), vec!["acme".to_owned()]);
        assert_eq!(store.channels_of("acme"), vec![3]);
        assert_eq!(store.channels_of("ghost"), Vec::<usize>::new());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_default_tenant_and_odd_names_get_distinct_directories() {
        let dir = scratch("tenants");
        let store = SnapshotStore::open(&dir, 1).unwrap();
        let table = calibrated_table();
        for tenant in ["", "a/b", "..", "tenant with spaces"] {
            store
                .save_channel(tenant, 0, ChannelState::Healthy, &table)
                .unwrap();
        }
        let mut expected: Vec<String> = ["", "a/b", "..", "tenant with spaces"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        expected.sort();
        assert_eq!(store.tenants(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_is_detected_never_repaired() {
        let dir = scratch("corrupt");
        let store = SnapshotStore::open(&dir, 0xfeed).unwrap();
        let table = calibrated_table();
        store
            .save_channel("t", 0, ChannelState::Healthy, &table)
            .unwrap();
        let path = dir.join("banks").join(tenant_key("t")).join("ch0.snap");
        let good = std::fs::read_to_string(&path).unwrap();

        // Truncated tail (crash mid-write without the rename protocol).
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(matches!(
            store.load_channel("t", 0),
            Err(SnapshotError::Corrupt(_))
        ));

        // A single flipped bit anywhere in the body trips the digest.
        let mut flipped = good.clone().into_bytes();
        let mid = flipped.len() / 3;
        flipped[mid] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            store.load_channel("t", 0),
            Err(SnapshotError::Corrupt(_))
        ));

        // Intact file, wrong circuit.
        std::fs::write(&path, &good).unwrap();
        let other = SnapshotStore::open(&dir, 0xbeef).unwrap();
        assert!(matches!(
            other.load_channel("t", 0),
            Err(SnapshotError::FingerprintMismatch { .. })
        ));

        // Missing is its own, quieter case.
        assert!(matches!(
            store.load_channel("t", 9),
            Err(SnapshotError::Missing)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_flipped_bit_in_a_snapshot_is_caught() {
        // The property half of satellite #3 at the persistence layer: a
        // snapshot with any one corrupted byte either fails validation
        // or (for the rare flip inside the fingerprint hex that still
        // parses) reports a fingerprint mismatch — it never decodes to
        // a *different* table than the one saved.
        let table = calibrated_table();
        let good = encode_snapshot(0xfeed, ChannelState::Probation, &table);
        let reference = table.to_snapshot();
        let step = (good.len() / 97).max(1);
        for idx in (0..good.len()).step_by(step) {
            let mut bytes = good.clone().into_bytes();
            bytes[idx] ^= 0x04;
            let Ok(text) = String::from_utf8(bytes) else {
                continue;
            };
            match decode_snapshot(&text, 0xfeed) {
                Err(_) => {}
                Ok(snap) => {
                    // The only acceptable "success" after a flip would
                    // be a collision that decodes the identical bytes —
                    // FNV over ~1 KiB makes this astronomically
                    // unlikely; byte-compare to be sure.
                    assert_eq!(
                        snap.table.to_snapshot(),
                        reference,
                        "flip at byte {idx} decoded a different table"
                    );
                }
            }
        }
    }

    #[test]
    fn epoch_is_monotonic_per_directory() {
        let dir = scratch("epoch");
        let store = SnapshotStore::open(&dir, 7).unwrap();
        assert_eq!(store.bump_epoch().unwrap(), 1);
        assert_eq!(store.bump_epoch().unwrap(), 2);
        // A reopened store continues the count; a garbled file restarts
        // it instead of failing the boot.
        let reopened = SnapshotStore::open(&dir, 7).unwrap();
        assert_eq!(reopened.bump_epoch().unwrap(), 3);
        std::fs::write(dir.join("epoch"), "not a number").unwrap();
        assert_eq!(reopened.bump_epoch().unwrap(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
