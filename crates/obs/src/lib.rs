//! Observability for the vardelay workspace — dependency-free, like
//! everything else here.
//!
//! Three layers, from hot to cold:
//!
//! 1. **Metrics** ([`metrics`]): process-wide named [`Counter`]s,
//!    streaming log₂-bucketed [`Histogram`]s (microsecond-scale by
//!    convention) and [`span`] timers that record into them on drop. All
//!    lock-free on the hot path (atomics only) and gated by
//!    [`enabled`] — instrumentation must never change experiment
//!    results, only describe them (pinned by
//!    `tests/runner_determinism.rs`).
//! 2. **JSON** ([`json`]): a hand-rolled [`json::Value`] with a compact
//!    renderer and a recursive-descent parser. The workspace has no
//!    `serde`; this is the one place JSON is read or written.
//! 3. **Journal** ([`journal`]): an append-only JSONL benchmark journal
//!    (`BENCH_repro.json`) — one record per `repro` run — and the
//!    [`journal::GATES`] table of regression gates `repro compare` runs
//!    in CI.
//! 4. **Artifacts** ([`artifact`]): crash-safe stage-fsync-rename file
//!    publication and the FNV-1a content digest shared by repro
//!    checkpoints and the serve layer's calibration snapshots.
//!
//! Beside them sit the workspace's one hash, [`Fingerprint`] (FNV-1a),
//! and its two environment readers: [`env_flag`] for on/off switches
//! and [`env_knob`] for the entry points' valued knobs.
//!
//! # Examples
//!
//! ```
//! use vardelay_obs as obs;
//!
//! obs::counter("doc.events").incr();
//! {
//!     let _span = obs::span("doc.work_us");
//!     // ... timed work ...
//! }
//! assert!(obs::counter("doc.events").get() >= 1);
//! ```

pub mod artifact;
pub mod fingerprint;
pub mod journal;
pub mod json;
pub mod metrics;

pub use fingerprint::Fingerprint;
pub use metrics::{
    counter, enabled, histogram, registry, set_enabled, snapshot, span, Counter, Histogram,
    HistogramSummary, Registry, Snapshot, Span,
};

/// Reads an on/off switch from the environment: `None` when `name` is
/// unset, `Some(false)` for `0`, `off` or `false`, and `Some(true)` for
/// any other value, including one that is not UTF-8.
pub fn env_flag(name: &str) -> Option<bool> {
    let raw = std::env::var_os(name)?;
    Some(!matches!(raw.to_str(), Some("0" | "off" | "false")))
}

/// Reads a valued knob from the environment: `Ok(None)` when `name` is
/// unset or blank, `Ok(Some(v))` when `parse` accepts the trimmed value,
/// and otherwise an error naming the knob, its value and what it
/// accepts (`expected`) — a malformed or out-of-range value is refused,
/// never swapped for the default.
pub fn env_knob<T>(
    name: &str,
    expected: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let Some(raw) = std::env::var_os(name) else {
        return Ok(None);
    };
    let lossy = raw.to_string_lossy();
    let value = lossy.trim();
    if value.is_empty() {
        return Ok(None);
    }
    // A value that is not UTF-8 parses as nothing.
    raw.to_str()
        .and_then(|_| parse(value))
        .map(Some)
        .ok_or_else(|| format!("{name}={value:?} is refused: expected {expected}"))
}

/// [`env_knob`] for the commonest range: an integer above zero.
pub fn env_positive<T: std::str::FromStr + PartialOrd + Default>(
    name: &str,
) -> Result<Option<T>, String> {
    env_knob(name, "a positive integer", |raw| {
        raw.parse().ok().filter(|n| *n > T::default())
    })
}

#[cfg(test)]
mod tests {
    use super::{env_flag, env_positive};

    #[test]
    fn env_knob_reads_unset_and_blank_as_none_and_refuses_what_does_not_parse() {
        let name = format!("VARDELAY_OBS_KNOB_TEST_{}", std::process::id());
        assert_eq!(env_positive::<u64>(&name), Ok(None));
        std::env::set_var(&name, "  ");
        assert_eq!(env_positive::<u64>(&name), Ok(None));
        std::env::set_var(&name, " 42 ");
        assert_eq!(env_positive::<u64>(&name), Ok(Some(42)));
        for bad in ["abc", "0", "-1", "4.5"] {
            std::env::set_var(&name, bad);
            let refused = env_positive::<u64>(&name).unwrap_err();
            assert!(refused.contains(&format!("{name}={bad:?}")), "{refused}");
        }
        std::env::remove_var(&name);
    }

    #[test]
    fn env_flag_reads_unset_as_none_off_words_as_false_and_anything_else_as_true() {
        let name = format!("VARDELAY_OBS_FLAG_TEST_{}", std::process::id());
        assert_eq!(env_flag(&name), None, "unset");
        for (raw, expected) in [
            ("0", false),
            ("off", false),
            ("false", false),
            ("1", true),
            ("on", true),
            ("yes", true),
            ("true", true),
            ("", true),
            ("OFF", true),
        ] {
            std::env::set_var(&name, raw);
            assert_eq!(env_flag(&name), Some(expected), "{raw:?}");
        }
        #[cfg(unix)]
        {
            use std::os::unix::ffi::OsStringExt;
            std::env::set_var(&name, std::ffi::OsString::from_vec(vec![0xff, 0xfe]));
            assert_eq!(env_flag(&name), Some(true), "not UTF-8");
        }
        std::env::remove_var(&name);
    }
}
