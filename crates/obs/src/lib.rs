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
//!    (`BENCH_repro.json`) — one record per `repro` run — with a loader
//!    that also accepts the legacy single-object format, and the
//!    [`journal::GATES`] table of regression gates `repro compare` runs
//!    in CI.
//! 4. **Artifacts** ([`artifact`]): crash-safe stage-fsync-rename file
//!    publication and the FNV-1a content digest shared by repro
//!    checkpoints and the serve layer's calibration snapshots.
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
pub mod journal;
pub mod json;
pub mod metrics;

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

#[cfg(test)]
mod tests {
    use super::env_flag;

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
