//! The reproduction harness: one function per paper figure/table.
//!
//! Every experiment in the paper's evaluation section has a function here
//! that regenerates its data from the behavioral model. The functions are
//! shared by three consumers:
//!
//! * the [`repro`](../repro/index.html) binary, which prints the same
//!   rows/series the paper reports (and writes CSVs under
//!   `target/repro/`), timing each experiment into its journal record;
//! * the standalone benchmark's `figures` workload, which times the
//!   whole reproduction from cold caches;
//! * the workspace integration tests, which assert the *shape* of each
//!   result (who wins, trends, crossovers) against the paper.
//!
//! See `DESIGN.md` §5 for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured records.

pub mod ablation;
pub mod backends_campaign;
pub mod checkpoint;
pub mod extensions;
pub mod eyes;
pub mod faults_campaign;
pub mod fine_delay;
pub mod injection;
pub mod restart;
pub mod serve_bench;
pub mod skew;
pub mod soak;

use vardelay_core::{CombinedDelayCircuit, ModelConfig};
use vardelay_runner::Runner;

/// Default seed used by every experiment so the published numbers are
/// reproducible run-to-run.
pub const EXPERIMENT_SEED: u64 = 20080310; // DATE'08 week

/// Returns the directory experiment CSVs are written to, creating it (and
/// any missing parents) if needed.
///
/// # Errors
///
/// Returns the underlying I/O error if the directory cannot be created —
/// callers report which experiment's output was lost and keep going
/// rather than crashing mid-run.
pub fn try_output_dir() -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::PathBuf::from("target/repro");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Returns the directory experiment CSVs are written to, creating it if
/// needed.
///
/// # Panics
///
/// Panics if the directory cannot be created; fallible callers should use
/// [`try_output_dir`].
pub fn output_dir() -> std::path::PathBuf {
    try_output_dir().expect("create target/repro")
}

/// Waveform-pool allocations of one cold calibration request: the
/// measurement memo is emptied, then the quiet paper prototype is
/// calibrated on [`Runner::serial`] on a freshly spawned thread, whose
/// thread-local pool starts empty. The count is the same on every call
/// and at every `VARDELAY_THREADS`, unlike the process-wide counter over
/// a parallel run, where every batch's fresh workers start with empty
/// pools. `repro` journals it as `allocs_per_request`.
///
/// The pool counts through the process-wide `waveform.pool_allocs`
/// counter, so obs must be recording and nothing else may simulate
/// while the pass runs.
pub fn cold_calibration_allocs() -> u64 {
    vardelay_analog::clear_characterization_cache();
    std::thread::spawn(|| {
        let allocs = || vardelay_obs::counter("waveform.pool_allocs").get();
        let before = allocs();
        CombinedDelayCircuit::new(&ModelConfig::paper_prototype().quiet(), EXPERIMENT_SEED)
            .calibrate_with(Runner::serial());
        allocs() - before
    })
    .join()
    .expect("the calibration pass does not panic")
}
