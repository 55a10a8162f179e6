//! Correctness oracles. Every output the benchmark times is also checked,
//! and a mismatch counts as a failed operation.

use vardelay_backend::{BackendSetting, CircuitBackend, DelayBackend};
use vardelay_core::ModelConfig;
use vardelay_runner::Runner;
use vardelay_serve::{DelayReply, Response, SERVE_SEED};
use vardelay_units::Time;

use crate::gen::{grid_ps, SetDelay, GRID_POINTS};

/// FNV-1a digest of `CalibrationTable::to_csv()` for a cold calibration of
/// the paper prototype at the serving seed, pinned from the seed commit.
pub const CALIBRATION_CSV_DIGEST: u64 = 0xcf99_bb22_4455_22c4;

/// FNV-1a digest of the `{:?}` rendering of all 14 experiment results of
/// the reproduction, pinned from the seed commit.
pub const FIGURES_DIGEST: u64 = 0x8cdd_e856_1dad_4bbc;

/// Allowed difference between a reply's `error_ps` and the direct solve's
/// predicted error. The server reports the error against each waiter's own
/// target in picoseconds, the backend against the batch target in
/// seconds; the two roundings differ in the last bits only.
const ERROR_PS_TOLERANCE: f64 = 1e-9;

/// The direct solve of every grid target on a freshly calibrated circuit
/// built the way a server bank channel is.
#[derive(Debug, Clone)]
pub struct SetDelayOracle {
    by_grid: Vec<BackendSetting>,
}

impl SetDelayOracle {
    /// Calibrates one reference channel and solves every grid target.
    ///
    /// # Panics
    ///
    /// Panics if a grid target is outside the calibrated range: the grid
    /// is part of the benchmark's definition and must be servable.
    pub fn new(runner: Runner) -> SetDelayOracle {
        let mut backend = CircuitBackend::new(&ModelConfig::paper_prototype(), SERVE_SEED);
        backend.calibrate_with(runner);
        let by_grid = (0..GRID_POINTS)
            .map(|k| {
                backend
                    .set_delay(Time::from_ps(grid_ps(k)))
                    .unwrap_or_else(|e| panic!("grid target {} ps: {e}", grid_ps(k)))
            })
            .collect();
        SetDelayOracle { by_grid }
    }

    /// Checks one `set_delay` reply line against the direct solve.
    /// Unbatched replies must match field for field; a batched reply must
    /// carry the operating point of some grid target, with its own
    /// channel and target echoed back.
    pub fn check(&self, line: &str, req: &SetDelay) -> Result<DelayReply, String> {
        let reply = match Response::parse(line) {
            Ok((_, Response::Delay(reply))) => reply,
            Ok((_, other)) => return Err(format!("expected a set_delay reply, got {other:?}")),
            Err(e) => return Err(format!("unparsable reply {line:?}: {e}")),
        };
        let ps = req.ps();
        if reply.channel != req.channel || reply.requested_ps != ps {
            return Err(format!(
                "reply echoes channel {} / {} ps, request was channel {} / {ps} ps",
                reply.channel, reply.requested_ps, req.channel
            ));
        }
        let same_point = |s: &BackendSetting| {
            reply.tap == s.tap
                && reply.dac_code == s.dac_code
                && reply.vctrl_mv == s.vctrl.as_mv()
                && reply.predicted_ps == s.predicted_delay.as_ps()
        };
        let expected = &self.by_grid[req.grid];
        let error_ok = (reply.error_ps - (reply.predicted_ps - ps)).abs() <= ERROR_PS_TOLERANCE;
        let ok = if reply.batched <= 1 {
            reply.batched == 1
                && same_point(expected)
                && (reply.error_ps - expected.predicted_error.as_ps()).abs() <= ERROR_PS_TOLERANCE
        } else {
            self.by_grid.iter().any(same_point) && error_ok
        };
        if ok {
            Ok(reply)
        } else {
            Err(format!(
                "reply {line:?} differs from the direct solve {expected:?} of {ps} ps"
            ))
        }
    }
}

impl SetDelayOracle {
    /// The unbatched reply a server gives `req` under `id`, rendered from
    /// the direct solve.
    pub fn reply_line(&self, req: &SetDelay, id: u64) -> String {
        let s = &self.by_grid[req.grid];
        let reply = DelayReply {
            channel: req.channel,
            requested_ps: req.ps(),
            tap: s.tap,
            dac_code: s.dac_code,
            vctrl_mv: s.vctrl.as_mv(),
            predicted_ps: s.predicted_delay.as_ps(),
            error_ps: s.predicted_delay.as_ps() - req.ps(),
            batched: 1,
        };
        Response::Delay(reply)
            .to_value(Some(id))
            .with("server_epoch", 1u64)
            .render()
    }
}

/// A reply line with its leading `"id":N,` removed, for comparing a
/// retry's reply to the original's byte for byte.
pub fn without_id(line: &str) -> &str {
    line.strip_prefix("{\"id\":")
        .and_then(|rest| rest.find(',').map(|comma| &rest[comma + 1..]))
        .unwrap_or(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stripped_and_nothing_else() {
        assert_eq!(without_id("{\"id\":17,\"ok\":true}"), "\"ok\":true}");
        assert_eq!(
            without_id("{\"id\":17,\"ok\":true}"),
            without_id("{\"id\":90210,\"ok\":true}")
        );
        assert_eq!(without_id("{\"ok\":true}"), "{\"ok\":true}");
    }
}
