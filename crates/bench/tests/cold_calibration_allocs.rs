//! The journal's `allocs_per_request` comes from one cold serial
//! calibration pass, so the `hotpath` gate's 1.1× allocation bound holds
//! a number that does not depend on scheduling. The pass reads the
//! process-wide pool counter, so it gets a test binary of its own: no
//! other test may simulate while it counts.

use vardelay_bench::cold_calibration_allocs;

#[test]
fn two_cold_calibration_passes_count_the_same_allocations() {
    vardelay_obs::set_enabled(true);
    let first = cold_calibration_allocs();
    assert!(first > 0, "a cold pool must allocate");
    assert_eq!(cold_calibration_allocs(), first);
}
