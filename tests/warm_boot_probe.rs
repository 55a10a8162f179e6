//! A warm boot checks every restored table with one sentinel probe at a
//! point all channels share (DESIGN.md §16), so a process whose
//! measurement memo is empty measures that one point, not one point per
//! channel. A binary of its own: it reads the process-wide memo
//! counters, which any other test in the same process would move.

use vardelay_analog::{clear_characterization_cache, memo_stats, set_memo_enabled};
use vardelay_serve::{serve, ServeConfig};

#[test]
fn a_warm_boot_measures_one_probe_point() {
    // The count below is of memo misses: with the memo off every probe
    // would measure on its own and the count would say nothing.
    set_memo_enabled(true);
    let mut dir = std::env::temp_dir();
    dir.push(format!("vardelay_warm_boot_probe_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ServeConfig::in_process();
    config.workers = 2;
    config.state_dir = Some(dir.clone());

    // The cold boot calibrates the default bank and snapshots it; the
    // clean drain leaves an empty log, so the warm boot replays nothing.
    let cold = serve(config.clone()).expect("bind cold");
    cold.shutdown();
    cold.join();

    clear_characterization_cache();
    let before = memo_stats().misses;
    let warm = serve(config.clone()).expect("bind warm");
    let measured = memo_stats().misses - before;
    warm.shutdown();
    let stats = warm.join().stats;
    assert!(stats.banks_restored >= 1, "nothing restored: {stats:?}");
    assert_eq!(stats.banks_recalibrated, 0, "{stats:?}");
    assert_eq!(
        measured, 1,
        "restoring {} channels measured {measured} points",
        config.channels
    );
    let _ = std::fs::remove_dir_all(&dir);
}
