//! Durable-serving end to end (DESIGN.md §16): a server with a state
//! directory survives an unclean restart — snapshots restore the
//! calibration banks, the WAL replays programmed state and the dedup
//! window, the epoch bumps, and every answer after the restart is
//! byte-identical to the answer before it. A health transition saves
//! the channel's snapshot, so a quarantined channel stays out of
//! service across a restart instead of silently re-admitting itself.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use vardelay_backend::BackendKind;
use vardelay_serve::{
    serve, ChannelState, Client, Envelope, ErrorKind, Request, Response, ServeConfig, ServerHandle,
};

const WAIT: Duration = Duration::from_secs(60);

fn scratch(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("vardelay_restart_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(dir: &Path) -> ServeConfig {
    let mut config = ServeConfig::in_process();
    config.workers = 2;
    config.state_dir = Some(dir.to_path_buf());
    config
}

fn envelope(id: u64, request: Request) -> Envelope {
    Envelope {
        id: Some(id),
        deadline_ms: None,
        tenant: None,
        req_id: None,
        backend: None,
        request,
    }
}

/// Sends pre-rendered request lines sequentially and returns the raw
/// response lines exactly as they arrived — the unit of byte-identity.
fn wire_session(addr: SocketAddr, script: &[String]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::with_capacity(script.len());
    for request in script {
        writer.write_all(request.as_bytes()).expect("write");
        writer.write_all(b"\n").expect("write");
        writer.flush().expect("flush");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        lines.push(line.trim_end().to_owned());
    }
    lines
}

/// Every response carries the restart counter; byte-identity across a
/// restart is asserted modulo that one field.
fn strip_epoch(line: &str) -> String {
    match line.find(",\"server_epoch\":") {
        None => line.to_owned(),
        Some(start) => {
            // The field value is a bare integer, so the next `,` or `}`
            // past the key terminates it.
            let rest = &line[start + 1..];
            let end = rest.find([',', '}']).map_or(line.len(), |i| start + 1 + i);
            format!("{}{}", &line[..start], &line[end..])
        }
    }
}

fn wire_stats(client: &mut Client, id: u64) -> vardelay_serve::StatsReply {
    let (_, response) = client
        .call(&envelope(id, Request::Stats))
        .expect("a stats line");
    match response {
        Response::Stats(stats) => stats,
        other => panic!("expected stats, got {other:?}"),
    }
}

/// Simulates a crash-style stop: the listener drains but the handle is
/// dropped without `join()`, so the parting WAL compaction never runs
/// and the log is left for the next boot to replay.
fn stop_without_compaction(handle: ServerHandle, client: &mut Client, id: u64) {
    let (_, response) = client
        .call(&envelope(id, Request::Shutdown))
        .expect("draining");
    assert_eq!(response, Response::Draining);
    let addr = handle.addr();
    drop(handle);
    let deadline = Instant::now() + WAIT;
    while TcpStream::connect(addr).is_ok() {
        assert!(Instant::now() < deadline, "listener never closed");
        std::thread::sleep(Duration::from_millis(5));
    }
    // The drained workers have already answered every admitted request;
    // give their final WAL appends a beat to land before reopening.
    std::thread::sleep(Duration::from_millis(200));
}

/// The tentpole acceptance path: program delays with retry ids, stop
/// without compaction, restart on the same directory, and require (a)
/// banks restored from snapshots rather than recalibrated, (b) the WAL
/// replayed, (c) the epoch bumped, (d) retried requests answered from
/// the restored dedup window byte-identically, and (e) fresh solves
/// from the restored tables byte-identical to the pre-restart answers.
#[test]
fn warm_restart_replays_the_wal_and_answers_byte_identically() {
    let dir = scratch("warm");
    let targets: Vec<(usize, f64)> = (0..6).map(|ch| (ch, 24.0 + 7.5 * ch as f64)).collect();
    let script: Vec<String> = targets
        .iter()
        .enumerate()
        .map(|(i, &(channel, ps))| {
            envelope(i as u64 + 1, Request::SetDelay { channel, ps })
                .with_req_id(format!("w-{i}"))
                .to_value()
                .render()
        })
        .collect();
    let fresh: Vec<String> = targets
        .iter()
        .enumerate()
        .map(|(i, &(channel, ps))| {
            envelope(i as u64 + 1, Request::SetDelay { channel, ps })
                .to_value()
                .render()
        })
        .collect();

    // Cold server: program the bank, then stop uncleanly.
    let handle = serve(durable_config(&dir)).expect("bind cold");
    assert_eq!(handle.server_epoch(), 1, "first boot is epoch 1");
    let before = wire_session(handle.addr(), &script);
    for line in &before {
        assert!(
            line.contains("\"predicted_ps\""),
            "not a delay reply: {line}"
        );
        assert!(line.contains("\"server_epoch\":1"), "{line}");
    }
    let mut client = Client::connect(handle.addr()).expect("connect");
    let cold_stats = wire_stats(&mut client, 90);
    assert_eq!(cold_stats.server_epoch, 1);
    assert_eq!(cold_stats.banks_restored, 0, "nothing to restore cold");
    stop_without_compaction(handle, &mut client, 91);

    // Warm server on the same directory.
    let handle = serve(durable_config(&dir)).expect("bind warm");
    assert_eq!(handle.server_epoch(), 2, "restart bumps the epoch");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let stats = wire_stats(&mut client, 92);
    assert!(
        stats.banks_restored >= 1,
        "warm boot must restore the default bank: {stats:?}"
    );
    assert_eq!(
        stats.banks_recalibrated, 0,
        "uncorrupted snapshots must not force recalibration: {stats:?}"
    );
    assert!(
        stats.wal_records_replayed >= (targets.len() * 2) as u64,
        "six applies + six dedup records must replay: {stats:?}"
    );
    assert!(stats.restore_us > 0, "{stats:?}");

    // Retries with the original req_ids answer from the dedup window
    // that rode the WAL across the restart.
    let replayed = wire_session(handle.addr(), &script);
    for (old, new) in before.iter().zip(&replayed) {
        assert!(new.contains("\"server_epoch\":2"), "{new}");
        assert_eq!(
            strip_epoch(old),
            strip_epoch(new),
            "a replayed retry diverged from the original answer"
        );
    }
    let stats = wire_stats(&mut client, 93);
    assert_eq!(
        stats.dedup_hits,
        targets.len() as u64,
        "every retry must hit the restored window: {stats:?}"
    );

    // Fresh solves (no req_id) from the restored tables match too —
    // the restore really did bring back the calibrated bank.
    let solved = wire_session(handle.addr(), &fresh);
    for (old, new) in before.iter().zip(&solved) {
        assert_eq!(
            strip_epoch(old),
            strip_epoch(new),
            "a restored table solved differently than the original"
        );
    }

    // Clean drain compacts: the third boot restores from snapshots
    // alone, with nothing left in the log.
    handle.shutdown();
    handle.join();
    let handle = serve(durable_config(&dir)).expect("bind third");
    assert_eq!(handle.server_epoch(), 3);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let stats = wire_stats(&mut client, 94);
    assert!(stats.banks_restored >= 1, "{stats:?}");
    assert_eq!(
        stats.wal_records_replayed, 0,
        "a compacted log has nothing to replay: {stats:?}"
    );
    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Health state is part of the durable record: a quarantined channel
/// stays quarantined through LRU eviction and through a restart (the
/// snapshot restores it), rather than silently re-entering service on a
/// fresh health table. The transition itself saves the snapshot, so the
/// quarantine holds after an eviction and a clean drain, and after a
/// crash-shaped stop with no eviction and no compaction.
#[test]
fn quarantine_survives_eviction_and_restart() {
    vardelay_faults::set_enabled(true);
    for crash in [false, true] {
        let dir = scratch(if crash {
            "quarantine_crash"
        } else {
            "quarantine"
        });
        let mut config = durable_config(&dir);
        config.workers = 1;
        config.shards = 1;
        config.max_banks = 1;
        config.health_period = Some(Duration::from_millis(25));
        config.recalibrate = false; // quarantine is sticky, like the soak gate's red leg
        let handle = serve(config).expect("bind");
        let mut client = Client::connect(handle.addr()).expect("connect");

        // Build the tenant's bank, drift it grossly, wait for quarantine.
        let (_, response) = client
            .call(
                &envelope(
                    1,
                    Request::SetDelay {
                        channel: 3,
                        ps: 50.0,
                    },
                )
                .for_tenant("t-q"),
            )
            .expect("a response");
        assert!(matches!(response, Response::Delay(_)), "{response:?}");
        assert!(handle.inject_drift("t-q", 3, 40.0), "drift must land");
        let deadline = Instant::now() + WAIT;
        while handle.channel_state("t-q", 3) != ChannelState::Quarantined {
            assert!(Instant::now() < deadline, "never quarantined");
            std::thread::sleep(Duration::from_millis(5));
        }

        if crash {
            stop_without_compaction(handle, &mut client, 3);
        } else {
            // Evict t-q by touching another tenant through the cap-1
            // registry, then drain cleanly.
            let (_, response) = client
                .call(
                    &envelope(
                        2,
                        Request::SetDelay {
                            channel: 0,
                            ps: 30.0,
                        },
                    )
                    .for_tenant("t-b"),
                )
                .expect("a response");
            assert!(matches!(response, Response::Delay(_)), "{response:?}");
            let (_, response) = client.call(&envelope(3, Request::Shutdown)).expect("drain");
            assert_eq!(response, Response::Draining);
            handle.join();
        }

        // Restart with the supervisor off: whatever health the snapshots
        // restore is exactly what admission must enforce.
        let mut config = durable_config(&dir);
        config.workers = 1;
        config.max_banks = 8;
        let handle = serve(config).expect("bind warm");
        assert_eq!(
            handle.channel_state("t-q", 3),
            ChannelState::Quarantined,
            "the restart forgot the quarantine (crash-shaped stop: {crash})"
        );
        let mut client = Client::connect(handle.addr()).expect("connect");
        let (_, response) = client
            .call(
                &envelope(
                    4,
                    Request::SetDelay {
                        channel: 3,
                        ps: 50.0,
                    },
                )
                .for_tenant("t-q"),
            )
            .expect("a response");
        match response {
            Response::Error(err) => {
                assert_eq!(err.kind, ErrorKind::Unavailable, "{err:?}");
                assert!(err.detail.contains("quarantined"), "{}", err.detail);
            }
            other => panic!("quarantined channel served after restart: {other:?}"),
        }
        // Its healthy neighbors are back in service from the same snapshot.
        let (_, response) = client
            .call(
                &envelope(
                    5,
                    Request::SetDelay {
                        channel: 0,
                        ps: 30.0,
                    },
                )
                .for_tenant("t-q"),
            )
            .expect("a response");
        assert!(matches!(response, Response::Delay(_)), "{response:?}");

        handle.shutdown();
        handle.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The backend identity is part of the snapshot fingerprint: a warm
/// restart whose default backend differs from the one that wrote the
/// state directory must refuse every persisted table and calibrate the
/// flipped backend fresh — a Vernier table installed into the circuit
/// (or vice versa) would serve silently wrong delays. Flipping back
/// restores nothing either, but recalibrates to answers byte-identical
/// to the original cold boot.
#[test]
fn a_backend_flip_invalidates_snapshots_and_forces_recalibration() {
    let dir = scratch("backend_flip");
    let script: Vec<String> = [(2usize, 40.0f64), (5, 88.5)]
        .iter()
        .enumerate()
        .map(|(i, &(channel, ps))| {
            envelope(i as u64 + 1, Request::SetDelay { channel, ps })
                .to_value()
                .render()
        })
        .collect();

    // Cold boot on the circuit default: program, then stop uncleanly.
    let handle = serve(durable_config(&dir)).expect("bind cold");
    assert_eq!(handle.backend(), BackendKind::Circuit);
    let cold = wire_session(handle.addr(), &script);
    for line in &cold {
        assert!(
            line.contains("\"predicted_ps\""),
            "not a delay reply: {line}"
        );
    }
    let mut client = Client::connect(handle.addr()).expect("connect");
    stop_without_compaction(handle, &mut client, 10);

    // Same directory, default flipped to the Vernier: the circuit
    // snapshot's fingerprint no longer matches, so nothing restores and
    // the flipped bank calibrates from scratch.
    let mut config = durable_config(&dir);
    config.backend = BackendKind::Vernier;
    let handle = serve(config).expect("bind flipped");
    assert_eq!(handle.backend(), BackendKind::Vernier);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let stats = wire_stats(&mut client, 11);
    assert_eq!(
        stats.banks_restored, 0,
        "a circuit snapshot must never install under the vernier: {stats:?}"
    );
    assert!(
        stats.banks_recalibrated >= 1,
        "the flipped default must calibrate fresh: {stats:?}"
    );
    // And it really is the Vernier serving: tapless settings within the
    // 1 ps contract resolution.
    let (_, response) = client
        .call(&envelope(
            12,
            Request::SetDelay {
                channel: 2,
                ps: 40.0,
            },
        ))
        .expect("a response");
    match response {
        Response::Delay(reply) => {
            assert_eq!(reply.tap, 0, "the vernier has no tap mux");
            assert!(reply.error_ps.abs() <= 1.0, "{reply:?}");
        }
        other => panic!("expected a delay reply, got {other:?}"),
    }
    stop_without_compaction(handle, &mut client, 13);

    // Flip back to the circuit: the vernier's snapshots are refused the
    // same way, and the recalibrated circuit answers byte-identically
    // (modulo epoch) to the original cold boot.
    let handle = serve(durable_config(&dir)).expect("bind flipped back");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let stats = wire_stats(&mut client, 14);
    assert_eq!(
        stats.banks_restored, 0,
        "a vernier snapshot must never install under the circuit: {stats:?}"
    );
    assert!(stats.banks_recalibrated >= 1, "{stats:?}");
    let back = wire_session(handle.addr(), &script);
    for (old, new) in cold.iter().zip(&back) {
        assert_eq!(
            strip_epoch(old),
            strip_epoch(new),
            "the round-tripped circuit diverged from its cold boot"
        );
    }
    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The idempotency contract over live sockets: a duplicate `req_id` on
/// a *different connection* answers from the cache — even when the
/// tenant's quota bucket is empty, because dedup is checked before
/// admission — while shed responses are never cached, so a retry after
/// an `overloaded` really re-executes.
#[test]
fn duplicate_req_ids_answer_from_cache_across_connections() {
    let mut config = ServeConfig::in_process();
    config.workers = 2;
    config.quota_rps = Some(2.0);
    config.quota_burst = Some(1.0);
    let handle = serve(config).expect("bind");

    let request = envelope(
        7,
        Request::SetDelay {
            channel: 2,
            ps: 44.0,
        },
    )
    .for_tenant("hot")
    .with_req_id("once")
    .to_value()
    .render();

    // First connection executes and drains the burst allowance.
    let first = wire_session(handle.addr(), std::slice::from_ref(&request));
    assert!(first[0].contains("\"predicted_ps\""), "{}", first[0]);

    // Second connection, same req_id, empty bucket: the cached answer
    // comes back byte-identical without touching the quota.
    let second = wire_session(handle.addr(), std::slice::from_ref(&request));
    assert_eq!(first[0], second[0], "cached answer diverged");

    // A *new* req_id against the empty bucket is shed...
    let shed_request = envelope(
        8,
        Request::SetDelay {
            channel: 2,
            ps: 44.0,
        },
    )
    .for_tenant("hot")
    .with_req_id("shed")
    .to_value()
    .render();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let (_, response) = client.send_raw(&shed_request).expect("a response");
    match &response {
        Response::Error(err) => assert_eq!(err.kind, ErrorKind::Overloaded, "{err:?}"),
        other => panic!("empty bucket admitted a new req_id: {other:?}"),
    }

    // ...and the shed was not cached: once the bucket refills, the same
    // req_id executes for real.
    std::thread::sleep(Duration::from_millis(900));
    let (_, response) = client.send_raw(&shed_request).expect("a response");
    assert!(
        matches!(response, Response::Delay(_)),
        "shed response was wrongly cached: {response:?}"
    );

    let stats = wire_stats(&mut client, 95);
    assert_eq!(stats.dedup_hits, 1, "{stats:?}");

    handle.shutdown();
    handle.join();
}
