//! Network chaos over live sockets: slow-loris drips, mid-line
//! disconnects, and stalled readers from `vardelay-faults` against a
//! real server. The invariants: no worker ever wedges, each reader cuts
//! its partial-line connection at the deadline, write stalls surface as
//! counted `io_timeouts` (not hung threads), and a healthy client is
//! answered throughout every attack.

use std::time::{Duration, Instant};

use vardelay_serve::{
    serve, Client, Envelope, ErrorKind, Request, Response, ServeConfig, StatsReply,
};

const WAIT: Duration = Duration::from_secs(30);

fn chaos_config(io_timeout_ms: u64) -> ServeConfig {
    let mut config = ServeConfig::in_process();
    config.workers = 2;
    config.io_timeout = Duration::from_millis(io_timeout_ms);
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

/// One healthy round-trip, asserting the client is *answered* promptly
/// even while an attack floods another connection. A structured
/// `overloaded` shed is a prompt answer — that is backpressure working
/// as designed — so those are retried; anything else unexpected panics.
fn healthy_call(client: &mut Client, id: u64) -> StatsReply {
    let start = Instant::now();
    loop {
        let (_, response) = client
            .call(&envelope(id, Request::Stats))
            .expect("healthy client answered");
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "healthy client starved for {:?} during the attack",
            start.elapsed()
        );
        match response {
            Response::Stats(stats) => return stats,
            Response::Error(err) if err.kind == ErrorKind::Overloaded => {
                std::thread::sleep(Duration::from_millis(5));
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + WAIT;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A slow-loris connection (one byte every `gap`, never a newline) is
/// cut by its reader at the partial-line deadline (2 × the 150 ms IO
/// timeout) — long before the drip would finish — while a healthy
/// client on another connection is answered the whole time. The 10 ms
/// drip is faster than the reader's 25 ms read timeout, so no read ever
/// times out on it.
#[test]
fn a_slow_loris_is_reaped_while_healthy_clients_are_served() {
    for gap in [Duration::from_millis(50), Duration::from_millis(10)] {
        let handle = serve(chaos_config(150)).expect("bind");
        let addr = handle.addr();
        let mut client = Client::connect(addr).expect("connect");

        let line = "{\"op\":\"set_delay\",\"channel\":1,\"ps\":40.0,\"id\":77}".to_owned();
        let loris = std::thread::spawn(move || vardelay_faults::slow_loris(addr, &line, gap));

        let mut id = 1u64;
        wait_until("the reader to cut the slow-loris connection", || {
            id += 1;
            healthy_call(&mut client, id).reaped >= 1
        });
        loris
            .join()
            .expect("loris thread")
            .expect("loris strike IO");

        // The drip never formed a request line, so it was never counted
        // as one; the healthy client's traffic is all there is.
        let stats = healthy_call(&mut client, 9_000);
        assert_eq!(
            stats.parse_errors, 0,
            "a reaped partial line is not a parse ({gap:?} drip)"
        );
        assert!(stats.reaped >= 1);

        handle.shutdown();
        let report = handle.join();
        assert!(report.stats.reaped >= 1, "{gap:?} drip: {:?}", report.stats);
    }
}

/// A volley of mid-line disconnects (half a request, then a hard close)
/// leaves no wedged worker and no phantom request: the discarded
/// partials are never parsed, and a single-worker server still answers
/// immediately afterwards.
#[test]
fn mid_line_disconnects_never_wedge_a_single_worker_server() {
    let mut config = chaos_config(200);
    config.workers = 1; // a single wedged worker would hang the test
    let handle = serve(config).expect("bind");
    let addr = handle.addr();

    let line = "{\"op\":\"deskew\",\"bus\":8,\"seed\":3,\"id\":5}";
    for _ in 0..8 {
        vardelay_faults::mid_line_disconnect(addr, line).expect("strike IO");
    }

    let mut client = Client::connect(addr).expect("connect");
    let stats = healthy_call(&mut client, 1);
    assert_eq!(
        stats.requests, 1,
        "half-sent lines must not count as requests"
    );
    assert_eq!(stats.parse_errors, 0, "discarded partials are not parses");
    let (_, response) = client
        .call(&envelope(
            2,
            Request::SetDelay {
                channel: 2,
                ps: 33.0,
            },
        ))
        .expect("set_delay after the volley");
    assert!(matches!(response, Response::Delay(_)), "{response:?}");

    handle.shutdown();
    handle.join();
}

/// A stalled reader pipelines thousands of requests and never reads a
/// byte back. Once the kernel buffers fill, the server's writes hit the
/// write deadline: the connection is cut, `io_timeouts` counts it, and
/// — the real invariant — every worker survives to serve the healthy
/// client during and after the attack.
#[test]
fn a_stalled_reader_draws_io_timeouts_and_never_wedges_the_server() {
    let handle = serve(chaos_config(100)).expect("bind");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");

    // 150k one-line stats requests draw well over 10 MB of responses —
    // decisively past an autotuned loopback send buffer (tcp_wmem caps
    // at 4 MB) with the receive window pinned by the never-reading
    // client — so the server's writer must block and then hit the
    // write deadline. The hold keeps the socket open well past that
    // deadline: a client that closes early resets the blocked write
    // instead of timing it out.
    let line = "{\"op\":\"stats\"}".to_owned();
    let staller = std::thread::spawn(move || {
        vardelay_faults::stalled_reader(addr, &line, 150_000, Duration::from_secs(5))
    });

    let mut id = 1u64;
    wait_until("a write deadline to fire on the stalled connection", || {
        id += 1;
        healthy_call(&mut client, id).io_timeouts >= 1
    });
    staller
        .join()
        .expect("staller thread")
        .expect("staller strike IO");

    // Still fully serviceable after the attack.
    let (_, response) = client
        .call(&envelope(
            9_000,
            Request::SetDelay {
                channel: 0,
                ps: 25.0,
            },
        ))
        .expect("set_delay after the attack");
    assert!(matches!(response, Response::Delay(_)), "{response:?}");

    handle.shutdown();
    let report = handle.join();
    assert!(report.stats.io_timeouts >= 1, "{:?}", report.stats);
}
