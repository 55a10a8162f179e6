//! A reader thread that has exited must not keep its stack mapped until
//! the server drains. The check reads the process's `VmSize`, which
//! every thread's stack moves, so it gets a test binary of its own: no
//! other test's threads may come and go while it measures. Linux only,
//! where `/proc/self/status` reports it.
#![cfg(target_os = "linux")]

use vardelay_serve::{serve, Client, Envelope, Request, Response, ServeConfig};

/// The process's virtual size in kB.
fn vm_size_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmSize:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmSize line")
}

fn short_connection(addr: std::net::SocketAddr, id: u64) {
    let mut client = Client::connect(addr).expect("connect");
    let envelope = Envelope {
        id: Some(id),
        deadline_ms: None,
        tenant: None,
        req_id: None,
        backend: None,
        request: Request::Stats,
    };
    let (_, response) = client.call(&envelope).expect("stats answered");
    assert!(matches!(response, Response::Stats(_)), "{response:?}");
}

#[test]
fn closed_connections_release_their_reader_threads() {
    let mut config = ServeConfig::in_process();
    config.workers = 1;
    let handle = serve(config).expect("bind");
    let addr = handle.addr();

    // Warm up first, so one-time growth (allocator arenas, the first
    // reader stacks) lands before the baseline.
    for id in 0..20 {
        short_connection(addr, id);
    }
    let before = vm_size_kb();
    const CONNECTIONS: u64 = 300;
    for id in 0..CONNECTIONS {
        short_connection(addr, 1_000 + id);
    }
    let grown = vm_size_kb().saturating_sub(before);

    handle.shutdown();
    let report = handle.join();
    assert_eq!(report.stats.requests, 20 + CONNECTIONS);
    // Each reader's stack is 2 MiB, so 300 unreleased readers would grow
    // the process by ~600 MB; released ones are reused.
    assert!(
        grown < 64 * 1024,
        "{CONNECTIONS} closed connections grew VmSize by {grown} kB"
    );
}
