//! Soak test for the hardened status server: many keep-alive clients
//! hammer a small-capped server, so accepts beyond the cap are shed
//! with `503` + `Retry-After`, then the server is shut down mid-run.
//! Every response a client manages to read must be complete and
//! byte-identical to the route body (no half-written responses across
//! shedding, request-limit closes or the shutdown drain), and the
//! drain must finish inside its deadline.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tincy_telemetry::{HttpClient, Response, ServerConfig, StatusServer};

/// Per-client outcome counters, aggregated by the main thread.
#[derive(Debug, Default)]
struct ClientTally {
    ok: u64,
    shed: u64,
    shed_without_retry_after: u64,
    truncated: u64,
    body_mismatch: u64,
    unexpected_status: u64,
}

fn client_loop(addr: std::net::SocketAddr, expected: &str, stop: &AtomicBool) -> ClientTally {
    let mut tally = ClientTally::default();
    while !stop.load(Ordering::Acquire) {
        let mut client = match HttpClient::connect(addr, Duration::from_secs(1)) {
            Ok(client) => client,
            Err(_) => {
                // Server gone (mid-run shutdown) or transient; back off.
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
        };
        // Keep-alive inner loop: reuse the connection until the server
        // closes it (request limit, shed, shutdown) or we are stopped.
        while !stop.load(Ordering::Acquire) {
            match client.get("/metrics") {
                Ok(response) if response.status == 200 => {
                    tally.ok += 1;
                    if response.body != expected {
                        tally.body_mismatch += 1;
                    }
                }
                Ok(response) if response.status == 503 => {
                    tally.shed += 1;
                    if response.header("retry-after").is_none() {
                        tally.shed_without_retry_after += 1;
                    }
                    // Shed responses close the connection; honor the
                    // advertised backoff (scaled down for test time).
                    std::thread::sleep(Duration::from_millis(2));
                    break;
                }
                Ok(_) => {
                    tally.unexpected_status += 1;
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                    // A half-written response: the failure this soak exists
                    // to catch.
                    tally.truncated += 1;
                    break;
                }
                Err(_) => break, // clean close / timeout: reconnect
            }
        }
    }
    tally
}

#[test]
fn soak_keep_alive_clients_survive_shedding_and_mid_run_shutdown() {
    // What a shared CI runner carries; the shed and drain assertions do
    // not depend on the count, only on the cap sitting well below it.
    let clients: usize = 16;
    let cap = clients / 4;
    let body: String = "tincy_soak_metric 1\n".repeat(200);
    let config = ServerConfig {
        max_connections: cap,
        max_requests_per_conn: 8,
        header_deadline: Duration::from_secs(1),
        io_timeout: Duration::from_secs(1),
        drain_deadline: Duration::from_secs(3),
        ..ServerConfig::default()
    };
    let route_body = body.clone();
    let mut server = StatusServer::bind_with(
        "127.0.0.1:0",
        vec![(
            "/metrics",
            Box::new(move || Response::ok("text/plain; charset=utf-8", route_body.clone())),
        )],
        config.clone(),
    )
    .expect("bind soak server");
    let addr = server.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..clients)
        .map(|i| {
            let stop = Arc::clone(&stop);
            let expected = body.clone();
            std::thread::Builder::new()
                .name(format!("soak-client-{i}"))
                .spawn(move || client_loop(addr, &expected, &stop))
                .expect("spawn soak client")
        })
        .collect();

    // Let the fleet pound the server, then pull the rug mid-run.
    std::thread::sleep(Duration::from_millis(300));
    let mid_run = server.stats();
    let drain_start = Instant::now();
    server.shutdown();
    let drain = drain_start.elapsed();

    stop.store(true, Ordering::Release);
    let mut total = ClientTally::default();
    for worker in workers {
        let tally = worker.join().expect("soak client must not panic");
        total.ok += tally.ok;
        total.shed += tally.shed;
        total.shed_without_retry_after += tally.shed_without_retry_after;
        total.truncated += tally.truncated;
        total.body_mismatch += tally.body_mismatch;
        total.unexpected_status += tally.unexpected_status;
    }
    let stats = server.stats();

    assert!(total.ok > 0, "no client ever got a response: {total:?}");
    assert_eq!(total.truncated, 0, "half-written responses: {total:?}");
    assert_eq!(total.body_mismatch, 0, "corrupted responses: {total:?}");
    assert_eq!(
        total.shed_without_retry_after, 0,
        "shed 503s must advertise Retry-After: {total:?}"
    );
    assert_eq!(total.unexpected_status, 0, "unexpected statuses: {total:?}");
    assert!(
        total.shed > 0 && stats.shed > 0,
        "cap {cap} under {clients} clients must shed (client view {}, server view {})",
        total.shed,
        stats.shed
    );
    assert!(
        mid_run.active <= cap,
        "active connections {} exceeded the cap {cap}",
        mid_run.active
    );
    assert!(
        drain <= config.drain_deadline + Duration::from_secs(2),
        "shutdown drain took {drain:?}, deadline {:?}",
        config.drain_deadline
    );
    assert_eq!(stats.active, 0, "connections leaked past the drain");
    assert!(stats.accepted > 0 && stats.requests > 0, "stats: {stats:?}");
}
