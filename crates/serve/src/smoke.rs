//! Smoke and scrape checks over a finished [`run_load`](crate::run_load)
//! session — what `tincy serve --smoke` and `--slo-smoke` exit nonzero
//! on, and what the integration suites assert. Every check returns its
//! one-line `ok` summary, or the violated invariant.

use crate::fleet::FleetReport;
use crate::load::LoadReport;
use crate::metrics::ServeReport;
use crate::request::SloClass;
use std::net::SocketAddr;
use std::time::Duration;
use tincy_telemetry::{check_histogram_series, http_get, parse_prometheus, PromSample};
use tincy_trace::Trace;

/// Returns the formatted violation from the enclosing check unless the
/// condition holds.
macro_rules! ensure {
    ($holds:expr, $($violation:tt)+) => {
        let holds: bool = $holds;
        if !holds {
            return Err(format!($($violation)+));
        }
    };
}

/// GETs `path` on a connection of its own, retrying with exponential
/// backoff while the connection cap sheds the scrape: with a 503, or past
/// the server's shed ceiling by closing unanswered. Any other non-200 is
/// fatal.
fn scrape_get(addr: SocketAddr, path: &str) -> Result<String, String> {
    use std::io::ErrorKind::{ConnectionAborted, ConnectionReset};
    let mut backoff = Duration::from_millis(5);
    for _ in 0..10 {
        match http_get(addr, path) {
            Ok((200, body)) => return Ok(body),
            Ok((503, _)) => {}
            Err(e) if matches!(e.kind(), ConnectionAborted | ConnectionReset) => {}
            Ok((status, _)) => return Err(format!("GET {path} returned {status}")),
            Err(e) => return Err(format!("GET {path}: {e}")),
        }
        std::thread::sleep(backoff);
        backoff *= 2;
    }
    Err(format!("GET {path}: still shed after 10 retries"))
}

/// Scrapes a running target's status endpoint `passes` times, one
/// connection per request (plus `/healthz`), asserting on every pass
/// that the exposition parses and its native-histogram series are well
/// formed, and between passes that no `_total` counter vanished or went
/// backwards. Returns the last sample set.
///
/// # Errors
///
/// The violated invariant, or the transport failure.
pub fn scrape(addr: SocketAddr, passes: usize) -> Result<Vec<PromSample>, String> {
    let mut last: Vec<PromSample> = Vec::new();
    for _ in 0..passes {
        let body = scrape_get(addr, "/metrics")?;
        let samples =
            parse_prometheus(&body).map_err(|e| format!("/metrics did not parse: {e}"))?;
        check_histogram_series(&samples)
            .map_err(|e| format!("/metrics histogram series malformed: {e}"))?;
        for sample in last.iter().filter(|s| s.name.ends_with("_total")) {
            let later = samples
                .iter()
                .find(|s| s.name == sample.name && s.labels == sample.labels)
                .ok_or_else(|| format!("{} vanished between scrapes", sample.name))?;
            ensure!(
                later.value >= sample.value,
                "counter {} went backwards: {} -> {}",
                sample.name,
                sample.value,
                later.value
            );
        }
        last = samples;
    }
    let health = scrape_get(addr, "/healthz")?;
    ensure!(health.contains("\"ok\":true"), "GET /healthz: {health}");
    Ok(last)
}

/// Looks up one sample's value by name and the label values it must carry.
fn find(samples: &[PromSample], name: &str, labels: &[(&str, String)]) -> Result<f64, String> {
    let carries = |s: &PromSample| {
        labels
            .iter()
            .all(|(key, value)| s.label(key) == Some(value))
    };
    samples
        .iter()
        .find(|s| s.name == name && carries(s))
        .map(|s| s.value)
        .ok_or_else(|| format!("scrape is missing {name} {labels:?}"))
}

/// One series a scrape is held to: its family and labels, the final
/// report's value, and whether the scrape may trail that value even
/// without canaries (a monitor kept counting after the scrape).
type Expected = (&'static str, Vec<(&'static str, String)>, u64, bool);

/// Every counter and histogram count of a fleet scrape, with the value
/// the final report holds for it.
fn expected(report: &FleetReport) -> Vec<Expected> {
    let monitors = [
        ("tincy_fleet_drains_total", report.drains),
        ("tincy_fleet_readmits_total", report.readmits),
        ("tincy_fleet_rerouted_total", report.rerouted),
        ("tincy_fleet_sheds_total", report.sheds),
        ("tincy_fleet_probes_total", report.probes),
    ];
    let mut out: Vec<Expected> = monitors
        .into_iter()
        .map(|(name, want)| (name, Vec::new(), want, true))
        .collect();
    for (shard, serve) in report.shards.iter().enumerate() {
        let of_shard = || vec![("shard", shard.to_string())];
        let with = |key, value: &str| [of_shard(), vec![(key, value.to_owned())]].concat();
        let counters = [
            ("tincy_fleet_routed_total", report.routed[shard]),
            ("tincy_serve_accepted_total", serve.accepted),
            ("tincy_serve_completed_total", serve.completed),
            ("tincy_serve_finn_items_total", serve.finn_items),
            ("tincy_serve_cpu_items_total", serve.cpu_items),
            ("tincy_serve_finn_batches_total", serve.finn_batches),
            ("tincy_serve_slo_violations_total", serve.slo_violations),
            ("tincy_serve_queue_depth_max", serve.max_depth as u64),
            (
                "tincy_serve_queue_wait_seconds_count",
                serve.queue_wait.count(),
            ),
            ("tincy_offload_forwards_total", serve.offload.forwards),
            ("tincy_offload_faults_total", serve.offload.faults),
            ("tincy_offload_retries_total", serve.offload.retries),
            ("tincy_offload_fallbacks_total", serve.offload.fallbacks),
            ("tincy_offload_degraded_total", serve.offload.degraded),
        ];
        let mut exact: Vec<_> = counters.map(|(name, want)| (name, of_shard(), want)).into();
        let reasons = [
            ("queue-full", serve.rejected_queue_full),
            ("client-full", serve.rejected_client_full),
            ("draining", serve.rejected_draining),
        ];
        let rejected =
            |(reason, want)| ("tincy_serve_rejected_total", with("reason", reason), want);
        exact.extend(reasons.map(rejected));
        for class in SloClass::ALL {
            let of_class = with("class", class.label());
            let rejected = serve.rejected_for(class);
            exact.push((
                "tincy_serve_rejected_class_total",
                of_class.clone(),
                rejected,
            ));
            let completed = serve.class(class).count();
            exact.push(("tincy_serve_latency_seconds_count", of_class, completed));
        }
        for (variant, name) in serve.variant_names.iter().enumerate() {
            let of_variant = with("variant", name);
            for class in SloClass::ALL {
                let labels = [
                    of_variant.clone(),
                    vec![("class", class.label().to_owned())],
                ];
                let want = serve.variant_requests[variant][class.index()];
                exact.push(("tincy_variant_requests_total", labels.concat(), want));
            }
            let items = serve.variant_items[variant];
            exact.push(("tincy_variant_items_total", of_variant.clone(), items));
            let swaps = serve.weight_swaps[variant];
            exact.push(("tincy_variant_weight_swaps_total", of_variant, swaps));
        }
        out.extend(
            exact
                .into_iter()
                .map(|(name, labels, want)| (name, labels, want, false)),
        );
        for (direction, want) in [("down", serve.shifts_down), ("up", serve.shifts_up)] {
            out.push((
                "tincy_variant_shifts_total",
                with("direction", direction),
                want,
                true,
            ));
        }
    }
    out
}

/// Holds a scrape of the fleet endpoint, taken after every client
/// collected its responses, to the final [`FleetReport`]: a live trace
/// recorder dropped nothing, the router families are there, and every
/// counter and histogram count agrees with the report, shard by shard.
/// Once the health monitor has sent canaries (`probes > 0`) the shards
/// keep counting until the drain, so the scrape is then only bounded by
/// the report; the monitors' own counters (router drains, re-admits,
/// re-routes, sheds and probes, ladder shifts) are always only bounded.
///
/// # Errors
///
/// The thread whose ring dropped events, or the first series that is
/// missing or disagrees.
pub fn check_scrape(samples: &[PromSample], report: &FleetReport) -> Result<String, String> {
    let lossy = samples
        .iter()
        .find(|s| s.name == "tincy_trace_dropped_total" && s.value > 0.0);
    if let Some(lossy) = lossy {
        return Err(format!(
            "the trace recorder dropped {} events on thread {:?}",
            lossy.value,
            lossy.label("thread").unwrap_or_default()
        ));
    }
    let shards = report.shards.len();
    let total = find(samples, "tincy_fleet_shards", &[])?;
    ensure!(
        total == shards as f64,
        "tincy_fleet_shards reports {total}, fleet has {shards}"
    );
    let exact = report.probes == 0;
    for (name, labels, want, trails) in expected(report) {
        let (got, want) = (find(samples, name, &labels)?, want as f64);
        ensure!(
            got == want || ((trails || !exact) && got < want),
            "scrape disagrees with the final report on {name} {labels:?}: \
             scraped {got}, report says {want}"
        );
    }
    for shard in 0..shards {
        find(
            samples,
            "tincy_fleet_shard_up",
            &[("shard", shard.to_string())],
        )?;
    }
    Ok(format!(
        "scrape: every shard's counters {} the final report",
        if exact { "match" } else { "are bounded by" }
    ))
}

/// The clients' half of the contract: something was admitted, every
/// admitted request was answered exactly once, each client in submission
/// order.
fn conserved(report: &LoadReport) -> Result<(), String> {
    ensure!(report.accepted() > 0, "no request was admitted");
    ensure!(
        report.dropped() == 0,
        "{} accepted requests were dropped",
        report.dropped()
    );
    ensure!(
        report.all_in_order(),
        "a client observed out-of-order delivery"
    );
    Ok(())
}

/// The smoke contract of every load run: conservation and per-client
/// order as the clients saw them, and no shard lost admitted work. A
/// `burst` run (the one pacing that fills the queues before dispatch
/// starts) must have formed a micro-batch; a run with a `faulted` shard
/// must have drained and re-admitted it, when the fleet had a second
/// shard to fail over to.
///
/// # Errors
///
/// The violated invariant.
pub fn check_smoke(report: &LoadReport, burst: bool, faulted: bool) -> Result<String, String> {
    let fleet = &report.target;
    let target = || {
        ensure!(
            fleet.lost() == 0,
            "shards lost {} admitted requests",
            fleet.lost()
        );
        ensure!(
            !burst || fleet.batched_invocations() > 0,
            "micro-batching never engaged (no batch larger than 1)"
        );
        ensure!(
            !faulted || fleet.shards.len() == 1 || (fleet.drains > 0 && fleet.readmits > 0),
            "a shard was faulted but the fleet recorded {} drains and {} readmits",
            fleet.drains,
            fleet.readmits
        );
        Ok(())
    };
    conserved(report)
        .and_then(|()| target())
        .map_err(|e| format!("smoke: {e}"))?;
    Ok("smoke: ok".to_owned())
}

/// Asserts the multi-variant invariants of a ladder run: several rungs
/// hosted, every admission and completion attributed to exactly one rung
/// (conservation: nothing lost or double-counted across shifts) and tight
/// traffic on a cheaper-or-equal rung than best-effort, on every shard.
///
/// # Errors
///
/// The violated invariant.
pub fn check_variant_smoke(report: &LoadReport) -> Result<String, String> {
    let ladder = |s: &ServeReport| {
        ensure!(
            s.variants() >= 2,
            "expected a multi-rung ladder, got {} rung(s)",
            s.variants()
        );
        let admitted: u64 = s.variant_requests.iter().flatten().sum();
        ensure!(
            admitted == s.accepted,
            "per-variant admissions {admitted} != accepted {}",
            s.accepted
        );
        let items: u64 = s.variant_items.iter().sum();
        ensure!(
            items == s.completed,
            "per-variant completions {items} != completed {}",
            s.completed
        );
        let [interactive, _, batch] = s.active_variant;
        ensure!(
            interactive <= batch,
            "interactive rung {interactive} above best-effort rung {batch}"
        );
        Ok(())
    };
    report
        .target
        .shards
        .iter()
        .try_for_each(ladder)
        .and_then(|()| conserved(report))
        .map_err(|e| format!("variant smoke: {e}"))?;
    Ok("variant smoke: ok".to_owned())
}

/// Asserts the fleet trace's per-request journeys: every
/// traced request must verify (stage events present and causally
/// ordered), and when admission rejections were re-dispatched and
/// admitted elsewhere, at least one delivered journey must carry spans
/// on two shards under a single trace id with its router→shard flow
/// intact.
///
/// # Errors
///
/// The journey that fails to verify, or the missing cross-shard journey.
pub fn check_fleet_trace(trace: &Trace, report: &FleetReport) -> Result<String, String> {
    let journeys = tincy_trace::journeys(trace);
    ensure!(
        !journeys.is_empty(),
        "fleet trace: no request-tagged events in the trace"
    );
    for journey in &journeys {
        journey.verify().map_err(|e| format!("fleet trace: {e}"))?;
    }
    let cross = journeys
        .iter()
        .filter(|j| j.delivered() && j.failovers > 0 && j.shards.len() >= 2 && j.flow_finished)
        .count();
    // More shard-side rejections than sheds alone can account for (a shed
    // collects one rejection from every shard) means at least one request
    // was refused by its owner and admitted by another shard — its
    // journey must span both.
    let rejections: u64 = report.shards.iter().map(ServeReport::rejected).sum();
    ensure!(
        cross > 0 || rejections <= report.sheds * report.shards.len() as u64,
        "fleet trace: rejections were re-dispatched, but no delivered journey \
         spans two shards under one trace id"
    );
    Ok(format!(
        "fleet trace: ok ({} journeys verified, {cross} delivered across >=2 shards with the \
         router flow intact)",
        journeys.len()
    ))
}

/// Asserts the burn-rate engine's behavior over one faulted run from the
/// fleet's aggregated `/metrics`: at least one `tincy_slo_alerts_total`
/// edge fired during the session, and every `tincy_slo_alert_active`
/// gauge is back to zero by the observation point (all clients served,
/// faulted shard re-admitted).
///
/// # Errors
///
/// The alert that never fired, or the ones still active.
pub fn check_slo_smoke(samples: &[PromSample]) -> Result<String, String> {
    let fired: f64 = samples
        .iter()
        .filter(|s| s.name == "tincy_slo_alerts_total")
        .map(|s| s.value)
        .sum();
    let active: Vec<String> = samples
        .iter()
        .filter(|s| s.name == "tincy_slo_alert_active" && s.value != 0.0)
        .map(|s| {
            s.labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    ensure!(
        samples.iter().any(|s| s.name == "tincy_slo_alert_active"),
        "slo smoke: no tincy_slo_alert_active series on /metrics"
    );
    ensure!(
        fired >= 1.0,
        "slo smoke: the injected fault never tripped a burn-rate alert"
    );
    ensure!(
        active.is_empty(),
        "slo smoke: {} alerts still active after re-admission: {}",
        active.len(),
        active.join(" ")
    );
    Ok(format!(
        "slo smoke: ok ({fired} burn-rate alert edges fired, all cleared)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(shards: Vec<ServeReport>) -> FleetReport {
        FleetReport {
            routed: vec![0; shards.len()],
            shards,
            drains: 0,
            readmits: 0,
            rerouted: 0,
            sheds: 0,
            probes: 0,
            wall: Duration::ZERO,
        }
    }

    fn sample(name: &str, labels: &[(&str, String)], value: f64) -> PromSample {
        PromSample {
            name: name.to_owned(),
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
            value,
        }
    }

    #[test]
    fn scrape_check_names_the_thread_whose_ring_dropped_events() {
        let dropped = sample(
            "tincy_trace_dropped_total",
            &[("thread", "serve-finn".to_owned())],
            1.0,
        );
        let err = check_scrape(&[dropped], &fleet(Vec::new())).unwrap_err();
        assert_eq!(
            err,
            "the trace recorder dropped 1 events on thread \"serve-finn\""
        );
    }

    /// A scrape rendered from one report passes against it, and fails
    /// against a report with one more FINN batch, naming that family.
    #[test]
    fn scrape_check_names_the_family_that_disagrees() {
        let mut report = fleet(vec![ServeReport::new(vec!["tincy".to_owned()], [0; 3])]);
        let mut samples: Vec<PromSample> = expected(&report)
            .iter()
            .map(|(name, labels, want, _)| sample(name, labels, *want as f64))
            .collect();
        samples.push(sample("tincy_fleet_shards", &[], 1.0));
        samples.push(sample(
            "tincy_fleet_shard_up",
            &[("shard", "0".to_owned())],
            1.0,
        ));
        check_scrape(&samples, &report).expect("the scrape is the report's own");
        report.shards[0].finn_batches = 1;
        let err = check_scrape(&samples, &report).unwrap_err();
        assert!(
            err.starts_with(
                "scrape disagrees with the final report on tincy_serve_finn_batches_total"
            ),
            "{err}"
        );
    }
}
