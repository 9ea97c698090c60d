//! Per-request journey reconstruction: groups a trace's events by their
//! distributed trace id ([`crate::TraceContext`]) and rebuilds each
//! request's path through the fleet — admit → route → [failover…] →
//! serve → deliver — with Table-III-style stage attribution (dispatch /
//! queue wait / service).
//!
//! This is the analysis behind `tincy trace-report --by-request`: it
//! works on single-shard and multi-shard traces alike, because every
//! hop tags its events with the same trace id.

use crate::data::Trace;
use crate::event::{Backend, EventKind};
use std::collections::BTreeMap;
use std::fmt;

/// One request's reconstructed path through the fleet, keyed by its
/// distributed trace id. Timestamps are trace-relative nanoseconds;
/// unset stages simply never appeared in the trace (e.g. a shed request
/// has no deliver).
#[derive(Debug, Clone, Default)]
pub struct RequestJourney {
    /// The distributed trace id shared by every hop.
    pub trace_id: u64,
    /// Distinct shards that produced events for this request, sorted. A
    /// failed-over request lists at least two.
    pub shards: Vec<u32>,
    /// Router dispatch (`fleet.route` flow start), when the request went
    /// through a fleet router.
    pub route_ns: Option<u64>,
    /// Earliest shard admission (`serve.admit`).
    pub admit_ns: Option<u64>,
    /// Earliest batch lease (`serve.lease`) — the end of queue wait.
    pub lease_ns: Option<u64>,
    /// Delivery (`serve.deliver`).
    pub deliver_ns: Option<u64>,
    /// Failover re-dispatches (`fleet.failover`) the router performed.
    pub failovers: u32,
    /// Shard-side rejections (`serve.reject`) along the way.
    pub rejects: u32,
    /// Whether the `fleet.route` flow arrow was closed by its finish
    /// edge (router→shard hand-off link intact).
    pub flow_finished: bool,
    /// Backend that finally served the request.
    pub backend: Option<Backend>,
}

impl RequestJourney {
    /// Whether the request was delivered.
    pub fn delivered(&self) -> bool {
        self.deliver_ns.is_some()
    }

    /// Dispatch stage: router hand-off until shard admission.
    pub fn dispatch_ns(&self) -> Option<u64> {
        Some(self.admit_ns?.saturating_sub(self.route_ns?))
    }

    /// Queue-wait stage: admission until batch lease.
    pub fn queue_ns(&self) -> Option<u64> {
        Some(self.lease_ns?.saturating_sub(self.admit_ns?))
    }

    /// Service stage: batch lease until delivery.
    pub fn service_ns(&self) -> Option<u64> {
        Some(self.deliver_ns?.saturating_sub(self.lease_ns?))
    }

    /// End-to-end latency from the first recorded hop to delivery.
    pub fn total_ns(&self) -> Option<u64> {
        let start = self.route_ns.or(self.admit_ns)?;
        Some(self.deliver_ns?.saturating_sub(start))
    }

    /// Journey completeness: a delivered request must show admission and
    /// lease coverage in causal order (admit ≤ lease ≤ deliver, with the
    /// route hand-off, if present, before admission).
    ///
    /// # Errors
    ///
    /// [`JourneyError`] naming the missing or out-of-order stage.
    pub fn verify(&self) -> Result<(), JourneyError> {
        let Some(deliver) = self.deliver_ns else {
            return Ok(());
        };
        let missing = |stage| JourneyError::MissingStage {
            trace_id: self.trace_id,
            stage,
        };
        let out_of_order = |stage| JourneyError::OutOfOrder {
            trace_id: self.trace_id,
            stage,
        };
        let admit = self.admit_ns.ok_or_else(|| missing("admit"))?;
        let lease = self.lease_ns.ok_or_else(|| missing("lease"))?;
        if let Some(route) = self.route_ns {
            if route > admit {
                return Err(out_of_order("admit"));
            }
        }
        if admit > lease {
            return Err(out_of_order("lease"));
        }
        if lease > deliver {
            return Err(out_of_order("deliver"));
        }
        Ok(())
    }
}

/// A journey-completeness defect found by [`RequestJourney::verify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JourneyError {
    /// A delivered request whose trace lacks a required stage.
    MissingStage {
        /// The request's trace id.
        trace_id: u64,
        /// The absent stage.
        stage: &'static str,
    },
    /// Stages recorded against causal order.
    OutOfOrder {
        /// The request's trace id.
        trace_id: u64,
        /// The stage that precedes its predecessor.
        stage: &'static str,
    },
}

impl fmt::Display for JourneyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JourneyError::MissingStage { trace_id, stage } => {
                write!(
                    f,
                    "trace {trace_id:016x}: delivered without {stage} coverage"
                )
            }
            JourneyError::OutOfOrder { trace_id, stage } => {
                write!(
                    f,
                    "trace {trace_id:016x}: {stage} recorded before its predecessor"
                )
            }
        }
    }
}

/// Groups every trace-tagged event by trace id and reconstructs each
/// request's journey, sorted by trace id (deterministic for seeded
/// runs). Events without a trace id — internal engine spans, probes —
/// are ignored.
pub fn journeys(trace: &Trace) -> Vec<RequestJourney> {
    let mut map: BTreeMap<u64, RequestJourney> = BTreeMap::new();
    for event in &trace.events {
        let Some(id) = event.attrs.trace else {
            continue;
        };
        let journey = map.entry(id).or_insert_with(|| RequestJourney {
            trace_id: id,
            ..RequestJourney::default()
        });
        if let Some(shard) = event.attrs.shard {
            if !journey.shards.contains(&shard) {
                journey.shards.push(shard);
            }
        }
        if let Some(backend) = event.attrs.backend {
            journey.backend = Some(backend);
        }
        let min_stage = |slot: &mut Option<u64>, t: u64| {
            *slot = Some(slot.map_or(t, |held| held.min(t)));
        };
        match (trace.label_name(event.label), event.kind) {
            ("fleet.route", EventKind::FlowStart) => {
                min_stage(&mut journey.route_ns, event.start_ns)
            }
            ("fleet.route", EventKind::FlowFinish) => journey.flow_finished = true,
            ("fleet.failover", _) => journey.failovers += 1,
            ("serve.admit", _) => min_stage(&mut journey.admit_ns, event.start_ns),
            ("serve.lease", _) => min_stage(&mut journey.lease_ns, event.start_ns),
            ("serve.deliver", _) => {
                journey.deliver_ns = Some(
                    journey
                        .deliver_ns
                        .map_or(event.start_ns, |held| held.max(event.start_ns)),
                );
            }
            ("serve.reject", _) => journey.rejects += 1,
            _ => {}
        }
    }
    for journey in map.values_mut() {
        journey.shards.sort_unstable();
    }
    map.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Attrs, Event, Label};

    const LABELS: [&str; 6] = [
        "fleet.route",
        "serve.admit",
        "serve.lease",
        "serve.deliver",
        "fleet.failover",
        "serve.reject",
    ];

    fn ev(t_ns: u64, kind: EventKind, label: u32, trace: u64, shard: Option<u32>) -> Event {
        Event {
            start_ns: t_ns,
            end_ns: t_ns,
            thread: 0,
            kind,
            label: Label(label),
            attrs: Attrs {
                trace: Some(trace),
                shard,
                ..Attrs::default()
            },
        }
    }

    fn trace_with(events: Vec<Event>) -> Trace {
        Trace {
            events,
            labels: LABELS.iter().map(|s| (*s).to_string()).collect(),
            threads: 1,
            thread_names: BTreeMap::new(),
            links: Vec::new(),
            dropped: 0,
        }
    }

    #[test]
    fn failover_journey_reconstructs_stages_across_shards() {
        let id = 0xffcc_0000_0000_0042_u64;
        let mut deliver = ev(9, EventKind::Instant, 3, id, Some(1));
        deliver.attrs.backend = Some(Backend::Host);
        let trace = trace_with(vec![
            ev(0, EventKind::FlowStart, 0, id, Some(0)),
            ev(1, EventKind::Instant, 5, id, Some(0)), // owner shed it
            ev(2, EventKind::Instant, 4, id, Some(1)), // failover re-dispatch
            ev(3, EventKind::Instant, 1, id, Some(1)),
            ev(5, EventKind::Instant, 2, id, Some(1)),
            deliver,
            ev(9, EventKind::FlowFinish, 0, id, Some(1)),
        ]);
        let journeys = journeys(&trace);
        assert_eq!(journeys.len(), 1);
        let j = &journeys[0];
        assert_eq!(j.trace_id, id);
        assert_eq!(j.shards, vec![0, 1]);
        assert_eq!(j.failovers, 1);
        assert_eq!(j.rejects, 1);
        assert!(j.flow_finished);
        assert_eq!(j.backend, Some(Backend::Host));
        assert_eq!(j.dispatch_ns(), Some(3));
        assert_eq!(j.queue_ns(), Some(2));
        assert_eq!(j.service_ns(), Some(4));
        assert_eq!(j.total_ns(), Some(9));
        j.verify().unwrap();
    }

    #[test]
    fn delivery_without_admission_fails_verification() {
        let id = 7_u64;
        let trace = trace_with(vec![ev(4, EventKind::Instant, 3, id, Some(0))]);
        let journeys = journeys(&trace);
        assert_eq!(
            journeys[0].verify(),
            Err(JourneyError::MissingStage {
                trace_id: id,
                stage: "admit"
            })
        );
        assert!(journeys[0]
            .verify()
            .unwrap_err()
            .to_string()
            .contains("admit"));
    }
}
