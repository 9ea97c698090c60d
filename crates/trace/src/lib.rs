//! `tincy-trace`: low-overhead structured event tracing for the Tincy
//! system.
//!
//! Concurrency design (per DESIGN.md §8 "Observability"):
//! - **Disabled** (default): every instrumentation site costs one relaxed
//!   atomic load.
//! - **Enabled**: each thread records into its own bounded ring buffer
//!   behind a mutex nobody else touches mid-session — lock-minimal, not
//!   lock-free, which the vendored `parking_lot` shim supports without
//!   unsafe code. A span is one record, written when its guard drops.
//! - [`finish`] drains every ring into a time-sorted [`Trace`] that can
//!   be validated ([`Trace::check`]), folded into a [`Profile`], or
//!   exported as Chrome trace-event JSON ([`to_chrome_json`]) for
//!   `chrome://tracing` / Perfetto.
//!
//! Timestamps come from a [`Clock`] the session injects: production uses
//! [`MonotonicClock`], tests drive a [`TestClock`] by hand.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod chrome;
mod clock;
mod collector;
mod context;
mod data;
mod event;
pub mod journey;
mod profile;
mod span;

pub use chrome::{from_chrome_json, to_chrome_json};
pub use clock::{Clock, MonotonicClock, TestClock};
pub use collector::{
    exclusive, finish, is_enabled, start, start_local, start_with_clock, thread_drops,
    DEFAULT_THREAD_CAPACITY,
};
pub use context::{splitmix64, TraceContext};
pub use data::{Trace, TraceError};
pub use event::{Attrs, Backend, Event, EventKind, Label};
pub use journey::{journeys, JourneyError, RequestJourney};
pub use profile::{Profile, ProfileRow};
pub use span::{span, SpanBuilder, SpanGuard};
