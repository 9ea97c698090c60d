//! The single hand-rolled JSON layer of the workspace. No serde exists
//! in the offline build, and the schemas are small and fixed, so one
//! incremental writer ([`JsonObject`], [`JsonArray`]) and one
//! recursive-descent parser ([`parse`] into [`JsonValue`]) cover every
//! producer and consumer: the `--metrics-json` paths in the CLI, Chrome
//! trace export/import, the telemetry JSON exposition, and the
//! `tincy-explore` frontier report.
//!
//! Domain-specific serializers (serve reports, pipeline metrics, trace
//! events) stay in their own crates; this crate owns only the syntax.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod value;
mod write;

pub use value::{parse, JsonValue};
pub use write::{array_f64, array_u64, escape, escape_into, JsonArray, JsonObject};
