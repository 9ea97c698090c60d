//! Outside input never panics the parsers that read it: a real
//! `--trace-out` file, a real `explore --frontier-out` file and the CLI's
//! arrival-pattern spellings, under byte-level replacements, insertions
//! and deletions, go through `from_chrome_json` (and what it accepts
//! through `check()`, the profile and the journeys), `tincy_json::parse`,
//! `servable_variants` and `ArrivalPattern::from_str`, and each returns
//! `Ok` or `Err`. The cfg parser's twin property stays in
//! `crates/nn/tests/properties.rs`, because it mutates renderings of the
//! random network specs whose strategy lives there; the scrape parsers'
//! is in `crates/telemetry/tests/properties.rs`. The vendored proptest
//! does not shrink, so a panic reports the input that caused it.

use proptest::prelude::*;
use std::panic::{catch_unwind, RefUnwindSafe};
use std::str::FromStr;
use std::sync::{Arc, OnceLock};
use tincy::core::SystemConfig;
use tincy::explore::{report_json, run_sweep, servable_variants, SweepConfig};
use tincy::serve::{ArrivalPattern, Fleet, FleetConfig, SloClass};
use tincy::trace::{
    exclusive, finish, from_chrome_json, journeys, start_with_clock, to_chrome_json,
    MonotonicClock, Profile,
};
use tincy::video::{SceneConfig, SyntheticCamera};

/// One edit: kind (replace, insert, delete), position, whether the byte
/// comes from the parser's own grammar, and the byte.
type Edit = (usize, usize, bool, u8);

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec(
        (0usize..3, any::<usize>(), any::<bool>(), any::<u8>()),
        1..8,
    )
}

/// Applies `edits` to `text` (grammar bytes drawn from `grammar`, so edits
/// reach past the tokenizer), reads the result back lossily and runs
/// `parse` on it, failing with the input if it panics.
fn never_panics(text: &str, edits: &[Edit], grammar: &[u8], parse: impl Fn(&str) + RefUnwindSafe) {
    let mut bytes = text.as_bytes().to_vec();
    for &(kind, at, from_grammar, byte) in edits {
        let byte = if from_grammar {
            grammar[usize::from(byte) % grammar.len()]
        } else {
            byte
        };
        let at = at % (bytes.len() + 1);
        match kind {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            _ if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {}
        }
    }
    let text = String::from_utf8_lossy(&bytes).into_owned();
    assert!(
        catch_unwind(|| parse(&text)).is_ok(),
        "a parser panicked on:\n{text:?}"
    );
}

/// The file `tincy serve 6 1 32 --shards 2 --trace-out` writes, recorded
/// once with rings small enough to wrap: spans, instants, the router's
/// flows, micro-batch link sets, named threads and `otherData.dropped`.
fn trace_file() -> &'static str {
    static FILE: OnceLock<String> = OnceLock::new();
    FILE.get_or_init(|| {
        let _guard = exclusive();
        start_with_clock(Arc::new(MonotonicClock::new()), 16);
        let mut config = FleetConfig {
            shards: 2,
            ..Default::default()
        };
        config.base.system = SystemConfig {
            input_size: 32,
            seed: 5,
            ..Default::default()
        };
        let fleet = Fleet::start(config).expect("fleet starts");
        let mut client = fleet.client();
        let scene = SceneConfig {
            width: 48,
            height: 36,
            ..Default::default()
        };
        let mut camera = SyntheticCamera::with_limit(scene, 3, 6);
        while let Some(image) = camera.capture() {
            client.submit(image, SloClass::Standard).expect("admitted");
        }
        client.collect_all();
        drop(client);
        fleet.finish();
        let trace = finish();
        assert!(trace.dropped > 0, "the rings wrapped");
        assert!(trace.flows().next().is_some() && !trace.links.is_empty());
        assert!(!trace.thread_names.is_empty());
        to_chrome_json(&trace)
    })
}

/// The frontier file `tincy explore --pe 4:16 --simd 4:16 --frontier-out`
/// writes, built once.
fn frontier_file() -> &'static str {
    static FILE: OnceLock<String> = OnceLock::new();
    FILE.get_or_init(|| {
        report_json(&run_sweep(&SweepConfig {
            pe_bounds: (4, 16),
            simd_bounds: (4, 16),
            ..SweepConfig::default()
        }))
    })
}

const PATTERNS: [&str; 5] = [
    "closed",
    "burst",
    "uniform:2000",
    "diurnal:500:200:3.5",
    "flash:500:40:20:4",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn trace_importer_never_panics_on_mutated_files(edits in edits()) {
        never_panics(trace_file(), &edits, b"\"{}[],:-.0123456789eXisfMtsdurlinkstraceid", |text| {
            if let Ok(trace) = from_chrome_json(text) {
                let _ = trace.check();
                Profile::from_trace(&trace);
                journeys(&trace);
            }
        });
    }

    #[test]
    fn frontier_parsers_never_panic_on_mutated_files(edits in edits()) {
        never_panics(frontier_file(), &edits, b"\"{}[],:-.0123456789e+/xpeaw", |text| {
            let _ = tincy_json::parse(text);
            let _ = servable_variants(text);
        });
    }

    #[test]
    fn arrival_patterns_never_panic_on_mutated_spellings(
        base in 0usize..PATTERNS.len(),
        edits in edits(),
    ) {
        never_panics(PATTERNS[base], &edits, b":.-+e0123456789closedburstuniformdiurnalflash", |text| {
            let _ = ArrivalPattern::from_str(text);
        });
    }
}
