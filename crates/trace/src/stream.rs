//! Streaming trace drains: a background drainer that periodically
//! [`sweep`]s the running session's ring buffers into a rotating set of
//! Chrome-trace segment files, plus the stitcher that reassembles a
//! segment directory into one timeline.
//!
//! Rotation format: segments are written as `segment-NNNNN.json` (zero-
//! padded, monotonically increasing) in the drain directory. A segment
//! rotates when it accumulates `max_segment_events` events or ages past
//! one second; at most 64 files are kept (oldest are pruned). Each file
//! is a complete, self-contained Chrome trace: it is written to a
//! dot-prefixed temp file and atomically renamed, so a crash leaves
//! either a whole segment or none — never a torn one.
//!
//! Because [`sweep`] holds back Begin edges whose End has not been
//! recorded yet, a span that straddles a sweep boundary lands whole in a
//! later segment, and stitching the directory back together
//! ([`stitch_segments`]) reproduces the same span set as a single-file
//! drain of the same session.

use crate::chrome::{render_chrome_json, TraceAssembly};
use crate::collector::sweep;
use crate::data::Trace;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the background drainer sweeps the rings.
const PERIOD: Duration = Duration::from_millis(25);
/// Rotate the current segment once its first event is this old.
const MAX_SEGMENT_AGE: Duration = Duration::from_secs(1);
/// Keep at most this many segment files; oldest are pruned.
const MAX_SEGMENTS: usize = 64;

/// What a drain wrote over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainSummary {
    /// Segment files finalized (written and renamed into place).
    pub segments: u64,
    /// Events written across all segments.
    pub events: u64,
    /// Ring-buffer drops observed across all sweeps.
    pub dropped: u64,
    /// Old segments removed to keep the newest 64.
    pub pruned: u64,
}

/// Accumulates swept traces and rotates them into segment files. This is
/// the synchronous core of [`TraceDrainer`]; tests drive it directly
/// with manual [`sweep`]s for determinism.
pub struct SegmentWriter {
    dir: PathBuf,
    max_segment_events: usize,
    /// The writing process's pid, stamped into every segment.
    process: String,
    pending: Option<Trace>,
    born: Instant,
    next_seq: u64,
    summary: DrainSummary,
}

impl SegmentWriter {
    /// Creates the drain directory (and parents) and an empty writer that
    /// rotates a segment once it holds `max_segment_events` events.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn create(dir: impl Into<PathBuf>, max_segment_events: usize) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            max_segment_events,
            process: std::process::id().to_string(),
            pending: None,
            born: Instant::now(),
            next_seq: 0,
            summary: DrainSummary::default(),
        })
    }

    /// Folds one swept trace into the pending segment. Sweeps of one
    /// session share the process-global label table and the session link
    /// table, both append-only, so the newest snapshot supersedes older
    /// ones.
    pub fn absorb(&mut self, swept: Trace) {
        self.summary.dropped += swept.dropped;
        if swept.events.is_empty() {
            return;
        }
        match &mut self.pending {
            Some(pending) => {
                pending.events.extend(swept.events);
                pending.labels = swept.labels;
                pending.links = swept.links;
                pending.thread_names = swept.thread_names;
                pending.threads = pending.threads.max(swept.threads);
                pending.dropped += swept.dropped;
            }
            None => {
                self.born = Instant::now();
                self.pending = Some(swept);
            }
        }
    }

    /// Writes the pending segment out if it hit the size or age bound
    /// (or unconditionally with `force`), then prunes old segments.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; the pending segment is retained
    /// and retried on the next rotation.
    pub fn rotate(&mut self, force: bool) -> io::Result<()> {
        let due = match &self.pending {
            None => false,
            Some(pending) if pending.events.is_empty() => false,
            Some(pending) => {
                force
                    || pending.events.len() >= self.max_segment_events
                    || self.born.elapsed() >= MAX_SEGMENT_AGE
            }
        };
        if !due {
            return Ok(());
        }
        let mut segment = self.pending.take().expect("pending checked above");
        // Held-back Begins re-enter on a later sweep with their original
        // (earlier) timestamps; re-sorting restores the per-thread
        // chronological stream that span matching relies on.
        segment.events.sort_by_key(|e| e.t_ns);
        let json = render_chrome_json(&segment, Some(&self.process));
        let tmp = self.dir.join(".segment.tmp");
        let path = self.dir.join(format!("segment-{:05}.json", self.next_seq));
        if let Err(error) = std::fs::write(&tmp, &json).and_then(|()| std::fs::rename(&tmp, &path))
        {
            self.pending = Some(segment);
            return Err(error);
        }
        self.next_seq += 1;
        self.summary.segments += 1;
        self.summary.events += segment.events.len() as u64;
        self.prune()?;
        Ok(())
    }

    fn prune(&mut self) -> io::Result<()> {
        let mut files = segment_files(&self.dir)?;
        while files.len() > MAX_SEGMENTS {
            std::fs::remove_file(files.remove(0))?;
            self.summary.pruned += 1;
        }
        Ok(())
    }

    /// Flushes whatever is pending (one final sweep first) and returns
    /// the drain summary.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures from the final rotation.
    pub fn finish(mut self) -> io::Result<DrainSummary> {
        if let Some(swept) = sweep() {
            self.absorb(swept);
        }
        self.rotate(true)?;
        Ok(self.summary)
    }

    /// The drain directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// A background thread that sweeps the running trace session into
/// rotating segment files every 25 ms. Dropping the
/// drainer finalizes it (best effort); call [`Self::finalize`] to get
/// the summary and surface I/O errors.
pub struct TraceDrainer {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<io::Result<DrainSummary>>>,
}

impl TraceDrainer {
    /// Spawns the drainer over `dir`, rotating segments of
    /// `max_segment_events` events. The trace session should already be
    /// started; sweeps of a stopped session are no-ops.
    ///
    /// # Errors
    ///
    /// Propagates drain-directory creation and thread-spawn failures.
    pub fn spawn(dir: impl Into<PathBuf>, max_segment_events: usize) -> io::Result<Self> {
        let mut writer = SegmentWriter::create(dir, max_segment_events)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("trace-drain".to_string())
            .spawn(move || {
                loop {
                    let stopping = stop_flag.load(Ordering::Acquire);
                    if let Some(swept) = sweep() {
                        writer.absorb(swept);
                    }
                    writer.rotate(false)?;
                    if stopping {
                        break;
                    }
                    std::thread::park_timeout(PERIOD);
                }
                writer.finish()
            })?;
        Ok(Self {
            stop,
            handle: Some(handle),
        })
    }

    /// Stops the drainer, performs the final sweep and flush, and
    /// returns what was written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures from the drain thread.
    pub fn finalize(mut self) -> io::Result<DrainSummary> {
        self.join()
    }

    fn join(&mut self) -> io::Result<DrainSummary> {
        let Some(handle) = self.handle.take() else {
            return Ok(DrainSummary::default());
        };
        self.stop.store(true, Ordering::Release);
        handle.thread().unpark();
        handle
            .join()
            .map_err(|_| io::Error::other("trace drain thread panicked"))?
    }
}

impl Drop for TraceDrainer {
    /// Crash-safe finalize: even an early-returning caller gets its
    /// buffered events swept and flushed to a whole segment.
    fn drop(&mut self) {
        let _ = self.join();
    }
}

/// The segment files of a drain directory, sorted by sequence number
/// (filename order).
///
/// # Errors
///
/// Propagates directory-read failures.
pub fn segment_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.starts_with("segment-") && name.ends_with(".json"))
        })
        .collect();
    files.sort();
    Ok(files)
}

/// Stitches a drain directory's segments back into one [`Trace`]: they
/// are parsed into one assembly (labels, link sets and thread names
/// merged) and the combined span set is rebuilt into a single timeline.
/// A fleet's shards share one process and one session, so their segments
/// stitch like any other; segments written by two different processes
/// have unrelated clocks and thread ids, and are refused.
///
/// # Errors
///
/// A message naming the unreadable or malformed segment, reporting an
/// empty directory, or refusing segments from different processes.
pub fn stitch_segments(dir: &Path) -> Result<Trace, String> {
    let files = segment_files(dir)
        .map_err(|e| format!("cannot list segments in {}: {e}", dir.display()))?;
    if files.is_empty() {
        return Err(format!("no segment-*.json files in {}", dir.display()));
    }
    let mut assembly = TraceAssembly::new();
    for file in &files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        assembly
            .ingest(&text)
            .map_err(|e| format!("{}: {e}", file.display()))?;
    }
    if assembly.processes.len() > 1 {
        return Err(format!(
            "{} holds segments from {} different processes, which cannot be \
             interleaved into one timeline",
            dir.display(),
            assembly.processes.len()
        ));
    }
    Ok(assembly.into_trace())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::{from_chrome_json, to_chrome_json};
    use crate::clock::TestClock;
    use crate::collector::{exclusive, finish, start_with_clock, sweep};
    use crate::event::Label;
    use crate::span::span;
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tincy-stream-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sweep_holds_back_open_spans_until_they_close() {
        let _guard = exclusive();
        let clock = Arc::new(TestClock::new());
        start_with_clock(clock.clone(), 256);
        let outer = Label::intern("stream.outer");
        let inner = Label::intern("stream.inner");

        let open = span(outer).frame(1).start();
        clock.advance(10);
        {
            let _child = span(inner).start();
            clock.advance(5);
        }
        // First sweep: the inner span is complete, the outer is open.
        let first = sweep().unwrap();
        assert_eq!(first.spans_lossy().len(), 1);
        assert_eq!(
            first.label_name(first.spans_lossy()[0].label),
            "stream.inner"
        );
        clock.advance(10);
        drop(open);
        // Second sweep: the held-back outer span arrives whole.
        let second = sweep().unwrap();
        let spans = second.spans_lossy();
        assert_eq!(spans.len(), 1);
        assert_eq!(second.label_name(spans[0].label), "stream.outer");
        assert_eq!(spans[0].start_ns, 0, "held-back Begin keeps its timestamp");
        assert_eq!(spans[0].duration_ns(), 25);
        assert_eq!(spans[0].attrs.frame, Some(1));
        let _ = finish();
    }

    /// One deterministic workload, replayed on a test clock. A
    /// long-lived outer span straddles every segment boundary; when
    /// `writer` is set, the session is swept into segments after each
    /// iteration instead of being drained once at the end.
    fn replay_workload(clock: &TestClock, mut writer: Option<&mut SegmentWriter>) {
        let stage = Label::intern("stream.stage");
        let mark = Label::intern("stream.mark");
        let outer = span(Label::intern("stream.outer")).frame(99).start();
        for i in 0..12u64 {
            clock.advance(50);
            {
                let _s = span(stage).frame(i).layer(2).start();
                clock.advance(100);
            }
            span(mark).frame(i).emit();
            if let Some(writer) = writer.as_deref_mut() {
                writer.absorb(sweep().unwrap());
                writer.rotate(false).unwrap();
            }
        }
        clock.advance(50);
        drop(outer);
    }

    /// Name-resolved span fingerprint: label, start/end, frame, layer.
    type SpanKey = (String, u64, u64, Option<u64>, Option<u32>);

    /// Sorted, name-resolved span fingerprints for order-insensitive
    /// trace comparison.
    fn span_keys(trace: &Trace) -> Vec<SpanKey> {
        let mut keys: Vec<_> = trace
            .spans()
            .expect("well-formed trace")
            .iter()
            .map(|s| {
                (
                    trace.label_name(s.label).to_string(),
                    s.start_ns,
                    s.end_ns,
                    s.attrs.frame,
                    s.attrs.layer,
                )
            })
            .collect();
        keys.sort();
        keys
    }

    #[test]
    fn stitched_segments_equal_single_file_import() {
        let _guard = exclusive();
        let dir = temp_dir("stitch");

        // Reference: the identical workload drained once into one file.
        let clock = Arc::new(TestClock::new());
        start_with_clock(clock.clone(), 4096);
        replay_workload(&clock, None);
        let single = from_chrome_json(&to_chrome_json(&finish())).unwrap();

        // Streaming: the same workload swept into rotating segments.
        let clock = Arc::new(TestClock::new());
        start_with_clock(clock.clone(), 4096);
        let mut writer = SegmentWriter::create(&dir, 8).unwrap();
        replay_workload(&clock, Some(&mut writer));
        let summary = writer.finish().unwrap();
        assert!(finish().is_empty(), "sweeps consumed every event");
        assert!(summary.segments >= 2, "rotation split the run");

        let files = segment_files(&dir).unwrap();
        assert!(
            files.len() >= 2,
            "rotation produced {} segments",
            files.len()
        );
        let stitched = stitch_segments(&dir).unwrap();
        stitched.check().unwrap();
        assert_eq!(span_keys(&stitched), span_keys(&single));
        assert_eq!(stitched.instants().count(), single.instants().count());
        let outer = stitched
            .spans()
            .unwrap()
            .into_iter()
            .find(|s| stitched.label_name(s.label) == "stream.outer")
            .expect("straddling span survives stitching");
        assert_eq!(outer.start_ns, 0);
        assert_eq!(outer.attrs.frame, Some(99));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_prunes_oldest_but_never_tears_a_segment() {
        let _guard = exclusive();
        let dir = temp_dir("prune");
        let clock = Arc::new(TestClock::new());
        start_with_clock(clock.clone(), 4096);
        let stage = Label::intern("stream.prune.stage");
        // Two events rotate a segment: one span per segment.
        let mut writer = SegmentWriter::create(&dir, 2).unwrap();
        for i in 0..MAX_SEGMENTS as u64 + 6 {
            clock.advance(10);
            {
                let _s = span(stage).frame(i).start();
                clock.advance(10);
            }
            writer.absorb(sweep().unwrap());
            writer.rotate(false).unwrap();
        }
        let summary = writer.finish().unwrap();
        let _ = finish();
        assert!(
            summary.segments > MAX_SEGMENTS as u64,
            "wrote {} segments",
            summary.segments
        );
        assert_eq!(summary.dropped, 0);
        let files = segment_files(&dir).unwrap();
        assert_eq!(files.len(), MAX_SEGMENTS, "pruned down to MAX_SEGMENTS");
        assert_eq!(
            summary.pruned,
            summary.segments - files.len() as u64,
            "every removed file was a whole, previously finalized segment"
        );
        // The retained segments are the newest, each one well-formed.
        let names: Vec<String> = files
            .iter()
            .map(|f| f.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names.last().map(String::as_str),
            Some(format!("segment-{:05}.json", summary.segments - 1).as_str())
        );
        for file in &files {
            let text = std::fs::read_to_string(file).unwrap();
            let trace = crate::chrome::from_chrome_json(&text).unwrap();
            trace.check().unwrap();
            assert!(!trace.is_empty());
        }
        // No temp file left behind.
        assert!(!dir.join(".segment.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unlabeled_segments_from_different_processes_refuse_to_stitch() {
        let dir = temp_dir("mixed-process");
        std::fs::create_dir_all(&dir).unwrap();
        let seg = |process: &str| {
            format!(
                "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"process\":\"{process}\"}},\
                 \"traceEvents\":[{{\"name\":\"x\",\"ph\":\"i\",\"ts\":1.0,\"s\":\"t\",\
                 \"pid\":1,\"tid\":0}}]}}"
            )
        };
        std::fs::write(dir.join("segment-00000.json"), seg("100")).unwrap();
        std::fs::write(dir.join("segment-00001.json"), seg("200")).unwrap();
        let err = stitch_segments(&dir).unwrap_err();
        assert!(err.contains("different processes"), "{err}");
        assert!(err.starts_with(&dir.display().to_string()), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Segment import turns damaged input into an error, never a panic:
    /// every byte-prefix of a real session's segment and a fixed set of
    /// single-byte substitutions through the parser, and a directory
    /// holding a good and a truncated segment through the stitcher,
    /// whose error names the truncated file.
    #[test]
    fn damaged_segments_are_errors_not_panics() {
        let _guard = exclusive();
        let clock = Arc::new(TestClock::new());
        start_with_clock(clock.clone(), 256);
        clock.advance(2_000);
        let outer = span(Label::intern("stream.outer")).frame(1).start();
        clock.advance(500);
        span(Label::intern("stream.mark")).layer(2).emit();
        clock.advance(1_250);
        drop(outer);
        let id = 0xffee_ddcc_bbaa_9988;
        span(Label::intern("stream.hop"))
            .trace(id)
            .emit_flow_start();
        span(Label::intern("stream.batch"))
            .request(3)
            .batch(2)
            .shard(1)
            .variant("cheap")
            .fault("dma timeout")
            .link_requests(&[1, 2])
            .trace(id)
            .emit_flow_finish();
        let text = render_chrome_json(&finish(), Some("7"));
        assert!(from_chrome_json(&text).is_ok());
        for end in 0..text.len() {
            assert!(from_chrome_json(&text[..end]).is_err(), "prefix {end}");
        }
        let mut bytes = text.clone().into_bytes();
        for i in 0..bytes.len() {
            let original = bytes[i];
            for b in *b"\"{}[],:-9e" {
                bytes[i] = b;
                let _ = from_chrome_json(std::str::from_utf8(&bytes).unwrap());
            }
            bytes[i] = original;
        }
        let dir = temp_dir("damaged");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("segment-00000.json"), &text).unwrap();
        for end in (0..text.len()).step_by(97) {
            std::fs::write(dir.join("segment-00001.json"), &text[..end]).unwrap();
            let err = stitch_segments(&dir).unwrap_err();
            assert!(err.contains("segment-00001.json"), "{err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drainer_thread_sweeps_and_finalizes_on_drop() {
        let _guard = exclusive();
        let dir = temp_dir("drainer");
        crate::collector::start();
        {
            let _drainer = TraceDrainer::spawn(&dir, 4).unwrap();
            for i in 0..32u64 {
                let _s = span(Label::intern("stream.live")).frame(i).start();
            }
        } // drop finalizes
        let _ = finish();
        let stitched = stitch_segments(&dir).unwrap();
        assert_eq!(
            stitched
                .spans()
                .unwrap()
                .iter()
                .filter(|s| stitched.label_name(s.label) == "stream.live")
                .count(),
            32
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
