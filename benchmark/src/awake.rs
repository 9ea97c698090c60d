//! Keeps the cores of the box awake while a run measures.
//!
//! The tier-1 box is a small VM on a shared host. Whenever one of its
//! cores goes idle the host takes it away, and the next wake-up costs
//! 5–200 ms and leaves the core slow for a while: on an open-loop run at
//! half load that, not the program, owned p95 latency (47–387 ms between
//! identical runs), put 3 ms of kernel time on top of an 8 ms request and
//! spread `cpu_ms_per_op` by 0.29 and closed-loop throughput by 0.25. It
//! is the VM's equivalent of CPU sleep states, and the remedy is the
//! usual one (`idle=poll`): never let a core go idle.
//!
//! So each run starts one child process with one busy loop per core under
//! `SCHED_IDLE`, the policy below every nice level: the kernel runs such
//! a thread only on a core that has nothing else to do, preempts it the
//! moment anything else wakes, and places wake-ups on its core as if it
//! were idle. The system under test loses no CPU time to it (measured:
//! closed-loop throughput unchanged at its best, steadier by 3x). A child
//! process rather than threads, so the loops' CPU time stays out of this
//! process's accounting (`cpu_ms_per_op`, the thread count).
//!
//! The child exits when its standard input closes, which the parent does
//! on the way out and the kernel does for it should the parent be killed.

use std::io::Read;
use std::process::{Child, Command, ExitCode, Stdio};

/// First argument of the child process.
pub const CHILD_ARG: &str = "keep-awake";
/// Exit code of a child that could not get `SCHED_IDLE`: it must not
/// spin at a normal priority, where it would take half the box.
const NO_IDLE_POLICY: u8 = 3;

/// `SCHED_IDLE` of `<sched.h>`.
const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    /// Of the C library std already links. With pid 0 it sets the policy
    /// of the calling thread.
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

fn enter_idle_policy() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: the call reads one `sched_param` (a single int on Linux)
    // through a pointer that is valid for the duration of the call.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// The child process: one `SCHED_IDLE` busy loop per core until standard
/// input closes.
pub fn child_main() -> ExitCode {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    for _ in 0..cores {
        std::thread::spawn(|| {
            if !enter_idle_policy() {
                std::process::exit(i32::from(NO_IDLE_POLICY));
            }
            loop {
                std::hint::spin_loop();
            }
        });
    }
    let mut sink = [0u8; 64];
    let mut stdin = std::io::stdin();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
    ExitCode::SUCCESS
}

/// The running child; [`KeepAwake::stop`] (or dropping it) ends it.
pub struct KeepAwake {
    child: Option<Child>,
}

impl KeepAwake {
    pub fn start() -> Self {
        let child = std::env::current_exe().ok().and_then(|exe| {
            Command::new(exe)
                .arg(CHILD_ARG)
                .stdin(Stdio::piped())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .ok()
        });
        Self { child }
    }

    /// Ends the child and waits for it. Returns a warning when the cores
    /// were not kept awake after all.
    pub fn stop(mut self) -> Option<String> {
        self.end()
    }

    fn end(&mut self) -> Option<String> {
        let Some(mut child) = self.child.take() else {
            return Some("could not start the keep-awake process; cores went idle".to_string());
        };
        drop(child.stdin.take());
        match child.wait() {
            Ok(status) if status.success() => None,
            Ok(status) if status.code() == Some(i32::from(NO_IDLE_POLICY)) => {
                Some("SCHED_IDLE is not available here; cores went idle".to_string())
            }
            other => Some(format!("the keep-awake process ended oddly: {other:?}")),
        }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        if self.child.is_some() {
            self.end();
        }
    }
}
