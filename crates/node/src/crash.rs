//! Crash forensics: a panic hook that dumps the node's trace buffer.
//!
//! A panicking node takes its in-memory trace with it — precisely the
//! evidence that explains the panic. [`arm`] installs a process-wide
//! panic hook that writes the tracer's buffer — the most recent events —
//! plus the last WAL-persisted round — the end of the node's finalized
//! prefix, where a restart resumes — to `<wal_dir>/crash.jsonl` *before*
//! the process unwinds away. The dump is ordinary trace JSONL (header
//! `schedule` field `crash wal_round=<n>`, `dropped` counting the events
//! the buffer evicted), so [`algorand_obs::parse_jsonl`] and every trace
//! tool read it unchanged.
//!
//! Nothing but the buffer's push and eviction runs under the tracer's
//! lock, and the invariant monitor checks the events it read outside it,
//! so a check that panics leaves every buffered event in the dump. The
//! hook still never waits for the lock: another thread may hold it when
//! the panic strikes. Then the dump names the WAL round and holds no
//! events.
//!
//! Only panics produce a dump: `kill -9` gives the process no
//! opportunity to run anything, and the localnet CI gate asserts exactly
//! that asymmetry (SIGKILL → no `crash.jsonl`; panic → parseable dump).

use algorand_obs::{write_jsonl, Tracer};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// What the panic hook needs to write a dump.
#[derive(Clone)]
pub struct CrashContext {
    /// Directory the dump lands in (the node's WAL dir).
    pub wal_dir: PathBuf,
    /// Deployment seed, stamped into the dump header.
    pub seed: u64,
    /// The node's tracer, whose buffer the dump exports.
    pub tracer: Tracer,
    /// Highest round the WAL has durably persisted: the node's last
    /// final round, as of its last loop iteration. The runtime keeps this
    /// current so the dump names where replay will resume; tentative
    /// rounds above it are not in the WAL, and a restart fetches them
    /// again through catch-up.
    pub last_wal_round: Arc<AtomicU64>,
}

/// The armed context. A `Mutex<Option<..>>` rather than a plain
/// `OnceLock<CrashContext>` so tests (and restarts within one process)
/// can re-arm; the *hook* is installed only once.
static ARMED: OnceLock<Mutex<Option<CrashContext>>> = OnceLock::new();

fn slot() -> &'static Mutex<Option<CrashContext>> {
    ARMED.get_or_init(|| Mutex::new(None))
}

/// Writes the dump for `ctx`. Called from the panic hook; also directly
/// callable so tests can exercise the exact write path. The hook writes
/// holding the armed slot's lock, so two threads panicking at once write
/// one dump after the other.
pub fn write_crash_dump(ctx: &CrashContext) -> std::io::Result<()> {
    let schedule = format!(
        "crash wal_round={}",
        ctx.last_wal_round.load(Ordering::Relaxed)
    );
    let jsonl = ctx
        .tracer
        .try_export_jsonl(ctx.seed, &schedule)
        .unwrap_or_else(|| write_jsonl(ctx.seed, &schedule, 0, &[]));
    std::fs::write(ctx.wal_dir.join("crash.jsonl"), jsonl)
}

/// Arms the crash dump: installs the process-wide panic hook (first call
/// only, chaining the previous hook) and sets the active context. A
/// later call replaces the context.
pub fn arm(ctx: CrashContext) {
    *slot().lock().expect("crash slot") = Some(ctx);
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // Dump first — the previous hook may abort the process.
            if let Ok(guard) = slot().lock() {
                if let Some(ctx) = guard.as_ref() {
                    let _ = write_crash_dump(ctx);
                }
            }
            previous(info);
        }));
    });
}

/// Disarms the crash dump (a cleanly finishing runtime is not a crash).
pub fn disarm() {
    *slot().lock().expect("crash slot") = None;
}

#[cfg(test)]
mod tests {
    use super::*;
    use algorand_obs::{parse_jsonl, SpanKind, Trace};
    use std::sync::mpsc;
    use std::time::Duration;

    /// The hook and its armed slot are process-wide: one test at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    /// Arms a context for `tracer` over a fresh `dir`, runs `panicking`
    /// under `catch_unwind` on its own thread, disarms, and returns the
    /// parsed dump. Exits the test binary instead of hanging if the hook
    /// blocks: the thread is abandoned after a timeout.
    fn dump_after_panic(name: &str, tracer: Tracer, panicking: fn(&Tracer)) -> Trace {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let dir =
            std::env::temp_dir().join(format!("algorand-crash-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let ctx = CrashContext {
            wal_dir: dir.clone(),
            seed: 11,
            tracer: tracer.clone(),
            last_wal_round: Arc::new(AtomicU64::new(3)),
        };
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            arm(ctx);
            let caught = std::panic::catch_unwind(|| panicking(&tracer)).is_err();
            disarm();
            let _ = done.send(caught);
        });
        let Ok(caught) = finished.recv_timeout(Duration::from_secs(30)) else {
            // The hung hook holds the armed slot, and a panic here would
            // run that hook and hang too: fail the whole binary instead.
            // (Written past the harness's capture, which exit discards.)
            let message = format!("crash::tests::{name}: the panic hook did not return\n");
            let _ = std::io::Write::write_all(&mut std::io::stderr(), message.as_bytes());
            std::process::exit(1);
        };
        assert!(caught, "the closure panicked");
        let dump = std::fs::read_to_string(dir.join("crash.jsonl")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        parse_jsonl(&dump).expect("crash dump parses as a trace")
    }

    fn record(tracer: &Tracer, rounds: std::ops::Range<u64>) {
        for i in rounds {
            tracer
                .span(SpanKind::Verify, 0, i, i)
                .label("vote")
                .instant();
        }
    }

    #[test]
    fn panic_dump_holds_the_newest_events_and_names_the_wal_round() {
        let tracer = Tracer::bounded(4);
        record(&tracer, 0..10);
        // A caught panic still runs the hook.
        let parsed = dump_after_panic("newest", tracer, |_| panic!("boom for the trace buffer"));
        assert_eq!(parsed.seed, 11);
        assert_eq!(parsed.schedule, "crash wal_round=3");
        assert_eq!(parsed.dropped, 6);
        let rounds: Vec<u64> = parsed.events.iter().map(|e| e.round).collect();
        assert_eq!(rounds, vec![6, 7, 8, 9]);
    }

    #[test]
    fn a_consumer_panicking_on_events_it_read_leaves_the_dump_whole() {
        let tracer = Tracer::bounded(8);
        record(&tracer, 0..3);
        let parsed = dump_after_panic("consumer", tracer, |t| {
            for ev in t.events_since(&mut 0) {
                if ev.round == 2 {
                    panic!("a check fails on an event it read");
                }
            }
        });
        assert_eq!(parsed.schedule, "crash wal_round=3");
        let rounds: Vec<u64> = parsed.events.iter().map(|e| e.round).collect();
        assert_eq!(rounds, vec![0, 1, 2]);
    }
}
