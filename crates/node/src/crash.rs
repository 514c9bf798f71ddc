//! Crash forensics: a panic hook that dumps the flight recorder.
//!
//! A panicking node takes its in-memory trace with it — precisely the
//! evidence that explains the panic. [`arm`] installs a process-wide
//! panic hook that writes the flight recorder's ring, plus the last
//! WAL-persisted round, to `<wal_dir>/crash.jsonl` *before* the process
//! unwinds away. The dump is ordinary trace JSONL (header `schedule`
//! field `crash wal_round=<n>`), so [`algorand_obs::parse_jsonl`] and
//! every trace tool read it unchanged.
//!
//! Only panics produce a dump: `kill -9` gives the process no
//! opportunity to run anything, and the localnet CI gate asserts exactly
//! that asymmetry (SIGKILL → no `crash.jsonl`; panic → parseable dump).

use algorand_obs::FlightHandle;
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
    /// The flight recorder to drain.
    pub flight: FlightHandle,
    /// Highest round the WAL has durably persisted; the runtime keeps
    /// this current so the dump names where replay will resume.
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
/// callable so tests can exercise the exact write path. The hook is the
/// ring's only reader, and it writes holding the armed slot's lock, so
/// two threads panicking at once write one dump after the other.
pub fn write_crash_dump(ctx: &CrashContext) -> std::io::Result<()> {
    let schedule = format!(
        "crash wal_round={}",
        ctx.last_wal_round.load(Ordering::Relaxed)
    );
    let jsonl = ctx.flight.dump_jsonl(ctx.seed, &schedule);
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
    use algorand_obs::{parse_jsonl, SpanKind, Tracer};

    #[test]
    fn panic_dump_parses_and_names_the_wal_round() {
        let dir = std::env::temp_dir().join(format!("algorand-crash-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let _ = std::fs::remove_file(dir.join("crash.jsonl"));

        let flight = FlightHandle::new(64);
        let tracer = Tracer::bounded(16);
        tracer.set_observer(flight.observer());
        for i in 0..5u64 {
            tracer
                .span(SpanKind::Verify, 0, i, i)
                .label("vote")
                .instant();
        }
        let last_wal_round = Arc::new(AtomicU64::new(3));
        arm(CrashContext {
            wal_dir: dir.clone(),
            seed: 11,
            flight,
            last_wal_round,
        });

        // A caught panic still runs the hook.
        let result = std::panic::catch_unwind(|| panic!("boom for the flight recorder"));
        assert!(result.is_err());
        disarm();

        let dump = std::fs::read_to_string(dir.join("crash.jsonl")).unwrap();
        let parsed = parse_jsonl(&dump).expect("crash dump parses as a trace");
        assert_eq!(parsed.seed, 11);
        assert_eq!(parsed.schedule, "crash wal_round=3");
        assert_eq!(parsed.events.len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
