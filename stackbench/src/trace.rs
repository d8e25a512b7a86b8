//! In-memory spans around calls into the measured crates. Off by default;
//! the traced run turns it on. Spans are buffered per thread, gathered with
//! [`flush_thread`], and written once when the run ends.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static BUF: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified call name, e.g. `serve.submit`.
    pub name: &'static str,
    /// Unique span id.
    pub id: u64,
    /// Enclosing span on the same thread (0 for none).
    pub parent: u64,
    /// Request id shared by the spans of one request (0 for none).
    pub req: u64,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turns span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name` tagged with request id `req`.
pub fn span<R>(name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let start = epoch().elapsed().as_nanos() as u64;
    let out = f();
    let end = epoch().elapsed().as_nanos() as u64;
    STACK.with(|s| s.borrow_mut().pop());
    BUF.with(|b| {
        b.borrow_mut().push(Span {
            name,
            id,
            parent,
            req,
            start_ns: start,
            end_ns: end,
        })
    });
    out
}

/// Moves this thread's buffered spans to the shared sink. Call at the end
/// of every thread that records spans.
pub fn flush_thread() {
    let spans = BUF.with(|b| std::mem::take(&mut *b.borrow_mut()));
    if !spans.is_empty() {
        SINK.lock().expect("span sink poisoned").extend(spans);
    }
}

/// Every span recorded so far, ordered by start time.
pub fn collect() -> Vec<Span> {
    flush_thread();
    let mut all = SINK.lock().expect("span sink poisoned").clone();
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// Writes `spans` as JSON lines to `path`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.req, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_request() {
        set_enabled(true);
        let v = span("outer", 9, || span("inner", 9, || 41) + 1);
        set_enabled(false);
        assert_eq!(v, 42);
        let spans = collect();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.req, 9);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(span("off", 0, || 1), 1);
        assert!(collect().iter().all(|s| s.name != "off"));
    }
}
