//! Host-time spans for the traced run.
//!
//! Every call `perf` makes into a layer can be wrapped in a named span.
//! Spans nest, and a span's *self time* is its duration minus the spans
//! nested inside it, so the simulator's own work inside a `Sim::step`
//! is not charged twice when an application callback in that step calls
//! the memif API. Tracing is off unless a traced round turns it on; an
//! untraced round pays one thread-local flag read per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use memif::{HookId, Sim, System};

#[derive(Default)]
struct Tracer {
    on: bool,
    /// Host ns covered by the children of each open span, innermost last.
    open: Vec<u64>,
    /// Total self ns and call count per span name.
    totals: BTreeMap<&'static str, (u64, u64)>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::default();
}

/// Turns span recording on or off for this thread.
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().on = on);
}

/// Takes the accumulated `(self ns, calls)` per span name.
pub fn take() -> BTreeMap<&'static str, (u64, u64)> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().totals))
}

/// Runs `f` inside the span `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let (out, self_ns) = timed(f);
    if let Some(ns) = self_ns {
        record(name, ns);
    }
    out
}

/// Runs `f` as a span whose name is chosen after it returns; yields the
/// span's self time (`None` while tracing is off) for [`record`].
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Option<u64>) {
    let on = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.on {
            t.open.push(0);
        }
        t.on
    });
    if !on {
        return (f(), None);
    }
    let start = Instant::now();
    let out = f();
    let total = start.elapsed().as_nanos() as u64;
    let self_ns = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let children = t.open.pop().expect("span stack balanced");
        if let Some(parent) = t.open.last_mut() {
            *parent += total;
        }
        total.saturating_sub(children)
    });
    (out, Some(self_ns))
}

/// Adds one call of `self_ns` to span `name`.
pub fn record(name: &'static str, self_ns: u64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let entry = t.totals.entry(name).or_default();
        entry.0 += self_ns;
        entry.1 += 1;
    });
}

/// Runs the simulation to quiescence. A traced run steps it one event at
/// a time and charges each step's self time to the layer that handled
/// it, read from the last record the step added to the event log (a
/// flow tick that delivers a DMA completion dispatches that completion
/// inside itself, so it counts as `driver.complete`). `app` is the hook
/// of `perf`'s own application callbacks, which no layer owns.
pub fn drive(sys: &mut System, sim: &mut Sim<System>, traced: bool, app: Option<HookId>) {
    if !traced {
        sim.run(sys);
        return;
    }
    let app = app.map(|h| {
        let id = format!("{h:?}");
        id.trim_start_matches("HookId(")
            .trim_end_matches(')')
            .parse::<u64>()
            .expect("HookId debug form is HookId(n)")
    });
    sys.enable_event_log();
    loop {
        let (stepped, self_ns) = timed(|| sim.step(sys));
        if !stepped {
            break;
        }
        let log = sys.take_event_log();
        if let (Some(ns), Some(last)) = (self_ns, log.last()) {
            record(layer_of(last, app), ns);
        }
    }
}

/// The span a step is charged to, from its last event-log record.
fn layer_of(record: &str, app: Option<u64>) -> &'static str {
    match field(record, "type") {
        Some("\"kthread_run\"" | "\"kthread_continue\"") => "driver.issue",
        Some("\"dma_done\"") => "driver.complete",
        Some("\"irq_release\"" | "\"poll_release\"" | "\"degraded_release\"") => "driver.release",
        Some("\"launch\"" | "\"retry_launch\"") => "dma.launch",
        Some("\"hook\"") => {
            let number = |key| field(record, key).and_then(|v| v.parse::<u64>().ok());
            if number("hook") == app {
                "app"
            } else if number("arg").unwrap_or(0) > 0 {
                // The placement daemon numbers its epochs from 1; its
                // completion waker always runs with argument 0.
                "policy.epoch"
            } else {
                "policy.drain"
            }
        }
        Some("\"thunk\"") => "app",
        _ => "sched.other",
    }
}

/// The raw value text of `"key":` in a flat JSON record.
fn field<'a>(record: &'a str, key: &str) -> Option<&'a str> {
    let at = record.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &record[at..];
    let end = match rest.strip_prefix('"') {
        Some(quoted) => quoted.find('"')? + 2,
        None => rest.find([',', '}'])?,
    };
    Some(&rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_are_charged_by_their_last_record() {
        assert_eq!(
            layer_of("{\"t\":5,\"type\":\"kthread_run\",\"device\":0}", None),
            "driver.issue"
        );
        assert_eq!(
            layer_of("{\"t\":5,\"type\":\"hook\",\"hook\":2,\"arg\":7}", Some(2)),
            "app"
        );
        assert_eq!(
            layer_of("{\"t\":5,\"type\":\"hook\",\"hook\":0,\"arg\":7}", Some(2)),
            "policy.epoch"
        );
        assert_eq!(
            layer_of("{\"t\":5,\"type\":\"hook\",\"hook\":1,\"arg\":0}", Some(2)),
            "policy.drain"
        );
    }

    #[test]
    fn self_time_excludes_nested_spans() {
        set_enabled(true);
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        set_enabled(false);
        let totals = take();
        let (outer, _) = totals["outer"];
        let (inner, _) = totals["inner"];
        assert!(inner >= 20_000_000, "inner span covers the sleep");
        assert!(outer < inner / 2, "outer self time excludes the inner span");
    }
}
