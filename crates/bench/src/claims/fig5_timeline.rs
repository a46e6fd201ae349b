//! Figure 5 reconstruction: an example execution timeline of the memif
//! driver across its three kernel contexts.
//!
//! Two small migration requests are submitted back-to-back (small ⇒ the
//! kernel thread's polling mode, exactly the scenario Figure 5 draws):
//! the first is served on the syscall path after the single
//! `ioctl(MOV_ONE)`; its completion is detected by the sleeping kernel
//! thread, which performs Release+Notify and issues the second request —
//! whose preparation overlapped the first transfer.
//!
//! The entry has no table: its note is the rendered timeline and event
//! log.

use std::fmt::Write as _;

use memif::{Context, Memif, MemifConfig, MoveSpec, NodeId, PageSize, Sim, System};

use super::Report;

pub(super) fn run() -> Report {
    let mut sys = System::keystone_ii();
    sys.enable_tracing();
    let mut sim = Sim::new();
    let space = sys.new_space();
    let memif = Memif::open(&mut sys, space, MemifConfig::default()).unwrap();

    for _ in 0..2 {
        let va = sys.mmap(space, 16, PageSize::Small4K, NodeId(0)).unwrap();
        memif
            .submit(
                &mut sys,
                &mut sim,
                MoveSpec::migrate(va, 16, PageSize::Small4K, NodeId(1)),
            )
            .unwrap();
    }
    sim.run(&mut sys);
    while memif.retrieve_completed(&mut sys).unwrap().is_some() {}

    // Render: one lane per context, proportional bars.
    let trace = sys.trace().to_vec();
    let end = trace
        .iter()
        .map(|e| e.at + e.duration)
        .max()
        .expect("trace non-empty")
        .as_ns();
    const WIDTH: usize = 72;
    let scale = |ns: u64| (ns as usize * WIDTH / end as usize).min(WIDTH);

    let mut out = format!(
        "Figure 5 reconstruction: two 16-page migrations, polling mode\n\
         time: 0 .. {:.1} us; numbers are the driver ops of Table 1\n\n",
        end as f64 / 1e3
    );

    for ctx in [
        Context::Syscall,
        Context::KernelThread,
        Context::DmaEngine,
        Context::Interrupt,
    ] {
        let mut lane = [b' '; WIDTH + 1];
        for e in trace.iter().filter(|e| e.ctx == ctx) {
            let (s, t) = (scale(e.at.as_ns()), scale((e.at + e.duration).as_ns()));
            let glyph = match () {
                _ if e.label.contains("ops 1-3") => b'1',
                _ if e.label.contains("ops 4-5") => b'4',
                _ if e.label.contains("DMA transfer") => b'#',
                _ if e.label.contains("ioctl") => b'S',
                _ if e.label.contains("interrupt") => b'I',
                _ if e.label.contains("wakes") => b'w',
                _ if e.label.contains("blue") => b'z',
                _ => b'.',
            };
            for c in lane.iter_mut().take(t.max(s + 1)).skip(s) {
                *c = glyph;
            }
        }
        let _ = writeln!(
            out,
            "{:>8} |{}|",
            ctx.to_string(),
            String::from_utf8_lossy(&lane[..WIDTH])
        );
    }

    out.push_str(
        "\nlegend: S=ioctl crossing  1=ops1-3 (prep/remap/cfg)  #=DMA transfer\n        \
         w=kthread timed-sleep wake  4=ops4-5 (release/notify)  z=recolor blue\n\n\
         event log:\n",
    );
    for e in &trace {
        let _ = writeln!(
            out,
            "  {:>9.1} us  {:>8}  {:<52} {}",
            e.at.as_ns() as f64 / 1e3,
            e.ctx.to_string(),
            e.label,
            e.req.map(|r| format!("req {r}")).unwrap_or_default()
        );
    }

    // The Figure 5 story, asserted:
    let ops13: Vec<_> = trace
        .iter()
        .filter(|e| e.label.contains("ops 1-3"))
        .collect();
    let dma: Vec<_> = trace
        .iter()
        .filter(|e| e.label.contains("DMA transfer"))
        .collect();
    assert_eq!(ops13.len(), 2);
    assert_eq!(dma.len(), 2);
    assert_eq!(
        ops13[0].ctx,
        Context::Syscall,
        "first request on the syscall path"
    );
    assert_eq!(
        ops13[1].ctx,
        Context::KernelThread,
        "second on the kernel thread"
    );
    assert!(
        ops13[1].at < dma[0].at + dma[0].duration,
        "request 2's CPU work overlaps request 1's transfer (pipelining)"
    );
    out.push_str(
        "\nchecks: syscall path served request 0; the kernel thread prepared request 1\n\
         during request 0's transfer; completions were polled, not interrupt-driven.",
    );

    Report {
        tables: Vec::new(),
        note: out,
    }
}
