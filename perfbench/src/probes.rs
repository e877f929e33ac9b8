//! Calls a traced run makes besides the job, shared by every workload:
//! a fixed simulator access stream (`sim.ns_per_line`), the allocator
//! microbenchmark (`alloc.self_ms`) and the trace export.

use crate::spans::Tracer;
use nqp_alloc::microbench::{run_microbench, MicrobenchConfig};
use nqp_alloc::AllocatorKind;
use nqp_sim::{Access, NumaSim, SimConfig, SimResult, TraceLog};
use nqp_topology::machines;
use nqp_trace::{Trace, TraceMeta};

/// Items in the replayed stream (each one is a scan line share plus
/// three scattered touches).
const REPLAY_ITEMS: u64 = 200_000;

/// Replay a fixed W1-shaped access stream through
/// `NumaSim::try_parallel` / `Worker::touch` on machine B (8 threads,
/// tuned): a ranged input scan, then per item a directory read, an
/// entry read and an entry write. Returns the simulated lines it
/// touched (L1 hits + LLC hits + LLC misses), which repeat exactly.
pub fn sim_replay(tracer: &Tracer) -> SimResult<u64> {
    const THREADS: u64 = 8;
    let mut sim = NumaSim::new(SimConfig::tuned(machines::machine_b()));
    let n = REPLAY_ITEMS;
    let slots = n / 5;
    let mut bases = (0u64, 0u64, 0u64);
    sim.try_serial(&mut bases, |w, b| {
        b.0 = w.map_pages((n * 16).div_ceil(4096) * 4096);
        b.1 = w.map_pages((slots * 8).div_ceil(4096) * 4096);
        b.2 = w.map_pages((n * 24).div_ceil(4096) * 4096);
    })?;
    let (input, dir, heap) = bases;
    let before = sim.counters();
    tracer.span("sim.replay", || {
        sim.try_parallel(THREADS as usize, &mut (), |w, _| {
            let tid = w.tid() as u64;
            let (start, end) = (n * tid / THREADS, n * (tid + 1) / THREADS);
            let mut x = 0x9e37_79b9 ^ tid;
            let mut i = start;
            while i < end {
                let k = (end - i).min(32);
                w.touch(input + i * 16, k * 16, Access::Read);
                for _ in 0..k {
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    w.touch(dir + (x >> 33) % slots * 8, 8, Access::Read);
                    let e = heap + (x >> 17) % n * 24;
                    w.touch(e, 24, Access::Read);
                    w.touch(e + 8, 16, Access::Write);
                }
                i += k;
            }
        })
    })?;
    let c = sim.counters() - before;
    Ok(c.l1_hits + c.cache_hits + c.cache_misses)
}

/// The allocator microbenchmark on the grids' two allocators (ptmalloc
/// for os-default, tbbmalloc for tuned) at 8 threads on machine B.
pub fn alloc_microbench(tracer: &Tracer) {
    let machine = machines::machine_b();
    let cfg = MicrobenchConfig {
        ops_per_thread: 20_000,
        live_target: 6_000,
        seed: 42,
    };
    for kind in [AllocatorKind::Ptmalloc, AllocatorKind::Tbbmalloc] {
        std::hint::black_box(tracer.span("alloc.microbench", || {
            run_microbench(kind, &machine, 8, &cfg)
        }));
    }
}

/// Package a simulator trace as an artifact and render it both ways
/// (text artifact and Chrome JSON), in memory. Returns the number of
/// trace events exported.
pub fn export(tracer: &Tracer, label: &str, log: &TraceLog) -> f64 {
    tracer.span("trace.export", || {
        let meta = TraceMeta {
            label: label.to_string(),
            trial: 0,
            machine: "B".to_string(),
            threads: 8,
        };
        let trace = Trace::from_log(meta, log);
        let bytes = trace.to_text().len() + trace.to_chrome_json().len();
        std::hint::black_box(bytes);
    });
    log.events().len() as f64
}
