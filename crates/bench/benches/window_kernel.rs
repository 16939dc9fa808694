//! Prepared run-plan kernel vs the reference per-cell retention loop.
//!
//! `window/…` compares one refresh window at the DIMM layer over the full
//! default weak-cell population; `run/reference` and `run/prepared` compare
//! one complete multi-window evaluation at the server layer. The prepared
//! path re-examines only the VRT-contingent cells each window (everything
//! else is pre-partitioned into static events at `prepare_run` time), so it
//! must win by a wide margin: the acceptance bar is 5×. `run/batched`
//! evaluates the ten repeat runs of one fitness call together through the
//! lane kernel, the path campaigns take (perfbench's
//! `dram.window_kernel_us` times the same call). `plan/cold` times one plan
//! build after a write, cell-state refresh included, on a fully written
//! DIMM: the target-MCU plan build of a candidate evaluation.
//! `scripts/record_window_kernel.sh` records every row to
//! `BENCH_window_kernel.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use dstress_dram::geometry::RowKey;
use dstress_dram::{ActivationCounts, Dimm, DimmConfig, Location, OperatingEnv};
use dstress_platform::session::MemoryBus;
use dstress_platform::{ServerConfig, XGene2Server};

fn bench(c: &mut Criterion) {
    // DIMM layer: one refresh window, default population (~8k weak cells),
    // worst-case fill in the hammered bank, heavy activation pressure.
    let mut dimm = Dimm::new(DimmConfig::default(), 1);
    let words = dimm.geometry().words_per_row();
    for col in 0..words {
        dimm.write_word(Location::new(0, 0, 0, col as u32), 0x3333_3333_3333_3333);
    }
    let env = OperatingEnv::relaxed(60.0);
    let mut acts = ActivationCounts::new();
    for row in 0..8 {
        acts.add(RowKey::new(0, 0, row), 40_000);
    }
    let disturbance = dimm.disturbance_profile(&acts);
    let plan = dimm.prepare_run(&env, &disturbance).expect("plan builds");
    let mut nonce = 0u64;
    c.bench_function("window/reference", |b| {
        b.iter(|| {
            nonce += 1;
            std::hint::black_box(
                dimm.advance_window_profiled(&env, &disturbance, nonce)
                    .len(),
            )
        })
    });
    let mut events = Vec::new();
    c.bench_function("window/planned", |b| {
        b.iter(|| {
            nonce += 1;
            dimm.advance_window_planned(&plan, nonce, &mut events)
                .expect("plan is fresh");
            std::hint::black_box(events.len())
        })
    });

    // DIMM layer, cold plan: the whole DIMM holds the worst word (as a
    // 64-bit data-pattern virus leaves it) and each iteration rewrites one
    // word, so the contents generation bumps and `prepare_run` pays the
    // cell-state refresh before its plan loop — the target-MCU plan build
    // of one candidate evaluation.
    let mut cold = Dimm::new(DimmConfig::default(), 1);
    let geo = cold.geometry();
    let row = vec![0x3333_3333_3333_3333u64; words];
    for rank in 0..geo.ranks {
        for bank in 0..geo.banks {
            for r in 0..geo.rows_per_bank {
                cold.write_row(RowKey::new(rank, bank, r), &row);
            }
        }
    }
    let mut flip = 0u64;
    c.bench_function("plan/cold", |b| {
        b.iter(|| {
            flip ^= 1;
            cold.write_word(Location::new(0, 0, 0, 0), 0x3333_3333_3333_3333 ^ flip);
            std::hint::black_box(
                cold.prepare_run(&env, &disturbance)
                    .expect("plan builds")
                    .vrt_cells(),
            )
        })
    });

    // Server layer: a recorded run evaluated over the default number of
    // refresh windows across all four MCUs.
    let mut server = XGene2Server::new(ServerConfig::default());
    server.relax_second_domain();
    server.set_dimm_temperature(2, 60.0).unwrap();
    server.set_dimm_temperature(3, 60.0).unwrap();
    let mut session = server.session(2);
    let base = session.alloc(64 * 1024).expect("alloc");
    let data = vec![0x3333_3333_3333_3333u64; 8192];
    session.fill(base, &data).expect("fill");
    for _ in 0..2 {
        for w in 0..8192u64 {
            session.read_u64(base + w * 8).expect("read");
        }
    }
    let run = session.finish();
    let prepared = server.prepare_run(&run).expect("plans build");
    c.bench_function("run/reference", |b| {
        b.iter(|| {
            nonce += 1;
            std::hint::black_box(server.evaluate_run_reference(&run, nonce).totals)
        })
    });
    c.bench_function("run/prepared", |b| {
        b.iter(|| {
            nonce += 1;
            std::hint::black_box(
                server
                    .evaluate_prepared(&prepared, nonce)
                    .expect("fresh")
                    .totals,
            )
        })
    });
    // The path campaigns take: the ten repeat runs of one fitness call
    // advance together through the lane kernel.
    c.bench_function("run/batched", |b| {
        b.iter(|| {
            nonce += 10;
            std::hint::black_box(
                server
                    .evaluate_prepared_runs(&prepared, 10, nonce)
                    .expect("fresh")
                    .len(),
            )
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
