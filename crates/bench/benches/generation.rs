//! Batched generation evaluation vs the per-candidate pipeline.
//!
//! `generation/batched` scores a full 40-candidate word64 generation (the
//! paper's population size, §IV-B) through `evaluate_bindings`, one
//! candidate after another: bulk-fill VM, shared profile and plan caches,
//! and the lane-packed VRT window kernel. The population's repeats are
//! evaluated again, as they would be if the GA engine's evaluation cache
//! (the only dedup layer) missed them. `generation/per_candidate` is the
//! pipeline the batched path replaced: every candidate instantiated,
//! executed (strict word-at-a-time VM), planned (caches cleared first) and
//! run one evaluation at a time. `scripts/record_generation.sh` records
//! both sides and the ratio to `BENCH_generation.json`.

use std::collections::HashMap;

use criterion::{criterion_group, criterion_main, Criterion};
use dstress::templates;
use dstress::{ExperimentScale, Metric, VirusEvaluator};
use dstress_platform::XGene2Server;
use dstress_vpl::{compile, BoundValue, ExecLimits, Vm};

/// A converged-looking population: 32 distinct data patterns plus 8
/// repeats of the front-runners, as a real GA generation carries.
fn population() -> Vec<HashMap<String, BoundValue>> {
    let mut patterns: Vec<u64> = (0..32u64)
        .map(|i| 0x3333_3333_3333_3333u64.rotate_left((i % 16) as u32) ^ (i << 56))
        .collect();
    patterns.extend(std::iter::repeat_n(patterns[0], 5));
    patterns.extend(std::iter::repeat_n(patterns[1], 3));
    patterns
        .iter()
        .map(|&p| [("PATTERN".to_string(), BoundValue::Scalar(p))].into())
        .collect()
}

fn bench(c: &mut Criterion) {
    let scale = ExperimentScale::paper();
    let make_server = || {
        let mut server = XGene2Server::new(scale.server);
        server.relax_second_domain();
        server.set_dimm_temperature(2, 60.0).unwrap();
        server
    };
    let template = templates::process(templates::WORD64, &scale).unwrap();
    let mem_words = scale.dimm_words();
    let env: HashMap<String, BoundValue> = [
        ("MEM_BYTES".to_string(), BoundValue::Scalar(mem_words * 8)),
        ("MEM_WORDS".to_string(), BoundValue::Scalar(mem_words)),
    ]
    .into_iter()
    .collect();
    let chromosomes = population();
    let runs = scale.runs_per_virus;

    let mut evaluator = VirusEvaluator::new(
        make_server(),
        template.clone(),
        env.clone(),
        Metric::CeAverage,
        runs,
        2,
    );
    c.bench_function("generation/batched", |b| {
        b.iter(|| {
            let scored = chromosomes
                .iter()
                .filter(|chromosome| evaluator.evaluate_bindings((*chromosome).clone()).is_ok())
                .count();
            std::hint::black_box(scored)
        })
    });

    // The replaced pipeline, reproduced step by step: a strict
    // word-at-a-time VM, cold plan/profile caches for every candidate, and
    // the repeat runs evaluated one at a time.
    let mut server = make_server();
    let limits = ExecLimits::default();
    let mut nonce = 0u64;
    c.bench_function("generation/per_candidate", |b| {
        b.iter(|| {
            let mut scored = 0usize;
            for chromosome in &chromosomes {
                server.clear_eval_caches();
                let mut bindings = env.clone();
                bindings.extend(chromosome.iter().map(|(k, v)| (k.clone(), v.clone())));
                let program = template.instantiate(&bindings).unwrap();
                let compiled = compile(&program).unwrap();
                server.reset_memory();
                let mut session = server.session(2);
                Vm::new(limits)
                    .without_bulk_fill()
                    .run(&compiled, &mut session)
                    .unwrap();
                let run = session.finish();
                nonce += 1;
                let outcomes = server.evaluate_runs_sequential(&run, runs, nonce).unwrap();
                scored += outcomes.len();
            }
            std::hint::black_box(scored)
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
