//! Criterion micro-benchmarks for the hot paths of the urcgc stack:
//! the wire codec, the coordinator's decision computation, the causal
//! machinery, the history buffer, and whole simulated rounds.
//!
//! Run: `cargo bench -p urcgc-bench`

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use urcgc::sim::{GroupHarness, Workload};
use urcgc::ProtocolConfig;
use urcgc_causal::{CausalGraph, DeliveryTracker, Labeler, WaitingList};
use urcgc_history::{History, StabilityMatrix, StableVector};
use urcgc_simnet::FaultPlan;
use urcgc_types::CausalityMode;
use urcgc_types::{
    decode_pdu, encode_pdu, DataMsg, Decision, Mid, Pdu, ProcessId, RequestMsg, Round, Subrun,
    NO_SEQ,
};

fn sample_request(n: usize) -> Pdu {
    Pdu::Request(RequestMsg {
        sender: ProcessId(1),
        subrun: Subrun(9),
        last_processed: (0..n as u64).collect(),
        waiting: vec![NO_SEQ; n],
        prev_decision: std::sync::Arc::new(Decision::genesis(n)),
        forwarded: false,
    })
}

fn sample_data(deps: usize) -> Pdu {
    Pdu::data(DataMsg {
        mid: Mid::new(ProcessId(0), 100),
        deps: (0..deps)
            .map(|i| Mid::new(ProcessId::from_index(i), 7))
            .collect(),
        round: Round(12),
        payload: Bytes::from(vec![0u8; 64]),
    })
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    for n in [5usize, 15, 40] {
        let pdu = sample_request(n);
        let frame = encode_pdu(&pdu);
        g.throughput(Throughput::Bytes(frame.len() as u64));
        g.bench_function(format!("encode_request_n{n}"), |b| {
            b.iter(|| encode_pdu(std::hint::black_box(&pdu)))
        });
        g.bench_function(format!("decode_request_n{n}"), |b| {
            b.iter(|| decode_pdu(std::hint::black_box(&frame)).unwrap())
        });
    }
    let data = sample_data(8);
    let frame = encode_pdu(&data);
    g.bench_function("roundtrip_data_8deps", |b| {
        b.iter(|| decode_pdu(std::hint::black_box(&frame)).unwrap())
    });
    g.finish();
}

fn bench_decision(c: &mut Criterion) {
    let mut g = c.benchmark_group("coordinator");
    for n in [10usize, 40] {
        let prev = Decision::genesis(n);
        let mut matrix = StabilityMatrix::new(n);
        for i in 0..n {
            matrix.record(
                ProcessId::from_index(i),
                (0..n as u64).map(|q| q + i as u64).collect(),
                vec![NO_SEQ; n],
                &prev,
            );
        }
        g.bench_function(format!("decision_compute_n{n}"), |b| {
            b.iter(|| matrix.compute(Subrun(3), ProcessId(0), 3, std::hint::black_box(&prev)))
        });
    }
    g.finish();
}

fn bench_causal(c: &mut Criterion) {
    let mut g = c.benchmark_group("causal");
    g.bench_function("graph_insert_chain_100", |b| {
        b.iter_batched(
            CausalGraph::new,
            |mut graph| {
                for s in 1..=100u64 {
                    let deps = if s > 1 {
                        vec![Mid::new(ProcessId(0), s - 1)]
                    } else {
                        vec![]
                    };
                    graph.insert(Mid::new(ProcessId(0), s), &deps).unwrap();
                }
                graph
            },
            BatchSize::SmallInput,
        )
    });
    let mut graph = CausalGraph::new();
    for s in 1..=100u64 {
        let deps = if s > 1 {
            vec![Mid::new(ProcessId(0), s - 1)]
        } else {
            vec![]
        };
        graph.insert(Mid::new(ProcessId(0), s), &deps).unwrap();
    }
    g.bench_function("graph_precedes_depth_100", |b| {
        b.iter(|| {
            graph.causally_precedes(
                std::hint::black_box(Mid::new(ProcessId(0), 1)),
                std::hint::black_box(Mid::new(ProcessId(0), 100)),
            )
        })
    });
    g.finish();
}

fn bench_history(c: &mut Criterion) {
    let mut g = c.benchmark_group("history");
    g.bench_function("save_purge_cycle_40x20", |b| {
        b.iter_batched(
            || History::new(40),
            |mut h| {
                for p in 0..40u16 {
                    for s in 1..=20u64 {
                        h.save(std::sync::Arc::new(DataMsg {
                            mid: Mid::new(ProcessId(p), s),
                            deps: vec![],
                            round: Round(0),
                            payload: Bytes::from_static(b"x"),
                        }));
                    }
                }
                h.advance_stability(&StableVector::new(&vec![20u64; 40]));
                h
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulation");
    g.sample_size(10);
    g.bench_function("group_n10_100msgs_reliable", |b| {
        b.iter(|| {
            let mut h = GroupHarness::builder(ProtocolConfig::new(10))
                .workload(Workload::fixed_count(10, 16))
                .seed(1)
                .build();
            h.run_to_completion(5_000)
        })
    });
    g.bench_function("group_n10_100msgs_omission", |b| {
        b.iter(|| {
            let mut h = GroupHarness::builder(ProtocolConfig::new(10))
                .workload(Workload::fixed_count(10, 16))
                .faults(FaultPlan::none().omission_rate(0.01))
                .seed(1)
                .build();
            h.run_to_completion(10_000)
        })
    });
    g.finish();
}

fn bench_labeler_and_waiting(c: &mut Criterion) {
    let mut g = c.benchmark_group("delivery-path");
    g.bench_function("label_single_root_100", |b| {
        b.iter_batched(
            || Labeler::new(ProcessId(0), 10, CausalityMode::SingleRootPerProcess),
            |mut l| {
                for _ in 0..100 {
                    l.label(&[]).unwrap();
                }
                l
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("waiting_park_release_64", |b| {
        b.iter_batched(
            || {
                let mut w = WaitingList::new();
                let mut t = DeliveryTracker::new(4);
                t.mark_processed(Mid::new(ProcessId(1), 1));
                // 64 parked messages, each waiting on p0#1.
                for s in 2..=65u64 {
                    let tr = &t;
                    w.park(
                        std::sync::Arc::new(DataMsg {
                            mid: Mid::new(ProcessId(1), s),
                            deps: vec![Mid::new(ProcessId(0), 1), Mid::new(ProcessId(1), s - 1)],
                            round: Round(0),
                            payload: Bytes::new(),
                        }),
                        |m| tr.is_processed(m),
                    );
                }
                (w, t)
            },
            |(mut w, mut t)| {
                t.mark_processed(Mid::new(ProcessId(0), 1));
                let mut wave = w.wake(Mid::new(ProcessId(0), 1));
                while let Some(m) = wave.pop() {
                    t.mark_processed(m.mid);
                    wave.extend(w.wake(m.mid));
                }
                (w, t)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_codec,
    bench_decision,
    bench_causal,
    bench_history,
    bench_labeler_and_waiting,
    bench_sim
);
criterion_main!(benches);
