//! Experiment E12 — the XFilter/YFilter scenario of §VIII: many profile
//! queries over one stream. Compares N independent SPEX networks (full
//! node-selecting semantics) against the shared-pass boolean NFA filter
//! (document filtering only).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spex_baseline::FilterSet;
use spex_core::{CompiledNetwork, CountingSink, Evaluator};
use spex_query::Rpeq;
use spex_workloads::QuoteStream;
use spex_xml::XmlEvent;

fn profiles(n: usize) -> Vec<Rpeq> {
    let labels = ["symbol", "price", "volume", "alert", "nothing1", "nothing2"];
    (0..n)
        .map(|i| {
            format!("quotes.quote.{}", labels[i % labels.len()])
                .parse()
                .unwrap()
        })
        .collect()
}

fn multiquery(c: &mut Criterion) {
    let docs: Vec<XmlEvent> = QuoteStream::new(5, 10).take(50_000).collect();
    let mut group = c.benchmark_group("multiquery");
    group.sample_size(10);
    for n in [1usize, 10, 50] {
        let queries = profiles(n);
        group.bench_with_input(
            BenchmarkId::new("spex_networks", n),
            &queries,
            |b, queries| {
                let networks: Vec<CompiledNetwork> =
                    queries.iter().map(CompiledNetwork::compile).collect();
                b.iter(|| {
                    let mut sinks: Vec<CountingSink> =
                        (0..networks.len()).map(|_| CountingSink::new()).collect();
                    let mut evals: Vec<Evaluator<_>> = networks
                        .iter()
                        .zip(sinks.iter_mut())
                        .map(|(net, sink)| Evaluator::new(net, sink))
                        .collect();
                    for ev in &docs {
                        for e in &mut evals {
                            e.push(ev.clone());
                        }
                    }
                    evals.into_iter().map(|e| e.finish().results).sum::<u64>()
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("nfa_filter", n), &queries, |b, queries| {
            let mut set = FilterSet::new();
            for (i, q) in queries.iter().enumerate() {
                set.add(format!("q{i}"), q).unwrap();
            }
            b.iter(|| set.matching(&docs).len());
        });
    }
    group.finish();
}

criterion_group!(benches, multiquery);
criterion_main!(benches);
