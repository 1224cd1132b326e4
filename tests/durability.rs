//! Durability properties with shrinking: a document-boundary checkpoint
//! restored into a fresh run is invisible — the continuation delivers the
//! same fragments at the same ticks and finishes with identical statistics
//! as the uninterrupted run — and a
//! corrupted or truncated snapshot always fails to decode with a structured
//! error, never a panic. The seeded `harness crash-diff` rig covers volume
//! (random kill offsets, WAL tails, recovery policies); these properties
//! cover minimization. A last test pins the snapshot size as O(query).

use proptest::prelude::*;
use spex::core::{
    CompiledNetwork, CountingSink, EngineStats, Evaluator, FragmentCollector, Pump,
    RecoveryOptions, Snapshot, TransducerStats,
};
use spex::query::{Label, Rpeq};
use spex::xml::XmlEvent;

fn label() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("c".to_string())
    ]
}

fn qlabel() -> impl Strategy<Value = Label> {
    prop_oneof![
        3 => label().prop_map(Label::Name),
        1 => Just(Label::Wildcard),
    ]
}

/// Balanced subtree events.
fn subtree(depth: u32) -> impl Strategy<Value = Vec<XmlEvent>> {
    let leaf = label().prop_map(|l| vec![XmlEvent::open(l.clone()), XmlEvent::close(l)]);
    leaf.prop_recursive(depth, 48, 3, |inner| {
        (label(), proptest::collection::vec(inner, 0..3)).prop_map(|(l, kids)| {
            let mut v = vec![XmlEvent::open(l.clone())];
            for k in kids {
                v.extend(k);
            }
            v.push(XmlEvent::close(l));
            v
        })
    })
}

fn document() -> impl Strategy<Value = Vec<XmlEvent>> {
    (label(), proptest::collection::vec(subtree(4), 0..3)).prop_map(|(root, kids)| {
        let mut v = vec![XmlEvent::StartDocument, XmlEvent::open(root.clone())];
        for k in kids {
            v.extend(k);
        }
        v.push(XmlEvent::close(root));
        v.push(XmlEvent::EndDocument);
        v
    })
}

fn query() -> impl Strategy<Value = Rpeq> {
    let leaf = prop_oneof![
        4 => qlabel().prop_map(Rpeq::Step),
        2 => qlabel().prop_map(Rpeq::Plus),
        2 => qlabel().prop_map(Rpeq::Star),
        1 => Just(Rpeq::Empty),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            3 => (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Rpeq::Concat(Box::new(a), Box::new(b))),
            1 => (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Rpeq::Union(Box::new(a), Box::new(b))),
            2 => (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Rpeq::Qualified(Box::new(a), Box::new(b))),
            1 => inner.prop_map(|a| Rpeq::Optional(Box::new(a))),
        ]
    })
}

type FullRun = (
    Vec<String>,
    EngineStats,
    Vec<TransducerStats>,
    Vec<(u64, u64)>,
);

/// The uninterrupted multi-document session: every document pushed through
/// one evaluator, `reset_session` at each boundary.
fn run_full(net: &CompiledNetwork, docs: &[Vec<XmlEvent>]) -> FullRun {
    let mut sink = FragmentCollector::new();
    let mut eval = Evaluator::new(net, &mut sink);
    for doc in docs {
        for ev in doc {
            eval.push(ev.clone());
        }
        eval.reset_session();
    }
    let (stats, transducers) = eval.finish_full();
    let timing = sink.timing.clone();
    (sink.into_fragments(), stats, transducers, timing)
}

/// The same session killed after `split` documents: checkpoint at the
/// boundary, encode to bytes, decode, restore into a brand-new evaluator
/// and push the remaining documents there.
fn run_checkpointed(net: &CompiledNetwork, docs: &[Vec<XmlEvent>], split: usize) -> FullRun {
    let mut prefix_sink = FragmentCollector::new();
    let mut eval = Evaluator::new(net, &mut prefix_sink);
    for doc in &docs[..split] {
        for ev in doc {
            eval.push(ev.clone());
        }
        eval.reset_session();
    }
    let bytes = eval
        .checkpoint()
        .expect("a document boundary is quiescent")
        .encode();
    drop(eval);
    let snap = Snapshot::decode(&bytes).expect("own snapshot decodes");
    let mut sink = FragmentCollector::new();
    let mut eval = Evaluator::new(net, &mut sink);
    eval.restore(&snap).expect("own snapshot restores");
    for doc in &docs[split..] {
        for ev in doc {
            eval.push(ev.clone());
        }
        eval.reset_session();
    }
    let (stats, transducers) = eval.finish_full();
    let mut timing = prefix_sink.timing.clone();
    timing.extend(sink.timing.iter().copied());
    let mut fragments = prefix_sink.into_fragments();
    fragments.extend(sink.into_fragments());
    (fragments, stats, transducers, timing)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn checkpoint_restore_is_transparent(
        docs in proptest::collection::vec(document(), 2..4),
        q in query(),
        split_sel in any::<u64>()
    ) {
        let net = CompiledNetwork::compile(&q);
        let split = 1 + (split_sel as usize) % (docs.len() - 1);
        let base = run_full(&net, &docs);
        let resumed = run_checkpointed(&net, &docs, split);
        prop_assert_eq!(
            &resumed.0, &base.0,
            "fragments diverge for `{}` split {}", &q, split
        );
        prop_assert_eq!(
            &resumed.1, &base.1,
            "stats diverge for `{}` split {}", &q, split
        );
        prop_assert_eq!(
            &resumed.2, &base.2,
            "transducer stats diverge for `{}` split {}", &q, split
        );
        prop_assert_eq!(
            &resumed.3, &base.3,
            "delivery timing diverges for `{}` split {}", &q, split
        );
    }

    #[test]
    fn corrupt_snapshots_fail_structurally(
        doc in document(),
        q in query(),
        flip in any::<u64>(),
        trunc in any::<u64>()
    ) {
        let net = CompiledNetwork::compile(&q);
        let mut sink = CountingSink::new();
        let mut eval = Evaluator::new(&net, &mut sink);
        for ev in &doc {
            eval.push(ev.clone());
        }
        eval.reset_session();
        let bytes = eval.checkpoint().expect("quiescent").encode();
        prop_assert!(Snapshot::decode(&bytes).is_ok(), "clean snapshot must decode");
        // Any single bit flip anywhere — magic, version, length, checksum,
        // payload — is rejected with an error, never a panic.
        let bit = (flip as usize) % (bytes.len() * 8);
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(Snapshot::decode(&flipped).is_err(), "flipped bit {} must not decode", bit);
        // Any strict truncation is rejected too.
        let cut = (trunc as usize) % bytes.len();
        prop_assert!(Snapshot::decode(&bytes[..cut]).is_err(), "{}-byte prefix must not decode", cut);
    }
}

/// DESIGN §15: a checkpoint is O(query), not O(input). The same query over
/// documents nested 4 to 256 levels deep leaves snapshots of one size.
#[test]
fn snapshot_size_is_independent_of_document_depth() {
    let net = CompiledNetwork::compile(&"_*.a[b].c".parse().expect("query parses"));
    let sizes: Vec<usize> = [4usize, 16, 64, 256]
        .into_iter()
        .map(|depth| {
            let xml = format!(
                "{}<c>leaf</c>{}",
                "<a><b></b>".repeat(depth),
                "</a>".repeat(depth)
            );
            let options = RecoveryOptions {
                multi_document: true,
                ..Default::default()
            };
            let mut pump = Pump::new(net.run(CountingSink::new()), options);
            pump.run_from(&mut xml.as_bytes()).expect("well-formed");
            let snap = pump.checkpoint().expect("quiescent at the final boundary");
            assert!(snap.stats.max_stream_depth > depth);
            snap.encode().len()
        })
        .collect();
    assert!(
        sizes.iter().all(|&n| n == sizes[0]),
        "snapshot bytes at depth 4/16/64/256: {sizes:?}"
    );
}
