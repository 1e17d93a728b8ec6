//! Property tests for the SCDS binary dataset format: arbitrary synthetic
//! datasets must round-trip exactly, and corrupted payloads must fail
//! cleanly rather than panic.

use proptest::prelude::*;
use snowcat_corpus::{decode_dataset, encode_dataset, Dataset, Example};
use snowcat_graph::{CtGraph, Edge, EdgeKind, SchedMark, StaticFeats, VertKind, Vertex};
use snowcat_kernel::{BlockId, ThreadId};
use snowcat_vm::{ScheduleHints, SwitchPoint};

fn arb_vertex() -> impl Strategy<Value = Vertex> {
    (
        (0u32..100_000, any::<u32>()),
        0u8..2,
        proptest::bool::ANY,
        0u8..3,
        proptest::bool::ANY,
        proptest::collection::vec(0u32..512, 0..12),
    )
        .prop_map(|((block, feats), thread, urb, mark, may_race, tokens)| Vertex {
            block: BlockId(block),
            thread: ThreadId(thread),
            kind: if urb { VertKind::Urb } else { VertKind::Scb },
            sched_mark: match mark {
                0 => SchedMark::None,
                1 => SchedMark::YieldSource,
                _ => SchedMark::ResumeTarget,
            },
            may_race,
            tokens,
            static_feats: StaticFeats {
                alias_density: feats as u8,
                lockset: (feats >> 8) as u8,
                race_degree: (feats >> 16) as u8,
            },
        })
}

fn arb_example() -> impl Strategy<Value = Example> {
    proptest::collection::vec(arb_vertex(), 1..20).prop_flat_map(|verts| {
        let n = verts.len() as u32;
        (
            Just(verts),
            proptest::collection::vec((0..n, 0..n, 0usize..6), 0..40),
            0usize..1000,
            proptest::collection::vec((0u8..2, 0u64..10_000), 0..4),
        )
            .prop_flat_map(|(verts, raw_edges, cti_index, switches)| {
                let nv = verts.len();
                let ne = raw_edges.len();
                (
                    Just(verts),
                    Just(raw_edges),
                    Just(cti_index),
                    Just(switches),
                    proptest::collection::vec(proptest::bool::ANY, nv..=nv),
                    proptest::collection::vec(proptest::bool::ANY, ne..=ne),
                )
            })
            .prop_map(|(verts, raw_edges, cti_index, switches, labels, flow_labels)| {
                let edges: Vec<Edge> = raw_edges
                    .into_iter()
                    .map(|(from, to, k)| Edge { from, to, kind: EdgeKind::ALL[k] })
                    .collect();
                Example {
                    cti_index,
                    graph: CtGraph { verts, edges },
                    labels,
                    flow_labels,
                    hints: ScheduleHints {
                        first: ThreadId(0),
                        switches: switches
                            .into_iter()
                            .map(|(t, after)| SwitchPoint { thread: ThreadId(t), after })
                            .collect(),
                    },
                }
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_datasets_roundtrip(examples in proptest::collection::vec(arb_example(), 0..6)) {
        let ds = Dataset { examples };
        let encoded = encode_dataset(&ds);
        let decoded = decode_dataset(encoded).unwrap();
        prop_assert_eq!(ds, decoded);
    }

    #[test]
    fn random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..400)) {
        // Must return an error or (astronomically unlikely) a dataset —
        // never panic.
        let _ = decode_dataset(bytes::Bytes::from(data));
    }

    #[test]
    fn bit_flips_fail_cleanly(examples in proptest::collection::vec(arb_example(), 1..3),
                              pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let ds = Dataset { examples };
        let mut raw = encode_dataset(&ds).to_vec();
        let pos = ((raw.len() - 1) as f64 * pos_frac) as usize;
        raw[pos] ^= 1 << bit;
        // SCDS frames the payload with a CRC32, so *any* single-bit flip
        // anywhere in the file must be detected as a typed error — never a
        // panic, never a silently different dataset.
        prop_assert!(decode_dataset(bytes::Bytes::from(raw)).is_err());
    }

    #[test]
    fn truncation_fails_cleanly(examples in proptest::collection::vec(arb_example(), 1..3),
                                cut_frac in 0.0f64..1.0) {
        let ds = Dataset { examples };
        let raw = encode_dataset(&ds).to_vec();
        // Truncate at every possible offset short of the full length: the
        // length framing must catch the tear with a typed error.
        let cut = ((raw.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(decode_dataset(bytes::Bytes::from(raw[..cut].to_vec())).is_err());
    }
}
