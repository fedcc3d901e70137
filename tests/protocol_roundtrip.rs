//! Protocol-level integration: a proxy's summary travels through the
//! actual wire format (DIRUPDATE / DIRFULL datagrams) into a peer's
//! replica, which must then answer probes identically — including
//! across lost and reordered updates, the failure mode the absolute
//! bit-flip encoding was designed for (Section VI-A).

use summary_cache::bloom::{BitVec, BloomFilter, HashSpec, UrlKey};
use summary_cache::core::{ProxySummary, SummaryKind, SummarySnapshot};
use summary_cache::wire::icp::{DirContent, DirUpdate, IcpMessage};

fn url(i: u32) -> (UrlKey, UrlKey) {
    (
        UrlKey::new(format!("http://server-{}.trace.invalid/doc/{i}", i / 12).as_bytes()),
        UrlKey::new(format!("server-{}.trace.invalid", i / 12).as_bytes()),
    )
}

/// Encode one publish as DIRUPDATE datagrams: a full bitmap, or the
/// flips chunked with consecutive seqs from the summary's `seq()`. The
/// receiver below does not check seqs; the router's lanes number the
/// live protocol's datagrams.
fn encode_publish(summary: &ProxySummary, full: bool, flips: Vec<summary_cache::bloom::Flip>) -> Vec<Vec<u8>> {
    let SummarySnapshot::Bloom { spec, bits } = summary.snapshot_published() else {
        panic!("bloom summaries only");
    };
    let mk = |seq: u32, content| {
        IcpMessage::DirUpdate {
            request_number: 1,
            sender: 9,
            update: DirUpdate {
                function_num: spec.k(),
                function_bits: spec.function_bits(),
                bit_array_size: spec.table_bits(),
                generation: summary.generation(),
                seq,
                content,
            },
        }
        .encode(9)
        .expect("fits")
        .to_vec()
    };
    if full {
        vec![mk(summary.seq(), DirContent::Bitmap(bits.as_words().to_vec()))]
    } else {
        flips
            .chunks(300)
            .enumerate()
            .map(|(i, c)| mk(summary.seq().wrapping_add(i as u32), DirContent::Flips(c.to_vec())))
            .collect()
    }
}

/// Apply received datagrams to a replica (mirroring the daemon).
fn apply(replica: &mut Option<BloomFilter>, datagram: &[u8]) {
    let IcpMessage::DirUpdate { update, .. } = IcpMessage::decode(datagram).expect("valid") else {
        panic!("expected a directory update");
    };
    let spec = HashSpec::new(
        update.function_num,
        update.function_bits,
        update.bit_array_size,
    )
    .expect("valid spec");
    let f = replica.get_or_insert_with(|| {
        BloomFilter::from_parts(spec, BitVec::new(spec.table_bits() as usize))
    });
    match update.content {
        DirContent::Flips(flips) => {
            for fl in flips {
                f.apply_flip(fl.index(), fl.set_bit());
            }
        }
        DirContent::Bitmap(words) => {
            *f = BloomFilter::from_parts(
                spec,
                BitVec::from_words(spec.table_bits() as usize, words),
            );
        }
        DirContent::CompressedBitmap {
            first_bit,
            seg_bits,
            ones,
            rice,
            data,
        } => {
            // Mirror of the router's Golomb–Rice splice: decode the
            // segment and set its one-bits at the segment offset.
            let coded = summary_cache::bloom::CompressedBits {
                len: seg_bits,
                ones,
                rice,
                data,
            };
            let seg = summary_cache::bloom::decompress(&coded).expect("valid code stream");
            for i in seg.iter_ones() {
                f.apply_flip(first_bit + i as u32, true);
            }
        }
    }
}

fn assert_replica_matches(summary: &ProxySummary, replica: &BloomFilter, upto: u32) {
    for i in 0..upto {
        let (u, s) = url(i);
        assert_eq!(
            replica.contains_key(&u),
            summary.probe_published_key(&u, &s),
            "replica and published view disagree on doc {i}"
        );
    }
}

#[test]
fn delta_updates_reconstruct_the_published_view() {
    let kind = SummaryKind::Bloom { load_factor: 16, hashes: 4 };
    let mut summary = ProxySummary::with_expected_docs(kind, 2_000);
    let mut replica: Option<BloomFilter> = None;

    // Round 1: 150 inserts — few enough that the delta (≤600 flips,
    // ≤2432 B) beats the full bitmap (32000 bits → 4032 B).
    for i in 0..150 {
        let (u, s) = url(i);
        summary.insert_key(&u, &s);
    }
    let out = summary.publish();
    assert!(!out.full_bitmap, "delta must win at this churn level");
    for d in encode_publish(&summary, out.full_bitmap, out.flips) {
        apply(&mut replica, &d);
    }
    assert_replica_matches(&summary, replica.as_ref().unwrap(), 700);

    // Round 2: churn — 100 removals, 100 fresh inserts, ship the delta.
    for i in 0..100 {
        let (u, s) = url(i);
        summary.remove_key(&u, &s);
        let (u2, s2) = url(10_000 + i);
        summary.insert_key(&u2, &s2);
    }
    let out = summary.publish();
    for d in encode_publish(&summary, out.full_bitmap, out.flips) {
        apply(&mut replica, &d);
    }
    assert_replica_matches(&summary, replica.as_ref().unwrap(), 400);
    let (gone, gs) = url(10);
    assert!(!replica.as_ref().unwrap().contains_key(&gone));
    assert!(!summary.probe_published_key(&gone, &gs));
}

#[test]
fn full_bitmap_recovers_from_lost_updates() {
    let kind = SummaryKind::Bloom { load_factor: 8, hashes: 4 };
    let mut summary = ProxySummary::with_expected_docs(kind, 1_000);
    let mut replica: Option<BloomFilter> = None;

    // First publish is LOST (never applied).
    for i in 0..300 {
        let (u, s) = url(i);
        summary.insert_key(&u, &s);
    }
    let lost = summary.publish();
    drop(lost);

    // Second publish as a full bitmap (the bootstrap/recovery path):
    for i in 300..400 {
        let (u, s) = url(i);
        summary.insert_key(&u, &s);
    }
    let out = summary.publish();
    // Force the full-bitmap form regardless of what publish chose.
    for d in encode_publish(&summary, true, Vec::new()) {
        apply(&mut replica, &d);
    }
    assert_replica_matches(&summary, replica.as_ref().unwrap(), 500);
    let _ = out;
}

#[test]
fn redundant_and_reordered_deltas_are_harmless() {
    // Absolute flips: applying a datagram twice, or applying the same
    // round's datagrams in any order, yields the same replica. (The
    // daemon itself now refuses out-of-sequence deltas and resyncs
    // instead; this pins the *encoding* property that makes a resync
    // merely wasteful, never corrupting.)
    let kind = SummaryKind::Bloom { load_factor: 16, hashes: 4 };
    // 400 inserts into a 64000-bit filter: ~1500 flips, so the delta
    // (~6 KB) still beats the full bitmap (8 KB) and spans several
    // 300-flip datagrams.
    let mut summary = ProxySummary::with_expected_docs(kind, 4_000);
    for i in 0..400 {
        let (u, s) = url(i);
        summary.insert_key(&u, &s);
    }
    let out = summary.publish();
    assert!(!out.full_bitmap, "delta must win at this churn level");
    let datagrams = encode_publish(&summary, out.full_bitmap, out.flips);
    assert!(datagrams.len() > 1, "need multiple chunks to reorder");

    let mut forward: Option<BloomFilter> = None;
    for d in &datagrams {
        apply(&mut forward, d);
    }
    let mut reversed: Option<BloomFilter> = None;
    for d in datagrams.iter().rev() {
        apply(&mut reversed, d);
    }
    let mut doubled: Option<BloomFilter> = None;
    for d in datagrams.iter().chain(datagrams.iter()) {
        apply(&mut doubled, d);
    }
    assert_eq!(forward.as_ref().unwrap().bits(), reversed.as_ref().unwrap().bits());
    assert_eq!(forward.as_ref().unwrap().bits(), doubled.as_ref().unwrap().bits());
    assert_replica_matches(&summary, forward.as_ref().unwrap(), 2_200);
}

#[test]
fn sequenced_update_and_dirreq_datagrams_roundtrip_and_reject_truncation() {
    use summary_cache::bloom::Flip;

    // Every shape the resync handshake puts on the wire: a delta with a
    // mid-stream (generation, seq), an empty heartbeat delta, a full
    // bitmap answer, and the DIRREQ that asks for one.
    let messages = vec![
        IcpMessage::DirUpdate {
            request_number: 11,
            sender: 3,
            update: DirUpdate {
                function_num: 4,
                function_bits: 32,
                bit_array_size: 4_096,
                generation: 0xDEAD_BEEF,
                seq: u32::MAX, // about to wrap: the compare is modular
                content: DirContent::Flips(vec![Flip::set(1), Flip::clear(4_095)]),
            },
        },
        IcpMessage::DirUpdate {
            request_number: 12,
            sender: 3,
            update: DirUpdate {
                function_num: 4,
                function_bits: 32,
                bit_array_size: 4_096,
                generation: 1,
                seq: 0,
                content: DirContent::Flips(Vec::new()), // heartbeat
            },
        },
        IcpMessage::DirUpdate {
            request_number: 13,
            sender: 3,
            update: DirUpdate {
                function_num: 4,
                function_bits: 32,
                bit_array_size: 128,
                generation: 9,
                seq: 77,
                content: DirContent::Bitmap(vec![!0u64, 1]),
            },
        },
        IcpMessage::DirReq {
            request_number: 14,
            sender: 3,
            generation: 0xDEAD_BEEF,
            accepts_gr: true,
        },
    ];
    for msg in messages {
        let bytes = msg.encode(3).expect("encodes");
        let back = IcpMessage::decode(&bytes).expect("decodes");
        assert_eq!(back, msg, "lossless roundtrip");
        // A datagram cut anywhere — mid-header, mid-extension-header,
        // mid-payload — must be rejected, never misread as a shorter
        // valid message (a truncated bitmap silently installed as a
        // replica would be exactly the drift this protocol kills).
        for cut in 0..bytes.len() {
            assert!(
                IcpMessage::decode(&bytes[..cut]).is_err(),
                "truncation at {cut}/{} must not decode",
                bytes.len()
            );
        }
    }
}

/// Robustness: the decoder must never panic, whatever bytes arrive.
/// Two seeded sweeps — pure random byte strings of every small length,
/// and valid DIRUPDATE/DIRREQ/query datagrams with random mutations
/// (flipped bytes, truncations, extensions) — exercise the length and
/// tag checks on every path. Decode may return `Err` as much as it
/// likes; it may not crash the daemon thread.
#[test]
fn decode_never_panics_on_arbitrary_bytes() {
    use summary_cache::bloom::Flip;

    let mut rng = sc_util::Rng::seed_from_u64(0xD1_5EA5E);

    // Sweep 1: unstructured noise at every length up to a few MTUs.
    for round in 0..2_000u32 {
        let len = (round as usize % 200) * 8 + rng.gen_range(0..8usize);
        let data: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
        let _ = IcpMessage::decode(&data); // must return, not panic
    }

    // Sweep 2: start from valid datagrams of every message shape and
    // mutate them — this reaches deep parser states (extension headers,
    // flip lists, bitmap word counts) that noise almost never enters.
    let seeds: Vec<Vec<u8>> = vec![
        IcpMessage::Query {
            request_number: 1,
            requester: 1,
            url: "http://h.invalid/x".into(),
        }
        .encode(1)
        .unwrap(),
        IcpMessage::Hit { request_number: 2, url: "http://h.invalid/x".into() }
            .encode(1)
            .unwrap(),
        IcpMessage::Secho { request_number: 0, url: String::new() }.encode(1).unwrap(),
        IcpMessage::DirReq { request_number: 3, sender: 1, generation: 77, accepts_gr: false }
            .encode(1)
            .unwrap(),
        IcpMessage::DirUpdate {
            request_number: 4,
            sender: 1,
            update: DirUpdate {
                function_num: 4,
                function_bits: 32,
                bit_array_size: 4_096,
                generation: 5,
                seq: 6,
                content: DirContent::Flips(vec![Flip::set(1), Flip::clear(100)]),
            },
        }
        .encode(1)
        .unwrap(),
        IcpMessage::DirUpdate {
            request_number: 5,
            sender: 1,
            update: DirUpdate {
                function_num: 4,
                function_bits: 32,
                bit_array_size: 256,
                generation: 5,
                seq: 7,
                content: DirContent::Bitmap(vec![!0u64; 4]),
            },
        }
        .encode(1)
        .unwrap(),
    ];
    for _ in 0..3_000u32 {
        let mut bytes = seeds[rng.gen_range(0..seeds.len())].to_vec();
        match rng.gen_range(0u32..4) {
            // Flip a handful of bytes in place.
            0 => {
                for _ in 0..rng.gen_range(1..6usize) {
                    let i = rng.gen_range(0..bytes.len());
                    bytes[i] ^= rng.next_u32() as u8;
                }
            }
            // Truncate at a random point.
            1 => bytes.truncate(rng.gen_range(0..bytes.len())),
            // Extend with trailing garbage.
            2 => bytes.extend((0..rng.gen_range(1..64usize)).map(|_| rng.next_u32() as u8)),
            // Corrupt the declared-length / count fields specifically.
            _ => {
                for i in 2..bytes.len().min(24) {
                    if rng.gen_bool(0.3) {
                        bytes[i] ^= rng.next_u32() as u8;
                    }
                }
            }
        }
        let _ = IcpMessage::decode(&bytes); // must return, not panic
    }
}

#[test]
fn spec_change_reinitializes_replica() {
    // A peer that restarts with a different filter size announces it in
    // every update header; the replica must be rebuilt, not patched.
    let small = HashSpec::new(4, 32, 1_024).unwrap();
    let large = HashSpec::new(4, 32, 2_048).unwrap();
    let mut replica = BloomFilter::from_parts(small, BitVec::new(1_024));
    replica.apply_flip(5, true);
    // Simulate the daemon's spec check.
    if replica.spec() != large {
        replica = BloomFilter::from_parts(large, BitVec::new(2_048));
    }
    assert_eq!(replica.spec(), large);
    assert_eq!(replica.bits().count_ones(), 0, "stale bits discarded");
}
