//! Deterministic protocol simulation: the seeded soak suite.
//!
//! Hundreds of seeds, each a complete fault schedule — message loss,
//! duplication, reordering, proxy crash+restart, network partitions —
//! driven through the sans-I/O protocol machine on a virtual clock.
//! No real socket is ever bound; the same seed always produces the
//! same event journal.
//!
//! Environment knobs:
//!
//! * `SC_SIM_SEED=0x2a` (hex or decimal) — replay exactly one seed,
//!   as printed by a failing run;
//! * `SC_SIM_SEEDS=1000` — sweep that many seeds instead of the
//!   default 200 (what `scripts/check.sh --soak` does);
//! * `SC_SIM_PEERS=64` — cluster size for the soak and the determinism
//!   checks (default 4; `scripts/ci.sh`'s big-N smoke sets 64);
//! * `SC_SIM_FORCE_FAIL=<seed>` — make that seed fail artificially, to
//!   demonstrate the printed repro line.

use summary_cache::bloom::UrlKey;
use summary_cache::proxy::machine::{DirectoryView, Event, Output, SendKind, VirtualTime};
use summary_cache::proxy::router::{DirectoryInspect, Router};
use summary_cache::proxy::simnet::{Sim, SimConfig};
use summary_cache::core::{ProxySummary, SummaryKind, UpdatePolicy};
use summary_cache::wire::icp::IcpMessage;

const DEFAULT_SEEDS: u64 = 200;

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    }
}

/// The default cluster, resized by `SC_SIM_PEERS` when it is set.
fn sim_config() -> SimConfig {
    let mut cfg = SimConfig::default();
    if let Some(n) = env_u64("SC_SIM_PEERS").filter(|&n| n > 0) {
        cfg.proxies = n as usize;
    }
    cfg
}

/// Run one seed and assert every acceptance property. Panics (inside
/// the caller's catch_unwind) on any violation; the safety invariants
/// (install-from-bitmap-only, exactly-one-DIRREQ-per-gap) are asserted
/// continuously inside `Sim::run` itself.
fn check_seed(seed: u64) {
    if env_u64("SC_SIM_FORCE_FAIL") == Some(seed) {
        panic!("forced failure requested via SC_SIM_FORCE_FAIL");
    }
    let report = Sim::new(sim_config(), seed).run();
    assert!(
        report.converged,
        "cluster did not converge bit-for-bit within the settle budget \
         ({} events, {} gaps, {} resyncs)",
        report.events_processed, report.gaps_seen, report.resyncs_requested
    );
    assert!(
        report.events_processed >= 1_000,
        "schedule too small: only {} events processed",
        report.events_processed
    );
}

/// The main soak: sweep seeds, replaying any failure with a printed
/// one-line repro command.
#[test]
fn seeded_soak() {
    if let Some(seed) = env_u64("SC_SIM_SEED") {
        // Replay mode: exactly the seed from a failure report.
        check_seed(seed);
        return;
    }
    let seeds = env_u64("SC_SIM_SEEDS").unwrap_or(DEFAULT_SEEDS);
    for seed in 0..seeds {
        let outcome = std::panic::catch_unwind(|| check_seed(seed));
        if let Err(cause) = outcome {
            eprintln!(
                "simnet seed {seed:#x} failed; repro: \
                 SC_SIM_SEED={seed:#x} cargo test --test simnet_properties seeded_soak -- --nocapture"
            );
            std::panic::resume_unwind(cause);
        }
    }
}

/// Same seed, same journal — byte for byte. This is what makes every
/// soak failure replayable.
#[test]
fn same_seed_produces_identical_journal() {
    for seed in [0u64, 3, 17, 0xDEAD] {
        let a = Sim::new(sim_config(), seed).run();
        let b = Sim::new(sim_config(), seed).run();
        assert_eq!(
            a.events_processed, b.events_processed,
            "seed {seed:#x}: event counts diverged"
        );
        assert_eq!(
            a.journal, b.journal,
            "seed {seed:#x}: journals diverged — the simulation leaked nondeterminism"
        );
    }
}

/// Different seeds explore different schedules (the sweep is not
/// re-running one schedule 200 times).
#[test]
fn different_seeds_produce_different_schedules() {
    let a = Sim::new(sim_config(), 1).run();
    let b = Sim::new(sim_config(), 2).run();
    assert_ne!(a.journal, b.journal);
}

/// MD5 of every journal line (newline-terminated) of the default
/// 200-seed sweep at 4 proxies, seeds in order.
const DEFAULT_SWEEP_JOURNAL_MD5: &str = "037d366b618e9501b41e98c63a1cba58";

/// The journals themselves are pinned, not just their determinism: a
/// refactor of the protocol core must reproduce the default fault
/// sweep's journals bit for bit. `proxies` is explicit so `SC_SIM_PEERS`
/// cannot move it.
#[test]
fn default_sweep_journal_digest_is_pinned() {
    let mut md5 = summary_cache::md5::Md5::new();
    for seed in 0..DEFAULT_SEEDS {
        let cfg = SimConfig {
            proxies: 4,
            ..SimConfig::default()
        };
        for line in Sim::new(cfg, seed).run().journal {
            md5.update(line.as_bytes());
            md5.update(b"\n");
        }
    }
    let digest = summary_cache::md5::to_hex(&md5.finalize());
    assert_eq!(
        digest, DEFAULT_SWEEP_JOURNAL_MD5,
        "the default sweep's journals changed; if that is intended, set \
         DEFAULT_SWEEP_JOURNAL_MD5 to the new digest and say why in the commit"
    );
}

// ---------------------------------------------------------------------
// Machine-level properties (no simnet): duplicate/past datagrams are
// no-ops, and a delta alone never materializes a replica.
// ---------------------------------------------------------------------

struct NoDocs;
impl DirectoryView for NoDocs {
    fn contains(&self, _url: &str) -> bool {
        false
    }
}

/// A single-slot SC-mode router.
fn sc_machine(id: u32, peers: Vec<u32>, generation: u32) -> Router {
    let kind = SummaryKind::Bloom { load_factor: 8, hashes: 4 };
    let mut summary = ProxySummary::with_expected_docs(kind, 64);
    summary.set_generation(generation);
    Router::new(
        id,
        peers,
        50,
        1,
        1,
        Some((summary, UpdatePolicy::Threshold(0.0))),
        VirtualTime::ZERO,
    )
}

fn at_ms(ms: u64) -> VirtualTime {
    VirtualTime::from_micros(ms * 1_000)
}

/// Every update datagram (delta or full bitmap) a machine emits from
/// one event batch, encoded. Updates ride per-peer fan-out lanes, so
/// any destination counts (these machines have exactly one peer).
fn update_datagrams(outputs: &[Output], sender: u32) -> Vec<Vec<u8>> {
    outputs
        .iter()
        .filter_map(|o| match o {
            Output::Send(s) if s.kind.is_update() => {
                Some(s.msg.encode(sender).expect("update datagram encodes"))
            }
            _ => None,
        })
        .collect()
}

/// Property: after a replica is in sync, re-delivering any past update
/// datagram — in any order, any number of times — changes nothing: no
/// bit flips, no gap, no DIRREQ.
#[test]
fn duplicate_and_past_datagrams_are_noops() {
    sc_util::prop::check("dup_past_noop", 40, |rng| {
        let mut publisher = sc_machine(1, vec![2], 100);
        let mut receiver = sc_machine(2, vec![1], 200);
        let dir = NoDocs;

        // Publisher emits a stream of updates from a few inserts.
        let mut stream: Vec<Vec<u8>> = Vec::new();
        let inserts = rng.gen_range(2..8u32);
        for i in 0..inserts {
            let url = format!("http://s1.invalid/doc/{i}");
            let key = UrlKey::new(url.as_bytes());
            let none: Vec<UrlKey> = Vec::new();
            publisher.handle(
                at_ms(i as u64 + 1),
                Event::Stored { url: &key, evicted: &none },
                &dir,
            );
            publisher.handle(at_ms(i as u64 + 1), Event::RequestDone, &dir);
            // Small publishes coalesce; the fan-out tick carries them.
            let outs = publisher.handle(at_ms(i as u64 + 1), Event::Tick, &dir);
            stream.extend(update_datagrams(&outs, 1));
        }
        // A tick's heartbeat closes the stream.
        let outs = publisher.handle(at_ms(50), Event::Tick, &dir);
        stream.extend(update_datagrams(&outs, 1));
        assert!(stream.len() >= 2, "publisher produced a stream");

        // Deliver in order; the first delta triggers a DIRREQ, answered
        // with a bitmap, after which the rest of the stream applies.
        let mut t = 100;
        for datagram in &stream {
            t += 1;
            let outs = receiver.handle(
                at_ms(t),
                Event::Datagram { from: Some(1), data: datagram },
                &dir,
            );
            // Answer any DIRREQ with the publisher's current bitmap.
            for o in outs {
                if let Output::Send(s) = o {
                    if matches!(s.kind, SendKind::Resync { .. }) {
                        let req = s.msg.encode(2).expect("dirreq encodes");
                        let answers = publisher.handle(
                            at_ms(t),
                            Event::Datagram { from: Some(2), data: &req },
                            &dir,
                        );
                        for a in answers {
                            if let Output::Send(full) = a {
                                let bytes = full.msg.encode(1).expect("bitmap encodes");
                                t += 1;
                                receiver.handle(
                                    at_ms(t),
                                    Event::Datagram { from: Some(1), data: &bytes },
                                    &dir,
                                );
                            }
                        }
                    }
                }
            }
        }
        let synced = receiver.replica_bits(1).expect("replica synced after stream");
        assert_eq!(Some(synced.clone()), publisher.published_bits());

        // Now re-deliver past datagrams, shuffled and repeated: pure
        // no-ops — no sends, no state change.
        let mut replay: Vec<&Vec<u8>> = stream.iter().chain(stream.iter()).collect();
        rng.shuffle(&mut replay);
        for datagram in replay {
            t += 1;
            let outs = receiver.handle(
                at_ms(t),
                Event::Datagram { from: Some(1), data: datagram },
                &dir,
            );
            for o in &outs {
                match o {
                    Output::Send(s) => panic!("past datagram provoked a send: {s:?}"),
                    Output::Effect(e) => assert!(
                        matches!(e, summary_cache::proxy::machine::Effect::UpdateReceived),
                        "past datagram provoked an effect: {e:?}"
                    ),
                }
            }
            assert_eq!(
                receiver.replica_bits(1),
                Some(synced.clone()),
                "a duplicate/past datagram mutated the replica"
            );
        }
    });
}

/// Property: a machine that has never seen a bitmap never materializes
/// a replica, no matter what delta stream arrives.
#[test]
fn deltas_alone_never_install_a_replica() {
    sc_util::prop::check("no_install_from_delta", 40, |rng| {
        let mut publisher = sc_machine(1, vec![2], 300);
        let mut receiver = sc_machine(2, vec![1], 400);
        let dir = NoDocs;
        let mut stream: Vec<Vec<u8>> = Vec::new();
        for i in 0..rng.gen_range(1..6u32) {
            let url = format!("http://s1.invalid/doc/{i}");
            let key = UrlKey::new(url.as_bytes());
            let none: Vec<UrlKey> = Vec::new();
            publisher.handle(
                at_ms(i as u64 + 1),
                Event::Stored { url: &key, evicted: &none },
                &dir,
            );
            publisher.handle(at_ms(i as u64 + 1), Event::RequestDone, &dir);
            // The fan-out tick flushes the coalesced batch; keep only
            // deltas: drop any full-bitmap restatement.
            let outs = publisher.handle(at_ms(i as u64 + 1), Event::Tick, &dir);
            stream.extend(
                outs.iter()
                    .filter_map(|o| match o {
                        Output::Send(s) if s.kind == SendKind::UpdateDelta => {
                            Some(s.msg.encode(1).expect("delta encodes"))
                        }
                        _ => None,
                    }),
            );
        }
        rng.shuffle(&mut stream);
        for (i, datagram) in stream.iter().enumerate() {
            receiver.handle(
                at_ms(1_000 + i as u64),
                Event::Datagram { from: Some(1), data: datagram },
                &dir,
            );
            assert!(
                !receiver.replica_installed(1),
                "a delta alone installed a replica"
            );
            assert!(receiver.replica_bits(1).is_none());
        }
    });
}

/// The malformed-datagram path the simnet relies on: a machine fed
/// arbitrary bytes neither panics nor emits anything for undecodable
/// input.
#[test]
fn machine_drops_undecodable_datagrams() {
    let mut rng = sc_util::Rng::seed_from_u64(0x51_3141);
    let mut m = sc_machine(1, vec![2], 9);
    for len in 0..64usize {
        let data: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
        if IcpMessage::decode(&data).is_ok() {
            continue; // astronomically unlikely, but then it's a valid datagram
        }
        let outs = m.handle(at_ms(1), Event::Datagram { from: Some(2), data: &data }, &NoDocs);
        assert!(outs.is_empty(), "garbage produced outputs: {outs:?}");
    }
}
