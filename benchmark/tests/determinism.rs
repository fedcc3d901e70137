//! The request streams are a pure function of the seed.

use sc_benchmark::workload::{find, stream_hash, WORKLOADS};

#[test]
fn same_seed_same_requests_different_seed_different_requests() {
    for w in &WORKLOADS {
        let a = stream_hash(w, 7, 2_000);
        assert_eq!(a, stream_hash(w, 7, 2_000), "{}: seed 7 twice", w.name);
        assert_ne!(a, stream_hash(w, 8, 2_000), "{}: seed 7 vs 8", w.name);
        assert_ne!(a, stream_hash(w, 7, 1_999), "{}: the hash covers every request", w.name);
    }
}

#[test]
fn the_table_iv_pair_replays_one_stream() {
    let (sc, icp) = (find("sc-share").unwrap(), find("icp-share").unwrap());
    assert_eq!(stream_hash(sc, 3, 2_000), stream_hash(icp, 3, 2_000));
    assert_ne!(
        stream_hash(sc, 3, 2_000),
        stream_hash(find("sc-churn").unwrap(), 3, 2_000)
    );
}
