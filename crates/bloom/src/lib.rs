#![warn(missing_docs)]

//! Bloom filters and **counting Bloom filters**, as used (and, for the
//! counting variant, introduced) by *Summary Cache: A Scalable Wide-Area
//! Web Cache Sharing Protocol* (Fan, Cao, Almeida, Broder, SIGCOMM '98).
//!
//! # The structure (paper Fig. 3)
//!
//! A Bloom filter represents a set of keys with a bit vector of `m` bits
//! and `k` independent hash functions `h_1 … h_k`, each with range
//! `0 … m-1`:
//!
//! ```text
//!                 key  (e.g. a document URL)
//!                  │
//!        ┌────── MD5(key): 128 bits ──────┐
//!        │ h_1(x) │ h_2(x) │ h_3(x) │ h_4(x)        (disjoint bit groups,
//!        └───┬────┴───┬────┴──┬─────┴──┬───          each mod m)
//!            ▼        ▼       ▼        ▼
//!  bits:  0 0 1 0 0 1 0 0 0 1 0 0 0 0 1 0 0 … 0     (m bits)
//! ```
//!
//! Inserting a key sets the `k` addressed bits; a membership query checks
//! them and answers "maybe present" only if all are 1. There are **no
//! false negatives** and a tunable false-positive probability
//! `(1 - e^{-kn/m})^k` (see [`analysis`]).
//!
//! A plain bit vector cannot support deletion — two keys may share a bit.
//! The paper's fix, the [`CountingBloomFilter`], keeps a small counter
//! (4 bits suffice, see [`analysis::counter_overflow_probability`]) per
//! bit position: insertion increments, deletion decrements, and the bit is
//! 1 iff the counter is non-zero. Each proxy maintains the counting filter
//! locally and broadcasts only the induced bit flips to its peers
//! (see [`Flip`]).
//!
//! # Quick start
//!
//! ```
//! use sc_bloom::{BloomFilter, FilterConfig, UrlKey};
//!
//! // Size for ~1000 keys at a load factor (bits per key) of 8, 4 hashes:
//! // the configuration the paper evaluates in Section V-D.
//! let cfg = FilterConfig::with_load_factor(1000, 8, 4);
//! let mut f = BloomFilter::new(cfg);
//! // Digest the URL once; every filter probes the key's memoized indices.
//! let key = UrlKey::new(b"http://example.com/index.html");
//! f.insert_key(&key);
//! assert!(f.contains_key(&key));
//! ```

pub mod analysis;
pub mod bits;
pub mod compress;
pub mod counting;
pub mod delta;
pub mod filter;
pub mod hashing;
pub mod key;

pub use bits::BitVec;
pub use compress::{compress, decompress, rice_parameter, CompressedBits};
pub use counting::CountingBloomFilter;
pub use delta::Flip;
pub use filter::{BloomFilter, FilterConfig};
pub use hashing::HashSpec;
pub use key::UrlKey;
