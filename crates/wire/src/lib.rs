#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! Wire formats for the summary-cache proxy.
//!
//! * [`icp`] — the Internet Cache Protocol version 2 (RFC 2186) message
//!   codec, extended with the paper's `ICP_OP_DIRUPDATE` opcode
//!   (Section VI-A) carrying hash-function specs and bit-flip deltas,
//!   plus a companion full-bitmap opcode in the spirit of Squid's cache
//!   digests for bootstrap and recovery.
//! * [`http`] — the minimal HTTP/1.x subset the prototype proxy speaks:
//!   GET requests, status responses, `Content-Length` framing, and the
//!   handful of headers the experiments use.
//!
//! Both codecs operate on plain byte slices, are total (every byte
//! sequence either decodes or yields a typed error), and round-trip
//! exactly — properties the property-test suites pin down.

pub mod http;
pub mod icp;

pub use icp::{DirUpdate, IcpError, IcpMessage, Opcode, ICP_VERSION};
