//! ICP version 2 (RFC 2186) with the paper's directory-update extension.
//!
//! The RFC 2186 header (20 bytes):
//!
//! ```text
//!  0                   1                   2                   3
//!  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//! +---------------+---------------+-------------------------------+
//! |    Opcode     |    Version    |         Message Length        |
//! +---------------+---------------+-------------------------------+
//! |                       Request Number                          |
//! +---------------------------------------------------------------+
//! |                            Options                            |
//! +---------------------------------------------------------------+
//! |                          Option Data                          |
//! +---------------------------------------------------------------+
//! |                      Sender Host Address                      |
//! +---------------------------------------------------------------+
//! ```
//!
//! Queries carry a requester host address and a null-terminated URL;
//! replies carry the URL. The paper adds `ICP_OP_DIRUPDATE` whose
//! payload is an extension header — `Function_Num` (u16),
//! `Function_Bits` (u16), `BitArray_Size_InBits` (u32), `Generation`
//! (u32), `Seq` (u32), `Number_of_Updates` (u32) — followed by one
//! 32-bit word per bit flip: most-significant bit = new value, low 31
//! bits = index (Section VI-A). Every record is absolute and every
//! message repeats the hash spec, but deltas only compose when applied
//! in order onto the right baseline: `Generation` names the publisher's
//! bitmap lineage (bumped on restart or spec change) and `Seq` numbers
//! each datagram within it, so a receiver can detect a lost or
//! reordered datagram instead of silently drifting. On a detected gap
//! the receiver sends `ICP_OP_DIRREQ` — a 4-byte payload carrying the
//! generation it last saw — and the publisher answers with a DIRFULL
//! bitmap that restates the whole array.
//!
//! Big-N extension: a requester that understands Golomb–Rice-coded
//! bitmaps sets [`ICP_FLAG_GR_OK`] in its DIRREQ options word, and the
//! publisher may answer with `ICP_OP_DIRFULL_GR` instead of raw
//! DIRFULL. Its payload is the same extension header followed by a
//! segment descriptor — `First_Bit` (u32, word-aligned), `Seg_Bits`
//! (u32), `Ones` (u32), `Rice` (u8) — and the coded gap stream
//! (`Number_of_Updates` counts its bytes). A bitmap too large for one
//! datagram ships as several segments with the same `(generation,
//! seq)` stamp, `First_Bit` advancing; receivers install only once the
//! segments cover the whole array. Publishers that never saw the flag
//! fall back to raw DIRFULL, so legacy peers keep working.

use sc_bloom::Flip;

/// Append big-endian integers to a byte buffer (the tiny subset of the
/// `bytes` crate this codec needs).
fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}
fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_be_bytes());
}
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}
fn put_u64_le(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Checked big-endian reads over a byte slice; every short read maps to
/// [`IcpError::TruncatedPayload`] instead of panicking.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }
    fn remaining(&self) -> usize {
        self.buf.len()
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], IcpError> {
        if self.buf.len() < n {
            return Err(IcpError::TruncatedPayload);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }
    fn get_u8(&mut self) -> Result<u8, IcpError> {
        Ok(self.take(1)?[0])
    }
    fn get_u16(&mut self) -> Result<u16, IcpError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }
    fn get_u32(&mut self) -> Result<u32, IcpError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn get_u64_le(&mut self) -> Result<u64, IcpError> {
        let b = self.take(8)?;
        let mut w = [0u8; 8];
        w.copy_from_slice(b);
        Ok(u64::from_le_bytes(w))
    }
}

/// ICP protocol version implemented (RFC 2186).
pub const ICP_VERSION: u8 = 2;

/// Size of the fixed RFC 2186 header.
pub const HEADER_LEN: usize = 20;

/// Size of the paper's DIRUPDATE extension header (with the
/// generation/seq pair that sequences delta delivery).
pub const DIRUPDATE_HEADER_LEN: usize = 20;

/// Size of the DIRREQ payload: the generation last seen.
pub const DIRREQ_PAYLOAD_LEN: usize = 4;

/// Size of the DIRFULL_GR segment descriptor that follows the
/// DIRUPDATE extension header: `First_Bit` + `Seg_Bits` + `Ones`
/// (u32 each) + `Rice` (u8).
pub const DIRFULL_GR_SEGMENT_LEN: usize = 13;

/// Options-word flag a DIRREQ sets to advertise that its sender can
/// decode `ICP_OP_DIRFULL_GR` answers. RFC 2186 reserves the top bits
/// (HIT_OBJ, SRC_RTT); the summary-cache extension claims bit 0.
pub const ICP_FLAG_GR_OK: u32 = 0x0000_0001;

/// Wire byte for [`Opcode::Query`] (RFC 2186).
pub const ICP_OP_QUERY: u8 = Opcode::Query as u8;
/// Wire byte for [`Opcode::Hit`] (RFC 2186).
pub const ICP_OP_HIT: u8 = Opcode::Hit as u8;
/// Wire byte for [`Opcode::Miss`] (RFC 2186).
pub const ICP_OP_MISS: u8 = Opcode::Miss as u8;
/// Wire byte for [`Opcode::Err`] (RFC 2186).
pub const ICP_OP_ERR: u8 = Opcode::Err as u8;
/// Wire byte for [`Opcode::Secho`] (RFC 2186).
pub const ICP_OP_SECHO: u8 = Opcode::Secho as u8;
/// Wire byte for [`Opcode::MissNoFetch`] (RFC 2186).
pub const ICP_OP_MISS_NOFETCH: u8 = Opcode::MissNoFetch as u8;
/// Wire byte for [`Opcode::Denied`] (RFC 2186).
pub const ICP_OP_DENIED: u8 = Opcode::Denied as u8;
/// Wire byte for [`Opcode::DirUpdate`] (summary-cache extension).
pub const ICP_OP_DIRUPDATE: u8 = Opcode::DirUpdate as u8;
/// Wire byte for [`Opcode::DirFull`] (summary-cache extension).
pub const ICP_OP_DIRFULL: u8 = Opcode::DirFull as u8;
/// Wire byte for [`Opcode::DirReq`] (summary-cache extension).
pub const ICP_OP_DIRREQ: u8 = Opcode::DirReq as u8;
/// Wire byte for [`Opcode::DirFullGr`] (summary-cache extension):
/// a Golomb–Rice-coded full-bitmap segment.
pub const ICP_OP_DIRFULL_GR: u8 = Opcode::DirFullGr as u8;

/// Message opcodes. 1–22 are RFC 2186; 32–35 are the summary-cache
/// extension range. Each discriminant is the wire byte and each
/// `ICP_OP_*` constant is read off its variant, so no constant can name
/// a byte that has no variant. A test holds [`Opcode::from_u8`] to
/// every variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Membership query for a URL.
    Query = 1,
    /// Fresh copy present.
    Hit = 2,
    /// Not cached.
    Miss = 3,
    /// Protocol error.
    Err = 4,
    /// Source echo — the keep-alive Squid peers exchange.
    Secho = 10,
    /// Not cached, and the responder declines to fetch it.
    MissNoFetch = 21,
    /// Request refused.
    Denied = 22,
    /// Paper Section VI-A: incremental directory update (bit flips).
    DirUpdate = 32,
    /// Companion full-bitmap update (bootstrap / recovery), in the
    /// spirit of Squid 1.2's cache digests.
    DirFull = 33,
    /// Resync request: "send me your full bitmap" — emitted on first
    /// contact or when a seq gap / generation change is detected.
    DirReq = 34,
    /// Golomb–Rice-coded full-bitmap segment: the compressed answer to
    /// a DIRREQ whose sender advertised [`ICP_FLAG_GR_OK`].
    DirFullGr = 35,
}

impl Opcode {
    /// Encode this opcode as its wire byte.
    pub fn to_u8(self) -> u8 {
        self as u8
    }

    /// Decode an opcode byte.
    pub fn from_u8(v: u8) -> Option<Opcode> {
        Some(match v {
            ICP_OP_QUERY => Opcode::Query,
            ICP_OP_HIT => Opcode::Hit,
            ICP_OP_MISS => Opcode::Miss,
            ICP_OP_ERR => Opcode::Err,
            ICP_OP_SECHO => Opcode::Secho,
            ICP_OP_MISS_NOFETCH => Opcode::MissNoFetch,
            ICP_OP_DENIED => Opcode::Denied,
            ICP_OP_DIRUPDATE => Opcode::DirUpdate,
            ICP_OP_DIRFULL => Opcode::DirFull,
            ICP_OP_DIRREQ => Opcode::DirReq,
            ICP_OP_DIRFULL_GR => Opcode::DirFullGr,
            _ => return None,
        })
    }
}

/// The payload of a directory update: the self-describing hash spec and
/// either bit flips (incremental) or the whole bitmap (full).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirUpdate {
    /// `Function_Num`: number of hash functions.
    pub function_num: u16,
    /// `Function_Bits`: digest bits per function.
    pub function_bits: u16,
    /// `BitArray_Size_InBits`.
    pub bit_array_size: u32,
    /// `Generation`: the publisher's bitmap lineage — bumped on daemon
    /// restart or hash-spec change. Deltas from one generation never
    /// apply to a replica of another.
    pub generation: u32,
    /// `Seq`: datagram number within the generation, strictly
    /// sequential. A receiver expecting `n` that sees `n+2` lost a
    /// datagram and must resync.
    pub seq: u32,
    /// The update content.
    pub content: DirContent,
}

/// Incremental or full-bitmap content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirContent {
    /// Bit flips to apply (DIRUPDATE).
    Flips(Vec<Flip>),
    /// The complete bit array, packed little-endian u64 words (DIRFULL).
    Bitmap(Vec<u64>),
    /// One Golomb–Rice-coded segment of the bit array (DIRFULL_GR).
    /// `bit_array_size` in the carrying [`DirUpdate`] is the *whole*
    /// array's length; a single segment spanning it is the common case,
    /// and oversized bitmaps split into several word-aligned segments
    /// sharing one `(generation, seq)` stamp.
    CompressedBitmap {
        /// First bit this segment covers (multiple of 64).
        first_bit: u32,
        /// Bits this segment covers (`first_bit + seg_bits` never
        /// exceeds `bit_array_size`).
        seg_bits: u32,
        /// Set bits coded in the stream.
        ones: u32,
        /// Rice parameter (gap low-bits); ≤ 63 by wire contract.
        rice: u8,
        /// The coded gap stream.
        data: Vec<u8>,
    },
}

/// A decoded ICP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IcpMessage {
    /// "Do you have this URL?" — sent on a local miss (ICP) or to a
    /// summary candidate (SC-ICP).
    Query {
        /// Query id, echoed in replies.
        request_number: u32,
        /// Original requester address (RFC 2186 carries it before the URL).
        requester: u32,
        /// The document asked about.
        url: String,
    },
    /// "Yes, fresh copy here."
    Hit {
        /// Echoed query id.
        request_number: u32,
        /// Echoed URL.
        url: String,
    },
    /// "No."
    Miss {
        /// Echoed query id.
        request_number: u32,
        /// Echoed URL.
        url: String,
    },
    /// "No, and don't ask me to fetch it."
    MissNoFetch {
        /// Echoed query id.
        request_number: u32,
        /// Echoed URL.
        url: String,
    },
    /// Refused.
    Denied {
        /// Echoed query id.
        request_number: u32,
        /// Echoed URL.
        url: String,
    },
    /// Protocol error report.
    Err {
        /// Echoed query id.
        request_number: u32,
        /// Echoed URL (may be empty).
        url: String,
    },
    /// Keep-alive ping (the no-ICP baseline's only inter-proxy traffic).
    Secho {
        /// Ping id (unused, 0 by convention).
        request_number: u32,
        /// Unused; empty on the wire.
        url: String,
    },
    /// Summary directory update.
    DirUpdate {
        /// Message id (not echoed; updates are fire-and-forget).
        request_number: u32,
        /// The publishing proxy's id (from the sender-host field).
        sender: u32,
        /// The update payload.
        update: DirUpdate,
    },
    /// Resync request: the sender's replica of the addressee is missing
    /// or has detected a gap; please restate the full bitmap (DIRFULL).
    DirReq {
        /// Message id.
        request_number: u32,
        /// The requesting proxy's id (from the sender-host field).
        sender: u32,
        /// The generation the requester last saw (0 = none yet); lets
        /// the publisher's logs distinguish bootstrap from loss.
        generation: u32,
        /// [`ICP_FLAG_GR_OK`] in the options word: the requester can
        /// decode compressed (DIRFULL_GR) answers. Publishers fall
        /// back to raw DIRFULL when unset.
        accepts_gr: bool,
    },
}

/// Decode errors. Every malformed input maps to one of these; decoding
/// never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IcpError {
    /// Fewer than 20 bytes.
    TruncatedHeader,
    /// Header's message length disagrees with the buffer.
    LengthMismatch {
        /// Length the header claims.
        header: u16,
        /// Bytes actually received.
        actual: usize,
    },
    /// Unknown opcode byte.
    UnknownOpcode(u8),
    /// Unsupported version byte.
    BadVersion(u8),
    /// Payload shorter than its opcode requires.
    TruncatedPayload,
    /// URL bytes were not valid UTF-8.
    BadUrl,
    /// URL missing its null terminator.
    UnterminatedUrl,
    /// DIRUPDATE payload inconsistent (count vs bytes, bitmap size).
    BadDirUpdate(&'static str),
    /// Message would exceed the u16 length field.
    TooLarge(usize),
}

impl std::fmt::Display for IcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IcpError::TruncatedHeader => write!(f, "ICP header truncated"),
            IcpError::LengthMismatch { header, actual } => {
                write!(f, "header claims {header} bytes, datagram has {actual}")
            }
            IcpError::UnknownOpcode(op) => write!(f, "unknown ICP opcode {op}"),
            IcpError::BadVersion(v) => write!(f, "unsupported ICP version {v}"),
            IcpError::TruncatedPayload => write!(f, "ICP payload truncated"),
            IcpError::BadUrl => write!(f, "URL is not valid UTF-8"),
            IcpError::UnterminatedUrl => write!(f, "URL missing null terminator"),
            IcpError::BadDirUpdate(what) => write!(f, "malformed DIRUPDATE: {what}"),
            IcpError::TooLarge(n) => write!(f, "message of {n} bytes exceeds ICP's 64 KiB"),
        }
    }
}

impl std::error::Error for IcpError {}

impl IcpMessage {
    /// Encode to a datagram. `sender` fills the RFC header's sender-host
    /// field for the reply/query opcodes (DirUpdate carries its own).
    pub fn encode(&self, sender: u32) -> Result<Vec<u8>, IcpError> {
        let mut out = Vec::new();
        self.encode_into(sender, &mut out)?;
        Ok(out)
    }

    /// [`encode`](Self::encode) into a caller-owned buffer: `out` is
    /// cleared first and its capacity reused, so a warm send scratch
    /// encodes a steady stream of datagrams without heap traffic. The
    /// body is written in place behind a zeroed header which is patched
    /// once the total length is known.
    pub fn encode_into(&self, sender: u32, out: &mut Vec<u8>) -> Result<(), IcpError> {
        out.clear();
        out.resize(HEADER_LEN, 0);
        let mut options = 0u32;
        let (opcode, request_number, sender_host) = match self {
            IcpMessage::Query {
                request_number,
                requester,
                url,
            } => {
                put_u32(out, *requester);
                put_url(out, url);
                (Opcode::Query, *request_number, sender)
            }
            IcpMessage::Hit { request_number, url } => {
                put_url(out, url);
                (Opcode::Hit, *request_number, sender)
            }
            IcpMessage::Miss { request_number, url } => {
                put_url(out, url);
                (Opcode::Miss, *request_number, sender)
            }
            IcpMessage::MissNoFetch { request_number, url } => {
                put_url(out, url);
                (Opcode::MissNoFetch, *request_number, sender)
            }
            IcpMessage::Denied { request_number, url } => {
                put_url(out, url);
                (Opcode::Denied, *request_number, sender)
            }
            IcpMessage::Err { request_number, url } => {
                put_url(out, url);
                (Opcode::Err, *request_number, sender)
            }
            IcpMessage::Secho { request_number, url } => {
                put_url(out, url);
                (Opcode::Secho, *request_number, sender)
            }
            IcpMessage::DirUpdate {
                request_number,
                sender: s,
                update,
            } => {
                put_u16(out, update.function_num);
                put_u16(out, update.function_bits);
                put_u32(out, update.bit_array_size);
                put_u32(out, update.generation);
                put_u32(out, update.seq);
                let opcode = match &update.content {
                    DirContent::Flips(flips) => {
                        put_u32(out, flips.len() as u32);
                        for f in flips {
                            put_u32(out, f.to_wire());
                        }
                        Opcode::DirUpdate
                    }
                    DirContent::Bitmap(words) => {
                        put_u32(out, words.len() as u32);
                        for w in words {
                            put_u64_le(out, *w);
                        }
                        Opcode::DirFull
                    }
                    DirContent::CompressedBitmap {
                        first_bit,
                        seg_bits,
                        ones,
                        rice,
                        data,
                    } => {
                        put_u32(out, data.len() as u32);
                        put_u32(out, *first_bit);
                        put_u32(out, *seg_bits);
                        put_u32(out, *ones);
                        put_u8(out, *rice);
                        out.extend_from_slice(data);
                        Opcode::DirFullGr
                    }
                };
                (opcode, *request_number, *s)
            }
            IcpMessage::DirReq {
                request_number,
                sender: s,
                generation,
                accepts_gr,
            } => {
                put_u32(out, *generation);
                if *accepts_gr {
                    options |= ICP_FLAG_GR_OK;
                }
                (Opcode::DirReq, *request_number, *s)
            }
        };
        let total = out.len();
        if total > u16::MAX as usize {
            out.clear();
            return Err(IcpError::TooLarge(total));
        }
        out[0] = opcode.to_u8();
        out[1] = ICP_VERSION;
        out[2..4].copy_from_slice(&(total as u16).to_be_bytes());
        out[4..8].copy_from_slice(&request_number.to_be_bytes());
        out[8..12].copy_from_slice(&options.to_be_bytes());
        out[12..16].copy_from_slice(&0u32.to_be_bytes()); // option data
        out[16..20].copy_from_slice(&sender_host.to_be_bytes());
        Ok(())
    }

    /// Decode one datagram.
    pub fn decode(datagram: &[u8]) -> Result<IcpMessage, IcpError> {
        if datagram.len() < HEADER_LEN {
            return Err(IcpError::TruncatedHeader);
        }
        let mut buf = Reader::new(datagram);
        let opcode_byte = buf.get_u8()?;
        let version = buf.get_u8()?;
        if version != ICP_VERSION {
            return Err(IcpError::BadVersion(version));
        }
        let msg_len = buf.get_u16()?;
        if msg_len as usize != datagram.len() {
            return Err(IcpError::LengthMismatch {
                header: msg_len,
                actual: datagram.len(),
            });
        }
        let request_number = buf.get_u32()?;
        let options = buf.get_u32()?;
        let _option_data = buf.get_u32()?;
        let sender_host = buf.get_u32()?;
        let opcode = Opcode::from_u8(opcode_byte).ok_or(IcpError::UnknownOpcode(opcode_byte))?;
        match opcode {
            Opcode::Query => {
                let requester = buf.get_u32()?;
                let url = take_url(&mut buf)?;
                Ok(IcpMessage::Query {
                    request_number,
                    requester,
                    url,
                })
            }
            Opcode::Hit => Ok(IcpMessage::Hit {
                request_number,
                url: take_url(&mut buf)?,
            }),
            Opcode::Miss => Ok(IcpMessage::Miss {
                request_number,
                url: take_url(&mut buf)?,
            }),
            Opcode::MissNoFetch => Ok(IcpMessage::MissNoFetch {
                request_number,
                url: take_url(&mut buf)?,
            }),
            Opcode::Denied => Ok(IcpMessage::Denied {
                request_number,
                url: take_url(&mut buf)?,
            }),
            Opcode::Err => Ok(IcpMessage::Err {
                request_number,
                url: take_url(&mut buf)?,
            }),
            Opcode::Secho => Ok(IcpMessage::Secho {
                request_number,
                url: take_url(&mut buf)?,
            }),
            Opcode::DirUpdate | Opcode::DirFull | Opcode::DirFullGr => {
                if buf.remaining() < DIRUPDATE_HEADER_LEN {
                    return Err(IcpError::TruncatedPayload);
                }
                let function_num = buf.get_u16()?;
                let function_bits = buf.get_u16()?;
                let bit_array_size = buf.get_u32()?;
                let generation = buf.get_u32()?;
                let seq = buf.get_u32()?;
                let count = buf.get_u32()? as usize;
                let content = match opcode {
                    Opcode::DirUpdate => {
                        if buf.remaining() != count.saturating_mul(4) {
                            return Err(IcpError::BadDirUpdate("flip count vs payload size"));
                        }
                        let mut flips = Vec::with_capacity(count);
                        for _ in 0..count {
                            flips.push(Flip::from_wire(buf.get_u32()?));
                        }
                        DirContent::Flips(flips)
                    }
                    Opcode::DirFull => {
                        if buf.remaining() != count.saturating_mul(8) {
                            return Err(IcpError::BadDirUpdate("word count vs payload size"));
                        }
                        if count != (bit_array_size as usize).div_ceil(64) {
                            return Err(IcpError::BadDirUpdate("bitmap words vs bit array size"));
                        }
                        let mut words = Vec::with_capacity(count);
                        for _ in 0..count {
                            words.push(buf.get_u64_le()?);
                        }
                        DirContent::Bitmap(words)
                    }
                    _ => {
                        // DIRFULL_GR: count is the coded-stream byte
                        // length; a 13-byte segment descriptor precedes
                        // the stream.
                        if buf.remaining() != DIRFULL_GR_SEGMENT_LEN.saturating_add(count) {
                            return Err(IcpError::BadDirUpdate("coded bytes vs payload size"));
                        }
                        let first_bit = buf.get_u32()?;
                        let seg_bits = buf.get_u32()?;
                        let ones = buf.get_u32()?;
                        let rice = buf.get_u8()?;
                        if rice > 63 {
                            return Err(IcpError::BadDirUpdate("rice parameter above 63"));
                        }
                        if first_bit % 64 != 0 {
                            return Err(IcpError::BadDirUpdate("segment not word aligned"));
                        }
                        if seg_bits == 0
                            || first_bit as u64 + seg_bits as u64 > bit_array_size as u64
                        {
                            return Err(IcpError::BadDirUpdate("segment outside bit array"));
                        }
                        if ones > seg_bits {
                            return Err(IcpError::BadDirUpdate("more ones than segment bits"));
                        }
                        DirContent::CompressedBitmap {
                            first_bit,
                            seg_bits,
                            ones,
                            rice,
                            data: buf.take(count)?.to_vec(),
                        }
                    }
                };
                Ok(IcpMessage::DirUpdate {
                    request_number,
                    sender: sender_host,
                    update: DirUpdate {
                        function_num,
                        function_bits,
                        bit_array_size,
                        generation,
                        seq,
                        content,
                    },
                })
            }
            Opcode::DirReq => {
                if buf.remaining() != DIRREQ_PAYLOAD_LEN {
                    return Err(IcpError::TruncatedPayload);
                }
                let generation = buf.get_u32()?;
                Ok(IcpMessage::DirReq {
                    request_number,
                    sender: sender_host,
                    generation,
                    accepts_gr: options & ICP_FLAG_GR_OK != 0,
                })
            }
        }
    }
}

fn put_url(buf: &mut Vec<u8>, url: &str) {
    buf.extend_from_slice(url.as_bytes());
    buf.push(0);
}

fn take_url(buf: &mut Reader<'_>) -> Result<String, IcpError> {
    let bytes = buf.take(buf.remaining())?;
    let nul = bytes
        .iter()
        .position(|&b| b == 0)
        .ok_or(IcpError::UnterminatedUrl)?;
    let url = std::str::from_utf8(&bytes[..nul]).map_err(|_| IcpError::BadUrl)?;
    Ok(url.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_util::prop::{check, vec_of};

    fn roundtrip(msg: IcpMessage) {
        let bytes = msg.encode(0xC0A80001).unwrap();
        let back = IcpMessage::decode(&bytes).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn every_opcode_constant_roundtrips_through_both_sides() {
        let listed = [
            Opcode::Query,
            Opcode::Hit,
            Opcode::Miss,
            Opcode::Err,
            Opcode::Secho,
            Opcode::MissNoFetch,
            Opcode::Denied,
            Opcode::DirUpdate,
            Opcode::DirFull,
            Opcode::DirReq,
            Opcode::DirFullGr,
        ];
        for (slot, &op) in listed.iter().enumerate() {
            // No `_` arm: a new variant does not compile until it is
            // given its constant and its slot in `listed` here.
            let (at, byte) = match op {
                Opcode::Query => (0, ICP_OP_QUERY),
                Opcode::Hit => (1, ICP_OP_HIT),
                Opcode::Miss => (2, ICP_OP_MISS),
                Opcode::Err => (3, ICP_OP_ERR),
                Opcode::Secho => (4, ICP_OP_SECHO),
                Opcode::MissNoFetch => (5, ICP_OP_MISS_NOFETCH),
                Opcode::Denied => (6, ICP_OP_DENIED),
                Opcode::DirUpdate => (7, ICP_OP_DIRUPDATE),
                Opcode::DirFull => (8, ICP_OP_DIRFULL),
                Opcode::DirReq => (9, ICP_OP_DIRREQ),
                Opcode::DirFullGr => (10, ICP_OP_DIRFULL_GR),
            };
            assert_eq!(at, slot, "{op:?} sits at its slot in the list");
            assert_eq!(op.to_u8(), byte);
            assert_eq!(Opcode::from_u8(byte), Some(op), "{op:?} decodes");
        }
        // Every byte `from_u8` accepts is a listed variant's own byte.
        let decodable = (0..=u8::MAX).filter_map(Opcode::from_u8);
        for op in decodable.clone() {
            assert!(listed.contains(&op), "{op:?} is missing from the list");
        }
        assert_eq!(decodable.count(), listed.len());
        // The RFC 2186 / summary-cache extension values are wire
        // contract, not implementation detail.
        assert_eq!(ICP_OP_QUERY, 1);
        assert_eq!(ICP_OP_DIRUPDATE, 32);
        assert_eq!(ICP_OP_DIRFULL_GR, 35);
    }

    #[test]
    fn query_roundtrip_and_layout() {
        let msg = IcpMessage::Query {
            request_number: 42,
            requester: 0x0A000001,
            url: "http://example.com/x".into(),
        };
        let bytes = msg.encode(7).unwrap();
        assert_eq!(bytes[0], 1, "opcode");
        assert_eq!(bytes[1], 2, "version");
        let len = u16::from_be_bytes([bytes[2], bytes[3]]) as usize;
        assert_eq!(len, bytes.len());
        assert_eq!(len, 20 + 4 + 20 + 1, "header + requester + url + NUL");
        assert_eq!(*bytes.last().unwrap(), 0, "null-terminated URL");
        roundtrip(msg);
    }

    #[test]
    fn reply_roundtrips() {
        for make in [
            |u: String| IcpMessage::Hit { request_number: 1, url: u },
            |u: String| IcpMessage::Miss { request_number: 2, url: u },
            |u: String| IcpMessage::MissNoFetch { request_number: 3, url: u },
            |u: String| IcpMessage::Denied { request_number: 4, url: u },
            |u: String| IcpMessage::Err { request_number: 5, url: u },
        ] {
            roundtrip(make("http://a/b?q=1".into()));
        }
    }

    #[test]
    fn dirupdate_roundtrip() {
        let msg = IcpMessage::DirUpdate {
            request_number: 9,
            sender: 0x7F000001,
            update: DirUpdate {
                function_num: 4,
                function_bits: 32,
                bit_array_size: 1 << 20,
                generation: 0xA1B2C3D4,
                seq: 17,
                content: DirContent::Flips(vec![
                    Flip::set(0),
                    Flip::clear(12345),
                    Flip::set((1 << 20) - 1),
                ]),
            },
        };
        let bytes = msg.encode(0).unwrap();
        assert_eq!(bytes[0], 32, "ICP_OP_DIRUPDATE");
        assert_eq!(bytes.len(), 20 + 20 + 3 * 4);
        // Generation and Seq sit between BitArray_Size and the count.
        assert_eq!(&bytes[28..32], &0xA1B2C3D4u32.to_be_bytes());
        assert_eq!(&bytes[32..36], &17u32.to_be_bytes());
        roundtrip(msg);
    }

    #[test]
    fn dirfull_roundtrip() {
        let msg = IcpMessage::DirUpdate {
            request_number: 10,
            sender: 1,
            update: DirUpdate {
                function_num: 4,
                function_bits: 32,
                bit_array_size: 130, // 3 words
                generation: 1,
                seq: 0,
                content: DirContent::Bitmap(vec![u64::MAX, 0, 0b11]),
            },
        };
        let bytes = msg.encode(0).unwrap();
        assert_eq!(bytes[0], 33, "DIRFULL");
        roundtrip(msg);
    }

    #[test]
    fn dirreq_roundtrip_and_layout() {
        let msg = IcpMessage::DirReq {
            request_number: 55,
            sender: 3,
            generation: 0xFEEDFACE,
            accepts_gr: false,
        };
        let bytes = msg.encode(0).unwrap();
        assert_eq!(bytes[0], 34, "ICP_OP_DIRREQ");
        assert_eq!(bytes.len(), HEADER_LEN + DIRREQ_PAYLOAD_LEN);
        assert_eq!(&bytes[8..12], &0u32.to_be_bytes(), "no options flagged");
        assert_eq!(&bytes[16..20], &3u32.to_be_bytes(), "requester id in sender-host");
        assert_eq!(&bytes[20..24], &0xFEEDFACEu32.to_be_bytes());
        roundtrip(msg);
    }

    #[test]
    fn dirreq_gr_capability_rides_the_options_word() {
        let msg = IcpMessage::DirReq {
            request_number: 56,
            sender: 4,
            generation: 12,
            accepts_gr: true,
        };
        let bytes = msg.encode(0).unwrap();
        assert_eq!(
            &bytes[8..12],
            &ICP_FLAG_GR_OK.to_be_bytes(),
            "GR capability is options bit 0"
        );
        roundtrip(msg);
        // A legacy requester (flag clear) decodes as accepts_gr = false:
        // negotiation falls back to raw DIRFULL.
        let mut legacy = bytes.clone();
        legacy[8..12].copy_from_slice(&0u32.to_be_bytes());
        match IcpMessage::decode(&legacy).unwrap() {
            IcpMessage::DirReq { accepts_gr, .. } => assert!(!accepts_gr),
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn dirfull_gr_roundtrip_and_layout() {
        let msg = IcpMessage::DirUpdate {
            request_number: 11,
            sender: 2,
            update: DirUpdate {
                function_num: 4,
                function_bits: 32,
                bit_array_size: 512,
                generation: 0xA1B2C3D4,
                seq: 21,
                content: DirContent::CompressedBitmap {
                    first_bit: 0,
                    seg_bits: 512,
                    ones: 3,
                    rice: 5,
                    data: vec![0xAB, 0xCD, 0xEF],
                },
            },
        };
        let bytes = msg.encode(0).unwrap();
        assert_eq!(bytes[0], ICP_OP_DIRFULL_GR, "ICP_OP_DIRFULL_GR");
        assert_eq!(
            bytes.len(),
            HEADER_LEN + DIRUPDATE_HEADER_LEN + DIRFULL_GR_SEGMENT_LEN + 3
        );
        // Number_of_Updates counts coded bytes; the segment descriptor
        // follows the extension header.
        assert_eq!(&bytes[36..40], &3u32.to_be_bytes(), "coded byte count");
        assert_eq!(&bytes[40..44], &0u32.to_be_bytes(), "first_bit");
        assert_eq!(&bytes[44..48], &512u32.to_be_bytes(), "seg_bits");
        assert_eq!(&bytes[48..52], &3u32.to_be_bytes(), "ones");
        assert_eq!(bytes[52], 5, "rice");
        roundtrip(msg);
    }

    #[test]
    fn dirfull_gr_decode_validations() {
        let mk = |first_bit, seg_bits, ones, rice| IcpMessage::DirUpdate {
            request_number: 0,
            sender: 0,
            update: DirUpdate {
                function_num: 4,
                function_bits: 32,
                bit_array_size: 512,
                generation: 1,
                seq: 0,
                content: DirContent::CompressedBitmap {
                    first_bit,
                    seg_bits,
                    ones,
                    rice,
                    data: vec![0u8; 4],
                },
            },
        };
        let expect_bad = |msg: IcpMessage, why: &str| {
            let bytes = msg.encode(0).unwrap();
            assert!(
                matches!(IcpMessage::decode(&bytes), Err(IcpError::BadDirUpdate(_))),
                "{why}"
            );
        };
        expect_bad(mk(0, 512, 0, 64), "rice above 63 must be rejected");
        expect_bad(mk(7, 64, 0, 3), "unaligned first_bit");
        expect_bad(mk(0, 0, 0, 3), "zero-length segment");
        expect_bad(mk(448, 128, 0, 3), "segment past the bit array");
        expect_bad(mk(0, 64, 65, 3), "more ones than segment bits");
        // Word-aligned interior segment is legal.
        roundtrip(mk(64, 128, 7, 3));
        // Claimed coded length must match the carried bytes exactly.
        let mut bytes = mk(0, 512, 0, 3).encode(0).unwrap();
        bytes[36..40].copy_from_slice(&9u32.to_be_bytes());
        assert_eq!(
            IcpMessage::decode(&bytes),
            Err(IcpError::BadDirUpdate("coded bytes vs payload size"))
        );
    }

    #[test]
    fn dirreq_payload_must_be_exactly_one_word() {
        let ok = IcpMessage::DirReq {
            request_number: 1,
            sender: 2,
            generation: 7,
            accepts_gr: true,
        }
        .encode(0)
        .unwrap();
        // Trailing junk after the generation word is rejected even when
        // the length field is consistent.
        let mut long = ok.clone();
        long.extend_from_slice(&[0, 0]);
        let n = long.len() as u16;
        long[2..4].copy_from_slice(&n.to_be_bytes());
        assert_eq!(IcpMessage::decode(&long), Err(IcpError::TruncatedPayload));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(
            IcpMessage::decode(&[1, 2, 3]),
            Err(IcpError::TruncatedHeader)
        );
        let ok = IcpMessage::Hit {
            request_number: 0,
            url: "http://a/".into(),
        }
        .encode(0)
        .unwrap();
        // Wrong version.
        let mut bad = ok.to_vec();
        bad[1] = 3;
        assert_eq!(IcpMessage::decode(&bad), Err(IcpError::BadVersion(3)));
        // Wrong length field.
        let mut bad = ok.to_vec();
        bad[2] = 0xFF;
        bad[3] = 0xFF;
        assert!(matches!(
            IcpMessage::decode(&bad),
            Err(IcpError::LengthMismatch { .. })
        ));
        // Unknown opcode.
        let mut bad = ok.to_vec();
        bad[0] = 99;
        assert_eq!(IcpMessage::decode(&bad), Err(IcpError::UnknownOpcode(99)));
        // Unterminated URL.
        let mut bad = ok.to_vec();
        let n = bad.len();
        bad[n - 1] = b'x';
        assert_eq!(IcpMessage::decode(&bad), Err(IcpError::UnterminatedUrl));
    }

    #[test]
    fn dirupdate_length_checks() {
        let msg = IcpMessage::DirUpdate {
            request_number: 0,
            sender: 0,
            update: DirUpdate {
                function_num: 4,
                function_bits: 32,
                bit_array_size: 64,
                generation: 2,
                seq: 3,
                content: DirContent::Flips(vec![Flip::set(1)]),
            },
        };
        let mut bytes = msg.encode(0).unwrap().to_vec();
        // Claim two flips but carry one.
        let off = 20 + 16; // Number_of_Updates field offset
        bytes[off..off + 4].copy_from_slice(&2u32.to_be_bytes());
        assert!(matches!(
            IcpMessage::decode(&bytes),
            Err(IcpError::BadDirUpdate(_))
        ));
    }

    #[test]
    fn oversized_message_rejected_at_encode() {
        let msg = IcpMessage::DirUpdate {
            request_number: 0,
            sender: 0,
            update: DirUpdate {
                function_num: 4,
                function_bits: 32,
                bit_array_size: 1 << 24,
                generation: 1,
                seq: 1,
                content: DirContent::Flips((0..20_000).map(Flip::set).collect()),
            },
        };
        assert!(matches!(msg.encode(0), Err(IcpError::TooLarge(_))));
    }

    #[test]
    fn dirupdate_roundtrips_both_variants_same_header() {
        // The two DirContent variants carry the same self-describing
        // filter header; both must survive the wire byte-for-byte.
        let header = |content| DirUpdate {
            function_num: 10,
            function_bits: 20,
            bit_array_size: 192, // exactly 3 words, no overhang
            generation: u32::MAX,
            seq: u32::MAX,
            content,
        };
        for content in [
            DirContent::Flips(vec![Flip::set(0), Flip::clear(191)]),
            DirContent::Flips(Vec::new()), // empty delta is legal
            DirContent::Bitmap(vec![1, 2, 3]),
        ] {
            roundtrip(IcpMessage::DirUpdate {
                request_number: 77,
                sender: 0xDEADBEEF,
                update: header(content),
            });
        }
    }

    #[test]
    fn truncated_dirupdate_datagrams_never_decode() {
        // Sweep every proper prefix of valid DIRUPDATE and DIRFULL
        // datagrams: each must be rejected (and never panic), whether or
        // not the length field is patched to match the truncation.
        let msgs = [
            IcpMessage::DirUpdate {
                request_number: 3,
                sender: 4,
                update: DirUpdate {
                    function_num: 4,
                    function_bits: 32,
                    bit_array_size: 4096,
                    generation: 9,
                    seq: 42,
                    content: DirContent::Flips(vec![Flip::set(5), Flip::clear(9), Flip::set(77)]),
                },
            },
            IcpMessage::DirUpdate {
                request_number: 3,
                sender: 4,
                update: DirUpdate {
                    function_num: 4,
                    function_bits: 32,
                    bit_array_size: 130,
                    generation: 9,
                    seq: 43,
                    content: DirContent::Bitmap(vec![7, 8, 9]),
                },
            },
            IcpMessage::DirReq {
                request_number: 5,
                sender: 6,
                generation: 9,
                accepts_gr: true,
            },
            IcpMessage::DirUpdate {
                request_number: 3,
                sender: 4,
                update: DirUpdate {
                    function_num: 4,
                    function_bits: 32,
                    bit_array_size: 192,
                    generation: 9,
                    seq: 44,
                    content: DirContent::CompressedBitmap {
                        first_bit: 64,
                        seg_bits: 128,
                        ones: 2,
                        rice: 4,
                        data: vec![0x11, 0x22, 0x33, 0x44, 0x55],
                    },
                },
            },
        ];
        for msg in msgs {
            let bytes = msg.encode(0).unwrap();
            for cut in 0..bytes.len() {
                let mut prefix = bytes[..cut].to_vec();
                assert!(
                    IcpMessage::decode(&prefix).is_err(),
                    "prefix of {cut} bytes decoded"
                );
                // Patch the length field so header and datagram agree;
                // the payload checks must still catch the loss.
                if cut >= HEADER_LEN {
                    prefix[2..4].copy_from_slice(&(cut as u16).to_be_bytes());
                    assert!(
                        IcpMessage::decode(&prefix).is_err(),
                        "length-patched prefix of {cut} bytes decoded"
                    );
                }
            }
        }
    }

    #[test]
    fn bitmap_word_count_must_match_bit_array_size() {
        let msg = IcpMessage::DirUpdate {
            request_number: 0,
            sender: 0,
            update: DirUpdate {
                function_num: 4,
                function_bits: 32,
                bit_array_size: 128, // needs exactly 2 words
                generation: 1,
                seq: 0,
                content: DirContent::Bitmap(vec![1, 2]),
            },
        };
        let mut bytes = msg.encode(0).unwrap().to_vec();
        // Claim a larger bit array than the 2 carried words cover.
        bytes[24..28].copy_from_slice(&192u32.to_be_bytes());
        assert_eq!(
            IcpMessage::decode(&bytes),
            Err(IcpError::BadDirUpdate("bitmap words vs bit array size"))
        );
    }

    #[test]
    fn oversized_delta_list_boundary() {
        // The 16-bit length field caps a DIRUPDATE at
        // (u16::MAX - headers) / 4 flips; one past that must fail at
        // encode, the boundary itself must round-trip.
        let max_flips = (u16::MAX as usize - HEADER_LEN - DIRUPDATE_HEADER_LEN) / 4;
        let mk = |n: usize| IcpMessage::DirUpdate {
            request_number: 0,
            sender: 0,
            update: DirUpdate {
                function_num: 4,
                function_bits: 32,
                bit_array_size: 1 << 26,
                generation: 1,
                seq: n as u32,
                content: DirContent::Flips((0..n as u32).map(Flip::set).collect()),
            },
        };
        roundtrip(mk(max_flips));
        assert!(matches!(mk(max_flips + 1).encode(0), Err(IcpError::TooLarge(_))));
    }

    #[test]
    fn prop_query_roundtrip() {
        const URL_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789:/._?&=%-";
        check("icp_query_roundtrip", 256, |rng| {
            let url: String = (0..rng.gen_range(0usize..200))
                .map(|_| URL_CHARS[rng.gen_range(0..URL_CHARS.len())] as char)
                .collect();
            let msg = IcpMessage::Query {
                request_number: rng.next_u32(),
                requester: rng.next_u32(),
                url,
            };
            let bytes = msg.encode(0).unwrap();
            assert_eq!(IcpMessage::decode(&bytes).unwrap(), msg);
        });
    }

    #[test]
    fn prop_dirupdate_roundtrip() {
        check("icp_dirupdate_roundtrip", 256, |rng| {
            let words = vec_of(rng, 0..64, |r| r.next_u32());
            let msg = IcpMessage::DirUpdate {
                request_number: 1,
                sender: 2,
                update: DirUpdate {
                    function_num: rng.gen_range(1u16..16),
                    function_bits: 32,
                    bit_array_size: rng.gen_range(1u32..1_000_000),
                    generation: rng.next_u32(),
                    seq: rng.next_u32(),
                    content: DirContent::Flips(words.into_iter().map(Flip::from_wire).collect()),
                },
            };
            let bytes = msg.encode(0).unwrap();
            assert_eq!(IcpMessage::decode(&bytes).unwrap(), msg);
        });
    }

    #[test]
    fn prop_decode_never_panics() {
        check("icp_decode_never_panics", 512, |rng| {
            let data = vec_of(rng, 0..256, |r| r.gen_range(0u8..=255));
            let _ = IcpMessage::decode(&data);
        });
    }
}
