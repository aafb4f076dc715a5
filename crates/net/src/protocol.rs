//! Length-prefixed wire protocol for compressed point-cloud frames.
//!
//! ```text
//! "DBGF" | u32 sequence | u64 payload_len | u32 crc32 | payload bytes
//! ```
//!
//! All integers little-endian. The CRC-32 (IEEE) covers the sequence, the
//! payload length, and the payload, so a flipped bit anywhere in a frame —
//! including its header — is detected; it is `dbgc_codec::crc32`, the same
//! checksum that guards a stream's index trailer. Works over any
//! `Read`/`Write`, so the same code drives TCP sockets, in-memory pipes, and
//! files.
//!
//! [`FrameReader`] is the one parser. It scans forward for the next
//! verifiable frame, so a stream survives corruption instead of desyncing:
//! damaged frames are dropped and the skipped byte count reported to the
//! caller. Over a nonblocking transport it keeps its place across
//! `WouldBlock`, so every byte is read from the transport once.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read, Write};

use dbgc_codec::crc32::crc32_update;

const WIRE_MAGIC: [u8; 4] = *b"DBGF";
/// Default upper bound on a frame payload. A compressed LiDAR frame is
/// < 1 MiB even at fine bounds; 8 MiB leaves generous headroom while keeping
/// a corrupt length field from driving a gigabyte-sized read. Tune per
/// deployment with [`FrameReader::with_max_payload`].
pub const DEFAULT_MAX_PAYLOAD: u64 = 8 << 20;

/// Sequence number reserved for wire-v3 control frames ([`Control`]). Data
/// frames never use it.
pub const CONTROL_SEQUENCE: u32 = u32::MAX;

/// A framed message: a compressed point cloud plus its sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFrame {
    /// Monotone frame sequence number.
    pub sequence: u32,
    /// The DBGC bitstream.
    pub payload: Vec<u8>,
}

/// Transport-level failure.
#[derive(Debug)]
pub enum NetError {
    /// Underlying transport failure.
    Io(io::Error),
    /// Clean end of stream between frames.
    Closed,
    /// A stalled peer exceeded its deadline: no acknowledgement progress
    /// within the configured budget. Raised by the resilient client instead
    /// of hanging forever.
    Timeout,
    /// A retry budget was exhausted without the operation succeeding.
    RetriesExhausted {
        /// Attempts made before giving up.
        attempts: u32,
        /// The terminal failure, rendered for logs.
        last_error: String,
    },
    /// The server refused the session with a [`Control::Reject`] frame —
    /// e.g. the fleet admission cap is reached. Terminal: retrying the same
    /// connection will not help, so the resilient client surfaces this
    /// immediately instead of burning its retry budget.
    Rejected {
        /// Machine-readable refusal code (see the `REJECT_*` constants).
        code: u32,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "I/O error: {e}"),
            NetError::Closed => write!(f, "connection closed"),
            NetError::Timeout => write!(f, "peer stalled past its deadline"),
            NetError::RetriesExhausted { attempts, last_error } => {
                write!(f, "gave up after {attempts} attempts: {last_error}")
            }
            NetError::Rejected { code } => {
                let why = match *code {
                    REJECT_FLEET_FULL => "fleet admission cap reached",
                    REJECT_WRONG_SHARD => "session routed to the wrong shard",
                    REJECT_BAD_AUTH => "authentication failed",
                    _ => "refused by server",
                };
                write!(f, "session rejected (code {code}): {why}")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        // Watchdog wrappers surface stalls as `TimedOut`; give every reader
        // the typed variant for free.
        if e.kind() == io::ErrorKind::TimedOut {
            NetError::Timeout
        } else {
            NetError::Io(e)
        }
    }
}

/// Wire-v3 control frames, carried as ordinary checksummed frames with the
/// reserved sequence [`CONTROL_SEQUENCE`] and a one-byte tag prefix.
///
/// Every connection opens with a [`Control::Hello`] (data frames sent before
/// one are dropped). The hello makes the connection part of a *session*: the
/// server deduplicates replayed sequences, drops out-of-order arrivals (the
/// client retransmits them in order), and acknowledges progress so the
/// client can bound its in-flight window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Client → server, first frame after (re)connecting.
    Hello {
        /// Random per-stream id; reconnects reuse it so the server keeps its
        /// dedup state instead of treating the client as new.
        session_id: u64,
        /// The client's acknowledgement floor: every sequence below this is
        /// known stored. The server answers with its own view.
        last_acked: u32,
    },
    /// Server → client: everything below `next_expected` is stored durably.
    Ack {
        /// Session this acknowledgement belongs to.
        session_id: u64,
        /// The next sequence the server will store.
        next_expected: u32,
    },
    /// Server → client: the session is refused and the connection is about
    /// to close. Sent instead of an [`Control::Ack`] in reply to a hello the
    /// server will not serve (fleet admission cap, shard mismatch). Old
    /// clients that predate this tag ignore it and time out; v3.1 clients
    /// surface [`NetError::Rejected`] immediately.
    Reject {
        /// Session the refusal belongs to.
        session_id: u64,
        /// Machine-readable reason (see the `REJECT_*` constants).
        code: u32,
    },
    /// Client → server: a [`Control::Hello`] carrying a per-tenant auth
    /// token. Fleets configured with a [`crate::fleet::FleetAuth`] table
    /// require this form and answer a token mismatch (or a bare hello) with
    /// [`REJECT_BAD_AUTH`]; fleets without an auth table treat it exactly
    /// like a plain hello, so clients can send tokens unconditionally.
    HelloAuth {
        /// Random per-stream id, as in [`Control::Hello`].
        session_id: u64,
        /// The client's acknowledgement floor, as in [`Control::Hello`].
        last_acked: u32,
        /// The tenant's shared-secret token, compared constant-time.
        token: AuthToken,
    },
}

/// [`Control::Reject`] code: the fleet's admission cap is reached.
pub const REJECT_FLEET_FULL: u32 = 1;
/// [`Control::Reject`] code: the session id does not belong on the shard the
/// connection was registered with (in-process drivers must route by id).
pub const REJECT_WRONG_SHARD: u32 = 2;
/// [`Control::Reject`] code: the hello's auth token was missing or wrong.
pub const REJECT_BAD_AUTH: u32 = 3;

/// Length of a per-tenant auth token, in bytes.
pub const AUTH_TOKEN_LEN: usize = 16;

/// A fixed-length per-tenant shared-secret token carried on
/// [`Control::HelloAuth`].
pub type AuthToken = [u8; AUTH_TOKEN_LEN];

/// Constant-time token equality: accumulates the XOR of every byte pair so
/// the comparison cost does not depend on where the first mismatch sits.
pub fn auth_token_eq(a: &AuthToken, b: &AuthToken) -> bool {
    let mut diff = 0u8;
    for i in 0..AUTH_TOKEN_LEN {
        diff |= std::hint::black_box(a[i] ^ b[i]);
    }
    diff == 0
}

const CONTROL_TAG_HELLO: u8 = 0x01;
const CONTROL_TAG_ACK: u8 = 0x02;
const CONTROL_TAG_REJECT: u8 = 0x03;
const CONTROL_TAG_HELLO_AUTH: u8 = 0x04;

/// Payload length of the three original 13-byte control forms.
const CONTROL_LEN: usize = 13;
/// Payload length of [`Control::HelloAuth`]: tag + id + floor + token.
const CONTROL_AUTH_LEN: usize = CONTROL_LEN + AUTH_TOKEN_LEN;

impl Control {
    /// Encode as a control-frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(13);
        match self {
            Control::Hello { session_id, last_acked } => {
                out.push(CONTROL_TAG_HELLO);
                out.extend_from_slice(&session_id.to_le_bytes());
                out.extend_from_slice(&last_acked.to_le_bytes());
            }
            Control::Ack { session_id, next_expected } => {
                out.push(CONTROL_TAG_ACK);
                out.extend_from_slice(&session_id.to_le_bytes());
                out.extend_from_slice(&next_expected.to_le_bytes());
            }
            Control::Reject { session_id, code } => {
                out.push(CONTROL_TAG_REJECT);
                out.extend_from_slice(&session_id.to_le_bytes());
                out.extend_from_slice(&code.to_le_bytes());
            }
            Control::HelloAuth { session_id, last_acked, token } => {
                out.push(CONTROL_TAG_HELLO_AUTH);
                out.extend_from_slice(&session_id.to_le_bytes());
                out.extend_from_slice(&last_acked.to_le_bytes());
                out.extend_from_slice(token);
            }
        }
        out
    }

    /// Decode a control-frame payload; `None` if it is not a valid control
    /// message (the caller should then treat the frame as data). Each tag
    /// has exactly one valid payload length, so garbage stays garbage.
    pub fn decode(payload: &[u8]) -> Option<Control> {
        if payload.len() != CONTROL_LEN && payload.len() != CONTROL_AUTH_LEN {
            return None;
        }
        let session_id = u64::from_le_bytes(payload[1..9].try_into().ok()?);
        let low = u32::from_le_bytes(payload[9..13].try_into().ok()?);
        match (payload[0], payload.len()) {
            (CONTROL_TAG_HELLO, CONTROL_LEN) => {
                Some(Control::Hello { session_id, last_acked: low })
            }
            (CONTROL_TAG_ACK, CONTROL_LEN) => Some(Control::Ack { session_id, next_expected: low }),
            (CONTROL_TAG_REJECT, CONTROL_LEN) => Some(Control::Reject { session_id, code: low }),
            (CONTROL_TAG_HELLO_AUTH, CONTROL_AUTH_LEN) => {
                let token: AuthToken = payload[13..].try_into().ok()?;
                Some(Control::HelloAuth { session_id, last_acked: low, token })
            }
            _ => None,
        }
    }

    /// Wrap into a wire frame (reserved sequence + encoded payload).
    pub fn to_frame(&self) -> WireFrame {
        WireFrame { sequence: CONTROL_SEQUENCE, payload: self.encode() }
    }

    /// Interpret `frame` as a control message, if it is one.
    pub fn from_frame(frame: &WireFrame) -> Option<Control> {
        if frame.sequence != CONTROL_SEQUENCE {
            return None;
        }
        Control::decode(&frame.payload)
    }
}

/// CRC-32 (IEEE) over a frame's sequence, payload length, and payload.
pub fn frame_checksum(sequence: u32, payload: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFF_u32;
    c = crc32_update(c, &sequence.to_le_bytes());
    c = crc32_update(c, &(payload.len() as u64).to_le_bytes());
    c = crc32_update(c, payload);
    !c
}

/// Write one frame.
pub fn write_frame(w: &mut impl Write, frame: &WireFrame) -> Result<(), NetError> {
    w.write_all(&WIRE_MAGIC)?;
    w.write_all(&frame.sequence.to_le_bytes())?;
    w.write_all(&(frame.payload.len() as u64).to_le_bytes())?;
    w.write_all(&frame_checksum(frame.sequence, &frame.payload).to_le_bytes())?;
    w.write_all(&frame.payload)?;
    w.flush()?;
    Ok(())
}

/// A stateful, resynchronizing frame reader with bounded memory.
///
/// Discarded candidate bytes are kept in a pushback buffer and rescanned, so
/// the reader recovers every
/// verifiable frame in the stream no matter how corruption falls: magics
/// split across transport chunk boundaries, real frames hiding inside a
/// corrupt candidate's payload, and arbitrarily many back-to-back corrupt
/// regions. Peak buffering is bounded by `max_payload` + header size.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    max_payload: u64,
    /// Bytes fetched from `inner` but not yet consumed by a verified frame.
    pending: VecDeque<u8>,
    /// `inner` reached end of stream; only `pending` remains.
    eof: bool,
    /// Scratch for bulk reads from `inner`, allocated once `inner` first
    /// delivers bytes, so a reader whose transport stays silent holds none.
    chunk: Vec<u8>,
    /// Lifetime total of corrupt bytes discarded (includes trailing garbage
    /// that precedes end-of-stream, which no per-frame count can report).
    total_skipped: u64,
}

const WIRE_HEADER_LEN: usize = 20; // magic + sequence + length + crc
/// Size of [`FrameReader`]'s bulk-read scratch.
const READ_CHUNK: usize = 16 << 10;

impl<R: Read> FrameReader<R> {
    /// Wrap `inner` with the [`DEFAULT_MAX_PAYLOAD`] sanity bound.
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner,
            max_payload: DEFAULT_MAX_PAYLOAD,
            pending: VecDeque::new(),
            eof: false,
            chunk: Vec::new(),
            total_skipped: 0,
        }
    }

    /// Override the payload sanity bound (also bounds the pushback buffer).
    pub fn with_max_payload(mut self, max_payload: u64) -> FrameReader<R> {
        self.max_payload = max_payload;
        self
    }

    /// The configured payload bound.
    pub fn max_payload(&self) -> u64 {
        self.max_payload
    }

    /// Lifetime total of corrupt bytes this reader has discarded, including
    /// trailing garbage counted when the stream closed.
    pub fn bytes_skipped(&self) -> u64 {
        self.total_skipped
    }

    /// The transport.
    pub(crate) fn get_ref(&self) -> &R {
        &self.inner
    }

    /// Consume the reader, returning the transport. Unscanned pushback bytes
    /// are dropped.
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// Pull more bytes from the transport into `pending`; `Ok(false)` on EOF.
    fn fill(&mut self) -> Result<bool, NetError> {
        if self.eof {
            return Ok(false);
        }
        // Until the transport first delivers, read through a small stack
        // buffer: a reader whose transport stays silent holds no heap.
        let mut probe = [0u8; 64];
        loop {
            let buf = if self.chunk.is_empty() { &mut probe[..] } else { &mut self.chunk[..] };
            match self.inner.read(buf) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(false);
                }
                Ok(n) => {
                    self.pending.extend(&buf[..n]);
                    if self.chunk.is_empty() {
                        self.chunk = vec![0u8; READ_CHUNK];
                    }
                    return Ok(true);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Ensure at least `n` bytes are pending; `Ok(false)` if the stream ended
    /// first.
    fn want(&mut self, n: usize) -> Result<bool, NetError> {
        while self.pending.len() < n {
            if !self.fill()? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Drop one leading byte (established garbage).
    fn skip_front(&mut self, skipped: &mut u64) {
        self.pending.pop_front();
        *skipped += 1;
        self.total_skipped += 1;
    }

    fn pending_at(&self, i: usize) -> u8 {
        *self.pending.get(i).expect("index within pending")
    }

    /// Read the next verifiable frame, scanning past any corruption.
    ///
    /// Returns the frame plus the number of corrupt bytes discarded before
    /// it; [`NetError::Closed`] once the stream ends (possibly after
    /// discarding trailing garbage). I/O errors other than EOF propagate and
    /// leave the reader where it was, so a nonblocking transport's
    /// `WouldBlock` is retried by calling again once bytes arrive.
    pub fn next_frame(&mut self) -> Result<(WireFrame, u64), NetError> {
        let mut skipped = 0u64;
        loop {
            // Align the front of `pending` on the wire magic.
            if !self.want(4)? {
                // Trailing garbage: the per-frame count dies with `Closed`,
                // but the lifetime total still records it.
                self.total_skipped += self.pending.len() as u64;
                self.pending.clear();
                return Err(NetError::Closed);
            }
            if (0..4).any(|i| self.pending_at(i) != WIRE_MAGIC[i]) {
                self.skip_front(&mut skipped);
                continue;
            }
            // Parse the fixed header.
            if !self.want(WIRE_HEADER_LEN)? {
                self.skip_front(&mut skipped);
                continue;
            }
            let field = |me: &Self, at: usize, n: usize| -> u64 {
                (0..n).fold(0u64, |acc, i| acc | (me.pending_at(at + i) as u64) << (8 * i))
            };
            let sequence = field(self, 4, 4) as u32;
            let len = field(self, 8, 8);
            let checksum = field(self, 16, 4) as u32;
            if len > self.max_payload {
                // Hostile length: the magic itself is garbage, rescan from
                // the next byte.
                self.skip_front(&mut skipped);
                continue;
            }
            let total = WIRE_HEADER_LEN + len as usize;
            if !self.want(total)? {
                // Stream ended mid-candidate; the magic byte is garbage but
                // the tail may still hide a smaller intact frame.
                self.skip_front(&mut skipped);
                continue;
            }
            let payload: Vec<u8> =
                self.pending.iter().skip(WIRE_HEADER_LEN).take(len as usize).copied().collect();
            if frame_checksum(sequence, &payload) == checksum {
                self.pending.drain(..total);
                return Ok((WireFrame { sequence, payload }, skipped));
            }
            // Bad checksum: discard only the first byte of the bogus magic
            // and rescan — a real frame may start anywhere inside this
            // candidate's bytes.
            self.skip_front(&mut skipped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_multiple_frames() {
        let mut buf = Vec::new();
        let frames: Vec<WireFrame> = (0..5)
            .map(|i| WireFrame { sequence: i, payload: vec![i as u8; (i * 100) as usize] })
            .collect();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut r = FrameReader::new(&buf[..]);
        for f in &frames {
            assert_eq!(r.next_frame().unwrap(), (f.clone(), 0));
        }
        assert!(matches!(r.next_frame(), Err(NetError::Closed)));
        assert_eq!(r.bytes_skipped(), 0);
    }

    #[test]
    fn bad_magic_rejected() {
        // Without the magic nothing is a frame: every byte is skipped.
        let buf = b"NOPE\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00";
        let (got, skipped) = drain_reader(&buf[..]);
        assert!(got.is_empty());
        assert_eq!(skipped, buf.len() as u64);
    }

    #[test]
    fn oversized_length_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"DBGF");
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        // A hostile length marks its magic as garbage: the reader neither
        // waits for nor allocates the payload, and the frame behind the
        // header is recovered.
        let header_len = buf.len() as u64;
        write_frame(&mut buf, &WireFrame { sequence: 4, payload: vec![1; 8] }).unwrap();
        let (got, skipped) = drain_reader(&buf[..]);
        assert_eq!(got, vec![(4, 8)]);
        assert_eq!(skipped, header_len);
    }

    #[test]
    fn flipped_payload_bit_fails_checksum() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &WireFrame { sequence: 3, payload: vec![0xAB; 64] }).unwrap();
        let payload_start = buf.len() - 64;
        buf[payload_start + 20] ^= 0x10;
        let (got, skipped) = drain_reader(&buf[..]);
        assert!(got.is_empty(), "a checksum failure drops the frame");
        assert_eq!(skipped, buf.len() as u64);
    }

    #[test]
    fn flipped_header_bit_fails_checksum() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &WireFrame { sequence: 3, payload: vec![0xAB; 64] }).unwrap();
        buf[5] ^= 0x01; // sequence field
        let (got, skipped) = drain_reader(&buf[..]);
        assert!(got.is_empty(), "the CRC covers the header too");
        assert_eq!(skipped, buf.len() as u64);
    }

    #[test]
    fn resync_skips_corrupt_frame() {
        let mut buf = Vec::new();
        for i in 0..3u32 {
            write_frame(&mut buf, &WireFrame { sequence: i, payload: vec![i as u8; 200] }).unwrap();
        }
        // Corrupt the middle frame's payload.
        let frame_size = buf.len() / 3;
        buf[frame_size + 40] ^= 0xFF;
        let mut r = FrameReader::new(&buf[..]);
        let (f0, s0) = r.next_frame().unwrap();
        assert_eq!((f0.sequence, s0), (0, 0));
        let (f2, s2) = r.next_frame().unwrap();
        assert_eq!(f2.sequence, 2, "frame 1 dropped, frame 2 recovered");
        assert_eq!(s2, frame_size as u64, "exactly the corrupt frame is skipped");
        assert!(matches!(r.next_frame(), Err(NetError::Closed)));
    }

    #[test]
    fn resync_skips_leading_garbage() {
        let mut buf = b"garbage bytes before the stream".to_vec();
        write_frame(&mut buf, &WireFrame { sequence: 7, payload: vec![1, 2, 3] }).unwrap();
        let (frame, skipped) = FrameReader::new(&buf[..]).next_frame().unwrap();
        assert_eq!(frame.sequence, 7);
        assert_eq!(skipped, 31);
    }

    #[test]
    fn resync_survives_magic_inside_corrupt_region() {
        // A deflated length field makes frame 0's candidate body end early;
        // the scan must still find the following intact frame.
        let mut buf = Vec::new();
        write_frame(&mut buf, &WireFrame { sequence: 0, payload: vec![9; 50] }).unwrap();
        let good_start = buf.len();
        write_frame(&mut buf, &WireFrame { sequence: 1, payload: vec![8; 50] }).unwrap();
        // Tamper with frame 0's length field (bytes 8..16).
        buf[8] -= 5;
        let mut r = FrameReader::new(&buf[..]);
        let (frame, skipped) = r.next_frame().unwrap();
        assert_eq!(frame.sequence, 1);
        assert_eq!(skipped, good_start as u64);
        assert!(matches!(r.next_frame(), Err(NetError::Closed)));
    }

    /// A reader that returns at most one byte per call, exercising every
    /// partial-read path in `FrameReader`.
    struct Dribble<'a>(&'a [u8]);
    impl std::io::Read for Dribble<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() || out.is_empty() {
                return Ok(0);
            }
            out[0] = self.0[0];
            self.0 = &self.0[1..];
            Ok(1)
        }
    }

    #[test]
    fn fragmented_transport_reassembles() {
        let mut buf = Vec::new();
        let frame = WireFrame { sequence: 9, payload: (0..=255).collect() };
        write_frame(&mut buf, &frame).unwrap();
        let mut r = FrameReader::new(Dribble(&buf));
        assert_eq!(r.next_frame().unwrap(), (frame, 0));
        assert!(matches!(r.next_frame(), Err(NetError::Closed)));
    }

    #[test]
    fn truncated_mid_frame_is_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &WireFrame { sequence: 1, payload: vec![7; 100] }).unwrap();
        buf.truncate(buf.len() - 10);
        // A clean end of stream mid-frame: the partial frame is skipped.
        let (got, skipped) = drain_reader(&buf[..]);
        assert!(got.is_empty());
        assert_eq!(skipped, buf.len() as u64);
        // A transport that fails mid-frame: its error is passed on.
        struct Reset;
        impl io::Read for Reset {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::ErrorKind::ConnectionReset.into())
            }
        }
        match FrameReader::new((&buf[..]).chain(Reset)).next_frame() {
            Err(NetError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::ConnectionReset),
            other => panic!("expected the transport's error, got {other:?}"),
        }
    }

    fn encode(frames: &[WireFrame]) -> Vec<u8> {
        let mut buf = Vec::new();
        for f in frames {
            write_frame(&mut buf, f).unwrap();
        }
        buf
    }

    fn drain_reader(r: impl io::Read) -> (Vec<(u32, usize)>, u64) {
        let mut reader = FrameReader::new(r);
        let mut got = Vec::new();
        loop {
            match reader.next_frame() {
                Ok((f, _)) => got.push((f.sequence, f.payload.len())),
                Err(NetError::Closed) => return (got, reader.bytes_skipped()),
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }

    /// A reader delivering fixed-size chunks, so the wire magic can straddle
    /// a transport read boundary.
    struct Chunked<'a> {
        data: &'a [u8],
        chunk: usize,
    }
    impl io::Read for Chunked<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.data.len().min(self.chunk).min(out.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_clean_stream() {
        let frames: Vec<WireFrame> = (0..4)
            .map(|i| WireFrame { sequence: i, payload: vec![i as u8; 64 + i as usize] })
            .collect();
        let buf = encode(&frames);
        let (got, skipped) = drain_reader(&buf[..]);
        assert_eq!(got, vec![(0, 64), (1, 65), (2, 66), (3, 67)]);
        assert_eq!(skipped, 0);
    }

    #[test]
    fn frame_reader_magic_split_across_chunk_boundary() {
        // Regression: deliver the stream in chunk sizes that split "DBGF"
        // at every possible offset, with leading garbage shifting alignment.
        let frame = WireFrame { sequence: 5, payload: vec![0x5A; 97] };
        for garbage in 0..5usize {
            let mut buf = vec![0xEE; garbage];
            buf.extend(encode(std::slice::from_ref(&frame)));
            for chunk in 1..8usize {
                let (got, skipped) = drain_reader(Chunked { data: &buf, chunk });
                assert_eq!(got, vec![(5, 97)], "garbage {garbage}, chunk {chunk}");
                assert_eq!(skipped, garbage as u64);
            }
        }
    }

    #[test]
    fn frame_reader_recovers_frame_hidden_in_corrupt_candidate_payload() {
        // Regression: frame 0's length field is inflated so its bogus
        // candidate body swallows frame 1. The reader must rescan the
        // discarded bytes and recover frame 1.
        let f0 = WireFrame { sequence: 0, payload: vec![9; 50] };
        let f1 = WireFrame { sequence: 1, payload: vec![8; 50] };
        let mut buf = encode(&[f0, f1.clone()]);
        buf[8] += 60; // frame 0 now claims its payload covers frame 1 too
        let (got, skipped) = drain_reader(&buf[..]);
        assert_eq!(got, vec![(1, 50)], "frame 1 must survive");
        assert!(skipped > 0);
    }

    #[test]
    fn frame_reader_back_to_back_corrupt_frames() {
        // Two adjacent corrupt frames, then an intact one: the reader must
        // cross both corrupt regions.
        let frames: Vec<WireFrame> =
            (0..4).map(|i| WireFrame { sequence: i, payload: vec![i as u8 + 1; 120] }).collect();
        let mut buf = encode(&frames);
        let stride = buf.len() / 4;
        buf[stride + 30] ^= 0xFF; // corrupt frame 1 payload
        buf[2 * stride + 30] ^= 0xFF; // corrupt frame 2 payload
        let (got, skipped) = drain_reader(&buf[..]);
        assert_eq!(got, vec![(0, 120), (3, 120)]);
        assert!(skipped > 0);
    }

    #[test]
    fn frame_reader_every_frame_corrupt_reports_closed() {
        let frames: Vec<WireFrame> =
            (0..3).map(|i| WireFrame { sequence: i, payload: vec![7; 80] }).collect();
        let mut buf = encode(&frames);
        let stride = buf.len() / 3;
        for k in 0..3 {
            buf[k * stride + 40] ^= 0x01;
        }
        let (got, skipped) = drain_reader(&buf[..]);
        assert!(got.is_empty());
        assert_eq!(skipped, buf.len() as u64, "every byte accounted as skipped");
    }

    #[test]
    fn frame_reader_holds_no_buffer_until_bytes_arrive() {
        // An idle connection's reader must cost no read buffer, however
        // often it is polled.
        struct Silent;
        impl io::Read for Silent {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::ErrorKind::WouldBlock.into())
            }
        }
        let mut idle = FrameReader::new(Silent);
        for _ in 0..3 {
            assert!(matches!(idle.next_frame(), Err(NetError::Io(_))));
        }
        assert_eq!((idle.chunk.capacity(), idle.pending.capacity()), (0, 0));
        let buf = encode(&[WireFrame { sequence: 2, payload: vec![6; 300] }]);
        let mut r = FrameReader::new(&buf[..]);
        assert_eq!(r.next_frame().unwrap().0.payload.len(), 300);
        assert_eq!(r.chunk.len(), READ_CHUNK);
    }

    #[test]
    fn frame_reader_max_payload_knob() {
        let frame = WireFrame { sequence: 1, payload: vec![3; 2000] };
        let buf = encode(std::slice::from_ref(&frame));
        // Under the default bound the frame reads fine.
        let mut ok = FrameReader::new(&buf[..]);
        assert_eq!(ok.next_frame().unwrap().0, frame);
        // With a 1 KiB knob the 2 KB frame is treated as hostile garbage.
        let mut tight = FrameReader::new(&buf[..]).with_max_payload(1 << 10);
        assert!(matches!(tight.next_frame(), Err(NetError::Closed)));
    }

    // The doc comment promises "< 1 MiB" typical frames; the guard must
    // be within an order of magnitude, not a 1 GiB barn door.
    const _: () = assert!(DEFAULT_MAX_PAYLOAD <= 16 << 20);
    const _: () = assert!(DEFAULT_MAX_PAYLOAD >= 1 << 20);

    #[test]
    fn default_payload_bound_is_sane() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"DBGF");
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&(DEFAULT_MAX_PAYLOAD + 1).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let mut r = FrameReader::new(&buf[..]);
        assert_eq!(r.max_payload(), DEFAULT_MAX_PAYLOAD);
        assert!(matches!(r.next_frame(), Err(NetError::Closed)));
        assert_eq!(r.bytes_skipped(), buf.len() as u64, "one byte past the bound is garbage");
    }

    #[test]
    fn control_frames_roundtrip_and_reject_garbage() {
        for c in [
            Control::Hello { session_id: 0xDEAD_BEEF_0123, last_acked: 42 },
            Control::Ack { session_id: 7, next_expected: 0 },
            Control::Reject { session_id: 11, code: REJECT_FLEET_FULL },
            Control::HelloAuth { session_id: 5, last_acked: 3, token: [0xA5; AUTH_TOKEN_LEN] },
        ] {
            let frame = c.to_frame();
            assert_eq!(frame.sequence, CONTROL_SEQUENCE);
            assert_eq!(Control::from_frame(&frame), Some(c));
            // Survives the wire.
            let mut buf = Vec::new();
            write_frame(&mut buf, &frame).unwrap();
            let (back, _) = FrameReader::new(&buf[..]).next_frame().unwrap();
            assert_eq!(Control::from_frame(&back), Some(c));
        }
        assert_eq!(Control::decode(&[]), None);
        assert_eq!(Control::decode(&[0x7F; 13]), None, "unknown tags stay unrecognized");
        assert_eq!(Control::decode(&[0x01; 12]), None);
        // Tag/length pairs are strict: an auth tag at hello length (or the
        // reverse) is garbage, not a truncated token.
        assert_eq!(Control::decode(&[CONTROL_TAG_HELLO_AUTH; 13]), None);
        assert_eq!(Control::decode(&[CONTROL_TAG_HELLO; 29]), None);
        assert_eq!(Control::decode(&[0x7F; 29]), None);
        // A data frame is never mistaken for control.
        let data = WireFrame { sequence: 3, payload: vec![CONTROL_TAG_HELLO; 13] };
        assert_eq!(Control::from_frame(&data), None);
    }

    #[test]
    fn auth_token_eq_is_exact() {
        let a: AuthToken = [0x5A; AUTH_TOKEN_LEN];
        let mut b = a;
        assert!(auth_token_eq(&a, &b));
        b[AUTH_TOKEN_LEN - 1] ^= 1;
        assert!(!auth_token_eq(&a, &b));
    }

    #[test]
    fn checksum_covers_every_field() {
        let a = frame_checksum(1, b"abc");
        let b = frame_checksum(2, b"abc");
        let c = frame_checksum(1, b"abd");
        assert!(a != b && a != c && b != c);
        // IEEE CRC-32 sanity: the classic test vector for the underlying
        // polynomial ("123456789" -> 0xCBF43926).
        assert_eq!(!crc32_update(0xFFFF_FFFF, b"123456789"), 0xCBF4_3926);
    }
}
