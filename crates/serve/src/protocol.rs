//! The wire protocol: length-prefixed binary frames over a byte stream.
//!
//! Every frame is `u32 LE payload length | payload`, where the payload is
//! `u8 kind | body`. All integers are little-endian; floats are IEEE-754
//! `f32` bits. The framing layer enforces [`MAX_FRAME_BYTES`] before
//! buffering a payload, so a corrupt or hostile length prefix cannot make
//! the server allocate unboundedly.
//!
//! | kind | frame | direction | body |
//! |------|-------|-----------|------|
//! | 0x01 | [`Frame::Infer`] | client → server | `u64 id, u32 n, n×3 f32 xyz` |
//! | 0x02 | [`Frame::Stats`] | client → server | empty |
//! | 0x80 | [`Frame::Hello`] | server → client | `u16 version, u8 domain, u32 input_points, u32 max_points` |
//! | 0x81 | [`Frame::Result`] | server → client | `u64 id, u8 n_mats, {u32 rows, u32 cols, rows·cols f32}×` |
//! | 0x82 | [`Frame::Error`] | server → client | `u64 id, u8 code, u16 len, len UTF-8 bytes` |
//! | 0x83 | [`Frame::StatsResult`] | server → client | `8×u64` (see [`ServerStats`]) |
//!
//! Decoding is strict: unknown kinds, truncated or oversized bodies,
//! trailing bytes, non-finite coordinates, and undersized/oversized point
//! counts are all typed [`ProtocolError`]s — a server maps them to
//! [`ErrorCode::Malformed`] responses rather than guessing.

use mesorasi_networks::Domain;
use mesorasi_pointcloud::{Point3, PointCloud};
use mesorasi_tensor::Matrix;
use std::io::{Read, Write};

/// Protocol version spoken by this build; the server announces it in
/// [`Frame::Hello`] and clients refuse to proceed on mismatch.
///
/// History: v1 had no `max_points` in HELLO (clients learned the point
/// limit from a Malformed error); v2 announces it up front.
pub const PROTOCOL_VERSION: u16 = 2;

/// Hard ceiling on one frame's payload (kind byte + body). Large enough
/// for paper-scale segmentation results, small enough that a corrupt
/// length prefix cannot balloon server memory.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Ceiling on points per inference request — matches the largest
/// paper-scale inputs with generous headroom.
pub const MAX_POINTS: u32 = 1 << 20;

/// Ceiling on matrices per result frame (detection returns 2).
const MAX_RESULT_MATS: u8 = 8;

/// Typed failure reported to a client instead of a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission control dropped this request (oldest-first under queue
    /// overflow). Retry later or slow down.
    Shed,
    /// The request failed protocol validation; the connection closes after
    /// this error.
    Malformed,
    /// The server could not check out an engine or is shutting down.
    Unavailable,
}

impl ErrorCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrorCode::Shed => 0,
            ErrorCode::Malformed => 1,
            ErrorCode::Unavailable => 2,
        }
    }

    fn from_byte(b: u8) -> Result<ErrorCode, ProtocolError> {
        match b {
            0 => Ok(ErrorCode::Shed),
            1 => Ok(ErrorCode::Malformed),
            2 => Ok(ErrorCode::Unavailable),
            _ => Err(ProtocolError::Malformed("unknown error code")),
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::Shed => "shed",
            ErrorCode::Malformed => "malformed",
            ErrorCode::Unavailable => "unavailable",
        };
        f.write_str(s)
    }
}

/// Server-side counters reported in [`Frame::StatsResult`]; all monotonic
/// since server start except `queue_depth` (an instantaneous snapshot).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests answered with a [`Frame::Result`].
    pub served: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Malformed frames rejected.
    pub malformed: u64,
    /// Engine dispatches, one per request.
    pub batches: u64,
    /// Jobs queued right now.
    pub queue_depth: u64,
    /// Engine NIT-cache hits across the session pool.
    pub cache_hits: u64,
    /// Engine NIT-cache misses across the session pool.
    pub cache_misses: u64,
    /// Engine NIT-cache LRU evictions across the session pool.
    pub cache_evictions: u64,
}

/// One protocol frame. See the [module docs](self) for the wire layout.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Inference request: run the session on `cloud`, answer under `id`.
    Infer {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// The sample to infer.
        cloud: PointCloud,
    },
    /// Server-counter request.
    Stats,
    /// Server greeting, sent once per connection before anything else.
    Hello {
        /// [`PROTOCOL_VERSION`] of the server.
        version: u16,
        /// Task domain of the served network, deciding result layout.
        domain: Domain,
        /// The served network's native input size (clients may send other
        /// sizes; each new size compiles a plan of its own on first use).
        input_points: u32,
        /// The server's hard ceiling on points per request
        /// ([`MAX_POINTS`] for this build) — announced so clients can
        /// pre-check loaded frames instead of learning the limit from a
        /// Malformed error mid-stream.
        max_points: u32,
    },
    /// Successful inference: the session outputs as raw matrices (1 for
    /// classification/segmentation, 2 for detection).
    Result {
        /// The request's correlation id.
        id: u64,
        /// Output matrices in session-output order.
        mats: Vec<Matrix>,
    },
    /// Typed failure. `id` is 0 when no request could be attributed (e.g.
    /// an unparseable frame).
    Error {
        /// The request's correlation id, or 0.
        id: u64,
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Server-counter response.
    StatsResult(ServerStats),
}

/// Decode-side failure; the encode side is infallible.
#[derive(Debug)]
pub enum ProtocolError {
    /// Socket-level failure, including EOF mid-frame.
    Io(std::io::Error),
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    TooLarge(u32),
    /// The payload failed structural validation.
    Malformed(&'static str),
    /// Unknown frame-kind byte.
    UnknownKind(u8),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "i/o: {e}"),
            ProtocolError::TooLarge(len) => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap")
            }
            ProtocolError::Malformed(why) => write!(f, "malformed frame: {why}"),
            ProtocolError::UnknownKind(k) => write!(f, "unknown frame kind 0x{k:02x}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> ProtocolError {
        ProtocolError::Io(e)
    }
}

impl ProtocolError {
    /// True for errors a server should answer with
    /// [`ErrorCode::Malformed`] before closing the connection (as opposed
    /// to plain socket failures, which just close it).
    pub fn is_malformed(&self) -> bool {
        !matches!(self, ProtocolError::Io(_))
    }
}

fn domain_to_byte(d: Domain) -> u8 {
    match d {
        Domain::Classification => 0,
        Domain::Segmentation => 1,
        Domain::Detection => 2,
    }
}

fn domain_from_byte(b: u8) -> Result<Domain, ProtocolError> {
    match b {
        0 => Ok(Domain::Classification),
        1 => Ok(Domain::Segmentation),
        2 => Ok(Domain::Detection),
        _ => Err(ProtocolError::Malformed("unknown domain byte")),
    }
}

/// Appends one complete wire frame (length prefix included) to `out`.
pub fn encode(frame: &Frame, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]); // length backpatched below
    match frame {
        Frame::Infer { id, cloud } => {
            out.push(0x01);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(cloud.len() as u32).to_le_bytes());
            for p in cloud.points() {
                out.extend_from_slice(&p.x.to_le_bytes());
                out.extend_from_slice(&p.y.to_le_bytes());
                out.extend_from_slice(&p.z.to_le_bytes());
            }
        }
        Frame::Stats => out.push(0x02),
        Frame::Hello { version, domain, input_points, max_points } => {
            out.push(0x80);
            out.extend_from_slice(&version.to_le_bytes());
            out.push(domain_to_byte(*domain));
            out.extend_from_slice(&input_points.to_le_bytes());
            out.extend_from_slice(&max_points.to_le_bytes());
        }
        Frame::Result { id, mats } => {
            out.push(0x81);
            out.extend_from_slice(&id.to_le_bytes());
            assert!(mats.len() <= MAX_RESULT_MATS as usize, "result frame holds <= 8 matrices");
            out.push(mats.len() as u8);
            for m in mats {
                out.extend_from_slice(&(m.rows() as u32).to_le_bytes());
                out.extend_from_slice(&(m.cols() as u32).to_le_bytes());
                for v in m.as_slice() {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        Frame::Error { id, code, message } => {
            out.push(0x82);
            out.extend_from_slice(&id.to_le_bytes());
            out.push(code.to_byte());
            let msg = message.as_bytes();
            let len = msg.len().min(u16::MAX as usize);
            out.extend_from_slice(&(len as u16).to_le_bytes());
            out.extend_from_slice(&msg[..len]);
        }
        Frame::StatsResult(s) => {
            out.push(0x83);
            for v in [
                s.served,
                s.shed,
                s.malformed,
                s.batches,
                s.queue_depth,
                s.cache_hits,
                s.cache_misses,
                s.cache_evictions,
            ] {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    let payload_len = (out.len() - start - 4) as u32;
    assert!(payload_len <= MAX_FRAME_BYTES, "encoded frame exceeds MAX_FRAME_BYTES");
    out[start..start + 4].copy_from_slice(&payload_len.to_le_bytes());
}

/// Strict little-endian cursor over a frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.buf.len() < n {
            return Err(ProtocolError::Malformed("truncated body"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f32(&mut self) -> Result<f32, ProtocolError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(ProtocolError::Malformed("trailing bytes after body"))
        }
    }
}

/// Decodes one payload (the bytes after the length prefix). Strict: every
/// byte must be consumed, every value validated.
pub fn decode(payload: &[u8]) -> Result<Frame, ProtocolError> {
    if payload.len() as u64 > MAX_FRAME_BYTES as u64 {
        return Err(ProtocolError::TooLarge(payload.len() as u32));
    }
    let mut c = Cursor { buf: payload };
    let kind = c.u8().map_err(|_| ProtocolError::Malformed("empty payload"))?;
    let frame = match kind {
        0x01 => {
            let id = c.u64()?;
            let n = c.u32()?;
            if n == 0 {
                return Err(ProtocolError::Malformed("empty point cloud"));
            }
            if n > MAX_POINTS {
                return Err(ProtocolError::Malformed("point count exceeds MAX_POINTS"));
            }
            // The byte budget was checked against MAX_FRAME_BYTES above;
            // an `n` claiming more points than bytes is simply truncated.
            let mut points = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let (x, y, z) = (c.f32()?, c.f32()?, c.f32()?);
                if !(x.is_finite() && y.is_finite() && z.is_finite()) {
                    return Err(ProtocolError::Malformed("non-finite coordinate"));
                }
                points.push(Point3::new(x, y, z));
            }
            c.finish()?;
            Frame::Infer { id, cloud: PointCloud::from_points(points) }
        }
        0x02 => {
            c.finish()?;
            Frame::Stats
        }
        0x80 => {
            let version = c.u16()?;
            let domain = domain_from_byte(c.u8()?)?;
            let input_points = c.u32()?;
            let max_points = c.u32()?;
            c.finish()?;
            Frame::Hello { version, domain, input_points, max_points }
        }
        0x81 => {
            let id = c.u64()?;
            let n_mats = c.u8()?;
            if n_mats == 0 || n_mats > MAX_RESULT_MATS {
                return Err(ProtocolError::Malformed("result matrix count out of range"));
            }
            let mut mats = Vec::with_capacity(n_mats as usize);
            for _ in 0..n_mats {
                let rows = c.u32()? as usize;
                let cols = c.u32()? as usize;
                let cells = rows
                    .checked_mul(cols)
                    .filter(|&cells| cells as u64 <= MAX_FRAME_BYTES as u64 / 4)
                    .ok_or(ProtocolError::Malformed("matrix shape overflows"))?;
                let mut data = Vec::with_capacity(cells);
                for _ in 0..cells {
                    data.push(c.f32()?);
                }
                mats.push(Matrix::from_vec(rows, cols, data));
            }
            c.finish()?;
            Frame::Result { id, mats }
        }
        0x82 => {
            let id = c.u64()?;
            let code = ErrorCode::from_byte(c.u8()?)?;
            let len = c.u16()? as usize;
            let bytes = c.take(len)?;
            let message = std::str::from_utf8(bytes)
                .map_err(|_| ProtocolError::Malformed("error message is not UTF-8"))?
                .to_owned();
            c.finish()?;
            Frame::Error { id, code, message }
        }
        0x83 => {
            let s = ServerStats {
                served: c.u64()?,
                shed: c.u64()?,
                malformed: c.u64()?,
                batches: c.u64()?,
                queue_depth: c.u64()?,
                cache_hits: c.u64()?,
                cache_misses: c.u64()?,
                cache_evictions: c.u64()?,
            };
            c.finish()?;
            Frame::StatsResult(s)
        }
        other => return Err(ProtocolError::UnknownKind(other)),
    };
    Ok(frame)
}

/// Writes one frame to `w` (buffer the writer; this issues one `write_all`).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> std::io::Result<()> {
    let mut buf = Vec::new();
    encode(frame, &mut buf);
    w.write_all(&buf)
}

/// Reads one frame from `r`, enforcing [`MAX_FRAME_BYTES`] *before*
/// buffering the payload.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, ProtocolError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(ProtocolError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    decode(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let mut wire = Vec::new();
        encode(&frame, &mut wire);
        let len = u32::from_le_bytes(wire[..4].try_into().expect("prefix")) as usize;
        assert_eq!(len, wire.len() - 4, "length prefix covers the payload exactly");
        assert_eq!(decode(&wire[4..]).expect("decodes"), frame);
        // And through the io path.
        let mut cursor = std::io::Cursor::new(&wire);
        assert_eq!(read_frame(&mut cursor).expect("reads"), frame);
    }

    #[test]
    fn all_frames_round_trip() {
        roundtrip(Frame::Infer {
            id: 42,
            cloud: PointCloud::from_points(vec![
                Point3::new(0.5, -1.25, 3.0),
                Point3::new(1.0, 2.0, -0.125),
            ]),
        });
        roundtrip(Frame::Stats);
        roundtrip(Frame::Hello {
            version: PROTOCOL_VERSION,
            domain: Domain::Detection,
            input_points: 1024,
            max_points: MAX_POINTS,
        });
        roundtrip(Frame::Result {
            id: 7,
            mats: vec![
                Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
                Matrix::from_vec(1, 7, vec![0.0; 7]),
            ],
        });
        roundtrip(Frame::Error {
            id: 9,
            code: ErrorCode::Shed,
            message: "queue full: oldest request dropped".into(),
        });
        roundtrip(Frame::StatsResult(ServerStats {
            served: 1,
            shed: 2,
            malformed: 3,
            batches: 4,
            queue_depth: 5,
            cache_hits: 6,
            cache_misses: 7,
            cache_evictions: 8,
        }));
    }

    #[test]
    fn unknown_kind_is_rejected() {
        assert!(matches!(decode(&[0x7f]), Err(ProtocolError::UnknownKind(0x7f))));
    }

    #[test]
    fn empty_payload_is_rejected() {
        assert!(matches!(decode(&[]), Err(ProtocolError::Malformed(_))));
    }

    #[test]
    fn truncated_infer_is_rejected() {
        let frame = Frame::Infer {
            id: 1,
            cloud: PointCloud::from_points(vec![Point3::new(1.0, 2.0, 3.0)]),
        };
        let mut wire = Vec::new();
        encode(&frame, &mut wire);
        // Drop the last coordinate byte from the payload.
        let payload = &wire[4..wire.len() - 1];
        assert!(matches!(decode(payload), Err(ProtocolError::Malformed(_))));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut wire = Vec::new();
        encode(&Frame::Stats, &mut wire);
        let mut payload = wire[4..].to_vec();
        payload.push(0);
        assert!(matches!(decode(&payload), Err(ProtocolError::Malformed(_))));
    }

    #[test]
    fn non_finite_coordinates_are_rejected() {
        // Hand-build an INFER payload carrying a NaN (the encoder cannot,
        // since PointCloud construction asserts finiteness in debug).
        let mut payload = vec![0x01];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&f32::NAN.to_le_bytes());
        payload.extend_from_slice(&0f32.to_le_bytes());
        payload.extend_from_slice(&0f32.to_le_bytes());
        assert!(matches!(decode(&payload), Err(ProtocolError::Malformed(_))));
    }

    #[test]
    fn zero_and_oversized_point_counts_are_rejected() {
        for n in [0u32, MAX_POINTS + 1] {
            let mut payload = vec![0x01];
            payload.extend_from_slice(&1u64.to_le_bytes());
            payload.extend_from_slice(&n.to_le_bytes());
            assert!(matches!(decode(&payload), Err(ProtocolError::Malformed(_))), "n={n}");
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_buffering() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        let mut cursor = std::io::Cursor::new(&wire);
        assert!(matches!(read_frame(&mut cursor), Err(ProtocolError::TooLarge(_))));
    }

    #[test]
    fn eof_mid_frame_is_an_io_error() {
        let mut wire = Vec::new();
        encode(&Frame::Stats, &mut wire);
        wire.pop();
        let mut cursor = std::io::Cursor::new(&wire);
        assert!(matches!(read_frame(&mut cursor), Err(ProtocolError::Io(_))));
    }

    #[test]
    fn matrix_shape_overflow_is_rejected() {
        let mut payload = vec![0x81];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.push(1);
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&payload), Err(ProtocolError::Malformed(_))));
    }
}
