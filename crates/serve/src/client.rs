//! The client side: a blocking request/response [`Client`] over one TCP
//! connection, lock-step through [`Client::infer`] or pipelined through
//! [`Client::send_infer`] and [`Client::recv`].

use crate::protocol::{
    read_frame, write_frame, ErrorCode, Frame, ProtocolError, ServerStats, PROTOCOL_VERSION,
};
use mesorasi_networks::{Boxes3D, Domain, Inference, Logits, PerPointLabels};
use mesorasi_pointcloud::PointCloud;
use mesorasi_tensor::Matrix;
use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Wire-level failure (socket or framing).
    Protocol(ProtocolError),
    /// The server speaks a different protocol version.
    VersionMismatch {
        /// Version announced by the server.
        server: u16,
        /// Version this build speaks ([`PROTOCOL_VERSION`]).
        client: u16,
    },
    /// The server sent a frame that makes no sense here.
    UnexpectedFrame(&'static str),
    /// A cloud to be sent exceeds the point limit the server announced in
    /// its hello, so the request would be refused as malformed and the
    /// connection closed; the client checks before sending instead.
    FrameTooLarge {
        /// Points in the cloud.
        points: usize,
        /// The server's announced per-request limit.
        max_points: u32,
    },
    /// The server answered a request with a typed error.
    Rejected {
        /// The request's correlation id.
        id: u64,
        /// Why it was rejected.
        code: ErrorCode,
        /// Server-provided detail.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::VersionMismatch { server, client } => {
                write!(f, "server speaks protocol v{server}, this client v{client}")
            }
            ClientError::UnexpectedFrame(what) => write!(f, "unexpected frame: {what}"),
            ClientError::FrameTooLarge { points, max_points } => {
                write!(f, "cloud has {points} points, over the server's limit of {max_points}")
            }
            ClientError::Rejected { id, code, message } => {
                write!(f, "request {id} rejected ({code}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> ClientError {
        ClientError::Protocol(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Protocol(ProtocolError::Io(e))
    }
}

/// One server response to an inference request.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request succeeded.
    Result {
        /// Echoed correlation id.
        id: u64,
        /// The rebuilt, domain-typed result.
        inference: Inference,
    },
    /// The request failed with a typed error (e.g. shed under load).
    Error {
        /// Echoed correlation id (0 if unattributable).
        id: u64,
        /// Why it failed.
        code: ErrorCode,
        /// Server-provided detail.
        message: String,
    },
}

/// A blocking protocol client over one TCP connection.
///
/// [`Client::infer`] is the simple lock-step path; for pipelined traffic
/// send with [`Client::send_infer`] and collect with [`Client::recv`] —
/// the server replies in dispatch order, not necessarily send order.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    domain: Domain,
    input_points: u32,
    max_points: u32,
}

impl Client {
    /// Connects, reads the server's [`Frame::Hello`], and verifies the
    /// protocol version.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(ProtocolError::Io)?;
        let _ = stream.set_nodelay(true);
        let writer = BufWriter::new(stream.try_clone().map_err(ProtocolError::Io)?);
        let mut reader = BufReader::new(stream);
        match read_frame(&mut reader)? {
            Frame::Hello { version, domain, input_points, max_points } => {
                if version != PROTOCOL_VERSION {
                    return Err(ClientError::VersionMismatch {
                        server: version,
                        client: PROTOCOL_VERSION,
                    });
                }
                Ok(Client { reader, writer, domain, input_points, max_points })
            }
            _ => Err(ClientError::UnexpectedFrame("server did not greet with a hello")),
        }
    }

    /// Task domain of the served network (decides the [`Inference`]
    /// variant results are rebuilt into).
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The served network's native input size; the server compiles a plan
    /// for each other size on its first use.
    pub fn input_points(&self) -> u32 {
        self.input_points
    }

    /// The server's hard per-request point limit, announced in its hello.
    /// [`Client::send_infer`] refuses larger clouds before sending them.
    pub fn max_points(&self) -> u32 {
        self.max_points
    }

    /// Sends one inference request without waiting for the response.
    ///
    /// A cloud over the server's [`max_points`](Client::max_points) is
    /// refused with [`ClientError::FrameTooLarge`] before any byte is
    /// written: the server would answer it as malformed and close the
    /// connection.
    pub fn send_infer(&mut self, id: u64, cloud: &PointCloud) -> Result<(), ClientError> {
        if cloud.len() as u64 > u64::from(self.max_points) {
            return Err(ClientError::FrameTooLarge {
                points: cloud.len(),
                max_points: self.max_points,
            });
        }
        write_frame(&mut self.writer, &Frame::Infer { id, cloud: cloud.clone() })?;
        use std::io::Write;
        self.writer.flush()?;
        Ok(())
    }

    /// Receives the next inference response (result or typed error).
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        match read_frame(&mut self.reader)? {
            Frame::Result { id, mats } => {
                let inference = rebuild_inference(self.domain, mats)?;
                Ok(Response::Result { id, inference })
            }
            Frame::Error { id, code, message } => Ok(Response::Error { id, code, message }),
            Frame::StatsResult(_) => {
                Err(ClientError::UnexpectedFrame("stats reply amid inference"))
            }
            _ => Err(ClientError::UnexpectedFrame("non-response frame")),
        }
    }

    /// Lock-step inference: send, wait for this request's response, and
    /// surface a server-side rejection as [`ClientError::Rejected`].
    pub fn infer(&mut self, id: u64, cloud: &PointCloud) -> Result<Inference, ClientError> {
        self.send_infer(id, cloud)?;
        match self.recv()? {
            Response::Result { id: got, inference } => {
                if got != id {
                    return Err(ClientError::UnexpectedFrame("response id mismatch"));
                }
                Ok(inference)
            }
            Response::Error { id, code, message } => {
                Err(ClientError::Rejected { id, code, message })
            }
        }
    }

    /// Fetches the server counters.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        write_frame(&mut self.writer, &Frame::Stats)?;
        use std::io::Write;
        self.writer.flush()?;
        match read_frame(&mut self.reader)? {
            Frame::StatsResult(stats) => Ok(stats),
            _ => Err(ClientError::UnexpectedFrame("expected a stats reply")),
        }
    }
}

/// Rebuilds the domain-typed result from transported matrices, validating
/// the matrix count against the domain's layout.
fn rebuild_inference(domain: Domain, mats: Vec<Matrix>) -> Result<Inference, ClientError> {
    let mut mats = mats.into_iter();
    let inference = match domain {
        Domain::Classification => {
            let scores = mats.next().ok_or(ClientError::UnexpectedFrame("empty result"))?;
            Inference::Classification(Logits::new(scores))
        }
        Domain::Segmentation => {
            let logits = mats.next().ok_or(ClientError::UnexpectedFrame("empty result"))?;
            Inference::Segmentation(PerPointLabels::new(logits))
        }
        Domain::Detection => {
            let seg = mats.next().ok_or(ClientError::UnexpectedFrame("empty result"))?;
            let params = mats
                .next()
                .ok_or(ClientError::UnexpectedFrame("detection result needs 2 matrices"))?;
            Inference::Detection(Boxes3D::new(seg, params))
        }
    };
    if mats.next().is_some() {
        return Err(ClientError::UnexpectedFrame("extra matrices in result"));
    }
    Ok(inference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};

    #[test]
    fn send_infer_refuses_oversized_clouds_before_sending() {
        use crate::protocol::{write_frame, Frame};
        use std::io::Write;
        // A fake server announcing a tiny point limit: the client must
        // refuse the oversized cloud without sending a single byte.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let fake = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let hello = Frame::Hello {
                version: PROTOCOL_VERSION,
                domain: Domain::Classification,
                input_points: 64,
                max_points: 16,
            };
            write_frame(&mut stream, &hello).expect("write hello");
            stream.flush().expect("flush");
            // Were the client to send anyway, this read would see bytes;
            // EOF proves it hung up without transmitting a request.
            let mut rest = Vec::new();
            std::io::Read::read_to_end(&mut stream, &mut rest).expect("read");
            rest
        });
        let mut client = Client::connect(addr).expect("connect");
        let cloud = sample_shape(ShapeClass::Chair, 32, 2); // over the limit of 16
        match client.send_infer(0, &cloud) {
            Err(ClientError::FrameTooLarge { points, max_points }) => {
                assert_eq!(points, 32);
                assert_eq!(max_points, 16);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        drop(client);
        let leaked = fake.join().expect("fake server");
        assert!(leaked.is_empty(), "the client sent bytes despite the oversized cloud");
    }

    #[test]
    fn version_mismatch_is_refused() {
        use crate::protocol::{write_frame, Frame};
        use std::io::Write;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let fake = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let hello = Frame::Hello {
                version: PROTOCOL_VERSION + 1,
                domain: Domain::Classification,
                input_points: 64,
                max_points: 1024,
            };
            write_frame(&mut stream, &hello).expect("write hello");
            stream.flush().expect("flush");
        });
        match Client::connect(addr) {
            Err(ClientError::VersionMismatch { server, client }) => {
                assert_eq!(server, PROTOCOL_VERSION + 1);
                assert_eq!(client, PROTOCOL_VERSION);
            }
            Err(other) => panic!("expected a version mismatch, got {other:?}"),
            Ok(_) => panic!("connect accepted a mismatched version"),
        }
        fake.join().expect("fake server");
    }
}
