//! A timed wire session: the client half of `so_serve::ServiceClient`,
//! opened up so each request splits into encode, wait and decode.
//!
//! Framing (4-byte big-endian length, then JSON) is written here rather
//! than through `so_serve::proto::{write_frame, read_frame}` because those
//! fuse rendering into the write and parsing into the read; the split is
//! the measurement.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use so_serve::json::{self, Json};
use so_serve::proto::{attach_request_id, DEFAULT_MAX_FRAME};
use so_serve::{Request, Response};

/// Where one request's client-side time went.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Encode start: `Request::to_json` begins.
    pub start: Instant,
    /// `Request::to_json` + request id + `Json::render` + length prefix.
    pub encode: Duration,
    /// Frame written until the response frame is fully read.
    pub wait: Duration,
    /// UTF-8 check + `json::parse` + `Response::from_json`.
    pub decode: Duration,
}

impl Timing {
    /// Encode start to decoded response: what a caller of the client waits.
    pub fn latency(&self) -> Duration {
        self.encode + self.wait + self.decode
    }
}

/// One completed exchange.
#[derive(Debug)]
pub struct Exchange {
    /// The decoded response.
    pub response: Response,
    /// Client-side timing.
    pub timing: Timing,
    /// The request frame as sent (length prefix included).
    pub request_frame: Vec<u8>,
    /// Response payload bytes (without the length prefix).
    pub response_payload: Vec<u8>,
}

impl Exchange {
    /// The request payload (the frame without its length prefix).
    pub fn request_payload(&self) -> &[u8] {
        &self.request_frame[4..]
    }
}

/// A framed session over one connection.
pub struct Session {
    stream: TcpStream,
}

/// Renders a request frame: `request` tagged with `request_id`, rendered,
/// and length-prefixed.
pub fn encode(request: &Request, request_id: &str) -> Vec<u8> {
    let payload = attach_request_id(request.to_json(), request_id).render();
    let bytes = payload.as_bytes();
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    frame
}

/// Parses a response payload the way the client does.
pub fn decode(payload: &[u8]) -> Result<Response, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("response not UTF-8: {e}"))?;
    let value: Json = json::parse(text).map_err(|e| format!("response not JSON: {e}"))?;
    Response::from_json(&value).map_err(|e| format!("response shape: {e}"))
}

impl Session {
    /// Connects with Nagle off, as `ServiceClient` does.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Session> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Session { stream })
    }

    /// Sends one request and reads its response, timing each step.
    pub fn call(&mut self, request: &Request, request_id: &str) -> Result<Exchange, String> {
        let start = Instant::now();
        let frame = encode(request, request_id);
        let encoded = Instant::now();
        self.stream
            .write_all(&frame)
            .map_err(|e| format!("write: {e}"))?;
        let mut len = [0u8; 4];
        self.stream
            .read_exact(&mut len)
            .map_err(|e| format!("read length: {e}"))?;
        let declared = u32::from_be_bytes(len) as usize;
        if declared > DEFAULT_MAX_FRAME {
            return Err(format!(
                "response frame of {declared} bytes exceeds the cap"
            ));
        }
        let mut payload = vec![0u8; declared];
        self.stream
            .read_exact(&mut payload)
            .map_err(|e| format!("read payload: {e}"))?;
        let read = Instant::now();
        let response = decode(&payload)?;
        let decoded = Instant::now();
        Ok(Exchange {
            response,
            timing: Timing {
                start,
                encode: encoded - start,
                wait: read - encoded,
                decode: decoded - read,
            },
            request_frame: frame,
            response_payload: payload,
        })
    }
}
