//! The benchmark's client connection: raw frames over one socket.
//!
//! Built on the public `pc_serve::wire` functions rather than
//! `pc_serve::Client` so that one thread can both send on a schedule and
//! collect pipelined responses without blocking past the next due time,
//! and so the traced run can time request encoding and response decoding
//! as stages of their own.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use pc_serve::wire::{decode_response, request_frame, FrameProgress, FrameReader, MAX_FRAME};
use pc_serve::{Op, Request, Response};

/// How long a blocking receive waits before the run fails: a stuck server
/// fails the run instead of hanging it.
const STALL: Duration = Duration::from_secs(20);
/// Shortest read timeout handed to the socket while polling.
const MIN_POLL: Duration = Duration::from_micros(50);

pub struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    next_id: u64,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(STALL))?;
        Ok(Conn {
            stream,
            reader: FrameReader::new(MAX_FRAME),
            next_id: 0,
        })
    }

    /// The next request with a fresh id.
    pub fn request(&mut self, target: u16, op: Op) -> Request {
        self.next_id += 1;
        Request {
            id: self.next_id,
            target,
            deadline_ms: 0,
            flags: 0,
            as_of: 0,
            op,
        }
    }

    /// Writes one encoded frame (length prefix included).
    pub fn send_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        (&self.stream).write_all(frame)
    }

    /// Encodes and sends `op`, returning its request id.
    pub fn send(&mut self, target: u16, op: Op) -> io::Result<u64> {
        let req = self.request(target, op);
        self.send_frame(&request_frame(&req))?;
        Ok(req.id)
    }

    /// Waits for the next response payload until `until` (`None`: until one
    /// arrives, failing after a long stall). `Ok(None)` means `until`
    /// passed first.
    pub fn recv_payload(&mut self, until: Option<Instant>) -> io::Result<Option<Vec<u8>>> {
        let stall = Instant::now() + STALL;
        loop {
            let now = Instant::now();
            let limit = until.unwrap_or(stall).min(stall);
            if now >= limit {
                if until.is_some_and(|u| u <= stall) {
                    return Ok(None);
                }
                return Err(io::Error::new(io::ErrorKind::TimedOut, "server stalled"));
            }
            self.stream
                .set_read_timeout(Some((limit - now).max(MIN_POLL)))?;
            match self.reader.poll(&mut &self.stream)? {
                FrameProgress::Frame(payload) => return Ok(Some(payload)),
                FrameProgress::Pending => {}
                FrameProgress::Eof => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed",
                    ))
                }
            }
        }
    }

    /// Receives and decodes the next response.
    pub fn recv(&mut self, until: Option<Instant>) -> io::Result<Option<Response>> {
        match self.recv_payload(until)? {
            None => Ok(None),
            Some(p) => decode_response(&p)
                .map(Some)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
    }

    /// One request, one response.
    pub fn call(&mut self, target: u16, op: Op) -> io::Result<Response> {
        let id = self.send(target, op)?;
        let resp = self
            .recv(None)?
            .expect("a blocking receive returns a response or an error");
        if resp.id != id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response id {} for request {id}", resp.id),
            ));
        }
        Ok(resp)
    }
}
