//! The pipelined wire client.
//!
//! [`NetClient`] is single-threaded and synchronous: it keeps up to
//! `window` requests in flight, and whenever the window is full the
//! submit path *pumps* the socket — reading whatever responses the
//! server has ready (in completion order, which is not submission
//! order) before sending more. The server answers every request frame
//! with exactly one response frame, so the in-flight accounting closes
//! without a background reader thread, and a client is cheap enough to
//! run dozens of in one load-harness process.

use std::collections::VecDeque;
use std::net::{TcpStream, ToSocketAddrs};

use crate::server::NetError;
use crate::wire::{read_frame, write_frame, Frame, WireRequest, WireResponse, VERSION};

/// A pipelined connection to a [`crate::NetServer`].
pub struct NetClient {
    stream: TcpStream,
    window: usize,
    inflight: usize,
    ready: VecDeque<WireResponse>,
    stats: Option<String>,
    bytes_out: u64,
    bytes_in: u64,
}

impl NetClient {
    /// Connects, performs the `Hello`/`HelloAck` handshake, and returns a
    /// client that keeps at most `window` requests in flight.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] on connect failure, [`NetError::Wire`] on a
    /// malformed handshake, [`NetError::Protocol`] when the server
    /// answers with anything but a `HelloAck`.
    pub fn connect(addr: impl ToSocketAddrs, window: usize) -> Result<Self, NetError> {
        if window == 0 {
            return Err(NetError::Config("window must be at least 1".into()));
        }
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut bytes_out = 0u64;
        bytes_out += write_frame(&mut stream, &Frame::Hello { version: VERSION })? as u64;
        let (frame, n) = read_frame(&mut stream)?
            .ok_or_else(|| NetError::Protocol("server closed during handshake".into()))?;
        if !matches!(frame, Frame::HelloAck { .. }) {
            return Err(NetError::Protocol(format!(
                "expected hello_ack, got {}",
                frame.kind_name()
            )));
        }
        Ok(Self {
            stream,
            window,
            inflight: 0,
            ready: VecDeque::new(),
            stats: None,
            bytes_out,
            bytes_in: n as u64,
        })
    }

    /// Responses read off the wire but not yet taken with
    /// [`NetClient::recv`].
    pub fn ready(&self) -> usize {
        self.ready.len()
    }

    /// Total bytes this client put on the wire.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out
    }

    /// Total bytes this client read off the wire.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in
    }

    /// Sends one request, first pumping the socket until the in-flight
    /// window has room. Responses surface later via [`NetClient::recv`].
    ///
    /// # Errors
    ///
    /// Any [`NetError`] from the underlying socket or frame codec.
    pub fn submit(&mut self, req: WireRequest) -> Result<(), NetError> {
        while self.inflight >= self.window {
            self.pump()?;
        }
        self.send(&Frame::Request(req))?;
        self.inflight += 1;
        Ok(())
    }

    /// Takes the next response (pumping the socket as needed). Responses
    /// arrive in the server's completion order, matched to requests by
    /// tag.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] when nothing is buffered and nothing is in
    /// flight (the server owes no frame, so waiting would never end);
    /// otherwise any [`NetError`] from the underlying socket or frame codec.
    pub fn recv(&mut self) -> Result<WireResponse, NetError> {
        while self.ready.is_empty() {
            if self.inflight == 0 {
                return Err(NetError::Protocol("recv with no request in flight".into()));
            }
            self.pump()?;
        }
        Ok(self.ready.pop_front().expect("loop ensures non-empty"))
    }

    /// Waits for every in-flight request and returns all buffered
    /// responses.
    ///
    /// # Errors
    ///
    /// Any [`NetError`] from the underlying socket or frame codec.
    pub fn drain(&mut self) -> Result<Vec<WireResponse>, NetError> {
        while self.inflight > 0 {
            self.pump()?;
        }
        Ok(self.ready.drain(..).collect())
    }

    /// Fetches the server's stats JSON (`{"net":{...},"service":{...}}`),
    /// the one read path for shard health (`service.per_shard[i].health`).
    /// Pipelined data responses arriving in between are buffered for
    /// [`NetClient::recv`].
    ///
    /// # Errors
    ///
    /// Any [`NetError`] from the underlying socket or frame codec.
    pub fn stats_json(&mut self) -> Result<String, NetError> {
        self.send(&Frame::StatsReq)?;
        loop {
            if let Some(json) = self.stats.take() {
                return Ok(json);
            }
            self.pump()?;
        }
    }

    /// Asks the server to begin a graceful drain. The server answers
    /// in-flight requests before closing, so callers should
    /// [`NetClient::drain`] first.
    ///
    /// # Errors
    ///
    /// Any [`NetError`] from the underlying socket.
    pub fn shutdown_server(&mut self) -> Result<(), NetError> {
        self.send(&Frame::Shutdown)
    }

    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        let n = write_frame(&mut self.stream, frame)?;
        self.bytes_out += n as u64;
        Ok(())
    }

    /// Reads one frame and files it: data responses close in-flight
    /// accounting, control replies fill their one-deep slots.
    fn pump(&mut self) -> Result<(), NetError> {
        let (frame, n) = read_frame(&mut self.stream)?
            .ok_or_else(|| NetError::Protocol("server closed the connection".into()))?;
        self.bytes_in += n as u64;
        match frame {
            Frame::Response(r) => {
                self.inflight = self.inflight.saturating_sub(1);
                self.ready.push_back(r);
            }
            Frame::StatsResp { json } => self.stats = Some(json),
            other => {
                return Err(NetError::Protocol(format!(
                    "unexpected {} frame after handshake",
                    other.kind_name()
                )))
            }
        }
        Ok(())
    }
}
