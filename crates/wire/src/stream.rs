//! Deadline-carrying framed socket IO.
//!
//! [`FramedStream`] is the **only** place in the workspace that reads or
//! writes a raw socket: every operation re-arms the OS-level
//! `set_read_timeout` / `set_write_timeout` deadline in the same
//! function that performs the IO, which is exactly what the `blocking-io`
//! audit rule checks for. A peer that stalls mid-frame surfaces as an
//! `Err(WouldBlock | TimedOut)` within one deadline — never a hang — and
//! the caller (the supervisor or the worker loop) decides whether that
//! means retry, restart, or degrade.
//!
//! The stream also keeps the measured byte/frame counters the bench
//! layer reports next to the paper's modeled network column.

use crate::frame::{
    decode_header, decode_frame, encode_frame, Message, DEFAULT_MAX_FRAME_BYTES,
    FRAME_HEADER_BYTES,
};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Measured IO counters of one [`FramedStream`] (or, summed by the
/// supervisor, of a whole cluster).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireMetrics {
    /// Bytes written to the socket (headers included).
    pub bytes_sent: u64,
    /// Bytes read from the socket (headers included).
    pub bytes_received: u64,
    /// Frames written.
    pub frames_sent: u64,
    /// Frames read.
    pub frames_received: u64,
}

impl WireMetrics {
    /// Accumulate another counter set into this one.
    pub fn absorb(&mut self, other: &WireMetrics) {
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.frames_sent += other.frames_sent;
        self.frames_received += other.frames_received;
    }
}

/// One frame-oriented connection over a `TcpStream`.
pub struct FramedStream {
    stream: TcpStream,
    deadline: Duration,
    max_frame_bytes: u64,
    metrics: WireMetrics,
}

impl FramedStream {
    /// Wrap `stream`; every subsequent read and write carries `deadline`.
    pub fn new(stream: TcpStream, deadline: Duration) -> Self {
        Self {
            stream,
            // A zero Duration means "no timeout" to the OS — the one
            // value that could reintroduce an unbounded block — so it is
            // clamped to a real deadline instead.
            deadline: deadline.max(Duration::from_millis(1)),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            metrics: WireMetrics::default(),
        }
    }

    /// Replace the per-operation IO deadline.
    pub fn set_deadline(&mut self, deadline: Duration) {
        self.deadline = deadline.max(Duration::from_millis(1));
    }

    /// Replace the per-frame byte budget.
    pub fn set_max_frame_bytes(&mut self, budget: u64) {
        self.max_frame_bytes = budget;
    }

    /// Measured IO counters so far.
    pub fn metrics(&self) -> &WireMetrics {
        &self.metrics
    }

    /// Encode and write one frame under the write deadline, returning its
    /// on-wire size.
    ///
    /// # Errors
    /// Encoding failures surface as `InvalidData`; a peer that stops
    /// draining surfaces as the OS timeout error within one deadline.
    pub fn send(&mut self, msg: &Message) -> io::Result<u64> {
        self.send_frame(&encode_frame(msg)?)
    }

    /// Write one frame already produced by [`encode_frame`] under the
    /// write deadline, returning its on-wire size — so a broadcast
    /// encodes once for every peer.
    ///
    /// # Errors
    /// The OS timeout error when the peer stops draining.
    pub fn send_frame(&mut self, frame: &[u8]) -> io::Result<u64> {
        self.stream.set_write_timeout(Some(self.deadline))?;
        self.stream.write_all(frame)?;
        self.metrics.bytes_sent += frame.len() as u64;
        self.metrics.frames_sent += 1;
        Ok(frame.len() as u64)
    }

    /// Write raw bytes under the write deadline, bypassing the frame
    /// encoder. Fault-injection support: chaos workers use it to put
    /// deliberately malformed frames on the wire so corruption tests can
    /// exercise the coordinator's decode path end to end.
    ///
    /// # Errors
    /// The OS timeout error when the peer stops draining.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.set_write_timeout(Some(self.deadline))?;
        self.stream.write_all(bytes)?;
        self.metrics.bytes_sent += bytes.len() as u64;
        Ok(())
    }

    /// Read one frame under the read deadline and decode it with
    /// `node_bound` capping every id. Returns the message and its
    /// on-wire size.
    ///
    /// # Errors
    /// `UnexpectedEof` when the peer closed; the OS timeout error when it
    /// stalled; `InvalidData` for any malformed frame (bad magic, lying
    /// length, CRC mismatch, out-of-bounds ids, trailing bytes).
    pub fn recv(&mut self, node_bound: u64) -> io::Result<(Message, u64)> {
        self.stream.set_read_timeout(Some(self.deadline))?;
        let mut header = [0u8; FRAME_HEADER_BYTES as usize];
        self.stream.read_exact(&mut header)?;
        // Validate before allocating: a lying length field dies here.
        let h = decode_header(&header, self.max_frame_bytes)?;
        let mut frame = Vec::with_capacity(header.len() + h.payload_len as usize);
        frame.extend_from_slice(&header);
        frame.resize(header.len() + h.payload_len as usize, 0);
        self.stream.read_exact(&mut frame[header.len()..])?;
        let msg = decode_frame(&frame, node_bound, self.max_frame_bytes)?;
        self.metrics.bytes_received += frame.len() as u64;
        self.metrics.frames_received += 1;
        Ok((msg, frame.len() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (FramedStream, FramedStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (
            FramedStream::new(a, Duration::from_secs(5)),
            FramedStream::new(b, Duration::from_secs(5)),
        )
    }

    #[test]
    fn frames_cross_a_real_socket() {
        let (mut a, mut b) = pair();
        let sent = a.send(&Message::Ping { seq: 7 }).expect("send");
        let (msg, received) = b.recv(1).expect("recv");
        assert_eq!(msg, Message::Ping { seq: 7 });
        assert_eq!(sent, received);
        assert_eq!(a.metrics().bytes_sent, b.metrics().bytes_received);
        assert_eq!(a.metrics().frames_sent, 1);
    }

    #[test]
    fn a_stalled_peer_times_out_instead_of_hanging() {
        let (mut a, _b) = pair();
        a.set_deadline(Duration::from_millis(30));
        let err = a.recv(1).expect_err("nothing was sent");
        assert!(
            matches!(err.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut),
            "unexpected error kind: {err:?}"
        );
    }

    #[test]
    fn a_closed_peer_is_eof_not_a_hang() {
        let (mut a, b) = pair();
        drop(b);
        let err = a.recv(1).expect_err("peer closed");
        // Linux reports a closed peer as EOF (or a reset, depending on
        // timing); both are hard errors the supervisor treats as a crash.
        assert!(err.kind() != io::ErrorKind::WouldBlock, "{err:?}");
    }

    #[test]
    fn garbage_on_the_wire_is_invalid_data() {
        let (mut a, mut b) = pair();
        // Hand-written garbage with a valid length so the read completes.
        a.send(&Message::Ping { seq: 1 }).expect("send");
        let (_, _) = b.recv(1).expect("good frame first");
        {
            use std::io::Write as _;
            let inner = &mut a.stream;
            inner.set_write_timeout(Some(Duration::from_secs(1))).unwrap();
            inner.write_all(b"XXXXYYYYZZZZQ").unwrap();
        }
        let err = b.recv(1).expect_err("bad magic");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
