//! A control-plane answer read that the observer can drive without
//! blocking: connect and send the request, then poll the socket between
//! counter polls until the server closes it (`Connection: close`).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One in-flight `GET`.
pub struct HttpRead {
    stream: TcpStream,
    buf: Vec<u8>,
    started: Instant,
}

/// A finished read: HTTP status (0 when the response was malformed or
/// the connection failed), round-trip time, response size.
pub struct ReadDone {
    pub status: u16,
    pub rtt: Duration,
    pub bytes: usize,
}

impl HttpRead {
    /// Connect and send `GET path`; the response is collected by
    /// [`step`](Self::step) or [`finish`](Self::finish).
    pub fn start(addr: SocketAddr, path: &str) -> io::Result<HttpRead> {
        let started = Instant::now();
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
        )?;
        stream.set_nonblocking(true)?;
        Ok(HttpRead {
            stream,
            buf: Vec::with_capacity(1 << 16),
            started,
        })
    }

    /// Read whatever has arrived; `Some` once the server has closed.
    pub fn step(&mut self) -> Option<ReadDone> {
        let mut chunk = [0u8; 1 << 16];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Some(self.done()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return None,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.buf.clear();
                    return Some(self.done());
                }
            }
        }
    }

    /// Block until the response is complete.
    pub fn finish(mut self) -> ReadDone {
        if self.stream.set_nonblocking(false).is_err() {
            self.buf.clear();
            return self.done();
        }
        let mut rest = Vec::new();
        match self.stream.read_to_end(&mut rest) {
            Ok(_) => self.buf.extend_from_slice(&rest),
            Err(_) => self.buf.clear(),
        }
        self.done()
    }

    fn done(&self) -> ReadDone {
        let rtt = self.started.elapsed();
        let status = std::str::from_utf8(&self.buf[..self.buf.len().min(32)])
            .ok()
            .and_then(|head| head.split_whitespace().nth(1))
            .and_then(|code| code.parse().ok())
            .unwrap_or(0);
        ReadDone {
            status,
            rtt,
            bytes: self.buf.len(),
        }
    }
}

/// One blocking read.
pub fn get(addr: SocketAddr, path: &str) -> ReadDone {
    match HttpRead::start(addr, path) {
        Ok(read) => read.finish(),
        Err(_) => ReadDone {
            status: 0,
            rtt: Duration::ZERO,
            bytes: 0,
        },
    }
}
