//! A minimal HTTP/1.1 keep-alive client. The load generator speaks the
//! wire protocol itself rather than through the program's own client,
//! so a change to that client cannot move the measurement.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest response body accepted.
const MAX_BODY: usize = 64 << 20;

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream.try_clone()?),
            writer: stream,
            out: Vec::with_capacity(4096),
        })
    }

    /// `POST path` with a JSON body; returns `(status, body)`.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<(u16, String)> {
        self.out.clear();
        write!(
            self.out,
            "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )?;
        self.out.extend_from_slice(body.as_bytes());
        self.writer.write_all(&self.out)?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<(u16, String)> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before the status line"));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed mid-headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = Some(
                        value
                            .trim()
                            .parse()
                            .map_err(|_| bad("bad content-length"))?,
                    );
                }
            }
        }
        let length = length.ok_or_else(|| bad("no content-length"))?;
        if length > MAX_BODY {
            return Err(bad("response body over 64 MiB"));
        }
        let mut buf = vec![0u8; length];
        self.reader.read_exact(&mut buf)?;
        String::from_utf8(buf)
            .map(|body| (status, body))
            .map_err(|_| bad("non-UTF-8 body"))
    }
}
