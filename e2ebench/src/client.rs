//! A minimal HTTP/1.1 keep-alive client: writes pre-rendered request
//! bytes and reads one response in full, honouring `Content-Length` and
//! chunked framing. The raw body — chunk framing included — is appended
//! to a caller buffer so framing can be checked after timing.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
    len: usize,
}

/// How a response body was framed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    Length,
    Chunked,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A stalled server fails the request instead of hanging the run;
        // the server's own deadline (30 s) answers a slow request first.
        stream.set_read_timeout(Some(std::time::Duration::from_secs(60)))?;
        Ok(Self { stream, buf: vec![0; 64 * 1024], pos: 0, len: 0 })
    }

    /// Reads more bytes from the socket; EOF is an error mid-response.
    fn fill(&mut self) -> io::Result<()> {
        if self.pos == self.len {
            self.pos = 0;
            self.len = 0;
        } else if self.len == self.buf.len() {
            if self.pos > 0 {
                self.buf.copy_within(self.pos..self.len, 0);
                self.len -= self.pos;
                self.pos = 0;
            } else {
                self.buf.resize(self.buf.len() * 2, 0);
            }
        }
        let n = self.stream.read(&mut self.buf[self.len..])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.len += n;
        Ok(())
    }

    /// Consumes through the next CRLF and returns the line without it.
    fn line(&mut self) -> io::Result<(usize, usize)> {
        loop {
            if let Some(i) = find(&self.buf[self.pos..self.len], b"\r\n") {
                let start = self.pos;
                self.pos += i + 2;
                return Ok((start, start + i));
            }
            self.fill()?;
        }
    }

    fn need(&mut self, n: usize) -> io::Result<()> {
        while self.len - self.pos < n {
            self.fill()?;
        }
        Ok(())
    }

    /// Writes `request` and reads its response; the body bytes as framed
    /// on the wire are appended to `body`. Returns the status and framing.
    pub fn exchange(&mut self, request: &[u8], body: &mut Vec<u8>) -> io::Result<(u16, Framing)> {
        self.send(request)?;
        self.read_response(body)
    }

    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.stream.write_all(request)
    }

    pub fn read_response(&mut self, body: &mut Vec<u8>) -> io::Result<(u16, Framing)> {
        let (s, e) = self.line()?;
        let status_line =
            std::str::from_utf8(&self.buf[s..e]).map_err(|_| bad("status line not UTF-8"))?;
        let status: u16 = status_line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|r| r.get(..3))
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
        let mut length = None;
        let mut chunked = false;
        loop {
            let (s, e) = self.line()?;
            if s == e {
                break;
            }
            let h = std::str::from_utf8(&self.buf[s..e]).map_err(|_| bad("header not UTF-8"))?;
            let (name, value) =
                h.split_once(':').ok_or_else(|| bad(format!("bad header {h:?}")))?;
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(value.parse::<usize>().map_err(|_| bad("bad Content-Length"))?);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            }
        }
        match (length, chunked) {
            (Some(n), false) => {
                self.need(n)?;
                body.extend_from_slice(&self.buf[self.pos..self.pos + n]);
                self.pos += n;
                Ok((status, Framing::Length))
            }
            (None, true) => loop {
                let (s, e) = self.line()?;
                let size_text = std::str::from_utf8(&self.buf[s..e])
                    .map_err(|_| bad("chunk size not UTF-8"))?;
                let size =
                    usize::from_str_radix(size_text.split(';').next().unwrap_or("").trim(), 16)
                        .map_err(|_| bad(format!("bad chunk size {size_text:?}")))?;
                body.extend_from_slice(&self.buf[s..e + 2]);
                self.need(size + 2)?;
                if &self.buf[self.pos + size..self.pos + size + 2] != b"\r\n" {
                    return Err(bad("chunk not terminated by CRLF"));
                }
                body.extend_from_slice(&self.buf[self.pos..self.pos + size + 2]);
                self.pos += size + 2;
                if size == 0 {
                    return Ok((status, Framing::Chunked));
                }
            },
            _ => Err(bad("response is neither Content-Length nor chunked")),
        }
    }
}

/// De-chunks a chunked body as framed on the wire; fails on any framing
/// error, an empty data chunk before the end, or trailing bytes.
pub fn dechunk(raw: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::with_capacity(raw.len());
    let mut pos = 0;
    loop {
        let i = find(&raw[pos..], b"\r\n").ok_or("chunk size line unterminated")?;
        let text = std::str::from_utf8(&raw[pos..pos + i]).map_err(|_| "chunk size not UTF-8")?;
        let size =
            usize::from_str_radix(text, 16).map_err(|_| format!("bad chunk size {text:?}"))?;
        pos += i + 2;
        if raw.len() < pos + size + 2 || &raw[pos + size..pos + size + 2] != b"\r\n" {
            return Err("chunk data truncated".into());
        }
        out.extend_from_slice(&raw[pos..pos + size]);
        pos += size + 2;
        if size == 0 {
            return if pos == raw.len() {
                Ok(out)
            } else {
                Err("bytes after the last chunk".into())
            };
        }
    }
}

/// One request on a fresh `Connection: close` socket; returns status
/// and the (de-chunked) body. Used for healthz and metrics scrapes.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, Vec<u8>)> {
    let mut c = Conn::connect(addr)?;
    let req = format!("GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n");
    let mut raw = Vec::new();
    let (status, framing) = c.exchange(req.as_bytes(), &mut raw)?;
    let body = match framing {
        Framing::Length => raw,
        Framing::Chunked => dechunk(&raw).map_err(bad)?,
    };
    Ok((status, body))
}
