//! A minimal blocking client for the line protocol, shared by the
//! `loadgen` harness, the integration tests, and the CI smoke check.

use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;

use crate::conn::{read_line_bounded, Conn, LineRead};

/// Generous client-side response-line budget (responses carrying a full
/// metrics document run a few KiB; compare responses a few more).
const MAX_RESPONSE_BYTES: usize = 16 << 20;

/// A blocking connection to a running daemon.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<Conn>,
    writer: Conn,
}

impl Client {
    /// Connect to a Unix-domain socket.
    ///
    /// # Errors
    ///
    /// Propagates the connection failure.
    pub fn connect_unix(path: impl AsRef<Path>) -> io::Result<Client> {
        Client::new(Conn::Unix(UnixStream::connect(path)?))
    }

    /// Connect to a TCP endpoint (e.g. `"127.0.0.1:7878"`).
    ///
    /// # Errors
    ///
    /// Propagates the connection failure.
    pub fn connect_tcp(addr: &str) -> io::Result<Client> {
        Client::new(Conn::Tcp(TcpStream::connect(addr)?))
    }

    fn new(conn: Conn) -> io::Result<Client> {
        let writer = conn.try_clone()?;
        Ok(Client {
            reader: BufReader::new(conn),
            writer,
        })
    }

    /// Send one request line and read the matching response line.
    ///
    /// `line` must be a single line (no embedded newline — embedding one
    /// would desynchronize the request/response pairing, so it is
    /// rejected here).
    ///
    /// # Errors
    ///
    /// Fails on transport errors, on a closed connection, or on an
    /// embedded newline in `line`.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }

    /// Send one request line without reading a response. Streaming ops
    /// (`watch`) answer with *many* lines; pair this with repeated
    /// [`Client::recv`] calls to consume them.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an embedded newline in `line`.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        if line.contains('\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "request must be a single line",
            ));
        }
        // One write per line, so the daemon never reads a line that
        // still lacks its newline.
        let mut message = String::with_capacity(line.len() + 1);
        message.push_str(line);
        message.push('\n');
        self.writer.write_all(message.as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    /// Read the next response line from the daemon.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, a closed connection, or a malformed
    /// (oversized / non-UTF-8) response line.
    pub fn recv(&mut self) -> io::Result<String> {
        match read_line_bounded(&mut self.reader, MAX_RESPONSE_BYTES)? {
            LineRead::Line(resp) => Ok(resp),
            LineRead::Eof => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            )),
            LineRead::TooLong | LineRead::NotUtf8 => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "malformed response line",
            )),
        }
    }
}
