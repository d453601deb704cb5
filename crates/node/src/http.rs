//! A minimal HTTP/1.1 server-side codec over any byte stream (the node
//! passes a [`std::net::TcpStream`]).
//!
//! The workspace has no registry access, so there is no axum/hyper/tokio —
//! this module hand-rolls exactly the subset the node needs: blocking
//! reads on a per-connection thread, persistent connections by default
//! (HTTP/1.1 keep-alive), `Content-Length`-framed bodies, and nothing else
//! (no chunked transfer, no TLS, no compression). A response goes out in
//! one `write`, and no allocation is sized by a length the client claims.
//!
//! [`read_request`] returns `Ok(None)` on a clean end-of-stream so
//! connection loops can distinguish "client hung up between requests" from
//! a malformed request (an `Err`), which the caller answers with `400` and
//! a close.

use std::io::{self, BufRead, Read, Write};

/// Largest accepted request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Largest accepted request body (one ingest batch of blocks).
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Most body memory reserved before any of the body arrives: a larger
/// body grows its buffer as its bytes come in.
const BODY_RESERVE_BYTES: usize = 64 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path, percent-encoded as received, query string split
    /// off and discarded (no endpoint takes query parameters).
    pub path: String,
    /// Header name/value pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The `Content-Length`-framed body (empty when absent).
    pub body: Vec<u8>,
}

impl Request {
    /// Look up a header by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange (`Connection: close`).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Read one request from the stream.
///
/// `Ok(None)` means the peer closed the connection cleanly before sending
/// another request; `Err` means the bytes on the wire were not a request
/// this codec accepts (answer 400 and close).
pub fn read_request(reader: &mut impl BufRead) -> io::Result<Option<Request>> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None); // clean EOF between requests
    }
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/1.") => (m.to_string(), t),
        _ => return Err(bad("malformed request line")),
    };
    let path = target.split('?').next().unwrap_or("/").to_string();

    let mut headers = Vec::new();
    let mut head_bytes = line.len();
    loop {
        let mut hline = String::new();
        if reader.read_line(&mut hline)? == 0 {
            return Err(bad("eof inside headers"));
        }
        head_bytes += hline.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err(bad("request head too large"));
        }
        let trimmed = hline.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(bad("malformed header"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse::<usize>().map_err(|_| bad("bad content-length")))
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(bad("body too large"));
    }
    let mut body = Vec::with_capacity(content_length.min(BODY_RESERVE_BYTES));
    reader.take(content_length as u64).read_to_end(&mut body)?;
    if body.len() < content_length {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "eof inside body",
        ));
    }

    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// One response to serialize.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Extra headers (e.g. `Retry-After`), sent verbatim.
    pub extra: Vec<(&'static str, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            extra: Vec::new(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
            extra: Vec::new(),
        }
    }

    /// Attach an extra header.
    pub fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.extra.push((name, value));
        self
    }
}

/// Canonical reason phrase for the status codes the node emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Serialize a response onto the stream (keep-alive framing via
/// `Content-Length`; the caller decides whether to close). Head and body
/// are gathered into one buffer and handed over in a single `write_all`.
pub fn write_response(stream: &mut impl Write, resp: &Response) -> io::Result<()> {
    let mut out = Vec::with_capacity(128 + resp.body.len());
    write!(
        out,
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    )?;
    for (name, value) in &resp.extra {
        write!(out, "{name}: {value}\r\n")?;
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&resp.body);
    stream.write_all(&out)?;
    stream.flush()
}

/// Decode `%XX` percent-escapes (and `+` as space) in a path segment.
///
/// Works on bytes: a `%` counts as an escape only when exactly two ASCII
/// hex digits follow it, and anything else — a lone or truncated `%`, a
/// sign, a multi-byte character — stays literal. Decoded bytes that are
/// not UTF-8 become U+FFFD.
pub fn percent_decode(s: &str) -> String {
    fn hex(b: u8) -> Option<u8> {
        char::from(b).to_digit(16).map(|d| d as u8)
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let escape = match bytes[i..] {
            [b'%', hi, lo, ..] => hex(hi).zip(hex(lo)),
            _ => None,
        };
        match (escape, bytes[i]) {
            (Some((hi, lo)), _) => {
                out.push(hi << 4 | lo);
                i += 3;
            }
            (None, b'+') => {
                out.push(b' ');
                i += 1;
            }
            (None, b) => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that records every `write` call it receives.
    #[derive(Default)]
    struct CountingSink {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn response_goes_out_in_one_write() {
        let resp =
            Response::json(429, "{\"busy\":true}".into()).with_header("retry-after", "1".into());
        let mut sink = CountingSink::default();
        write_response(&mut sink, &resp).expect("write to sink");
        assert_eq!(sink.writes, 1);
        let head = "HTTP/1.1 429 Too Many Requests\r\ncontent-type: application/json\r\n\
                    content-length: 13\r\nretry-after: 1\r\n\r\n";
        assert_eq!(sink.bytes, [head.as_bytes(), &resp.body].concat());
    }

    #[test]
    fn request_body_round_trips() {
        let wire =
            b"POST /blocks?x=1 HTTP/1.1\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhelloGET";
        let mut reader = &wire[..];
        let req = read_request(&mut reader)
            .expect("well-formed request")
            .expect("not eof");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/blocks");
        assert_eq!(req.body, b"hello");
        assert!(req.wants_close());
        assert_eq!(reader, b"GET", "the next request's bytes stay unread");
    }

    #[test]
    fn short_body_errors_whatever_length_it_claims() {
        let wire =
            format!("POST /blocks HTTP/1.1\r\ncontent-length: {MAX_BODY_BYTES}\r\n\r\n0123456789");
        let err = read_request(&mut wire.as_bytes()).expect_err("10 of 64 MiB sent");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        let wire = format!(
            "POST /blocks HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = read_request(&mut wire.as_bytes()).expect_err("over the cap");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("plain"), "plain");
        assert_eq!(percent_decode("a%20b"), "a b");
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("batch%2F7"), "batch/7");
        assert_eq!(percent_decode("trailing%2"), "trailing%2");
        assert_eq!(percent_decode("bad%zz"), "bad%zz");
        assert_eq!(percent_decode("caf%C3%A9"), "café");
    }

    #[test]
    fn percent_decoding_never_splits_a_multibyte_char() {
        // `%` + one ASCII char + a raw two-byte char: slicing the `&str` at
        // byte offsets panicked here on a char boundary.
        assert_eq!(percent_decode("%aé"), "%aé");
        assert_eq!(percent_decode("%é"), "%é");
        assert_eq!(percent_decode("é%41é"), "éAé");
    }

    #[test]
    fn percent_decoding_takes_two_hex_digits_and_nothing_else() {
        // `u8::from_str_radix` accepts a sign; an escape does not.
        assert_eq!(percent_decode("%+f"), "% f");
        assert_eq!(percent_decode("%-1"), "%-1");
        assert_eq!(percent_decode("%4"), "%4");
        assert_eq!(percent_decode("%"), "%");
        assert_eq!(percent_decode("%fF%Ff"), "\u{fffd}\u{fffd}");
    }
}
