//! The load generator's HTTP/1.1 client and the parsers for what the node
//! sends back: flat JSON fields and the `/metrics` text page.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::trace::{SpanId, Tracer};

/// A parsed response plus the two client-side phases of the exchange.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: String,
    /// Writing the request head and body into the socket.
    pub send: Duration,
    /// From the last request byte written to the last response byte read.
    pub wait: Duration,
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A hung node must fail the run, not hang the harness past the
        // driver's limit.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { stream, reader })
    }

    /// Send one request and read the whole response. Records
    /// `http.send` and `http.wait` spans under `parent`.
    pub fn request(
        &mut self,
        tracer: &mut Tracer,
        parent: SpanId,
        req: u64,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> io::Result<Reply> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: node\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let t0 = Instant::now();
        let send_span = tracer.begin("http.send", parent, req);
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.stream.flush()?;
        tracer.end(send_span);
        let t1 = Instant::now();

        let wait_span = tracer.begin("http.wait", parent, req);
        let (status, body) = read_response(&mut self.reader)?;
        tracer.end(wait_span);
        Ok(Reply {
            status,
            body,
            send: t1 - t0,
            wait: t1.elapsed(),
        })
    }

    pub fn get(
        &mut self,
        tracer: &mut Tracer,
        parent: SpanId,
        req: u64,
        path: &str,
    ) -> io::Result<Reply> {
        self.request(tracer, parent, req, "GET", path, b"")
    }
}

/// Parse a status line, headers and a `content-length` body.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<(u16, String)> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server hung up",
        ));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut content_length = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "eof in headers",
            ));
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    // The node's largest reply (an audit over all history) is a few MB.
    if content_length > 256 * 1024 * 1024 {
        return Err(bad("response body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    String::from_utf8(body)
        .map(|body| (status, body))
        .map_err(|_| bad("response body is not UTF-8"))
}

/// The string value of the first `"key":"…"` in a JSON body.
pub fn json_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":\"");
    let start = body.find(&tag)? + tag.len();
    let end = body[start..].find('"')? + start;
    Some(&body[start..end])
}

/// The unsigned value of the first `"key":123` in a JSON body.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\":");
    let start = body.find(&tag)? + tag.len();
    let rest = &body[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The boolean value of the first `"key":true|false` in a JSON body.
pub fn json_bool(body: &str, key: &str) -> Option<bool> {
    let tag = format!("\"{key}\":");
    let rest = &body[body.find(&tag)? + tag.len()..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// The node's `/metrics` page as `name → value`. Comment lines are
/// skipped; a labelled sample keeps its label text in the name, exactly as
/// printed (`node_query_latency_ns{quantile="0.5"}`).
pub fn parse_metrics(page: &str) -> BTreeMap<String, f64> {
    page.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (name, value) = line.trim().rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    #[test]
    fn flat_json_fields() {
        let body = r#"{"height":42,"hash":"ab12","verified":true,"leaf_index":0,"count":7}"#;
        assert_eq!(json_u64(body, "height"), Some(42));
        assert_eq!(json_u64(body, "leaf_index"), Some(0));
        assert_eq!(json_str(body, "hash"), Some("ab12"));
        assert_eq!(json_bool(body, "verified"), Some(true));
        assert_eq!(json_u64(body, "missing"), None);
        assert_eq!(json_bool(body, "height"), None);
    }

    #[test]
    fn metrics_page_parses_counters_gauges_and_summaries() {
        let page = "# HELP node_ingest_batches_total block batches committed\n\
                    # TYPE node_ingest_batches_total counter\n\
                    node_ingest_batches_total 12\n\
                    node_reader_cache_hits 900\n\
                    node_ingest_latency_ns_count 12\n\
                    node_ingest_latency_ns_sum 48000000\n\
                    node_query_latency_ns{quantile=\"0.5\"} 2048\n";
        let m = parse_metrics(page);
        assert_eq!(m["node_ingest_batches_total"], 12.0);
        assert_eq!(m["node_reader_cache_hits"], 900.0);
        assert_eq!(m["node_ingest_latency_ns_sum"], 48_000_000.0);
        assert_eq!(m["node_query_latency_ns{quantile=\"0.5\"}"], 2048.0);
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn response_parser_handles_headers_and_short_reads() {
        let raw = b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\n\
                    Content-Length: 5\r\n\r\nhelloHTTP/1.1 200 OK\r\ncontent-length: 0\r\n\r\n";
        let mut r = io::BufReader::with_capacity(3, &raw[..]);
        assert_eq!(read_response(&mut r).unwrap(), (429, "hello".to_string()));
        assert_eq!(read_response(&mut r).unwrap(), (200, String::new()));
        assert!(
            read_response(&mut r).is_err(),
            "eof is an error, not a reply"
        );
    }

    #[test]
    fn keep_alive_client_against_a_scripted_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut stream = stream;
            let mut seen = Vec::new();
            for _ in 0..2 {
                let mut head = String::new();
                let mut len = 0usize;
                loop {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    if line == "\r\n" {
                        break;
                    }
                    if let Some(v) = line.strip_prefix("content-length: ") {
                        len = v.trim().parse().unwrap();
                    }
                    head.push_str(&line);
                }
                let mut body = vec![0u8; len];
                reader.read_exact(&mut body).unwrap();
                seen.push((head.lines().next().unwrap().to_string(), body));
                stream
                    .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 12\r\n\r\n{\"height\":3}")
                    .unwrap();
            }
            seen
        });
        let mut conn = Conn::open(addr).unwrap();
        let mut tracer = Tracer::off();
        let a = conn
            .request(&mut tracer, 0, 1, "POST", "/blocks", b"abc")
            .unwrap();
        let b = conn.get(&mut tracer, 0, 2, "/tip").unwrap();
        assert_eq!((a.status, json_u64(&a.body, "height")), (200, Some(3)));
        assert_eq!(b.status, 200);
        let seen = server.join().unwrap();
        assert_eq!(
            seen[0],
            ("POST /blocks HTTP/1.1".to_string(), b"abc".to_vec())
        );
        assert_eq!(seen[1].0, "GET /tip HTTP/1.1");
    }
}
