//! Minimal HTTP/1.1 over `std::net`: just enough of the wire protocol for
//! a JSON service — request line, headers, `Content-Length` bodies,
//! keep-alive — with hard caps so a misbehaving client cannot balloon a
//! worker's memory.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Largest accepted head (request line + headers) in bytes.
const MAX_HEAD: usize = 16 * 1024;
/// Largest accepted request body in bytes.
const MAX_BODY: usize = 64 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// Request target path, e.g. `/advise` (query string included).
    pub path: String,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: String,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
    /// The `Accept` header value (empty when absent) — `/metrics` content
    /// negotiation.
    pub accept: String,
    /// When the request's first byte arrived, for the trace's backdated
    /// `parse` span. `None` only if construction bypassed `read_request`.
    pub first_byte: Option<Instant>,
}

/// Bytes of a not-yet-complete request carried between read attempts,
/// plus when its first byte arrived (the start of the `parse` span).
#[derive(Debug, Default)]
pub struct Partial {
    /// Raw bytes read so far.
    pub bytes: Vec<u8>,
    /// Arrival time of the first byte (`None` while no byte has arrived).
    pub first_byte: Option<Instant>,
}

/// Outcome of one read attempt on a connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request arrived, with the bytes read past its end: the
    /// start of the next pipelined request, to resume from.
    Request(Request, Partial),
    /// The peer closed the connection cleanly (EOF before any bytes).
    Closed,
    /// The read timed out before a full request arrived; the bytes read so
    /// far are handed back so the caller can resume.
    TimedOut(Partial),
}

/// Reads one request from `stream`, resuming from a [`Partial`] carried
/// over from a previous timed-out attempt or from the bytes a previous
/// request left over (pipelining). Honors the stream's configured
/// read timeout: a timeout, in the head or in the body, surfaces as
/// [`ReadOutcome::TimedOut`] so the caller can check its shutdown flag and
/// resume.
pub fn read_request(stream: &mut TcpStream, mut pending: Partial) -> io::Result<ReadOutcome> {
    let mut buf = [0u8; 4096];
    let mut head = None;
    loop {
        if head.is_none() {
            head = match find_head_end(&pending.bytes) {
                Some(end) => Some(parse_head(&pending.bytes[..end])?),
                None if pending.bytes.len() > MAX_HEAD => {
                    return Err(bad("request head exceeds 16 KiB"));
                }
                None => None,
            };
        }
        if let Some(h) = head.take_if(|h| pending.bytes.len() >= h.len + h.content_length) {
            return finish_request(h, pending);
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                return if pending.bytes.is_empty() {
                    Ok(ReadOutcome::Closed)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-request",
                    ))
                };
            }
            Ok(n) => {
                if pending.first_byte.is_none() {
                    pending.first_byte = Some(Instant::now());
                }
                pending.bytes.extend_from_slice(&buf[..n]);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(ReadOutcome::TimedOut(pending));
            }
            Err(e) => return Err(e),
        }
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
}

/// A parsed request head: request line and the headers the service reads.
struct Head {
    /// Head length in bytes, blank line included.
    len: usize,
    method: String,
    path: String,
    content_length: usize,
    keep_alive: bool,
    accept: String,
}

fn parse_head(bytes: &[u8]) -> io::Result<Head> {
    let head = std::str::from_utf8(bytes).map_err(|_| bad("request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let mut request_line = lines.next().unwrap_or("").split_whitespace();
    let method = request_line.next().ok_or_else(|| bad("missing method"))?;
    let path = request_line.next().ok_or_else(|| bad("missing path"))?;
    let mut parsed = Head {
        len: bytes.len(),
        method: method.to_string(),
        path: path.to_string(),
        content_length: 0,
        keep_alive: true, // HTTP/1.1 default
        accept: String::new(),
    };
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                parsed.content_length = value.parse().map_err(|_| bad("bad Content-Length"))?;
            }
            "connection" => parsed.keep_alive = !value.eq_ignore_ascii_case("close"),
            "accept" => parsed.accept = value.to_string(),
            _ => {}
        }
    }
    if parsed.content_length > MAX_BODY {
        return Err(bad("request body exceeds 64 KiB"));
    }
    Ok(parsed)
}

fn finish_request(head: Head, pending: Partial) -> io::Result<ReadOutcome> {
    let Partial {
        mut bytes,
        first_byte,
    } = pending;
    let rest = bytes.split_off(head.len + head.content_length);
    let body = String::from_utf8(bytes.split_off(head.len))
        .map_err(|_| bad("request body is not UTF-8"))?;
    // The next request's bytes are already here; it waits from now.
    let rest = Partial {
        first_byte: (!rest.is_empty()).then(Instant::now),
        bytes: rest,
    };
    Ok(ReadOutcome::Request(
        Request {
            method: head.method,
            path: head.path,
            body,
            keep_alive: head.keep_alive,
            accept: head.accept,
            first_byte,
        },
        rest,
    ))
}

/// One HTTP response ready to serialize.
#[derive(Debug)]
pub struct Response {
    /// Status code (200, 400, 404, …).
    pub status: u16,
    /// Response body.
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
}

impl Response {
    /// A `200 OK` JSON response.
    pub fn json(body: String) -> Self {
        Response {
            status: 200,
            body,
            content_type: "application/json",
        }
    }

    /// A `200 OK` response with an explicit content type (e.g. the
    /// Prometheus text exposition `text/plain; version=0.0.4`).
    pub fn text(body: String, content_type: &'static str) -> Self {
        Response {
            status: 200,
            body,
            content_type,
        }
    }

    /// An error response with a JSON `{"error": …}` body.
    pub fn error(status: u16, message: &str) -> Self {
        Response {
            status,
            body: format!(
                r#"{{"error":{}}}"#,
                t2opt_core::json::to_json_string(&message)
            ),
            content_type: "application/json",
        }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Internal Server Error",
    }
}

/// Serializes and writes `response`, flagging whether the connection will
/// stay open afterwards.
pub fn write_response(
    stream: &mut TcpStream,
    response: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn pipe() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn parses_request_with_body_and_keep_alive() {
        let (mut client, mut server) = pipe();
        client
            .write_all(b"POST /advise HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}")
            .unwrap();
        let out = read_request(&mut server, Partial::default()).unwrap();
        let ReadOutcome::Request(req, _) = out else {
            panic!("expected a request, got {out:?}");
        };
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("POST", "/advise")
        );
        assert_eq!(req.body, r#"{"a":1}"#);
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(req.first_byte.is_some(), "arrival time is captured");
        assert!(req.accept.is_empty(), "no Accept header sent");
    }

    #[test]
    fn accept_header_is_surfaced_for_negotiation() {
        let (mut client, mut server) = pipe();
        client
            .write_all(b"GET /metrics HTTP/1.1\r\nAccept: text/plain\r\n\r\n")
            .unwrap();
        let ReadOutcome::Request(req, _) = read_request(&mut server, Partial::default()).unwrap()
        else {
            panic!("expected a request");
        };
        assert_eq!(req.accept, "text/plain");
    }

    #[test]
    fn connection_close_clears_keep_alive_and_eof_is_clean() {
        let (mut client, mut server) = pipe();
        client
            .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let ReadOutcome::Request(req, _) = read_request(&mut server, Partial::default()).unwrap()
        else {
            panic!("expected a request");
        };
        assert!(!req.keep_alive);
        drop(client);
        assert!(matches!(
            read_request(&mut server, Partial::default()).unwrap(),
            ReadOutcome::Closed
        ));
    }

    #[test]
    fn timeout_hands_back_partial_bytes_for_resume() {
        let (mut client, mut server) = pipe();
        server
            .set_read_timeout(Some(std::time::Duration::from_millis(30)))
            .unwrap();
        client.write_all(b"GET /hea").unwrap();
        let ReadOutcome::TimedOut(partial) = read_request(&mut server, Partial::default()).unwrap()
        else {
            panic!("expected a timeout with partial bytes");
        };
        assert_eq!(partial.bytes, b"GET /hea");
        let arrived = partial.first_byte.expect("first byte stamped");
        client.write_all(b"lthz HTTP/1.1\r\n\r\n").unwrap();
        let ReadOutcome::Request(req, _) = read_request(&mut server, partial).unwrap() else {
            panic!("expected the resumed request");
        };
        assert_eq!(req.path, "/healthz");
        assert_eq!(
            req.first_byte,
            Some(arrived),
            "resume keeps the original arrival time"
        );

        // A body split across reads times out with the head and the first
        // body bytes in hand, then resumes.
        client
            .write_all(b"POST /advise HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\"")
            .unwrap();
        let ReadOutcome::TimedOut(partial) = read_request(&mut server, Partial::default()).unwrap()
        else {
            panic!("expected a timeout mid-body");
        };
        assert!(partial.bytes.ends_with(b"{\"a\""));
        let arrived = partial.first_byte.expect("first byte stamped");
        client.write_all(b":1}").unwrap();
        let ReadOutcome::Request(req, _) = read_request(&mut server, partial).unwrap() else {
            panic!("expected the resumed request");
        };
        assert_eq!(req.body, r#"{"a":1}"#);
        assert_eq!(req.first_byte, Some(arrived));
    }

    #[test]
    fn responses_carry_length_and_connection_headers() {
        let (mut client, mut server) = pipe();
        write_response(&mut server, &Response::json("{}".into()), false).unwrap();
        drop(server);
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
