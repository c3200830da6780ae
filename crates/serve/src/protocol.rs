//! The wire protocol: a plain line protocol and a minimal HTTP/1.1
//! mapping of the same requests, auto-detected per connection.
//!
//! Line mode (the default; what `loadgen` speaks):
//!
//! ```text
//! client:  RUN compose-post\n          (name or numeric id)
//! server:  OK 8123 42\n                (latency_us, kernel request id)
//!          SHED queue-full\n           (overload admission reject)
//!          ABANDONED\n                 (failure recovery gave up)
//!          DROPPED\n                   (shutdown drain cut it off)
//!          BUSY\n                      (submission queue full)
//!          DRAINING\n                  (server is shutting down)
//!          TIMEOUT\n                   (no outcome within the deadline)
//!          ERR <message>\n             (malformed request)
//! client:  PING\n      → PONG\n
//! client:  STATS\n     → one-line JSON counters
//! client:  QUIT\n      → BYE\n, connection closed
//! ```
//!
//! HTTP mode (any request line ending in ` HTTP/1.x`): `GET /run/<type>`
//! maps to `RUN <type>` and returns a JSON body; `GET /healthz` and
//! `GET /stats` are liveness and counters. Keep-alive is honored, bodies
//! are ignored, and anything but GET earns a 405 — this is a benchmark
//! front door, not a web framework (the workspace is vendored-only, so
//! no tokio/hyper by design).

use std::io::{self, BufRead, Write};

/// One parsed client request, protocol-independent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run a request DAG: the operand is a type name or numeric id.
    Run(String),
    Ping,
    Stats,
    Quit,
    /// Unparseable input, with a message to send back.
    Malformed(String),
}

/// One server reply, rendered per-protocol by [`write_response`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Completed: kernel-measured end-to-end latency and request id.
    Ok {
        latency_us: u64,
        request: u64,
    },
    Shed {
        reason: String,
    },
    Abandoned,
    Dropped,
    Busy,
    Draining,
    Timeout,
    Pong,
    Bye,
    /// Pre-rendered JSON (STATS / /stats).
    Json(String),
    Err(String),
}

/// Which framing the connection speaks (decided by its first line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Line,
    Http,
}

/// Detects the protocol from a connection's first line.
pub fn detect_mode(first_line: &str) -> Mode {
    let l = first_line.trim_end();
    if l.ends_with("HTTP/1.1") || l.ends_with("HTTP/1.0") {
        Mode::Http
    } else {
        Mode::Line
    }
}

/// Length of the first complete request at the front of `buf`, or `None`
/// while more bytes are needed: a line-mode request ends at its `\n`, an
/// HTTP one at the blank line that ends its headers.
pub fn request_len(buf: &[u8], mode: Mode) -> Option<usize> {
    let line_end = |from: usize| buf[from..].iter().position(|&b| b == b'\n').map(|i| from + i + 1);
    let mut end = line_end(0)?;
    // An HTTP request runs on through its headers, up to the first blank line.
    let mut blank = mode == Mode::Line;
    while !blank {
        let next = line_end(end)?;
        blank = buf[end..next].iter().all(u8::is_ascii_whitespace);
        end = next;
    }
    Some(end)
}

/// Parses one line-mode request.
pub fn parse_line(line: &str) -> Request {
    let l = line.trim();
    if let Some(rest) = l.strip_prefix("RUN ") {
        let t = rest.trim();
        if t.is_empty() {
            return Request::Malformed("RUN needs a request type".into());
        }
        return Request::Run(t.to_string());
    }
    match l {
        "PING" => Request::Ping,
        "STATS" => Request::Stats,
        "QUIT" | "" => Request::Quit,
        other => Request::Malformed(format!("unknown command '{other}'")),
    }
}

/// Parses one HTTP request: the request line (already read) plus
/// `reader`'s headers through the blank line (the server passes the block
/// [`request_len`] framed, as a `&[u8]`), and maps the path onto a
/// [`Request`]. Returns `Quit` if the headers end early. The second field is
/// true when the client sent `Connection: close` — the response must
/// close the connection even where the server would default to
/// keep-alive, or clients waiting for EOF hang until the read timeout.
pub fn parse_http(request_line: &str, reader: &mut impl BufRead) -> io::Result<(Request, bool)> {
    // Drain headers; bodies are not expected on GET and not supported.
    let mut line = String::new();
    let mut close = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok((Request::Quit, true));
        }
        if line.trim_end().is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("connection") && value.trim().eq_ignore_ascii_case("close")
            {
                close = true;
            }
        }
    }
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => return Ok((Request::Malformed("malformed request line".into()), close)),
    };
    if method != "GET" {
        return Ok((Request::Malformed(format!("method {method} not allowed")), close));
    }
    let req = match path {
        "/healthz" => Request::Ping,
        "/stats" => Request::Stats,
        p => match p.strip_prefix("/run/") {
            Some(t) if !t.is_empty() => Request::Run(t.to_string()),
            _ => Request::Malformed(format!("no route for {p}")),
        },
    };
    Ok((req, close))
}

/// Writes `resp` in the connection's framing. `client_close` is HTTP's
/// `Connection: close` request flag (ignored in line mode). Returns
/// `false` when the connection should close afterwards (QUIT / HTTP
/// errors / the client asked to).
pub fn write_response(
    w: &mut impl Write,
    mode: Mode,
    resp: &Response,
    client_close: bool,
) -> io::Result<bool> {
    match mode {
        Mode::Line => write_line(w, resp),
        Mode::Http => write_http(w, resp, client_close),
    }
}

fn write_line(w: &mut impl Write, resp: &Response) -> io::Result<bool> {
    let keep = !matches!(resp, Response::Bye);
    match resp {
        Response::Ok { latency_us, request } => writeln!(w, "OK {latency_us} {request}")?,
        Response::Shed { reason } => writeln!(w, "SHED {reason}")?,
        Response::Abandoned => writeln!(w, "ABANDONED")?,
        Response::Dropped => writeln!(w, "DROPPED")?,
        Response::Busy => writeln!(w, "BUSY")?,
        Response::Draining => writeln!(w, "DRAINING")?,
        Response::Timeout => writeln!(w, "TIMEOUT")?,
        Response::Pong => writeln!(w, "PONG")?,
        Response::Bye => writeln!(w, "BYE")?,
        Response::Json(j) => writeln!(w, "{j}")?,
        Response::Err(m) => writeln!(w, "ERR {m}")?,
    }
    w.flush()?;
    Ok(keep)
}

fn write_http(w: &mut impl Write, resp: &Response, client_close: bool) -> io::Result<bool> {
    let (status, body) = match resp {
        Response::Ok { latency_us, request } => {
            ("200 OK", format!("{{\"latency_us\":{latency_us},\"request\":{request}}}"))
        }
        Response::Shed { reason } => {
            ("503 Service Unavailable", format!("{{\"shed\":\"{reason}\"}}"))
        }
        Response::Abandoned => ("500 Internal Server Error", "{\"abandoned\":true}".into()),
        Response::Dropped => ("503 Service Unavailable", "{\"dropped\":true}".into()),
        Response::Busy => ("503 Service Unavailable", "{\"busy\":true}".into()),
        Response::Draining => ("503 Service Unavailable", "{\"draining\":true}".into()),
        Response::Timeout => ("504 Gateway Timeout", "{\"timeout\":true}".into()),
        Response::Pong | Response::Bye => ("200 OK", "{\"ok\":true}".into()),
        Response::Json(j) => ("200 OK", j.clone()),
        Response::Err(m) => ("400 Bad Request", format!("{{\"error\":\"{m}\"}}")),
    };
    let keep = !client_close
        && matches!(
            resp,
            Response::Ok { .. } | Response::Pong | Response::Json(_) | Response::Shed { .. }
        );
    write!(
        w,
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        body.len(),
        if keep { "keep-alive" } else { "close" },
    )?;
    w.flush()?;
    Ok(keep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_requests_parse() {
        assert_eq!(parse_line("RUN compose-post\n"), Request::Run("compose-post".into()));
        assert_eq!(parse_line("RUN 3"), Request::Run("3".into()));
        assert_eq!(parse_line("PING"), Request::Ping);
        assert_eq!(parse_line("STATS"), Request::Stats);
        assert_eq!(parse_line("QUIT"), Request::Quit);
        assert!(matches!(parse_line("RUN "), Request::Malformed(_)));
        assert!(matches!(parse_line("FROB x"), Request::Malformed(_)));
    }

    #[test]
    fn mode_detection() {
        assert_eq!(detect_mode("GET /run/x HTTP/1.1\r\n"), Mode::Http);
        assert_eq!(detect_mode("RUN compose-post\n"), Mode::Line);
    }

    #[test]
    fn requests_are_framed_from_the_buffer() {
        assert_eq!(request_len(b"RUN compose", Mode::Line), None);
        assert_eq!(request_len(b"RUN x\nPING\n", Mode::Line), Some(6));
        let get = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\nGET /stats";
        assert_eq!(request_len(&get[..33], Mode::Http), None, "headers not ended yet");
        assert_eq!(request_len(get, Mode::Http), Some(34));
        assert_eq!(request_len(b"GET / HTTP/1.0\n\n", Mode::Http), Some(16));
    }

    #[test]
    fn http_requests_parse() {
        let mut rest = io::BufReader::new(&b"Host: x\r\nAccept: */*\r\n\r\n"[..]);
        let (r, close) = parse_http("GET /run/getCheapest HTTP/1.1\r\n", &mut rest).unwrap();
        assert_eq!(r, Request::Run("getCheapest".into()));
        assert!(!close, "no Connection header means keep-alive");
        let mut rest = io::BufReader::new(&b"\r\n"[..]);
        assert_eq!(parse_http("GET /healthz HTTP/1.1", &mut rest).unwrap().0, Request::Ping);
        let mut rest = io::BufReader::new(&b"\r\n"[..]);
        assert!(matches!(
            parse_http("POST /run/x HTTP/1.1", &mut rest).unwrap().0,
            Request::Malformed(_)
        ));
    }

    /// `Connection: close` must be honored on every route, including ones
    /// the server would keep alive — a client waiting for EOF after
    /// asking to close would otherwise hang until the read timeout.
    #[test]
    fn http_connection_close_is_honored() {
        let mut rest = io::BufReader::new(&b"Host: x\r\nConnection: close\r\n\r\n"[..]);
        let (r, close) = parse_http("GET /healthz HTTP/1.1", &mut rest).unwrap();
        assert_eq!(r, Request::Ping);
        assert!(close);
        let mut rest = io::BufReader::new(&b"CONNECTION:  CLOSE  \r\n\r\n"[..]);
        assert!(parse_http("GET /run/x HTTP/1.1", &mut rest).unwrap().1);
        let mut rest = io::BufReader::new(&b"Connection: keep-alive\r\n\r\n"[..]);
        assert!(!parse_http("GET /run/x HTTP/1.1", &mut rest).unwrap().1);
    }

    #[test]
    fn line_responses_render() {
        let mut buf = Vec::new();
        assert!(write_line(&mut buf, &Response::Ok { latency_us: 812, request: 7 }).unwrap());
        assert_eq!(buf, b"OK 812 7\n");
        buf.clear();
        assert!(!write_line(&mut buf, &Response::Bye).unwrap());
        assert_eq!(buf, b"BYE\n");
    }

    #[test]
    fn http_responses_render_with_length() {
        let mut buf = Vec::new();
        assert!(write_http(&mut buf, &Response::Ok { latency_us: 812, request: 7 }, false).unwrap());
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"), "{s}");
        assert!(s.contains("Connection: keep-alive"), "{s}");
        let body = s.split("\r\n\r\n").nth(1).unwrap();
        assert_eq!(body, "{\"latency_us\":812,\"request\":7}");
        assert!(s.contains(&format!("Content-Length: {}", body.len())), "{s}");

        // A client that asked to close gets a matching header and a
        // false (close-me) verdict, even on a keep-alive response type.
        let mut buf = Vec::new();
        assert!(!write_http(&mut buf, &Response::Ok { latency_us: 812, request: 7 }, true).unwrap());
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("Connection: close"), "{s}");
    }
}
