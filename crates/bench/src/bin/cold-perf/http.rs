//! A small blocking HTTP/1.1 and server-sent-events client.
//!
//! `cold-serve` answers every request on its own connection and closes
//! it (`connection: close`), so a response is simply everything read
//! until EOF; event streams (`text/event-stream`) likewise end at EOF
//! once the job reaches a terminal status.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Longest a single read may block. Event streams send a keep-alive
/// comment every 250 ms while a job is quiet, so only a wedged server
/// hits this.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// A complete HTTP response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes, exactly `content-length` of them when the header was sent.
    pub body: Vec<u8>,
}

impl Response {
    /// The body as UTF-8 text.
    pub fn text(&self) -> io::Result<&str> {
        std::str::from_utf8(&self.body).map_err(|_| invalid("response body is not UTF-8"))
    }

    /// The body parsed as a JSON document.
    pub fn json(&self) -> io::Result<serde_json::Value> {
        serde_json::from_str(self.text()?).map_err(|e| invalid(&e.to_string()))
    }
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Sends one request and reads the whole response.
///
/// # Errors
/// Connection failures, timeouts and malformed responses.
pub fn request(addr: &str, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
    parse_response(&exchange(addr, method, path, body)?)
}

/// Opens `GET path` as an event stream and returns every `data:` payload
/// received before the server closed the stream.
///
/// # Errors
/// As [`request`], plus a non-200 status.
pub fn events(addr: &str, path: &str) -> io::Result<Vec<String>> {
    let (status, frames) = parse_event_stream(&exchange(addr, "GET", path, b"")?)?;
    if status != 200 {
        return Err(invalid(&format!("event stream answered {status}")));
    }
    Ok(frames)
}

fn exchange(addr: &str, method: &str, path: &str, body: &[u8]) -> io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    Ok(raw)
}

/// Status, lowercased `(name, value)` headers, and the body bytes.
type Parts<'a> = (u16, Vec<(String, String)>, &'a [u8]);

/// Splits raw response bytes into status, headers and body.
fn split_head(raw: &[u8]) -> io::Result<Parts<'_>> {
    let end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| invalid("response has no header terminator"))?;
    let head =
        std::str::from_utf8(&raw[..end]).map_err(|_| invalid("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.splitn(3, ' ');
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(invalid(&format!("bad status line `{status_line}`")));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(&format!("bad status line `{status_line}`")))?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok((status, headers, &raw[end + 4..]))
}

/// Parses a complete `connection: close` response.
///
/// # Errors
/// A malformed head, or a body shorter or longer than `content-length`.
pub fn parse_response(raw: &[u8]) -> io::Result<Response> {
    let (status, headers, body) = split_head(raw)?;
    if let Some((_, len)) = headers.iter().find(|(k, _)| k == "content-length") {
        let len: usize = len.parse().map_err(|_| invalid("bad content-length"))?;
        if len != body.len() {
            return Err(invalid(&format!("content-length {len} but {} body bytes", body.len())));
        }
    }
    Ok(Response { status, body: body.to_vec() })
}

/// Parses a complete event-stream response into its status and the
/// payloads of its `data:` frames; comment frames (keep-alives) are
/// skipped and multi-line data is joined with `\n`.
///
/// # Errors
/// A malformed head or a body that is not UTF-8.
pub fn parse_event_stream(raw: &[u8]) -> io::Result<(u16, Vec<String>)> {
    let (status, _, body) = split_head(raw)?;
    let text = std::str::from_utf8(body).map_err(|_| invalid("event stream is not UTF-8"))?;
    let frames = text
        .split("\n\n")
        .filter_map(|frame| {
            let data: Vec<&str> = frame
                .lines()
                .filter_map(|l| l.strip_prefix("data:"))
                .map(|d| d.strip_prefix(' ').unwrap_or(d))
                .collect();
            (!data.is_empty()).then(|| data.join("\n"))
        })
        .collect();
    Ok((status, frames))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_canned_json_response() {
        let raw = b"HTTP/1.1 202 Accepted\r\ncontent-type: application/json\r\n\
                    content-length: 29\r\nconnection: close\r\n\r\n{\"id\":\"ab\",\"status\":\"queued\"}";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 202);
        assert_eq!(r.json().unwrap()["status"].as_str(), Some("queued"));
    }

    #[test]
    fn rejects_truncated_bodies_and_bad_heads() {
        let short = b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nabc";
        assert!(parse_response(short).is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\ncontent-length: 3\r\n").is_err());
        assert!(parse_response(b"SMTP 200 OK\r\n\r\n").is_err());
    }

    #[test]
    fn parses_a_canned_event_stream() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-type: text/event-stream\r\n\
                    cache-control: no-cache\r\nconnection: close\r\n\r\n\
                    data: {\"status\":\"running\"}\n\n: keep-alive\n\n\
                    data: {\"event\":\"generation\",\"gen\":1}\n\n\
                    data: {\"status\":\"done\"}\n\n";
        let (status, frames) = parse_event_stream(raw).unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            frames,
            vec![
                "{\"status\":\"running\"}".to_string(),
                "{\"event\":\"generation\",\"gen\":1}".to_string(),
                "{\"status\":\"done\"}".to_string(),
            ]
        );
    }

    #[test]
    fn an_empty_event_stream_has_no_frames() {
        let raw = b"HTTP/1.1 404 Not Found\r\ncontent-length: 2\r\n\r\n{}";
        assert_eq!(parse_event_stream(raw).unwrap(), (404, vec![]));
    }
}
