//! Minimal HTTP/1.1 plumbing over std I/O — just enough protocol for
//! an observability plane: request-line parsing, fixed-length
//! responses, and chunked transfer encoding for event streams. No
//! keep-alive (every response closes the connection), no TLS, no
//! request bodies.

use std::io::{self, BufRead, Read, Write};

/// A parsed request line: method, path, and the raw query string (the
/// part after `?`, if any). Headers are drained but ignored — no
/// endpoint here needs them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Request {
    /// The HTTP method verbatim (`GET`, `HEAD`, ...).
    pub method: String,
    /// The decoded-enough path: everything before `?`.
    pub path: String,
    /// The raw query string after `?`, if present.
    pub query: Option<String>,
}

impl Request {
    /// The value of `key` in the query string (`k=v` pairs joined by
    /// `&`; no percent-decoding — the values used here are numbers).
    pub(crate) fn query_param(&self, key: &str) -> Option<&str> {
        self.query.as_deref()?.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

fn bad_request(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("bad request: {what}"))
}

/// Longest request or header line accepted, terminator included —
/// ample for this API's paths and any scraper's headers.
const MAX_LINE_BYTES: u64 = 8 * 1024;

/// `read_line` through a bounded `take`, so a peer that never sends
/// `\n` costs at most [`MAX_LINE_BYTES`] of memory, not the read
/// timeout's worth.
fn read_bounded_line(reader: &mut impl BufRead, line: &mut String) -> io::Result<usize> {
    let n = reader.by_ref().take(MAX_LINE_BYTES).read_line(line)?;
    if n as u64 == MAX_LINE_BYTES && !line.ends_with('\n') {
        return Err(bad_request("line too long"));
    }
    Ok(n)
}

/// Reads one request head (request line plus headers, up to the blank
/// line) from the stream.
///
/// # Errors
///
/// I/O errors from the underlying stream (including read timeouts),
/// or [`io::ErrorKind::InvalidData`] for a malformed request line or
/// any line longer than 8 KiB.
pub(crate) fn read_request(reader: &mut impl BufRead) -> io::Result<Request> {
    let mut line = String::new();
    if read_bounded_line(reader, &mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a request line",
        ));
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad_request("empty line"))?;
    let target = parts.next().ok_or_else(|| bad_request("no target"))?;
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/")) {
        return Err(bad_request("missing HTTP version"));
    }
    // Drain headers; cap the count so a hostile peer cannot feed an
    // endless header section.
    for _ in 0..128 {
        let mut header = String::new();
        let n = read_bounded_line(reader, &mut header)?;
        if n == 0 || header == "\r\n" || header == "\n" {
            break;
        }
    }
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path, Some(query.to_string())),
        None => (target, None),
    };
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        query,
    })
}

/// Writes a complete fixed-length response and flushes.
///
/// # Errors
///
/// I/O errors from the stream (including write timeouts).
pub(crate) fn write_response(
    stream: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()
}

/// Convenience: a `200 OK` response.
pub(crate) fn ok(stream: &mut impl Write, content_type: &str, body: &[u8]) -> io::Result<()> {
    write_response(stream, 200, "OK", content_type, body)
}

/// Convenience: a plain-text `404 Not Found`.
pub(crate) fn not_found(stream: &mut impl Write, what: &str) -> io::Result<()> {
    write_response(
        stream,
        404,
        "Not Found",
        "text/plain; charset=utf-8",
        format!("not found: {what}\n").as_bytes(),
    )
}

/// Convenience: a plain-text `405 Method Not Allowed`.
pub(crate) fn method_not_allowed(stream: &mut impl Write) -> io::Result<()> {
    write_response(
        stream,
        405,
        "Method Not Allowed",
        "text/plain; charset=utf-8",
        b"method not allowed for this endpoint\n",
    )
}

/// Convenience: a plain-text `500 Internal Server Error`.
pub(crate) fn server_error(stream: &mut impl Write, what: &str) -> io::Result<()> {
    write_response(
        stream,
        500,
        "Internal Server Error",
        "text/plain; charset=utf-8",
        format!("error: {what}\n").as_bytes(),
    )
}

/// Starts a chunked (streaming) `200 OK` response; follow with
/// [`write_chunk`] per record and [`finish_chunks`] to end the stream.
///
/// # Errors
///
/// I/O errors from the stream.
pub(crate) fn start_chunked(stream: &mut impl Write, content_type: &str) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()
}

/// Writes one chunk (hex length, CRLF, payload, CRLF) and flushes, so
/// every record is visible to the client as soon as it is produced.
///
/// # Errors
///
/// I/O errors from the stream.
pub(crate) fn write_chunk(stream: &mut impl Write, data: &[u8]) -> io::Result<()> {
    if data.is_empty() {
        // An empty chunk would terminate the stream early.
        return Ok(());
    }
    write!(stream, "{:x}\r\n", data.len())?;
    stream.write_all(data)?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// Writes the zero-length terminator chunk and flushes.
///
/// # Errors
///
/// I/O errors from the stream.
pub(crate) fn finish_chunks(stream: &mut impl Write) -> io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_a_request_line_with_query_and_headers() {
        let raw = b"GET /runs/run-0001/events?limit=5 HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n";
        let request = read_request(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!(request.method, "GET");
        assert_eq!(request.path, "/runs/run-0001/events");
        assert_eq!(request.query.as_deref(), Some("limit=5"));
        assert_eq!(request.query_param("limit"), Some("5"));
        assert_eq!(request.query_param("missing"), None);
    }

    #[test]
    fn rejects_a_malformed_request_line() {
        let raw = b"nonsense\r\n\r\n";
        let err = read_request(&mut BufReader::new(&raw[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_request_line_that_never_ends_is_cut_off_at_the_cap() {
        let raw = vec![b'A'; 1 << 20];
        let mut input = &raw[..];
        let err = read_request(&mut input).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let consumed = (raw.len() - input.len()) as u64;
        assert_eq!(consumed, MAX_LINE_BYTES, "read past the cap");
    }

    #[test]
    fn rejects_an_over_long_header() {
        let mut raw = b"GET /metrics HTTP/1.1\r\nX-Padding: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 1 << 20));
        raw.extend_from_slice(b"\r\n\r\n");
        let err = read_request(&mut BufReader::new(&raw[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // At the cap exactly, terminator included, a line still parses.
        let mut raw = b"GET /metrics HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_LINE_BYTES as usize - 2));
        raw.extend_from_slice(b"\r\n\r\n");
        assert!(read_request(&mut BufReader::new(&raw[..])).is_ok());
    }

    #[test]
    fn fixed_response_carries_content_length() {
        let mut out = Vec::new();
        ok(&mut out, "application/json", b"{}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn chunked_stream_frames_each_record() {
        let mut out = Vec::new();
        start_chunked(&mut out, "application/x-ndjson").unwrap();
        write_chunk(&mut out, b"{\"a\":1}\n").unwrap();
        write_chunk(&mut out, b"").unwrap(); // no-op, not a terminator
        finish_chunks(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked"));
        assert!(text.contains("8\r\n{\"a\":1}\n\r\n"));
        assert!(text.ends_with("0\r\n\r\n"));
    }
}
