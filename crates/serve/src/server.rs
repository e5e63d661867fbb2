//! Transport front-ends: TCP loopback and stdin/stdout pipe mode.
//!
//! Both speak the same newline-delimited protocol and share one
//! [`ServeEngine`]. Per connection, a reader thread admits request lines
//! (so the engine can pipeline them across workers) and hands the
//! per-request [`Response`] handles to a writer in admission order —
//! responses on a connection therefore come back **in request order**
//! even when later requests finish first.

use crate::engine::{Response, ServeEngine};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Serves one established byte stream (the shared TCP / stdio core).
///
/// Reads request lines from `input` until EOF, writes one response line
/// per request to `output` in request order, then flushes and returns.
/// Empty lines are ignored (a convenience for hand-driven `nc` sessions).
pub fn serve_stream(engine: &Arc<ServeEngine>, input: impl Read, output: impl Write + Send) {
    let (handle_tx, handle_rx) = mpsc::channel::<Response>();
    thread::scope(|scope| {
        scope.spawn(move || {
            let mut out = BufWriter::new(output);
            for response in handle_rx {
                let line = response.wait();
                if out.write_all(line.as_bytes()).is_err() || out.write_all(b"\n").is_err() {
                    return;
                }
                // Flush per line: clients block on complete responses.
                if out.flush().is_err() {
                    return;
                }
            }
        });
        let max = engine.max_line_bytes();
        let mut reader = BufReader::new(input);
        while let Ok(Some(line)) = read_bounded_line(&mut reader, max) {
            let response = match line {
                BoundedLine::Ok(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    engine.submit_line(&line)
                }
                // The over-long line was consumed (not buffered); answer
                // with the typed error and keep serving the connection.
                BoundedLine::TooLong => engine.reject_oversized_line(),
            };
            if handle_tx.send(response).is_err() {
                break;
            }
        }
        drop(handle_tx);
    });
}

/// One request line read under the length cap.
enum BoundedLine {
    /// A complete line of at most `max` bytes (newline stripped).
    Ok(String),
    /// The line exceeded the cap; its bytes were discarded up to the
    /// next newline so the stream stays in sync.
    TooLong,
}

/// Reads one newline-terminated line, buffering at most `max` bytes.
///
/// Unlike `BufRead::lines`, an over-long line cannot balloon memory: once
/// the cap is crossed the remaining bytes are consumed and dropped, and
/// the caller gets [`BoundedLine::TooLong`] instead of the contents.
/// Returns `Ok(None)` at EOF.
fn read_bounded_line(
    reader: &mut impl BufRead,
    max: usize,
) -> std::io::Result<Option<BoundedLine>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflowed = false;
    let mut saw_any = false;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // EOF: a final unterminated line still counts.
            if !saw_any {
                return Ok(None);
            }
            break;
        }
        saw_any = true;
        let (take, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (chunk.len(), false),
        };
        if !overflowed {
            let line_bytes = if done { take - 1 } else { take };
            if buf.len() + line_bytes > max {
                overflowed = true;
                buf.clear();
            } else {
                buf.extend_from_slice(&chunk[..line_bytes]);
            }
        }
        reader.consume(take);
        if done {
            break;
        }
    }
    if overflowed {
        return Ok(Some(BoundedLine::TooLong));
    }
    // CRLF tolerance, matching `BufRead::lines`.
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    // A valid UTF-8 line keeps the bytes it was read into.
    let line = String::from_utf8(buf)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
    Ok(Some(BoundedLine::Ok(line)))
}

/// Accept loop for a TCP listener. Each connection gets its own serving
/// thread; the loop polls the engine's drain flag between accepts and
/// returns once a drain begins (existing connections finish naturally).
///
/// # Errors
///
/// Propagates the error of switching the listener to non-blocking mode
/// (needed to observe the drain flag while idle).
pub fn serve_tcp(engine: &Arc<ServeEngine>, listener: &TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    loop {
        if engine.is_draining() {
            return Ok(());
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                let engine = Arc::clone(engine);
                let spawned = thread::Builder::new()
                    .name("lcosc-serve-conn".to_string())
                    .spawn(move || serve_connection(&engine, stream));
                if let Err(e) = spawned {
                    eprintln!("lcosc-serve: failed to spawn connection thread: {e}");
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    }
}

fn serve_connection(engine: &Arc<ServeEngine>, stream: TcpStream) {
    // The accept loop is non-blocking; the connection itself must block.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    // Small request/response lines + Nagle + delayed ACK cost ~40 ms per
    // round trip on loopback; this is a latency-bound line protocol.
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    serve_stream(engine, stream, write_half);
}

/// Pipe mode: serve stdin → stdout until EOF, then drain the engine.
pub fn serve_stdio(engine: &Arc<ServeEngine>) {
    serve_stream(engine, std::io::stdin(), std::io::stdout());
    engine.shutdown();
}
