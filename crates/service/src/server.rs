//! Blocking TCP front-end: one thread per connection, newline-delimited
//! JSON requests handled by [`wire::handle_line`](crate::wire::handle_line).
//!
//! Std-only by design (no async runtime is available offline): for a
//! CPU-bound workload the engine pool is the real concurrency limit, so a
//! thread per connection is cheap enough and keeps the server ~60 lines.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use crate::service::KpjService;
use crate::wire::handle_line;

/// Serve `listener` forever, spawning one handler thread per accepted
/// connection. Returns only when `accept` fails fatally.
pub fn serve(listener: TcpListener, service: Arc<KpjService>) -> std::io::Result<()> {
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            // Transient per-connection failures should not kill the
            // server loop.
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => continue,
            Err(e) => return Err(e),
        };
        let service = Arc::clone(&service);
        std::thread::Builder::new()
            .name("kpj-conn".to_string())
            .spawn(move || {
                let _ = handle_connection(stream, &service);
            })?;
    }
    Ok(())
}

/// Drive one connection: read request lines, write response lines, until
/// EOF or an I/O error.
fn handle_connection(stream: TcpStream, service: &KpjService) -> std::io::Result<()> {
    let reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        writer.write_all(handle_line(service, &line).as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use crate::service::ServiceConfig;
    use kpj_graph::GraphBuilder;

    #[test]
    fn tcp_roundtrip() {
        let mut b = GraphBuilder::new(3);
        b.add_bidirectional(0, 1, 1).unwrap();
        b.add_bidirectional(1, 2, 1).unwrap();
        let service = Arc::new(KpjService::new(
            Arc::new(b.build()),
            None,
            ServiceConfig {
                pool: PoolConfig {
                    workers: 1,
                    queue_capacity: 4,
                },
                cache_capacity: 4,
                ..ServiceConfig::default()
            },
        ));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let _ = serve(listener, service);
        });

        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        writer
            .write_all(b"{\"id\":1,\"op\":\"ping\"}\n{\"id\":2,\"op\":\"query\",\"sources\":[0],\"targets\":[2],\"k\":1}\n")
            .unwrap();
        writer.flush().unwrap();

        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"pong\":true"), "{line}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");
        assert!(line.contains("\"lengths\":[2]"), "{line}");
    }
}
