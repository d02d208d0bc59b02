//! Bounded request reading: a peer that streams bytes without ever
//! sending a newline cannot make a connection buffer grow without
//! limit. The daemon answers the over-long line with an error reply
//! and closes that connection, while other connections keep being
//! served.

use service::{Client, Outcome, Request, Response, RuleSpec, Service, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

#[test]
fn a_line_without_newline_is_cut_off_while_other_connections_are_served() {
    let daemon = Service::start(ServiceConfig::default()).expect("daemon start");
    let addr = daemon.local_addr();

    // 1 MiB of request bytes and never a newline, written from its own
    // thread: once the daemon hangs up, the remaining writes fail,
    // which ends the thread.
    let flood = TcpStream::connect(addr).expect("flood connect");
    flood
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut sink = flood.try_clone().expect("clone flood stream");
    let writer = std::thread::spawn(move || {
        let chunk = [b'x'; 16 * 1024];
        let mut sent = 0usize;
        while sent < 1 << 20 && sink.write_all(&chunk).is_ok() {
            sent += chunk.len();
        }
        sent
    });

    // A well-behaved client on a second connection gets its answer.
    let mut client = Client::connect(addr).expect("client connect");
    let response = client
        .roundtrip(Request::PWin {
            delta: 1.0,
            rule: RuleSpec::threshold(vec![0.5, 0.5, 0.5]),
        })
        .expect("normal round trip");
    match response.outcome {
        Ok(Outcome::PWin { value, .. }) => {
            assert!((value - 23.0 / 48.0).abs() < 1e-12, "{value}");
        }
        other => panic!("normal request answered {other:?}"),
    }

    // The flooding connection gets one typed error line, then EOF (or
    // a reset, since the daemon leaves the rest of the flood unread).
    let mut reader = BufReader::new(flood);
    let mut line = String::new();
    reader.read_line(&mut line).expect("error reply");
    let refusal = Response::parse(line.trim_end()).expect("a protocol response");
    match refusal.outcome {
        Err(message) => assert!(message.contains("exceeds"), "{message}"),
        other => panic!("over-long line answered {other:?}"),
    }
    let mut rest = String::new();
    if let Ok(read) = reader.read_line(&mut rest) {
        assert_eq!(read, 0, "the connection must close after the refusal");
    }
    let _sent = writer.join().expect("flood writer");

    // The daemon is still healthy afterwards.
    let again = client
        .roundtrip(Request::PWin {
            delta: 1.0,
            rule: RuleSpec::threshold(vec![0.5, 0.5, 0.5]),
        })
        .expect("round trip after the flood");
    assert!(again.outcome.is_ok(), "{:?}", again.outcome);
    daemon.shutdown();
}
