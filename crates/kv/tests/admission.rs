//! Connection admission, runtime-id recycling, and shutdown with
//! requests in flight. Connection threads execute on the shard engines
//! with dense runtime ids, which must stay below `queue_cap`.

use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};

use hcf_kv::{Command, KvClient, KvConfig, KvServer, Reply};
use hcf_util::frame::{read_frame, write_frame_owned, FrameLimits};

/// A bare connection; unlike [`KvClient`] it can half-close.
type Raw = BufReader<TcpStream>;

fn connect(addr: SocketAddr) -> Raw {
    BufReader::new(TcpStream::connect(addr).expect("connect"))
}

fn request(conn: &mut Raw, cmd: &Command) -> Reply {
    let mut buf = Vec::new();
    write_frame_owned(&mut buf, &cmd.to_args()).expect("encode");
    conn.get_mut().write_all(&buf).expect("send");
    let args = read_frame(conn, FrameLimits::default()).expect("read reply");
    Reply::parse(&args.expect("server closed before replying")).expect("parse reply")
}

/// Half-closes and waits for the server to close its side: proof that
/// the server's connection thread is gone.
fn close_and_wait(mut conn: Raw) {
    conn.get_ref()
        .shutdown(Shutdown::Write)
        .expect("half-close");
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "unexpected bytes after close: {rest:?}");
}

#[test]
fn connection_beyond_cap_gets_busy() {
    let server = KvServer::start(KvConfig::default().with_shards(4).with_queue_cap(2))
        .expect("server start");
    let addr = server.local_addr();

    // A reply proves the connection was admitted (admission happens at
    // accept, before the first request is read).
    let mut first = connect(addr);
    let set = Command::Set(b"k".to_vec(), b"v".to_vec());
    assert_eq!(request(&mut first, &set), Reply::Ok);
    let mut second = KvClient::connect(addr).expect("connect");
    assert_eq!(second.get(b"k").expect("GET").as_deref(), Some(&b"v"[..]));

    let mut third = KvClient::connect(addr).expect("TCP connect still succeeds");
    let reply = third.request(&Command::Get(b"k".to_vec()));
    assert_eq!(reply.expect("BUSY reply"), Reply::Busy);
    let stats = second.stats().expect("STATS");
    assert!(stats.contains("\"busy_conns\":1"), "stats JSON: {stats}");

    // Closing an admitted connection frees its slot.
    close_and_wait(first);
    let mut fourth = KvClient::connect(addr).expect("connect");
    assert_eq!(fourth.incr(b"n").expect("INCR"), 1);

    second.shutdown().expect("SHUTDOWN");
    server.join().expect("clean join");
}

#[test]
fn runtime_ids_of_closed_connections_are_reused() {
    const CAP: usize = 2;
    let server = KvServer::start(KvConfig::default().with_shards(4).with_queue_cap(CAP))
        .expect("server start");
    let addr = server.local_addr();

    // Three times as many connections as the engines have thread slots:
    // without id recycling the third one would trip `max_threads`.
    for i in 0..3 * CAP {
        let mut conn = connect(addr);
        let key = format!("cycle{i}").into_bytes();
        assert_eq!(request(&mut conn, &Command::Get(key.clone())), Reply::Nil);
        let set = Command::Set(key.clone(), b"x".to_vec());
        assert_eq!(request(&mut conn, &set), Reply::Ok);
        assert_eq!(
            request(&mut conn, &Command::Get(key)),
            Reply::Val(b"x".to_vec())
        );
        close_and_wait(conn);
    }

    let mut client = KvClient::connect(addr).expect("connect");
    client.shutdown().expect("SHUTDOWN");
    server.join().expect("clean join");
}

#[test]
fn shutdown_serves_requests_already_sent() {
    const PIPELINED: u64 = 20_000;
    let server = KvServer::start(KvConfig::default().with_shards(4)).expect("server start");
    let addr = server.local_addr();

    // Pipeline far more INCRs than the server handles before SHUTDOWN
    // arrives, so its thread is still inside them when join kicks it.
    let mut conn = connect(addr);
    let mut writer = conn.get_ref().try_clone().expect("clone");
    let shutdown = std::thread::spawn(move || {
        let mut buf = Vec::new();
        for _ in 0..PIPELINED {
            write_frame_owned(&mut buf, &Command::Incr(b"n".to_vec()).to_args()).expect("encode");
        }
        writer.write_all(&buf).expect("send");
        let mut admin = KvClient::connect(addr).expect("connect");
        admin.shutdown().expect("SHUTDOWN");
        server.join()
    });
    for n in 1..=PIPELINED {
        let args = read_frame(&mut conn, FrameLimits::default())
            .expect("read reply")
            .unwrap_or_else(|| panic!("closed after {} of {PIPELINED} replies", n - 1));
        assert_eq!(Reply::parse(&args), Ok(Reply::Int(n)));
    }
    shutdown
        .join()
        .expect("shutdown thread")
        .expect("join returns Ok");
    // The listener is gone. A racing TIME_WAIT accept may still connect,
    // but a request must not succeed.
    assert!(KvClient::connect(addr).map_or(true, |mut c| c.get(b"n").is_err()));
}
