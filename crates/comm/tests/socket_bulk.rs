//! Bulk traffic between two real [`SocketTransport`]s over loopback TCP
//! (an in-test hub stub does the rendezvous, as in
//! `protocol_differential.rs`): payloads of awkward lengths round-trip
//! byte-exactly through the streamed-CRC frame path, and two ranks that
//! each queue more than the socket buffers hold *before either
//! receives* still complete — the "send never blocks on the receiver"
//! contract `try_alltoallv`'s send-then-receive pattern relies on.

use hacc_comm::socket::{SocketConfig, SocketTransport};
use hacc_comm::{Comm, Transport};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const MIB: usize = 1 << 20;

/// Minimal hub: rendezvous two ranks, then drain their control lines
/// (answering `BEAT`) until they hang up.
fn spawn_hub() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("hub bind");
    let addr = listener.local_addr().expect("hub addr").to_string();
    std::thread::spawn(move || {
        let mut conns: Vec<(String, BufReader<TcpStream>, TcpStream)> = Vec::new();
        while conns.len() < 2 {
            let (stream, _) = listener.accept().expect("hub accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut hello = String::new();
            reader.read_line(&mut hello).expect("HELLO line");
            let mut it = hello.split_whitespace();
            assert_eq!(it.next(), Some("HELLO"), "unexpected greeting {hello:?}");
            let (rank, _inc, data_addr) = (it.next(), it.next(), it.next());
            let peer = format!(
                "PEER {} 0 {}",
                rank.expect("rank"),
                data_addr.expect("addr")
            );
            conns.push((peer, reader, stream));
        }
        let peers: Vec<String> = conns.iter().map(|c| c.0.clone()).collect();
        for (_, reader, mut stream) in conns {
            // watchdog 30 s, scan 60 ms, sync timeout 30 s
            writeln!(stream, "WELCOME 2 30000 60 30000").expect("welcome");
            for line in &peers {
                writeln!(stream, "{line}").expect("peer line");
            }
            writeln!(stream, "STATE 0 healthy 0 0\nSTATE 1 healthy 0 0\nREADY").expect("ready");
            std::thread::spawn(move || {
                for line in reader.lines() {
                    let Ok(line) = line else { break };
                    if line.starts_with("BEAT ") {
                        let _ = writeln!(stream, "BEATACK healthy");
                    }
                }
            });
        }
    });
    addr
}

/// Run `body` as both ranks of a fresh 2-rank socket world, each on its
/// own thread, and fail the test if they have not both returned within
/// `deadline` (a hung transport must fail, not stall the harness).
fn run_pair(deadline: Duration, body: fn(&Comm)) {
    let hub_addr = spawn_hub();
    let (done_tx, done_rx) = mpsc::channel::<usize>();
    for rank in 0..2 {
        let hub_addr = hub_addr.clone();
        let done_tx = done_tx.clone();
        std::thread::spawn(move || {
            let transport: Arc<SocketTransport> = SocketTransport::connect(SocketConfig {
                hub_addr,
                rank,
                ranks: 2,
                incarnation: 0,
            })
            .expect("transport connects");
            let comm = Comm::over_socket(Arc::clone(&transport));
            body(&comm);
            // Both sides finish receiving before either closes its link.
            comm.barrier();
            transport.shutdown(rank);
            let _ = done_tx.send(rank);
        });
    }
    for _ in 0..2 {
        done_rx
            .recv_timeout(deadline)
            .expect("a rank hung or panicked: the exchange did not finish within the deadline");
    }
}

/// Payload `n` of rank `me`: position- and sender-dependent bytes, so a
/// swapped, shifted or truncated delivery cannot compare equal.
fn pattern(me: usize, n: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i.wrapping_mul(31).wrapping_add(n * 7 + me * 131) % 251) as u8)
        .collect()
}

/// Lengths around the CRC word size and past the 64 KiB / 4 MiB marks.
#[test]
fn awkward_lengths_round_trip() {
    run_pair(Duration::from_secs(60), |comm| {
        let (me, peer) = (comm.rank(), 1 - comm.rank());
        let lens = [0, 1, 7, 8, 9, 65_539, 4 * MIB + 3];
        for (n, &len) in lens.iter().enumerate() {
            let got: Vec<u8> = comm.sendrecv(peer, 40 + n as u64, pattern(me, n, len));
            assert!(
                got == pattern(peer, n, len),
                "length {len}: payload differs"
            );
        }
    });
}

/// Regression for the send/reader lock hang: both directions at once,
/// 1 × 64 MiB then 8 × 2 MiB queued before any `recv`. With the stream
/// write done under the lock the link's reader also needs, each rank's
/// reader stops draining while its own sender waits for the peer's
/// reader, and both sit in `write` forever (the receive watchdog cannot
/// fire: nobody is in `recv`). The kernel hides this for as much as one
/// connection can hold in flight — 4 to 8 MiB before the receive buffer
/// autotunes, `tcp_wmem` + `tcp_rmem` ceilings (4 + 32 MiB on the
/// reference VM) after — so the first message is larger than that, and
/// a barrier starts both senders together.
#[test]
fn both_ranks_send_bulk_before_either_receives() {
    run_pair(Duration::from_secs(120), |comm| {
        let (me, peer) = (comm.rank(), 1 - comm.rank());
        let lens: Vec<usize> = std::iter::once(64 * MIB).chain([2 * MIB; 8]).collect();
        comm.barrier();
        for (n, &len) in lens.iter().enumerate() {
            comm.send(peer, 7, pattern(me, n, len));
        }
        for (n, &len) in lens.iter().enumerate() {
            let got: Vec<u8> = comm.recv(peer, 7);
            assert!(got == pattern(peer, n, len), "message {n}: payload differs");
        }
    });
}
