//! The shipped `hdmm-shard-worker` binary, talked to across processes.
//!
//! Two workers are spawned as child processes on ephemeral loopback ports,
//! and a `WorkerPool` runs a slab task and a whole request through
//! [`RpcKernels`] against them. Every result must equal the in-process
//! kernels bit for bit — the same check the in-process `spawn_worker` tests
//! make, with real process and socket boundaries. A worker process must
//! also survive a crafted `SlabForward` frame nested deeply enough to
//! overflow a decoder that recursed without bound, and refuse one carrying a
//! width-range leaf whose window does not fit its domain.

use hdmm_core::{codec, ShardedDataVector};
use hdmm_linalg::{kmatvec_trailing_slab, StructuredMatrix};
use hdmm_mechanism::{run_mechanism, MechanismRequest, PreparedReconstruct, Strategy};
use hdmm_net::{
    read_frame, write_frame, Frame, RemoteOptions, RetryPolicy, RpcKernels, TraceExt, PROTO_V2,
    WIRE_PREFIX,
};
use hdmm_workload::{blocks, builders};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// A worker process, killed when dropped so a failing test leaves none.
struct WorkerProcess {
    child: Child,
    addr: String,
}

impl WorkerProcess {
    /// Starts the binary on an ephemeral port and reads the address it
    /// announces on its first stdout line.
    fn spawn() -> WorkerProcess {
        let mut child = Command::new(env!("CARGO_BIN_EXE_hdmm-shard-worker"))
            .args(["--listen", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("the shard-worker binary starts");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("the worker announces its address");
        let addr = line
            .trim()
            .strip_prefix("hdmm-shard-worker listening on ")
            .unwrap_or_else(|| panic!("unexpected announcement {line:?}"))
            .to_string();
        WorkerProcess { child, addr }
    }
}

impl Drop for WorkerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn data(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 7) % 13) as f64 - 0.5).collect()
}

#[test]
fn two_worker_processes_match_the_in_process_kernels_bitwise() {
    let workers = [WorkerProcess::spawn(), WorkerProcess::spawn()];
    let pool = RemoteOptions {
        workers: workers.iter().map(|w| w.addr.clone()).collect(),
        policy: RetryPolicy {
            task_timeout: Duration::from_secs(10),
            ..RetryPolicy::default()
        },
    }
    .connect();
    assert!(
        pool.health().workers.iter().all(|w| w.alive),
        "both processes answer the registration ping"
    );

    // A slab task: the trailing factor over a 3-row slab of 5 cells.
    let trailing = StructuredMatrix::prefix(5).scaled(0.2);
    let refs = [&trailing];
    let slab = data(15);
    let forward = pool
        .run_slab_task("d", 0, &refs, (0, 3), &slab, &())
        .expect("slab task");
    assert!(bits_eq(&forward, &kmatvec_trailing_slab(&refs, &slab)));

    // A whole request over the RPC kernels vs the plain pipeline.
    let workload = builders::prefix_2d(9, 5);
    let strategy = Strategy::kron(vec![
        blocks::prefix(9).scaled(1.0 / 9.0),
        blocks::prefix(5).scaled(0.2),
    ]);
    let prepared = PreparedReconstruct::new(&strategy);
    let x = data(45);
    let sharded = ShardedDataVector::partition(workload.domain(), x.clone(), 3);
    let remote = MechanismRequest {
        workload: &workload,
        prepared: &prepared,
        eps: 1.0,
    }
    .run(
        &mut StdRng::seed_from_u64(7),
        &RpcKernels {
            pool: &pool,
            dataset: "x",
            data: &sharded,
            observer: &(),
        },
        &(),
    )
    .expect("healthy worker processes");
    let plain = run_mechanism(&workload, &strategy, &x, 1.0, &mut StdRng::seed_from_u64(7));
    assert!(bits_eq(&remote.x_hat, &plain.x_hat), "x_hat diverges");
    assert!(bits_eq(&remote.answers, &plain.answers), "answers diverge");

    let health = pool.health();
    assert_eq!(health.retries, 0, "no attempt failed");
    assert!(
        health.workers.iter().all(|w| w.tasks > 0),
        "both processes served tasks: {health:?}"
    );
}

/// A sealed, length-prefixed `SlabForward` frame whose trailing factors are
/// the encoded factor list `list`.
fn slab_forward_frame(list: &[u8]) -> Vec<u8> {
    let mut frame = vec![0; 4];
    frame.extend_from_slice(WIRE_PREFIX);
    frame.push(PROTO_V2);
    codec::put_u64(&mut frame, 0);
    codec::put_u64(&mut frame, 0);
    codec::put_usize(&mut frame, 0);
    frame.push(2);
    codec::put_str(&mut frame, "d");
    codec::put_u64(&mut frame, 0);
    frame.extend_from_slice(list);
    let sum = codec::checksum(&frame[4..]);
    codec::put_u64(&mut frame, sum);
    let len = u32::try_from(frame.len() - 4).expect("a frame under 4 GiB");
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame
}

/// A one-factor list whose factor nests 10 000 `Kron` leaves (90 KB). No
/// encoder writes such a list, so it is built by hand.
fn nested_kron_list() -> Vec<u8> {
    let mut list = Vec::new();
    codec::put_usize(&mut list, 1);
    for _ in 0..10_000 {
        list.push(6);
        codec::put_usize(&mut list, 1);
    }
    codec::put_structured(&mut list, &StructuredMatrix::total(2));
    list
}

/// A one-factor list whose factor is a width range (tag 10) with a window
/// wider than its domain: 9 cells over 8, which no constructor builds and
/// whose row count `n − width + 1` would underflow.
fn forged_width_range_list() -> Vec<u8> {
    let mut list = Vec::new();
    codec::put_usize(&mut list, 1);
    list.push(10);
    codec::put_usize(&mut list, 8);
    codec::put_usize(&mut list, 9);
    codec::put_f64(&mut list, 1.0);
    list
}

/// Any client that reaches the port can send a crafted frame. The worker
/// must answer it with a typed error or drop that connection — not abort
/// on a stack overflow or a panic — and then answer a ping on a new
/// connection.
fn assert_a_worker_process_survives(frame: &[u8]) {
    let worker = WorkerProcess::spawn();
    let timeout = Some(Duration::from_secs(10));
    let mut crafted = TcpStream::connect(&worker.addr).expect("the worker accepts");
    crafted.set_read_timeout(timeout).expect("socket option");
    crafted.write_all(frame).expect("the frame is sent");
    match read_frame(&mut crafted) {
        Ok((Frame::Error { .. }, _)) | Err(_) => {}
        Ok((other, _)) => panic!("the crafted frame was answered with {other:?}"),
    }

    let mut probe = TcpStream::connect(&worker.addr).expect("the worker still accepts");
    probe.set_read_timeout(timeout).expect("socket option");
    write_frame(&mut probe, &Frame::Ping, &TraceExt::default()).expect("ping sent");
    let (pong, _) = read_frame(&mut probe).expect("the worker still answers");
    assert_eq!(pong, Frame::Pong { slabs: 0 });
}

#[test]
fn a_worker_process_survives_a_nested_kron_slab_forward_frame() {
    assert_a_worker_process_survives(&slab_forward_frame(&nested_kron_list()));
}

#[test]
fn a_worker_process_refuses_a_forged_width_range_slab_forward_frame() {
    assert_a_worker_process_survives(&slab_forward_frame(&forged_width_range_list()));
}
