//! The standalone shard worker: `hdmm-shard-worker --listen 127.0.0.1:7411`.
//!
//! Serves shard-task RPCs (slab loads, trailing-factor products) until
//! killed. All state is pushed by the coordinator, so a worker can be
//! restarted at any time — the coordinator re-pushes slabs on demand.
//!
//! **Security.** The protocol is unauthenticated, and slab contents are the
//! raw private data vector: anyone who can reach the port can read them
//! back. Listen on loopback or a trusted private network only — never bind
//! a worker to a publicly reachable address.

use hdmm_net::{spawn_worker, WorkerOptions};
use std::time::Duration;

const USAGE: &str = "usage: hdmm-shard-worker [--listen ADDR] [--delay-ms N]

  --listen ADDR      address to listen on (default 127.0.0.1:7411)
  --delay-ms N       artificial per-task latency in ms (fault injection; default 0)

The protocol is unauthenticated and slabs hold raw private data: listen on
loopback or a trusted private network only.";

fn main() {
    let mut listen = String::from("127.0.0.1:7411");
    let mut delay_ms = 0u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => match args.next() {
                Some(v) => listen = v,
                None => die("--listen needs an address"),
            },
            "--delay-ms" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(v)) => delay_ms = v,
                _ => die("--delay-ms needs an integer"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }

    let opts = WorkerOptions {
        task_delay: Duration::from_millis(delay_ms),
    };
    match spawn_worker(listen.as_str(), opts) {
        Ok(handle) => {
            println!("hdmm-shard-worker listening on {}", handle.addr());
            // The accept loop runs on background threads; park forever. The
            // handle must stay alive — dropping it stops the worker.
            loop {
                std::thread::park();
            }
        }
        Err(e) => die(&format!("cannot listen on {listen}: {e}")),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("hdmm-shard-worker: {msg}\n{USAGE}");
    std::process::exit(2);
}
