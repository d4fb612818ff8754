//! `urcgc_node` — run one urcgc group member as a standalone OS process.
//!
//! Each member of the group runs its own `urcgc_node` (possibly on a
//! different host); all members are given the same ordered peer list. An
//! interactive stdin loop turns typed lines into causal multicasts and
//! prints every processed message — a minimal "group chat" that is also
//! the deployment skeleton for real applications.
//!
//! Example (three shells):
//!
//! ```text
//! urcgc_node --me 0 --peers 127.0.0.1:7700,127.0.0.1:7701,127.0.0.1:7702
//! urcgc_node --me 1 --peers 127.0.0.1:7700,127.0.0.1:7701,127.0.0.1:7702
//! urcgc_node --me 2 --peers 127.0.0.1:7700,127.0.0.1:7701,127.0.0.1:7702
//! ```

use std::io::BufRead;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::Duration;

use bytes::Bytes;

use urcgc_runtime::{spawn_member, AppEvent, NodeOptions};
use urcgc_types::{ProcessId, ProtocolConfig};

const HELP: &str = "\
urcgc_node — run one urcgc group member over UDP

USAGE:
  urcgc_node --me I --peers ADDR0,ADDR1,... [--k K] [--round-ms MS]

OPTIONS:
  --me I          this member's index into the peer list (0-based)
  --peers LIST    comma-separated UDP addresses of ALL members, in order
  --k K           failure-detection bound (default 3)
  --round-ms MS   round duration in milliseconds (default 20)
  --help          print this help

Type a line + Enter to multicast it causally; every processed message is
printed as `origin#seq: text`. Ctrl-D exits.
";

struct Args {
    me: ProcessId,
    peers: Vec<SocketAddr>,
    k: u32,
    round_ms: u64,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut me = None;
    let mut peers: Vec<SocketAddr> = Vec::new();
    let mut k = 3u32;
    let mut round_ms = 20u64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--me" => me = Some(value()?.parse::<u16>().map_err(|e| format!("--me: {e}"))?),
            "--peers" => {
                peers = value()?
                    .split(',')
                    .map(|a| a.parse().map_err(|e| format!("--peers: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--k" => k = value()?.parse().map_err(|e| format!("--k: {e}"))?,
            "--round-ms" => round_ms = value()?.parse().map_err(|e| format!("--round-ms: {e}"))?,
            "--help" | "-h" => return Err(HELP.to_string()),
            other => return Err(format!("unknown flag {other}\n\n{HELP}")),
        }
    }
    let me = me.ok_or("missing --me")?;
    if peers.is_empty() {
        return Err("missing --peers".into());
    }
    if me as usize >= peers.len() {
        return Err(format!("--me {me} outside peer list of {}", peers.len()));
    }
    Ok(Args {
        me: ProcessId(me),
        peers,
        k,
        round_ms,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let n = args.peers.len();
    let cfg = ProtocolConfig::new(n).with_k(args.k);
    let bind = args.peers[args.me.index()];
    eprintln!(
        "urcgc_node: member {} of {n}, bound to {bind}, K = {}",
        args.me, args.k
    );
    let opts = NodeOptions::default().round_duration(Duration::from_millis(args.round_ms));
    let (mut handle, shutdown) = match spawn_member(args.me, bind, args.peers, cfg, opts) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Stdin lines arrive through a thread so the main loop can multiplex
    // them with protocol events. After EOF the member keeps participating
    // in the group (serving recovery, processing foreign messages) until
    // it leaves or is killed.
    let (line_tx, line_rx) = mpsc::channel::<String>();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            if line_tx.send(line).is_err() {
                break;
            }
        }
    });

    loop {
        for text in line_rx.try_iter() {
            if text.is_empty() {
                continue;
            }
            match handle.submit(Bytes::from(text), vec![]) {
                Ok(mid) => eprintln!("(sent as {mid})"),
                Err(e) => eprintln!("(send failed: {e})"),
            }
        }
        match handle.next_event(Duration::from_millis(50)) {
            Some(AppEvent::Delivered(msg)) => {
                println!("{}: {}", msg.mid, String::from_utf8_lossy(&msg.payload));
            }
            Some(AppEvent::StatusChanged(st)) => {
                eprintln!("(status: {st:?})");
                if !st.is_active() {
                    break;
                }
            }
            Some(_) => {}
            None => {
                // Timeout: loop back to poll stdin. A dead member surfaces
                // as a failed submit or a StatusChanged event.
            }
        }
    }
    shutdown.shutdown();
    ExitCode::SUCCESS
}
