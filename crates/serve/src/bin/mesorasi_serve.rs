//! `mesorasi-serve`: long-lived inference server over the binary protocol.
//!
//! ```text
//! mesorasi-serve [--network pointnetpp-cls] [--addr 127.0.0.1:7077]
//!                [--workers N] [--classes N] [--paper]
//!                [--queue-depth N]
//! ```
//!
//! One dispatcher serves each session engine, so `--workers` sets both.
//! `--help` exits 0; a bad flag or value prints the usage and exits 2.

use mesorasi_networks::{NetworkKind, SessionBuilder};
use mesorasi_serve::{Server, ServerConfig};
use std::sync::Arc;

const USAGE: &str = "\
mesorasi-serve: serve point-cloud inference over TCP

USAGE:
    mesorasi-serve [OPTIONS]

OPTIONS:
    --network NAME     network to serve (default pointnetpp-cls); one of
                       pointnetpp-cls, pointnetpp-seg, dgcnn-cls, dgcnn-seg,
                       fpointnet, ldgcnn, densepoint
    --addr HOST:PORT   bind address (default 127.0.0.1:7077; port 0 = ephemeral)
    --workers N        session engine pool size, one dispatcher per engine
                       (default: host threads)
    --classes N        label-space size for small-scale builds (default 10)
    --paper            serve the paper-scale network instead of the small one
    --queue-depth N    admission-control queue bound (default 64); overflow
                       sheds the oldest request with a typed error
    -h, --help         print this help
";

struct Args {
    network: NetworkKind,
    addr: String,
    workers: Option<usize>,
    classes: usize,
    paper: bool,
    queue_depth: usize,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        network: NetworkKind::PointNetPPClassification,
        addr: "127.0.0.1:7077".into(),
        workers: None,
        classes: 10,
        paper: false,
        queue_depth: 64,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value =
            |flag: &str| it.next().unwrap_or_else(|| usage_error(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--network" => {
                let name = value("--network");
                args.network = NetworkKind::from_cli_name(&name)
                    .unwrap_or_else(|| usage_error(&format!("unknown network '{name}'")));
            }
            "--addr" => args.addr = value("--addr"),
            "--workers" => args.workers = Some(parse_count("--workers", &value("--workers"))),
            "--classes" => args.classes = parse_count("--classes", &value("--classes")),
            "--paper" => args.paper = true,
            "--queue-depth" => {
                args.queue_depth = parse_count("--queue-depth", &value("--queue-depth"));
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown flag '{other}'")),
        }
    }
    args
}

fn parse_count(flag: &str, raw: &str) -> usize {
    match raw.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => usage_error(&format!("{flag} wants a positive integer, got '{raw}'")),
    }
}

fn main() {
    let args = parse_args();
    let mut builder = SessionBuilder::from_kind(args.network).classes(args.classes);
    if args.paper {
        builder = builder.paper_scale();
    }
    if let Some(workers) = args.workers {
        builder = builder.workers(workers);
    }
    let session = Arc::new(builder.build());
    eprintln!(
        "serving {} ({}, {} input points, {} engine workers)",
        args.network.name(),
        session.domain().label(),
        session.network().input_points(),
        session.workers(),
    );

    let config = ServerConfig { addr: args.addr, queue_depth: args.queue_depth };
    let server = match Server::spawn(session, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: could not start server: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "listening on {} (queue depth {}, one dispatcher per engine)",
        server.local_addr(),
        args.queue_depth,
    );

    // Serve until killed.
    loop {
        std::thread::park();
    }
}
