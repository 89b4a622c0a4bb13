//! Serve quickstart: stand up a mesorasi-serve server in-process, pipeline
//! a synthetic sensor stream through the network client, and read the
//! scheduler counters back.
//!
//! ```text
//! cargo run --release --example serve_quickstart
//! ```

use mesorasi::prelude::*;
use mesorasi::serve::{Client, Response, Server, ServerConfig};
use std::sync::Arc;

fn main() {
    // A small classification session with a 2-engine pool; the same
    // builder knobs (paper_scale, sample_cache_cap, ...) apply.
    let session = Arc::new(
        SessionBuilder::from_kind(NetworkKind::PointNetPPClassification)
            .classes(10)
            .workers(2)
            .build(),
    );
    let n = session.network().input_points();

    // Bind an ephemeral port; `mesorasi-serve` is the standalone flavor.
    let server = Server::spawn(session, ServerConfig::default()).expect("bind server");
    println!("serving on {}", server.local_addr());

    // One lock-step request through the typed client.
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let cloud = sample_shape(ShapeClass::Chair, n, 42);
    let inference = client.infer(0, &cloud).expect("inference");
    let logits = inference.as_classification().expect("classification domain");
    println!("remote inference: predicted class {}", logits.predicted());

    // A pipelined sensor stream: 60 frames, same shape size (batchable),
    // varied content, all sent before any response is read. Every request
    // gets a typed outcome — sheds are reported, never silent.
    for id in 1..=60u64 {
        let frame = sample_shape(ShapeClass::Car, n, id);
        client.send_infer(id, &frame).expect("send");
    }
    let (mut ok, mut shed) = (0, 0);
    for _ in 0..60 {
        match client.recv().expect("response") {
            Response::Result { .. } => ok += 1,
            Response::Error { .. } => shed += 1,
        }
    }
    println!("pipelined 60 frames: {ok} ok, {shed} shed");

    let stats = client.stats().expect("stats");
    println!(
        "server counters: {} served over {} dispatches ({} shed, {} malformed); \
         NIT cache {} hits / {} misses / {} evictions",
        stats.served,
        stats.batches,
        stats.shed,
        stats.malformed,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
    );
    server.shutdown();
}
